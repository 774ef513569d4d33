"""Wire-format and serializable-unit tests (repro.core.units)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import DOUBLE, MInterval, RegularTiling
from repro.core.units import (
    ObjectDescriptor,
    SubReadRequest,
    SubReadResponse,
    SubReadStats,
    TilePayload,
    WireError,
    decode_frames,
    encode_frames,
)
from repro.errors import WireFormatError
from repro.service import ShadowObject


class TestFraming:
    def test_round_trip_header_and_frames(self):
        header = {"kind": "x", "value": 7}
        payloads = [b"abc", b"", b"\x00\x01\x02\x03"]
        data = encode_frames(header, payloads)
        decoded, frames = decode_frames(data)
        assert decoded["kind"] == "x"
        assert decoded["value"] == 7
        assert [bytes(f) for f in frames] == payloads

    def test_decoded_frames_are_read_only_views(self):
        data = encode_frames({}, [b"abcd"])
        _header, frames = decode_frames(data)
        assert isinstance(frames[0], memoryview)
        assert frames[0].readonly

    def test_truncated_prefix_rejected(self):
        with pytest.raises(WireFormatError):
            decode_frames(b"\x00\x00")

    def test_truncated_header_rejected(self):
        data = encode_frames({"k": 1}, [])
        with pytest.raises(WireFormatError):
            decode_frames(data[: len(data) - 1])

    def test_truncated_frame_rejected(self):
        data = encode_frames({}, [b"abcdef"])
        with pytest.raises(WireFormatError):
            decode_frames(data[:-2])

    def test_trailing_bytes_rejected(self):
        data = encode_frames({}, [b"abc"])
        with pytest.raises(WireFormatError):
            decode_frames(data + b"!")

    def test_malformed_json_rejected(self):
        bad = b"{nope"
        data = len(bad).to_bytes(4, "big") + bad
        with pytest.raises(WireFormatError):
            decode_frames(data)

    def test_version_mismatch_rejected(self):
        head = json.dumps({"_wire": 999, "_frames": []}).encode()
        data = len(head).to_bytes(4, "big") + head
        with pytest.raises(WireFormatError):
            decode_frames(data)

    @given(
        st.lists(st.binary(min_size=0, max_size=64), max_size=5),
        st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1,
                max_size=8,
            ),
            st.integers(-1000, 1000),
            max_size=4,
        ),
    )
    @pytest.mark.property
    def test_round_trip_property(self, payloads, header):
        header.pop("_wire", None)
        header.pop("_frames", None)
        data = encode_frames(header, payloads)
        decoded, frames = decode_frames(data)
        assert [bytes(f) for f in frames] == payloads
        for key, value in header.items():
            assert decoded[key] == value


class TestSubReadRequest:
    def test_encode_decode_round_trip(self):
        request = SubReadRequest(
            request_id="q1/dn0",
            tenant="alice",
            collection="c",
            object_name="obj",
            region="0:9,3:7",
            tile_ids=(3, 1, 2),
            arrival_v=2.5,
        )
        back = SubReadRequest.decode(request.encode())
        assert back == request

    def test_region_parses(self):
        request = SubReadRequest(
            request_id="q",
            tenant="t",
            collection="c",
            object_name="o",
            region="0:9,3:7",
            tile_ids=(0,),
        )
        assert request.parsed_region().shape == (10, 5)

    def test_payload_frames_rejected(self):
        request = SubReadRequest(
            request_id="q", tenant="t", collection="c",
            object_name="o", region="0:1", tile_ids=(0,),
        )
        header, _frames = decode_frames(request.encode())
        with pytest.raises(WireFormatError):
            SubReadRequest.decode(encode_frames(header, [b"stray"]))


class TestSubReadResponse:
    def _response(self):
        cells = np.arange(12, dtype=np.float64).reshape(3, 4)
        tile = TilePayload(
            tile_id=5,
            domain="0:2,0:3",
            dtype="double",
            payload=memoryview(cells.tobytes()),
        )
        return SubReadResponse(
            request_id="q1/dn0",
            object_name="obj",
            node_id="dn0",
            tiles=[tile],
            stats=SubReadStats(bytes_useful=96, bytes_from_tape=96),
            completion_v=4.25,
        )

    def test_round_trip_tiles_byte_identical(self):
        response = self._response()
        back = SubReadResponse.decode(response.encode())
        assert back.request_id == response.request_id
        assert back.node_id == "dn0"
        assert back.completion_v == 4.25
        assert len(back.tiles) == 1
        np.testing.assert_array_equal(
            back.tiles[0].cells(), response.tiles[0].cells()
        )

    def test_tile_cells_view_is_zero_copy(self):
        response = SubReadResponse.decode(self._response().encode())
        cells = response.tiles[0].cells()
        assert cells.base is not None  # a view, not a copy
        assert not cells.flags.writeable

    def test_stats_round_trip(self):
        back = SubReadResponse.decode(self._response().encode())
        assert back.stats.bytes_useful == 96
        assert back.stats.bytes_from_tape == 96

    def test_error_response_round_trip(self):
        response = SubReadResponse(
            request_id="q",
            object_name="obj",
            node_id="dn1",
            error=WireError(type="DataNodeError", message="boom"),
        )
        back = SubReadResponse.decode(response.encode())
        assert not back.ok
        assert back.error.type == "DataNodeError"
        assert back.error.message == "boom"
        assert back.tiles == []

    @pytest.mark.parametrize("domain, payload, at_cells, at_paste", [
        pytest.param("0:2,0:3", bytes(95), "arrived with 95 B", "arrived with 95 B",
                     id="short"),
        pytest.param("0:2,0:3", bytes(97), "arrived with 97 B", "arrived with 97 B",
                     id="long"),
        pytest.param("0:2,0:9999999999999", bytes(96), "arrived with 96 B",
                     "expected its overlap", id="huge-domain"),
        pytest.param("0:2;0:3", bytes(96), "malformed payload domain",
                     "expected its overlap", id="unparsable-domain"),
    ])
    def test_payload_not_the_domain_rejected_at_cells(
        self, domain, payload, at_cells, at_paste
    ):
        """A tile's cell view and the service node's paste of it share one
        decoder: a payload of the wrong size fails there on both paths; a
        payload of another box fails the paste's routing check first."""
        tile = TilePayload(tile_id=0, domain=domain, dtype="double", payload=payload)
        with pytest.raises(WireFormatError, match=at_cells):
            tile.cells()
        with pytest.raises(WireFormatError, match=at_paste):
            SHADOW.assemble(MInterval.parse("0:2,0:3"), {0: tile})

    def test_unknown_dtype_rejected_at_cells(self):
        tile = TilePayload(
            tile_id=0, domain="0:0", dtype="antimatter", payload=b"\x00" * 8
        )
        with pytest.raises(WireFormatError):
            tile.cells()


#: a service node's view of a 3x4 double object of one tile
SHADOW = ShadowObject(
    ObjectDescriptor(
        collection="c", name="o", domain=MInterval.parse("0:2,0:3"),
        cell_type=DOUBLE, tiling=RegularTiling((3, 4)),
    )
)


# -- untrusted frames fail typed ------------------------------------------------

REQUEST = SubReadRequest(
    request_id="q1/dn0", tenant="alice", collection="c", object_name="obj",
    region="0:2,0:3", tile_ids=(5,), arrival_v=1.5,
)
RESPONSE = SubReadResponse(
    request_id="q1/dn0", object_name="obj", node_id="dn0",
    tiles=[TilePayload(tile_id=5, domain="0:2,0:3", dtype="double", payload=bytes(96))],
    stats=SubReadStats(bytes_useful=96, bytes_from_tape=96),
)
ERROR_RESPONSE = SubReadResponse(
    request_id="q", object_name="obj", error=WireError(type="DataNodeError", message="boom")
)


def _message(head, tail: bytes = b"") -> bytes:
    """A message whose JSON header is exactly *head* (no fields added)."""
    text = json.dumps(head).encode()
    return len(text).to_bytes(4, "big") + text + tail


def _edited(encoded: bytes, edit) -> bytes:
    """*encoded* with *edit* applied to its decoded JSON header."""
    head_len = int.from_bytes(encoded[:4], "big")
    head = json.loads(encoded[4 : 4 + head_len])
    head = edit(head)
    return _message(head, encoded[4 + head_len :])


def _set(key, value):
    def edit(head):
        head[key] = value
        return head
    return edit


def _drop(key):
    def edit(head):
        del head[key]
        return head
    return edit


class TestUntrustedFrames:
    @pytest.mark.parametrize("decode, data", [
        pytest.param(SubReadRequest.decode, _edited(REQUEST.encode(), _drop("request_id")),
                     id="request-without-request_id"),
        pytest.param(SubReadRequest.decode, _edited(REQUEST.encode(), _set("tile_ids", ["x"])),
                     id="tile_ids-not-ints"),
        pytest.param(SubReadRequest.decode, _edited(REQUEST.encode(), _set("tile_ids", 5)),
                     id="tile_ids-not-a-list"),
        pytest.param(SubReadRequest.decode, _edited(REQUEST.encode(), _set("tile_ids", None)),
                     id="tile_ids-null"),
        pytest.param(SubReadRequest.decode, _edited(REQUEST.encode(), _drop("tile_ids")),
                     id="request-without-tile_ids"),
        pytest.param(SubReadRequest.decode, _edited(REQUEST.encode(), _set("arrival_v", "soon")),
                     id="arrival_v-not-a-number"),
        pytest.param(SubReadResponse.decode, _edited(RESPONSE.encode(), _drop("object")),
                     id="response-without-object"),
        pytest.param(SubReadResponse.decode, _edited(RESPONSE.encode(), _set("tiles", [{}])),
                     id="empty-tile-meta"),
        pytest.param(SubReadResponse.decode,
                     _edited(RESPONSE.encode(), _set("stats", {"bytes_useful": "many"})),
                     id="stats-not-numbers"),
        pytest.param(decode_frames, _message(["kind", "sub_read"]), id="header-is-a-list"),
        pytest.param(decode_frames, _message({"_wire": 1, "_frames": "ab"}),
                     id="frame-lengths-a-string"),
    ])
    def test_probe_raises_wire_format_error(self, decode, data):
        with pytest.raises(WireFormatError):
            decode(data)

    def test_negative_frame_length_named(self):
        data = _message({"_wire": 1, "_frames": [-1]}, b"a")
        with pytest.raises(WireFormatError, match="frame lengths"):
            decode_frames(data)

    def test_stats_and_error_dicts_fail_typed(self):
        with pytest.raises(WireFormatError):
            SubReadStats.from_dict({"faults": [1]})
        with pytest.raises(WireFormatError):
            WireError.from_dict({"type": "x"})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """Every position in a JSON tree, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _replace(node, path, value):
    if not path:
        return value
    node[path[0]] = _replace(node[path[0]], path[1:], value)
    return node


@pytest.mark.property
@settings(max_examples=300, deadline=None)
@given(
    sample=st.sampled_from([
        (SubReadRequest.decode, SubReadRequest(
            request_id="q", tenant="t", collection="c", object_name="o", region="0:1",
            tile_ids=(),
        ).encode()),
        (SubReadRequest.decode, REQUEST.encode()),
        (SubReadResponse.decode, RESPONSE.encode()),
        (SubReadResponse.decode, ERROR_RESPONSE.encode()),
    ]),
    data=st.data(),
)
def test_replaced_header_field_decodes_or_fails_typed(sample, data):
    """Any one position of a valid header replaced by any JSON value:
    the decoder either accepts the message or raises WireFormatError."""
    decode, encoded = sample
    head_len = int.from_bytes(encoded[:4], "big")
    path = data.draw(st.sampled_from(list(_paths(json.loads(encoded[4 : 4 + head_len])))))
    value = data.draw(JSON_VALUES)
    damaged = _edited(encoded, lambda head: _replace(head, path, value))
    try:
        decode(damaged)
    except WireFormatError:
        pass


MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0), st.integers(1, 255)),
    st.tuples(st.just("insert"), st.integers(0), st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("delete"), st.integers(0), st.integers(1, 4)),
)


def _mutated(encoded: bytes, mutations) -> bytes:
    """*encoded* with each (kind, position, argument) byte edit applied."""
    data = bytearray(encoded)
    for kind, position, argument in mutations:
        at = position % (len(data) + 1)
        if kind == "flip" and at < len(data):
            data[at] ^= argument
        elif kind == "insert":
            data[at:at] = argument
        elif kind == "delete":
            del data[at : at + argument]
    return bytes(data)


@pytest.mark.property
@settings(max_examples=400, deadline=None)
@given(
    sample=st.sampled_from([
        (SubReadRequest.decode, REQUEST.encode()),
        (SubReadRequest.decode, SubReadRequest(
            request_id="q", tenant="t", collection="c", object_name="o", region="0:1",
            tile_ids=(),
        ).encode()),
        (SubReadResponse.decode, RESPONSE.encode()),
        (SubReadResponse.decode, ERROR_RESPONSE.encode()),
    ]),
    mutations=st.lists(MUTATION, min_size=1, max_size=3),
)
def test_byte_mutated_frame_decodes_or_fails_typed(sample, mutations):
    """Bytes flipped, inserted or deleted anywhere in a valid frame (length
    prefix, JSON header or payload): the decoder either accepts the
    message or raises WireFormatError, and so do the cell views of an
    accepted response."""
    decode, encoded = sample
    try:
        unit = decode(_mutated(encoded, mutations))
    except WireFormatError:
        return
    if isinstance(unit, SubReadResponse):
        for tile in unit.tiles:
            try:
                tile.cells()
            except WireFormatError:
                pass
