"""Tests for RasQL DDL/DML statements and the overlay operator."""

import numpy as np
import pytest

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.arrays.query import (
    CreateCollection,
    DeleteFrom,
    DropCollection,
    parse,
)
from repro.arrays.query.parser import MAX_DEPTH
from repro.core import Heaven, HeavenConfig
from repro.errors import QueryError, QuerySyntaxError
from repro.tertiary import MB


class TestStatementParsing:
    def test_create_collection(self):
        stmt = parse("create collection satellites")
        assert isinstance(stmt, CreateCollection)
        assert stmt.name == "satellites"

    def test_drop_collection(self):
        stmt = parse("DROP COLLECTION old_runs")
        assert isinstance(stmt, DropCollection)
        assert stmt.name == "old_runs"

    def test_delete_with_where(self):
        stmt = parse('delete from runs as r where name(r) = "bad"')
        assert isinstance(stmt, DeleteFrom)
        assert stmt.collection == "runs"
        assert stmt.alias == "r"
        assert stmt.where is not None

    def test_delete_without_where(self):
        stmt = parse("delete from runs")
        assert isinstance(stmt, DeleteFrom)
        assert stmt.where is None
        assert stmt.alias == "runs"

    def test_garbage_statement_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse("truncate runs")

    def test_create_requires_collection_keyword(self):
        with pytest.raises(QuerySyntaxError):
            parse("create table t")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse("drop collection a b")


@pytest.fixture
def heaven():
    instance = Heaven(
        HeavenConfig(
            super_tile_bytes=256 * 1024,
            disk_cache_bytes=16 * MB,
            memory_cache_bytes=4 * MB,
        )
    )
    instance.query("create collection runs")
    for i in range(3):
        mdd = MDD(
            f"run-{i}",
            MInterval.of((0, 31), (0, 31)),
            DOUBLE,
            tiling=RegularTiling((16, 16)),
            source=HashedNoiseSource(i, float(i * 10), float(i * 10 + 1)),
        )
        instance.insert("runs", mdd)
        instance.archive("runs", mdd.name)
    return instance


class TestStatementExecution:
    def test_create_via_query(self, heaven):
        result = heaven.query("create collection extra")
        assert "created" in result[0].value
        assert "extra" in heaven.storage.collection_names()

    def test_delete_with_predicate_releases_everything(self, heaven):
        result = heaven.query(
            "delete from runs as r where avg_cells(r) >= 20"
        )
        assert result[0].value == "deleted 1 object(s)"
        assert "run-2" in result[0].bindings
        assert heaven.collection("runs").names() == ["run-0", "run-1"]
        assert not heaven.is_archived("run-2")
        # Its tape segments are gone too.
        assert not any(
            "run-2" in s.name for m in heaven.library.media() for s in m
        )

    def test_delete_all(self, heaven):
        result = heaven.query("delete from runs")
        assert result[0].value == "deleted 3 object(s)"
        assert len(heaven.collection("runs")) == 0

    def test_drop_collection_via_query(self, heaven):
        heaven.query("drop collection runs")
        assert "runs" not in heaven.storage.collection_names()
        assert not heaven.is_archived("run-0")

    def test_read_only_executor_rejects_statements(self, heaven):
        from repro.arrays import Collection, QueryExecutor

        executor = QueryExecutor(lambda n: Collection(n))
        with pytest.raises(QueryError):
            executor.execute("create collection x")


#: nested query text of *k* levels, and what each of its cells is in
#: terms of the object's cells
NESTINGS = {
    "parentheses": (lambda k: "(" * k + "r" + ")" * k, lambda cells, k: cells),
    "unary-minus": (lambda k: "-" * k + "r", lambda cells, k: (-1) ** k * cells),
    "binary-chain": (lambda k: "r+" * k + "r", lambda cells, k: summed(cells, k + 1)),
}


def summed(cells, count):
    """*count* copies of *cells* added left to right, as ``r+r+...`` is."""
    total = cells
    for _ in range(count - 1):
        total = total + cells
    return total


class TestNestingBound:
    """Untrusted query text nested past the parser's bound fails typed,
    never with a stray ``RecursionError``; one level less runs."""

    @pytest.mark.parametrize("kind", NESTINGS)
    def test_under_the_bound_runs_and_past_it_fails_typed(self, heaven, kind):
        nest, expect = NESTINGS[kind]
        query = 'select {} from runs as r where name(r) = "run-1"'
        result = heaven.query(query.format(nest(MAX_DEPTH - 1)))
        cells = heaven.read("runs", "run-1", MInterval.of((0, 31), (0, 31)))
        assert np.array_equal(result[0].value.cells, expect(cells, MAX_DEPTH - 1))
        for depth in (MAX_DEPTH, 200, 2000):
            with pytest.raises(QuerySyntaxError):
                heaven.query(query.format(nest(depth)))


class TestOverlay:
    def test_overlay_prefers_nonzero_top(self, heaven):
        results = heaven.query(
            'select avg_cells(overlay(a[0:3,0:3] * 0.0, b[0:3,0:3])) '
            'from runs as a, runs as b '
            'where name(a) = "run-0" and name(b) = "run-1"'
        )
        b = heaven.collection("runs").get("run-1")
        expect = b.read(MInterval.of((0, 3), (0, 3))).mean()
        assert results[0].scalar() == pytest.approx(expect)

    def test_overlay_top_wins_where_nonzero(self, heaven):
        results = heaven.query(
            'select min_cells(overlay(a[0:3,0:3], b[0:3,0:3])) '
            'from runs as a, runs as b '
            'where name(a) = "run-2" and name(b) = "run-0"'
        )
        a = heaven.collection("runs").get("run-2")
        # run-2 cells are all in [20, 21]: nowhere zero, so top wins fully.
        expect = a.read(MInterval.of((0, 3), (0, 3))).min()
        assert results[0].scalar() == pytest.approx(expect)

    def test_overlay_arity_checked(self, heaven):
        with pytest.raises(QueryError):
            heaven.query("select overlay(a) from runs as a")

    def test_overlay_domain_mismatch_rejected(self, heaven):
        with pytest.raises(QueryError):
            heaven.query(
                'select overlay(a[0:3,0:3], b[0:4,0:4]) '
                'from runs as a, runs as b '
                'where name(a) = "run-0" and name(b) = "run-1"'
            )
