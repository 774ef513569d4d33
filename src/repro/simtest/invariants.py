"""Whole-system invariants checked after every simulated operation.

Each helper returns ``None`` when the invariant holds, or a short
human-readable description of the violation.  The
:class:`~repro.simtest.runner.SimRunner` turns descriptions into
:class:`~repro.simtest.runner.Violation` records; nothing here raises, so
a single broken invariant never hides the ones checked after it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import HeavenError


def oracle_mismatch(
    expected: np.ndarray, actual: np.ndarray, what: str = "read"
) -> Optional[str]:
    """Byte-identity of a returned array against the reference model."""
    if actual.shape != expected.shape:
        return (
            f"{what}: shape diverged — stack returned {actual.shape}, "
            f"oracle expects {expected.shape}"
        )
    if actual.dtype != expected.dtype:
        return (
            f"{what}: dtype diverged — stack returned {actual.dtype}, "
            f"oracle expects {expected.dtype}"
        )
    if actual.tobytes() == expected.tobytes():
        return None
    diff = np.argwhere(
        np.asarray(actual) != np.asarray(expected)
    )
    first = tuple(int(c) for c in diff[0]) if len(diff) else ()
    return (
        f"{what}: cell values diverged at {len(diff)} position(s); first at "
        f"index {first}: stack={np.asarray(actual)[first]!r} "
        f"oracle={np.asarray(expected)[first]!r}"
    )


def check_quiescent(heaven) -> Optional[str]:
    """Pin refcounts zero, no active timeline, caches within capacity."""
    try:
        heaven.assert_quiescent()
    except HeavenError as exc:
        return str(exc)
    return None


def check_clock_monotonic(
    events: Sequence,
    last_start: Dict[str, float],
    device_prefix: str = "drive",
) -> List[str]:
    """Per-device event start times must never move backwards.

    *last_start* is the caller's persistent ``device -> latest start``
    state; it is updated in place so monotonicity is enforced across the
    whole run, not just within one operation's event window.  Only
    devices matching *device_prefix* are tracked: the shared robot arm
    serves interleaved per-drive timelines, so its global append order is
    legitimately non-monotonic in start time.
    """
    problems: List[str] = []
    for event in events:
        if not event.device.startswith(device_prefix):
            continue
        previous = last_start.get(event.device)
        if previous is not None and event.time < previous - 1e-9:
            problems.append(
                f"clock on {event.device} moved backwards: {event.kind} "
                f"event at t={event.time:.6f} after one at t={previous:.6f}"
            )
        last_start[event.device] = max(
            event.time, previous if previous is not None else event.time
        )
    return problems


def check_global_clock(now_before: float, now_after: float) -> Optional[str]:
    """The global virtual clock is monotone across an operation."""
    if now_after < now_before - 1e-9:
        return (
            f"global clock moved backwards across the op: "
            f"{now_before:.6f} -> {now_after:.6f}"
        )
    return None


def check_no_restage_growth(before: int, after: int) -> Optional[str]:
    """Batch staging must not thrash: zero restage fallbacks per op.

    A drained wave's tiles stay pinned in the memory tile cache until the
    batch assembled them, and the workload generator keeps that cache
    large enough to hold them — any restage therefore means the
    pinned-wave admission machinery dropped bytes it promised to hold.
    """
    if after > before:
        return (
            f"repro_restages_total grew by {after - before} within one "
            f"operation (staged segments evicted before their tiles were read)"
        )
    return None
