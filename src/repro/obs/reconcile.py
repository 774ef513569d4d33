"""Report ↔ metrics ↔ event-log reconciliation helpers.

Three accounting systems describe every hierarchical read:

* the per-operation :class:`~repro.core.admission.RetrievalReport`,
* the lifetime ``repro_*`` instruments in the metrics registry,
* the raw event log of the simulation clock.

Each is derived differently (span windows, collected device stats,
appended events), so agreement between them is a strong conservation
invariant: accounting drift in any one layer breaks the reconciliation.
The simulation harness (:mod:`repro.simtest`) checks it after every read;
``tests/obs/test_report_reconciliation.py`` pins the field-by-field
mapping so a new report field cannot ship without a metric.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.admission import RetrievalReport
    from .metrics import MetricsRegistry

#: report field -> (metric series, labelled) for every numeric field of
#: RetrievalReport.  A labelled metric's deltas are summed over all its
#: label sets (e.g. faults per site).
REPORT_FIELD_METRICS: Dict[str, Tuple[str, bool]] = {
    "tiles_needed": ("repro_read_tiles_needed_total", False),
    "super_tiles_staged": ("repro_segments_staged_total", False),
    "bytes_from_tape": ("repro_tape_bytes_read_total", False),
    "bytes_useful": ("repro_read_bytes_useful_total", False),
    "exchanges": ("repro_tape_exchanges_total", False),
    "virtual_seconds": ("repro_virtual_seconds", False),
    "faults": ("repro_faults_injected_total", True),
    "backoffs": ("repro_retries_total", False),
    "degraded": ("repro_degraded_reads_total", False),
    "restages": ("repro_restages_total", False),
    "pins": ("repro_cache_pins_total", False),
    "pin_evictions_blocked": ("repro_cache_pin_evictions_blocked_total", False),
    "waves": ("repro_staging_waves_total", False),
}

#: float tolerance for virtual-second comparisons (spans accumulate
#: device durations in floating point)
TIME_TOLERANCE_S = 1e-6


def metrics_snapshot(registry: "MetricsRegistry") -> Dict[str, float]:
    """Collect the registry and flatten every mapped series to one number.

    Labelled series are summed across their label sets, so a snapshot
    delta of ``repro_faults_injected_total`` is the total faults injected
    regardless of site.
    """
    raw = registry.snapshot()
    out: Dict[str, float] = {}
    for series, _labelled in REPORT_FIELD_METRICS.values():
        out[series] = sum(raw.get(series, {}).values())
    return out


def metrics_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Per-series difference of two :func:`metrics_snapshot` results."""
    return {series: after.get(series, 0.0) - before.get(series, 0.0) for series in after}


def reconcile_report(
    report: "RetrievalReport",
    delta: Dict[str, float],
    *,
    skip: Tuple[str, ...] = (),
) -> List[str]:
    """Compare one read's report against the metric deltas it caused.

    Returns a list of human-readable mismatch descriptions (empty =
    reconciled).  ``skip`` names report fields to leave unchecked — the
    caller knows when a field legitimately diverges (``exchanges`` under
    mount faults: the robot's exchange is charged but the aborted drive
    load never appears in the span window the report counts).
    """
    problems: List[str] = []
    for field, (series, _labelled) in REPORT_FIELD_METRICS.items():
        if field in skip:
            continue
        reported = float(getattr(report, field))
        observed = delta.get(series, 0.0)
        tolerance = TIME_TOLERANCE_S if field == "virtual_seconds" else 0.0
        if abs(reported - observed) > tolerance:
            problems.append(
                f"report.{field}={reported:g} but {series} moved by "
                f"{observed:g}"
            )
    return problems


def event_window_bytes(
    log, start_cursor: int, kind: str = "read", device_prefix: str = "drive"
) -> int:
    """Bytes moved by *kind* events on matching devices since *start_cursor*.

    Cursors are absolute append positions (see
    :meth:`repro.tertiary.clock.EventLog.cursor`), so the tally stays
    correct under bounded (truncating) logs as long as the window's
    events are still retained.
    """
    total = 0
    for event in log.window(start_cursor):
        if event.kind == kind and event.device.startswith(device_prefix):
            total += event.bytes
    return total


def reconcile_shared_tape_bytes(
    reports,
    log,
    start_cursor: int,
    *,
    unattributed: int = 0,
) -> Optional[str]:
    """Check a *set* of per-query reports against one shared byte window.

    The admission layer splits fused sweep bytes across queries
    (:func:`~repro.core.scheduler.split_shared_bytes`) and keeps an
    explicit unattributed remainder (prefetch, fault re-reads).  The sum
    of every query's ``bytes_from_tape`` plus that remainder must equal
    the drive-read bytes of the whole run's event window **exactly** — a
    mismatch means shared bytes were double-counted or dropped.

    Returns a mismatch description or ``None``.
    """
    observed = event_window_bytes(log, start_cursor)
    attributed = sum(r.bytes_from_tape for r in reports) + unattributed
    if attributed != observed:
        per_query = ", ".join(
            f"{r.object_name}={r.bytes_from_tape}" for r in reports
        )
        return (
            f"per-query tape bytes sum to {attributed} "
            f"({per_query}; unattributed={unattributed}) but the event log "
            f"recorded {observed} drive read bytes in the window"
        )
    return None


def reconcile_tape_bytes(
    report: "RetrievalReport", log, start_cursor: int
) -> Optional[str]:
    """Check ``bytes_from_tape`` against the event log's read-byte tally.

    Returns a mismatch description or ``None``.  The report takes the max
    of the span tally and the staged-byte floor, so both derive from the
    same events — any difference means a read was charged outside the
    operation's span window.
    """
    observed = event_window_bytes(log, start_cursor)
    if report.bytes_from_tape != observed:
        return (
            f"report.bytes_from_tape={report.bytes_from_tape} but the event "
            f"log recorded {observed} drive read bytes in the window"
        )
    return None
