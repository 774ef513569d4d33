"""Metrics registry: counters, gauges and fixed-bucket histograms.

Instruments are named like Prometheus series (``repro_tape_exchanges_total``)
and support an optional label dimension per observation (``tier="disk"``).
Two update styles coexist:

* **direct** — hot paths call ``counter.inc()`` / ``histogram.observe()``;
* **collected** — a *collector* callback registered on the registry reads
  the live counters the storage layers already keep (cache stats, library
  stats, WAL records) and ``set()``s instrument values right before a
  snapshot or export.  This keeps the simulator's hot paths free of any
  observability cost: the work happens at scrape time, not at charge time.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from ..errors import ReproError


class MetricsError(ReproError):
    """Raised on duplicate registrations or malformed instruments."""


LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Instrument:
    """Common naming/metadata of one metric family."""

    kind = "untyped"

    def __init__(self, name: str, description: str = "", unit: str = "") -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise MetricsError(f"invalid metric name {name!r}")
        self.name = name
        self.description = description
        self.unit = unit

    def samples(self) -> Iterator[Tuple[str, Dict[str, str], float]]:
        """Yield ``(series_name, labels, value)`` triples."""
        raise NotImplementedError


class Counter(Instrument):
    """Monotonically increasing value, optionally per label set."""

    kind = "counter"

    def __init__(self, name: str, description: str = "", unit: str = "") -> None:
        super().__init__(name, description, unit)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name}: negative increment {amount}")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def set(self, value: float, **labels: str) -> None:
        """Collector-style absolute update (must not go backwards)."""
        key = _label_key(labels)
        if value < self._values.get(key, 0.0):
            raise MetricsError(
                f"counter {self.name}{dict(labels)} cannot decrease to {value}"
            )
        self._values[key] = float(value)

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> Iterator[Tuple[str, Dict[str, str], float]]:
        for key in sorted(self._values):
            yield self.name, dict(key), self._values[key]


class Gauge(Instrument):
    """Point-in-time value that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "", unit: str = "") -> None:
        super().__init__(name, description, unit)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: str) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> Iterator[Tuple[str, Dict[str, str], float]]:
        for key in sorted(self._values):
            yield self.name, dict(key), self._values[key]


#: default boundaries for virtual-time histograms (seconds) — spans mount
#: latencies (tens of seconds) down to disk hits (milliseconds)
TIME_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0,
)

#: default boundaries for payload-size histograms (bytes)
BYTE_BUCKETS: Tuple[float, ...] = (
    4096.0, 65536.0, 1048576.0, 16777216.0, 134217728.0, 1073741824.0,
)

#: default boundaries for host wall-clock histograms (seconds) — Python-layer
#: latencies run from microseconds (cache probes) to seconds (thrash batches)
WALL_TIME_BUCKETS_S: Tuple[float, ...] = (
    0.00001, 0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)


class Histogram(Instrument):
    """Fixed-boundary histogram with cumulative bucket counts.

    ``boundaries`` are upper bounds (``le``); an implicit ``+Inf`` bucket
    catches the rest.  Exposed Prometheus-style: per-bucket cumulative
    counts plus ``_sum`` and ``_count`` series.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        boundaries: Sequence[float] = TIME_BUCKETS_S,
    ) -> None:
        super().__init__(name, description, unit)
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or any(not math.isfinite(b) for b in bounds):
            raise MetricsError(
                f"histogram {name}: boundaries must be finite and strictly "
                f"increasing, got {bounds}"
            )
        self.boundaries = bounds
        #: per-bucket observation counts; index len(boundaries) is +Inf
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.boundaries, float(value))
        self.bucket_counts[index] += 1
        self.sum += float(value)
        self.count += 1

    def bucket_for(self, value: float) -> float:
        """Upper bound of the bucket *value* falls into (inf for overflow)."""
        index = bisect.bisect_left(self.boundaries, float(value))
        return self.boundaries[index] if index < len(self.boundaries) else math.inf

    def samples(self) -> Iterator[Tuple[str, Dict[str, str], float]]:
        cumulative = 0
        for boundary, bucket in zip(self.boundaries, self.bucket_counts):
            cumulative += bucket
            yield f"{self.name}_bucket", {"le": f"{boundary:g}"}, float(cumulative)
        cumulative += self.bucket_counts[-1]
        yield f"{self.name}_bucket", {"le": "+Inf"}, float(cumulative)
        yield f"{self.name}_sum", {}, self.sum
        yield f"{self.name}_count", {}, float(self.count)


Collector = Callable[[], None]


class MetricsRegistry:
    """Named instruments plus collect-time callbacks."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self._collectors: List[Collector] = []

    # -- registration --------------------------------------------------------

    def counter(self, name: str, description: str = "", unit: str = "") -> Counter:
        return self._register(Counter(name, description, unit))

    def gauge(self, name: str, description: str = "", unit: str = "") -> Gauge:
        return self._register(Gauge(name, description, unit))

    def histogram(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        boundaries: Sequence[float] = TIME_BUCKETS_S,
    ) -> Histogram:
        return self._register(Histogram(name, description, unit, boundaries))

    def _register(self, instrument: Instrument) -> Instrument:
        if instrument.name in self._instruments:
            raise MetricsError(f"metric {instrument.name!r} already registered")
        self._instruments[instrument.name] = instrument
        return instrument

    def register_collector(self, collector: Collector) -> None:
        """Add a callback run before every :meth:`collect`/snapshot."""
        self._collectors.append(collector)

    # -- access --------------------------------------------------------------

    def get(self, name: str) -> Instrument:
        try:
            return self._instruments[name]
        except KeyError:
            raise MetricsError(f"unknown metric {name!r}") from None

    def instruments(self) -> List[Instrument]:
        return [self._instruments[name] for name in sorted(self._instruments)]

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def collect(self) -> List[Instrument]:
        """Run collectors, then return instruments in name order."""
        for collector in self._collectors:
            collector()
        return self.instruments()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{series: {rendered_labels: value}}`` after running collectors."""
        out: Dict[str, Dict[str, float]] = {}
        for instrument in self.collect():
            for series, labels, value in instrument.samples():
                rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                out.setdefault(series, {})[rendered] = value
        return out
