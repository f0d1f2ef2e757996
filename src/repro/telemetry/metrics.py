"""Process-wide metrics: counters, gauges, and histograms with labels.

The registry is the single place metrics are created — hot paths call
``registry.counter(name, **labels).inc(...)`` and get the same object on
every call (get-or-create keyed by name + sorted labels).  Direct
instantiation of :class:`Counter`/:class:`Gauge`/:class:`Histogram`
outside this module would create an unregistered metric, invisible to
every exporter, so its increments would vanish from the run artifacts.

Naming convention (see ``docs/telemetry.md``): ``component.quantity`` in
snake_case with dots as the hierarchy separator (``pcie.bytes``,
``sampler.block_edges``, ``memory.peak_bytes``).  Units are part of the
name when not obvious.  Label keys identify *which* instance
(``device=...``, ``kernel=...``, ``direction=...``), never free text.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
_LABEL_KEY_RE = re.compile(r"^[a-z_][a-z0-9_]*$")

#: Default histogram bucket upper bounds: powers of four, 1 .. 4^20.
#: Wide enough for per-transfer bytes and per-block edge counts alike.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(4.0 ** k for k in range(21))

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, object]) -> LabelItems:
    for key in labels:
        if not _LABEL_KEY_RE.match(key):
            raise ValueError(f"invalid label key {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Common identity for one (name, labels) series."""

    kind = "metric"

    def __init__(self, name: str, labels: LabelItems = (), help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.labels = labels
        self.help = help

    @property
    def key(self) -> Tuple[str, LabelItems]:
        return (self.name, self.labels)

    def to_record(self) -> Dict[str, object]:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing sum."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = (), help: str = "") -> None:
        super().__init__(name, labels, help)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot decrease")
        self.value += amount

    def to_record(self) -> Dict[str, object]:
        return {"type": "metric", "kind": "counter", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge(Metric):
    """A value that can move both ways (plus a high-water helper)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = (), help: str = "") -> None:
        super().__init__(name, labels, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the high-water mark (allocator peaks)."""
        if value > self.value:
            self.value = float(value)

    def to_record(self) -> Dict[str, object]:
        return {"type": "metric", "kind": "gauge", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Histogram(Metric):
    """Fixed-bucket distribution of observed values."""

    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems = (), help: str = "",
                 buckets: Optional[Sequence[float]] = None) -> None:
        super().__init__(name, labels, help)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: buckets must be sorted and non-empty")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # First bound >= value; linear scan is fine for ~20 buckets.
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_record(self) -> Dict[str, object]:
        return {
            "type": "metric", "kind": "histogram", "name": self.name,
            "labels": dict(self.labels), "count": self.count, "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": [{"le": b, "count": c}
                        for b, c in zip(self.bounds, self.bucket_counts)]
                       + [{"le": "+Inf", "count": self.bucket_counts[-1]}],
        }


class MetricsRegistry:
    """Get-or-create home for every metric in one telemetry session."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], Metric] = {}

    def _get_or_create(self, cls, name: str, labels: Dict[str, object],
                       **kwargs) -> Metric:
        key = (name, _label_items(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"requested {cls.kind}"
                )
            return existing
        metric = cls(name, key[1], **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get_or_create(Counter, name, labels, help=help)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels, help=help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels, help=help,
                                   buckets=buckets)

    def get(self, name: str, **labels) -> Optional[Metric]:
        return self._metrics.get((name, _label_items(labels)))

    def __len__(self) -> int:
        return len(self._metrics)

    def metrics(self) -> List[Metric]:
        """All metrics in deterministic (name, labels) order."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def snapshot(self) -> List[Dict[str, object]]:
        """Deterministically ordered records for the exporters/manifest."""
        return [m.to_record() for m in self.metrics()]

    # ------------------------------------------------------------------
    def prometheus_text(self) -> str:
        """Prometheus exposition-format snapshot (text format 0.0.4)."""
        lines: List[str] = []
        seen_headers = set()
        for metric in self.metrics():
            prom = _prom_name(metric.name)
            if prom not in seen_headers:
                seen_headers.add(prom)
                if metric.help:
                    lines.append(f"# HELP {prom} {metric.help}")
                lines.append(f"# TYPE {prom} {metric.kind}")
            if isinstance(metric, Histogram):
                cum = 0
                for bound, count in zip(metric.bounds, metric.bucket_counts):
                    cum += count
                    lines.append(
                        f"{prom}_bucket{_prom_labels(metric.labels, le=_fmt(bound))} {cum}"
                    )
                cum += metric.bucket_counts[-1]
                lines.append(
                    f"{prom}_bucket{_prom_labels(metric.labels, le='+Inf')} {cum}"
                )
                lines.append(f"{prom}_sum{_prom_labels(metric.labels)} {_fmt(metric.sum)}")
                lines.append(f"{prom}_count{_prom_labels(metric.labels)} {metric.count}")
            else:
                lines.append(f"{prom}{_prom_labels(metric.labels)} {_fmt(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_")


def _fmt(value: float) -> str:
    return repr(float(value))


def _prom_labels(labels: LabelItems, **extra: str) -> str:
    items = list(labels) + sorted(extra.items())
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
