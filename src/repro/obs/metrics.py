"""Process-local metrics: counters, gauges and mergeable histograms.

The registry is the numeric half of the telemetry layer (traces are the
temporal half, :mod:`repro.obs.trace`).  Design constraints, in order:

* **hot-path cheap** — the LOMA search bumps counters per evaluated
  ordering batch; an increment is one attribute add on a plain Python
  int (atomic under the GIL), no locks, no dict lookups when the caller
  holds the metric object.  The *read* path (exposition, JSON dump)
  takes no locks either: it reads live ints, which is always a
  consistent-enough snapshot for monitoring.
* **mergeable** — registries from forked worker shards serialize with
  :meth:`MetricsRegistry.to_json` and fold into the parent with
  :meth:`MetricsRegistry.merge_json`: counters and histogram buckets
  add, gauges keep the merged-in value (last writer wins).  Histogram
  merging is associative and commutative, so harvest order never
  changes the aggregate (property-tested).
* **dependency-free output** — Prometheus-style text exposition
  (:meth:`MetricsRegistry.render_prometheus`) and a JSON dump; nothing
  is imported beyond the standard library.

Metrics never feed back into cost math, cache keys or rng streams —
they are write-only from the instrumented code's point of view.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, cast


class BucketMismatchError(ValueError):
    """Two histograms with different bucket boundaries were asked to
    merge — adding their counts pairwise would silently mix scales, so
    the mismatch is a named, catchable error instead."""

#: Default histogram bucket upper bounds (seconds-flavored: latencies
#: from 100us to ~2min land in distinct buckets; +Inf is implicit).
DEFAULT_BUCKETS = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
)

#: Metric identity: name plus sorted (label, value) pairs.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]

#: Sorted, stringified label pairs (the second half of a MetricKey).
LabelPairs = tuple[tuple[str, str], ...]


def _labels_key(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Prometheus text-exposition escaping for a label value: backslash,
    double quote and newline must be escaped or the rendered line is
    ambiguous (a raw newline even splits the series across lines)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def unescape_label_value(value: str) -> str:
    """Inverse of :func:`escape_label_value`."""
    out: list[str] = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, None)
        if nxt is None:
            # A trailing lone backslash stays literal.
            out.append(ch)
        elif nxt == "n":
            out.append("\n")
        else:
            # \\ and \" unescape to the char itself; an unknown escape
            # degrades to the literal character (lenient, like scrapers).
            out.append(nxt)
    return "".join(out)


def _render_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in labels)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    """Prometheus-style number: integral floats print as ints, the
    infinities as +Inf/-Inf."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class Counter:
    """Monotonic count; :meth:`inc` is one int add."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_json(self) -> int:
        return self.value

    def merge_json(self, data: Any) -> None:
        self.value += int(data)

    def render(self) -> Iterable[str]:
        yield f"{self.name}{_render_labels(self.labels)} {self.value}"


class Gauge:
    """Point-in-time value (queue depth, hypervolume, shard count)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def to_json(self) -> float:
        return self.value

    def merge_json(self, data: Any) -> None:
        # Gauges are not additive; the merged-in (worker) observation
        # wins, matching "last writer wins" for point-in-time values.
        self.value = float(data)

    def render(self) -> Iterable[str]:
        yield f"{self.name}{_render_labels(self.labels)} {_format_value(self.value)}"


class Histogram:
    """Fixed-bucket histogram (cumulative exposition, mergeable).

    ``buckets`` are the finite upper bounds; counts are kept
    *per-bucket* (not cumulative) internally so merging is a pairwise
    add, and rendered cumulatively with the implicit ``+Inf`` bucket,
    Prometheus style.  Two histograms merge only if their bounds match
    — a mismatch raises rather than silently mixing scales.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "total", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"histogram buckets must be strictly increasing: {buckets}"
            )
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = overflow (+Inf)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        # Linear scan: bucket lists are short (~15) and observations on
        # instrumented paths are far rarer than counter bumps.
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def to_json(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }

    def merge_json(self, data: Any) -> None:
        bounds = tuple(float(b) for b in data["buckets"])
        if bounds != self.buckets:
            raise BucketMismatchError(
                f"histogram {self.name!r}: cannot merge buckets {bounds} "
                f"into {self.buckets}"
            )
        for i, c in enumerate(data["counts"]):
            self.counts[i] += int(c)
        self.total += float(data["sum"])
        self.count += int(data["count"])

    def render(self) -> Iterable[str]:
        label_pairs = self.labels
        cumulative = 0
        for bound, bucket_count in zip(
            self.buckets + (math.inf,), self.counts
        ):
            cumulative += bucket_count
            le = label_pairs + (("le", _format_value(bound)),)
            yield f"{self.name}_bucket{_render_labels(le)} {cumulative}"
        yield f"{self.name}_sum{_render_labels(label_pairs)} {_format_value(self.total)}"
        yield f"{self.name}_count{_render_labels(label_pairs)} {self.count}"


Metric = Counter | Gauge | Histogram

_KINDS: dict[str, type[Metric]] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricsRegistry:
    """Keyed store of metrics; the single handle a process exports.

    Metric identity is ``(name, labels)``: ``counter("x", shard=0)`` and
    ``counter("x", shard=1)`` are two series of one family.  A name must
    keep one kind across the registry (Prometheus exposition rule).
    """

    def __init__(self) -> None:
        self._metrics: dict[MetricKey, Metric] = {}
        self._kinds: dict[str, str] = {}

    # ------------------------------------------------------------------
    def _get(
        self, kind: str, name: str, labels: Mapping[str, object], **extra: Any
    ) -> Metric:
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            known = self._kinds.get(name)
            if known is not None and known != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a {known}"
                )
            metric = _KINDS[kind](name, key[1], **extra)
            self._metrics[key] = metric
            self._kinds[name] = kind
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} is already registered as a {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        """Get-or-create a counter; hold the returned object on hot
        paths so the dict lookup is paid once."""
        return cast(Counter, self._get("counter", name, labels))

    def gauge(self, name: str, **labels: object) -> Gauge:
        return cast(Gauge, self._get("gauge", name, labels))

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return cast(
            Histogram, self._get("histogram", name, labels, buckets=buckets)
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def get(self, name: str, **labels: object) -> Metric | None:
        """The live metric object, or ``None`` if never registered."""
        return self._metrics.get((name, _labels_key(labels)))

    def value(self, name: str, **labels: object) -> int | float | dict[str, Any]:
        """Convenience: the current value (counter/gauge) or JSON form
        (histogram) of a metric; ``0`` when absent."""
        metric = self.get(name, **labels)
        if metric is None:
            return 0
        return metric.to_json()

    def clear(self) -> None:
        self._metrics.clear()
        self._kinds.clear()

    # ------------------------------------------------------------------
    # Serialization and merging
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        """JSON-serializable dump (the wire format of a fork harvest)."""
        return {
            "metrics": [
                {
                    "name": metric.name,
                    "kind": metric.kind,
                    "labels": list(metric.labels),
                    "data": metric.to_json(),
                }
                for metric in self._metrics.values()
            ]
        }

    def merge_json(self, data: Mapping[str, Any]) -> None:
        """Fold a :meth:`to_json` dump into this registry (counters and
        histogram buckets add; gauges take the merged value)."""
        for raw in data.get("metrics", []):
            kind = raw["kind"]
            if kind not in _KINDS:
                raise ValueError(f"unknown metric kind {kind!r}")
            labels = {k: v for k, v in raw.get("labels", [])}
            extra: dict[str, Any] = {}
            if kind == "histogram":
                extra["buckets"] = tuple(raw["data"]["buckets"])
            metric = self._get(kind, raw["name"], labels, **extra)
            metric.merge_json(raw["data"])

    def merge(self, other: MetricsRegistry) -> None:
        self.merge_json(other.to_json())

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition (one TYPE line per family, series
        sorted by name then labels, trailing newline)."""
        lines: list[str] = []
        seen_type: set[str] = set()
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if metric.name not in seen_type:
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                seen_type.add(metric.name)
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: str | Path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.render_prometheus())
        return target

    def write_json(self, path: str | Path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_json()))
        return target


def load_metrics(path: str | Path) -> MetricsRegistry:
    """Load a registry from a :meth:`MetricsRegistry.write_json` file."""
    registry = MetricsRegistry()
    registry.merge_json(json.loads(Path(path).read_text()))
    return registry


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse a Prometheus text exposition into ``{series: value}`` (the
    series string includes its label set verbatim).  Only what ``repro
    runs show`` (which renders a record's metrics dump through it) and
    the tests, where it is the renderer's oracle, need — not a general
    scrape parser.

    Round-trips :meth:`MetricsRegistry.render_prometheus` exactly:
    escaped label values contain no raw newline or trailing space, so
    one line is one series and the value is the last space-separated
    token.  Use :func:`split_series` to recover the label dict.
    """
    values: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        try:
            values[series] = float(value.replace("+Inf", "inf"))
        except ValueError:
            continue
    return values


_SERIES_RE = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>.*)\})?$")
#: One label pair; the value matches escaped sequences or anything that
#: is neither a quote nor a bare backslash, so escaped quotes inside the
#: value do not terminate the match.
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\.|[^"\\])*)"')


def split_series(series: str) -> tuple[str, dict[str, str]]:
    """Split a series string (``name{k="v",...}``) into the metric name
    and its label dict, undoing label-value escaping.  Raises
    ``ValueError`` on a string no registry would render."""
    match = _SERIES_RE.match(series.strip())
    if match is None:
        raise ValueError(f"not a metric series: {series!r}")
    raw = match.group("labels")
    labels: dict[str, str] = {}
    if raw:
        labels = {
            k: unescape_label_value(v) for k, v in _LABEL_RE.findall(raw)
        }
    return match.group("name"), labels
