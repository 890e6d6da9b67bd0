"""Telemetry layer: structured tracing + process-local metrics.

One dependency-free observability surface for every subsystem:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket mergeable histograms, with Prometheus-style
  text exposition and a JSON dump; registries from forked worker shards
  fold back into the parent on harvest.
* :mod:`repro.obs.trace` — ``span("phase", **attrs)`` context managers
  emitting structured JSON-lines trace events (monotonic start/end,
  nesting via ids) to a per-run trace file, with a deterministic
  sampling knob.
* :mod:`repro.obs.ledger` — the durable record every CLI run leaves;
  it embeds the final metrics dump and names the trace file, and
  ``repro runs show`` renders both.

The whole layer hangs off **one module-level flag**: :data:`enabled`.
Instrumented hot paths guard with ``if obs.enabled:`` — one module
attribute read when telemetry is off, nothing else — and
:func:`span` returns a shared no-op context manager while disabled.
Telemetry is *identity-neutral* by contract: it never touches cost
math, cache keys or rng streams, so serial == process == service
bit-identity holds with tracing on (tested).

Usage::

    from repro import obs

    obs.enable(trace="run.jsonl", sample=1.0)
    with obs.span("phase", detail=42):
        if obs.enabled:
            obs.metrics().counter("things_done").inc()
    obs.metrics().write_prometheus("run.prom")
    obs.disable()
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from . import ledger
from .metrics import (
    DEFAULT_BUCKETS,
    BucketMismatchError,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    load_metrics,
    parse_prometheus,
    split_series,
    unescape_label_value,
)
from .trace import (
    NULL_SPAN,
    SpanLike,
    Tracer,
    load_trace,
    load_trace_tolerant,
    span_summary,
    trace_coverage,
    trace_spans,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "NULL_SPAN",
    "BucketMismatchError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanLike",
    "Tracer",
    "enable",
    "disable",
    "enabled",
    "escape_label_value",
    "ledger",
    "load_metrics",
    "load_trace",
    "load_trace_tolerant",
    "metrics",
    "parse_prometheus",
    "span",
    "span_summary",
    "split_series",
    "trace_coverage",
    "trace_spans",
    "tracer",
    "unescape_label_value",
]

#: THE telemetry switch.  Read it as ``obs.enabled`` (module attribute),
#: never ``from repro.obs import enabled`` (a by-value snapshot).
enabled: bool = False

_registry = MetricsRegistry()
_tracer: Tracer | None = None


def metrics() -> MetricsRegistry:
    """The process's metrics registry (live whether or not telemetry is
    enabled; instrumented code guards its bumps on :data:`enabled`)."""
    return _registry


def tracer() -> Tracer | None:
    """The active tracer, or ``None`` (disabled / metrics-only mode)."""
    return _tracer


def enable(
    trace: str | Path | None = None,
    sample: float = 1.0,
) -> MetricsRegistry:
    """Turn telemetry on for this process.

    ``trace`` names the JSON-lines trace file (omit it for metrics-only
    telemetry); ``sample`` keeps that fraction of root spans
    (deterministic counter rule — no rng).  Returns the registry for
    convenience.  Calling again replaces the tracer (the old file is
    closed) and keeps accumulated metrics.
    """
    global enabled, _tracer
    if _tracer is not None:
        _tracer.close()
    _tracer = Tracer(trace, sample=sample) if trace is not None else None
    enabled = True
    return _registry


def disable() -> None:
    """Turn telemetry off and close the trace file (idempotent).
    Metrics stay readable until :func:`reset`."""
    global enabled, _tracer
    enabled = False
    if _tracer is not None:
        _tracer.close()
        _tracer = None


def reset() -> None:
    """Fresh registry + disabled state (tests and forked workers)."""
    disable()
    _registry.clear()


def span(name: str, **attrs: Any) -> SpanLike:
    """A tracing span when enabled, the shared no-op otherwise."""
    if not enabled or _tracer is None:
        return NULL_SPAN
    return _tracer.span(name, **attrs)


def flush() -> None:
    """Flush the trace file (no-op when tracing is off)."""
    if _tracer is not None:
        _tracer.flush()


# ----------------------------------------------------------------------
# Worker-process plumbing
# ----------------------------------------------------------------------
def worker_begin(parent_enabled: bool) -> None:
    """Initialize telemetry inside a freshly started worker process.

    Forked children inherit the parent's module state — including its
    registry contents and tracer — so harvesting without a reset would
    double-count everything the parent had already recorded, and two
    processes would write one trace file.  This gives the worker a
    clean registry and *no* tracer (worker telemetry travels as merged
    metrics, the trace file stays single-writer), enabled iff the
    parent's telemetry was on.
    """
    global enabled, _tracer
    _tracer = None
    _registry.clear()
    enabled = bool(parent_enabled)


def harvest() -> dict[str, Any] | None:
    """The worker's registry dump for fork-merge into the parent
    (``None`` when telemetry is off — nothing to ship)."""
    if not enabled:
        return None
    return _registry.to_json()


def absorb(dump: dict[str, Any] | None) -> None:
    """Merge a worker's :func:`harvest` into this process's registry."""
    if dump:
        _registry.merge_json(dump)
