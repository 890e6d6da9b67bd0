"""`repro top`: live fleet view over the cache server's wire ops.

The cache server already exposes everything a monitor needs — the
``stats`` op (table counters + live load) and the ``metrics`` op
(Prometheus exposition of the server process, which — when that
process also runs an executor with telemetry on — includes the
per-shard counters its :class:`~repro.serve.service.EvalService`
shards ship back with every result).  This module polls those two ops
and renders the deltas between consecutive samples as rates: request
throughput, evaluations per second, per-shard utilization.

Kept free of any terminal dependency: :func:`sample_server` returns a
plain dict and :func:`top_report` a string, so the CLI loop (and the
tests) own cursor control and timing.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from .metrics import parse_prometheus, split_series

def sample_server(client: Any) -> dict[str, Any]:
    """One monitoring sample: the server's ``stats`` op, its parsed
    ``metrics`` exposition, and a monotonic timestamp for rate math.
    ``client`` is anything with the :class:`CacheClient` control
    surface (``server_stats()`` / ``server_metrics()``)."""
    stats = client.server_stats()
    exposition = client.server_metrics()["text"]
    return {
        "time": time.monotonic(),
        "stats": stats,
        "values": parse_prometheus(exposition),
    }


def _rate(
    curr: float, prev: float | None, dt: float | None
) -> float | None:
    if prev is None or dt is None or dt <= 0:
        return None
    return (curr - prev) / dt


def _fmt(value: Any, suffix: str = "") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != int(value) or abs(value) < 1000:
            return f"{value:.1f}{suffix}"
        value = int(value)
    return f"{value}{suffix}"


def _series_by_label(
    values: Mapping[str, float], name: str, label: str
) -> dict[str, float]:
    """``{label value: sample value}`` for one metric family."""
    out: dict[str, float] = {}
    for series, value in values.items():
        try:
            metric, labels = split_series(series)
        except ValueError:
            continue
        if metric == name and label in labels:
            out[labels[label]] = value
    return out


def _shard_rows(
    curr: dict[str, Any], prev: dict[str, Any] | None
) -> list[tuple[str, float, float | None, float | None]]:
    """Per-shard (shard, jobs, jobs/s, busy fraction) rows from the
    counters a co-located :class:`EvalService`'s shards ship back."""
    jobs = _series_by_label(curr["values"], "service_jobs_total", "shard")
    if not jobs:
        return []
    busy = _series_by_label(
        curr["values"], "service_exec_seconds_sum", "shard"
    )
    prev_jobs: dict[str, float] = {}
    prev_busy: dict[str, float] = {}
    dt: float | None = None
    if prev is not None:
        dt = curr["time"] - prev["time"]
        prev_jobs = _series_by_label(
            prev["values"], "service_jobs_total", "shard"
        )
        prev_busy = _series_by_label(
            prev["values"], "service_exec_seconds_sum", "shard"
        )
    rows: list[tuple[str, float, float | None, float | None]] = []
    for shard in sorted(jobs, key=lambda s: (len(s), s)):
        rows.append(
            (
                shard,
                jobs[shard],
                _rate(jobs[shard], prev_jobs.get(shard), dt),
                _rate(busy.get(shard, 0.0), prev_busy.get(shard), dt),
            )
        )
    return rows


def top_report(
    address: str, current: dict[str, Any], previous: dict[str, Any] | None = None
) -> str:
    """Render one refresh frame.  With a ``previous`` sample the frame
    includes rates (requests/s, evals/s, shard utilization); the first
    frame shows absolute counters only."""
    stats = current["stats"]
    hits = stats.get("hits", 0)
    misses = stats.get("misses", 0)
    lookups = hits + misses
    hit_rate = f"{hits / lookups:.1%}" if lookups else "-"
    lines = [
        f"repro top — {address} — "
        + time.strftime("%H:%M:%S", time.localtime()),
        "",
        f"  cache     entries {_fmt(stats.get('size'))}"
        f"   hits {_fmt(hits)}   misses {_fmt(misses)}"
        f"   hit rate {hit_rate}",
        f"  load      connections {_fmt(stats.get('connections'))}"
        f" ({_fmt(stats.get('connections_total'))} total)"
        f"   in-flight {_fmt(stats.get('in_flight'))}"
        f"   queued {_fmt(stats.get('queue_depth'))}"
        f"   unauthorized {_fmt(stats.get('unauthorized'))}",
    ]
    requests = stats.get("requests", {})
    if requests:
        ops = "   ".join(
            f"{op} {_fmt(count)}" for op, count in sorted(requests.items())
        )
        lines.append(f"  requests  {ops}")

    dt = None
    prev_requests: dict[str, Any] = {}
    if previous is not None:
        dt = current["time"] - previous["time"]
        prev_requests = previous["stats"].get("requests", {})

    shard_rows = _shard_rows(current, previous)
    if previous is not None:
        gets = _rate(requests.get("get", 0), prev_requests.get("get"), dt)
        reqs = _rate(
            sum(requests.values()),
            sum(prev_requests.values()) if prev_requests else None,
            dt,
        )
        if shard_rows and all(r[2] is not None for r in shard_rows):
            evals = sum(r[2] for r in shard_rows if r[2] is not None)
        else:
            # One put lands one search result: the evals/s proxy when
            # no service shards report.
            evals = _rate(requests.get("put", 0), prev_requests.get("put", 0), dt)
        lines.append(
            f"  rates     reqs/s {_fmt(reqs)}   gets/s {_fmt(gets)}"
            f"   evals/s {_fmt(evals)}   (over {_fmt(dt, 's')})"
        )
    else:
        lines.append("  rates     (first sample — rates on next refresh)")

    if shard_rows:
        lines.append("")
        lines.append("  shard      jobs    jobs/s     busy")
        for shard, jobs, jobs_s, busy_frac in shard_rows:
            busy = f"{busy_frac:.0%}" if busy_frac is not None else "-"
            lines.append(
                f"  {shard:>5}  {_fmt(jobs):>8}  {_fmt(jobs_s):>8}  {busy:>7}"
            )
    return "\n".join(lines) + "\n"
