"""Paper-style text reports: Table I, Table II, Fig. 9 top-level maps —
plus the run-ledger and telemetry renderers behind ``repro runs``."""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Sequence

from ..core.results import ScheduleResult, StackResult
from ..hardware.accelerator import Accelerator
from ..obs.ledger import key_metrics
from ..obs.metrics import split_series
from ..obs.trace import span_summary, trace_coverage
from ..workloads.stats import WorkloadStats


def table1_workloads(stats: Iterable[WorkloadStats]) -> str:
    """Render Table I(b): workload statistics."""
    lines = [
        f"{'Workload':16s} {'Layers':>6s} {'MACs':>9s} "
        f"{'Weights':>10s} {'Avg FM':>9s} {'Max FM':>9s} {'Dominance':>11s}"
    ]
    for s in stats:
        kind = "activation" if s.is_activation_dominant else "weight"
        lines.append(
            f"{s.name:16s} {s.layer_count:6d} "
            f"{s.total_mac_count / 1e9:8.2f}G "
            f"{s.total_weight_bytes / 1024:9.1f}K "
            f"{s.avg_feature_map_bytes / 2**20:8.2f}M "
            f"{s.max_feature_map_bytes / 2**20:8.2f}M "
            f"{kind:>11s}"
        )
    return "\n".join(lines)


def table1_architectures(accels: Iterable[Accelerator]) -> str:
    """Render Table I(a): architecture inventory."""
    lines = []
    for a in accels:
        lines.append(a.describe())
    return "\n".join(lines)


def top_level_map(accel: Accelerator, stack_result: StackResult) -> str:
    """Render Fig. 9: the top memory level of W/I/O per layer and tile
    type, using the global level ranks (Reg < LB < GB < DRAM)."""
    names = {i: lvl.name for i, lvl in enumerate(accel.levels)}
    lines = []
    for tr in stack_result.tile_results:
        tile = tr.tile
        lines.append(
            f"tile type {tile.index} (x{tile.count}"
            + (", first tile" if tile.is_first_tile else "")
            + ")"
        )
        for geom, tops in zip(tile.geometry, tr.plan.layer_tops):
            ranks = tops.ranks
            lines.append(
                f"  {geom.layer.name:24s} "
                f"W={names[ranks['W']]:8s} "
                f"I={names[ranks['I']]:8s} "
                f"O={names[ranks['O']]:8s}"
            )
    return "\n".join(lines)


def strategy_comparison(results: Sequence[ScheduleResult]) -> str:
    """Render a CS2-style strategy comparison for one workload."""
    base = results[0].total.energy_pj if results else 1.0
    lines = [
        f"{'Strategy':44s} {'Energy':>10s} {'Latency':>12s} {'vs first':>9s}"
    ]
    for r in results:
        gain = base / r.total.energy_pj if r.total.energy_pj else float("inf")
        lines.append(
            f"{r.strategy_label[:44]:44s} "
            f"{r.energy_mj:8.3f}mJ "
            f"{r.latency_cycles / 1e6:9.2f}Mcy "
            f"{gain:8.2f}x"
        )
    return "\n".join(lines)


#: Table II: the qualitative framework-factor matrix (rows reproduced
#: verbatim from the paper; DeFiNES is this repository).
TABLE2_ROWS = (
    ("DNNVM", (False, True, False), True, False, True, "La"),
    ("Efficient-S", (True, False, False), True, False, False, "La"),
    ("LBDF", (True, False, True), False, False, False, "DRAM"),
    ("ConvFusion", (True, False, True), False, False, True, "DRAM"),
    ("Optimus", (True, False, True), False, False, True, "DRAM"),
    ("DNNFuser", (True, False, False), True, False, True, "DRAM, Mem"),
    ("DeFiNES (ours)", (True, True, True), True, True, True, "En, La"),
)


# ----------------------------------------------------------------------
# Telemetry run summaries (--trace / --metrics, read by repro runs show)
# ----------------------------------------------------------------------
def _format_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1e3:.1f}ms"


def trace_report(records, top: int = 10) -> str:
    """Render a trace's "where did the time go" table: spans aggregated
    by name, sorted by self time (total minus direct children), plus the
    root-span wall-clock coverage line the smoke tests gate on."""
    rows = span_summary(records)
    if not rows:
        return "no spans recorded"
    lines = [
        f"{'span':24s} {'count':>6s} {'total':>10s} {'self':>10s} {'self%':>6s}"
    ]
    grand_self = sum(r["self"] for r in rows) or 1.0
    for row in rows[:top]:
        lines.append(
            f"{row['name'][:24]:24s} {row['count']:6d} "
            f"{_format_seconds(row['total']):>10s} "
            f"{_format_seconds(row['self']):>10s} "
            f"{100.0 * row['self'] / grand_self:5.1f}%"
        )
    if len(rows) > top:
        lines.append(f"... {len(rows) - top} more span name(s)")
    coverage = trace_coverage(records)
    total_spans = sum(r["count"] for r in rows)
    lines.append(
        f"{total_spans} span(s); root spans cover "
        f"{100.0 * coverage:.1f}% of the traced window"
    )
    return "\n".join(lines)


def _split_series(series: str) -> "tuple[str, dict[str, str]]":
    """Escape-aware series split (shared with :mod:`repro.obs.metrics`);
    an unparseable series degrades to a label-less name."""
    try:
        return split_series(series)
    except ValueError:
        return series, {}


def _hit_rate_line(label: str, hits: float, misses: float) -> "str | None":
    total = hits + misses
    if total <= 0:
        return None
    return (
        f"{label}: {int(hits)} hit(s) / {int(misses)} miss(es) "
        f"({100.0 * hits / total:.1f}% hit rate)"
    )


def metrics_report(values: "Mapping[str, float]", top: int = 12) -> str:
    """Render a metrics snapshot (the flat ``{series: value}`` form of
    :func:`repro.obs.parse_prometheus`): cache hit rates, per-shard
    service utilization, then the largest remaining counters."""
    named: "dict[str, list[tuple[dict, float]]]" = {}
    for series, value in values.items():
        name, labels = _split_series(series)
        named.setdefault(name, []).append((labels, value))

    def total(name: str, **match) -> float:
        return sum(
            value
            for labels, value in named.get(name, [])
            if all(labels.get(k) == v for k, v in match.items())
        )

    lines: list[str] = []

    # Cache effectiveness, every tier that saw traffic.
    for label, hits, misses in (
        (
            "mapping cache",
            total("mapping_cache_gets_total", result="hit"),
            total("mapping_cache_gets_total", result="miss"),
        ),
        (
            "cache client (incl. local)",
            total("cache_client_gets_total", result="hit")
            + total("cache_client_gets_total", result="local"),
            total("cache_client_gets_total", result="miss"),
        ),
    ):
        line = _hit_rate_line(label, hits, misses)
        if line is not None:
            lines.append(line)

    # Per-shard service utilization from the labeled histograms.
    shards = sorted(
        {
            labels["shard"]
            for labels, _ in named.get("service_exec_seconds_count", [])
            if "shard" in labels
        },
        key=lambda s: (len(s), s),
    )
    if shards:
        lines.append(
            f"{'shard':>5s} {'jobs':>6s} {'busy':>10s} {'avg wait':>10s}"
        )
        for shard in shards:
            jobs = total("service_exec_seconds_count", shard=shard)
            busy = total("service_exec_seconds_sum", shard=shard)
            wait = total("service_queue_wait_seconds_sum", shard=shard)
            lines.append(
                f"{shard:>5s} {int(jobs):6d} "
                f"{_format_seconds(busy):>10s} "
                f"{_format_seconds(wait / jobs if jobs else 0.0):>10s}"
            )

    # The biggest remaining counters (skip histogram components — they
    # were summarized above — and anything already reported).
    reported = {
        "mapping_cache_gets_total",
        "cache_client_gets_total",
    }
    counters = sorted(
        (
            (name, sum(v for _, v in series))
            for name, series in named.items()
            if not name.endswith(("_bucket", "_sum", "_count"))
            and name not in reported
        ),
        key=lambda item: (-item[1], item[0]),
    )
    if counters:
        lines.append("top metrics:")
        for name, value in counters[:top]:
            rendered = int(value) if float(value).is_integer() else value
            lines.append(f"  {name:36s} {rendered}")
    return "\n".join(lines) if lines else "no metrics recorded"


# ----------------------------------------------------------------------
# Run-ledger reports (repro runs list|show|diff)
# ----------------------------------------------------------------------
#: Render order + formatting of the comparable per-run scalars.
_KEY_METRIC_FORMATS = (
    ("wall_seconds", "wall clock", "{:.2f}s"),
    ("orderings", "orderings", "{:.0f}"),
    ("orderings_per_s", "orderings/s", "{:.1f}"),
    ("cache_hit_rate", "cache hit rate", "{:.1%}"),
    ("evaluations", "evaluations", "{:.0f}"),
    ("hypervolume", "hypervolume", "{:.6g}"),
    ("epsilon", "epsilon", "{:.6g}"),
    ("frontier_size", "frontier size", "{:.0f}"),
)


def _fmt_key_metric(fmt: str, value) -> str:
    if value is None:
        return "-"
    return fmt.format(float(value))


def _fmt_stamp(epoch) -> str:
    if not epoch:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(epoch))


def runs_table(records: Sequence[Mapping], limit: int = 20) -> str:
    """Render ``repro runs list``: newest last, one line per record."""
    if not records:
        return "no runs recorded"
    lines = [
        f"{'id':42s} {'status':>9s} {'wall':>9s} {'evals':>7s} "
        f"{'hypervolume':>12s}"
    ]
    shown = records[-limit:]
    for record in shown:
        keys = key_metrics(record)
        wall = (
            f"{keys['wall_seconds']:.1f}s"
            if keys["wall_seconds"] is not None
            else "-"
        )
        evals = (
            f"{keys['evaluations']:.0f}"
            if keys["evaluations"] is not None
            else "-"
        )
        hv = (
            f"{keys['hypervolume']:.6g}"
            if keys["hypervolume"] is not None
            else "-"
        )
        lines.append(
            f"{record.get('id', '?')[:42]:42s} "
            f"{record.get('status', '?'):>9s} {wall:>9s} {evals:>7s} "
            f"{hv:>12s}"
        )
    if len(records) > limit:
        lines.append(f"... {len(records) - limit} older run(s)")
    return "\n".join(lines)


def run_report(record: Mapping, tail: int = 5) -> str:
    """Render the record part of ``repro runs show``: manifest, outcome,
    key metrics, and the tail of the convergence series (the CLI appends
    the run's telemetry through :func:`metrics_report` and
    :func:`trace_report`)."""
    lines = [f"run {record.get('id', '?')} [{record.get('status', '?')}]"]
    argv = record.get("argv")
    if argv:
        command = record.get("command")
        # `evaluate` is the implicit no-subcommand form; every other
        # command's token is not part of the recorded sub-argv.
        prefix = (
            f"repro {command}"
            if command and command != "evaluate" and argv[:1] != [command]
            else "repro"
        )
        lines.append(f"  argv:     {prefix} {' '.join(str(a) for a in argv)}")
    lines.append(f"  started:  {_fmt_stamp(record.get('started'))}")
    if record.get("host") or record.get("pid"):
        lines.append(
            f"  where:    {record.get('host', '?')} "
            f"(pid {record.get('pid', '?')})"
        )
    versions = record.get("versions") or {}
    if versions:
        lines.append(
            "  versions: "
            + "  ".join(f"{k} {v}" for k, v in sorted(versions.items()))
        )
    manifest = record.get("manifest") or {}
    fingerprints = manifest.get("accelerator_fingerprints") or {}
    for key in sorted(manifest):
        if key == "accelerator_fingerprints":
            continue
        value = manifest[key]
        if value is None:
            continue
        lines.append(f"  {key + ':':18s}{value}")
    for name, fingerprint in sorted(fingerprints.items()):
        lines.append(f"  accelerator:      {name} [{fingerprint}]")
    if record.get("error"):
        lines.append(f"  error:    {record['error']}")

    keys = key_metrics(record)
    metric_lines = [
        f"  {label + ':':18s}{_fmt_key_metric(fmt, keys[key])}"
        for key, label, fmt in _KEY_METRIC_FORMATS
        if keys[key] is not None
    ]
    if metric_lines:
        lines.append("key metrics:")
        lines.extend(metric_lines)

    convergence = record.get("convergence") or []
    if convergence:
        lines.append(
            f"convergence ({len(convergence)} generation(s), "
            f"last {min(tail, len(convergence))} shown):"
        )
        lines.append(
            f"  {'gen':>4s} {'evals':>7s} {'frontier':>9s} "
            f"{'hypervolume':>13s} {'epsilon':>10s}"
        )
        for point in convergence[-tail:]:
            hv = point.get("hypervolume")
            eps = point.get("epsilon")
            lines.append(
                f"  {point.get('index', '?'):>4} "
                f"{point.get('evaluations', point.get('evaluated', '?')):>7} "
                f"{point.get('frontier_size', '?'):>9} "
                f"{(f'{hv:.6g}' if hv is not None else '-'):>13s} "
                f"{(f'{eps:.6g}' if eps is not None else '-'):>10s}"
            )
    return "\n".join(lines)


def run_diff_report(baseline: Mapping, current: Mapping) -> str:
    """Render ``repro runs diff``: the key metrics side by side with
    relative deltas."""
    base = key_metrics(baseline)
    curr = key_metrics(current)
    lines = [
        f"baseline: {baseline.get('id', '?')} "
        f"[{baseline.get('status', '?')}]",
        f"current:  {current.get('id', '?')} "
        f"[{current.get('status', '?')}]",
        f"{'metric':18s} {'baseline':>14s} {'current':>14s} {'delta':>9s}",
    ]
    for key, label, fmt in _KEY_METRIC_FORMATS:
        b, c = base[key], curr[key]
        if b is None and c is None:
            continue
        if b not in (None, 0) and c is not None:
            delta = f"{(c - b) / abs(b):+.1%}"
        else:
            delta = "-"
        lines.append(
            f"{label:18s} {_fmt_key_metric(fmt, b):>14s} "
            f"{_fmt_key_metric(fmt, c):>14s} {delta:>9s}"
        )
    return "\n".join(lines)


def table2_factors() -> str:
    """Render Table II: related DF modeling framework comparison."""
    def mark(v: bool) -> str:
        return "yes" if v else "no"

    lines = [
        f"{'Framework':16s} {'modes(FR/HC/FC)':>16s} {'on-chip':>8s} "
        f"{'mem-skip':>9s} {'weights':>8s} {'target':>10s}"
    ]
    for name, modes, onchip, memskip, weights, target in TABLE2_ROWS:
        mode_str = "/".join(mark(m) for m in modes)
        lines.append(
            f"{name:16s} {mode_str:>16s} {mark(onchip):>8s} "
            f"{mark(memskip):>9s} {mark(weights):>8s} {target:>10s}"
        )
    return "\n".join(lines)
