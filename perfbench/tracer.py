"""In-memory span recorder for the benchmark's traced pass.

Spans wrap the public calls into each layer, patched where the caller
looks them up (``repro.core.scheduler.backcalculate``,
``repro.mapping.loma.evaluate_candidates``, class attributes for
methods).  Each span records its name, start, end, parent span and the
evaluation id of the ``DepthFirstEngine.evaluate`` call it belongs to
(-1 outside one).  Spans stay in compact in-memory columns and are
written out when the pass ends; a layer's self time is its spans'
durations minus the time covered by their child spans.

Only the thread that created the recorder records: the embedded cache
server of the service backend calls ``MappingCache.get`` from its own
threads, which pass straight through.  In the service backend's forked
shards the recorder starts afresh and each shard writes its own summary
when its main loop ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

#: Span name -> (per-layer metric of its inclusive time or None,
#: per-layer metric of its self time or None).
LAYER_TIMES = {
    "cli.main": (None, "cli.self_s"),
    "dse.run": (None, "dse.self_s"),
    "dse.hypervolume": ("dse.hypervolume_s", None),
    "dse.constraint": ("dse.constraint_s", None),
    "explore.run": ("explore.run_s", "explore.self_s"),
    "serve.start": ("serve.start_s", None),
    "serve.stop": ("serve.stop_s", None),
    "core.evaluate": ("core.evaluate_s", "core.self_s"),
    "core.backcalc": ("core.backcalc_s", None),
    "core.memplan": ("core.memplan_s", None),
    "core.partition": ("core.partition_s", None),
    "core.datacopy": ("core.datacopy_s", None),
    "mapping.search": ("mapping.search_s", "mapping.search_self_s"),
    "mapping.score": ("mapping.score_s", None),
    "mapping.materialize": ("mapping.materialize_s", None),
    "mapping.cache_get": ("mapping.cache_get_s", None),
    "mapping.cache_put": ("mapping.cache_put_s", None),
    "mapping.cache_load": ("mapping.cache_load_s", None),
    "hardware.hierarchy": ("hardware.hierarchy_s", None),
}


class Recorder:
    """Span columns plus the counters the wrappers keep."""

    def __init__(self) -> None:
        self.shard_dir: Path | None = None
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.eval = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.reset()

    def reset(self) -> None:
        """Forget every span and count (in place: wrappers hold the
        columns), keeping the span names, and record on this thread."""
        for column in (self.name, self.parent, self.eval, self.start, self.end):
            del column[:]
        self.stack.clear()
        self.counts.clear()
        self.eval_id = -1
        self.next_eval = 0
        self.owner = threading.get_ident()

    def wrap(self, name: str, fn, after=None, new_eval: bool = False):
        """``fn`` wrapped in a span; ``after(args, result, exc)`` runs
        once the span has ended (counting, outside the span's time)."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        rec = self
        names, parents, evals = self.name, self.parent, self.eval
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != rec.owner:
                return fn(*args, **kwargs)
            outer_eval = rec.eval_id
            if new_eval:
                rec.eval_id = rec.next_eval
                rec.next_eval += 1
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            evals.append(rec.eval_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[index] = clock()
                stack.pop()
                rec.eval_id = outer_eval
                if after is not None:
                    after(args, None, exc)
                raise
            ends[index] = clock()
            stack.pop()
            rec.eval_id = outer_eval
            if after is not None:
                after(args, result, None)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-name inclusive time, self time and call count, plus the
        time covered by root spans and the wrappers' counters."""
        n = len(self.start)
        durations = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        root_s = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += durations[i]
            else:
                root_s += durations[i]
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name[i]]
            total[name] += durations[i]
            own[name] += durations[i] - covered[i]
            calls[name] += 1
        return {
            "total": dict(total),
            "self": dict(own),
            "calls": dict(calls),
            "root_s": root_s,
            "spans": n,
            "counts": dict(self.counts),
        }

    def write(self, path: Path) -> None:
        """Write every span (columnar JSON) for later inspection."""
        path.write_text(
            json.dumps(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "eval": self.eval.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                }
            )
        )


def obs_counter(name: str) -> float:
    """Sum of a ``repro.obs`` counter over all label sets."""
    from repro import obs

    return float(
        sum(
            m.value
            for m in obs.metrics()
            if m.name == name and m.kind == "counter"
        )
    )


def obs_histogram_total(name: str) -> float:
    """Sum of all observations of a ``repro.obs`` histogram."""
    from repro import obs

    return float(
        sum(
            m.total
            for m in obs.metrics()
            if m.name == name and m.kind == "histogram"
        )
    )


def install(rec: Recorder) -> None:
    """Patch a span around every layer call of the per-layer table."""
    import repro.cli as cli
    from repro.core import scheduler
    from repro.dse.constraints import MemoryBudgetConstraint
    from repro.dse.pareto import ParetoFrontier
    from repro.dse.runner import DSERunner
    from repro.explore.executor import Executor
    from repro.hardware.accelerator import Accelerator
    from repro.mapping import batch, loma
    from repro.mapping.allocation import AllocationError
    from repro.mapping.cache import MappingCache
    from repro.serve import service
    from repro.serve.cache_server import CacheClient

    counts = rec.counts

    def on_jobs(args, result, exc):
        if result is not None:
            counts["explore.jobs"] += len(result)

    def on_schedule(args, result, exc):
        if result is None:
            return
        counts["core.stacks"] += len(result.stacks)
        for stack in result.stacks:
            for tile_result in stack.tile_results:
                tile = tile_result.tile
                counts["core.tile_types"] += 1
                counts["core.tiles"] += tile.count
                counts["core.layer_tiles"] += sum(
                    1 for g in tile.geometry if g.is_computed
                )

    def on_search(args, result, exc):
        counts["mapping.searches"] += 1
        if isinstance(exc, AllocationError):
            counts["mapping.infeasible"] += 1

    def on_score(args, result, exc):
        counts["mapping.orderings"] += len(args[3])

    def on_get(args, result, exc):
        hit = result is not None
        counts["mapping.cache_hits" if hit else "mapping.cache_misses"] += 1

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), **kw))

    patch(cli, "main", "cli.main")
    patch(DSERunner, "run", "dse.run")
    patch(ParetoFrontier, "hypervolume", "dse.hypervolume")
    patch(MemoryBudgetConstraint, "violation", "dse.constraint")
    patch(Executor, "run", "explore.run", after=on_jobs)
    patch(service.EvalService, "start", "serve.start")
    patch(service.EvalService, "stop", "serve.stop")
    patch(scheduler.DepthFirstEngine, "evaluate", "core.evaluate",
          after=on_schedule, new_eval=True)
    patch(scheduler, "backcalculate", "core.backcalc")
    patch(scheduler, "plan_tile_memory", "core.memplan")
    patch(scheduler, "partition_stacks", "core.partition")
    patch(scheduler, "copy_cost", "core.datacopy")
    patch(loma.MappingSearchEngine, "search", "mapping.search", after=on_search)
    patch(loma, "evaluate_candidates", "mapping.score", after=on_score)
    patch(batch.BatchEvaluation, "mapping", "mapping.materialize")
    patch(batch.BatchEvaluation, "cost_result", "mapping.materialize")
    for cache_class in (MappingCache, CacheClient):
        patch(cache_class, "get", "mapping.cache_get", after=on_get)
        patch(cache_class, "put", "mapping.cache_put")
    patch(MappingCache, "load", "mapping.cache_load")
    patch(Accelerator, "hierarchy", "hardware.hierarchy")

    shard_main = service._service_worker_main

    def traced_shard_main(shard_index, *args, **kwargs):
        # Runs in the forked shard: drop the parent's spans, record this
        # shard's, and leave a summary for the parent to merge.
        rec.reset()
        try:
            shard_main(shard_index, *args, **kwargs)
        finally:
            summary = rec.summary()
            summary["batch_fallbacks"] = obs_counter("loma_batch_fallbacks_total")
            path = rec.shard_dir / f"shard-{shard_index}.json"
            path.write_text(json.dumps(summary))

    service._service_worker_main = traced_shard_main
