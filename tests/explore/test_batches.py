"""A serial ``Executor`` keeps one job runner and scores each batch's
cache misses together.

Several ``run()`` calls on one executor must leave exactly what one
evaluation at a time leaves, and what fresh executors and the service
backend leave: results, cache contents and order, hit/miss counts and
saved bytes.  The runner is rebuilt when the cache, search config or
policy is replaced; an object-referenced accelerator or workload stays
held while its engine is cached; a batch whose search fails leaves the
cache that one job at a time leaves; and a problem is scored at most
once per engine, an infeasible one included.
"""

import gc
import weakref

import pytest

from repro import get_accelerator
from repro.core.memlevels import MemLevelPolicy
from repro.core.strategy import DFStrategy, OverlapMode
from repro.explore import EvalJob, Executor, MappingCache, SweepSpec
from repro.explore import executor as executor_module
from repro.mapping import SearchConfig, loma
from repro.mapping.allocation import AllocationError
from repro.mapping.cache import encode_search_result

from ..conftest import make_tiny_workload

TILES = ((4, 4), (16, 16), (48, 32), (8, 8))
MODES = (OverlapMode.FULLY_CACHED, OverlapMode.FULLY_RECOMPUTE)


@pytest.fixture(scope="module")
def tiny():
    return make_tiny_workload()


@pytest.fixture(scope="module")
def generations(tiny):
    """Three overlapping batches, one with searches that fall back to
    raised tops (resnet18 on meta_proto_like_df)."""
    jobs = list(SweepSpec.tile_grid("meta_proto_like_df", tiny, TILES, MODES).jobs)
    raising = EvalJob(
        accelerator="meta_proto_like_df",
        workload="resnet18",
        strategy=DFStrategy(tile_x=56, tile_y=56, mode=OverlapMode.FULLY_CACHED),
    )
    return [jobs[:3] + [raising], jobs[2:6], jobs[5:] + jobs[:1] + [raising]]


def totals(batches):
    """Every result's total, fields and traffic in order, as text (so
    ``-0.0`` differs from ``0.0``)."""
    return repr(
        [
            [
                (
                    t.mac_count,
                    t.mac_energy_pj,
                    t.compute_cycles,
                    t.latency_cycles,
                    [(key, vars(entry)) for key, entry in t.traffic.items()],
                )
                for t in (r.result.total for r in batch)
            ]
            for batch in batches
        ]
    )


def state(cache, batches, path):
    """Everything a run leaves: its totals, the cache's entries in
    order, its hit/miss counts and its saved bytes."""
    cache.save(path)
    return (
        totals(batches),
        [(key, encode_search_result(v)) for key, v in cache.snapshot().items()],
        cache.stats,
        path.read_bytes(),
    )


def one_at_a_time(generations, config, path):
    """Each job planned, scored and searched on its own, on engines
    kept for the whole run: what every batch must equal."""
    cache = MappingCache()
    runner = executor_module._JobRunner(config, None, cache)
    batches = [
        [executor_module.EvalResult(job, runner.evaluate(job), i) for i, job in enumerate(g)]
        for g in generations
    ]
    return state(cache, batches, path)


def test_runs_on_one_executor_equal_one_job_at_a_time(generations, fast_config, tmp_path):
    kept = Executor(search_config=fast_config)
    batches = [kept.run(g) for g in generations]
    assert state(kept.cache, batches, tmp_path / "kept.json") == one_at_a_time(
        generations, fast_config, tmp_path / "alone.json"
    )


def test_runs_equal_fresh_executors_and_the_service(generations, fast_config, tmp_path):
    kept = Executor(search_config=fast_config)
    batches = [kept.run(g) for g in generations]
    shared = MappingCache()
    fresh = [Executor(search_config=fast_config, cache=shared).run(g) for g in generations]
    assert state(kept.cache, batches, tmp_path / "kept.json") == state(
        shared, fresh, tmp_path / "fresh.json"
    )
    with Executor(jobs=2, backend="service", search_config=fast_config) as served:
        served_batches = [served.run(g) for g in generations]
        assert [[r.job for r in b] for b in served_batches] == [
            [r.job for r in b] for b in batches
        ]
        assert totals(served_batches) == totals(batches)
        assert served.cache.keys() == kept.cache.keys()


def test_replacing_the_cache_config_or_policy_rebuilds_the_runner(
    generations, fast_config
):
    executor = Executor(search_config=fast_config)
    executor.run(generations[0])
    runner = executor._runner
    executor.run(generations[1])
    assert executor._runner is runner

    executor.cache = MappingCache()
    executor.run(generations[0])
    assert executor._runner is not runner
    assert executor._runner.cache is executor.cache
    assert executor.cache.stats["misses"] > 0  # nothing carried over
    runner = executor._runner

    executor.search_config = SearchConfig(lpf_limit=5, budget=40)
    executor.run(generations[0])
    assert executor._runner is not runner
    assert all(
        engine.mapper.config is executor.search_config
        for engine in executor._runner._engines.values()
    )
    runner = executor._runner

    executor.policy = MemLevelPolicy()
    executor.run(generations[0])
    assert executor._runner is not runner
    assert all(
        engine.policy is executor.policy
        for engine in executor._runner._engines.values()
    )


def test_object_references_stay_held_while_their_engine_is_cached(fast_config):
    """The runner keys object references by ``id()``: its entries hold
    the objects, so no later object can take one of those ids and be
    evaluated on a stale engine."""
    accel = get_accelerator("meta_proto_like_df")
    workload = make_tiny_workload()
    executor = Executor(search_config=fast_config)
    executor.run(SweepSpec.tile_grid(accel, workload, ((16, 16),), MODES))
    held_accel, held_workload = weakref.ref(accel), weakref.ref(workload)
    del accel, workload
    gc.collect()
    assert held_accel() is not None and held_workload() is not None
    runner = executor._runner
    assert runner._engines[id(held_accel())].accel is held_accel()
    assert runner._workloads[id(held_workload())] is held_workload()
    other = get_accelerator("meta_proto_like_df")
    results = executor.run(SweepSpec.tile_grid(other, held_workload(), ((16, 16),), MODES))
    assert runner._engines[id(other)].accel is other
    assert [r.result.accelerator_name for r in results] == [other.name] * len(MODES)


def test_a_failed_search_leaves_what_one_job_at_a_time_leaves(
    generations, fast_config, monkeypatch, tmp_path
):
    """Job 3 of the batch fails at its first ``L3`` search, after its
    other searches put their winners: the cache holds exactly what a
    one-at-a-time run holds, no engine keeps a held winner, and the
    next batch runs on."""
    jobs = generations[1]
    current = []
    evaluate = executor_module._JobRunner.evaluate

    def tracking(runner, job):
        current[:] = [job]
        return evaluate(runner, job)

    search = loma.MappingSearchEngine.search

    def failing(self, layer, *args, **kwargs):
        if current == [jobs[2]] and layer.name == "L3":
            raise AllocationError(f"no feasible mapping for {layer.name}")
        return search(self, layer, *args, **kwargs)

    monkeypatch.setattr(executor_module._JobRunner, "evaluate", tracking)
    monkeypatch.setattr(loma.MappingSearchEngine, "search", failing)
    executor = Executor(search_config=fast_config)
    with pytest.raises(AllocationError, match="L3: no feasible mapping even with DRAM"):
        executor.run(jobs)
    assert current == [jobs[2]]
    alone = MappingCache()
    runner = executor_module._JobRunner(fast_config, None, alone)
    with pytest.raises(AllocationError, match="L3: no feasible mapping even with DRAM"):
        for job in jobs:
            runner.evaluate(job)
    assert state(executor.cache, [], tmp_path / "batch.json") == state(
        alone, [], tmp_path / "alone.json"
    )
    assert not any(e.mapper._solved for e in executor._runner._engines.values())
    assert not executor._runner._planned
    monkeypatch.undo()
    assert len(executor.run(jobs)) == len(jobs)


def test_planning_failure_raises_after_the_jobs_before_it(fast_config, tiny):
    """A job whose planning raises fails where one job at a time would:
    after the jobs before it have been evaluated and cached."""
    good = EvalJob(
        accelerator="meta_proto_like_df",
        workload=tiny,
        strategy=DFStrategy(tile_x=16, tile_y=16, mode=OverlapMode.FULLY_CACHED),
    )
    bad = EvalJob(
        accelerator="meta_proto_like_df",
        workload=tiny,
        strategy=DFStrategy(
            tile_x=16, tile_y=16, mode=OverlapMode.FULLY_CACHED, stacks=(("L3",),)
        ),
    )
    executor = Executor(search_config=fast_config)
    with pytest.raises(Exception) as batch_error:
        executor.run([good, bad, good])
    alone = MappingCache()
    runner = executor_module._JobRunner(fast_config, None, alone)
    runner.evaluate(good)
    with pytest.raises(type(batch_error.value)) as alone_error:
        runner.evaluate(bad)
    assert str(batch_error.value) == str(alone_error.value)
    assert executor.cache.snapshot().keys() == alone.snapshot().keys()
    assert executor.cache.stats == alone.stats
    assert len(alone) > 0


def test_each_problem_is_scored_once_per_engine(generations, fast_config, monkeypatch):
    """Across generations a problem is scored at most once: a feasible
    one is cached, and an infeasible one (never cached) is held by its
    engine, though each repeated search still misses and raises."""
    scored = []
    score = loma.evaluate_candidates

    def spy(layers, accel, tops, rows, *args):
        top = tuple(sorted(tops.items()))
        scored.extend((layer.cache_token(), accel.name, top) for layer in layers)
        return score(layers, accel, tops, rows, *args)

    failures = []
    search = loma.MappingSearchEngine.search

    def counting(self, *args, **kwargs):
        try:
            return search(self, *args, **kwargs)
        except AllocationError:
            failures.append(len(scored))
            raise

    monkeypatch.setattr(loma, "evaluate_candidates", spy)
    monkeypatch.setattr(loma.MappingSearchEngine, "search", counting)
    executor = Executor(search_config=fast_config)
    raising = generations[0][-1]
    executor.run(generations[0] + [raising])  # twice in one batch
    per_job = len(failures) // 2
    misses = executor.cache.stats["misses"]
    executor.run(generations[2])  # and once in the next
    assert per_job > 0 and len(failures) == 3 * per_job
    assert executor.cache.stats["misses"] > misses  # the repeats still miss
    assert len(scored) == len(set(scored))


def test_a_run_inside_a_job_of_the_same_executor_stays_correct(
    generations, fast_config, monkeypatch
):
    """A batch started from inside a job of a running batch, on the same
    executor, never takes a plan of the outer batch: every result
    equals a fresh executor's."""
    outer, inner = generations[1], generations[0][:1]
    executor = Executor(search_config=fast_config)
    evaluate = executor_module._JobRunner.evaluate
    nested = []

    def nesting(runner, job):
        if job is outer[0]:
            nested.extend(executor.run(inner))
        return evaluate(runner, job)

    monkeypatch.setattr(executor_module._JobRunner, "evaluate", nesting)
    results = executor.run(outer)
    monkeypatch.undo()
    fresh = Executor(search_config=fast_config)
    assert totals([nested, results]) == totals([fresh.run(inner), fresh.run(outer)])
