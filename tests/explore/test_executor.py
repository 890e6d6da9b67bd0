"""Executor tests: serial/parallel equivalence and cache flow.

The headline guarantee: the parallel path (an evaluation service)
returns results in the same order and with bit-identical totals as the
serial backend.
"""

import gc
import multiprocessing

import pytest

from repro import DepthFirstEngine, DFStrategy, obs
from repro.core.optimizer import best_combination, sweep
from repro.core.strategy import OverlapMode
from repro.explore import Executor, SweepSpec

from ..conftest import make_tiny_workload

TILES = ((4, 4), (16, 16), (48, 32))
MODES = (OverlapMode.FULLY_CACHED,)


@pytest.fixture(scope="module")
def tiny():
    return make_tiny_workload()


@pytest.fixture(scope="module")
def grid_spec(tiny):
    # Accelerator by zoo name, workload by object: both ref styles in one
    # spec so the parallel path exercises name resolution and pickling.
    return SweepSpec.tile_grid("meta_proto_like_df", tiny, TILES, MODES)


class TestSerialExecutor:
    def test_results_in_job_order(self, grid_spec, fast_config):
        results = Executor(jobs=1, search_config=fast_config).run(grid_spec)
        assert [r.index for r in results] == list(range(len(grid_spec)))
        assert [r.job for r in results] == list(grid_spec.jobs)

    def test_matches_direct_engine(self, grid_spec, fast_config, meta_df, tiny):
        results = Executor(jobs=1, search_config=fast_config).run(grid_spec)
        engine = DepthFirstEngine(meta_df, fast_config)
        for r in results:
            direct = engine.evaluate(tiny, r.job.strategy)
            assert r.result.total == direct.total

    def test_empty_spec(self, fast_config):
        assert Executor(jobs=1, search_config=fast_config).run(SweepSpec()) == []

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            Executor(jobs=-2)


class TestParallelExecutor:
    def test_parallel_identical_to_serial(self, grid_spec, fast_config):
        serial = Executor(jobs=1, search_config=fast_config).run(grid_spec)
        parallel = Executor(jobs=2, search_config=fast_config).run(grid_spec)
        assert len(serial) == len(parallel)
        for s, p in zip(serial, parallel):
            assert s.job == p.job
            assert s.result.total == p.result.total
            assert s.result.strategy_label == p.result.strategy_label

    def test_parallel_harvests_worker_cache_entries(self, grid_spec, fast_config):
        executor = Executor(jobs=2, search_config=fast_config)
        assert len(executor.cache) == 0
        executor.run(grid_spec)
        assert len(executor.cache) > 0
        # Worker hit/miss counters are aggregated into the parent cache:
        # every stored entry was missed at least once, in some worker
        # (workers may independently miss the same key).
        assert executor.cache.misses >= len(executor.cache)
        assert executor.cache.hits > 0

    def test_parallel_counts_every_lookup_once(self, grid_spec, fast_config):
        """Each shard lookup lands once in the caller's cache counters
        and in the merged telemetry.  The tiny grid's jobs share no
        mapping keys, so jobs=2 must read exactly the serial counts."""
        counts = {}
        for jobs, backend in ((1, "serial"), (2, "service")):
            obs.enable()  # metrics-only
            try:
                with Executor(
                    jobs=jobs, search_config=fast_config, backend=backend
                ) as executor:
                    executor.run(grid_spec)
                gets = sum(
                    obs.metrics().value("mapping_cache_gets_total", result=result)
                    for result in ("hit", "miss")
                )
            finally:
                obs.reset()
            counts[jobs] = (executor.cache.hits, executor.cache.misses, gets)
        hits, misses, gets = counts[1]
        assert hits > 0 and gets == hits + misses
        assert counts[2] == counts[1]

    def test_dropped_executor_stops_its_shards(self, grid_spec, fast_config):
        """An executor dropped without close() stops its service when it
        is garbage-collected: no shard outlives it."""
        executor = Executor(jobs=2, search_config=fast_config)
        executor.run(grid_spec)
        assert all(worker.is_alive() for worker in executor.service._workers)
        del executor
        gc.collect()
        assert multiprocessing.active_children() == []

    def test_shards_leave_the_parents_garbage_alone(
        self, grid_spec, fast_config, monkeypatch
    ):
        """An executor the parent dropped in a reference cycle is
        finalized by the parent's collector, never by a collection
        inside another service's forked shard."""
        from repro.explore import executor as executor_module

        holder = {"executor": Executor(jobs=2, search_config=fast_config)}
        holder["self"] = holder  # a cycle: only the collector frees it
        holder["executor"].run(grid_spec)
        shards = list(holder["executor"].service._workers)
        evaluate = executor_module._JobRunner.evaluate

        def collect_then_evaluate(runner, job):
            gc.collect()  # a full collection inside the forked shard
            return evaluate(runner, job)

        monkeypatch.setattr(
            executor_module._JobRunner, "evaluate", collect_then_evaluate
        )
        gc.disable()
        try:
            del holder
            with Executor(jobs=2, search_config=fast_config) as other:
                other.run(grid_spec)
            assert all(shard.is_alive() for shard in shards)
        finally:
            gc.enable()
        gc.collect()
        assert multiprocessing.active_children() == []

    def test_lbl_and_sl_strategies_survive_pickling(self, tiny, fast_config):
        # Regression: one_layer_per_stack used a sentinel *identity*
        # check, which broke once strategies were pickled to workers.
        import pickle

        for strategy in (DFStrategy.layer_by_layer(), DFStrategy.single_layer()):
            clone = pickle.loads(pickle.dumps(strategy))
            assert clone.one_layer_per_stack

        spec = SweepSpec.strategies(
            "meta_proto_like_df", tiny,
            (DFStrategy.layer_by_layer(), DFStrategy.single_layer()),
        )
        serial = Executor(jobs=1, search_config=fast_config).run(spec)
        parallel = Executor(jobs=2, search_config=fast_config).run(spec)
        for s, p in zip(serial, parallel):
            assert s.result.total == p.result.total
            assert p.result.strategy_label in ("LBL", "SL")

    def test_prewarmed_workers_redo_nothing(self, grid_spec, fast_config):
        executor = Executor(jobs=2, search_config=fast_config)
        executor.run(grid_spec)
        warm = executor.cache
        before = len(warm)
        # Re-running with the now-warm cache must add no new entries.
        executor.run(grid_spec)
        assert len(warm) == before


class TestStackJobs:
    def test_best_combination_parallel_matches_serial(self, meta_df, fast_config, tiny):
        serial_engine = DepthFirstEngine(meta_df, fast_config)
        serial = best_combination(serial_engine, tiny, tile_sizes=TILES, modes=MODES)
        parallel_engine = DepthFirstEngine(meta_df, fast_config)
        parallel = best_combination(
            parallel_engine, tiny, tile_sizes=TILES, modes=MODES, jobs=2
        )
        assert parallel.total == serial.total
        assert parallel.strategy_label == serial.strategy_label

    def test_sweep_jobs_param_matches_serial(self, meta_df, fast_config, tiny):
        serial = sweep(DepthFirstEngine(meta_df, fast_config), tiny, TILES, MODES)
        parallel = sweep(
            DepthFirstEngine(meta_df, fast_config), tiny, TILES, MODES, jobs=2
        )
        for s, p in zip(serial, parallel):
            assert s.strategy == p.strategy
            assert s.result.total == p.result.total
