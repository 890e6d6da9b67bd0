"""Integration tests of the DepFiN validation path and cross-stack
behaviours that the figure benchmarks exercise at larger scale."""

import pytest

from repro import (
    DepthFirstEngine,
    DFStrategy,
    OverlapMode,
    evaluate_layer_by_layer,
    get_accelerator,
    get_workload,
)
from repro.mapping import ENGINES, SearchConfig
from repro.mapping.cache import encode_search_result

CONFIG = SearchConfig(lpf_limit=5, budget=80)


def cost_fields(cost):
    return (
        cost.mac_count,
        cost.mac_energy_pj,
        cost.compute_cycles,
        cost.latency_cycles,
        [
            (key, t.reads_elems, t.writes_elems, t.energy_pj)
            for key, t in cost.traffic.items()
        ],
    )


def run_both_engines(accel, workload, strategy):
    """Evaluate on each engine with a fresh cache and assert identical
    results, cache stats and cache contents in order.  The scalar engine
    never prefetches: it is the one-search-at-a-time reference.  Returns
    the energy and the layer names of the searches that found no
    feasible mapping (one entry per failed tops)."""
    from repro.mapping.allocation import AllocationError

    runs = {}
    for engine_name in ENGINES:
        engine = DepthFirstEngine(
            accel, SearchConfig(lpf_limit=5, budget=80, engine=engine_name)
        )
        failed = []
        search = engine.mapper.search

        def counting(layer, accel, tops=None, objective=None, **kw):
            try:
                return search(layer, accel, tops, objective, **kw)
            except AllocationError:
                failed.append(layer.name)
                raise

        engine.mapper.search = counting
        result = engine.evaluate(workload, strategy)
        runs[engine_name] = (
            schedule_fields(result),
            engine.cache.stats,
            [
                (key, encode_search_result(entry))
                for key, entry in engine.cache.snapshot().items()
            ],
            failed,
        )
    assert runs["batch"] == runs["scalar"]
    return result.energy_pj, runs["batch"][3]


def schedule_fields(result):
    """Every float of a schedule result, in accumulation order."""
    return [
        (
            [cost_fields(c) for c in tile.layer_costs],
            cost_fields(tile.copy_cost),
        )
        for stack in result.stacks
        for tile in stack.tile_results
    ] + [cost_fields(result.total)]


class TestDepfinValidation:
    @pytest.fixture(scope="class")
    def engine(self):
        return DepthFirstEngine(get_accelerator("depfin_like"), CONFIG)

    def test_reference_net_runs_depth_first(self, engine):
        wl = get_workload("reference")
        r = engine.evaluate(
            wl, DFStrategy(tile_x=128, tile_y=8, mode=OverlapMode.FULLY_CACHED)
        )
        # DepFiN's preferred 128-pixel row tiles fuse the whole net.
        assert len(r.stacks) == 1
        assert r.mac_count == pytest.approx(wl.total_mac_count)

    def test_fixed_mapping_evaluation(self, engine):
        """The validation methodology fixes the temporal mapping to match
        the chip; the fixed-mapping path must cost no less than the
        searched optimum."""
        wl = get_workload("reference")
        layer = wl.topological_layers()[1].scaled_to_tile(128, 8)
        searched = engine.mapper.search(layer, engine.accel)
        ordering = list(searched.mapping.loops)
        fixed = engine.mapper.evaluate_fixed(layer, engine.accel, ordering)
        assert fixed.cost.energy_pj == pytest.approx(searched.cost.energy_pj)


class TestCrossStackResiduals:
    def test_resnet_per_layer_stacks_cross_stack_skip(self):
        """When residual blocks do not fuse (SL/LBL), the add layer's
        skip input crosses stack boundaries; the engine must route it
        from the producing stack's output location."""
        engine = DepthFirstEngine(get_accelerator("meta_proto_like_df"), CONFIG)
        wl = get_workload("resnet18")
        r = evaluate_layer_by_layer(engine, wl)
        assert r.energy_pj > 0
        assert len(r.stacks) == len(wl)

    def test_fallback_never_crashes_on_tight_arches(self, monkeypatch):
        """Tiny-buffer architectures exercise the allocation fallback, and
        the grouped batch engine must take it exactly as one-at-a-time
        scalar searches do: same results, cache stats and cache order."""
        from repro.core import scheduler
        from repro.hardware.accelerator import build_accelerator
        from repro.hardware.memory import MemoryInstance, level

        energy, failed = run_both_engines(
            get_accelerator("tesla_npu_like"),
            get_workload("mobilenet_v1"),
            DFStrategy(tile_x=8, tile_y=8, mode=OverlapMode.FULLY_CACHED),
        )
        assert energy > 0

        # One step, as in the scenario DSE: forced sink outputs that do
        # not fit send four resnet18 layer-tiles to the O-raised tops.
        _, failed = run_both_engines(
            get_accelerator("meta_proto_like_df"),
            get_workload("resnet18"),
            DFStrategy(tile_x=240, tile_y=72, mode=OverlapMode.FULLY_RECOMPUTE),
        )
        assert len(failed) == 4 and len(set(failed)) == 4

        # Two steps: the planner never places an input where it cannot
        # fit, so the I-raising step needs a constructed case, a
        # 512-byte LB_IO that the plan forces every input into.
        accel = build_accelerator(
            "tight_lb",
            {"K": 8, "C": 2, "OX": 2, "OY": 2},
            [
                level(MemoryInstance.register("W_reg", 1), "W"),
                level(MemoryInstance.register("O_reg", 2), "O"),
                level(MemoryInstance.sram("LB_IO", 512), "IO"),
                level(MemoryInstance.sram("GB_WIO", 256 * 1024), "WIO"),
                level(MemoryInstance.dram(), "WIO"),
            ],
        )
        plan = scheduler.plan_tile_memory

        def inputs_in_lb(accel, tile, weight_bytes, input_source, **kw):
            forced = {g.layer.name: 0 for g in tile.geometry}
            return plan(accel, tile, weight_bytes, forced, **kw)

        monkeypatch.setattr(scheduler, "plan_tile_memory", inputs_in_lb)
        _, failed = run_both_engines(
            accel,
            get_workload("fsrcnn"),
            DFStrategy(tile_x=16, tile_y=18, mode=OverlapMode.FULLY_CACHED),
        )
        assert 2 in {failed.count(name) for name in failed}


class TestObjectiveConsistency:
    def test_edp_between_energy_and_latency_optima(self):
        from repro.core.optimizer import best_point, sweep
        from repro.core.strategy import OverlapMode as OM

        engine = DepthFirstEngine(get_accelerator("meta_proto_like_df"), CONFIG)
        wl = get_workload("mobilenet_v1")
        points = sweep(engine, wl, ((4, 4), (14, 14), (56, 56)), (OM.FULLY_CACHED,))
        e = best_point(points, "energy")
        l = best_point(points, "latency")
        d = best_point(points, "edp")
        assert d.result.edp <= e.result.edp * 1.0001
        assert d.result.edp <= l.result.edp * 1.0001
