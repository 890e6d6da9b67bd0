"""Integration tests pinning the paper's qualitative findings.

These use the real FSRCNN workload and Table I architectures with a
reduced mapping-search budget, and assert the *shapes* the paper reports:
mode orderings, U-shaped tile-size curves, the SL-vs-DF gain, and the
TPU-like weight-buffer story.
"""

import pytest

from repro import (
    DepthFirstEngine,
    DFStrategy,
    OverlapMode,
    evaluate_layer_by_layer,
    evaluate_single_layer,
    get_accelerator,
    get_workload,
)
from repro.mapping import SearchConfig
from repro.workloads.zoo import WORKLOAD_FACTORIES

CONFIG = SearchConfig(lpf_limit=6, budget=150)


@pytest.fixture(scope="module")
def fsrcnn():
    return get_workload("fsrcnn")


@pytest.fixture(scope="module")
def engine():
    return DepthFirstEngine(get_accelerator("meta_proto_like_df"), CONFIG)


@pytest.fixture(scope="module")
def mode_results(engine, fsrcnn):
    return {
        mode: engine.evaluate(fsrcnn, DFStrategy(tile_x=60, tile_y=72, mode=mode))
        for mode in OverlapMode
    }


class TestCaseStudy1Shapes:
    def test_mode_energy_ordering(self, mode_results):
        """Fig. 12 observation 2: fully-cached <= H-cached <= recompute."""
        e = {m: r.energy_pj for m, r in mode_results.items()}
        assert e[OverlapMode.FULLY_CACHED] <= e[OverlapMode.H_CACHED_V_RECOMPUTE]
        assert e[OverlapMode.H_CACHED_V_RECOMPUTE] <= e[OverlapMode.FULLY_RECOMPUTE]

    def test_energy_near_paper_anchor(self, mode_results):
        """Paper reports ~2.2-2.3 mJ at (60,72); we expect the same order
        of magnitude (our energy unit costs are analytically derived)."""
        for r in mode_results.values():
            assert 0.5 < r.energy_pj / 1e9 < 10.0

    def test_mac_count_ordering(self, mode_results):
        """Fig. 13: recompute does more MACs; fully-cached does none extra."""
        m = {k: r.mac_count for k, r in mode_results.items()}
        assert m[OverlapMode.FULLY_RECOMPUTE] > m[OverlapMode.FULLY_CACHED]
        assert m[OverlapMode.FULLY_CACHED] == pytest.approx(6.46e9, rel=0.05)

    def test_u_shape_along_diagonal(self, engine, fsrcnn):
        """Fig. 12 observation 1: both tiny and huge tiles are sub-optimal."""
        points = [(1, 1), (16, 18), (960, 540)]
        energies = [
            engine.evaluate(
                fsrcnn, DFStrategy(tile_x=tx, tile_y=ty, mode=OverlapMode.FULLY_CACHED)
            ).energy_pj
            for tx, ty in points
        ]
        assert energies[1] < energies[0]
        assert energies[1] < energies[2]

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_FACTORIES))
    def test_lbl_corner_mode_independent(self, engine, workload):
        """Fig. 12: a tile covering the whole feature map is LBL (the
        (960,540) corner on fsrcnn), so no overlap is stored or
        recomputed and the modes cannot differ at all."""
        wl = get_workload(workload)
        lbl = max(max(layer.ox, layer.oy) for layer in wl.layers())
        totals = {
            (r.energy_pj, r.latency_cycles, r.mac_count)
            for r in (
                engine.evaluate(wl, DFStrategy(tile_x=lbl, tile_y=lbl, mode=mode))
                for mode in OverlapMode
            )
        }
        assert len(totals) == 1, totals


class TestCaseStudy2Shapes:
    def test_df_gain_over_sl_activation_dominant(self, engine, fsrcnn):
        """Fig. 16: fully-cached 4x72 gains ~10x over SL on FSRCNN."""
        sl = evaluate_single_layer(engine, fsrcnn)
        df = engine.evaluate(
            fsrcnn, DFStrategy(tile_x=4, tile_y=72, mode=OverlapMode.FULLY_CACHED)
        )
        gain = sl.energy_pj / df.energy_pj
        assert gain > 4.0

    def test_weight_dominant_prefers_lbl_over_small_tiles(self):
        """Fig. 16: on ResNet18 the FSRCNN-best strategy underperforms."""
        engine = DepthFirstEngine(get_accelerator("meta_proto_like_df"), CONFIG)
        wl = get_workload("resnet18")
        lbl = evaluate_layer_by_layer(engine, wl)
        df = engine.evaluate(
            wl, DFStrategy(tile_x=4, tile_y=72, mode=OverlapMode.FULLY_CACHED)
        )
        assert df.energy_pj > lbl.energy_pj * 0.9  # no big win, typically a loss


class TestCaseStudy3Shapes:
    def test_tpu_like_cannot_profit_from_df(self, fsrcnn):
        """Fig. 17: the TPU-like baseline (no on-chip weight buffer) is the
        one architecture where DF does not beat LBL."""
        engine = DepthFirstEngine(get_accelerator("tpu_like"), CONFIG)
        lbl = evaluate_layer_by_layer(engine, fsrcnn)
        df = engine.evaluate(
            fsrcnn, DFStrategy(tile_x=4, tile_y=72, mode=OverlapMode.FULLY_CACHED)
        )
        assert df.energy_pj > lbl.energy_pj

    def test_tpu_df_variant_fixes_it(self, fsrcnn):
        """Fig. 17: adding a weight GB makes DF far better than LBL."""
        engine = DepthFirstEngine(get_accelerator("tpu_like_df"), CONFIG)
        lbl = evaluate_layer_by_layer(engine, fsrcnn)
        df = engine.evaluate(
            fsrcnn, DFStrategy(tile_x=4, tile_y=72, mode=OverlapMode.FULLY_CACHED)
        )
        assert lbl.energy_pj / df.energy_pj > 3.0

    def test_df_variants_no_worse_on_df(self, fsrcnn):
        """Fig. 17: DF-friendly variants are at least as good as their
        baselines when running DF schedules."""
        strategy = DFStrategy(tile_x=4, tile_y=72, mode=OverlapMode.FULLY_CACHED)
        for base in ("meta_proto_like", "edge_tpu_like"):
            e_base = DepthFirstEngine(get_accelerator(base), CONFIG).evaluate(
                fsrcnn, strategy
            )
            e_df = DepthFirstEngine(get_accelerator(base + "_df"), CONFIG).evaluate(
                fsrcnn, strategy
            )
            assert e_df.energy_pj <= e_base.energy_pj * 1.05


class TestFig6TileTypes:
    def test_tile_type_counts_small(self, engine, fsrcnn):
        """Fig. 6: tile-type counts stay in the single digits, and the
        (60,72) grid is 16x8 = 128 tiles with a 36-row remainder."""
        r = engine.evaluate(
            fsrcnn,
            DFStrategy(tile_x=60, tile_y=72, mode=OverlapMode.FULLY_RECOMPUTE),
        )
        tiling = r.stacks[0].tiling
        assert tiling.grid_cols == 16
        assert tiling.grid_rows == 8
        assert tiling.tile_count == 128
        assert 3 <= len(tiling.tile_types) <= 9

    def test_first_tile_count_is_one(self, mode_results):
        for r in mode_results.values():
            firsts = [
                t for t in r.stacks[0].tiling.tile_types if t.is_first_tile
            ]
            assert len(firsts) == 1 and firsts[0].count == 1
