"""Differential tests of tile-type assembly from axis classes, and of the
back-calculation memo's key.

:func:`grid_walk` is the tile grouping that walked every tile of the
grid; :func:`~repro.core.backcalc.backcalculate` now builds the same
tile types from the product of the x and y axis classes.  Every case
must give an equal :class:`~repro.core.backcalc.StackTiling` (type
order, counts, representatives, first-tile flags and geometry), with
no memo, on a cold memo and on a memo hit.
"""

import pytest

from repro import get_accelerator, get_workload
from repro.core import DFStrategy, DepthFirstEngine, OverlapMode, backcalc
from repro.core.backcalc import (
    AxisMemo,
    LayerTileGeometry,
    StackTiling,
    TileType,
    _axis_classes,
    _axis_sequence,
    _classify,
    backcalculate,
)
from repro.core.geometry import tile_edges
from repro.core.stacks import Stack, partition_stacks
from repro.workloads.graph import WorkloadGraph
from repro.workloads.layer import LayerSpec, OpType
from repro.workloads.zoo import WORKLOAD_FACTORIES

from ..conftest import make_branchy_workload, make_strided_workload, make_tiny_workload

MODES = list(OverlapMode)


def grid_walk(stack: Stack, mode: OverlapMode, tile_x: int, tile_y: int) -> StackTiling:
    """Reference: group every tile of the grid by its (column class, row
    class, is tile (0, 0)) key; each type's representative is its
    lowest (row, column) member."""
    sink = stack.sink
    tx = min(tile_x, sink.ox)
    ty = min(tile_y, sink.oy)
    x_edges = tile_edges(sink.ox, tx)
    y_edges = tile_edges(sink.oy, ty)

    x_cols, x_incols = _axis_sequence(stack, "x", x_edges, mode.caches_x)
    y_rows, y_inrows = _axis_sequence(stack, "y", y_edges, mode.caches_y)

    x_class_of = _classify(x_cols, x_incols, stack)
    y_class_of = _classify(y_rows, y_inrows, stack)

    combos: dict[tuple[int, int, bool], list[tuple[int, int]]] = {}
    for r in range(len(y_edges)):
        for c in range(len(x_edges)):
            key = (x_class_of[c], y_class_of[r], (r == 0 and c == 0))
            combos.setdefault(key, []).append((c, r))

    sources = {l.name for l in stack.workload.sources()}
    tile_types: list[TileType] = []
    for key, members in sorted(
        combos.items(), key=lambda kv: min((r, c) for c, r in kv[1])
    ):
        col_idx, row_idx = members[0]
        geometry = []
        for layer in stack.layers:
            is_src = layer.name in sources
            geometry.append(
                LayerTileGeometry(
                    layer=layer,
                    x=x_cols[col_idx][layer.name],
                    y=y_rows[row_idx][layer.name],
                    input_x=x_incols[col_idx][layer.name] if is_src else None,
                    input_y=y_inrows[row_idx][layer.name] if is_src else None,
                )
            )
        tile_types.append(
            TileType(
                index=len(tile_types),
                count=len(members),
                col_index=col_idx,
                row_index=row_idx,
                is_first_tile=key[2],
                geometry=tuple(geometry),
            )
        )

    return StackTiling(
        stack=stack,
        mode=mode,
        tile_x=tx,
        tile_y=ty,
        grid_cols=len(x_edges),
        grid_rows=len(y_edges),
        tile_types=tuple(tile_types),
    )


def assert_matches_grid_walk(stack, mode, tile_x, tile_y):
    """No memo, a cold memo and a memo hit all equal the grid walk."""
    reference = grid_walk(stack, mode, tile_x, tile_y)
    memo = AxisMemo()
    assert backcalculate(stack, mode, tile_x, tile_y) == reference
    assert backcalculate(stack, mode, tile_x, tile_y, memo) == reference
    assert len(memo) == 2
    assert backcalculate(stack, mode, tile_x, tile_y, memo) == reference
    assert len(memo) == 2


def only_stack(workload):
    stacks = partition_stacks(workload, get_accelerator("meta_proto_like_df"))
    assert len(stacks) == 1
    return stacks[0]


#: (tile_x, tile_y) shapes on the 48 x 32 tiny map: one tile, a tile
#: larger than the map, one column, one row, uneven remainders and 1 x 1.
FIXTURE_TILES = [(48, 32), (10_000, 10_000), (48, 5), (7, 32), (16, 8), (7, 5), (1, 1)]
#: Fig. 12 tiles and an uneven small tile on every zoo workload; fsrcnn
#: also runs its one-column (960 x 1) and one-row (1 x 540) grids.
ZOO_TILES = [(16, 18), (60, 72), (240, 270), (7, 5)]


class TestGridWalkEquivalence:
    @pytest.mark.parametrize("tile", FIXTURE_TILES)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "make", [make_tiny_workload, make_branchy_workload, make_strided_workload]
    )
    def test_fixtures(self, make, mode, tile):
        assert_matches_grid_walk(only_stack(make()), mode, *tile)

    @pytest.mark.parametrize("name", list(WORKLOAD_FACTORIES))
    def test_zoo_stacks(self, name):
        tiles = ZOO_TILES + ([(960, 1), (1, 540)] if name == "fsrcnn" else [])
        accel = get_accelerator("meta_proto_like_df")
        for stack in partition_stacks(get_workload(name), accel):
            for mode in MODES:
                for tile in tiles:
                    assert_matches_grid_walk(stack, mode, *tile)

    @pytest.mark.parametrize(
        "mode, x_more, y_more",
        [
            (OverlapMode.FULLY_RECOMPUTE, True, True),
            (OverlapMode.H_CACHED_V_RECOMPUTE, False, True),
            (OverlapMode.FULLY_CACHED, False, False),
        ],
    )
    def test_first_tile_class_pair(self, mode, x_more, y_more):
        """Tile (0, 0)'s class pair in its three shapes.  With more
        members in x-class 0 the pair's type continues along row 0; with
        x-class 0 alone it moves to the y-class's second row; with both
        classes 0 alone the pair holds tile (0, 0) only."""
        stack = only_stack(make_tiny_workload())
        xs = _axis_classes(stack, "x", 16, mode.caches_x)
        ys = _axis_classes(stack, "y", 8, mode.caches_y)
        assert (xs.tail0 is not None, ys.tail0 is not None) == (x_more, y_more)
        tiling = backcalculate(stack, mode, 16, 8)
        assert tiling == grid_walk(stack, mode, 16, 8)
        rest = {
            (t.col_index, t.row_index): t.count
            for t in tiling.tile_types
            if not t.is_first_tile
        }
        n0 = xs.classes[0].count * ys.classes[0].count
        if x_more:
            assert rest[xs.tail0.position, 0] == n0 - 1
        elif y_more:
            assert rest[0, ys.tail0.position] == n0 - 1
        else:
            assert len(tiling.tile_types) == len(xs.classes) * len(ys.classes)


# ----------------------------------------------------------------------
# The memo key
# ----------------------------------------------------------------------
def conv(name, x=24, fx=3, fy=3, px=1, py=1):
    return LayerSpec(
        name=name, op_type=OpType.CONV, k=4, c=4, ox=x, oy=24,
        fx=fx, fy=fy, px=px, py=py,
    )


def stack_of(layers, edges):
    """A one-stack workload of ``layers`` wired by ``edges`` (name pairs)."""
    wl = WorkloadGraph("memo")
    for layer in layers:
        wl.add_layer(layer, [p for p, c in edges if c == layer.name])
    return Stack(index=0, workload=wl, layers=tuple(layers))


class TestMemoKey:
    MODE = OverlapMode.FULLY_CACHED
    TILE = (5, 7)

    def assert_separate(self, a, b):
        """``a`` and ``b`` take two entries per axis and each equals its
        memo-free back-calculation."""
        memo = AxisMemo()
        ta, tb = (backcalculate(s, self.MODE, *self.TILE, memo) for s in (a, b))
        assert len(memo) == 4
        assert ta == backcalculate(a, self.MODE, *self.TILE)
        assert tb == backcalculate(b, self.MODE, *self.TILE)
        return ta, tb

    def test_wiring_is_part_of_the_key(self):
        layers = [conv("A"), conv("B"), conv("C")]
        chain = stack_of(layers, [("A", "B"), ("B", "C")])
        fork = stack_of(layers, [("A", "C"), ("B", "C")])
        ta, tb = self.assert_separate(chain, fork)
        assert ta.tile_types != tb.tile_types

    def test_padding_is_part_of_the_key(self):
        a = stack_of([conv("A"), conv("B")], [("A", "B")])
        b = stack_of([conv("A", px=0), conv("B")], [("A", "B")])
        ta, tb = self.assert_separate(a, b)
        assert ta.tile_types != tb.tile_types

    def test_layer_name_is_part_of_the_key(self):
        ta, tb = self.assert_separate(
            stack_of([conv("A")], []), stack_of([conv("B")], [])
        )
        assert {g.layer.name for t in tb.tile_types for g in t.geometry} == {"B"}

    def test_axis_tile_and_caching_are_part_of_the_key(self):
        """x and y of one stack differ only by axis here (an fx != fy
        kernel on a square map), and a second tile size or overlap mode
        must not hit the first one's entries."""
        stack = stack_of([conv("A", fx=5, fy=1, px=2, py=0), conv("B")], [("A", "B")])
        memo = AxisMemo()
        for mode in MODES:
            for tile in [(5, 5), (6, 6), (5, 6)]:
                assert backcalculate(stack, mode, *tile, memo) == backcalculate(
                    stack, mode, *tile
                )

    def test_map_size_is_part_of_the_key(self):
        """The same wiring on a wider map: the layers fix the extent."""
        a = stack_of([conv("A"), conv("B")], [("A", "B")])
        b = stack_of([conv("A", x=30), conv("B", x=30)], [("A", "B")])
        ta, tb = self.assert_separate(a, b)
        assert ta.grid_cols != tb.grid_cols

    def test_bound_evicts_oldest(self, monkeypatch):
        computed = []
        compute = backcalc._axis_classes

        def counting(stack, axis, tile, cached):
            computed.append((axis, tile))
            return compute(stack, axis, tile, cached)

        monkeypatch.setattr(backcalc, "_axis_classes", counting)
        monkeypatch.setattr(AxisMemo, "BOUND", 3)
        stack = stack_of([conv("A")], [])
        memo = AxisMemo()
        for tile in (1, 2, 3):
            backcalculate(stack, self.MODE, tile, tile, memo)
        assert len(memo) == 3
        computed.clear()
        backcalculate(stack, self.MODE, 3, 3, memo)
        assert computed == []
        tiling = backcalculate(stack, self.MODE, 1, 1, memo)
        assert computed == [("x", 1), ("y", 1)]
        assert len(memo) == 3
        assert tiling == grid_walk(stack, self.MODE, 1, 1)


def outcome(result):
    """A schedule result's totals and every stack's tile types (stacks
    compare their workload graphs by identity, so not whole results)."""
    return result.total, [
        (sr.tiling.tile_types, [(tr.layer_costs, tr.copy_cost) for tr in sr.tile_results])
        for sr in result.stacks
    ]


class TestSharedMemo:
    STRATEGIES = [
        DFStrategy(tile_x=14, tile_y=14, mode=OverlapMode.FULLY_CACHED),
        DFStrategy(tile_x=28, tile_y=7, mode=OverlapMode.H_CACHED_V_RECOMPUTE),
    ]

    def test_engines_on_two_accelerators_share_a_memo(self, fast_config):
        wl = get_workload("mobilenet_v1")
        memo = AxisMemo()
        for name in ("meta_proto_like_df", "tpu_like"):
            accel = get_accelerator(name)
            shared = DepthFirstEngine(accel, fast_config, axis_memo=memo)
            for strategy in self.STRATEGIES:
                fresh = DepthFirstEngine(accel, fast_config)
                assert outcome(shared.evaluate(wl, strategy)) == outcome(
                    fresh.evaluate(wl, strategy)
                )
        assert len(memo) > 0

    def test_warm_memo_repeats_the_result(self, fast_config):
        engine = DepthFirstEngine(get_accelerator("meta_proto_like_df"), fast_config)
        wl = get_workload("fsrcnn")
        strategy = DFStrategy(tile_x=60, tile_y=72, mode=OverlapMode.FULLY_CACHED)
        first = outcome(engine.evaluate(wl, strategy))
        entries = len(engine.axis_memo)
        assert outcome(engine.evaluate(wl, strategy)) == first
        assert len(engine.axis_memo) == entries
