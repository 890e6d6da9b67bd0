"""Differential tests of axis classes and of tile-type assembly from
them, and of the back-calculation memo's key.

:func:`_axis_sequence` is the object walk that built an ``Interval`` and
an ``AxisGeometry`` per position and layer; :func:`_classify` groups its
positions.  :func:`~repro.core.backcalc._axis_classes` now walks the
positions in plain integers, and must give the
:class:`~repro.core.backcalc.AxisClasses` built from the object walk.
:func:`grid_walk` is the tile grouping that walked every tile of the
grid; :func:`~repro.core.backcalc.backcalculate` now builds the same
tile types from the product of the x and y axis classes.  Every case
must give an equal :class:`~repro.core.backcalc.StackTiling` (type
order, counts, representatives, first-tile flags and geometry), with
no memo, on a cold memo and on a memo hit.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro import get_accelerator, get_workload
from repro.core import DFStrategy, DepthFirstEngine, OverlapMode, backcalc
from repro.core.backcalc import (
    AxisClass,
    AxisClasses,
    AxisGeometry,
    AxisMemo,
    LayerTileGeometry,
    StackTiling,
    TileType,
    _axis_classes,
    backcalculate,
)
from repro.core.geometry import EMPTY, Interval, input_interval, tile_edges
from repro.core.optimizer import PAPER_TILE_GRID_X, PAPER_TILE_GRID_Y
from repro.core.stacks import Stack, partition_stacks
from repro.workloads.graph import WorkloadGraph
from repro.workloads.layer import LayerSpec, OpType
from repro.workloads.zoo import WORKLOAD_FACTORIES

from ..conftest import make_branchy_workload, make_strided_workload, make_tiny_workload

MODES = list(OverlapMode)


# ----------------------------------------------------------------------
# The object walk: the reference for the integer walk of _axis_classes
# ----------------------------------------------------------------------
def _fresh_part(required: Interval, frontier: int, cached: bool, first: bool) -> Interval:
    if not cached or first:
        return required
    lo = max(required.lo, frontier)
    return Interval(lo, max(required.hi, lo))


def _axis_sequence(
    stack: Stack,
    axis: str,
    edges: list[Interval],
    cached: bool,
) -> tuple[list[dict[str, AxisGeometry]], list[dict[str, AxisGeometry]]]:
    """Back-calculate per-layer and per-stack-input geometry for every
    tile position along one axis.

    Returns ``(layer_slices, input_slices)``: for each position, a dict
    keyed by layer name (layer outputs) and a dict keyed by source-layer
    name (the stack input feature maps they read).
    """
    wl = stack.workload
    layers = stack.layers
    reverse = [(l, wl.successors(l.name)) for l in reversed(layers)]
    sink_name = stack.sink.name
    sources = {l.name for l in wl.sources()}

    frontier: dict[str, int] = {l.name: 0 for l in layers}
    in_frontier: dict[str, int] = {name: 0 for name in sources}
    layer_slices: list[dict[str, AxisGeometry]] = []
    input_slices: list[dict[str, AxisGeometry]] = []

    for idx, edge in enumerate(edges):
        col: dict[str, AxisGeometry] = {}
        for layer, consumers in reverse:
            if layer.name == sink_name:
                required = edge
            else:
                required = EMPTY
                for consumer in consumers:
                    required = required.hull(
                        input_interval(consumer, col[consumer.name].fresh, axis)
                    )
            fresh = _fresh_part(required, frontier[layer.name], cached, idx == 0)
            col[layer.name] = AxisGeometry(
                required=required,
                fresh=fresh,
                in_need=input_interval(layer, fresh, axis),
                cache_used=max(0, fresh.lo - required.lo),
                cache_keep=0,
            )
        incol: dict[str, AxisGeometry] = {}
        for name in sources:
            window = col[name].in_need
            fetched = _fresh_part(window, in_frontier[name], cached, idx == 0)
            incol[name] = AxisGeometry(
                required=window,
                fresh=fetched,
                in_need=EMPTY,
                cache_used=max(0, fetched.lo - window.lo),
                cache_keep=0,
            )
        layer_slices.append(col)
        input_slices.append(incol)
        for layer in layers:
            frontier[layer.name] = max(
                col[layer.name].fresh.hi, frontier[layer.name]
            )
        for name in sources:
            in_frontier[name] = max(incol[name].fresh.hi, in_frontier[name])

    if cached:
        _fill_keeps(layer_slices, [l.name for l in layers])
        _fill_keeps(input_slices, list(sources))
    return layer_slices, input_slices


def _fill_keeps(slices: list[dict[str, AxisGeometry]], names: list[str]) -> None:
    """Forward pass: freshly produced elements each tile must retain for
    its successor (clamped to the fresh span — older cached data is
    already retained and needs no new spill)."""
    for idx in range(len(slices) - 1):
        cur, nxt = slices[idx], slices[idx + 1]
        for name in names:
            g = cur[name]
            keep = max(
                0,
                g.fresh.hi - max(nxt[name].required.lo, g.fresh.lo),
            )
            slices[idx][name] = replace(g, cache_keep=keep)


def _classify(
    slices: list[dict[str, AxisGeometry]],
    input_slices: list[dict[str, AxisGeometry]],
    stack: Stack,
) -> list[int]:
    """Group identical axis geometries into classes (class id per position)."""

    def signature(g: AxisGeometry) -> tuple[int, ...]:
        return (
            g.required.width,
            g.fresh.width,
            g.in_need.width,
            g.cache_used,
            g.cache_keep,
        )

    seen: dict[tuple, int] = {}
    class_of: list[int] = []
    for idx, col in enumerate(slices):
        sig = tuple(signature(col[l.name]) for l in stack.layers) + tuple(
            signature(g) for _, g in sorted(input_slices[idx].items())
        )
        cls = seen.setdefault(sig, len(seen))
        class_of.append(cls)
    return class_of


def reference_classes(stack: Stack, axis: str, tile: int, cached: bool) -> AxisClasses:
    """The axis classes of the object walk: each class held by its
    lowest position, in order of first appearance, plus ``tail0``."""
    extent = stack.sink.ox if axis == "x" else stack.sink.oy
    slices, input_slices = _axis_sequence(stack, axis, tile_edges(extent, tile), cached)
    class_of = _classify(slices, input_slices, stack)
    names = [l.name for l in stack.layers]

    def representative(position: int, count: int) -> AxisClass:
        inputs = input_slices[position]
        return AxisClass(
            position=position,
            count=count,
            layers=tuple(slices[position][n] for n in names),
            inputs=tuple(inputs.get(n) for n in names),
        )

    counts = Counter(class_of)
    first: dict[int, int] = {}
    second0 = None
    for position, cls in enumerate(class_of):
        if cls not in first:
            first[cls] = position
        elif cls == 0 and second0 is None:
            second0 = position
    return AxisClasses(
        classes=tuple(representative(first[c], counts[c]) for c in first),
        tail0=None if second0 is None else representative(second0, counts[0] - 1),
    )


def assert_classes_match(stack: Stack, mode: OverlapMode, tile_x: int, tile_y: int):
    """Both axes of the tiling equal the object walk's classes, field by
    field: every representative's position, count and geometry, the
    class order and ``tail0``."""
    sink = stack.sink
    for axis, tile, cached in (
        ("x", min(tile_x, sink.ox), mode.caches_x),
        ("y", min(tile_y, sink.oy), mode.caches_y),
    ):
        expected = reference_classes(stack, axis, tile, cached)
        found = _axis_classes(stack, axis, tile, cached)
        assert [(c.position, c.count) for c in found.classes] == [
            (c.position, c.count) for c in expected.classes
        ]
        for got, want in zip(found.classes, expected.classes):
            assert got.layers == want.layers
            assert got.inputs == want.inputs
        assert found.tail0 == expected.tail0
        assert found == expected


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


class TestIntegerWalk:
    """``_axis_classes`` equals the object walk's classes."""

    @pytest.mark.parametrize("tile", FIXTURE_TILES)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "make", [make_tiny_workload, make_branchy_workload, make_strided_workload]
    )
    def test_fixtures(self, make, mode, tile):
        assert_classes_match(only_stack(make()), mode, *tile)

    @pytest.mark.parametrize("per_layer", [False, True], ids=["auto", "per_layer"])
    @pytest.mark.parametrize("name", list(WORKLOAD_FACTORIES))
    def test_zoo_stacks(self, name, per_layer):
        tiles = ZOO_TILES + ([(960, 1), (1, 540)] if name == "fsrcnn" else [])
        accel = get_accelerator("meta_proto_like_df")
        for stack in partition_stacks(get_workload(name), accel, per_layer=per_layer):
            for mode in MODES:
                for tile in tiles:
                    assert_classes_match(stack, mode, *tile)

    def test_sweep_warm_axes(self):
        """The 24 distinct axes of the Fig. 12 grid (fsrcnn on
        meta_proto_like_df, 6 x 6 tiles x 3 modes)."""
        wl = get_workload("fsrcnn")
        axes = set()
        for stack in partition_stacks(wl, get_accelerator("meta_proto_like_df")):
            sink = stack.sink
            for mode in MODES:
                for t in PAPER_TILE_GRID_X:
                    axes.add((stack, "x", min(t, sink.ox), mode.caches_x))
                for t in PAPER_TILE_GRID_Y:
                    axes.add((stack, "y", min(t, sink.oy), mode.caches_y))
        assert len(axes) == 24
        for axis in axes:
            assert _axis_classes(*axis) == reference_classes(*axis)

    def test_empty_spans_keep_their_bounds(self):
        """Padding wider than the kernel leaves edge positions an empty
        input span with ``hi < lo``; the hull passes it on as it is, and
        the classes keep those bounds."""
        layers = [
            conv("A", x=8),
            conv("B", x=12, fx=1, px=2),
            conv("C", x=12, fx=1, px=2),
        ]
        stack = stack_of(layers, [("A", "B"), ("A", "C"), ("B", "C")])
        spans = [
            g.required
            for tile in (1, 3)
            for cached in (False, True)
            for col in _axis_sequence(stack, "x", tile_edges(12, tile), cached)[0]
            for g in col.values()
        ]
        assert any(span.hi < span.lo for span in spans)
        for mode in MODES:
            for tile in [(1, 1), (3, 5), (12, 24)]:
                assert_classes_match(stack, mode, *tile)

    def test_keeps_split_classes(self):
        """Unpadded convolutions need no clip at the right edge, so the
        last column differs from the inner ones by the keeps of ``A``'s
        output alone (a 1 x 1 source fetches no overlap): the cached x
        axis has three classes (first, inner, last)."""
        layers = [conv("A", x=26, fx=1, fy=1, px=0, py=0), conv("B", px=0, py=0)]
        stack = stack_of(layers, [("A", "B")])
        for mode in MODES:
            assert_classes_match(stack, mode, 4, 4)
        xs = _axis_classes(stack, "x", 4, True)
        assert [(c.position, c.count) for c in xs.classes] == [(0, 1), (1, 4), (5, 1)]
        assert [g.cache_keep for g in xs.classes[2].layers] == [0, 0]


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
