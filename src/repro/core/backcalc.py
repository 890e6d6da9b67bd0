"""Step 2 of DeFiNES: back-calculate per-layer tile geometry.

Given a stack, an overlap mode and the tile grid on the stack's final
output, this module computes — per tile and per layer — the required
output region, the region that must actually be computed (the rest comes
from caches), the input region needed, and the cached-data bookkeeping of
Fig. 7.  The stack's *input* feature map participates in overlap caching
too: in cached modes only the new part of a source layer's input window is
fetched from wherever the previous stack left it.

Everything is axis-separable (see :mod:`repro.core.geometry`): tiles are
rectangles, layer transforms act per axis and the branch rule (Fig. 8) is
a per-axis hull.  We therefore walk each axis once, in plain integers,
and group identical columns (rows) into *axis classes*; only each
class's representative becomes geometry objects.  Tiles with identical
(column class, row class) pairs are identical, so the tile types
(Fig. 6) are the products of the two axes' classes, built without
visiting the tiles themselves.  An
:class:`AxisMemo` keeps each axis's classes by content, because the
same stack, axis and tile size recur across strategies and
accelerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, pairwise
from typing import Iterator

from ..workloads.layer import LayerSpec
from .geometry import EMPTY, Interval, axis_params, input_span
from .stacks import Stack
from .strategy import OverlapMode


@dataclass(frozen=True, slots=True)
class AxisGeometry:
    """Geometry along one axis for one tile position of one feature map.

    For a layer's output: ``required`` is the span consumers need,
    ``fresh`` the newly computed part, ``in_need`` the input span needed
    to compute ``fresh``.  For a stack input feature map: ``required`` is
    the window the source layer reads, ``fresh`` the part fetched from the
    previous stack's output location (the rest sits in the overlap cache),
    and ``in_need`` is unused.
    """

    required: Interval
    fresh: Interval
    in_need: Interval
    cache_used: int  # elements served by the overlap cache this tile
    cache_keep: int  # freshly produced elements to retain for the next tile


def _elems_to_bytes(elems: int, bits: int) -> int:
    return (elems * bits + 7) // 8


@dataclass(frozen=True)
class LayerTileGeometry:
    """Combined x/y geometry of one layer for one tile.

    ``input_x``/``input_y`` are set for stack source layers and describe
    the stack input feature map's window, fetch and cache state.
    """

    layer: LayerSpec
    x: AxisGeometry
    y: AxisGeometry
    input_x: AxisGeometry | None = None
    input_y: AxisGeometry | None = None

    @property
    def is_computed(self) -> bool:
        """Whether anything must be computed for this layer this tile."""
        return not (self.x.fresh.empty or self.y.fresh.empty)

    @property
    def compute_w(self) -> int:
        return self.x.fresh.width

    @property
    def compute_h(self) -> int:
        return self.y.fresh.width

    @property
    def mac_count(self) -> int:
        """MACs to compute this layer-tile."""
        if not self.is_computed:
            return 0
        per_pixel = self.layer.k * self.layer.c * self.layer.fx * self.layer.fy
        return per_pixel * self.compute_w * self.compute_h

    @property
    def is_source(self) -> bool:
        """Whether this layer reads the stack's input feature map."""
        return self.input_x is not None

    # ------------------------------------------------------------------
    # Data sizes used by steps 3 and 4 (elements and bytes).
    # ------------------------------------------------------------------
    @property
    def output_elems(self) -> int:
        """Newly computed output elements of this layer-tile."""
        return self.layer.k * self.compute_w * self.compute_h

    @property
    def output_bytes(self) -> int:
        return _elems_to_bytes(self.output_elems, self.layer.act_bits)

    @property
    def input_elems(self) -> int:
        """Input elements needed (halo included) for this layer-tile."""
        return (
            self.layer.in_channels * self.x.in_need.width * self.y.in_need.width
        )

    @property
    def input_bytes(self) -> int:
        return _elems_to_bytes(self.input_elems, self.layer.act_bits)

    # -- overlap cache of this layer's output --------------------------
    @property
    def keep_h_elems(self) -> int:
        """Fresh output to spill into the H cache for the next tile."""
        return self.layer.k * self.x.cache_keep * self.compute_h

    @property
    def keep_v_elems(self) -> int:
        """Fresh output to spill into the V cache for the next tile row."""
        return self.layer.k * self.compute_w * self.y.cache_keep

    @property
    def used_h_elems(self) -> int:
        """Output region served by the H cache instead of recomputed."""
        return self.layer.k * self.x.cache_used * self.compute_h

    @property
    def used_v_elems(self) -> int:
        """Output region served by the V cache (full required width)."""
        return self.layer.k * self.x.required.width * self.y.cache_used

    # -- overlap cache of the stack input feature map -------------------
    # Each is 0 for a layer that does not read the stack input.
    @property
    def input_fresh_elems(self) -> int:
        """Stack-input elements fetched fresh from the previous stack's
        output location this tile."""
        ix, iy = self.input_x, self.input_y
        if ix is None or iy is None:
            return 0
        return self.layer.in_channels * ix.fresh.width * iy.fresh.width

    @property
    def input_used_h_elems(self) -> int:
        ix, iy = self.input_x, self.input_y
        if ix is None or iy is None:
            return 0
        return self.layer.in_channels * ix.cache_used * iy.fresh.width

    @property
    def input_used_v_elems(self) -> int:
        ix, iy = self.input_x, self.input_y
        if ix is None or iy is None:
            return 0
        return self.layer.in_channels * ix.required.width * iy.cache_used

    @property
    def input_keep_h_elems(self) -> int:
        ix, iy = self.input_x, self.input_y
        if ix is None or iy is None:
            return 0
        return self.layer.in_channels * ix.cache_keep * iy.fresh.width

    @property
    def input_keep_v_elems(self) -> int:
        ix, iy = self.input_x, self.input_y
        if ix is None or iy is None:
            return 0
        return self.layer.in_channels * ix.fresh.width * iy.cache_keep

    def scaled_layer(self) -> LayerSpec:
        """The per-tile loop nest handed to the single-layer mapper."""
        return self.layer.scaled_to_tile(
            self.compute_w,
            self.compute_h,
            ix=max(1, self.x.in_need.width),
            iy=max(1, self.y.in_need.width),
        )


@dataclass(frozen=True)
class TileType:
    """A class of identical tiles (Fig. 6) with its multiplicity."""

    index: int
    count: int
    col_index: int
    row_index: int
    is_first_tile: bool
    geometry: tuple[LayerTileGeometry, ...]

    @property
    def mac_count(self) -> int:
        return sum(g.mac_count for g in self.geometry)

    @property
    def h_cache_bytes(self) -> int:
        """Per-stack H-cache capacity requirement at this tile (layer
        outputs plus source-layer input windows)."""
        total = 0
        for g in self.geometry:
            total += _elems_to_bytes(g.keep_h_elems, g.layer.act_bits)
            total += _elems_to_bytes(g.input_keep_h_elems, g.layer.act_bits)
        return total

    @property
    def v_cache_line_bytes(self) -> int:
        """Per-stack V-cache requirement: full-width lines per feature map
        (the stack line buffer of Fig. 7)."""
        total = 0
        for g in self.geometry:
            elems = g.layer.k * g.layer.ox * g.y.cache_keep
            total += _elems_to_bytes(elems, g.layer.act_bits)
            if g.input_y is not None:
                elems = g.layer.in_channels * g.layer.ix * g.input_y.cache_keep
                total += _elems_to_bytes(elems, g.layer.act_bits)
        return total


@dataclass(frozen=True)
class StackTiling:
    """All tile types of one stack under one DF strategy."""

    stack: Stack
    mode: OverlapMode
    tile_x: int
    tile_y: int
    grid_cols: int
    grid_rows: int
    tile_types: tuple[TileType, ...]

    @property
    def tile_count(self) -> int:
        return self.grid_cols * self.grid_rows

    @property
    def total_mac_count(self) -> int:
        """MACs over all tiles (recompute overhead included — Fig. 13)."""
        return sum(t.mac_count * t.count for t in self.tile_types)


@dataclass(frozen=True, slots=True)
class AxisClass:
    """A class of tile columns (or rows) with identical per-layer
    geometry, held by its representative: the lowest ``position`` in
    the class.

    ``layers`` holds the representative's geometry per stack layer, and
    ``inputs`` the stack input window per stack layer (``None`` for
    layers that are not stack sources).  Other members share every
    width and cache count but may sit at other offsets.
    """

    position: int
    count: int
    layers: tuple[AxisGeometry, ...]
    inputs: tuple[AxisGeometry | None, ...]


@dataclass(frozen=True, slots=True)
class AxisClasses:
    """One axis of a stack's tiling, reduced to its classes.

    ``classes`` are in order of first appearance, so ``classes[0]``
    holds position 0.  ``tail0`` is class 0 without position 0, led by
    its second member (``None`` when class 0 has one member): tile
    (0, 0) is a type of its own, and the rest of its class pair needs
    that representative.
    """

    classes: tuple[AxisClass, ...]
    tail0: AxisClass | None

    @property
    def positions(self) -> int:
        return sum(c.count for c in self.classes)


#: One position of an axis walk: per layer, its ``required``, ``fresh``
#: and ``in_need`` spans as ``(lo, hi)``; per stack source, in stack
#: order, the fetched part of its input window (the layer's ``in_need``).
_Row = tuple[list, list, list, list]


def _axis_rows(
    stack: Stack, axis: str, tile: int, cached: bool, sources: list[int]
) -> Iterator[_Row]:
    """Back-calculate every position of one axis, in plain integers.

    Layers run from the sink back: the sink's required span is the
    position's tile, every other layer's the Fig. 8 hull of its
    consumers' ``in_need`` (an empty span takes the next one as it is),
    and each ``in_need`` is :func:`~repro.core.geometry.input_span` of
    the fresh span.  In cached modes a fresh part (and a source's fetched
    part) starts at the frontier that earlier positions produced.
    """
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    wl = stack.workload
    layers = stack.layers
    n = len(layers)
    at = {layer.name: i for i, layer in enumerate(layers)}
    sink = at[stack.sink.name]
    # Per layer, sink first: its index, its consumers' indices and the
    # axis's convolution parameters.
    steps = [
        (
            i,
            tuple(at[c.name] for c in wl.successors(layers[i].name)),
            axis_params(layers[i], axis),
        )
        for i in reversed(range(n))
    ]
    extent = stack.sink.ox if axis == "x" else stack.sink.oy
    frontier = [0] * n
    fetched_to = [0] * len(sources)
    for lo in range(0, extent, tile):
        carry = cached and lo > 0
        required: list = [None] * n
        fresh: list = [None] * n
        need: list = [None] * n
        for i, consumers, params in steps:
            if i == sink:
                span = (lo, min(lo + tile, extent))
            else:
                span = (0, 0)
                for c in consumers:
                    c_span = need[c]
                    if span[1] <= span[0]:
                        span = c_span
                    elif c_span[1] > c_span[0]:
                        span = (min(span[0], c_span[0]), max(span[1], c_span[1]))
            required[i] = span
            if carry:
                f_lo = max(span[0], frontier[i])
                span = (f_lo, max(span[1], f_lo))
            frontier[i] = max(span[1], frontier[i])
            fresh[i] = span
            need[i] = input_span(span[0], span[1], *params)
        fetched = []
        for j, i in enumerate(sources):
            span = need[i]
            if carry:
                g_lo = max(span[0], fetched_to[j])
                span = (g_lo, max(span[1], g_lo))
            fetched_to[j] = max(span[1], fetched_to[j])
            fetched.append(span)
        yield required, fresh, need, fetched


def _axis_classes(stack: Stack, axis: str, tile: int, cached: bool) -> AxisClasses:
    """Back-calculate one axis of ``stack``, its output cut into spans
    of ``tile``, and reduce it to its classes.

    The positions come from :func:`_axis_rows`.  In cached modes a
    position's keeps (the fresh elements the next position reuses) are
    read once the next position is known.  A position's widths and
    cache counts are its class signature; only class representatives
    and ``tail0`` become :class:`AxisGeometry` objects.
    """
    n = len(stack.layers)
    wl = stack.workload
    sources = [i for i, layer in enumerate(stack.layers) if wl.is_source(layer.name)]
    signatures: dict[tuple[int, ...], int] = {}
    # Per class in order of first appearance: [position, count, row, keeps].
    found: list[list] = []
    tail0 = None

    walk = chain(_axis_rows(stack, axis, tile, cached, sources), [None])
    for position, (row, following) in enumerate(pairwise(walk)):
        keep_some = cached and following is not None
        required, fresh, need, fetched = row
        keeps = [0] * (n + len(sources))
        signature = []
        for i in range(n):
            r_lo, r_hi = required[i]
            f_lo, f_hi = fresh[i]
            n_lo, n_hi = need[i]
            if keep_some:
                keep = f_hi - max(following[0][i][0], f_lo)
                keeps[i] = keep if keep > 0 else 0
            signature += (
                r_hi - r_lo if r_hi > r_lo else 0,
                f_hi - f_lo if f_hi > f_lo else 0,
                n_hi - n_lo if n_hi > n_lo else 0,
                f_lo - r_lo,
                keeps[i],
            )
        for j, i in enumerate(sources):
            w_lo, w_hi = need[i]
            g_lo, g_hi = fetched[j]
            if keep_some:
                keep = g_hi - max(following[2][i][0], g_lo)
                keeps[n + j] = keep if keep > 0 else 0
            signature += (
                w_hi - w_lo if w_hi > w_lo else 0,
                g_hi - g_lo if g_hi > g_lo else 0,
                g_lo - w_lo,
                keeps[n + j],
            )
        cls = signatures.setdefault(tuple(signature), len(found))
        if cls == len(found):
            found.append([position, 1, row, keeps])
        else:
            found[cls][1] += 1
            if cls == 0 and tail0 is None:
                tail0 = (position, row, keeps)

    # Equal spans share one Interval, as the object walk's spans did.
    intervals: dict[tuple[int, int], Interval] = {}

    def interval(span: tuple[int, int]) -> Interval:
        found = intervals.get(span)
        if found is None:
            found = intervals[span] = Interval(*span)
        return found

    def representative(position: int, count: int, row: _Row, keeps: list) -> AxisClass:
        required, fresh, need, fetched = row
        inputs: list[AxisGeometry | None] = [None] * n
        for j, i in enumerate(sources):
            window, got = need[i], fetched[j]
            inputs[i] = AxisGeometry(
                required=interval(window),
                fresh=interval(got),
                in_need=EMPTY,
                cache_used=got[0] - window[0],
                cache_keep=keeps[n + j],
            )
        return AxisClass(
            position=position,
            count=count,
            layers=tuple(
                AxisGeometry(
                    required=interval(required[i]),
                    fresh=interval(fresh[i]),
                    in_need=interval(need[i]),
                    cache_used=fresh[i][0] - required[i][0],
                    cache_keep=keeps[i],
                )
                for i in range(n)
            ),
            inputs=tuple(inputs),
        )

    return AxisClasses(
        classes=tuple(representative(*cls) for cls in found),
        tail0=None
        if tail0 is None
        else representative(tail0[0], found[0][1] - 1, *tail0[1:]),
    )


def _wiring(stack: Stack) -> tuple:
    """The stack's layers and internal edges: everything of the stack
    that back-calculation reads."""
    wl = stack.workload
    return stack.layers, tuple(
        (p.name, l.name) for l in stack.layers for p in wl.predecessors(l.name)
    )


class AxisMemo:
    """Axis classes by content, for repeated back-calculations.

    An entry is keyed by the stack's layers and internal edges (which
    fix the axis's extent), the axis, the tile size and whether the
    axis caches overlap; its value is an immutable
    :class:`AxisClasses`.  Nothing of the accelerator enters
    back-calculation, so one memo serves every engine of an
    :class:`~repro.explore.executor.Executor`.  Entries leave oldest
    first beyond :attr:`BOUND`.
    """

    #: Capacity (oldest out).  A 10-generation, 2-workload, 3-accelerator
    #: genetic DSE with partition genes looks up 1,452 distinct keys.
    BOUND = 4096

    def __init__(self) -> None:
        self._entries: dict[tuple, AxisClasses] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def classes(
        self, stack: Stack, axes: tuple[tuple[str, int, bool], ...]
    ) -> list[AxisClasses]:
        """:func:`_axis_classes` of ``stack`` for each ``(axis, tile,
        cached)`` of ``axes``, computed only on a miss."""
        wiring = _wiring(stack)
        found = []
        for axis in axes:
            key = (*wiring, *axis)
            classes = self._entries.get(key)
            if classes is None:
                classes = self._entries[key] = _axis_classes(stack, *axis)
                if len(self._entries) > self.BOUND:
                    del self._entries[next(iter(self._entries))]
            found.append(classes)
        return found


def backcalculate(
    stack: Stack,
    mode: OverlapMode,
    tile_x: int,
    tile_y: int,
    memo: AxisMemo | None = None,
) -> StackTiling:
    """Run DeFiNES steps 1-2 for one stack: tile the output, back-calculate
    all per-layer tile geometries, and group identical tiles into types.

    Each axis's classes come from ``memo`` when given; without one they
    are computed afresh.  Tile types are ordered by their representative
    tile, the lowest (row, column) of their members."""
    sink = stack.sink
    tx = min(tile_x, sink.ox)
    ty = min(tile_y, sink.oy)
    axes = (("x", tx, mode.caches_x), ("y", ty, mode.caches_y))
    if memo is None:
        xs, ys = (_axis_classes(stack, *axis) for axis in axes)
    else:
        xs, ys = memo.classes(stack, axes)

    # Tile (0, 0) is always its own type: it fetches weights from DRAM
    # (Fig. 9: "all the layers of the first tile take weights from DRAM").
    # The rest of its class pair starts at the next tile of row 0, or
    # else at column 0 of the pair's next row.
    x0, y0 = xs.classes[0], ys.classes[0]
    found: list[tuple[int, bool, AxisClass, AxisClass]] = [(1, True, x0, y0)]
    for cy in ys.classes:
        for cx in xs.classes:
            if cx is not x0 or cy is not y0:
                found.append((cx.count * cy.count, False, cx, cy))
            elif xs.tail0 is not None:
                found.append((cx.count * cy.count - 1, False, xs.tail0, cy))
            elif ys.tail0 is not None:
                found.append((cx.count * cy.count - 1, False, cx, ys.tail0))
    found.sort(key=lambda t: (t[3].position, t[2].position))

    tile_types = tuple(
        TileType(
            index=index,
            count=count,
            col_index=cx.position,
            row_index=cy.position,
            is_first_tile=first,
            geometry=tuple(
                LayerTileGeometry(
                    layer=layer, x=x, y=y, input_x=input_x, input_y=input_y
                )
                for layer, x, y, input_x, input_y in zip(
                    stack.layers, cx.layers, cy.layers, cx.inputs, cy.inputs
                )
            ),
        )
        for index, (count, first, cx, cy) in enumerate(found)
    )
    return StackTiling(
        stack=stack,
        mode=mode,
        tile_x=tx,
        tile_y=ty,
        grid_cols=xs.positions,
        grid_rows=ys.positions,
        tile_types=tile_types,
    )
