"""DeFiNES' depth-first cost model: the six steps of Fig. 5.

:class:`DepthFirstEngine` evaluates a workload on an accelerator under a
:class:`~repro.core.strategy.DFStrategy`:

1. partition the workload into fused-layer stacks (axis 3);
2. tile each stack's output and back-calculate per-layer tile geometry
   for the chosen overlap mode (axes 1-2), grouping identical tiles into
   tile types;
3. determine top memory levels per (operand, layer, tile type);
4. model the data copy actions that collect inputs / spill overlap
   caches;
5. call the single-layer mapper + cost model per layer-tile with the
   hierarchy truncated at the chosen top levels;
6. accumulate everything into stack and schedule results.

Feature maps crossing stack boundaries are placed in the lowest memory
level they fit (layer-by-layer behaviour) or in DRAM (single-layer
behaviour), per the strategy's :class:`StackBoundary`.

An evaluation has two phases.  *Plan* (:meth:`DepthFirstEngine.plan`)
runs steps 1-4 for every stack and lists each computed layer-tile's
``(scaled layer, tops)`` search problem with its cache key, both from
the engine's :class:`ProblemTable`.  *Assemble* runs step 5 (grouped
scoring of the cache misses, then one search per problem in plan order,
raising the tops of an infeasible one) and step 6.  An executor batch
plans all of its jobs first and scores the misses of all of them at
once (:meth:`DepthFirstEngine.solve`); an evaluation without such a
plan plans itself and scores its own misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from ..hardware.accelerator import Accelerator
from ..mapping.cache import MappingCache
from ..mapping.cost import CostResult
from ..mapping.loma import MappingSearchEngine, SearchConfig, normalize_key
from ..workloads.graph import WorkloadGraph
from ..workloads.layer import LayerSpec
from .backcalc import (
    AxisMemo,
    LayerTileGeometry,
    StackTiling,
    TileType,
    backcalculate,
)
from .datacopy import DataCopyAction, copy_cost
from .memlevels import MemLevelPolicy, TileMemoryPlan, plan_tile_memory
from .results import ScheduleResult, StackResult, TileTypeResult
from .stacks import Stack, partition_stacks
from .strategy import DFStrategy, StackBoundary


class ProblemTable:
    """Each layer-tile search problem's scaled layer and normalized
    cache key, built once per distinct problem (DESIGN.md §5.5).

    A problem is fixed by the source layer, the compute width and
    height, the input span on each axis and the tops; the owning engine
    fixes the accelerator and the search config.  The source layer
    enters the key by ``id()``, which no other object can take while
    an entry holds the layer.  Entries leave oldest first beyond
    :attr:`BOUND`.
    """

    #: Capacity (oldest out).  perfbench ``sweep_warm``'s 9,016 searches
    #: fill 3,502 entries on its one engine.
    BOUND = 4096

    def __init__(self, accel: Accelerator, mapper: MappingSearchEngine) -> None:
        self.accel = accel
        self.mapper = mapper
        self._entries: dict[tuple, tuple[LayerSpec, LayerSpec, str]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entry(
        self, geom: LayerTileGeometry, tops: Mapping[str, int]
    ) -> tuple[LayerSpec, LayerSpec, str]:
        """The table's own ``(source layer, scaled layer, cache key)``
        entry for ``geom`` at ``tops``, built only on a miss."""
        x, y = geom.x, geom.y
        ident = (
            id(geom.layer),
            x.fresh.width,
            y.fresh.width,
            x.in_need.width,
            y.in_need.width,
            tops["W"],
            tops["I"],
            tops["O"],
        )
        entry = self._entries.get(ident)
        if entry is None:
            scaled = geom.scaled_layer()
            key = normalize_key(self.mapper.cache_key(scaled, self.accel, tops))
            entry = self._entries[ident] = (geom.layer, scaled, key)
            if len(self._entries) > self.BOUND:
                del self._entries[next(iter(self._entries))]
        return entry


@dataclass
class _TilePlan:
    """One tile type after steps 3-4: its memory plan, data-copy cost
    and, per computed layer, its geometry index and its
    :class:`ProblemTable` entry.  The entries are the table's own
    tuples, so a plan waiting in a batch holds no object per search."""

    tile: TileType
    plan: TileMemoryPlan
    copy_cost: CostResult
    computed: list[int]
    problems: list[tuple[LayerSpec, LayerSpec, str]]


@dataclass
class _StackPlan:
    """One stack after steps 2-4, waiting for its mapping searches."""

    tiling: StackTiling
    tiles: list[_TilePlan]


def _searches(
    plans: list[_StackPlan],
) -> Iterator[tuple[LayerSpec, Mapping[str, int], str]]:
    """Every layer-tile search problem of ``plans``, in plan order, as
    ``(scaled layer, tops, cache key)``."""
    for plan in plans:
        for tile_plan in plan.tiles:
            layer_tops = tile_plan.plan.layer_tops
            for idx, (_, scaled, key) in zip(tile_plan.computed, tile_plan.problems):
                yield scaled, layer_tops[idx].tops, key


class DepthFirstEngine:
    """Evaluates depth-first schedules analytically (Fig. 5)."""

    def __init__(
        self,
        accel: Accelerator,
        search_config: SearchConfig | None = None,
        policy: MemLevelPolicy | None = None,
        cache: MappingCache | None = None,
        axis_memo: AxisMemo | None = None,
    ) -> None:
        self.accel = accel
        self.mapper = MappingSearchEngine(search_config, cache=cache)
        self.policy = policy or MemLevelPolicy()
        #: Back-calculation memo, shareable by engines on any
        #: accelerator: back-calculation never reads the accelerator.
        self.axis_memo = axis_memo if axis_memo is not None else AxisMemo()
        #: Each layer-tile search problem's scaled layer and cache key.
        self.problems = ProblemTable(accel, self.mapper)

    @property
    def cache(self) -> MappingCache:
        """The mapping cache this engine reads and fills (shareable)."""
        return self.mapper.cache

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def plan(
        self,
        workload: WorkloadGraph,
        strategy: DFStrategy,
        stack: Stack | None = None,
        input_locations: dict[str, int] | None = None,
    ) -> list[_StackPlan]:
        """Steps 1-4 of an evaluation: every stack of ``workload`` under
        ``strategy``, or only ``stack`` (:meth:`evaluate_stack`'s
        arguments), with its layer-tile search problems."""
        if stack is None:
            stacks = partition_stacks(
                workload,
                self.accel,
                explicit=None if strategy.one_layer_per_stack else strategy.stacks,
                per_layer=strategy.one_layer_per_stack,
                fuse_depth=strategy.fuse_depth,
            )
        else:
            stacks = [stack]
        locations = self._boundary_locations(workload, strategy, stacks)
        if input_locations:
            locations.update(input_locations)
        return [
            self._plan_stack(workload, strategy, each, locations) for each in stacks
        ]

    def solve(self, plans: Sequence[list[_StackPlan]]) -> None:
        """Score the cache misses of every planned evaluation in
        ``plans`` in grouped kernel calls, and hold the winners for the
        searches of :meth:`evaluate` (or :meth:`evaluate_stack`) given
        each plan, until ``mapper.drop_solved()``
        (:meth:`~repro.mapping.loma.MappingSearchEngine.solve`)."""
        self.mapper.solve(
            self.accel,
            ((layer, tops) for plan in plans for layer, tops, _ in _searches(plan)),
            (key for plan in plans for *_, key in _searches(plan)),
        )

    def evaluate(
        self,
        workload: WorkloadGraph,
        strategy: DFStrategy,
        plan: list[_StackPlan] | None = None,
    ) -> ScheduleResult:
        """Evaluate ``workload`` under ``strategy``; returns accumulated
        energy/latency plus the full per-stack, per-tile-type detail.

        ``plan`` is the evaluation's :meth:`plan` when a batch planned it
        and :meth:`solve` scored its problems; without one, the
        evaluation plans itself and scores its own problems."""
        solved = plan is not None
        if not solved:
            plan = self.plan(workload, strategy)
        stack_results = self._assemble(plan, solved)
        total = CostResult()
        for sr in stack_results:
            total.add(sr.total)
        return ScheduleResult(
            workload_name=workload.name,
            accelerator_name=self.accel.name,
            strategy_label=strategy.describe(),
            stacks=stack_results,
            total=total,
        )

    def evaluate_stack(
        self,
        workload: WorkloadGraph,
        strategy: DFStrategy,
        stack: Stack,
        input_locations: dict[str, int] | None = None,
        plan: list[_StackPlan] | None = None,
    ) -> StackResult:
        """Evaluate a single stack (used by the per-stack combination
        search of case study 2).  ``input_locations`` maps external
        producer layer names to I-hierarchy indices (default: computed
        from the boundary policy); ``plan`` as for :meth:`evaluate`."""
        solved = plan is not None
        if not solved:
            plan = self.plan(workload, strategy, stack, input_locations)
        return self._assemble(plan, solved)[0]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _assemble(self, plans: list[_StackPlan], solved: bool) -> list[StackResult]:
        """Steps 5-6 for planned stacks: search every layer-tile problem
        in plan order, after scoring their misses unless a batch's
        :meth:`solve` has (:meth:`~repro.mapping.loma.MappingSearchEngine.search_all`
        or ``search_each``), then accumulate the stack results."""
        searches = list(_searches(plans))
        search = self.mapper.search_each if solved else self.mapper.search_all
        found = iter(
            search(
                self.accel,
                [(layer, tops) for layer, tops, _ in searches],
                [key for *_, key in searches],
            )
        )
        return [self._assemble_stack(plan, found) for plan in plans]

    def _boundary_locations(
        self,
        workload: WorkloadGraph,
        strategy: DFStrategy,
        stacks: list[Stack],
    ) -> dict[str, int]:
        """I-hierarchy index of every feature map crossing a stack
        boundary, keyed by producing layer name ('' = network input).

        A boundary feature map may stay on-chip only if it fits its level
        together with the input feature maps the producing stack is still
        reading from the same memory (input and output coexist while the
        stack runs, the paper's LBL 'if fit' condition of Fig. 1(b)).
        """
        i_hier = self.accel.hierarchy("I")
        dram_idx = len(i_hier) - 1
        locations: dict[str, int] = {"": dram_idx}
        for stack in stacks:
            sink = stack.sink
            if strategy.stack_boundary is StackBoundary.DRAM:
                locations[sink.name] = dram_idx
                continue
            input_fms: list[tuple[int, float]] = []  # (location idx, bytes)
            for source in stack.workload.sources():
                producers = [
                    p
                    for p in workload.predecessors(source.name)
                    if p.name not in stack.workload
                ]
                in_bytes = float(source.input_bytes)
                if producers:
                    for p in producers:
                        input_fms.append(
                            (locations.get(p.name, dram_idx), float(p.output_bytes))
                        )
                else:
                    input_fms.append((locations[""], in_bytes))
            locations[sink.name] = self._io_location(sink, input_fms)
        return locations

    def _io_location(
        self, sink: LayerSpec, input_fms: list[tuple[int, float]]
    ) -> int:
        """Lowest I-hierarchy level fitting ``sink``'s full output next to
        the concurrently-live input feature maps."""
        i_hier = self.accel.hierarchy("I")
        for idx, level in enumerate(i_hier):
            if level.instance.per_pe:
                continue
            if level.instance.is_dram:
                return idx
            need = float(sink.output_bytes)
            for in_idx, in_bytes in input_fms:
                if (
                    in_idx < len(i_hier)
                    and i_hier[in_idx].instance.uid == level.instance.uid
                ):
                    need += in_bytes
            if need <= level.instance.size_bytes:
                return idx
        return len(i_hier) - 1

    def _o_index_for(self, i_index: int) -> int:
        """Translate an I-hierarchy index into the O hierarchy (they may
        differ in depth when I and O have different private levels)."""
        target = self.accel.hierarchy("I")[i_index].instance.uid
        o_hier = self.accel.hierarchy("O")
        for idx, level in enumerate(o_hier):
            if level.instance.uid == target:
                return idx
        return len(o_hier) - 1

    def _plan_stack(
        self,
        workload: WorkloadGraph,
        strategy: DFStrategy,
        stack: Stack,
        locations: dict[str, int],
    ) -> _StackPlan:
        """Steps 2-4 for one stack: tiling, memory plans, data copies and
        the layer-tile search problems."""
        tiling = backcalculate(
            stack, strategy.mode, strategy.tile_x, strategy.tile_y, self.axis_memo
        )
        out_dest_i = locations[stack.sink.name]
        out_dest_o = self._o_index_for(out_dest_i)

        # Where each stack-source layer's input feature map lives.
        ext_location: dict[str, int] = {}
        for source in stack.workload.sources():
            producers = [
                p
                for p in workload.predecessors(source.name)
                if p.name not in stack.workload
            ]
            if producers:
                ext_location[source.name] = max(
                    locations.get(p.name, self.accel.top_level_index("I"))
                    for p in producers
                )
            else:
                ext_location[source.name] = locations[""]

        # Stack inputs are gathered into the fit-based input top level by
        # data copy actions: in cached modes only the fresh part of the
        # window is fetched from the previous stack's location; in
        # recompute modes the whole window is re-fetched every tile, which
        # is exactly the large first-layer copy traffic of Fig. 14(c).
        tiles = []
        for tile in tiling.tile_types:
            plan = plan_tile_memory(
                self.accel,
                tile,
                stack.weight_bytes,
                input_source={},
                output_dest_idx=out_dest_o,
                policy=self.policy,
            )
            tiles.append(self._plan_tile(stack, tile, plan, ext_location))
        return _StackPlan(tiling=tiling, tiles=tiles)

    def _plan_tile(
        self,
        stack: Stack,
        tile: TileType,
        plan: TileMemoryPlan,
        ext_location: dict[str, int],
    ) -> _TilePlan:
        """Step 4 for one tile type, and its layer-tile search problems.

        Each computed layer-tile's data copies are one ordered list of
        ``(elems, src, dst)`` moves at the layer's ``act_bits``, costed as
        one :func:`copy_cost` bundle.  The order is fixed, because
        ``copy_cost`` adds energies in it and its traffic order is part of
        cache and golden bytes:

        1. per producer, in ``predecessors`` order: its fresh output from
           its O top, then its H- and V-cached overlap, into ``dest`` (the
           layer's I top);
        2. for a stack source: the stack input's fresh part from where it
           lives, then its H- and V-cached parts;
        3. the H and V spills of fresh overlap, from the layer's O top;
        4. for a stack source: the stack input's H and V spills, from
           ``dest``.

        A move into or out of an absent cache level is never built (nor
        its elements read); zero-element moves are left to ``copy_cost``.
        """
        i_hier = self.accel.hierarchy("I")
        o_hier = self.accel.hierarchy("O")
        cache_h = plan.cache_level(self.accel, "h")
        cache_v = plan.cache_level(self.accel, "v")
        # Each layer's geometry and O top, read by its consumers' gathers.
        outputs = {
            geom.layer.name: (geom, o_hier[layer_tops.tops["O"]])
            for geom, layer_tops in zip(tile.geometry, plan.layer_tops)
        }

        copy_total = CostResult()
        computed, problems = [], []
        for idx, geom in enumerate(tile.geometry):
            if not geom.is_computed:
                continue
            layer = geom.layer
            tops = plan.layer_tops[idx].tops
            dest = i_hier[tops["I"]]
            moves = []
            for producer in stack.workload.predecessors(layer.name):
                pgeom, p_top_o = outputs[producer.name]
                moves.append((pgeom.output_elems, p_top_o, dest))
                if cache_h is not None:
                    moves.append((pgeom.used_h_elems, cache_h, dest))
                if cache_v is not None:
                    moves.append((pgeom.used_v_elems, cache_v, dest))
            if geom.is_source:
                src = i_hier[ext_location[layer.name]]
                moves.append((geom.input_fresh_elems, src, dest))
                if cache_h is not None:
                    moves.append((geom.input_used_h_elems, cache_h, dest))
                if cache_v is not None:
                    moves.append((geom.input_used_v_elems, cache_v, dest))
            top_o = o_hier[tops["O"]]
            if cache_h is not None:
                moves.append((geom.keep_h_elems, top_o, cache_h))
            if cache_v is not None:
                moves.append((geom.keep_v_elems, top_o, cache_v))
            if geom.is_source:
                if cache_h is not None:
                    moves.append((geom.input_keep_h_elems, dest, cache_h))
                if cache_v is not None:
                    moves.append((geom.input_keep_v_elems, dest, cache_v))
            bits = layer.act_bits
            copy_total.add(
                copy_cost([DataCopyAction(n, bits, s, d) for n, s, d in moves])
            )
            computed.append(idx)
            problems.append(self.problems.entry(geom, tops))
        return _TilePlan(tile, plan, copy_total, computed, problems)

    def _assemble_stack(self, stack_plan: _StackPlan, found) -> StackResult:
        """Step 6 for one stack: its tile types' layer costs, taken in
        plan order from ``found``, and copy costs, accumulated."""
        tile_results: list[TileTypeResult] = []
        total = CostResult()
        for tile_plan in stack_plan.tiles:
            tile = tile_plan.tile
            result = TileTypeResult(tile=tile, plan=tile_plan.plan)
            result.layer_costs = [CostResult() for _ in tile.geometry]
            for idx in tile_plan.computed:
                result.layer_costs[idx] = next(found).cost
            result.copy_cost = tile_plan.copy_cost
            tile_results.append(result)
            total.add(result.cost, scale=tile.count)
        return StackResult(
            tiling=stack_plan.tiling, tile_results=tile_results, total=total
        )
