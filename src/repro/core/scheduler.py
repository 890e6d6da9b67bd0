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

An evaluation runs in three phases.  *Plan* runs steps 1-4 for every
stack and lists each computed layer-tile's ``(scaled layer, tops)``
search problem.  *Solve* hands that list to
:meth:`~repro.mapping.loma.MappingSearchEngine.solve`, which scores the
cache misses in grouped kernel calls.  *Assemble* runs step 5's
searches in plan order (each miss takes its solved winner) and step 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.accelerator import Accelerator
from ..hardware.memory import MemoryLevel
from ..mapping.allocation import AllocationError
from ..mapping.cache import MappingCache
from ..mapping.cost import CostResult
from ..mapping.loma import MappingSearchEngine, SearchConfig, raised_tops
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


@dataclass
class _TilePlan:
    """One tile type after steps 3-4: its memory plan, data-copy cost
    and, per computed layer, ``(geometry index, scaled layer, tops)``."""

    tile: TileType
    plan: TileMemoryPlan
    copy_cost: CostResult
    searches: list[tuple[int, LayerSpec, dict[str, int]]]


@dataclass
class _StackPlan:
    """One stack after steps 2-4, waiting for its mapping searches."""

    tiling: StackTiling
    tiles: list[_TilePlan]


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

    @property
    def cache(self) -> MappingCache:
        """The mapping cache this engine reads and fills (shareable)."""
        return self.mapper.cache

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(
        self, workload: WorkloadGraph, strategy: DFStrategy
    ) -> ScheduleResult:
        """Evaluate ``workload`` under ``strategy``; returns accumulated
        energy/latency plus the full per-stack, per-tile-type detail."""
        stacks = partition_stacks(
            workload,
            self.accel,
            explicit=None if strategy.one_layer_per_stack else strategy.stacks,
            per_layer=strategy.one_layer_per_stack,
            fuse_depth=strategy.fuse_depth,
        )
        locations = self._boundary_locations(workload, strategy, stacks)
        stack_results = self._solve_and_assemble(
            [
                self._plan_stack(workload, strategy, stack, locations)
                for stack in stacks
            ]
        )
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
    ) -> StackResult:
        """Evaluate a single stack (used by the per-stack combination
        search of case study 2).  ``input_locations`` maps external
        producer layer names to I-hierarchy indices (default: computed
        from the boundary policy)."""
        locations = self._boundary_locations(workload, strategy, [stack])
        if input_locations:
            locations.update(input_locations)
        plan = self._plan_stack(workload, strategy, stack, locations)
        return self._solve_and_assemble([plan])[0]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _solve_and_assemble(self, plans: list[_StackPlan]) -> list[StackResult]:
        """Steps 5-6 for planned stacks: score every layer-tile's cache
        miss in grouped calls, then search each layer-tile in plan order
        (taking the held winners) and accumulate the results."""
        problems = [
            (layer, tops)
            for plan in plans
            for tile_plan in plan.tiles
            for _, layer, tops in tile_plan.searches
        ]
        keys = iter(self.mapper.solve(self.accel, problems))
        try:
            return [self._assemble_stack(plan, keys) for plan in plans]
        finally:
            self.mapper.forget_solved()

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
        wl = stack.workload
        geom_by_name = {g.layer.name: g for g in tile.geometry}
        tops_by_name = {
            g.layer.name: plan.layer_tops[i] for i, g in enumerate(tile.geometry)
        }
        i_hier = self.accel.hierarchy("I")
        o_hier = self.accel.hierarchy("O")
        cache_h = plan.cache_level(self.accel, "h")
        cache_v = plan.cache_level(self.accel, "v")

        copy_total = CostResult()
        searches = []
        for idx, geom in enumerate(tile.geometry):
            if not geom.is_computed:
                continue
            tops = plan.layer_tops[idx].tops
            dest = i_hier[tops["I"]]
            actions = self._gather_actions(
                wl, geom, geom_by_name, tops_by_name, dest, o_hier,
                cache_h, cache_v, ext_location, i_hier,
            )
            actions.extend(
                self._spill_actions(geom, o_hier[tops["O"]], cache_h, cache_v, dest)
            )
            copy_total.add(copy_cost(actions))
            searches.append((idx, geom.scaled_layer(), tops))
        return _TilePlan(tile=tile, plan=plan, copy_cost=copy_total, searches=searches)

    def _assemble_stack(self, stack_plan: _StackPlan, keys) -> StackResult:
        tile_results: list[TileTypeResult] = []
        total = CostResult()
        for tile_plan in stack_plan.tiles:
            tile = tile_plan.tile
            result = TileTypeResult(tile=tile, plan=tile_plan.plan)
            result.layer_costs = [CostResult() for _ in tile.geometry]
            for idx, layer, tops in tile_plan.searches:
                result.layer_costs[idx] = self._search_with_fallback(
                    layer, tops, next(keys)
                )
            result.copy_cost = tile_plan.copy_cost
            tile_results.append(result)
            total.add(result.cost, scale=tile.count)
        return StackResult(
            tiling=stack_plan.tiling, tile_results=tile_results, total=total
        )

    def _search_with_fallback(
        self, layer: LayerSpec, tops: dict, key: str | None = None
    ) -> CostResult:
        """Run the mapping search, progressively raising O then I to DRAM
        when the planned tops turn out jointly infeasible (see
        :func:`~repro.mapping.loma.raised_tops`).  ``key`` is the
        planned tops' cache key when the caller holds it."""
        try:
            return self.mapper.search(layer, self.accel, tops=tops, key=key).cost
        except AllocationError as exc:
            last_error = exc
        for attempt in raised_tops(self.accel, tops):
            try:
                return self.mapper.search(layer, self.accel, tops=attempt).cost
            except AllocationError as exc:
                last_error = exc
        raise AllocationError(
            f"{layer.name}: no feasible mapping even with DRAM tops"
        ) from last_error

    def _gather_actions(
        self,
        wl: WorkloadGraph,
        geom: LayerTileGeometry,
        geom_by_name: dict[str, LayerTileGeometry],
        tops_by_name,
        dest: MemoryLevel,
        o_hier,
        cache_h: MemoryLevel | None,
        cache_v: MemoryLevel | None,
        ext_location: dict[str, int],
        i_hier,
    ) -> list[DataCopyAction]:
        """Step 4: collect this layer-tile's input pieces at ``dest``."""
        layer = geom.layer
        actions: list[DataCopyAction] = []
        bits = layer.act_bits

        for producer in wl.predecessors(layer.name):
            pgeom = geom_by_name[producer.name]
            p_top_o = o_hier[tops_by_name[producer.name].tops["O"]]
            actions.append(
                DataCopyAction(
                    label=f"{layer.name}:fresh<-{producer.name}",
                    elems=pgeom.output_elems,
                    bits=bits,
                    src=p_top_o,
                    dst=dest,
                )
            )
            if cache_h is not None and pgeom.used_h_elems:
                actions.append(
                    DataCopyAction(
                        label=f"{layer.name}:hcache<-{producer.name}",
                        elems=pgeom.used_h_elems,
                        bits=bits,
                        src=cache_h,
                        dst=dest,
                    )
                )
            if cache_v is not None and pgeom.used_v_elems:
                actions.append(
                    DataCopyAction(
                        label=f"{layer.name}:vcache<-{producer.name}",
                        elems=pgeom.used_v_elems,
                        bits=bits,
                        src=cache_v,
                        dst=dest,
                    )
                )

        if geom.is_source:
            src_level = i_hier[ext_location[layer.name]]
            if geom.input_fresh_elems:
                actions.append(
                    DataCopyAction(
                        label=f"{layer.name}:fresh<-stack-input",
                        elems=geom.input_fresh_elems,
                        bits=bits,
                        src=src_level,
                        dst=dest,
                    )
                )
            if cache_h is not None and geom.input_used_h_elems:
                actions.append(
                    DataCopyAction(
                        label=f"{layer.name}:hcache<-stack-input",
                        elems=geom.input_used_h_elems,
                        bits=bits,
                        src=cache_h,
                        dst=dest,
                    )
                )
            if cache_v is not None and geom.input_used_v_elems:
                actions.append(
                    DataCopyAction(
                        label=f"{layer.name}:vcache<-stack-input",
                        elems=geom.input_used_v_elems,
                        bits=bits,
                        src=cache_v,
                        dst=dest,
                    )
                )
        return actions

    def _spill_actions(
        self,
        geom: LayerTileGeometry,
        top_o: MemoryLevel,
        cache_h: MemoryLevel | None,
        cache_v: MemoryLevel | None,
        dest_i: MemoryLevel,
    ) -> list[DataCopyAction]:
        """Step 4 (outbound): retain freshly computed overlap data in the
        cache levels, and retain fresh stack-input halo likewise."""
        layer = geom.layer
        actions: list[DataCopyAction] = []
        if cache_h is not None and geom.keep_h_elems:
            actions.append(
                DataCopyAction(
                    label=f"{layer.name}:spill-h",
                    elems=geom.keep_h_elems,
                    bits=layer.act_bits,
                    src=top_o,
                    dst=cache_h,
                )
            )
        if cache_v is not None and geom.keep_v_elems:
            actions.append(
                DataCopyAction(
                    label=f"{layer.name}:spill-v",
                    elems=geom.keep_v_elems,
                    bits=layer.act_bits,
                    src=top_o,
                    dst=cache_v,
                )
            )
        if geom.is_source:
            if cache_h is not None and geom.input_keep_h_elems:
                actions.append(
                    DataCopyAction(
                        label=f"{layer.name}:spill-input-h",
                        elems=geom.input_keep_h_elems,
                        bits=layer.act_bits,
                        src=dest_i,
                        dst=cache_h,
                    )
                )
            if cache_v is not None and geom.input_keep_v_elems:
                actions.append(
                    DataCopyAction(
                        label=f"{layer.name}:spill-input-v",
                        elems=geom.input_keep_v_elems,
                        bits=layer.act_bits,
                        src=dest_i,
                        dst=cache_v,
                    )
                )
        return actions

