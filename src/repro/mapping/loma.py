"""Temporal mapping search engine (LOMA [29] substitute).

LOMA enumerates permutations of the layer's loop prime factors (LPFs) and
allocates memory levels per ordering (see :mod:`repro.mapping.allocation`).
This module reimplements that search with two pragmatic additions:

* a *budget* capping the number of evaluated orderings — when the multiset
  has more distinct permutations than the budget, a deterministic sample is
  evaluated instead (the artifact's ``loma_lpf_limit`` speed/quality knob
  plays the same role in the original);
* a set of canonical dataflow orderings (weight-, output-, input-
  stationary flavors) always evaluated in addition, so a tight budget can
  never miss the classic dataflows entirely.

Results are memoized: DeFiNES evaluates identical layer-tile shapes many
times across tile types and sweep points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Mapping

from .. import obs
from ..hardware.accelerator import Accelerator
from ..workloads.layer import LayerSpec
from .allocation import AllocationError, allocate
from .batch import BatchFallback, evaluate_candidates
from .cost import CostResult, Objective, resolve_objective
from .loops import Loop, lpf_decompose, multiset_permutations
from .temporal import TemporalMapping, temporal_sizes
from .zigzag import evaluate_mapping

#: Valid values of :attr:`SearchConfig.engine`.
ENGINES = ("batch", "scalar")

if TYPE_CHECKING:  # imported lazily at runtime (cache.py imports this module)
    from .cache import MappingCache


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the mapping search.

    ``lpf_limit`` matches the paper artifact's ``loma_lpf_limit``
    (8 for paper-quality results, 6 for the fast mode); ``budget`` caps
    evaluated orderings per layer-tile.

    ``engine`` selects how the candidate orderings are scored:
    ``"batch"`` (default) evaluates the whole candidate list in numpy
    array operations, ``"scalar"`` runs the pure-python reference loop.
    Both produce bit-identical :class:`SearchResult`s — the batch path
    mirrors every scalar float operation and falls back to scalar
    whenever exactness cannot be guaranteed — so the knob is purely a
    speed/dependency trade-off and deliberately *not* part of
    :meth:`cache_token`: caches written by one engine are valid for the
    other.
    """

    lpf_limit: int = 6
    budget: int = 400
    objective: str = "energy"
    engine: str = "batch"

    #: Fields that cannot affect results and are therefore excluded
    #: from :meth:`cache_token` (checked by ``repro check`` CACHE001):
    #: the engines are bit-identical by contract, so ``engine`` is a
    #: pure speed/dependency knob.
    NON_SEMANTIC = frozenset({"engine"})

    def __post_init__(self) -> None:
        if self.lpf_limit < 1:
            raise ValueError(f"lpf_limit must be >= 1, got {self.lpf_limit}")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown search engine {self.engine!r}; "
                f"choose from: {', '.join(ENGINES)}"
            )

    def cache_token(self) -> Hashable:
        # ``engine`` intentionally omitted: results are bit-identical.
        return (self.lpf_limit, self.budget, self.objective)


@dataclass
class SearchResult:
    """Best mapping found and its cost."""

    mapping: TemporalMapping
    cost: CostResult
    evaluated: int = 0


#: Canonical dim orders, innermost first (reduction-inner, output-
#: stationary, weight-stationary, input-stationary flavors).
_CANONICAL_DIM_ORDERS = (
    ("FX", "FY", "C", "K", "OX", "OY"),
    ("FX", "FY", "C", "OX", "OY", "K"),
    ("C", "FX", "FY", "K", "OX", "OY"),
    ("K", "OX", "OY", "FX", "FY", "C"),
    ("OX", "OY", "K", "C", "FX", "FY"),
    ("K", "C", "FX", "FY", "OX", "OY"),
    ("OX", "FX", "OY", "FY", "C", "K"),
)


def _canonical_orderings(loops: list[Loop]) -> list[tuple[Loop, ...]]:
    """Expand canonical dim orders over the LPF multiset."""
    by_dim: dict[str, list[Loop]] = {}
    for loop in loops:
        by_dim.setdefault(loop[0], []).append(loop)
    for dim_loops in by_dim.values():
        dim_loops.sort(key=lambda l: l[1])
    orderings = []
    for dim_order in _CANONICAL_DIM_ORDERS:
        ordering: list[Loop] = []
        for dim in dim_order:
            ordering.extend(by_dim.get(dim, ()))
        orderings.append(tuple(ordering))
    return orderings


class MappingSearchEngine:
    """Memoized LOMA-style mapping search.

    The memo store is a :class:`~repro.mapping.cache.MappingCache`; pass
    one to share results between engines (or across runs, when the cache
    is disk-backed).  By default each engine gets a private in-memory
    cache, matching the original behaviour.
    """

    def __init__(
        self,
        config: SearchConfig | None = None,
        cache: "MappingCache | None" = None,
    ) -> None:
        self.config = config or SearchConfig()
        if cache is None:
            from .cache import MappingCache

            cache = MappingCache()
        self.cache = cache

    # ------------------------------------------------------------------
    def _layer_key(self, layer: LayerSpec) -> Hashable:
        return (
            layer.op_type.value,
            layer.k,
            layer.c,
            layer.ox,
            layer.oy,
            layer.fx,
            layer.fy,
            layer.sx,
            layer.sy,
            layer.dx,
            layer.dy,
            layer.act_bits,
            layer.w_bits,
            layer.psum_bits,
            layer.ix_clip,
            layer.iy_clip,
        )

    def cache_key(
        self, layer: LayerSpec, accel: Accelerator, tops: Mapping[str, int]
    ) -> Hashable:
        """Process- and run-stable identity of one search problem.

        The accelerator contributes a structural fingerprint (not its
        object id), so caches can be shared between worker processes and
        persisted across runs while still distinguishing same-named
        architectures that differ structurally.
        """
        return (
            self._layer_key(layer),
            accel.fingerprint(),
            tuple(sorted(tops.items())),
            self.config.cache_token(),
        )

    @property
    def cache_size(self) -> int:
        return len(self.cache)

    def clear_cache(self) -> None:
        self.cache.clear()

    # ------------------------------------------------------------------
    def search(
        self,
        layer: LayerSpec,
        accel: Accelerator,
        tops: Mapping[str, int] | None = None,
        objective: str | Objective | None = None,
    ) -> SearchResult:
        """Find the best temporal mapping for one layer(-tile).

        ``tops`` truncates the per-operand hierarchies (DeFiNES step 3);
        ``None`` means every operand tops out at DRAM (plain single-layer
        operation).
        """
        if tops is None:
            tops = {op: accel.top_level_index(op) for op in ("W", "I", "O")}
        cacheable = objective is None
        key = self.cache_key(layer, accel, tops) if cacheable else None
        if key is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return hit

        goal = objective or self.config.objective
        loops = lpf_decompose(temporal_sizes(layer, accel), self.config.lpf_limit)

        candidates: list[tuple[Loop, ...]] = _canonical_orderings(loops)
        seen = set(candidates)
        budget = max(self.config.budget - len(candidates), 0)
        for ordering in itertools.islice(multiset_permutations(loops), budget):
            if ordering not in seen:
                candidates.append(ordering)
                seen.add(ordering)

        best: SearchResult | None = None
        engine = self.config.engine
        fell_back = False
        if engine == "batch":
            try:
                best = self._search_batch(layer, accel, tops, candidates, goal)
            except BatchFallback:
                engine = "scalar"
                fell_back = True
        if engine == "scalar":
            best = self._search_scalar(layer, accel, tops, candidates, goal)
        if obs.enabled:
            # Telemetry only — counters never feed back into the search.
            registry = obs.metrics()
            registry.counter("loma_searches_total").inc()
            registry.counter("loma_engine_dispatch_total", engine=engine).inc()
            if fell_back:
                registry.counter("loma_batch_fallbacks_total").inc()
            if best is not None:
                registry.counter("loma_orderings_evaluated_total").inc(
                    best.evaluated
                )
        if best is None:
            raise AllocationError(
                f"no feasible mapping for {layer.name} on {accel.name} "
                f"with tops {dict(tops)}"
            )
        if key is not None:
            self.cache.put(key, best)
        return best

    def _search_batch(
        self,
        layer: LayerSpec,
        accel: Accelerator,
        tops: Mapping[str, int],
        candidates: list[tuple[Loop, ...]],
        objective: str | Objective,
    ) -> SearchResult | None:
        """Vectorized candidate scoring (see :mod:`repro.mapping.batch`)."""
        evaluation = evaluate_candidates(layer, accel, tops, candidates)
        winner = evaluation.best_index(objective)
        if winner is None:
            return None
        return SearchResult(
            mapping=evaluation.mapping(winner),
            cost=evaluation.cost_result(winner),
            evaluated=evaluation.evaluated,
        )

    def _search_scalar(
        self,
        layer: LayerSpec,
        accel: Accelerator,
        tops: Mapping[str, int],
        candidates: list[tuple[Loop, ...]],
        objective: str | Objective,
    ) -> SearchResult | None:
        """Reference one-ordering-at-a-time scoring loop."""
        score = resolve_objective(objective)
        best: SearchResult | None = None
        evaluated = 0
        for ordering in candidates:
            try:
                mapping = allocate(layer, accel, tops, ordering)
            except AllocationError:
                continue
            cost = evaluate_mapping(layer, accel, tops, mapping)
            evaluated += 1
            if best is None or score(cost) < score(best.cost):
                best = SearchResult(mapping=mapping, cost=cost)
        if best is not None:
            best.evaluated = evaluated
        return best

    def evaluate_fixed(
        self,
        layer: LayerSpec,
        accel: Accelerator,
        ordering: list[Loop],
        tops: Mapping[str, int] | None = None,
    ) -> SearchResult:
        """Evaluate a user-fixed loop ordering (used by the DepFiN
        validation, where the paper fixes the temporal mapping to match
        the chip)."""
        if tops is None:
            tops = {op: accel.top_level_index(op) for op in ("W", "I", "O")}
        mapping = allocate(layer, accel, tops, ordering)
        cost = evaluate_mapping(layer, accel, tops, mapping)
        return SearchResult(mapping=mapping, cost=cost, evaluated=1)
