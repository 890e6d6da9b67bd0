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

Candidates are integer rows over a problem's sorted distinct loops
(:class:`~repro.mapping.batch.CandidateRows`).  They depend only on the
loops' multiplicity pattern, the canonical rows and the budget, so each
such triple has one memoized :class:`~repro.mapping.batch.RowSet`, which
keeps the prefix index the batch kernel builds for it; the permutation
rows are memoized per pattern and shared by its row sets.
:meth:`~MappingSearchEngine.solve` scores many problems' cache misses in
grouped kernel calls ahead of their searches, and
:meth:`~MappingSearchEngine.search_all` runs both for a depth-first
evaluation (DESIGN.md §2.2).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

from .. import obs
from ..hardware.accelerator import Accelerator
from ..workloads.layer import LayerSpec
from .allocation import AllocationError, active_operands, allocate
from .batch import BatchFallback, CandidateRows, RowSet, evaluate_candidates
from .cost import CostResult, Objective, resolve_objective
from .loops import Loop, lpf_decompose, multiset_permutations
from .temporal import TemporalMapping, temporal_sizes
from .zigzag import evaluate_mapping

#: Valid values of :attr:`SearchConfig.engine`.
ENGINES = ("batch", "scalar")

#: Known-infeasible problems each engine keeps (oldest out).  The
#: genetic scenario DSE meets 12 distinct ones.
INFEASIBLE_BOUND = 1024

#: Most candidate rows one grouped scoring call takes (a problem with
#: more rows is scored alone).  The cap bounds the kernel's per-row
#: temporaries, its ``(n+1, R)`` position tables and ``(R,)`` lines.  A
#: cap of 2,048 rows (471 calls on a cold zoo sweep, against 700) won
#: 10 of 10 alternating pairs there but only 8 of 10 on the service
#: sweep, and raised the median peak memory by 0.5 MB on both
#: (DESIGN.md §2.2).
GROUP_ROWS = 1024

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
    speed trade-off and deliberately *not* part of :meth:`cache_token`:
    caches written by one engine are valid for the other.
    """

    lpf_limit: int = 6
    budget: int = 400
    objective: str = "energy"
    engine: str = "batch"

    #: Fields that cannot affect results and are therefore excluded
    #: from :meth:`cache_token` (checked by ``repro check`` CACHE001):
    #: the engines are bit-identical by contract, so ``engine`` is a
    #: pure speed knob.
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


@functools.lru_cache(maxsize=256)
def _permutation_rows(pattern: tuple[int, ...], limit: int) -> tuple:
    """The first ``limit`` lexicographic permutations of the multiset
    holding symbol ``s`` ``pattern[s]`` times.  Every loop multiset with
    this multiplicity pattern enumerates in this order, so one memo
    entry serves all of them, and the row sets of a pattern share its
    row tuples."""
    symbols = [s for s, times in enumerate(pattern) for _ in range(times)]
    return tuple(itertools.islice(multiset_permutations(symbols), limit))


@functools.lru_cache(maxsize=256)
def _row_set(
    pattern: tuple[int, ...], canonical: tuple[tuple[int, ...], ...], budget: int
) -> RowSet:
    """The candidate rows of every problem with this multiplicity
    pattern and these canonical rows: the canonical dataflows, then the
    first lexicographic permutations up to ``budget`` rows, skipping the
    canonical ones.  The rows depend on nothing else, so one entry (and
    its prefix index, once the kernel builds it) serves all of them."""
    seen = set(canonical)
    permutations = _permutation_rows(pattern, max(budget - len(canonical), 0))
    return RowSet(canonical + tuple(row for row in permutations if row not in seen))


#: ``json.dumps(key, separators=(",", ":"))`` without building an
#: encoder per call.
_KEY_ENCODER = json.JSONEncoder(separators=(",", ":"))


# A cold zoo sweep looks up 1,551 distinct temporal loop sizes and the
# genetic scenario DSE 2,053, so a bound of 1,024 recomputed 17 and 145
# decompositions after eviction; this bound holds either run's with room
# (about 1.3 KB an entry).
@functools.lru_cache(maxsize=4096)
def _loop_rows(sizes: tuple, lpf_limit: int) -> tuple:
    """The LPF decomposition of temporal loop ``sizes`` (``(dim, size)``
    pairs) as ``(table, pattern, canonical)``: the sorted distinct loops,
    each one's multiplicity, and the canonical dataflow orderings as
    rows over the table (repeats kept: they are scored as candidates)."""
    loops = lpf_decompose(dict(sizes), lpf_limit)
    table = tuple(sorted(set(loops)))
    index = {loop: symbol for symbol, loop in enumerate(table)}
    pattern = [0] * len(table)
    for loop in loops:
        pattern[index[loop]] += 1
    canonical = tuple(
        tuple(index[loop] for loop in ordering)
        for ordering in _canonical_orderings(loops)
    )
    return table, tuple(pattern), canonical


def normalize_key(key: Hashable) -> str:
    """Canonical string form of a structured cache key.

    Keys are built from primitives and nested tuples only; JSON encoding
    (tuples become arrays) gives a stable, process-independent identity.
    """
    if isinstance(key, str):
        return key
    return _KEY_ENCODER.encode(key)


def raised_tops(
    accel: Accelerator, tops: Mapping[str, int]
) -> list[dict[str, int]]:
    """The tops a depth-first layer-tile's search falls back to, in
    order, when its planned ``tops`` have no feasible mapping: O raised
    to DRAM, then I and O raised (a safety net for sharing corner cases
    the planner's per-layer reservation model cannot see)."""
    attempts = []
    o_top = accel.top_level_index("O")
    i_top = accel.top_level_index("I")
    if tops.get("O") != o_top:
        attempts.append({**tops, "O": o_top})
    if tops.get("I") != i_top:
        attempts.append({**tops, "I": i_top, "O": o_top})
    return attempts


def _chunks(members: list) -> list[list]:
    """Split a group's ``(key, (layer, table, rows))`` problems, in
    order, into runs of at most :data:`GROUP_ROWS` rows (a larger
    problem runs alone)."""
    chunks: list[list] = []
    size = 0
    for member in members:
        rows = len(member[1][2])
        if not chunks or size + rows > GROUP_ROWS:
            chunks.append([])
            size = 0
        chunks[-1].append(member)
        size += rows
    return chunks


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
        # Winners :meth:`solve` scored, by normalized key, until the
        # search that misses on the key takes its own (:meth:`drop_solved`
        # drops the rest).
        self._solved: dict[str, tuple[SearchResult | None, str, bool]] = {}
        # The scored outcome of every problem found to have no feasible
        # mapping (never cached), by normalized key, bounded: a repeated
        # search misses, raises and counts as before without scoring.
        self._infeasible: dict[str, tuple[None, str, bool]] = {}

    # ------------------------------------------------------------------
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
            layer.cache_token(),
            accel.fingerprint(),
            tuple(sorted(tops.items())),
            self.config.cache_token(),
        )

    # ------------------------------------------------------------------
    def search(
        self,
        layer: LayerSpec,
        accel: Accelerator,
        tops: Mapping[str, int] | None = None,
        objective: str | Objective | None = None,
        *,
        key: str | None = None,
    ) -> SearchResult:
        """Find the best temporal mapping for one layer(-tile).

        ``tops`` truncates the per-operand hierarchies (DeFiNES step 3);
        ``None`` means every operand tops out at DRAM (plain single-layer
        operation).  ``key`` is the problem's normalized cache key when
        the caller already holds it (:meth:`solve` returns them).  A
        cache miss that :meth:`solve` already scored takes the held
        winner, and one this engine found infeasible before takes that
        outcome, instead of scoring again; any other miss is scored
        alone.  A search given an ``objective`` is scored alone, past
        the cache and the held outcomes.
        """
        if tops is None:
            tops = {op: accel.top_level_index(op) for op in ("W", "I", "O")}
        if objective is not None:
            member = (layer, *self._candidate_rows(layer, accel))
            solved = self._score(accel, tops, [member], objective)[0]
        else:
            if key is None:
                key = normalize_key(self.cache_key(layer, accel, tops))
            hit = self.cache.get(key)
            if hit is not None:
                return hit
            solved = self._solved.pop(key, None) or self._infeasible.get(key)
            if solved is None:
                self._solve_grouped(accel, {key: (layer, tops)})
                solved = self._solved.pop(key)
        best, engine, fell_back = solved
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
        if objective is None:
            self.cache.put(key, best)
        return best

    def _candidate_rows(
        self, layer: LayerSpec, accel: Accelerator
    ) -> tuple[tuple[Loop, ...], RowSet]:
        """The problem's candidate orderings as integer rows over its
        sorted distinct loops: the canonical dataflows, then the first
        lexicographic permutations up to the budget (a memoized row
        set)."""
        sizes = tuple(temporal_sizes(layer, accel).items())
        table, pattern, canonical = _loop_rows(sizes, self.config.lpf_limit)
        return table, _row_set(pattern, canonical, self.config.budget)

    def _score(
        self,
        accel: Accelerator,
        tops: Mapping[str, int],
        members: list,
        objective: str | Objective,
    ) -> list[tuple[SearchResult | None, str, bool]]:
        """Score problems ``(layer, table, rows)`` that share a kernel
        signature, each to ``(winner, engine, fell_back)``: on the
        scalar reference under ``engine="scalar"``, otherwise in one
        kernel call that picks each one's winner, a problem the kernel
        cannot score exactly running on the scalar reference as it
        would alone.  The one place a search's engine is picked."""
        if self.config.engine == "scalar":
            return [
                (
                    self._scalar(layer, accel, tops, table, rows, objective),
                    "scalar",
                    False,
                )
                for layer, table, rows in members
            ]
        rows = CandidateRows.from_sets(
            [table for _, table, _ in members],
            [member_rows for *_, member_rows in members],
        )
        try:
            outcomes = evaluate_candidates(
                [layer for layer, _, _ in members], accel, tops, rows, objective
            )
        except BatchFallback as exc:
            outcomes = [exc] * len(members)
        return [
            (
                self._scalar(layer, accel, tops, table, member_rows, objective),
                "scalar",
                True,
            )
            if isinstance(outcome, BatchFallback)
            else (None if outcome is None else SearchResult(*outcome), "batch", False)
            for (layer, table, member_rows), outcome in zip(members, outcomes)
        ]

    def solve(
        self,
        accel: Accelerator,
        problems: Iterable[tuple[LayerSpec, Mapping[str, int]]],
        keys: Iterable[str] | None = None,
    ) -> "list[str] | Iterable[str]":
        """Score the cache misses among ``problems`` in grouped kernel
        calls and hold their winners for :meth:`search`.

        ``keys`` are the problems' normalized cache keys when the caller
        already holds them (the depth-first engine's problem table);
        they are built here otherwise.  Returns each problem's key, for
        ``search(..., key=...)`` (``keys`` itself when given: both are
        iterated once).  The distinct misses are grouped by (tops,
        active operands, loop count, whether ``K`` indexes ``I``) and
        each group is scored in calls of at most :data:`GROUP_ROWS`
        rows.  Problems this engine already found infeasible are left
        to :meth:`search`, which holds their outcome, and the raised
        tops a failed search tries next are scored by that search.

        Nothing touches the cache here: the membership test counts no
        hit or miss, and each winner is put by the :meth:`search` that
        takes it, so cache contents, order and statistics stay those of
        one-at-a-time searches.  A cache without a local membership
        test (a cache client) scores each miss at search time.
        """
        from .cache import MappingCache

        if keys is None:
            problems = list(problems)
            keys = [
                normalize_key(self.cache_key(layer, accel, tops))
                for layer, tops in problems
            ]
        self._solved.clear()
        if not isinstance(self.cache, MappingCache):
            return keys
        misses: dict[str, tuple[LayerSpec, Mapping[str, int]]] = {}
        for problem, key in zip(problems, keys):
            if not (key in misses or key in self._infeasible or key in self.cache):
                misses[key] = problem
        self._solve_grouped(accel, misses)
        return keys

    def search_all(
        self,
        accel: Accelerator,
        problems: Sequence[tuple[LayerSpec, Mapping[str, int]]],
        keys: list[str] | None = None,
    ) -> list[SearchResult]:
        """Search every ``(layer, tops)`` problem, in order, after one
        :meth:`solve` has scored their cache misses in grouped calls
        (``keys`` as for :meth:`solve`): :meth:`search_each`, then
        :meth:`drop_solved`, also when a search raises.
        """
        keys = self.solve(accel, problems, keys)
        try:
            return self.search_each(accel, problems, keys)
        finally:
            self.drop_solved()

    def search_each(
        self,
        accel: Accelerator,
        problems: Sequence[tuple[LayerSpec, Mapping[str, int]]],
        keys: Sequence[str | None],
    ) -> list[SearchResult]:
        """One :meth:`search` per ``(layer, tops)`` problem, in order,
        taking the winners an earlier :meth:`solve` holds.

        A problem whose tops have no feasible mapping is searched again
        at each of its :func:`raised_tops` in turn, and raises
        :class:`AllocationError` naming the layer when none is feasible.
        """
        return [
            self._search_raised(layer, accel, tops, key)
            for (layer, tops), key in zip(problems, keys)
        ]

    def drop_solved(self) -> None:
        """Drop the winners :meth:`solve` holds that no search took."""
        self._solved.clear()

    def _search_raised(
        self,
        layer: LayerSpec,
        accel: Accelerator,
        tops: Mapping[str, int],
        key: str | None,
    ) -> SearchResult:
        """:meth:`search` at ``tops``, then at each of its
        :func:`raised_tops` in turn while none is feasible."""
        attempts = None
        while True:
            try:
                return self.search(layer, accel, tops, key=key)
            except AllocationError as exc:
                # Raised inside the handler, which unbinds ``exc`` on the
                # way out: a local holding the error would pin this frame
                # (and its caller's) in a cycle through the traceback.
                if attempts is None:
                    attempts = iter(raised_tops(accel, tops))
                tops, key = next(attempts, None), None
                if tops is None:
                    raise AllocationError(
                        f"{layer.name}: no feasible mapping even with DRAM tops"
                    ) from exc

    def _solve_grouped(
        self,
        accel: Accelerator,
        misses: Mapping[str, tuple[LayerSpec, Mapping[str, int]]],
    ) -> None:
        """Score ``misses`` (key -> problem) group by group."""
        groups: dict[tuple, tuple[Mapping[str, int], list]] = {}
        for key, (layer, tops) in misses.items():
            table, rows = self._candidate_rows(layer, accel)
            signature = (
                tuple(sorted(tops.items())),
                active_operands(layer),
                len(rows[0]),
                "K" in layer.relevant_dims("I"),
            )
            groups.setdefault(signature, (tops, []))[1].append(
                (key, (layer, table, rows))
            )
        for tops, members in groups.values():
            for chunk in _chunks(members):
                results = self._score(
                    accel, tops, [member for _, member in chunk], self.config.objective
                )
                for (key, _), result in zip(chunk, results):
                    self._solved[key] = result
                    if result[0] is None:  # never cached: keep it (bounded)
                        self._infeasible[key] = result
                        if len(self._infeasible) > INFEASIBLE_BOUND:
                            del self._infeasible[next(iter(self._infeasible))]

    def _scalar(
        self,
        layer: LayerSpec,
        accel: Accelerator,
        tops: Mapping[str, int],
        table: tuple[Loop, ...],
        rows: Sequence[tuple[int, ...]],
        objective: str | Objective,
    ) -> SearchResult | None:
        """Reference one-ordering-at-a-time scoring loop over the integer
        candidate rows."""
        score = resolve_objective(objective)
        best: SearchResult | None = None
        evaluated = 0
        for row in rows:
            ordering = tuple(table[symbol] for symbol in row)
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
