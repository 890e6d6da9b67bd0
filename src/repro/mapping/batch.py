"""Vectorized batch evaluation of LOMA candidate orderings.

The scalar reference path (:func:`~repro.mapping.allocation.allocate` +
:func:`~repro.mapping.zigzag.evaluate_mapping`) scores one ordering at a
time; every DSE generation, sweep point and service job bottoms out in
that loop.  This module scores the *full candidate lists* of a group of
search problems in one set of numpy array operations and is selected by
``SearchConfig(engine="batch")`` — the default.  The problems of a group
share the accelerator, the tops, the active operands, the loop count
and whether ``K`` indexes ``I``; every other layer parameter (loop
sizes, spatial use, strides, dilations, input spans, precisions, loop
total) is a per-row column.  See DESIGN.md §2.2 for the axis-by-axis
mapping to the §2.1 cost formulas; the layout in brief:

* the row: one candidate ordering of one problem, the innermost (long)
  axis of every per-row array.  Tables over a row's loop positions are
  stored position-major, ``(n, R)`` symbols and dimensions and
  ``(n+1, R)`` node ids, so each gather, compare and scan along a
  prefix covers all rows in one numpy loop.  Parameters are ``(k, R)``
  and boundaries ``(levels, R)``, so every parameter, boundary, traffic
  and latency line is a contiguous ``(R,)`` array;
* the node: one distinct loop multiset among a problem's row prefixes.
  A prefix's cumulative dimension products ``P[d, u]``, factor product
  ``PF[u]``, iterations above ``suffix[u]`` and resident footprints do
  not depend on the order of its loops, so they are computed once per
  node, from its symbol counts, with the node axis innermost.
  ``nodes[p, r]`` names the node of row ``r``'s first ``p`` loops
  (:class:`RowSet`), and every per-row read of a prefix value goes
  through it;
* the loop dimension, in :data:`~repro.mapping.temporal.DIMS` order.

The greedy boundary placement of ``allocate`` (walk outwards until the
level's capacity is exhausted) becomes a prefix scan: a boundary is the
first position where ``resident[p] <= available`` fails, found with
``argmin`` down a boolean table padded with a False line.  Stationarity
credits read each row's first operand-relevant loop at or above its
boundary from a per-operand ``next_rel`` table.  Candidates whose
multiset does not fit the truncated hierarchy are *masked out* in
:attr:`BatchEvaluation.feasible` instead of raising per ordering.  Each
problem's outcome comes from its own rows only, so a group member gets
exactly what scoring it alone gives.  Given the search's named
objective, a call scores all its rows at once and picks every
problem's winner with one segmented first-argmin and one gather of the
winning rows, building no evaluation per problem.

**Bit-identity contract.**  Every float the scalar path produces is
reproduced exactly: array expressions mirror the scalar expressions
operation-for-operation (same association, same accumulation order), and
integer quantities stay exact because the engine falls back to the
scalar reference (:class:`BatchFallback`) whenever a count could cross
2**53, where float64 rounding could diverge from Python's arbitrary-
precision ints.  The property suite in ``tests/mapping/test_batch.py``
asserts equality on every :class:`~repro.mapping.cost.CostResult` field,
so caches, checkpoints and golden fixtures stay byte-compatible.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace
from typing import Callable, Mapping, Sequence

import numpy as np

from ..hardware.accelerator import Accelerator
from ..workloads.layer import LayerSpec
from .allocation import PRIORITY, active_operands
from .cost import CostResult, TrafficKey, resolve_objective
from .loops import Loop
from .temporal import (
    DIM_INDEX,
    DIMS,
    TemporalMapping,
    cumulative_dim_products,
    merge_products,
    operand_footprint,
    operand_footprint_elems,
    utilized_spatial,
)

#: Largest integer exactly representable as a float64; counts at or
#: beyond it could round differently than Python ints, so the batch
#: engine refuses (falls back to scalar) rather than risk divergence.
_EXACT = float(1 << 53)


class BatchFallback(Exception):
    """The vectorized path cannot guarantee bit-identical floats for this
    problem (a count could cross 2**53); callers run the scalar
    reference engine instead — correctness is never at stake."""


class RowSet:
    """One problem's candidate rows with their prefix index.

    ``rows`` are the row tuples, all permuting one symbol multiset.
    :meth:`index` encodes them for the kernel; it is built on first use,
    so the scalar engine never builds it, and kept, so a memoized row
    set is encoded once.  A row set is a sequence of its rows.
    """

    __slots__ = ("rows", "_index")

    def __init__(self, rows: Sequence[tuple[int, ...]]) -> None:
        self.rows = tuple(rows)
        self._index: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    def index(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(symbols, nodes, counts)``, position-major: the ``(n, R)``
        symbol array, the ``(n+1, R)`` node id of each row prefix (line
        ``p`` holds every row's first ``p`` loops) and each node's
        ``(n, U)`` symbol counts.  Two prefixes share a node exactly when
        they hold the same multiset, so node 0 is the empty prefix and
        line ``n`` is one node."""
        if self._index is None:
            self._index = _prefix_index(self.rows)
        return self._index


def _prefix_index(rows: Sequence[tuple[int, ...]]):
    """:meth:`RowSet.index`: each prefix multiset is keyed by its symbol
    counts in mixed radix (digit ``s`` below one more than the most
    copies of ``s`` a row holds), so equal keys are equal multisets."""
    count, n = len(rows), len(rows[0])
    symbols = np.array(rows, dtype=np.int64).reshape(count, n).T
    if symbols.size and not 0 <= symbols.min() <= symbols.max() < n:
        raise ValueError("a row must name symbols of its own loops only")
    most = (symbols[:, :, None] == np.arange(n)).sum(axis=0).max(axis=0, initial=0)
    radix = most + 1
    if math.prod(radix.tolist()) >= 1 << 63:
        raise ValueError("too many distinct loops to index the prefixes")
    weight = np.cumprod(radix) // radix
    keys = np.zeros((n + 1, count), dtype=np.int64)
    np.cumsum(weight[symbols], axis=0, out=keys[1:])
    unique, nodes = np.unique(keys, return_inverse=True)
    counts = unique // weight[:, None] % radix[:, None]
    return (
        symbols.astype(np.min_scalar_type(max(n - 1, 0)), order="C"),
        nodes.reshape(n + 1, count).astype(np.min_scalar_type(len(unique) - 1)),
        counts.astype(np.min_scalar_type(n)),
    )


class CandidateRows:
    """Candidate orderings of one or more search problems as integer rows.

    Each problem's distinct loops, sorted, form its symbol ``table``; a
    row names, innermost first, the symbol of each loop of one ordering.
    ``sets`` holds each problem's :class:`RowSet`, in problem order.
    Built from plain lists, ``rows`` holds every problem's rows back to
    back and ``counts`` how many each problem has; :meth:`from_sets`
    takes row sets as they are.  ``len()`` is the number of rows, i.e.
    of orderings scored.
    """

    def __init__(
        self,
        tables: Sequence[tuple[Loop, ...]],
        rows: Sequence[tuple[int, ...]],
        counts: Sequence[int],
    ) -> None:
        bounds = list(itertools.accumulate(counts, initial=0))
        if bounds[-1] != len(rows):
            raise ValueError("candidate rows must hold one problem per layer")
        self.tables = tuple(tables)
        self.sets = tuple(RowSet(rows[a:b]) for a, b in zip(bounds, bounds[1:]))

    @classmethod
    def from_sets(
        cls, tables: Sequence[tuple[Loop, ...]], sets: Sequence[RowSet]
    ) -> "CandidateRows":
        """Problems whose rows are already row sets (the search engine's
        memoized ones, whose prefix index is kept between calls)."""
        cands = cls.__new__(cls)
        cands.tables = tuple(tables)
        cands.sets = tuple(sets)
        return cands

    @classmethod
    def from_orderings(
        cls, candidates: Sequence[tuple[Loop, ...]]
    ) -> "CandidateRows":
        """One problem's rows from loop-tuple orderings, which must all
        permute the first one's loop multiset."""
        if not candidates:
            raise ValueError("no candidate orderings to evaluate")
        multiset = sorted(candidates[0])
        if any(sorted(c) != multiset for c in candidates[1:]):
            raise ValueError("candidates must be permutations of one loop multiset")
        table = tuple(sorted(set(multiset)))
        index = {loop: symbol for symbol, loop in enumerate(table)}
        rows = [tuple(index[loop] for loop in c) for c in candidates]
        return cls((table,), rows, (len(rows),))

    @property
    def counts(self) -> tuple[int, ...]:
        """Each problem's number of rows."""
        return tuple(map(len, self.sets))

    def __len__(self) -> int:
        return sum(self.counts)


class BatchEvaluation:
    """All candidate orderings of one search problem, scored as arrays.

    Every per-candidate quantity has the candidate index as its leading
    axis: :attr:`latency` is ``(C,)``, each :attr:`traffic` value is a
    ``(reads, writes, energy)`` triple of ``(C,)`` arrays keyed exactly
    like the scalar :class:`~repro.mapping.cost.CostResult` (and in the
    same insertion order, so summed objectives accumulate identically).
    :attr:`feasible` masks orderings that do not allocate.  Candidates
    are integer rows over the symbol ``table`` (see
    :class:`CandidateRows`).
    """

    def __init__(
        self,
        layer: LayerSpec,
        accel: Accelerator,
        tops: Mapping[str, int],
        table: tuple[Loop, ...],
        rows: Sequence[tuple[int, ...]],
        feasible,
        boundaries: Mapping[str, object],
        latency,
        traffic: Mapping[TrafficKey, tuple],
        mac_count: int,
        mac_energy_pj: float,
        compute_cycles: int,
    ) -> None:
        self.layer = layer
        self.accel = accel
        self.tops = dict(tops)
        self.table = table
        self.rows = rows
        self.feasible = feasible
        self.boundaries = boundaries
        self.latency = latency
        self.traffic = traffic
        self.mac_count = mac_count
        self.mac_energy_pj = mac_energy_pj
        self.compute_cycles = compute_cycles

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of candidate orderings (feasible or not)."""
        return len(self.rows)

    @property
    def evaluated(self) -> int:
        """Number of feasible (scored) orderings."""
        return int(self.feasible.sum())

    def ordering(self, index: int) -> tuple[Loop, ...]:
        """Candidate ``index`` as a loop tuple, innermost first."""
        table = self.table
        return tuple(table[symbol] for symbol in self.rows[index])

    @property
    def candidates(self) -> list[tuple[Loop, ...]]:
        """Every candidate as a loop tuple."""
        return [self.ordering(i) for i in range(self.count)]

    # ------------------------------------------------------------------
    def mapping(self, index: int) -> TemporalMapping:
        """Materialize candidate ``index``'s allocated temporal mapping."""
        bounds = {
            op: tuple(rows[index].tolist()) for op, rows in self.boundaries.items()
        }
        return TemporalMapping(loops=self.ordering(index), boundaries=bounds)

    def cost_result(self, index: int) -> CostResult:
        """Materialize candidate ``index``'s cost (scalar-path identical)."""
        return CostResult.from_arrays(
            index,
            self.mac_count,
            self.mac_energy_pj,
            self.compute_cycles,
            self.latency,
            self.traffic,
        )

    # ------------------------------------------------------------------
    def scores(self, objective) -> "np.ndarray":
        """Per-candidate objective values, ``(C,)`` float64.

        Named objectives are computed directly from the arrays with the
        exact accumulation order of the scalar ``CostResult`` formulas;
        callables fall back to materializing each candidate's cost.
        """
        if isinstance(objective, str) and objective in _SCORERS:
            return _named_scores(self, objective, self.count)
        fn = resolve_objective(objective)
        return np.array(
            [fn(self.cost_result(i)) for i in range(self.count)], dtype=np.float64
        )

    def best_index(self, objective) -> int | None:
        """Index of the winning feasible candidate, or ``None``.

        A masked first-argmin that returns what the scalar scan ("first
        strictly smaller score wins") returns: :func:`_first_argmin`
        over the feasible candidates as one segment.
        """
        feasible = np.flatnonzero(self.feasible)
        if not feasible.size:
            return None
        one = np.zeros(feasible.size, dtype=np.intp)  # every row in segment 0
        (best,) = _first_argmin(self.scores(objective)[feasible], one[:1], one)
        return int(feasible[best])


# ----------------------------------------------------------------------
# Named-objective scorers (array mirrors of the CostResult formulas).
# Each sum starts at 0.0 and adds entries in traffic-insertion order —
# the same float accumulation sequence as the scalar properties.
# ----------------------------------------------------------------------
def _memory_energy(ev: BatchEvaluation):
    total = 0.0
    for _reads, _writes, energy in ev.traffic.values():
        total = total + energy
    return total


def _energy(ev: BatchEvaluation):
    return ev.mac_energy_pj + _memory_energy(ev)


def _accesses(ev, categories=None, level_names=None):
    total = 0.0
    for (category, name), (reads, writes, _energy) in ev.traffic.items():
        if categories is not None and category not in categories:
            continue
        if level_names is not None and name not in level_names:
            continue
        total = total + (reads + writes)
    return total


def _energy_of(ev, categories=None, level_names=None):
    total = 0.0
    for (category, name), (_reads, _writes, energy) in ev.traffic.items():
        if categories is not None and category not in categories:
            continue
        if level_names is not None and name not in level_names:
            continue
        total = total + energy
    return total


_SCORERS: dict[str, Callable[[BatchEvaluation], object]] = {
    "energy": _energy,
    "latency": lambda ev: ev.latency,
    "edp": lambda ev: _energy(ev) * ev.latency,
    "dram_accesses": lambda ev: _accesses(ev, level_names=("DRAM",)),
    "offchip_traffic": lambda ev: _accesses(ev, level_names=("DRAM",)),
    "onchip_traffic": lambda ev: (
        _accesses(ev) - _accesses(ev, level_names=("DRAM",))
    ),
    "activation_energy": lambda ev: _energy_of(ev, categories=("I", "O", "copy")),
}


def _named_scores(rows, objective: str, count: int) -> "np.ndarray":
    """The ``(count,)`` float64 scores of a named objective over
    ``rows``: an evaluation, or anything holding the same ``traffic``,
    ``latency`` and ``mac_energy_pj`` (one value, or one per row)."""
    arr = np.asarray(_SCORERS[objective](rows), dtype=np.float64)
    if arr.ndim == 0:  # e.g. zero DRAM traffic under truncated tops
        arr = np.full(count, float(arr))
    return arr


def _first_argmin(scores: "np.ndarray", starts: "np.ndarray", segment) -> "np.ndarray":
    """Each segment's winning row: segment ``j`` holds the rows from
    ``starts[j]`` to the next start, and ``segment`` names each row's
    segment.  The scalar scan's rule per segment: the first of the
    lowest scores (ties keep the earliest row, -0.0 is not below 0.0),
    unless the segment's first score is NaN, which wins (no score is
    smaller than NaN); a later NaN never wins."""
    nan = np.isnan(scores)
    key = np.where(nan, np.inf, scores)
    lowest = np.flatnonzero(key == np.minimum.reduceat(key, starts)[segment])
    # Every segment holds its minimum, so the first lowest row at or
    # after a segment's start lies inside it.
    first = lowest[np.searchsorted(lowest, starts)]
    return np.where(nan[starts], starts, first)


def _winner(evaluation: BatchEvaluation, objective):
    """The best feasible candidate of an evaluation, materialized as
    ``(mapping, cost, evaluated)``, or ``None``."""
    index = evaluation.best_index(objective)
    if index is None:
        return None
    return (
        evaluation.mapping(index),
        evaluation.cost_result(index),
        evaluation.evaluated,
    )


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
#: Per-problem layer parameters, one column each after the loop sizes
#: and the utilized spatial unrolls (both in ``DIMS`` order).
_SIZES = slice(0, len(DIMS))
_SPATIAL = slice(len(DIMS), 2 * len(DIMS))
_PARAMS = ("sx", "sy", "dx", "dy", "ix", "iy", "w_bits", "act_bits", "psum_bits")
_COLUMN = {name: 2 * len(DIMS) + i for i, name in enumerate(_PARAMS)}
#: Column of the loop total (product of all temporal loop factors).
_TOTAL = 2 * len(DIMS) + len(_PARAMS)
#: Precision of each operand's elements (``LayerSpec.operand_bits``) and
#: of its sub-top residencies (outputs below their top hold psums).
_OPERAND_BITS = {"W": "w_bits", "I": "act_bits", "O": "act_bits"}
_RESIDENT_BITS = {"W": "w_bits", "I": "act_bits", "O": "psum_bits"}


def evaluate_candidates(
    layer, accel: Accelerator, tops: Mapping[str, int], candidates, objective=None
):
    """Allocate and score candidate orderings in array operations.

    The plain call scores one search problem: ``layer`` is a
    :class:`LayerSpec` and ``candidates`` its orderings as loop tuples,
    all permuting one loop multiset (LOMA's enumeration guarantees
    this).  It returns the :class:`BatchEvaluation` and raises
    :class:`BatchFallback` when exact float reproduction cannot be
    guaranteed.

    The grouped call scores several problems in one pass: ``layer`` is
    a sequence of layers and ``candidates`` a :class:`CandidateRows`
    with one problem per layer.  The problems share ``tops``, their
    active operands, their loop count and whether ``K`` indexes ``I``;
    everything else is a per-row parameter.  It returns one outcome per
    problem, in order: the :class:`BatchEvaluation` or the
    :class:`BatchFallback` the plain call would give that problem alone.

    Given an ``objective``, either call returns each problem's winner
    in place of its evaluation: ``(mapping, cost, evaluated)`` as
    :meth:`BatchEvaluation.best_index`, :meth:`~BatchEvaluation.mapping`
    and :meth:`~BatchEvaluation.cost_result` give it, or ``None`` when no
    ordering is feasible.  A named objective picks every problem's
    winner in one pass over the call's rows, without an evaluation per
    problem; a callable one scores each materialized candidate.
    """
    single = isinstance(layer, LayerSpec)
    if single:
        layers, rows = (layer,), CandidateRows.from_orderings(list(candidates))
    else:
        layers, rows = tuple(layer), candidates
    named = isinstance(objective, str) and objective in _SCORERS
    outcomes = _score_group(layers, accel, tops, rows, objective if named else None)
    if objective is not None and not named:
        outcomes = [
            _winner(o, objective) if isinstance(o, BatchEvaluation) else o
            for o in outcomes
        ]
    if not single:
        return outcomes
    (outcome,) = outcomes
    if isinstance(outcome, BatchFallback):
        raise outcome
    return outcome


def _parameters(
    layer: LayerSpec, accel: Accelerator, table, first: tuple[int, ...]
) -> "list[int] | BatchFallback":
    """One problem's parameter row, or the :class:`BatchFallback` its
    exactness guards raise (python ints, before any float64 enters)."""
    total_iter = 1
    for symbol in first:
        total_iter *= table[symbol][1]
    spatial = utilized_spatial(layer, accel)
    sp_prod = 1
    for unroll in spatial.values():
        sp_prod *= unroll
    if total_iter >= 1 << 53 or total_iter * sp_prod >= 1 << 62:
        return BatchFallback(f"{layer.name}: loop volume beyond exact float64")
    # Every footprint is bounded by its operand's size, so only layers
    # that large need the exact check.
    bound = max(
        layer.weight_count,
        layer.output_count,
        layer.c * layer.k * abs(layer.ix) * abs(layer.iy),
    )
    if bound >= 1 << 53:
        loops = tuple(table[symbol] for symbol in first)
        full = merge_products(cumulative_dim_products(loops, len(loops)), spatial)
        for op in active_operands(layer):
            if operand_footprint_elems(layer, op, full) >= 1 << 53:
                return BatchFallback(
                    f"{layer.name}/{op}: footprint beyond exact float64"
                )
    sizes = layer.loop_sizes
    return (
        [sizes[d] for d in DIMS]
        + [spatial.get(d, 1) for d in DIMS]
        + [getattr(layer, name) for name in _PARAMS]
        + [total_iter]
    )


def _score_group(
    layers: tuple[LayerSpec, ...],
    accel: Accelerator,
    tops: Mapping[str, int],
    cands: CandidateRows,
    objective: str | None = None,
) -> list:
    """The grouped kernel behind :func:`evaluate_candidates`: one outcome
    per problem, each from that problem's own rows and nodes.  Without
    ``objective`` a problem's outcome is its evaluation; with a named
    one, its winner or ``None``."""
    if len(layers) != len(cands.sets):
        raise ValueError("candidate rows must hold one problem per layer")
    if not layers or 0 in cands.counts:
        raise ValueError("no candidate orderings to evaluate")
    outcomes: list = [None] * len(layers)
    live: list[int] = []  # problems scored in the arrays
    params: list[list[int]] = []
    shared = None
    for p, (layer, table, rows) in enumerate(zip(layers, cands.tables, cands.sets)):
        first = rows[0]
        signature = (
            active_operands(layer),
            "K" in layer.relevant_dims("I"),
            len(first),
        )
        if shared is None:
            shared = signature
        elif signature != shared:
            raise ValueError(
                "grouped problems must share active operands, loop count "
                "and whether K indexes I"
            )
        row = _parameters(layer, accel, table, first)
        if isinstance(row, BatchFallback):
            outcomes[p] = row
        else:
            live.append(p)
            params.append(row)
    operands, _, n = shared
    in_range = all(
        0 <= tops.get(op, len(accel.hierarchy(op)) - 1) < len(accel.hierarchy(op))
        for op in operands
    )

    def no_winner(p: int, total_iter: int):
        """Problem ``p`` has no feasible ordering."""
        if objective is not None:
            return None
        return _infeasible(
            layers[p], accel, tops, cands.tables[p], cands.sets[p].rows, total_iter
        )

    if not in_range:  # reserve_top_levels raises for every problem
        for p, row in zip(live, params):
            outcomes[p] = no_winner(p, row[_TOTAL])
    if not live or not in_range:
        return outcomes

    # ------------------------------------------------------------------
    # Rows and nodes, position-major.  Row r belongs to live problem
    # pid[r]; node u, one distinct prefix multiset of a problem's rows,
    # to node_pid[u], and nodes[p, r] is the node of row r's first p
    # loops.  Every problem has nodes of its own (ids offset past the
    # previous problems'), also when problems share a row set: node
    # values read the problem's loop table and parameters.
    # ------------------------------------------------------------------
    each_symbols, each_nodes, each_held = zip(
        *(cands.sets[p].index() for p in live)
    )
    counts = [len(cands.sets[p]) for p in live]
    node_counts = [held.shape[1] for held in each_held]
    count = sum(counts)
    pid = np.repeat(np.arange(len(live)), counts)
    node_pid = np.repeat(np.arange(len(live)), node_counts)
    symbols = np.concatenate(each_symbols, axis=1)
    nodes = np.concatenate(each_nodes, axis=1, dtype=np.intp)
    nodes += np.repeat(np.cumsum([0] + node_counts[:-1]), counts)
    held = np.concatenate(each_held, axis=1)
    # Each problem's symbol table as (dim index, factor), padded to n
    # symbols with factor-1 loops that no node holds: (n, problems) each.
    padding = (("K", 1),) * n
    sym_dim, sym_factor = np.array(
        [
            (DIM_INDEX[dim], factor)
            for p in live
            for dim, factor in (*cands.tables[p], *padding)[:n]
        ],
        dtype=np.int64,
    ).reshape(len(live), n, 2).T
    dims_idx = sym_dim[symbols, pid]  # (n, R) loop dims per row

    # Node values P[d, u], PF[u] and suffix[u]: a prefix holding `count`
    # copies of a loop multiplies its dimension by factor ** count.
    power = sym_factor[:, node_pid] ** held  # (n, U)
    in_dim = sym_dim[:, node_pid] == np.arange(len(DIMS))[:, None, None]
    P = np.where(in_dim, power, 1).prod(axis=1)  # (6, U)
    PF = power.prod(axis=0)
    problem_param = np.array(params, dtype=np.int64).T
    param, node_param = problem_param[:, pid], problem_param[:, node_pid]
    column = {name: param[i] for name, i in _COLUMN.items()}
    total_iter = param[_TOTAL]
    iterations = total_iter.astype(np.float64)
    suffix = node_param[_TOTAL] // PF  # exact: PF divides the total product

    sizes = node_param[_SIZES]
    spatial = param[_SPATIAL]
    clamp_plain = np.minimum(P, sizes)
    clamp_merged = np.minimum(P * node_param[_SPATIAL], sizes)

    # The footprint formulas read the geometry of each row (datapath) or
    # node (residency); relevance is shared by the group.
    def geometry(values) -> SimpleNamespace:
        return SimpleNamespace(
            relevant_dims=layers[live[0]].relevant_dims,
            **{name: values[_COLUMN[name]] for name in _PARAMS},
        )

    node_geometry = geometry(node_param)

    def footprints(get_dim) -> dict[str, "np.ndarray"]:
        return {
            op: operand_footprint(node_geometry, op, get_dim, minimum=np.minimum)
            for op in operands
        }

    # Per-PE levels see no spatial merge; shared levels and the cost
    # model do.  ``full``, the node of each row's whole multiset, holds
    # its full (ordering-independent) footprint.
    elems_plain = footprints(lambda dim: clamp_plain[DIM_INDEX[dim]])
    elems_merged = footprints(lambda dim: clamp_merged[DIM_INDEX[dim]])
    full = nodes[n]
    row = np.arange(count)
    node_of = nodes.ravel()

    def at(cols):
        """The node of every row r's prefix ``cols[r]``."""
        return node_of[cols * count + row]

    # ------------------------------------------------------------------
    # Phase 1: full-footprint reservation of every operand's top level
    # (``reserve_top_levels`` per row).  A problem that does not fit is
    # infeasible in every ordering.
    # ------------------------------------------------------------------
    infeasible = np.zeros(count, dtype=bool)
    used: dict[int, "np.ndarray"] = {}
    for op in operands:
        hierarchy = accel.hierarchy(op)
        inst = hierarchy[tops.get(op, len(hierarchy) - 1)].instance
        if inst.is_dram:
            continue
        elems = (elems_plain if inst.per_pe else elems_merged)[op][full]
        resident = elems * column[_OPERAND_BITS[op]] / 8.0
        already = used.get(inst.uid, 0.0)
        infeasible |= resident + already > inst.size_bytes
        if not inst.per_pe:
            used[inst.uid] = already + resident

    # ------------------------------------------------------------------
    # Phase 2: greedy boundary placement.  A level's boundary is the
    # first prefix that no longer fits, scanned along the row axis.
    # ------------------------------------------------------------------
    zeros = np.zeros(count)
    n_col = np.full(count, n, dtype=np.int64)
    pos = np.arange(1, n + 1)[:, None]
    inner = nodes[1:]
    # taken[p - 1, r]: row r's first p loops stay below the boundary.
    # Line n is False, so a row whose every prefix fits stops at n.
    taken = np.zeros((n + 1, count), dtype=bool)
    boundaries: dict[str, "np.ndarray"] = {}
    for op in PRIORITY:
        if op not in operands:
            boundaries[op] = n_col[None]
            continue
        hierarchy = accel.hierarchy(op)
        levels = hierarchy[: tops.get(op, len(hierarchy) - 1) + 1]
        bits = node_param[_COLUMN[_RESIDENT_BITS[op]]]
        cols = []
        prev = np.zeros(count, dtype=np.int64)
        for idx, level in enumerate(levels):
            if idx == len(levels) - 1:
                cols.append(n_col)
                break
            inst = level.instance
            avail = inst.size_bytes - used.get(inst.uid, zeros)
            elems = (elems_plain if inst.per_pe else elems_merged)[op]
            resident = elems * bits / 8.0  # (U,) float64, scalar-exact
            # Greedy walk == length of the leading run of prefixes that
            # still fit (positions at or below the previous boundary
            # count as already taken).
            np.less_equal(resident[inner], avail, out=taken[:n])
            taken[:n] |= pos <= prev
            bound = taken.argmin(axis=0)
            if not inst.per_pe:
                used[inst.uid] = used.get(inst.uid, zeros) + np.minimum(
                    resident[at(bound)], avail
                )
            cols.append(bound)
            prev = bound
        boundaries[op] = np.stack(cols)

    # ------------------------------------------------------------------
    # Cost model (§2.1), along the row axis; prefix values are read from
    # the node of each row's boundary.
    # ------------------------------------------------------------------
    traffic: dict[TrafficKey, list] = {}

    def entry(category: str, level_name: str) -> list:
        key = (category, level_name)
        arrays = traffic.get(key)
        if arrays is None:
            arrays = [np.zeros(count), np.zeros(count), np.zeros(count)]
            traffic[key] = arrays
        return arrays

    bytes_demand: dict[int, object] = {}
    beyond = np.zeros(count, dtype=bool)
    psum_bytes = column["psum_bits"] / 8.0
    rows_geometry = geometry(param)
    # next_rel[p, r]: row r's first operand-relevant position at or
    # after p, n when there is none (filled in from line n down).
    next_rel = np.empty((n + 1, count), dtype=np.intp)
    next_rel[n] = n
    positions = np.arange(n)[:, None]

    for op in operands:  # W, I, O order: weight-less layers skip W
        hierarchy = accel.hierarchy(op)
        levels = hierarchy[: tops.get(op, len(hierarchy) - 1) + 1]
        act_bytes = column[_OPERAND_BITS[op]] / 8.0

        # Datapath boundary: array <-> level 0.
        level0 = levels[0]
        inst0 = level0.instance
        datapath_elems = iterations * _wave_elems(rows_geometry, op, spatial, column)
        e0 = entry(op, level0.name)
        if op == "O":
            e0[0] += datapath_elems
            e0[1] += datapath_elems
            e0[2] += datapath_elems * psum_bytes * (
                inst0.r_energy_pj_per_byte + inst0.w_energy_pj_per_byte
            )
            bytes_demand[inst0.uid] = bytes_demand.get(inst0.uid, 0.0) + (
                2.0 * datapath_elems * psum_bytes
            )
        else:
            e0[0] += datapath_elems
            e0[2] += datapath_elems * act_bytes * inst0.r_energy_pj_per_byte
            bytes_demand[inst0.uid] = bytes_demand.get(inst0.uid, 0.0) + (
                datapath_elems * act_bytes
            )

        # Inter-level boundaries.
        final = elems_merged[op][full]
        relevant = rows_geometry.relevant_dims(op)
        rel_tab = np.array([d in relevant for d in DIMS])
        first_rel = np.where(rel_tab[dims_idx], positions, n)
        for p in range(n - 1, -1, -1):
            np.minimum(first_rel[p], next_rel[p + 1], out=next_rel[p])
        # R(p)·A(p), resident footprint times iterations above, per node.
        volume = elems_merged[op].astype(np.float64) * suffix.astype(np.float64)
        for levelidx in range(1, len(levels)):
            lower = levels[levelidx - 1]
            upper = levels[levelidx]
            prefix = boundaries[op][levelidx - 1]
            node = at(prefix)
            # Stationarity credit: contiguous irrelevant run above the
            # boundary, as a prefix-product ratio.
            run = next_rel.ravel()[prefix * count + row]
            credit = PF[at(run)] // PF[node]
            product = volume[node]
            beyond |= product >= _EXACT
            crossings = product / credit

            le = entry(op, lower.name)
            ue = entry(op, upper.name)
            li, ui = lower.instance, upper.instance

            if op == "O":
                up = np.maximum(crossings, final)
                back = up - final
                psum_up = back  # non-final ascents carry psum precision
                le[0] += up
                ue[1] += up
                le[1] += back
                ue[0] += back
                up_bytes = psum_up * psum_bytes + final * act_bytes
                le[2] += up_bytes * li.r_energy_pj_per_byte
                le[2] += back * psum_bytes * li.w_energy_pj_per_byte
                ue[2] += up_bytes * ui.w_energy_pj_per_byte
                ue[2] += back * psum_bytes * ui.r_energy_pj_per_byte
                moved = up_bytes + back * psum_bytes
                bytes_demand[li.uid] = bytes_demand.get(li.uid, 0.0) + moved
                bytes_demand[ui.uid] = bytes_demand.get(ui.uid, 0.0) + moved
            else:
                down = np.maximum(crossings, final)
                ue[0] += down
                le[1] += down
                ue[2] += down * act_bytes * ui.r_energy_pj_per_byte
                le[2] += down * act_bytes * li.w_energy_pj_per_byte
                moved = down * act_bytes
                bytes_demand[li.uid] = bytes_demand.get(li.uid, 0.0) + moved
                bytes_demand[ui.uid] = bytes_demand.get(ui.uid, 0.0) + moved

    # Latency: compute cycles vs. the most demanded memory port, in
    # bytes_demand insertion order (same accumulation as the scalar path).
    stall_limited = 0.0
    by_uid = accel.instances_by_uid()
    for uid, demand in bytes_demand.items():
        inst = by_uid[uid]
        if inst.bandwidth_bytes <= 0 or inst.bandwidth_bytes == float("inf"):
            continue
        stall_limited = np.maximum(stall_limited, demand / inst.bandwidth_bytes)
    latency = np.maximum(iterations, stall_limited)

    # Each problem's outcome from its own rows: an infeasible
    # reservation first, then the crossing-count guard.
    first_rows = np.cumsum([0] + counts[:-1])
    beyond = np.logical_or.reduceat(beyond, first_rows)
    scored: list[int] = []  # positions in `live` of the problems scored
    for j, p in enumerate(live):
        if infeasible[first_rows[j]]:
            outcomes[p] = no_winner(p, params[j][_TOTAL])
        elif beyond[j]:
            outcomes[p] = BatchFallback(
                f"{layers[p].name}: crossings beyond exact float64"
            )
        else:
            scored.append(j)
    traffic_arrays = {key: tuple(arrays) for key, arrays in traffic.items()}
    mac_energy = [layers[p].mac_count * accel.mac_energy_pj for p in live]
    if objective is None:
        for j in scored:
            p, start = live[j], int(first_rows[j])
            own = slice(start, start + counts[j])
            outcomes[p] = BatchEvaluation(
                layers[p], accel, tops, cands.tables[p], cands.sets[p].rows,
                feasible=np.ones(counts[j], dtype=bool),
                boundaries={op: b[:, own].T for op, b in boundaries.items()},
                latency=latency[own],
                traffic={
                    key: (reads[own], writes[own], energy[own])
                    for key, (reads, writes, energy) in traffic_arrays.items()
                },
                mac_count=layers[p].mac_count,
                mac_energy_pj=mac_energy[j],
                compute_cycles=params[j][_TOTAL],
            )
        return outcomes

    # The winners: every row scored at once (``mac_energy_pj`` per row),
    # each problem's first-argmin, then one gather of the winning rows,
    # materialized as ``BatchEvaluation.mapping``/``cost_result`` would.
    every_row = SimpleNamespace(
        traffic=traffic_arrays,
        latency=latency,
        mac_energy_pj=np.array(mac_energy)[pid],
    )
    scores = _named_scores(every_row, objective, count)
    win = _first_argmin(scores, first_rows, pid)[scored]
    win_latency = latency[win].tolist()
    win_traffic = {
        key: tuple(array[win].tolist() for array in arrays)
        for key, arrays in traffic_arrays.items()
    }
    win_bounds = {op: b[:, win].T.tolist() for op, b in boundaries.items()}
    for k, j in enumerate(scored):
        p = live[j]
        table = cands.tables[p]
        row = cands.sets[p].rows[win[k] - first_rows[j]]
        mapping = TemporalMapping(
            loops=tuple(table[symbol] for symbol in row),
            boundaries={op: tuple(bounds[k]) for op, bounds in win_bounds.items()},
        )
        cost = CostResult.from_arrays(
            k, layers[p].mac_count, mac_energy[j], params[j][_TOTAL],
            win_latency, win_traffic,
        )
        outcomes[p] = (mapping, cost, counts[j])
    return outcomes


def _infeasible(layer, accel, tops, table, rows, total_iter) -> BatchEvaluation:
    """The evaluation of a problem whose full footprints do not fit its
    top levels: every ordering is infeasible."""
    count = len(rows)
    return BatchEvaluation(
        layer, accel, tops, table, rows,
        feasible=np.zeros(count, dtype=bool),
        boundaries={}, latency=np.zeros(count), traffic={},
        mac_count=layer.mac_count,
        mac_energy_pj=layer.mac_count * accel.mac_energy_pj,
        compute_cycles=total_iter,
    )


def _wave_elems(geometry, op: str, spatial, column) -> "np.ndarray":
    """Per-row operand elements fetched per spatial wave: the array
    mirror of :func:`~repro.mapping.zigzag.spatial_relevant`."""
    relevant = geometry.relevant_dims(op)
    one = np.ones(spatial.shape[1], dtype=np.int64)

    def get(dim: str):
        return spatial[DIM_INDEX[dim]] if dim in relevant else one

    elems = operand_footprint(geometry, op, get, minimum=np.minimum)
    if op != "I":
        return elems.astype(np.float64)

    def axis_discount(o_dim, f_dim, stride, full):
        o_sp = spatial[DIM_INDEX[o_dim]]
        span = np.minimum((o_sp - 1) * stride + spatial[DIM_INDEX[f_dim]], full)
        advance = np.minimum(o_sp * stride, span)
        return np.where(span != 0, advance / np.where(span != 0, span, 1), 1.0)

    discount = axis_discount("OX", "FX", column["sx"], column["ix"])
    discount = discount * axis_discount("OY", "FY", column["sy"], column["iy"])
    return elems * discount
