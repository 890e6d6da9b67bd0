"""The grouped call's winner pass.

Given an objective, ``evaluate_candidates`` returns each problem's
winner.  For a named objective it scores every row of the call at once,
takes a segmented first-argmin and gathers the winning rows in one pass,
building no per-problem evaluation; each winner must be exactly what the
problem's own evaluation gives through ``best_index``, ``mapping`` and
``cost_result``.
"""

import math
import random

import numpy as np
import pytest

from repro.hardware.zoo import get_accelerator
from repro.mapping import batch
from repro.mapping.allocation import active_operands
from repro.mapping.batch import (
    BatchEvaluation,
    BatchFallback,
    CandidateRows,
    evaluate_candidates,
)
from repro.mapping.cache import encode_search_result
from repro.mapping.cost import OBJECTIVE_NAMES
from repro.mapping.loma import MappingSearchEngine, SearchConfig, SearchResult
from repro.workloads.layer import LayerSpec

from . import test_batch
from .test_grouped import scan


def fields(winner):
    """A winner as the search stores it, with its traffic-key order."""
    if winner is None:
        return None
    result = SearchResult(*winner)
    return encode_search_result(result), result.evaluated, list(result.cost.traffic)


def random_groups(seed, count):
    """Random problems grouped by kernel signature, with random and
    full tops: ``[(tops, [(layer, table, rows), ...]), ...]``."""
    rng = random.Random(seed)
    accel = get_accelerator("meta_proto_like_df")
    searcher = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=40))
    groups = {}
    for index in range(count):
        layer = test_batch.random_layer(rng, index)
        tops = {op: rng.randrange(len(accel.hierarchy(op))) for op in "WIO"}
        if rng.random() < 0.5:
            tops = {op: accel.top_level_index(op) for op in "WIO"}
        table, rows = searcher._candidate_rows(layer, accel)
        signature = (
            tuple(sorted(tops.items())),
            active_operands(layer),
            len(rows[0]),
            "K" in layer.relevant_dims("I"),
        )
        groups.setdefault(signature, []).append((layer, table, rows))
    return accel, [(dict(sig[0]), members) for sig, members in groups.items()]


def grouped_and_alone(accel, tops, members, objective):
    """Each member's winner from one grouped call, and from its own
    evaluation (``None`` for a fallback, which has no evaluation)."""
    rows = CandidateRows.from_sets(
        [table for _, table, _ in members], [rows for _, _, rows in members]
    )
    grouped = evaluate_candidates(
        [layer for layer, _, _ in members], accel, tops, rows, objective
    )
    alone = []
    for layer, table, member_rows in members:
        (outcome,) = evaluate_candidates(
            (layer,), accel, tops, CandidateRows.from_sets((table,), (member_rows,))
        )
        alone.append(
            outcome if isinstance(outcome, BatchFallback)
            else batch._winner(outcome, objective)
        )
    return grouped, alone


class TestFirstArgmin:
    def test_random_segments_match_the_scalar_scan(self):
        """Ties keep the earliest row, a NaN first in its segment wins,
        a later NaN never does, and -0.0 is not below 0.0."""
        rng = random.Random(5)
        pool = [0.0, -0.0, 1.0, 2.0, -1.0, math.inf, -math.inf, math.nan]
        for _ in range(400):
            sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
            scores = [rng.choice(pool) for _ in range(sum(sizes))]
            starts = np.cumsum([0] + sizes[:-1])
            segment = np.repeat(np.arange(len(sizes)), sizes)
            got = batch._first_argmin(np.array(scores), starts, segment)
            expected = [
                start + scan(scores[start : start + size], [True] * size)
                for start, size in zip(starts.tolist(), sizes)
            ]
            assert got.tolist() == expected, (scores, sizes)


class TestWinnersEqualEvaluations:
    @pytest.mark.parametrize("objective", OBJECTIVE_NAMES)
    def test_named_objectives(self, objective):
        accel, groups = random_groups(test_batch.TestRandomizedParity.SEED, 60)
        assert sum(len(members) > 1 for _, members in groups) >= 3
        kinds = set()
        for tops, members in groups:
            grouped, alone = grouped_and_alone(accel, tops, members, objective)
            for got, expected in zip(grouped, alone):
                if isinstance(expected, BatchFallback):
                    assert isinstance(got, BatchFallback)
                    continue
                assert fields(got) == fields(expected)
                kinds.add("infeasible" if expected is None else "won")
        assert kinds == {"infeasible", "won"}

    def test_winners_match_the_scalar_engine(self):
        accel, groups = random_groups(test_batch.TestRandomizedParity.SEED + 2, 30)
        config = dict(lpf_limit=5, budget=40)
        scalar = MappingSearchEngine(SearchConfig(engine="scalar", **config))
        checked = 0
        for tops, members in groups:
            grouped, _ = grouped_and_alone(accel, tops, members, "edp")
            for (layer, _, _), got in zip(members, grouped):
                if got is None or isinstance(got, BatchFallback):
                    continue
                reference = scalar.search(layer, accel, tops, "edp")
                assert fields(got) == fields(
                    (reference.mapping, reference.cost, reference.evaluated)
                )
                checked += 1
        assert checked >= 10

    def test_named_objectives_build_no_evaluation(self, monkeypatch):
        accel, groups = random_groups(test_batch.TestRandomizedParity.SEED, 40)
        tops, members = max(groups, key=lambda group: len(group[1]))
        built = []
        init = BatchEvaluation.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0].name)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BatchEvaluation, "__init__", counting)
        rows = CandidateRows.from_sets(
            [table for _, table, _ in members], [rows for _, _, rows in members]
        )
        outcomes = evaluate_candidates(
            [layer for layer, _, _ in members], accel, tops, rows, "energy"
        )
        assert len(members) > 1 and any(outcomes)
        scored = {
            layer.name for (layer, _, _), o in zip(members, outcomes) if o is not None
        }
        assert not scored & set(built)

    def test_callable_objective_materializes_every_candidate(self, monkeypatch):
        accel, groups = random_groups(test_batch.TestRandomizedParity.SEED, 40)
        tops, members = max(groups, key=lambda group: len(group[1]))

        def objective(cost):
            return cost.latency_cycles + 0.25 * cost.energy_pj

        expected = grouped_and_alone(accel, tops, members, objective)[1]
        materialized = []
        cost_result = BatchEvaluation.cost_result

        def counting(self, index):
            materialized.append(index)
            return cost_result(self, index)

        monkeypatch.setattr(BatchEvaluation, "cost_result", counting)
        rows = CandidateRows.from_sets(
            [table for _, table, _ in members], [rows for _, _, rows in members]
        )
        grouped = evaluate_candidates(
            [layer for layer, _, _ in members], accel, tops, rows, objective
        )
        assert [fields(o) for o in grouped] == [fields(o) for o in expected]
        feasible = [
            len(member_rows)
            for (_, _, member_rows), o in zip(members, grouped)
            if o is not None
        ]
        # Every candidate scored, then each winner materialized again.
        assert len(materialized) == sum(feasible) + len(feasible)


class TestWinnerOutcomes:
    def test_infeasible_and_fallback_problems_keep_their_outcome(self):
        """A problem whose footprints do not fit has no winner and one
        past 2**53 falls back, next to a problem that wins."""
        accel = get_accelerator("meta_proto_like_df")
        tops = {"W": 1, "I": 0, "O": 1}
        rows = [(0, 1), (1, 0)]
        members = [
            (LayerSpec(name="fits", k=64, c=64), (("C", 2), ("K", 2)), rows),
            (LayerSpec(name="big", k=64, c=512, ox=112, oy=112),
             (("C", 256), ("OX", 28)), rows),
            (LayerSpec(name="huge", k=64, c=64),
             (("C", 1 << 30), ("K", 1 << 30)), rows),
        ]
        cands = CandidateRows(
            [table for _, table, _ in members], rows * 3, [2, 2, 2]
        )
        layers = [layer for layer, _, _ in members]
        won, infeasible, fallback = evaluate_candidates(
            layers, accel, tops, cands, "latency"
        )
        assert SearchResult(*won).evaluated == 2
        assert infeasible is None and isinstance(fallback, BatchFallback)
        out_of_range = evaluate_candidates(
            layers[:2], accel, {"W": 1, "I": 9, "O": 1},
            CandidateRows([table for _, table, _ in members[:2]], rows * 2, [2, 2]),
            "latency",
        )
        assert out_of_range == [None, None]

    def test_plain_call_takes_an_objective(self):
        accel = get_accelerator("meta_proto_like_df")
        tops = {op: accel.top_level_index(op) for op in "WIO"}
        layer = LayerSpec(name="x", k=64, c=64, ox=8, oy=8)
        orderings = [
            (("C", 2), ("K", 2), ("OX", 2)),
            (("OX", 2), ("K", 2), ("C", 2)),
            (("K", 2), ("C", 2), ("OX", 2)),
        ]
        evaluation = evaluate_candidates(layer, accel, tops, orderings)
        for objective in OBJECTIVE_NAMES:
            assert fields(
                evaluate_candidates(layer, accel, tops, orderings, objective)
            ) == fields(batch._winner(evaluation, objective))
