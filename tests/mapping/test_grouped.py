"""Grouped scoring: one kernel call over many search problems.

``evaluate_candidates`` scores a group of problems that share tops,
active operands, loop count and whether ``K`` indexes ``I``, with every
other layer parameter per row.  Each member must get exactly what
scoring it alone gives, so nothing may leak between problems; and
``MappingSearchEngine.solve`` must leave cache contents, order and
statistics exactly as one-at-a-time searches leave them, on either
engine and when the kernel falls back.
"""

import math
import random

import numpy as np
import pytest

from repro import obs
from repro.core import scheduler
from repro.core.strategy import DFStrategy, OverlapMode
from repro.explore import EvalJob, Executor
from repro.hardware.zoo import get_accelerator
from repro.mapping import loma
from repro.mapping.allocation import AllocationError, active_operands
from repro.mapping.batch import (
    BatchEvaluation,
    BatchFallback,
    CandidateRows,
    _winner,
    evaluate_candidates,
)
from repro.mapping.cache import encode_search_result
from repro.mapping.loma import MappingSearchEngine, SearchConfig, SearchResult
from repro.workloads.layer import LayerSpec, OpType
from repro.workloads.zoo import get_workload

from . import test_batch


def scan(scores, feasible):
    """The scalar engine's winner rule: first strictly smaller wins."""
    best = None
    for i, (score, ok) in enumerate(zip(scores, feasible)):
        if ok and (best is None or score < scores[best]):
            best = i
    return best


def synthetic(scores, feasible):
    """A BatchEvaluation whose latency row is ``scores``."""
    count = len(scores)
    return BatchEvaluation(
        LayerSpec(name="s"), get_accelerator("meta_proto_like_df"), {},
        (("K", 2),), [(0,)] * count,
        feasible=np.array(feasible, dtype=bool), boundaries={},
        latency=np.array(scores, dtype=np.float64), traffic={},
        mac_count=1, mac_energy_pj=0.0, compute_cycles=1,
    )


class TestBestIndex:
    @pytest.mark.parametrize(
        "scores, feasible, expected",
        [
            ([3.0, 1.0, 1.0, 2.0], [1, 1, 1, 1], 1),  # ties keep the earliest
            ([math.nan, 1.0, 0.5], [1, 1, 1], 0),  # NaN in first place wins
            ([2.0, math.nan, 1.0, math.nan], [1, 1, 1, 1], 2),  # later NaN never
            ([1.0, 2.0], [0, 0], None),  # all infeasible
            ([0.0, math.nan, 5.0, 1.0], [0, 1, 1, 1], 1),  # first *feasible* NaN
            ([math.inf, math.inf], [0, 1], 1),  # masked rows never win
            ([0.0, -0.0], [1, 1], 0),  # -0.0 is not smaller than 0.0
        ],
    )
    def test_matches_scan(self, scores, feasible, expected):
        assert scan(scores, feasible) == expected
        assert synthetic(scores, feasible).best_index("latency") == expected

    def test_random_arrays_match_scan(self):
        rng = random.Random(7)
        pool = [0.0, 1.0, 2.0, math.inf, math.nan, -1.0]
        for _ in range(500):
            count = rng.randint(1, 8)
            scores = [rng.choice(pool) for _ in range(count)]
            feasible = [rng.random() < 0.7 for _ in range(count)]
            got = synthetic(scores, feasible).best_index("latency")
            assert got == scan(scores, feasible), (scores, feasible)


def outcome_fields(outcome):
    """What a search takes from one problem's outcome: an evaluation's
    energy winner (``best_index``), or the winner a grouped call with
    the energy objective picked."""
    if isinstance(outcome, BatchFallback):
        return "fallback"
    if isinstance(outcome, BatchEvaluation):
        outcome = _winner(outcome, "energy")
    if outcome is None:
        return "infeasible"
    winner = SearchResult(*outcome)
    return encode_search_result(winner), winner.evaluated


def score_alone_and_grouped(members, accel, tops):
    """Each member's outcome alone (its evaluation) and as part of one
    grouped call (its winner)."""
    rows = CandidateRows(
        [table for _, table, _ in members],
        [row for _, _, member_rows in members for row in member_rows],
        [len(member_rows) for _, _, member_rows in members],
    )
    grouped = evaluate_candidates(
        [layer for layer, _, _ in members], accel, tops, rows, "energy"
    )
    alone = [
        evaluate_candidates(
            (layer,), accel, tops, CandidateRows((table,), member_rows, (len(member_rows),))
        )[0]
        for layer, table, member_rows in members
    ]
    return [outcome_fields(o) for o in alone], [outcome_fields(o) for o in grouped]


class TestGroupEqualsSingles:
    def test_random_shapes(self):
        """test_batch.py's randomized layers, grouped as solve groups
        them; every group member must score as it does alone."""
        rng = random.Random(test_batch.TestRandomizedParity.SEED)
        accel = get_accelerator("meta_proto_like_df")
        searcher = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=60))
        groups = {}
        for index in range(120):
            layer = test_batch.random_layer(rng, index)
            tops = {op: rng.randrange(len(accel.hierarchy(op))) for op in "WIO"}
            if rng.random() < 0.5:  # common tops make larger groups
                tops = {op: accel.top_level_index(op) for op in "WIO"}
            table, rows = searcher._candidate_rows(layer, accel)
            signature = (
                tuple(sorted(tops.items())),
                "W" in active_operands(layer),
                len(rows[0]),
                "K" in layer.relevant_dims("I"),
            )
            groups.setdefault(signature, []).append((layer, table, rows))
        multi = [(sig, members) for sig, members in groups.items() if len(members) > 1]
        assert len(multi) >= 5
        kinds = set()
        for signature, members in multi:
            alone, grouped = score_alone_and_grouped(
                members, accel, dict(signature[0])
            )
            assert grouped == alone
            kinds.update("infeasible" if o == "infeasible" else "ok" for o in alone)
        assert kinds == {"ok", "infeasible"}

    def test_mixed_outcomes_stay_with_their_problem(self):
        """One group holding a feasible problem, one whose footprints do
        not fit the top levels and one past 2**53: each keeps the
        outcome it has alone, and the feasible one scores normally."""
        accel = get_accelerator("meta_proto_like_df")
        tops = {"W": 1, "I": 0, "O": 1}  # LB_W, LB_IO, LB_IO
        fits = LayerSpec(name="fits", k=64, c=64)
        too_big = LayerSpec(name="big", k=64, c=512, ox=112, oy=112)
        huge = LayerSpec(name="huge", k=64, c=64)
        rows = [(0, 1), (1, 0)]
        members = [
            (fits, (("C", 2), ("K", 2)), rows),
            (too_big, (("C", 256), ("OX", 28)), rows),  # 224 KiB of inputs
            (huge, (("C", 1 << 30), ("K", 1 << 30)), rows),
        ]
        alone, grouped = score_alone_and_grouped(members, accel, tops)
        assert grouped == alone
        assert alone[0][1] == 2
        single = evaluate_candidates(fits, accel, tops, [(("C", 2), ("K", 2)), (("K", 2), ("C", 2))])
        assert single.candidates == [(("C", 2), ("K", 2)), (("K", 2), ("C", 2))]
        assert alone[1] == "infeasible"
        assert alone[2] == "fallback"

    def test_out_of_range_tops_are_infeasible(self):
        """Tops past a hierarchy make every problem of the group
        infeasible, with the scalar engine's error."""
        accel = get_accelerator("meta_proto_like_df")
        layer = get_workload("fsrcnn").layers()[1]
        for tops in ({"W": 1, "I": 9, "O": 1}, {"W": -1, "I": 0, "O": 1}):
            batch, scalar = test_batch.search_both(layer, accel, tops, budget=20)
            assert batch == scalar and "no feasible mapping" in batch

    def test_group_must_share_its_signature(self):
        accel = get_accelerator("meta_proto_like_df")
        conv = LayerSpec(name="conv", k=4, c=4)
        pool = LayerSpec(name="pool", op_type=OpType.POOL, k=4, fx=2, fy=2)
        table = (("C", 2), ("K", 2))
        rows = CandidateRows([table, table], [(0, 1), (0, 1)], [1, 1])
        tops = {op: accel.top_level_index(op) for op in "WIO"}
        with pytest.raises(ValueError, match="share"):
            evaluate_candidates([conv, pool], accel, tops, rows)


class TestSharedRowSets:
    def test_problems_sharing_a_row_set_keep_their_own_nodes(self):
        """Problems whose rows are one memoized row set, but whose loop
        factors and parameters differ, scored in one call: each gets the
        outcome it gets alone and the scalar engine's search result."""
        accel = get_accelerator("meta_proto_like_df")
        engine = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=60))
        layers = [
            LayerSpec(name="a", k=32 * 6, c=2 * 15, ox=4, oy=4),
            LayerSpec(name="b", k=32 * 10, c=2 * 21, ox=4, oy=4, sx=2, sy=2,
                      w_bits=4, act_bits=16, psum_bits=32),
            LayerSpec(name="c", k=32 * 4, c=2 * 9, ox=4, oy=4),  # another set
            LayerSpec(name="d", k=32 * 14, c=2 * 33, ox=4, oy=4, act_bits=4),
        ]
        members = [(layer, *engine._candidate_rows(layer, accel)) for layer in layers]
        shared = members[0][2]
        assert members[1][2] is shared and members[3][2] is shared
        assert members[2][2] is not shared
        assert len({table for _, table, _ in members}) == len(members)
        for tops in (
            {op: accel.top_level_index(op) for op in "WIO"},
            {"W": 1, "I": 1, "O": 1},
        ):
            grouped = evaluate_candidates(
                layers, accel, tops, CandidateRows.from_sets(
                    [table for _, table, _ in members],
                    [rows for _, _, rows in members],
                ),
                "energy",
            )
            alone = [
                evaluate_candidates(
                    (layer,), accel, tops, CandidateRows.from_sets((table,), (rows,))
                )[0]
                for layer, table, rows in members
            ]
            assert [outcome_fields(o) for o in grouped] == [
                outcome_fields(o) for o in alone
            ]
            scalar = MappingSearchEngine(
                SearchConfig(lpf_limit=5, budget=60, engine="scalar")
            )
            for layer, outcome in zip(layers, grouped):
                assert outcome is not None
                winner = SearchResult(*outcome)
                reference = scalar.search(layer, accel, tops)
                assert encode_search_result(winner) == encode_search_result(
                    reference
                )
                assert winner.evaluated == reference.evaluated


def zoo_problems(accel):
    """Search problems with repeats: mobilenet_v1 layers at every tops
    the I and O hierarchies allow (some infeasible)."""
    problems = [
        (layer, {"W": accel.top_level_index("W"), "I": i, "O": o})
        for layer in get_workload("mobilenet_v1").layers()[:6]
        for i in range(len(accel.hierarchy("I")))
        for o in range(len(accel.hierarchy("O")))
    ]
    return problems + problems[::3]


def search_all(engine, accel, problems, keys):
    """Search each problem in order as the depth-first scheduler does:
    on an infeasible search, the raised tops next."""
    outcomes = []
    for (layer, tops), key in zip(problems, keys):
        for attempt in [tops] + loma.raised_tops(accel, tops):
            try:
                result = engine.search(layer, accel, attempt, key=key)
                outcomes.append(encode_search_result(result))
                break
            except AllocationError as exc:
                outcomes.append(str(exc))
            key = None
    return outcomes


class TestSolve:
    def run(self, accel, problems, solve):
        """Search every problem, after ``solve`` if asked; returns the
        outcomes, cache stats, cache order, the rows of each scoring
        call and the engine."""
        engine = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=40))
        calls = []
        score = loma.evaluate_candidates

        def counting(*args):
            calls.append(len(args[3]))
            return score(*args)

        loma.evaluate_candidates = counting
        try:
            keys = engine.solve(accel, problems) if solve else [None] * len(problems)
            outcomes = search_all(engine, accel, problems, keys)
        finally:
            loma.evaluate_candidates = score
        order = [(k, encode_search_result(v)) for k, v in engine.cache.snapshot().items()]
        return outcomes, engine.cache.stats, order, calls, engine

    def test_solve_then_search_equals_plain_searches(self):
        accel = get_accelerator("meta_proto_like_df")
        problems = zoo_problems(accel)
        plain = self.run(accel, problems, solve=False)
        solved = self.run(accel, problems, solve=True)
        assert solved[:3] == plain[:3]
        assert any(o.startswith("no feasible") for o in plain[0] if isinstance(o, str))
        # The same rows are scored, in fewer calls; an infeasible problem
        # searched again scores alone again, as it does unsolved.
        assert sum(solved[3]) == sum(plain[3])
        assert len(solved[3]) < len(plain[3])
        assert max(solved[3]) <= loma.GROUP_ROWS
        assert not solved[4]._solved  # every held winner was taken

    def test_kernel_rows_are_the_problems_own_rows(self):
        """What perfbench's ``mapping.orderings`` counts (``len`` of each
        kernel call's rows) is the number of orderings the misses have:
        the searches' own ``evaluated`` counts, all orderings being
        feasible at full tops.  solve passes the memoized row sets as they
        are; the same rows as plain lists count the same."""
        accel = get_accelerator("meta_proto_like_df")
        tops = {op: accel.top_level_index(op) for op in "WIO"}
        layers = get_workload("mobilenet_v1").layers()[:5]
        problems = [(layer, tops) for layer in layers + layers[1:3]]
        engine = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=40))
        calls = []
        score = loma.evaluate_candidates

        def spy(*args):
            calls.append(args[3])
            return score(*args)

        loma.evaluate_candidates = spy
        try:
            keys = engine.solve(accel, problems)
        finally:
            loma.evaluate_candidates = score
        evaluated = {
            key: engine.search(layer, accel, tops, key=key).evaluated
            for (layer, tops), key in zip(problems, keys)
        }
        assert len(evaluated) == len(layers)
        assert sum(len(rows) for rows in calls) == sum(evaluated.values())
        sets = [rows for call in calls for rows in call.sets]
        assert sorted(len(rows.rows) for rows in sets) == sorted(evaluated.values())
        for layer in layers:
            assert any(engine._candidate_rows(layer, accel)[1] is s for s in sets)
        for call in calls:
            plain = CandidateRows(
                call.tables, [row for rows in call.sets for row in rows], call.counts
            )
            assert len(plain) == len(call) == sum(map(len, call.sets))
            assert plain.counts == call.counts

    def test_scalar_engine_solves_ahead_and_warm_cache_holds_nothing(self, tmp_path):
        """A scalar-engine solve holds every uncached problem's outcome,
        scored on the scalar reference; one search per problem after it
        leaves what one-at-a-time searches leave, saved bytes included;
        a warm solve holds nothing (winners are cached, infeasible
        outcomes kept by the engine)."""
        accel = get_accelerator("meta_proto_like_df")
        problems = zoo_problems(accel)
        config = SearchConfig(lpf_limit=5, budget=40, engine="scalar")
        engine = MappingSearchEngine(config)
        keys = engine.solve(accel, problems)
        assert keys == [
            loma.normalize_key(engine.cache_key(layer, accel, tops))
            for layer, tops in problems
        ]
        assert engine._solved.keys() == set(keys)
        assert {outcome[1:] for outcome in engine._solved.values()} == {("scalar", False)}
        assert engine.cache.stats["misses"] == 0
        outcomes = search_all(engine, accel, problems, keys)
        alone = MappingSearchEngine(config)
        assert outcomes == search_all(alone, accel, problems, [None] * len(problems))
        assert engine.cache.stats == alone.cache.stats
        assert list(engine.cache.snapshot()) == list(alone.cache.snapshot())
        assert (
            engine.cache.save(tmp_path / "solved.json").read_bytes()
            == alone.cache.save(tmp_path / "alone.json").read_bytes()
        )
        engine.solve(accel, problems)
        assert not engine._solved

    def test_solve_groups_by_signature_and_caps_rows(self, monkeypatch):
        monkeypatch.setattr(loma, "GROUP_ROWS", 100)
        accel = get_accelerator("meta_proto_like_df")
        problems = zoo_problems(accel)
        plain = self.run(accel, problems, solve=False)
        solved = self.run(accel, problems, solve=True)
        assert solved[:3] == plain[:3]
        assert max(solved[3]) <= 100

    def test_problems_past_exact_floats_run_on_the_scalar_engine(self, monkeypatch):
        """A solved problem whose loop volume passes 2**53 is searched on
        the scalar reference, as it would be alone, next to problems the
        kernel scores."""
        accel = get_accelerator("meta_proto_like_df")
        huge = LayerSpec(name="huge", k=1 << 27, c=1 << 27)
        small = LayerSpec(name="small", k=64, c=64)
        tops = {op: accel.top_level_index(op) for op in "WIO"}
        problems = [(huge, tops), (small, tops)]
        scalar_calls = []
        scalar = MappingSearchEngine._scalar

        def spy(self, layer, *args):
            scalar_calls.append(layer.name)
            return scalar(self, layer, *args)

        monkeypatch.setattr(MappingSearchEngine, "_scalar", spy)
        config = SearchConfig(lpf_limit=4, budget=20)
        engine = MappingSearchEngine(config)
        keys = engine.solve(accel, problems)
        assert scalar_calls == ["huge"]
        assert engine._solved[keys[0]][1:] == ("scalar", True)
        for (layer, _), key in zip(problems, keys):
            reference = MappingSearchEngine(
                SearchConfig(lpf_limit=4, budget=20, engine="scalar")
            ).search(layer, accel, tops)
            found = engine.search(layer, accel, tops, key=key)
            assert encode_search_result(found) == encode_search_result(reference)


#: resnet18 at 240x72 fully_recompute on meta_proto_like_df: some of its
#: layer-tiles have no mapping at their planned tops and are searched
#: again at raised tops.
RAISING = DFStrategy(tile_x=240, tile_y=72, mode=OverlapMode.FULLY_RECOMPUTE)

#: Each engine's config and the ``(engine, fell_back)`` label it gives
#: every search; "fallback" forces the kernel to raise BatchFallback.
ENGINES = {
    "batch": (SearchConfig(lpf_limit=5, budget=40), ("batch", False)),
    "scalar": (SearchConfig(lpf_limit=5, budget=40, engine="scalar"), ("scalar", False)),
    "fallback": (SearchConfig(lpf_limit=5, budget=40), ("scalar", True)),
}


def scoring_spy(monkeypatch):
    """Record every problem the engines score, as ``(layer token,
    tops, engine, fell_back)``."""
    scored = []
    score = MappingSearchEngine._score

    def spy(self, accel, tops, members, objective):
        results = score(self, accel, tops, members, objective)
        top = tuple(sorted(tops.items()))
        scored.extend(
            (layer.cache_token(), top, *result[1:])
            for (layer, _, _), result in zip(members, results)
        )
        return results

    monkeypatch.setattr(MappingSearchEngine, "_score", spy)
    return scored


def searched(how, config, accel, problems, scored):
    """Search every problem on a fresh engine: one search per attempt
    ("alone"), ``solve`` then ``search_each``, or ``search_all``.
    Returns the results, the search counters, what was scored, and the
    cache's statistics and entries in order."""
    engine = MappingSearchEngine(config)
    scored.clear()
    obs.enable()
    try:
        if how == "alone":
            outcomes = search_all(engine, accel, problems, [None] * len(problems))
            found = [o for o in outcomes if not isinstance(o, str)]
        elif how == "solve":
            keys = engine.solve(accel, problems)
            results = engine.search_each(accel, problems, keys)
            found = list(map(encode_search_result, results))
            engine.drop_solved()
        else:
            found = list(map(encode_search_result, engine.search_all(accel, problems)))
        registry = obs.metrics()
        counters = {
            "searches": registry.value("loma_searches_total"),
            "batch": registry.value("loma_engine_dispatch_total", engine="batch"),
            "scalar": registry.value("loma_engine_dispatch_total", engine="scalar"),
            "fallbacks": registry.value("loma_batch_fallbacks_total"),
            "orderings": registry.value("loma_orderings_evaluated_total"),
        }
    finally:
        obs.reset()
    cache = [(k, encode_search_result(v)) for k, v in engine.cache.snapshot().items()]
    return found, counters, sorted(scored), engine.cache.stats, cache


@pytest.mark.parametrize("kind", ENGINES)
def test_every_search_path_scores_alike(kind, monkeypatch):
    """A lone search per attempt, solve + search_each and search_all
    give the same results, engine labels, fallback flags and cache
    state, each problem (raised tops included) scored once; and two
    ``Executor.run`` calls of the evaluation score each problem once."""
    config, label = ENGINES[kind]
    if kind == "fallback":

        def fall_back(*args):
            raise BatchFallback("forced")

        monkeypatch.setattr(loma, "evaluate_candidates", fall_back)
    accel = get_accelerator("meta_proto_like_df")
    workload = get_workload("resnet18")
    plans = scheduler.DepthFirstEngine(accel, config).plan(workload, RAISING)
    problems = [(layer, tops) for layer, tops, _ in scheduler._searches(plans)]
    planned = {
        (layer.cache_token(), tuple(sorted(tops.items()))) for layer, tops in problems
    }
    scored = scoring_spy(monkeypatch)

    alone, solved, together = (
        searched(how, config, accel, problems, scored)
        for how in ("alone", "solve", "all")
    )
    assert solved == alone and together == alone
    found, counters, scored_once, _, _ = alone
    assert len(found) == len(problems)
    assert counters[label[0]] == counters["searches"] >= len(scored_once)
    assert counters["fallbacks"] == (counters["searches"] if label[1] else 0)
    assert {entry[2:] for entry in scored_once} == {label}
    problems_scored = [entry[:2] for entry in scored_once]
    assert len(set(problems_scored)) == len(problems_scored)
    assert set(problems_scored) > planned  # the raised tops are scored

    scored.clear()
    executor = Executor(search_config=config)
    job = EvalJob(
        accelerator="meta_proto_like_df", workload="resnet18", strategy=RAISING
    )
    (first,) = executor.run([job])
    assert sorted(scored) == scored_once
    (second,) = executor.run([job])
    assert sorted(scored) == scored_once
    assert repr(second.result.total) == repr(first.result.total)
