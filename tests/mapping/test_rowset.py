"""Row sets: candidate rows with their prefix index, memoized per search.

The batch kernel computes every order-independent prefix quantity once
per *node*, one distinct prefix multiset of a problem's rows, and reads
it back through the ``(n+1, R)`` node-id matrix.  So two prefixes must
share a node exactly when they hold the same loops, and a node's symbol
counts must be its prefixes' counts.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.hardware.zoo import get_accelerator
from repro.mapping import loma
from repro.mapping.batch import CandidateRows, RowSet, evaluate_candidates
from repro.mapping.loma import MappingSearchEngine, SearchConfig
from repro.mapping.temporal import temporal_sizes
from repro.workloads.layer import LayerSpec
from repro.workloads.zoo import get_workload


@st.composite
def row_lists(draw):
    """Rows permuting one multiset (symbol ``s`` ``pattern[s]`` times),
    some of them repeated, as the canonical rows can be."""
    pattern = draw(st.lists(st.integers(1, 3), max_size=5))
    symbols = [s for s, times in enumerate(pattern) for _ in range(times)]
    rows = draw(
        st.lists(st.permutations(symbols).map(tuple), min_size=1, max_size=12)
    )
    repeats = draw(st.lists(st.sampled_from(rows), max_size=4))
    return rows + repeats


@given(row_lists())
@example([()])  # n = 0: the empty prefix is the whole row
@example([(), ()])
@example([(0, 0, 0), (0, 0, 0)])  # a single distinct loop
@example([(0, 1, 2), (2, 1, 0), (0, 1, 2), (1, 0, 2)])  # repeated rows
def test_prefix_index(rows):
    symbols, nodes, counts = RowSet(rows).index()
    n = len(rows[0])
    # Position-major, so the kernel's scans run along the long row axis.
    assert symbols.shape == (n, len(rows))
    assert symbols.T.tolist() == [list(row) for row in rows]
    assert nodes.shape == (n + 1, len(rows))
    assert counts.shape == (n, len(np.unique(nodes))) == (n, int(nodes.max()) + 1)
    assert all(a.flags.c_contiguous for a in (symbols, nodes, counts))
    node_of = {}  # prefix multiset -> node
    for r, row in enumerate(rows):
        for p in range(n + 1):
            multiset = tuple(sorted(row[:p]))
            node = int(nodes[p, r])
            assert node_of.setdefault(multiset, node) == node
            tally = Counter(row[:p])
            assert counts[:, node].tolist() == [tally[s] for s in range(n)]
    # Equal multisets share a node, and distinct ones never do.
    assert len(set(node_of.values())) == len(node_of)
    assert set(nodes[0].tolist()) == {node_of[()]}
    assert not counts[:, node_of[()]].any()
    assert len(set(nodes[n].tolist())) == 1


def test_prefix_index_dtypes_are_compact():
    """The memo keeps one index per row set; small ints keep it small."""
    symbols, nodes, counts = RowSet([(0, 1, 2, 3), (3, 2, 1, 0)]).index()
    assert symbols.dtype == nodes.dtype == counts.dtype == np.uint8


def test_rows_must_name_their_own_loops():
    with pytest.raises(ValueError, match="own loops"):
        RowSet([(0, 2)]).index()


def test_plain_lists_build_row_sets_on_the_spot():
    table = (("C", 2), ("K", 3))
    rows = CandidateRows([table, table], [(0, 1), (1, 0), (0, 1)], [2, 1])
    assert [s.rows for s in rows.sets] == [((0, 1), (1, 0)), ((0, 1),)]
    assert rows.counts == (2, 1) and len(rows) == 3
    with pytest.raises(ValueError, match="one problem per layer"):
        CandidateRows([table], [(0, 1)], [2])


@pytest.mark.parametrize(
    "orderings",
    [
        [(("C", 2), ("K", 2)), (("C", 2), ("C", 2))],  # same loops, other counts
        [(("C", 2), ("K", 2)), (("K", 2),)],  # fewer loops
        [(("C", 2), ("K", 2)), (("C", 2), ("K", 4))],  # a loop of no other row
    ],
)
def test_orderings_must_permute_the_first_ones_multiset(orderings):
    """The plain call's orderings permute one loop multiset: a row with
    the first one's length and loops but other counts names another
    problem, whose loop total the kernel would not see."""
    accel = get_accelerator("meta_proto_like_df")
    tops = {op: accel.top_level_index(op) for op in "WIO"}
    layer = LayerSpec(name="x", k=64, c=64)
    match = "permutations of one loop multiset"
    with pytest.raises(ValueError, match=match):
        CandidateRows.from_orderings(orderings)
    with pytest.raises(ValueError, match=match):
        evaluate_candidates(layer, accel, tops, orderings)
    assert evaluate_candidates(layer, accel, tops, orderings[:1]).count == 1


class TestRowSetMemo:
    def problem(self):
        engine = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=60))
        layer = get_workload("mobilenet_v1").layers()[1]
        return engine, layer, get_accelerator("meta_proto_like_df")

    def test_one_row_set_per_key(self):
        engine, layer, accel = self.problem()
        table, rows = engine._candidate_rows(layer, accel)
        assert engine._candidate_rows(layer, accel)[1] is rows
        # The canonical dataflows first, then permutations up to the
        # budget, none repeated.
        _, pattern, canonical = loma._loop_rows(
            tuple(temporal_sizes(layer, accel).items()), 5
        )
        assert rows.rows[: len(canonical)] == canonical
        assert len(rows) <= 60
        assert len(set(rows.rows[len(canonical) :])) == len(rows) - len(canonical)
        assert not set(rows.rows[len(canonical) :]) & set(canonical)
        assert all(Counter(row) == Counter(canonical[0]) for row in rows)
        assert loma._row_set.cache_info().maxsize == 256

    def test_row_sets_of_one_pattern_share_their_row_tuples(self):
        """Two canonical-row lists of one length over one pattern: two
        row sets, whose permutation rows are the same tuple objects."""
        pattern = (1, 1, 2)
        first = loma._row_set(pattern, ((0, 1, 2, 2), (2, 2, 1, 0)), 12)
        second = loma._row_set(pattern, ((2, 0, 1, 2), (1, 2, 2, 0)), 12)
        assert first is not second
        shared = set(map(id, first.rows[2:])) & set(map(id, second.rows[2:]))
        assert len(shared) == 7  # ten permutations, three of them canonical

    def test_rebuilt_after_eviction_gives_equal_index_and_rows(self):
        engine, layer, accel = self.problem()
        _, rows = engine._candidate_rows(layer, accel)
        index = rows.index()
        _, pattern, canonical = loma._loop_rows(
            tuple(temporal_sizes(layer, accel).items()), 5
        )
        # Fill the bounded memo with other budgets until it evicts ours.
        for budget in range(61, 61 + loma._row_set.cache_info().maxsize):
            loma._row_set(pattern, canonical, budget)
        _, rebuilt = engine._candidate_rows(layer, accel)
        assert rebuilt is not rows
        assert rebuilt.rows == rows.rows
        for again, before in zip(rebuilt.index(), index):
            assert again.dtype == before.dtype
            assert np.array_equal(again, before)
