"""Per-candidate identity of the batch kernel at the loop counts that
perfbench's sweeps (``lpf_limit`` 6) and the paper (``--lpf-limit 8``)
use.

``test_batch.py`` compares search winners at ``lpf_limit`` 5 or less.
Here every candidate ordering of a plain :func:`evaluate_candidates`
call is compared with :func:`allocate` plus :func:`evaluate_mapping` on
that ordering: feasibility, boundaries, every cost field and the
traffic insertion order, through the cache encoding (the byte-
compatibility surface).  The candidates are the search's own rows, so
the kernel sees 6, 7 and 8 loops.
"""

import json

import pytest

from repro.hardware.zoo import get_accelerator
from repro.mapping.allocation import AllocationError, allocate
from repro.mapping.batch import evaluate_candidates
from repro.mapping.cache import encode_search_result
from repro.mapping.loma import MappingSearchEngine, SearchConfig, SearchResult
from repro.mapping.zigzag import evaluate_mapping
from repro.workloads.layer import LayerSpec
from repro.workloads.zoo import get_workload

#: Zoo layers of every operand set: convolutions, a depthwise layer and
#: the weight-less pooling and addition layers.
LAYERS = (
    ("fsrcnn", "L1_feature_extract"),
    ("mobilenet_v1", "dw2"),
    ("mobilenet_v1", "pw2"),
    ("resnet18", "maxpool"),
    ("resnet18", "s1b1_add"),
)
ACCELERATORS = ("meta_proto_like_df", "tpu_like", "edge_tpu_like")
BUDGET = 150


def zoo_layer(workload: str, name: str) -> LayerSpec:
    (layer,) = [each for each in get_workload(workload).layers() if each.name == name]
    return layer


def tops_cases(accel) -> list[dict[str, int]]:
    """The full tops, and each operand's top one level down, for I and O
    only and for all three (some of these do not fit at all)."""
    full = {op: accel.top_level_index(op) for op in "WIO"}
    lower = {op: max(top - 1, 0) for op, top in full.items()}
    return [full, {**full, "I": lower["I"], "O": lower["O"]}, lower]


def encoded(mapping, cost) -> str:
    return json.dumps(encode_search_result(SearchResult(mapping, cost)))


def check_every_candidate(layer, accel, tops, orderings) -> tuple[int, int]:
    """Assert each candidate's batch outcome equals the scalar one;
    return (rows checked, rows feasible)."""
    evaluation = evaluate_candidates(layer, accel, tops, orderings)
    assert evaluation.count == len(orderings)
    feasible = 0
    for index, ordering in enumerate(orderings):
        assert evaluation.ordering(index) == ordering
        try:
            mapping = allocate(layer, accel, tops, ordering)
        except AllocationError:
            assert not evaluation.feasible[index], (layer.name, tops, index)
            continue
        assert evaluation.feasible[index], (layer.name, tops, index)
        feasible += 1
        cost = evaluate_mapping(layer, accel, tops, mapping)
        assert evaluation.mapping(index) == mapping, (layer.name, tops, index)
        assert encoded(
            evaluation.mapping(index), evaluation.cost_result(index)
        ) == encoded(mapping, cost), (layer.name, tops, index)
    return len(orderings), feasible


@pytest.mark.parametrize("lpf_limit", [6, 8])
@pytest.mark.parametrize("accel_name", ACCELERATORS)
def test_every_candidate_matches_the_scalar_path(accel_name, lpf_limit):
    accel = get_accelerator(accel_name)
    engine = MappingSearchEngine(SearchConfig(lpf_limit=lpf_limit, budget=BUDGET))
    checked = feasible = 0
    loop_counts = set()
    for workload, name in LAYERS:
        layer = zoo_layer(workload, name)
        table, rows = engine._candidate_rows(layer, accel)
        orderings = [tuple(table[symbol] for symbol in row) for row in rows]
        loop_counts.add(len(orderings[0]))
        for tops in tops_cases(accel):
            rows_checked, rows_feasible = check_every_candidate(
                layer, accel, tops, orderings
            )
            checked += rows_checked
            feasible += rows_feasible
    # The kernel really ran at this loop count, on feasible and
    # infeasible rows alike.
    assert max(loop_counts) == lpf_limit
    assert 0 < feasible < checked


def test_a_layer_without_loops():
    """Every dimension 1: no temporal loop, so every candidate (the
    canonical dataflows, kept with their repeats) is the empty ordering."""
    layer = LayerSpec(name="point", k=1, c=1, ox=1, oy=1)
    engine = MappingSearchEngine(SearchConfig(lpf_limit=8))
    for accel_name in ACCELERATORS:
        accel = get_accelerator(accel_name)
        table, rows = engine._candidate_rows(layer, accel)
        assert table == () and set(rows) == {()}
        for tops in tops_cases(accel):
            check_every_candidate(layer, accel, tops, list(rows))
