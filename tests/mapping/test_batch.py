"""Bit-identity property suite: batch engine vs. scalar reference.

The vectorized engine's contract is *exact* equality — same winning
mapping, same ``CostResult`` floats, same evaluated count, same error
messages — so every comparison here goes through the persistent cache
encoding (the byte-compatibility surface) rather than approximate
asserts.
"""

import itertools
import random

import pytest

from repro.hardware.zoo import ACCELERATOR_FACTORIES, get_accelerator
from repro.mapping import batch as batch_mod
from repro.mapping.allocation import AllocationError
from repro.mapping.batch import BatchFallback, evaluate_candidates
from repro.mapping.cache import encode_search_result
from repro.mapping.cost import OBJECTIVE_NAMES
from repro.mapping.loma import ENGINES, MappingSearchEngine, SearchConfig
from repro.workloads.layer import LayerSpec, OpType
from repro.workloads.zoo import get_workload


def search_both(layer, accel, tops=None, objective=None, **config):
    """Run one search problem on both engines; returns the two results
    (either may be an AllocationError message string)."""
    results = []
    for engine in ENGINES:
        searcher = MappingSearchEngine(SearchConfig(engine=engine, **config))
        try:
            results.append(searcher.search(layer, accel, tops, objective))
        except AllocationError as exc:
            results.append(str(exc))
    return results


def assert_identical(layer, accel, tops=None, objective=None, **config):
    batch, scalar = search_both(layer, accel, tops, objective, **config)
    if isinstance(batch, str) or isinstance(scalar, str):
        assert batch == scalar, f"{layer.name}: error mismatch"
        return batch
    # The cache encoding covers mapping loops, boundaries, every cost
    # field and the traffic table entry-by-entry.
    assert encode_search_result(batch) == encode_search_result(scalar), (
        f"{layer.name} on {accel.name}: encoded result differs"
    )
    assert batch.evaluated == scalar.evaluated
    # Insertion order of the traffic dict is part of byte-compatibility
    # (objective sums and JSON encoding both iterate it).
    assert list(batch.cost.traffic) == list(scalar.cost.traffic)
    return batch


# ----------------------------------------------------------------------
# Zoo sweep
# ----------------------------------------------------------------------
class TestZooParity:
    @pytest.mark.parametrize("accel_name", sorted(ACCELERATOR_FACTORIES))
    def test_accelerator_zoo(self, accel_name):
        accel = get_accelerator(accel_name)
        for workload_name in ("fsrcnn", "resnet18"):
            for layer in get_workload(workload_name).layers()[:2]:
                assert_identical(layer, accel, lpf_limit=5, budget=120)

    def test_workload_zoo(self):
        accel = get_accelerator("meta_proto_like_df")
        for workload_name in ("dmcnn_vd", "mccnn", "mobilenet_v1", "reference"):
            for layer in get_workload(workload_name).layers()[:3]:
                assert_identical(layer, accel, lpf_limit=5, budget=120)

    def test_all_tops_combinations(self):
        """Every hierarchy truncation, including the (many) infeasible
        ones — those must raise the same AllocationError message."""
        accel = get_accelerator("meta_proto_like_df")
        layer = get_workload("fsrcnn").layers()[1]
        ranges = [range(len(accel.hierarchy(op))) for op in ("W", "I", "O")]
        outcomes = [
            assert_identical(
                layer,
                accel,
                tops={"W": tw, "I": ti, "O": to},
                lpf_limit=5,
                budget=60,
            )
            for tw, ti, to in itertools.product(*ranges)
        ]
        # the sweep must exercise both feasible and infeasible problems
        assert any(isinstance(o, str) for o in outcomes)
        assert any(not isinstance(o, str) for o in outcomes)

    @pytest.mark.parametrize("objective", OBJECTIVE_NAMES)
    def test_named_objectives(self, objective):
        accel = get_accelerator("edge_tpu_like")
        layer = get_workload("fsrcnn").layers()[0]
        assert_identical(
            layer, accel, objective=objective, lpf_limit=5, budget=120
        )

    def test_callable_objective(self):
        accel = get_accelerator("meta_proto_like_df")
        layer = get_workload("fsrcnn").layers()[0]
        assert_identical(
            layer,
            accel,
            objective=lambda c: c.latency_cycles + 0.25 * c.energy_pj,
            lpf_limit=5,
            budget=80,
        )


# ----------------------------------------------------------------------
# Randomized layer shapes
# ----------------------------------------------------------------------
def random_layer(rng: random.Random, index: int) -> LayerSpec:
    op_type = rng.choice(
        [OpType.CONV, OpType.CONV, OpType.DEPTHWISE, OpType.POOL, OpType.ADD, OpType.FC]
    )
    fx, fy = rng.choice([1, 2, 3, 5]), rng.choice([1, 3, 7])
    ox, oy = rng.randint(1, 56), rng.randint(1, 56)
    kw = dict(
        name=f"rand{index}",
        op_type=op_type,
        k=rng.choice([1, 3, 8, 24, 64]),
        c=1 if op_type is OpType.DEPTHWISE else rng.choice([1, 5, 16, 48]),
        ox=ox,
        oy=oy,
        fx=fx,
        fy=fy,
        sx=rng.choice([1, 2, 3]),
        sy=rng.choice([1, 2, 5]),
        dx=rng.choice([1, 1, 2]),
        dy=rng.choice([1, 1, 3]),
        px=rng.choice([0, 1]),
        py=rng.choice([0, 2]),
        act_bits=rng.choice([4, 8, 16]),
        w_bits=rng.choice([4, 8]),
        psum_bits=rng.choice([16, 24, 32]),
    )
    if op_type in (OpType.POOL, OpType.ADD):
        kw["c"] = 1
    layer = LayerSpec(**kw)
    if rng.random() < 0.3:  # clipped input windows (tile-border layers)
        kw["ix_clip"] = max(1, layer.ix - rng.randint(1, 3))
        kw["iy_clip"] = max(1, layer.iy - rng.randint(1, 3))
        layer = LayerSpec(**kw)
    return layer


class TestRandomizedParity:
    SEED = 20230423  # fixed: failures must reproduce

    @pytest.mark.parametrize("accel_name", ["meta_proto_like_df", "tpu_like"])
    def test_random_shapes(self, accel_name):
        rng = random.Random(self.SEED)
        accel = get_accelerator(accel_name)
        for index in range(25):
            layer = random_layer(rng, index)
            assert_identical(layer, accel, lpf_limit=5, budget=80)

    def test_random_shapes_with_truncated_tops(self):
        rng = random.Random(self.SEED + 1)
        accel = get_accelerator("meta_proto_like_df")
        for index in range(15):
            layer = random_layer(rng, index)
            tops = {
                op: rng.randrange(len(accel.hierarchy(op)))
                for op in ("W", "I", "O")
            }
            assert_identical(layer, accel, tops=tops, lpf_limit=5, budget=60)


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
class TestEngineKnob:
    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown search engine"):
            SearchConfig(engine="vectorized")

    def test_engine_not_in_cache_token(self):
        """Caches written by one engine must be valid for the other."""
        assert (
            SearchConfig(engine="batch").cache_token()
            == SearchConfig(engine="scalar").cache_token()
        )

    def test_all_infeasible_raises_same_message(self):
        accel = get_accelerator("meta_proto_like_df")
        layer = LayerSpec(name="huge", k=512, c=512, ox=64, oy=64, fx=3, fy=3)
        tops = {"W": 0, "I": 0, "O": 0}  # nothing fits in the registers
        batch, scalar = search_both(layer, accel, tops, lpf_limit=5, budget=40)
        assert isinstance(batch, str) and isinstance(scalar, str)
        assert batch == scalar
        assert "no feasible mapping" in batch

    def test_batch_fallback_routes_to_scalar(self, monkeypatch):
        """A BatchFallback inside the vectorized path must silently rerun
        the search on the scalar reference, not surface to the caller."""
        from repro.mapping import loma as loma_mod

        def boom(*args, **kwargs):
            raise BatchFallback("forced")

        monkeypatch.setattr(loma_mod, "evaluate_candidates", boom)
        accel = get_accelerator("meta_proto_like_df")
        layer = get_workload("fsrcnn").layers()[0]
        via_fallback = MappingSearchEngine(
            SearchConfig(engine="batch", lpf_limit=5, budget=60)
        ).search(layer, accel)
        monkeypatch.undo()
        scalar = MappingSearchEngine(
            SearchConfig(engine="scalar", lpf_limit=5, budget=60)
        ).search(layer, accel)
        assert encode_search_result(via_fallback) == encode_search_result(scalar)

    def test_overflow_guard_raises_fallback(self):
        """Loop volumes beyond 2**53 cannot be reproduced exactly in
        float64, so the batch evaluator must refuse them."""
        accel = get_accelerator("meta_proto_like_df")
        layer = LayerSpec(name="t", k=4, c=4, ox=4, oy=4)
        tops = {op: accel.top_level_index(op) for op in ("W", "I", "O")}
        huge = ((("K", 1 << 30), ("C", 1 << 30)),)
        with pytest.raises(BatchFallback):
            evaluate_candidates(layer, accel, tops, huge)

    def test_scorers_cover_every_named_objective(self):
        """A new named objective in cost.py silently falls back to the
        per-candidate path; keep the fast scorer table in sync."""
        assert set(batch_mod._SCORERS) == set(OBJECTIVE_NAMES)

    def test_evaluate_fixed_unchanged_by_engine(self):
        """evaluate_fixed stays on the scalar reference path."""
        from repro.mapping.loops import lpf_decompose
        from repro.mapping.temporal import temporal_sizes

        accel = get_accelerator("meta_proto_like_df")
        layer = get_workload("fsrcnn").layers()[0]
        ordering = lpf_decompose(temporal_sizes(layer, accel), 5)
        a = MappingSearchEngine(SearchConfig(engine="batch")).evaluate_fixed(
            layer, accel, ordering
        )
        b = MappingSearchEngine(SearchConfig(engine="scalar")).evaluate_fixed(
            layer, accel, ordering
        )
        assert encode_search_result(a) == encode_search_result(b)
