"""Unit tests for the LOMA-style mapping search engine."""

import pytest

from repro.hardware.zoo import meta_proto_like_df
from repro.mapping.cache import encode_search_result
from repro.mapping.loma import MappingSearchEngine, SearchConfig, normalize_key
from repro.workloads.layer import LayerSpec

TOPS = {"W": 3, "I": 2, "O": 3}


def layer(name="t", **kw):
    base = dict(k=16, c=8, ox=24, oy=24, fx=3, fy=3, px=1, py=1)
    base.update(kw)
    return LayerSpec(name=name, **base)


@pytest.fixture(scope="module")
def accel():
    return meta_proto_like_df()


class TestSearch:
    @pytest.mark.parametrize("lpf_limit", [0, -3])
    def test_lpf_limit_below_one_rejected(self, lpf_limit):
        with pytest.raises(ValueError, match="lpf_limit must be >= 1"):
            SearchConfig(lpf_limit=lpf_limit)

    def test_finds_a_mapping(self, accel):
        engine = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=50))
        result = engine.search(layer(), accel)
        assert result.cost.energy_pj > 0
        assert result.evaluated > 0

    def test_larger_budget_never_worse(self, accel):
        small = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=10))
        big = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=400))
        l = layer()
        assert big.search(l, accel).cost.energy_pj <= (
            small.search(l, accel).cost.energy_pj * 1.0001
        )

    def test_search_beats_worst_canonical(self, accel):
        """The optimizer must do better than an adversarial ordering."""
        from repro.mapping.allocation import allocate
        from repro.mapping.loops import lpf_decompose
        from repro.mapping.temporal import temporal_sizes
        from repro.mapping.zigzag import evaluate_mapping

        engine = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=200))
        l = layer()
        best = engine.search(l, accel).cost.energy_pj
        tops = {op: accel.top_level_index(op) for op in ("W", "I", "O")}
        loops = lpf_decompose(temporal_sizes(l, accel), 5)
        worst = max(
            evaluate_mapping(l, accel, tops, allocate(l, accel, tops, ordering)).energy_pj
            for ordering in [tuple(loops), tuple(reversed(loops))]
        )
        assert best <= worst

    def test_latency_objective_changes_preference(self, accel):
        engine_e = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=100, objective="energy"))
        engine_l = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=100, objective="latency"))
        l = layer(k=64, c=32, ox=56, oy=56)
        r_e = engine_e.search(l, accel)
        r_l = engine_l.search(l, accel)
        assert r_l.cost.latency_cycles <= r_e.cost.latency_cycles * 1.0001


class TestCaching:
    def test_cache_hit_returns_same_object(self, accel):
        engine = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=50))
        a = engine.search(layer(), accel)
        before = len(engine.cache)
        b = engine.search(layer(), accel)
        assert a is b
        assert len(engine.cache) == before

    def test_different_tops_cached_separately(self, accel):
        engine = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=50))
        engine.search(layer(), accel)
        engine.search(layer(), accel, tops={"W": 1, "I": 0, "O": 1})
        assert len(engine.cache) == 2

    def test_clear_cache(self, accel):
        engine = MappingSearchEngine(SearchConfig(lpf_limit=5, budget=50))
        engine.search(layer(), accel)
        engine.cache.clear()
        assert len(engine.cache) == 0


class TestCacheKey:
    """The key must capture every layer field that can change a result,
    and nothing else."""

    CONFIG = SearchConfig(lpf_limit=5, budget=50)

    def key(self, spec, accel):
        return normalize_key(MappingSearchEngine(self.CONFIG).cache_key(spec, accel, TOPS))

    def test_name_is_not_part_of_the_key(self, accel):
        a, b = layer(ox=56, oy=56), layer(name="renamed", ox=56, oy=56)
        assert self.key(a, accel) == self.key(b, accel)
        found = [
            encode_search_result(MappingSearchEngine(self.CONFIG).search(spec, accel))
            for spec in (a, b)
        ]
        assert found[0] == found[1]

    def test_padding_changes_the_key_without_clips(self, accel):
        """With no clip, ix/iy derive from px/py: two layers differing
        only in padding must not share an entry (they cost differently)."""
        a = layer(k=32, c=32, ox=56, oy=56, px=0, py=0)
        b = layer(k=32, c=32, ox=56, oy=56, px=1, py=1)
        assert self.key(a, accel) != self.key(b, accel)
        engine = MappingSearchEngine(self.CONFIG)
        shared = [encode_search_result(engine.search(spec, accel)) for spec in (a, b)]
        fresh = encode_search_result(MappingSearchEngine(self.CONFIG).search(b, accel))
        assert shared[1] == fresh != shared[0]

    def scheduler_searches(self, accel):
        """The scheduler's engine and its (layer, tops, key) searches for
        one MobileNetV1 point."""
        from repro import DepthFirstEngine, DFStrategy, OverlapMode, get_workload

        engine = DepthFirstEngine(accel, self.CONFIG)
        seen = []
        search = engine.mapper.search

        def recording(spec, a, tops=None, objective=None, **kw):
            seen.append((spec, tops, kw.get("key")))
            return search(spec, a, tops, objective, **kw)

        engine.mapper.search = recording
        engine.evaluate(
            get_workload("mobilenet_v1"),
            DFStrategy(tile_x=14, tile_y=14, mode=OverlapMode.FULLY_CACHED),
        )
        return engine, seen

    def test_scheduler_key_is_pinned(self, accel):
        """LayerSpec.cache_token and Accelerator.fingerprint keep every
        byte of the persisted key format."""
        _, seen = self.scheduler_searches(accel)
        assert seen[0][2] == (
            '[["conv",32,3,112,112,3,3,2,2,1,1,8,8,16,223,223],'
            '"meta_proto_like_df:6f04ff59c9bc59b6",'
            '[["I",1],["O",2],["W",3]],[5,50,"energy"]]'
        )

    def test_clipped_tile_keys_unchanged(self, accel):
        """Scheduler tile layers set both clips, so keying on the derived
        spans leaves their key strings (and cache files) byte-identical
        to the clip-keyed format."""
        engine, seen = self.scheduler_searches(accel)
        assert len(seen) > 20
        for spec, tops, key in seen:
            assert spec.ix_clip is not None and spec.iy_clip is not None
            old = list(engine.mapper.cache_key(spec, accel, tops))
            old[0] = old[0][:-2] + (spec.ix_clip, spec.iy_clip)
            assert normalize_key(tuple(old)) == key


class TestFixedMapping:
    def test_evaluate_fixed_ordering(self, accel):
        engine = MappingSearchEngine()
        ordering = [("FX", 3), ("FY", 3), ("C", 4), ("OX", 6), ("OY", 6), ("K", 1)]
        l = layer(k=1)
        result = engine.evaluate_fixed(l, accel, ordering)
        assert result.evaluated == 1
        assert result.cost.mac_count == l.mac_count
