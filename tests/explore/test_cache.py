"""Unit tests for the shareable, persistent mapping cache."""

import gc
import json

import pytest

from repro import DepthFirstEngine, DFStrategy
from repro.mapping import MappingCache
from repro.mapping import cache as cache_module
from repro.mapping.cache import (
    cache_file_info,
    decode_search_result,
    encode_search_result,
    normalize_key,
)

from ..conftest import make_tiny_workload


@pytest.fixture
def searched_cache(meta_df, fast_config):
    """A cache filled by one real evaluation, plus the schedule result."""
    cache = MappingCache()
    engine = DepthFirstEngine(meta_df, fast_config, cache=cache)
    result = engine.evaluate(
        make_tiny_workload(), DFStrategy(tile_x=8, tile_y=8)
    )
    return cache, result


class TestNormalizeKey:
    def test_tuples_canonicalize(self):
        key = (("conv", 8, 3), "meta:abc", (("I", 2), ("O", 1)), (5, 60, "energy"))
        text = normalize_key(key)
        assert isinstance(text, str)
        assert normalize_key(key) == text
        assert normalize_key(text) == text

    def test_distinct_keys_stay_distinct(self):
        assert normalize_key((1, 2)) != normalize_key((1, 3))


class TestRoundTrip:
    def test_encode_decode_identity(self, searched_cache):
        cache, _ = searched_cache
        assert len(cache) > 0
        for entry in cache.snapshot().values():
            clone = decode_search_result(
                json.loads(json.dumps(encode_search_result(entry)))
            )
            assert clone == entry

    def test_save_load_file(self, searched_cache, tmp_path):
        cache, _ = searched_cache
        path = tmp_path / "loma.json"
        cache.save(path)
        loaded = MappingCache(path)
        assert len(loaded) == len(cache)
        assert loaded.snapshot() == cache.snapshot()

    def test_stale_format_discarded_not_fatal(self, tmp_path):
        path = tmp_path / "stale.json"
        path.write_text(json.dumps({"format": 999, "entries": {}}))
        with pytest.warns(UserWarning, match="unsupported mapping-cache format"):
            cache = MappingCache(path)
        assert len(cache) == 0  # usable, just empty
        cache.save()  # rewrites the stale file in the current format
        assert json.loads(path.read_text())["format"] == 1

    def test_corrupt_file_discarded_not_fatal(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("not json{")
        with pytest.warns(UserWarning, match="not a mapping-cache file"):
            cache = MappingCache(path)
        assert len(cache) == 0

    def test_malformed_entry_discarded_not_fatal(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text(json.dumps({"format": 1, "entries": {"k": {}}}))
        with pytest.warns(UserWarning, match="malformed mapping-cache entry"):
            cache = MappingCache(path)
        assert len(cache) == 0

    def test_undecodable_entry_value_discarded_not_fatal(self, tmp_path):
        """Entry *values* that fail decoding (e.g. a non-int loop
        factor raising ValueError) are discarded like structural
        damage, never a traceback."""
        path = tmp_path / "bad_value.json"
        path.write_text(
            json.dumps(
                {
                    "format": 1,
                    "entries": {
                        "k": {"loops": [["K", "abc"]], "bounds": {}, "cost": {}}
                    },
                }
            )
        )
        with pytest.warns(UserWarning, match="malformed mapping-cache entry"):
            cache = MappingCache(path)
        assert len(cache) == 0

    def test_infinite_loop_factor_discarded_not_fatal(self, tmp_path):
        """JSON's ``Infinity`` parses to a float that no loop factor can
        be: a malformed entry, not an ``OverflowError`` traceback."""
        path = tmp_path / "inf.json"
        entry = {"loops": [["K", float("inf")]], "bounds": {}, "cost": {}}
        path.write_text(json.dumps({"format": 1, "entries": {"k": entry}}))
        with pytest.warns(UserWarning, match="malformed mapping-cache entry"):
            assert len(MappingCache(path)) == 0
        with pytest.raises(ValueError, match="malformed mapping-cache entry"):
            MappingCache().load(path, strict=True)
        assert cache_file_info(path)["status"] == "malformed-entries"

    def test_unreadable_path_discarded_not_fatal(self, tmp_path):
        """A cache path that is a directory (OSError on read) is
        discarded like any other unusable file."""
        with pytest.warns(UserWarning, match="not a mapping-cache file"):
            assert MappingCache().load(tmp_path) == 0

    def test_non_utf8_file_discarded_not_fatal(self, tmp_path):
        """Bytes that are not text are as unusable as text that is not
        JSON: a warning (or ``ValueError`` when strict), and ``corrupt``."""
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.warns(UserWarning, match="not a mapping-cache file"):
            assert len(MappingCache(path)) == 0
        with pytest.raises(ValueError, match="not a mapping-cache file"):
            MappingCache().load(path, strict=True)
        assert cache_file_info(path)["status"] == "corrupt"

    def test_strict_load_raises(self, tmp_path):
        path = tmp_path / "stale.json"
        path.write_text(json.dumps({"format": 999, "entries": {}}))
        with pytest.raises(ValueError, match="unsupported mapping-cache format"):
            MappingCache().load(path, strict=True)
        path.write_text("not json{")
        with pytest.raises(ValueError, match="not a mapping-cache file"):
            MappingCache().load(path, strict=True)

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError):
            MappingCache().save()

    def test_save_records_session_stats(self, searched_cache, tmp_path):
        cache, _ = searched_cache
        path = tmp_path / "loma.json"
        cache.save(path)
        payload = json.loads(path.read_text())
        assert payload["stats"] == {"hits": cache.hits, "misses": cache.misses}


class TestCollectorPause:
    """Reading a cache file pauses the cyclic garbage collector and
    leaves it as it found it, on every way out."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    @pytest.fixture
    def files(self, searched_cache, tmp_path):
        """A good file, a malformed one and a missing one."""
        good = searched_cache[0].save(tmp_path / "good.json")
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps({"format": 1, "entries": {"k": {}}}))
        return good, malformed, tmp_path / "missing.json"

    def test_entries_decode_paused(self, collector, files, monkeypatch):
        seen = []
        decode = cache_module.decode_search_result

        def spy(data):
            seen.append(gc.isenabled())
            return decode(data)

        monkeypatch.setattr(cache_module, "decode_search_result", spy)
        assert len(MappingCache(files[0])) == len(seen) > 0
        assert not any(seen)
        assert gc.isenabled() is collector

    def test_construct_and_load(self, collector, files):
        good, malformed, missing = files
        assert len(MappingCache(good)) > 0
        assert gc.isenabled() is collector
        assert len(MappingCache(missing)) == 0  # nothing to read
        assert gc.isenabled() is collector
        with pytest.warns(UserWarning, match="malformed mapping-cache entry"):
            assert len(MappingCache(malformed)) == 0
        assert gc.isenabled() is collector
        assert MappingCache().load(good) > 0
        assert gc.isenabled() is collector
        with pytest.warns(UserWarning, match="not a mapping-cache file"):
            assert MappingCache().load(missing) == 0
        assert gc.isenabled() is collector
        for path, match in ((malformed, "malformed"), (missing, "not a mapping")):
            with pytest.raises(ValueError, match=match):
                MappingCache().load(path, strict=True)
            assert gc.isenabled() is collector

    def test_save_merge_read(self, collector, files):
        good, malformed, missing = files
        for path in (good, malformed, missing):
            MappingCache().save(path)
            assert gc.isenabled() is collector
        assert cache_file_info(good)["entries"] > 0  # the merge read adopted them
        assert gc.isenabled() is collector


class TestSharing:
    def test_merge_and_delta(self, searched_cache):
        cache, _ = searched_cache
        other = MappingCache()
        assert other.merge(cache.snapshot()) == len(cache)
        assert other.merge(cache.snapshot()) == 0  # idempotent
        assert other.delta(cache.keys()) == {}
        assert set(other.delta(())) == other.keys()

    def test_stats_count_hits_and_misses(self, searched_cache):
        cache, _ = searched_cache
        stats = cache.stats
        assert stats["size"] == len(cache)
        assert stats["misses"] == len(cache)  # every entry was searched once
        assert stats["hits"] > 0  # tile types repeat layer shapes

    def test_clear_resets(self, searched_cache):
        cache, _ = searched_cache
        cache.clear()
        assert len(cache) == 0 and cache.stats == {
            "hits": 0,
            "misses": 0,
            "size": 0,
        }


class TestEviction:
    """LRU-ish ``max_entries`` pruning (ROADMAP cache-eviction item)."""

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            MappingCache(max_entries=0)

    def test_prune_keeps_most_recently_used(self):
        cache = MappingCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.put(key, object())
        assert cache.prune() == 1
        assert cache.keys() == {"b", "c"}

    def test_get_refreshes_recency(self):
        cache = MappingCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.put(key, object())
        cache.get("a")  # touch the oldest entry
        cache.prune()
        assert cache.keys() == {"c", "a"}

    def test_merge_refreshes_recency(self):
        """A harvested/loaded key counts as a use, like get/put — else
        save-time pruning would evict exactly what workers just hit."""
        cache = MappingCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.put(key, object())
        cache.merge({"a": object()})  # harvest refreshes 'a'
        cache.prune()
        assert cache.keys() == {"c", "a"}

    def test_prune_noop_under_bound(self):
        cache = MappingCache(max_entries=10)
        cache.put("a", object())
        assert cache.prune() == 0

    def test_save_prunes_to_bound(self, searched_cache, tmp_path):
        cache, _ = searched_cache
        assert len(cache) > 2
        bounded = MappingCache(max_entries=2)
        bounded.merge(cache.snapshot())
        path = tmp_path / "bounded.json"
        bounded.save(path)
        assert len(bounded) == 2
        assert len(json.loads(path.read_text())["entries"]) == 2


class TestFileInfo:
    """The ``repro cache-info`` backend."""

    def test_ok_file(self, searched_cache, tmp_path):
        from repro.mapping.cache import cache_file_info

        cache, _ = searched_cache
        path = tmp_path / "loma.json"
        cache.save(path)
        info = cache_file_info(path)
        assert info["status"] == "ok"
        assert info["format"] == 1
        assert info["entries"] == len(cache)
        assert info["size_bytes"] > 0
        assert info["stats"]["misses"] == cache.misses

    def test_missing_file(self, tmp_path):
        from repro.mapping.cache import cache_file_info

        assert cache_file_info(tmp_path / "nope.json")["status"] == "missing"

    def test_stale_version(self, tmp_path):
        from repro.mapping.cache import cache_file_info

        path = tmp_path / "stale.json"
        path.write_text(json.dumps({"format": 999, "entries": {"k": {}}}))
        info = cache_file_info(path)
        assert info["status"] == "stale-version"
        assert info["entries"] == 1

    def test_corrupt(self, tmp_path):
        from repro.mapping.cache import cache_file_info

        path = tmp_path / "corrupt.json"
        path.write_text("not json{")
        assert cache_file_info(path)["status"] == "corrupt"

    def test_malformed_entries_not_ok(self, tmp_path):
        """'ok' must mean load() would actually load every entry."""
        from repro.mapping.cache import cache_file_info

        path = tmp_path / "torn_entries.json"
        path.write_text(json.dumps({"format": 1, "entries": {"k": {}}}))
        assert cache_file_info(path)["status"] == "malformed-entries"


class TestWarmEngine:
    def test_disk_warm_engine_is_identical_with_zero_searches(
        self, meta_df, fast_config, searched_cache, tmp_path
    ):
        cache, cold_result = searched_cache
        path = tmp_path / "loma.json"
        cache.save(path)

        warm_cache = MappingCache(path)
        engine = DepthFirstEngine(meta_df, fast_config, cache=warm_cache)
        warm_result = engine.evaluate(
            make_tiny_workload(), DFStrategy(tile_x=8, tile_y=8)
        )
        assert warm_result.total == cold_result.total
        assert warm_result.strategy_label == cold_result.strategy_label
        assert warm_cache.misses == 0  # no new LOMA searches ran

    def test_engines_share_a_cache_handle(self, meta_df, fast_config):
        shared = MappingCache()
        first = DepthFirstEngine(meta_df, fast_config, cache=shared)
        first.evaluate(make_tiny_workload(), DFStrategy(tile_x=8, tile_y=8))
        searched = shared.misses

        second = DepthFirstEngine(meta_df, fast_config, cache=shared)
        assert second.cache is shared
        second.evaluate(make_tiny_workload(), DFStrategy(tile_x=8, tile_y=8))
        assert shared.misses == searched  # second engine searched nothing


class TestPrunedMerge:
    """Merging two caches that were both LRU-pruned via ``max_entries``
    (e.g. two long-lived cache files harvested into one)."""

    def test_merge_of_two_pruned_caches(self):
        a = MappingCache(max_entries=2)
        for key in ("a1", "a2", "a3"):
            a.put(key, object())
        assert a.prune() == 1  # keeps a2, a3

        b = MappingCache(max_entries=2)
        for key in ("b1", "b2", "b3"):
            b.put(key, object())
        assert b.prune() == 1  # keeps b2, b3

        assert a.merge(b.snapshot()) == 2
        assert a.keys() == {"a2", "a3", "b2", "b3"}
        # a's own bound still applies on the next prune/save, and the
        # merged keys count as the most recent uses.
        assert a.prune() == 2
        assert a.keys() == {"b2", "b3"}

    def test_pruned_merge_survives_save_load(
        self, searched_cache, tmp_path
    ):
        """Disk round trip of the merge of two pruned caches: every
        surviving entry must still decode."""
        cache, _ = searched_cache
        keys = sorted(cache.keys())
        assert len(keys) >= 2
        half = len(keys) // 2
        a = MappingCache(max_entries=max(1, half - 1))
        a.merge({k: v for k, v in cache.snapshot().items() if k in keys[:half]})
        a.prune()
        b = MappingCache(max_entries=max(1, half - 1))
        b.merge({k: v for k, v in cache.snapshot().items() if k in keys[half:]})
        b.prune()

        merged = MappingCache(max_entries=len(cache))
        merged.merge(a.snapshot())
        merged.merge(b.snapshot())
        path = tmp_path / "merged.json"
        merged.save(path)
        loaded = MappingCache(path)
        assert loaded.snapshot() == merged.snapshot()

    def test_overlapping_keys_take_the_incoming_entry(self):
        a = MappingCache(max_entries=2)
        old, new = object(), object()
        a.put("shared", old)
        assert a.merge({"shared": new}) == 0  # refreshed, not new
        assert a.snapshot()["shared"] is new


class TestFreshFileInfo:
    """`cache_file_info` / `repro cache-info` on empty or fresh files."""

    def test_fresh_save_of_empty_cache_is_ok(self, tmp_path):
        from repro.mapping.cache import cache_file_info

        path = tmp_path / "fresh.json"
        MappingCache(path).save()
        info = cache_file_info(path)
        assert info["status"] == "ok"
        assert info["entries"] == 0
        assert info["stats"] == {"hits": 0, "misses": 0}

    def test_zero_byte_file_is_corrupt_not_crash(self, tmp_path):
        from repro.mapping.cache import cache_file_info

        path = tmp_path / "empty.json"
        path.write_text("")
        assert cache_file_info(path)["status"] == "corrupt"
        # Loading it is non-fatal too (discard-with-warning contract).
        with pytest.warns(UserWarning, match="discarding stale"):
            assert MappingCache().load(path) == 0

    def test_cli_cache_info_on_fresh_file(self, tmp_path, capsys):
        from repro.cli import run_cache_info

        path = tmp_path / "fresh.json"
        MappingCache(path).save()
        assert run_cache_info([str(path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out and "status:  ok" in out

    def test_cli_cache_info_on_zero_byte_file(self, tmp_path, capsys):
        from repro.cli import run_cache_info

        path = tmp_path / "empty.json"
        path.write_text("")
        assert run_cache_info([str(path)]) == 1
        assert "corrupt" in capsys.readouterr().out


def _saver_main(path, me: int, per_proc: int, barrier) -> None:
    """Child-process body of the concurrent-save stress (module level:
    must be picklable)."""
    from ..serve.test_cache_server import make_result

    cache = MappingCache()
    for i in range(per_proc):
        cache.put(f"p{me}/k{i}", make_result(me * 100 + i))
    barrier.wait(timeout=30)
    cache.save(path)


class TestConcurrentSave:
    """Crash-safe persistence: atomic replace + merge-on-save, so two
    processes saving to one path never lose each other's entries."""

    @staticmethod
    def filled(entries: dict) -> MappingCache:
        cache = MappingCache()
        cache.merge(entries)
        return cache

    @staticmethod
    def result(seed: int):
        from ..serve.test_cache_server import make_result

        return make_result(seed)

    def test_two_savers_union(self, searched_cache, tmp_path):
        full, _ = searched_cache
        keys = sorted(full.keys())
        assert len(keys) >= 4
        snapshot = full.snapshot()
        half_a = {k: snapshot[k] for k in keys[: len(keys) // 2]}
        half_b = {k: snapshot[k] for k in keys[len(keys) // 2 :]}
        path = tmp_path / "shared.json"
        self.filled(half_a).save(path)
        self.filled(half_b).save(path)  # must not clobber half_a
        assert MappingCache(path).keys() == set(keys)

    def test_own_entry_wins_on_conflict(self, tmp_path):
        path = tmp_path / "conflict.json"
        old, new = self.result(1), self.result(2)
        self.filled({"k": old, "only_disk": old}).save(path)
        mine = self.filled({"k": new})
        mine.save(path)
        assert mine.snapshot()["k"] == new  # not overwritten by disk
        assert mine.keys() == {"k", "only_disk"}  # but disk-only adopted
        assert MappingCache(path).snapshot()["k"] == new

    def test_merge_opt_out(self, searched_cache, tmp_path):
        full, _ = searched_cache
        path = tmp_path / "plain.json"
        full.save(path)
        fresh = MappingCache()
        fresh.save(path, merge=False)
        assert json.loads(path.read_text())["entries"] == {}

    def test_adopted_entries_are_oldest_for_pruning(self, tmp_path):
        path = tmp_path / "lru.json"
        self.filled({"disk1": self.result(1), "disk2": self.result(2)}).save(path)
        mine = MappingCache(max_entries=2)
        mine.put("mine1", self.result(3))
        mine.put("mine2", self.result(4))
        mine.save(path)
        # The bound keeps this cache's own (recently used) entries and
        # evicts the adopted disk ones first.
        assert mine.keys() == {"mine1", "mine2"}

    def test_unusable_existing_file_is_ignored(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json{")
        cache = self.filled({"k": self.result(1)})
        cache.save(path)  # no warning channel needed: merge reads best-effort
        assert MappingCache(path).keys() == {"k"}

    def test_no_temp_litter(self, searched_cache, tmp_path):
        full, _ = searched_cache
        path = tmp_path / "clean.json"
        full.save(path)
        full.save(path)
        # Only the cache file and its persistent inter-process lock
        # remain — never a *.tmp.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clean.json",
            "clean.json.lock",
        ]

    def test_parallel_process_savers_lose_nothing(self, tmp_path):
        """The acceptance property, for real: several processes saving
        disjoint entries to one path at the same time — the final file
        holds the union (flock serializes the read-merge-write)."""
        import multiprocessing as mp

        path = tmp_path / "contended.json"
        n_procs, per_proc = 4, 6
        barrier = mp.Barrier(n_procs)
        procs = [
            mp.Process(target=_saver_main, args=(path, me, per_proc, barrier))
            for me in range(n_procs)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert MappingCache(path).keys() == {
            f"p{me}/k{i}" for me in range(n_procs) for i in range(per_proc)
        }
