"""Shareable, optionally persistent store of mapping-search results.

:class:`MappingCache` extracts the memo dict that used to live inside
:class:`~repro.mapping.loma.MappingSearchEngine` into a first-class
object that can be

* shared between engines (all engines built from one cache handle see
  each other's results, e.g. across the accelerators of a sweep);
* snapshotted and merged (the parallel executor pre-warms worker
  processes from the parent cache and harvests their new entries back);
* persisted to disk as JSON and re-loaded in a later run, so repeated
  sweeps and benchmark re-runs skip the LOMA search entirely.

Keys are produced by the search engine (layer shape, accelerator
fingerprint, truncated tops, search config) and contain only primitives
and nested tuples; they are canonicalized to JSON strings so the same
logical key is stable across processes and runs.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import warnings
from pathlib import Path
from typing import Hashable, Iterable, Mapping

from .. import atomic, collector, obs

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from .cost import CostResult, Traffic
from .loma import SearchResult, normalize_key
from .temporal import TemporalMapping

#: On-disk format version; bump when the entry encoding changes.
FORMAT_VERSION = 1


def encode_search_result(result: SearchResult) -> dict:
    """JSON-serializable form of a :class:`SearchResult`."""
    cost = result.cost
    return {
        "loops": [[dim, factor] for dim, factor in result.mapping.loops],
        "bounds": {
            op: list(bounds) for op, bounds in result.mapping.boundaries.items()
        },
        "cost": {
            "mac_count": cost.mac_count,
            "mac_energy_pj": cost.mac_energy_pj,
            "compute_cycles": cost.compute_cycles,
            "latency_cycles": cost.latency_cycles,
            "traffic": [
                [category, level, t.reads_elems, t.writes_elems, t.energy_pj]
                for (category, level), t in cost.traffic.items()
            ],
        },
        "evaluated": result.evaluated,
    }


def decode_search_result(data: Mapping) -> SearchResult:
    """Inverse of :func:`encode_search_result`."""
    mapping = TemporalMapping(
        loops=tuple((dim, int(factor)) for dim, factor in data["loops"]),
        boundaries={
            op: tuple(int(b) for b in bounds)
            for op, bounds in data["bounds"].items()
        },
    )
    raw = data["cost"]
    cost = CostResult(
        mac_count=raw["mac_count"],
        mac_energy_pj=raw["mac_energy_pj"],
        compute_cycles=raw["compute_cycles"],
        latency_cycles=raw["latency_cycles"],
    )
    for category, level, reads, writes, energy in raw["traffic"]:
        cost.traffic[(category, level)] = Traffic(reads, writes, energy)
    return SearchResult(
        mapping=mapping, cost=cost, evaluated=int(data.get("evaluated", 0))
    )


class _UnusableFile(ValueError):
    """A mapping-cache file that cannot be loaded as a whole.
    ``status`` is :func:`cache_file_info`'s word for why, and
    ``payload`` the parsed JSON when parsing got that far."""

    def __init__(self, status: str, message: str, payload: object = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload


def _decode_file(source: Path) -> tuple[dict[str, SearchResult], dict]:
    """Parse a mapping-cache file and decode every entry: ``(entries,
    stats)``, with the hit/miss stats its last save recorded, or
    :class:`_UnusableFile`.  The one reader of cache files:
    :meth:`MappingCache.load`, the merge read of :meth:`MappingCache.save`
    and :func:`cache_file_info` all call it.

    The cyclic garbage collector is paused while it runs
    (:func:`repro.collector.paused`).  Parsing and decoding allocate
    about ten tracked objects per entry and free none of them, so the
    collections they trigger find nothing; on a 3,242-entry file they
    took about half of the load (DESIGN.md §5.6).  The parse tree lives
    only in :func:`_parse_file`'s frame, so it is freed before the
    collector resumes.
    """
    with collector.paused():
        return _parse_file(source)


def _parse_file(source: Path) -> tuple[dict[str, SearchResult], dict]:
    """:func:`_decode_file`'s work, with the collector paused."""
    try:
        payload = json.loads(source.read_text())
    except (OSError, ValueError) as exc:  # unreadable, not text, not JSON
        raise _UnusableFile(
            "corrupt", f"{source}: not a mapping-cache file: {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_VERSION:
        version = payload.get("format") if isinstance(payload, dict) else None
        raise _UnusableFile(
            "stale-version",
            f"{source}: unsupported mapping-cache format "
            f"{version!r} (expected {FORMAT_VERSION})",
            payload,
        )
    try:
        entries = {
            key: decode_search_result(data)
            for key, data in payload["entries"].items()
        }
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise _UnusableFile(
            "malformed-entries",
            f"{source}: malformed mapping-cache entry: {exc!r}",
            payload,
        ) from exc
    stats = payload.get("stats")
    return entries, stats if isinstance(stats, dict) else {}


@contextlib.contextmanager
def _save_lock(target: Path):
    """Exclusive inter-process lock for the read-merge-write of
    :meth:`MappingCache.save`: an ``flock`` on a persistent ``.lock``
    sibling (the target itself cannot carry the lock — ``os.replace``
    swaps its inode out from under any holder).  The lock file stays
    behind deliberately: unlinking it would reopen the very race it
    closes.  On platforms without ``fcntl`` saving proceeds unlocked
    (merge-on-save still narrows the window, best-effort)."""
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    fd = os.open(
        target.with_name(target.name + ".lock"),
        os.O_CREAT | os.O_RDWR,
        0o644,
    )
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


class MappingCache:
    """Keyed store of LOMA search results with optional JSON persistence.

    Parameters
    ----------
    path:
        Optional backing file.  When given and the file exists, its
        entries are loaded immediately; :meth:`save` without arguments
        writes back to the same file.  A stale file (older
        ``FORMAT_VERSION``, torn write, malformed entries) is discarded
        with a warning rather than crashing — the next :meth:`save`
        rewrites it in the current format.
    max_entries:
        Optional capacity bound.  Entries are kept in recency order
        (both lookups and inserts refresh a key); :meth:`save` prunes
        to the ``max_entries`` most recently used before writing, so
        long-lived cache files cannot grow without bound.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        max_entries: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        # A MappingCache is externally synchronized: engines use a
        # private instance single-threaded, and the shared instance a
        # CacheServer fronts is only ever touched under the server's
        # table lock (every _op_* body runs inside `with self._lock`).
        self._entries: dict[str, SearchResult] = {}  # guarded-by: <owner>
        self.hits = 0  # guarded-by: <owner>
        self.misses = 0  # guarded-by: <owner>
        self.max_entries = max_entries
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists():
            self.load(self.path)

    # ------------------------------------------------------------------
    # Dict-like core
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> SearchResult | None:
        """Look up a search result, counting hit/miss statistics."""
        text = normalize_key(key)
        entry = self._entries.get(text)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
            # Refresh recency (dict order is the LRU order).
            self._entries[text] = self._entries.pop(text)
        if obs.enabled:
            obs.metrics().counter(
                "mapping_cache_gets_total",
                result="miss" if entry is None else "hit",
            ).inc()
        return entry

    def put(self, key: Hashable, result: SearchResult) -> None:
        text = normalize_key(key)
        self._entries.pop(text, None)
        self._entries[text] = result

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return normalize_key(key) in self._entries

    def keys(self) -> set[str]:
        """The set of (normalized) keys currently stored."""
        return set(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters (misses == LOMA searches actually run)."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}

    def prune(self, max_entries: int | None = None) -> int:
        """Evict least-recently-used entries beyond ``max_entries``
        (default: the instance's bound); returns how many were evicted."""
        bound = max_entries if max_entries is not None else self.max_entries
        if bound is None or len(self._entries) <= bound:
            return 0
        evict = len(self._entries) - bound
        for key in list(self._entries)[:evict]:
            del self._entries[key]
        return evict

    # ------------------------------------------------------------------
    # Sharing between caches / processes
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, SearchResult]:
        """Shallow copy of the entries (for pre-warming worker caches)."""
        return dict(self._entries)

    def merge(self, entries: Mapping[str, SearchResult]) -> int:
        """Adopt entries from another cache; returns how many were new.

        Merged keys count as uses: a worker harvest or disk load
        refreshes their recency, like :meth:`get`/:meth:`put`, so
        ``max_entries`` pruning never favours stale entries over ones
        the workers just hit.
        """
        t0 = time.monotonic() if obs.enabled else 0.0
        new = 0
        for key, result in entries.items():
            if key in self._entries:
                del self._entries[key]
            else:
                new += 1
            self._entries[key] = result
        if obs.enabled:
            registry = obs.metrics()
            registry.histogram("mapping_cache_merge_seconds").observe(
                time.monotonic() - t0
            )
            registry.counter("mapping_cache_merged_entries_total").inc(new)
        return new

    def delta(self, baseline: Iterable[str]) -> dict[str, SearchResult]:
        """Entries whose keys are not in ``baseline`` (worker harvest)."""
        base = set(baseline)
        return {k: v for k, v in self._entries.items() if k not in base}

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path | None = None, merge: bool = True) -> Path:
        """Write all entries as JSON; returns the path written.

        The write is crash- and concurrency-safe: the payload lands in a
        process-unique temp file first and is moved into place with
        ``os.replace`` (:func:`repro.atomic.write_text`), so readers
        never observe a torn file.  With ``merge`` (the default),
        entries already on disk that this cache does not know are
        adopted before writing, and the whole read-merge-write runs
        under an exclusive inter-process lock (a
        ``.lock`` sibling file) — two processes saving to the same path
        therefore never lose each other's results (this cache's own
        entry wins when both hold the same key).  Adopted entries rank
        as least-recently-used, so they are the first to go when
        ``max_entries`` pruning kicks in.  The payload also records
        this session's hit/miss counters so ``repro cache-info`` can
        report them later.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("MappingCache has no backing path; pass one")
        target.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.ExitStack() as stack:
            if merge:
                stack.enter_context(_save_lock(target))
                if target.exists():
                    on_disk = self._read_entries(target)
                    disk_only = {
                        key: result
                        for key, result in on_disk.items()
                        if key not in self._entries
                    }
                    if disk_only:
                        disk_only.update(self._entries)
                        self._entries = disk_only
            self.prune()
            payload = {
                "format": FORMAT_VERSION,
                "stats": {"hits": self.hits, "misses": self.misses},
                "entries": {
                    key: encode_search_result(result)
                    for key, result in self._entries.items()
                },
            }
            atomic.write_text(target, json.dumps(payload))
        return target

    @staticmethod
    def _read_entries(path: Path) -> dict[str, SearchResult]:
        """Best-effort decode of a cache file's entries (for the
        merge-on-save read); anything unusable reads as empty."""
        try:
            return _decode_file(path)[0]
        except _UnusableFile:
            return {}

    def load(
        self, path: str | Path | None = None, strict: bool = False
    ) -> int:
        """Merge entries from a JSON file; returns how many were loaded.

        A file that cannot be used — unreadable, not JSON, a different
        ``FORMAT_VERSION``, or malformed entries — is *discarded*: the
        cache stays usable (and a later :meth:`save` rewrites the file
        in the current format).  Pass ``strict=True`` to raise
        ``ValueError`` instead.
        """
        source = Path(path) if path is not None else self.path
        if source is None:
            raise ValueError("MappingCache has no backing path; pass one")
        try:
            entries, _ = _decode_file(source)
        except _UnusableFile as exc:
            return self._reject(str(exc), strict)
        return self.merge(entries)

    @staticmethod
    def _reject(message: str, strict: bool) -> int:
        """Handle an unusable cache file: raise (strict) or discard."""
        if strict:
            raise ValueError(message)
        warnings.warn(f"discarding stale mapping cache: {message}", stacklevel=3)
        return 0


def cache_file_info(path: str | Path) -> dict:
    """Inspect a mapping-cache file, validating that it would load
    (every entry is decoded, so the call is O(entries)).

    Returns a dict with ``path``, ``size_bytes``, ``format``,
    ``entries``, the ``stats`` recorded at the last save, and a
    ``status`` of ``"ok"``, ``"stale-version"``, ``"malformed-entries"``,
    ``"corrupt"`` or ``"missing"`` (the ``repro cache-info`` backend).
    ``"ok"`` means :meth:`MappingCache.load` would load every entry.
    """
    source = Path(path)
    info: dict = {
        "path": str(source),
        "size_bytes": 0,
        "format": None,
        "entries": 0,
        "stats": {},
        "status": "missing",
    }
    if not source.exists():
        return info
    info["size_bytes"] = source.stat().st_size
    try:
        entries, stats = _decode_file(source)
    except _UnusableFile as exc:
        payload = exc.payload
        if not isinstance(payload, dict) or not isinstance(
            payload.get("entries"), dict
        ):
            info["status"] = "corrupt"
            return info
        stats = payload.get("stats")
        info.update(
            format=payload.get("format"),
            entries=len(payload["entries"]),
            stats=stats if isinstance(stats, dict) else {},
            status=exc.status,
        )
        return info
    info.update(format=FORMAT_VERSION, entries=len(entries), stats=stats, status="ok")
    return info
