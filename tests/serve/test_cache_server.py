"""CacheServer/CacheClient tests: protocol round-trips, the drop-in
MappingCache surface, persistence, and multi-client coherence."""

import json
import socket
import threading

import pytest

from repro import obs
from repro.mapping.cache import MappingCache, cache_file_info
from repro.mapping.cost import CostResult, Traffic
from repro.mapping.loma import SearchResult
from repro.mapping.temporal import TemporalMapping
from repro.serve import (
    CacheClient,
    CacheServer,
    CacheServerError,
    cache_server,
    format_address,
    parse_address,
)


def make_result(seed: int) -> SearchResult:
    """A small, distinct, encodable search result."""
    cost = CostResult(
        mac_count=100 + seed,
        mac_energy_pj=float(seed),
        compute_cycles=10 * seed + 1,
        latency_cycles=20 * seed + 2,
    )
    cost.traffic[("I", 0)] = Traffic(seed, seed + 1, float(seed) / 2)
    return SearchResult(
        mapping=TemporalMapping(
            loops=(("K", seed + 1),), boundaries={"I": (0, 1)}
        ),
        cost=cost,
        evaluated=seed,
    )


@pytest.fixture
def server():
    with CacheServer() as srv:
        yield srv


@pytest.fixture
def client(server):
    with CacheClient(server.address) as cli:
        yield cli


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("localhost:8421") == ("localhost", 8421)

    def test_tuple_passthrough(self):
        assert parse_address(("10.0.0.1", "99")) == ("10.0.0.1", 99)

    def test_format_roundtrip(self):
        assert parse_address(format_address(("h", 5))) == ("h", 5)

    @pytest.mark.parametrize(
        "bad",
        ["nohost", ":123", "h:port", "h:", "h:70000", "h:0", "h:-1", ("h", 70000)],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address(bad)


class TestServerLifecycle:
    def test_start_is_idempotent(self, server):
        assert server.start() is server
        assert server.running

    def test_stop_is_idempotent(self):
        srv = CacheServer().start()
        srv.stop()
        srv.stop()
        assert not srv.running

    def test_address_reports_picked_port(self, server):
        host, port = server.address
        assert host == "127.0.0.1"
        assert port > 0
        assert server.describe() == f"127.0.0.1:{port}"

    def test_snapshot_interval_requires_path(self):
        with pytest.raises(ValueError, match="snapshot_path"):
            CacheServer(snapshot_interval=1.0)
        with pytest.raises(ValueError, match="snapshot_interval"):
            CacheServer(snapshot_path="x.json", snapshot_interval=0.0)


class TestClientBasics:
    def test_ping(self, client):
        assert client.ping() == 0

    def test_get_miss_then_put_then_hit(self, client, server):
        key = ("layer", "accel", 1)
        assert client.get(key) is None
        assert client.misses == 1
        entry = make_result(3)
        client.put(key, entry)
        assert client.get(key) == entry
        assert client.hits == 1
        assert len(server.cache) == 1

    def test_local_read_cache_spares_the_server(self, client, server):
        key = "k"
        client.put(key, make_result(1))
        before = server.requests["get"]
        for _ in range(5):
            assert client.get(key) is not None
        assert server.requests["get"] == before  # all served locally

    def test_connect_failure_raises(self):
        port = free_port()  # nothing listening here
        with pytest.raises(CacheServerError, match="unreachable"):
            CacheClient(("127.0.0.1", port))

    def test_request_after_shutdown_raises(self):
        srv = CacheServer().start()
        cli = CacheClient(srv.address)
        cli.shutdown_server()
        for _ in range(50):  # the handler thread stops the server async
            if not srv.running:
                break
            threading.Event().wait(0.05)
        assert not srv.running
        with pytest.raises(CacheServerError):
            cli.ping()

    def test_unknown_op_is_reported_not_fatal(self, client):
        with pytest.raises(CacheServerError, match="unknown cache-server op"):
            client._request({"op": "frobnicate"})
        assert client.ping() == 0  # connection still usable

    @pytest.mark.parametrize("op", ["put_many", "snapshot", "keys", "metrics"])
    def test_bulk_table_ops_are_gone(self, client, op):
        """Clients read and write one key at a time: no op ships or
        lists the whole table."""
        with pytest.raises(CacheServerError, match="unknown cache-server op"):
            client._request({"op": op})

    def test_non_object_request_is_reported(self, server):
        with socket.create_connection(server.address) as sock:
            sock.sendall(b"[1,2,3]\n")
            response = json.loads(sock.makefile().readline())
        assert response["ok"] is False
        assert "JSON object" in response["error"]

    def test_client_latency_histograms_recorded(self):
        obs.reset()
        obs.enable()
        try:
            with CacheServer() as server:
                with CacheClient(server.address) as client:
                    client.get("missing")
                    client.put("k", make_result(1))
                    client.clear()  # local-only: force a server hit
                    client.get("k")
            registry = obs.metrics()
            gets = registry.get("cache_client_get_seconds")
            assert gets is not None and gets.count == 2
            assert registry.value("cache_client_gets_total", result="hit") == 1
            assert registry.value("cache_client_gets_total", result="miss") == 1
            puts = registry.get("cache_client_put_seconds")
            assert puts is not None and puts.count == 1
        finally:
            obs.reset()


class TestMappingCacheSurface:
    """CacheClient must be a drop-in for MappingCache everywhere the
    engines and executors touch one."""

    def test_stats_shape(self, client):
        client.put("k", make_result(1))
        client.get("k")
        client.get("missing")
        assert client.stats == {"hits": 1, "misses": 1, "size": 1}

    def test_server_stats_shape(self, client):
        client.put("k", make_result(1))
        client.get("missing")
        stats = client.server_stats()
        assert stats == {
            "size": 1,
            "hits": 0,
            "misses": 1,
            "requests": {"get": 1, "put": 1},
            "snapshots_written": 0,
            "unauthorized": 0,
        }

    def test_clear_is_local_only(self, client, server):
        client.put("k", make_result(1))
        client.get("missing")
        client.clear()
        assert client.stats["hits"] == 0 and client.stats["misses"] == 0
        assert len(server.cache) == 1  # the shared table is untouched
        assert client.get("k") == make_result(1)  # re-fetched remotely

    def test_local_read_cache_is_bounded(self, server, monkeypatch):
        """A long-lived client's memory stays flat: the local read
        cache evicts oldest-first at LOCAL_BOUND; evicted keys simply
        re-fetch from the server."""
        monkeypatch.setattr(cache_server, "LOCAL_BOUND", 2)
        with CacheClient(server.address) as cli:
            for i in range(5):
                cli.put(f"k{i}", make_result(i))
            assert len(cli._local) == 2
            assert cli.get("k0") == make_result(0)  # still correct

    def test_structured_keys_normalize_like_mapping_cache(self, client, server):
        structured = (("conv", 8, 3), "meta:abc", (("I", 2),), (5, 60))
        client.put(structured, make_result(7))
        # The server's table holds the same normalized key a local
        # MappingCache would use, so disk snapshots stay compatible.
        local = MappingCache()
        local.put(structured, make_result(7))
        assert server.cache.keys() == local.keys()
        assert client.get(structured) == make_result(7)


class TestPersistence:
    def test_save_op_writes_loadable_file(self, tmp_path, server, client):
        client.put("k", make_result(2))
        target = tmp_path / "snap.json"
        written = client.save(target)
        assert written == target
        assert cache_file_info(target)["status"] == "ok"
        assert MappingCache(target).get("k") == make_result(2)

    def test_save_without_any_path_raises(self, client):
        with pytest.raises(CacheServerError, match="snapshot path"):
            client.save()

    def test_periodic_snapshot(self, tmp_path):
        target = tmp_path / "periodic.json"
        cache = MappingCache()
        with CacheServer(
            cache=cache, snapshot_path=target, snapshot_interval=0.05
        ) as srv:
            with CacheClient(srv.address) as cli:
                cli.put("k", make_result(1))
                for _ in range(100):
                    if srv.snapshots_written and target.exists():
                        break
                    threading.Event().wait(0.05)
        assert srv.snapshots_written >= 1
        assert cache_file_info(target)["status"] == "ok"

    def test_final_snapshot_on_stop(self, tmp_path):
        target = tmp_path / "final.json"
        srv = CacheServer(snapshot_path=target).start()
        with CacheClient(srv.address) as cli:
            cli.put("k", make_result(9))
        srv.stop()
        assert MappingCache(target).get("k") == make_result(9)

    def test_fronted_cache_is_live(self):
        """Entries put through the wire land in the fronted handle
        immediately — the executor harvests nothing, it already has
        everything."""
        mine = MappingCache()
        with CacheServer(cache=mine) as srv:
            with CacheClient(srv.address) as cli:
                cli.put("live", make_result(5))
                assert mine.get("live") == make_result(5)


class TestCoherenceStress:
    N_CLIENTS = 8
    KEYS_PER_CLIENT = 12

    def test_many_clients_converge_to_serial_union(self, server):
        """Many clients hammer one server: every client writes its own
        shard of keys and reads everyone else's.  The final table must
        equal the serial union, and reads of other clients' keys must
        be server-side hits (intra-run cross-worker sharing)."""
        barrier = threading.Barrier(self.N_CLIENTS)
        errors: list = []
        fetched: dict[int, dict] = {}

        def worker(me: int) -> None:
            try:
                with CacheClient(server.address) as cli:
                    for i in range(self.KEYS_PER_CLIENT):
                        cli.put(f"c{me}/k{i}", make_result(me * 1000 + i))
                    barrier.wait(timeout=30)
                    got = {}
                    for other in range(self.N_CLIENTS):
                        for i in range(self.KEYS_PER_CLIENT):
                            got[(other, i)] = cli.get(f"c{other}/k{i}")
                    fetched[me] = got
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(me,))
            for me in range(self.N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors

        # Final table == the serial union of every client's writes.
        union = MappingCache()
        for me in range(self.N_CLIENTS):
            for i in range(self.KEYS_PER_CLIENT):
                union.put(f"c{me}/k{i}", make_result(me * 1000 + i))
        assert server.cache.keys() == union.keys()
        assert server.cache.snapshot() == union.snapshot()

        # Every client observed every other client's entries, live.
        for me, got in fetched.items():
            for (other, i), entry in got.items():
                assert entry == make_result(other * 1000 + i)
        # A client only asks the server for keys it did not produce, so
        # cross-client reads are server-side hits by construction.
        expected_cross_reads = (
            self.N_CLIENTS * (self.N_CLIENTS - 1) * self.KEYS_PER_CLIENT
        )
        assert server.cache.hits >= expected_cross_reads
