"""Cache-server auth (shared-secret token)."""

from __future__ import annotations

import json
import socket

import pytest

from repro.serve import (
    AUTH_TOKEN_ENV,
    CacheClient,
    CacheServer,
    CacheServerError,
)

from .test_cache_server import make_result

TOKEN = "tok-123"


@pytest.fixture
def auth_server(monkeypatch):
    # The client falls back to the env token, so tests must control it.
    monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
    with CacheServer(auth_token=TOKEN) as srv:
        yield srv


def raw_request(address, payload: dict) -> dict:
    with socket.create_connection(address) as sock:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        return json.loads(sock.makefile().readline())


class TestAuth:
    def test_missing_token_rejected_cleanly(self, auth_server):
        response = raw_request(auth_server.address, {"op": "ping"})
        assert response["ok"] is False
        assert response["unauthorized"] is True
        assert "authentication failed" in response["error"]
        assert AUTH_TOKEN_ENV in response["error"]  # remediation hint

    def test_wrong_token_rejected(self, auth_server):
        response = raw_request(
            auth_server.address, {"op": "ping", "token": "nope"}
        )
        assert response["ok"] is False
        assert response["unauthorized"] is True

    def test_client_without_token_fails_fast(self, auth_server):
        with pytest.raises(CacheServerError, match="authentication failed"):
            CacheClient(auth_server.address)

    def test_token_client_full_surface(self, auth_server):
        with CacheClient(auth_server.address, token=TOKEN) as client:
            assert client.get("k") is None
            client.put("k", make_result(1))
            assert client.get("k") == make_result(1)
            stats = client.server_stats()
            assert stats["size"] == 1

    def test_env_token_fallback(self, auth_server, monkeypatch):
        monkeypatch.setenv(AUTH_TOKEN_ENV, TOKEN)
        with CacheClient(auth_server.address) as client:
            assert client.ping() == 0

    def test_explicit_token_beats_env(self, auth_server, monkeypatch):
        monkeypatch.setenv(AUTH_TOKEN_ENV, "stale-env-token")
        with pytest.raises(CacheServerError, match="authentication failed"):
            CacheClient(auth_server.address)  # env token is wrong
        with CacheClient(auth_server.address, token=TOKEN) as client:
            assert client.ping() == 0

    def test_stats_op_honors_auth(self, auth_server):
        response = raw_request(auth_server.address, {"op": "stats"})
        assert response["ok"] is False
        assert response["unauthorized"] is True

    def test_unauthorized_counter_in_stats(self, auth_server):
        raw_request(auth_server.address, {"op": "ping"})
        raw_request(auth_server.address, {"op": "get", "key": "k"})
        with CacheClient(auth_server.address, token=TOKEN) as client:
            assert client.server_stats()["unauthorized"] == 2

    def test_open_server_ignores_tokens(self):
        with CacheServer() as server:  # no auth configured
            response = raw_request(
                server.address, {"op": "ping", "token": "anything"}
            )
            assert response["ok"] is True

