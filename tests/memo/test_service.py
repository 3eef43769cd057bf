"""Service integration: server/client round trips and the degradation path.

The shared memo is an optimization layer, so the tests here split in two:
the happy path (clean keys survive a socket round trip, the server rejects
malformed requests without dying) and the *unhappy* path — a dead or dying
server must degrade workers to their local memo without changing campaign
output.
"""

import os
import socket
import struct
import threading

import pytest

from repro.memo import MemoClient, MemoServer
from repro.memo.client import parse_address
from repro.memo.wire import recv_frame, send_frame

K1 = b"\x01" * 20
K2 = b"\x02" * 20


@pytest.fixture
def server():
    srv = MemoServer()
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    c = MemoClient(server.address_str)
    yield c
    c.close()


class TestParseAddress:
    def test_round_trip(self):
        assert parse_address("127.0.0.1:9009") == ("127.0.0.1", 9009)

    @pytest.mark.parametrize(
        "bad", ["localhost", ":9009", "host:", "host:abc", "host:0", "host:70000"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


class TestRoundTrip:
    def test_lookup_miss_then_publish_then_hit(self, client):
        assert client.lookup(K1) is False
        assert client.publish(K1)
        assert client.lookup(K1) is True
        assert client.lookup(K2) is False

    def test_publish_reaches_the_server_table(self, server, client):
        assert client.publish(K1)
        stats = server.table.stats()
        assert stats["entries"] == 1
        assert stats["publishes"] == 1
        assert K1.hex() in server.table

    def test_two_clients_share_one_table(self, server):
        a = MemoClient(server.address_str)
        b = MemoClient(server.address_str)
        try:
            a.publish(K1)
            assert b.lookup(K1) is True
        finally:
            a.close()
            b.close()

    def test_concurrent_clients(self, server):
        """Racing publishers converge: the table is shared and idempotent."""
        errors = []

        def hammer(seed):
            c = MemoClient(server.address_str)
            try:
                for i in range(20):
                    key = bytes([seed]) * 4 + struct.pack(">I", i % 5)
                    c.publish(key)
                    if c.lookup(key) is not True:
                        errors.append((seed, i))
            finally:
                c.close()

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # 4 seeds x 5 distinct suffixes, deduped across publishes.
        assert server.table.stats()["entries"] == 20


class TestServerValidation:
    def _raw(self, server, request):
        with socket.create_connection(server.address, timeout=2.0) as sock:
            send_frame(sock, request)
            return recv_frame(sock)

    def test_unknown_op(self, server):
        for op in ("evict-everything", "stats", "ping"):
            response = self._raw(server, {"op": op})
            assert response["ok"] is False
            assert "unknown op" in response["error"]

    @pytest.mark.parametrize(
        "key", [None, "", 7, "ab" * 200]  # missing, empty, non-str, oversized
    )
    def test_bad_key_rejected(self, server, key):
        request = {"op": "lookup"}
        if key is not None:
            request["key"] = key
        response = self._raw(server, request)
        assert response == {"ok": False, "error": "bad key"}

    def test_frame_error_drops_connection_not_server(self, server, client):
        with socket.create_connection(server.address, timeout=2.0) as sock:
            payload = b"not json at all"
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            # The server closes this connection without replying ...
            assert sock.recv(1) == b""
        # ... and keeps serving everyone else.
        assert client.publish(K1)
        assert server.frame_errors == 1


class TestDegradation:
    def test_dead_address_disables_client(self):
        # Bind-then-close guarantees a refused port (nothing listening).
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = MemoClient(f"127.0.0.1:{port}", max_failures=3)
        for _ in range(3):
            assert client.ok
            # A request whose both attempts fail raises for its caller
            # to count.
            with pytest.raises(OSError):
                client.lookup(K1)
        assert not client.ok
        # Degraded calls are pure misses, instantly, forever.
        assert client.lookup(K1) is False
        assert not client.publish(K1)

    def test_success_resets_failure_count(self, server):
        client = MemoClient(server.address_str, max_failures=2)
        try:
            assert client.publish(K1)
            # Kill the persistent connection under the client: attempt one
            # fails, attempt two reconnects — no consecutive failure.
            client._sock.close()
            assert client.lookup(K1) is True
            assert client.ok
        finally:
            client.close()

    def test_server_restart_survived_by_retry(self):
        srv = MemoServer()
        srv.start()
        client = MemoClient(srv.address_str)
        try:
            assert client.publish(K1)
            port = srv.port
            srv.stop()
            # Same port, fresh table: the client's stale persistent socket
            # fails once, and the in-call retry lands on the new server.
            srv = MemoServer(port=port)
            srv.start()
            assert client.lookup(K1) is False
            assert client.publish(K1)
            assert client.ok
        finally:
            client.close()
            srv.stop()

    def test_stop_refuses_connections_despite_an_inherited_listener(self):
        """Forked workers hold a copy of the listening socket; stop() must
        still refuse new connections at once, not leave a silent backlog
        that costs every request its full timeout."""
        srv = MemoServer()
        srv.start()
        inherited = os.dup(srv._sock.fileno())  # what a fork leaves behind
        try:
            srv.stop()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(srv.address, timeout=1.0).close()
        finally:
            os.close(inherited)

    def test_server_killed_mid_stream_degrades(self):
        srv = MemoServer()
        srv.start()
        client = MemoClient(srv.address_str, max_failures=3)
        try:
            assert client.publish(K1)
            srv.stop()
            for _ in range(3):
                with pytest.raises(OSError):
                    client.lookup(K1)
            assert not client.ok
            assert client.lookup(K1) is False
        finally:
            client.close()
            srv.stop()
