"""ServeClient resilience against scripted fake servers: connect
retries inside a total budget, idempotent-request retries across
dropped and garbled exchanges, hedged reads, and the CLI's exit-2
contract when the service stays unreachable."""

import json
import socket
import threading
import time
from collections import deque

import pytest

from repro import cli, faults
from repro.serve.client import ServeClient


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    previous = faults.install(None)
    yield
    faults.install(previous)


class ScriptedServer:
    """A listener that hands each accepted connection, in order, to the
    next scripted handler.  Handlers run on their own threads so a slow
    primary never blocks the hedge connection."""

    def __init__(self, *handlers):
        self._handlers = list(handlers)
        self.received = []
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.host, self.port = self.sock.getsockname()
        threading.Thread(target=self._accept, daemon=True,
                         name="scripted-accept").start()

    def _accept(self):
        for handler in self._handlers:
            try:
                conn, _addr = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn, handler),
                             daemon=True, name="scripted-conn").start()

    def _serve(self, conn, handler):
        try:
            with conn:
                handler(self, conn)
        except Exception:
            pass

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()


def _read_request(server, conn):
    line = conn.makefile("rb").readline()
    if not line:
        return None
    request = json.loads(line.decode("utf-8"))
    server.received.append(request)
    return request


def drop_after_read(server, conn):
    """Accept the request, then close without responding — the shape a
    crashing or restarting server presents mid-exchange."""
    _read_request(server, conn)


def respond(extra=None, delay=0.0):
    def handler(server, conn):
        request = _read_request(server, conn)
        if request is None:
            return
        if delay:
            time.sleep(delay)
        body = {"id": request.get("id"), "status": "ok"}
        if extra:
            body.update(extra)
        conn.sendall((json.dumps(body) + "\n").encode("utf-8"))
    return handler


def garbled(server, conn):
    _read_request(server, conn)
    conn.sendall(b"\x00not json at all\n")


class TestConnectBudget:
    def test_retries_until_the_server_starts_listening(self):
        # Bound but not yet listening → ECONNREFUSED until listen().
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        host, port = sock.getsockname()

        def listen_late():
            time.sleep(0.4)
            sock.listen(1)

        threading.Thread(target=listen_late, daemon=True).start()
        try:
            client = ServeClient(host, port, timeout=5.0,
                                 connect_timeout=10.0)
            try:
                assert client.connect_attempts >= 2
                assert client.resilience_stats()[
                    "connect_attempts"] == client.connect_attempts
            finally:
                client.close()
        finally:
            sock.close()

    def test_exhausted_budget_raises_connection_error(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))  # never listens
        host, port = sock.getsockname()
        try:
            started = time.monotonic()
            with pytest.raises(ConnectionError, match="within 0.3s"):
                ServeClient(host, port, timeout=5.0, connect_timeout=0.3)
            assert time.monotonic() - started < 5.0
        finally:
            sock.close()

    def test_zero_budget_degrades_to_single_attempt(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        host, port = sock.getsockname()
        try:
            with pytest.raises(ConnectionError):
                ServeClient(host, port, timeout=5.0, connect_timeout=0.0)
        finally:
            sock.close()


class TestRequestRetries:
    def test_dropped_exchange_is_resent_with_the_same_id(self):
        with ScriptedServer(drop_after_read, respond()) as server:
            with ServeClient(server.host, server.port, timeout=5.0,
                             retries=2) as client:
                response = client.request({"op": "ping"})
            assert response["status"] == "ok"
            assert client.request_retries == 1
            # Both attempts carried the identical request id: the server
            # sees a resend, never a second distinct request.
            assert len(server.received) == 2
            assert server.received[0]["id"] == server.received[1]["id"]

    def test_garbled_response_reconnects_and_recovers(self):
        with ScriptedServer(garbled, respond()) as server:
            with ServeClient(server.host, server.port, timeout=5.0,
                             retries=2) as client:
                response = client.request({"op": "ping"})
            assert response["status"] == "ok"
            assert client.request_retries == 1

    def test_non_idempotent_requests_never_retry(self):
        with ScriptedServer(drop_after_read, respond()) as server:
            with ServeClient(server.host, server.port,
                             timeout=5.0, retries=2) as client:
                with pytest.raises(ConnectionError):
                    client.request({"op": "ping"}, idempotent=False)
                assert client.request_retries == 0
            assert len(server.received) == 1

    def test_retries_zero_fails_fast(self):
        with ScriptedServer(drop_after_read, respond()) as server:
            with ServeClient(server.host, server.port,
                             timeout=5.0, retries=0) as client:
                with pytest.raises(ConnectionError):
                    client.request({"op": "ping"})


class TestHedging:
    def test_hedge_wins_over_a_slow_primary(self):
        server = ScriptedServer(
            respond(extra={"origin": "primary"}, delay=1.0),
            respond(extra={"origin": "hedge"}))
        with server:
            with ServeClient(server.host, server.port, timeout=5.0,
                             hedge_after=0.05) as client:
                response = client.query("toy")
                assert response["origin"] == "hedge"
                stats = client.resilience_stats()
            assert stats["hedges"] == 1
            assert stats["hedge_wins"] == 1
            # Primary and hedge sent the same request id.
            deadline = time.monotonic() + 2.0
            while len(server.received) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.received[0]["id"] == server.received[1]["id"]

    def test_both_paths_expand_witness_tables(self):
        table = {"findings": [{"pfsm": "p", "witnesses": {
            "values": ["a", {"__tuple__": [1]}], "codes": [1, 0, 1]}}]}
        expected = [{"__tuple__": [1]}, "a", {"__tuple__": [1]}]
        server = ScriptedServer(respond(extra=table, delay=1.0),
                                respond(extra=table))
        with server:
            with ServeClient(server.host, server.port, timeout=5.0,
                             hedge_after=0.05) as client:
                hedged = client.query("toy")
                assert client.hedge_wins == 1
        with ScriptedServer(respond(extra=table)) as server:
            with ServeClient(server.host, server.port,
                             timeout=5.0) as client:
                plain = client.query("toy")
        for response in (hedged, plain):
            witnesses = response["findings"][0]["witnesses"]
            assert witnesses == expected
            assert witnesses[0] is witnesses[2]

    def test_fast_primary_never_hedges(self):
        with ScriptedServer(respond(extra={"origin": "primary"}),
                            respond(extra={"origin": "hedge"})) as server:
            with ServeClient(server.host, server.port, timeout=5.0,
                             hedge_after=2.0) as client:
                response = client.query("toy")
                assert response["origin"] == "primary"
                assert client.hedges == 0

    def test_p95_delay_uses_floor_then_observed_latencies(self):
        client = object.__new__(ServeClient)
        client.hedge_after = "p95"
        client._latencies = deque(maxlen=64)
        assert client._hedge_delay() == pytest.approx(0.05)
        for sample in (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.5):
            client._latencies.append(sample)
        # 95th percentile of 7 samples → the tail value.
        assert client._hedge_delay() == pytest.approx(0.5)
        client.hedge_after = 0.25
        assert client._hedge_delay() == pytest.approx(0.25)


class TestCliExitCodes:
    def test_query_exits_2_when_unreachable_within_budget(self, capsys):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))  # never listens
        _host, port = sock.getsockname()
        try:
            code = cli.main(["query", "--host", "127.0.0.1",
                             "--port", str(port),
                             "--connect-timeout", "0.3", "toy"])
        finally:
            sock.close()
        assert code == 2
        assert "within 0.3s" in capsys.readouterr().err

    def test_query_exits_1_without_a_budget_flag(self, capsys):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        _host, port = sock.getsockname()
        try:
            code = cli.main(["query", "--host", "127.0.0.1",
                             "--port", str(port),
                             "--timeout", "0.3", "toy"])
        finally:
            sock.close()
        assert code == 1
