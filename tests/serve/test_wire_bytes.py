"""Response lines are byte-identical to a plain ``json.dumps``.

``encode_line`` splices each finding's memoized witness text into the
line instead of serializing the witnesses again.  These tests hold it to
the reference encoding, ``json.dumps(response, separators=(",", ":"),
default=str)``, on every response a live server writes — computed,
cached, coalesced, zero-finding and traced — by recording each response
dict at the moment it is encoded.
"""

import json
import threading
import time

import pytest

from repro.core import (
    Domain,
    Operation,
    PrimitiveFSM,
    VulnerabilityModel,
    length_le,
    not_contains,
)
from repro.core import dist
from repro.serve import (
    AnalysisCorpus,
    ServeClient,
    ServeConfig,
    ServerThread,
    protocol,
)
from repro.serve import server as server_module

RICH = "Rich Witnesses"
CLEAN = "Clean Model"

#: Strings that exercise JSON escaping: quotes, backslashes, control
#: characters, non-ASCII and astral code points.
TEXTS = ['plain', 'q"uote', "back\\slash", "tab\tnew\nline", "café",
         "☃ snow", "\U0001f600", "..", "a/../b", "\x00nul"]
#: Tuples of mixed codec values (bytes, floats, None, bools, nesting).
TUPLES = [(), (1,), (1, "é"), (b"\x00\xff", 2.5, None),
          (True, False, (3, ("x",))), (frozenset({1, 2}), -0.0, 1e300)]


def reference(response):
    return (json.dumps(response, separators=(",", ":"), default=str)
            + "\n").encode("utf-8")


def rich_corpus():
    strings = PrimitiveFSM("pFSM1", "accept a path", "path",
                           spec_accepts=not_contains(".."),
                           impl_accepts=length_le(100))
    tuples = PrimitiveFSM("pFSM2", "store a record", "record",
                          spec_accepts=length_le(1),
                          impl_accepts=length_le(5))
    clean = PrimitiveFSM("pFSM1", "accept a path", "path",
                         spec_accepts=length_le(100),
                         impl_accepts=length_le(100))
    models = {
        RICH: VulnerabilityModel(RICH, [
            Operation("parse", "an input", [strings, tuples]),
        ]),
        CLEAN: VulnerabilityModel(CLEAN, [
            Operation("parse", "a path string", [clean]),
        ]),
    }
    domains = {
        RICH: {"pFSM1": Domain(TEXTS * 3), "pFSM2": Domain(TUPLES * 3)},
        CLEAN: {"pFSM1": Domain(TEXTS)},
    }
    return AnalysisCorpus(models=models, domains=domains,
                          keys={"rich": RICH, "clean": CLEAN})


@pytest.fixture
def recorded(monkeypatch):
    """Every ``(response dict, line, reference line)`` the server wrote,
    the reference taken in the same call as the encoding."""
    dist.clear_memo()
    lines = []
    original = protocol.encode_line

    def recording(response):
        line = original(response)
        lines.append((response, line, reference(response)))
        return line

    monkeypatch.setattr(server_module, "encode_line", recording)
    handle = ServerThread(
        ServeConfig(port=0, drain_grace=2.0, trace=True),
        corpus=rich_corpus(),
    ).start()
    yield handle, lines
    handle.shutdown()
    dist.clear_memo()


def client_for(handle):
    return ServeClient(handle.host, handle.port, timeout=30.0)


def assert_identical(lines):
    assert lines
    for response, line, expected in lines:
        assert line == expected, response.get("status")


class TestServerLines:
    def test_computed_cached_and_zero_finding_lines(self, recorded):
        handle, lines = recorded
        with client_for(handle) as client:
            computed = client.query("rich", limit=4)
            cached = client.query("rich", limit=4)
            clean = client.query("clean", limit=4)
            client.ping()
            client.metrics()
        assert computed["cached"] is False and cached["cached"] is True
        assert len(computed["findings"]) == 2
        assert computed["findings"] == cached["findings"]
        assert clean["findings"] == [] and clean["vulnerable"] is False
        assert len(lines) == 5
        # the two rich lines took the splice path
        for response, _line, _expected in lines[:2]:
            assert all(f.pristine() for f in response["findings"])
        assert_identical(lines)

    def test_traced_line_keeps_its_fields_after_findings(self, recorded):
        handle, lines = recorded
        with client_for(handle) as client:
            client.query("rich", limit=6, trace=True)
            client.query("rich", limit=6, trace=True)  # cached, traced
        assert len(lines) == 2
        for response, _line, _expected in lines:
            keys = list(response)
            assert keys.index("findings") < keys.index("trace_id") \
                < keys.index("trace")
            assert response["trace"]
        assert_identical(lines)

    def test_coalesced_lines(self, recorded):
        handle, lines = recorded
        batcher = handle.server.batcher
        original = batcher._compute_fn
        entered, release = threading.Event(), threading.Event()

        def gated(tasks, keys):
            entered.set()
            assert release.wait(10.0)
            return original(tasks, keys)

        batcher._compute_fn = gated
        responses = []

        def fire():
            with client_for(handle) as client:
                responses.append(client.query("rich", limit=5))

        threads = [threading.Thread(target=fire)]
        threads[0].start()
        assert entered.wait(10.0)
        threads.append(threading.Thread(target=fire))
        threads[1].start()
        deadline = time.monotonic() + 10.0
        while handle.server.stats.counter("coalesced") < 1:
            assert time.monotonic() < deadline, "never coalesced"
            time.sleep(0.005)
        release.set()
        for thread in threads:
            thread.join(10.0)
        assert sorted(r["coalesced"] for r in responses) == [False, True]
        assert len(lines) == 2
        assert_identical(lines)
