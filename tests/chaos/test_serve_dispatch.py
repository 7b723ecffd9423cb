"""A crashed serve dispatch: every member of the failed batch is
answered ``error``, the server stays ready, and the next batch after
the fault clears answers correctly."""

import json
import urllib.request

import pytest

from repro import faults
from repro.core import (
    Domain,
    Operation,
    PrimitiveFSM,
    VulnerabilityModel,
    dist,
    in_range,
    less_equal,
)
from repro.core.sweep import sweep_model
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.corpus import AnalysisCorpus

TOY_NAME = "Toy overflow"


def _toy_model():
    pfsm1 = PrimitiveFSM("pFSM1", "accept input x", "x",
                         spec_accepts=in_range(0, 5),
                         impl_accepts=less_equal(10))
    return VulnerabilityModel(
        TOY_NAME, [Operation("write x", "the input integer", [pfsm1])])


def _toy_domains():
    return {"pFSM1": Domain(range(-5, 20))}


@pytest.fixture(autouse=True)
def _fresh_state():
    previous = faults.install(None)
    dist.clear_memo()
    yield
    faults.install(previous)
    dist.clear_memo()


@pytest.fixture
def server():
    handle = ServerThread(
        ServeConfig(port=0),
        corpus=AnalysisCorpus(models={TOY_NAME: _toy_model()},
                              domains={TOY_NAME: _toy_domains()},
                              keys={"toy": TOY_NAME}),
    ).start()
    yield handle
    handle.shutdown()


def _healthz(handle):
    url = f"http://{handle.host}:{handle.port}/healthz"
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


class TestDispatchCrash:
    def test_crashed_batches_answer_error_then_recover(self, server):
        plan = faults.parse_spec("serve.dispatch.crash:1")
        with faults.injecting(plan):
            with ServeClient(server.host, server.port,
                             timeout=30.0) as client:
                # Distinct limits: distinct fingerprints, one batch each.
                for limit in range(1, 5):
                    response = client.query("toy", limit=limit)
                    assert response["status"] == "error"
                    assert "serve.dispatch.crash" in response["error"]
                snapshot = client.metrics()
            assert _healthz(server) == (
                200, {"state": "ready", "ready": True, "live": True})
        assert plan.snapshot()["injected"]["serve.dispatch.crash"] == 4
        assert snapshot["counters"]["errors.compute"] == 4
        assert snapshot["counters"]["batches"] == 4
        assert snapshot["faults"]["total_injected"] == 4

        reference = sweep_model(_toy_model(), _toy_domains(), limit=3)
        with ServeClient(server.host, server.port, timeout=30.0) as client:
            response = client.query("toy", limit=3)
            assert client.metrics()["counters"]["errors.compute"] == 4
        assert response["status"] == "ok"
        assert response["cached"] is False
        assert [(f["pfsm"], f["witnesses"]) for f in response["findings"]] \
            == [(f.pfsm_name, list(f.witnesses))
                for f in reference.findings]
        assert reference.findings
