"""Discovery engine tests: probing implementations, flagging new hidden
paths."""

from repro import obs
from repro.apps import NullHttpd, NullHttpdVariant
from repro.core import (
    DiscoveryEngine,
    Domain,
    Operation,
    Predicate,
    PrimitiveFSM,
    in_range,
)
from repro.models import nullhttpd_model


class TestSweepOperation:
    def _operation(self):
        return Operation(
            "read", "the request",
            [
                PrimitiveFSM("pFSM1", "check length", "n",
                             spec_accepts=in_range(0, 100),
                             impl_accepts=in_range(0, 100)),  # fixed
                PrimitiveFSM("pFSM2", "copy", "n",
                             spec_accepts=in_range(0, 100),
                             impl_accepts=None),  # the undiscovered bug
            ],
        )

    def test_finds_only_divergent_activity(self):
        engine = DiscoveryEngine()
        findings = engine.sweep_operation(
            self._operation(),
            {"pFSM1": Domain.integers(-5, 105),
             "pFSM2": Domain.integers(-5, 105)},
        )
        assert [f.pfsm_name for f in findings] == ["pFSM2"]

    def test_known_flagging(self):
        engine = DiscoveryEngine(known_vulnerable=["pFSM2"])
        findings = engine.sweep_operation(
            self._operation(), {"pFSM2": Domain.integers(-5, 105)}
        )
        assert findings[0].known
        assert not findings[0].is_new

    def test_new_findings_filter(self):
        engine = DiscoveryEngine(known_vulnerable=["pFSM1"])
        findings = engine.sweep_operation(
            self._operation(),
            {"pFSM1": Domain.integers(-5, 105),
             "pFSM2": Domain.integers(-5, 105)},
        )
        new = DiscoveryEngine.new_findings(findings)
        assert [f.pfsm_name for f in new] == ["pFSM2"]

    def test_missing_domain_skipped(self):
        engine = DiscoveryEngine()
        assert engine.sweep_operation(self._operation(), {}) == []

    def test_finding_str(self):
        engine = DiscoveryEngine()
        (finding,) = engine.sweep_operation(
            self._operation(), {"pFSM2": Domain.integers(-2, -1)}
        )
        assert "NEW" in str(finding)


class TestSweepProbed:
    def test_probed_sweep_discovers_logic_bug(self):
        # An implementation whose accept set exceeds the spec's: the ||
        # vs && shape, abstracted.
        def buggy_accepts(n):
            return n == 1024 or n < 100  # should be `and`-ish narrowing

        spec = Predicate(lambda n: 0 <= n < 100, "0 <= n < 100")
        engine = DiscoveryEngine()
        findings = engine.sweep_probed(
            "read loop",
            [("pFSM2", "terminate the copy", spec, buggy_accepts)],
            {"pFSM2": Domain.of(-5, 0, 50, 99, 100, 512, 1024)},
        )
        assert len(findings) == 1
        assert 1024 in findings[0].witnesses or -5 in findings[0].witnesses

    def test_probed_sweep_clean_implementation(self):
        spec = Predicate(lambda n: 0 <= n < 100, "0 <= n < 100")
        engine = DiscoveryEngine()
        findings = engine.sweep_probed(
            "read loop",
            [("pFSM1", "check", spec, lambda n: 0 <= n < 100)],
            {"pFSM1": Domain.integers(-10, 110)},
        )
        assert findings == []

    def test_probe_exception_counts_as_rejection(self):
        # The implementation crashes on every negative length: a crash is
        # a rejection, so only the over-long lengths are witnesses.
        def accepts(n):
            if n < 0:
                raise ValueError("negative length")
            return True

        spec = Predicate(lambda n: 0 <= n < 100, "0 <= n < 100")
        findings = DiscoveryEngine().sweep_probed(
            "read loop", [("pFSM1", "check", spec, accepts)],
            {"pFSM1": Domain.of(-5, -1, 0, 50, 100, 512)},
        )
        assert [f.witnesses for f in findings] == [(100, 512)]

    def test_probe_runs_once_per_distinct_spec_rejected_object(self):
        probed = []

        def accepts(obj):
            probed.append(obj)
            return True

        spec_n = Predicate(lambda n: n < 10, "n < 10")
        spec_r = Predicate(lambda r: r["len"] <= r["size"], "len <= size")
        findings = DiscoveryEngine().sweep_probed(
            "op",
            [("pFSM1", "count", spec_n, accepts),
             ("pFSM2", "copy", spec_r, accepts)],
            {"pFSM1": Domain.of(1, 20, 20, 2, 30, 1, 20, 30, 40),
             "pFSM2": Domain.records(size=Domain.of(1, 5),
                                     len=Domain.of(0, 3, 9))},
            limit=100,
        )
        assert [f.witnesses for f in findings] == [
            (20, 20, 30, 20, 30, 40),
            ({"size": 1, "len": 3}, {"size": 1, "len": 9},
             {"size": 5, "len": 9}),
        ]
        # Never a spec-accepted object; each distinct rejected one once.
        assert probed == [20, 30, 40, {"size": 1, "len": 3},
                          {"size": 1, "len": 9}, {"size": 5, "len": 9}]

    def test_probed_sweep_runs_as_sweep_work(self):
        sink = obs.MemorySink()
        registry = obs.get_registry()
        registry.reset()
        registry.enable(sink)
        try:
            DiscoveryEngine().sweep_probed(
                "read loop",
                [("pFSM1", "check", Predicate(lambda n: n < 3, "n < 3"),
                  lambda n: n < 5)],
                {"pFSM1": Domain.of(1, 4, 4, 9)},
            )
            counters = registry.counters()
        finally:
            registry.disable()
            registry.clear_sinks()
            registry.reset()
        assert [s["attrs"]["pfsm"] for s in sink.spans("sweep.task")] == \
            ["pFSM1"]
        assert len(sink.spans("sweep.operation")) == 1
        assert not sink.spans("discovery.probe")
        assert counters.get("sweep.scans.plain") == 1
        assert counters.get("discovery.findings.new") == 1
        assert "discovery.probes" not in counters


class TestDiscovery6255:
    """The §5.1 probe set-up of :func:`nullhttpd_model.discovery_activities`."""

    @staticmethod
    def _sweep(variant, monkeypatch):
        calls = []
        handle_post = NullHttpd.handle_post

        def counted(app, *args, **kwargs):
            calls.append(args)
            return handle_post(app, *args, **kwargs)

        monkeypatch.setattr(NullHttpd, "handle_post", counted)
        activities, domains = nullhttpd_model.discovery_activities(variant)
        findings = DiscoveryEngine(known_vulnerable=["pFSM1"]).sweep_probed(
            nullhttpd_model.OPERATION_1, activities, domains)
        return findings, calls

    def test_v0_5_1_sweep_runs_the_server_seven_times(self, monkeypatch):
        # Two negative contentLens for pFSM1, then the first five
        # over-long requests for pFSM2 (the witness limit).  A probe of
        # every row of both domains ran it 28 times.
        findings, calls = self._sweep(NullHttpdVariant.V0_5_1, monkeypatch)
        assert len(calls) == 7
        [finding] = findings
        assert finding.pfsm_name == "pFSM2" and finding.is_new
        assert finding.witnesses[0] == {"content_len": 0, "input_len": 1124}

    def test_fixed_server_is_clean(self, monkeypatch):
        findings, calls = self._sweep(NullHttpdVariant.FIXED, monkeypatch)
        assert findings == []
        # Each spec-rejected object once: 2 contentLens, 6 requests.
        assert len(calls) == 8
