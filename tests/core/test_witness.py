"""Domain tests: constructors, combinators, determinism, and the
distinct-row index."""

import json
import os
import pickle
import signal
import sys
import threading
import time

from repro import obs
from repro.core import Domain
from repro.core.witness import DistinctRows, distinct_rows


class TestConstructors:
    def test_of(self):
        assert list(Domain.of(1, 2, 3)) == [1, 2, 3]

    def test_integers(self):
        assert list(Domain.integers(-2, 2)) == [-2, -1, 0, 1, 2]

    def test_integers_step(self):
        assert list(Domain.integers(0, 10, step=5)) == [0, 5, 10]

    def test_integer_probes_cover_boundaries(self):
        probes = set(Domain.integer_probes())
        assert {0, -1, 2**31 - 1, 2**31, -(2**31), 2**32 - 1, 2**32} <= probes

    def test_integer_strings_are_decimal(self):
        for text in Domain.integer_strings():
            int(text)  # must parse

    def test_byte_strings(self):
        domain = Domain.byte_strings([0, 3], fill=b"B")
        assert list(domain) == [b"", b"BBB"]

    def test_sampled_strings_deterministic(self):
        a = list(Domain.sampled_strings(10, 20, seed=7))
        b = list(Domain.sampled_strings(10, 20, seed=7))
        assert a == b

    def test_sampled_strings_seed_matters(self):
        a = list(Domain.sampled_strings(10, 20, seed=1))
        b = list(Domain.sampled_strings(10, 20, seed=2))
        assert a != b


class TestProtocol:
    def test_len(self):
        assert len(Domain.integers(0, 9)) == 10

    def test_contains(self):
        assert 5 in Domain.integers(0, 9)
        assert 50 not in Domain.integers(0, 9)

    def test_reiterable(self):
        domain = Domain.integers(0, 3)
        assert list(domain) == list(domain)

    def test_repr(self):
        assert "integers" in repr(Domain.integers(0, 3))


class TestCombinators:
    def test_map(self):
        assert list(Domain.integers(0, 2).map(str)) == ["0", "1", "2"]

    def test_filter(self):
        assert list(Domain.integers(0, 9).filter(lambda x: x % 2 == 0)) == \
            [0, 2, 4, 6, 8]

    def test_union(self):
        assert list(Domain.of(1).union(Domain.of(2))) == [1, 2]

    def test_records_cartesian(self):
        domain = Domain.records(a=Domain.of(1, 2), b=Domain.of("x"))
        assert list(domain) == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]

    def test_records_size(self):
        domain = Domain.records(a=Domain.integers(0, 4), b=Domain.integers(0, 2))
        assert len(domain) == 15

    def test_sample_deterministic(self):
        big = Domain.integers(0, 999)
        assert list(big.sample(10, seed=3)) == list(big.sample(10, seed=3))

    def test_sample_larger_than_domain(self):
        domain = Domain.integers(0, 4)
        assert len(domain.sample(100)) == 5


class TestDistinctRows:
    """One distinct-row index per domain object: which rows repeat
    which object reference."""

    @staticmethod
    def _builds(fn):
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            result = fn()
            return result, registry.counters().get("domain.distinct.built", 0)
        finally:
            registry.disable()
            registry.reset()

    def test_codes_name_first_appearances_by_identity(self):
        first, twin = {"n": 1}, {"n": 1}
        index = DistinctRows([first, twin, first, "s", twin, first])
        assert index.objects == [first, twin, "s"]
        assert index.objects[0] is first and index.objects[1] is twin
        assert list(index.codes) == [0, 1, 0, 2, 1, 0]
        assert index.first_rows == [0, 1, 3]

    def test_wide_codes_use_an_array(self):
        items = [str(i) for i in range(300)] * 2
        index = DistinctRows(items)
        assert not isinstance(index.codes, bytes)
        assert list(index.codes) == list(range(300)) * 2
        assert isinstance(DistinctRows(items[:256]).codes, bytes)

    def test_built_once_per_domain_object(self):
        domain = Domain(["a", "b"] * 20)
        (first, second), built = self._builds(
            lambda: (distinct_rows(domain), distinct_rows(domain)))
        assert first is second and built == 1
        # An equal domain is another object with its own index.
        other, built = self._builds(
            lambda: distinct_rows(Domain(["a", "b"] * 20)))
        assert other is not first and built == 1
        assert distinct_rows(Domain.of("a", "b")) is not None  # tuple

    def test_raw_sequences_get_a_fresh_index_per_call(self):
        items = ["a", "b"] * 3
        (first, second), built = self._builds(
            lambda: (distinct_rows(items), distinct_rows(items)))
        assert first is not second and built == 2

    def test_lazy_backings_get_none(self):
        assert distinct_rows(Domain.integers(0, 9)) is None
        assert distinct_rows(Domain.records(a=Domain.of(1, 2))) is None
        assert distinct_rows(range(4)) is None

    def test_the_index_is_not_a_domain_attribute(self):
        domain = Domain(["a", "b"] * 3)
        before = pickle.dumps(domain)
        index = distinct_rows(domain)
        assert index is not None
        assert pickle.dumps(domain) == before
        assert index not in vars(domain).values()

    def test_threads_scanning_one_fresh_domain_agree(self):
        from repro.core import PrimitiveFSM, columnar, length_le
        from repro.core.sweep import _scan_task

        pfsm = PrimitiveFSM("p", "scan", "x", spec_accepts=length_le(2),
                            impl_accepts=None)
        objects = ["%n" * (i % 7) + str(i) for i in range(60)]
        domain = Domain(objects * 40)
        expected = [obj for obj in domain if len(obj) > 2][:500]
        start = threading.Barrier(4)
        findings = [None] * 4

        def scan(slot):
            start.wait(timeout=10.0)
            findings[slot] = _scan_task(("m", "op", pfsm, domain, 500))
            findings[slot].wire_json  # fills the shared fragments

        def run():
            threads = [threading.Thread(target=scan, args=(slot,))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with columnar.disabled():
                _, built = self._builds(run)
        finally:
            sys.setswitchinterval(interval)
        assert built == 1
        text = json.dumps(expected, separators=(",", ":"))
        for finding in findings:
            assert len(finding.witnesses) == len(expected)
            assert all(a is b for a, b in zip(finding.witnesses, expected))
            assert finding.wire_json == text

    def test_a_child_forked_mid_build_builds_its_own(self):
        from repro.core import witness

        if not hasattr(os, "fork"):
            return
        domain = Domain(["a", "b"] * 4)
        with witness._DISTINCT_LOCK:  # another thread mid-build
            pid = os.fork()
            if pid == 0:  # the child: must not wait on the held lock
                code = 1
                try:
                    code = 0 if distinct_rows(domain).objects == ["a", "b"] \
                        else 1
                finally:
                    os._exit(code)
        deadline = time.monotonic() + 10.0
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done and time.monotonic() < deadline:
            time.sleep(0.01)
            done, status = os.waitpid(pid, os.WNOHANG)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done, "the forked child waited on the inherited lock"
        assert os.WEXITSTATUS(status) == 0
