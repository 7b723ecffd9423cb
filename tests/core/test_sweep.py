"""The batched sweep engine (repro.core.sweep).

Four families of guarantees:

* **scan ≡ scalar** — every scan strategy, the closed-form interval
  one included, finds the witnesses of a per-object scan for combinator
  trees of the comparison constructors, over stepped and descending
  ranges;
* **sweep ≡ serial** — ``sweep_models`` returns identical findings in
  identical order regardless of worker count;
* **memo correctness** — each distinct object is judged once per
  compiled program for the life of the domain's distinct-row index
  (once per scan for opaque predicates), and rebinding a predicate
  between scans changes the witnesses;
* **hot-path surgery** — the single-run ``minimal_foil_points`` fast
  path, bounded ``exploit_paths``, and lazy ``Domain`` backings keep
  their observable behaviour.
"""

import dataclasses
import inspect
import json
import operator
import contextlib
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    Domain,
    Predicate,
    PrimitiveFSM,
    always,
    attr,
    build_state_space,
    contains,
    equals,
    greater_equal,
    hidden_witness_count,
    hidden_witness_scan,
    in_range,
    is_instance,
    length_le,
    less_equal,
    minimal_foil_points,
    named_predicate,
    never,
    not_contains,
    predicate,
    satisfies_all,
    satisfies_any,
    sweep_models,
    truthy,
)
from repro import obs
from repro.core import columnar, dist, plan, witness
from repro.core import sweep as sweep_module
from repro.core.predspec import encode_value, encode_witness
from repro.core.sweep import SweepFinding
from repro.models import (
    all_extended_exploit_inputs,
    all_extended_models,
    all_extended_pfsm_domains,
)

# ---------------------------------------------------------------------------
# Input strategies
# ---------------------------------------------------------------------------

bounds = st.integers(min_value=-50, max_value=50)
interval = st.tuples(bounds, bounds).map(lambda p: (min(p), max(p)))

#: Every constructor whose spec leaf has an interval form, parameterized.
closed_form = st.one_of(
    st.just(always),
    st.just(never),
    bounds.map(equals),
    interval.map(lambda iv: in_range(*iv)),
    bounds.map(less_equal),
    bounds.map(greater_equal),
)

#: Opaque parts, alone and where constant folding absorbs them
#: (``truthy() & never`` folds to ``false``, ``equals(True) | always``
#: to ``true``), which gives the absorbing ones a closed form.
opaque_parts = st.sampled_from([
    truthy(), equals(True), truthy() & never, equals(True) | always,
    never & truthy(), always | truthy(),
])


def _combined(inner):
    pairs = st.tuples(inner, inner)
    return st.one_of(
        pairs.map(lambda pq: pq[0] & pq[1]),
        pairs.map(lambda pq: pq[0] | pq[1]),
        inner.map(lambda p: ~p),
        pairs.map(lambda pq: pq[0].implies(pq[1])),
        inner.map(lambda p: p.renamed("renamed")),
    )


#: Combinator trees over the closed-form constructors and opaque parts.
trees = st.recursive(closed_form | opaque_parts, _combined, max_leaves=5)

#: Arbitrary stepped/descending integer ranges.
ranges = st.tuples(
    bounds, bounds, st.integers(min_value=-4, max_value=4).filter(bool)
).map(lambda t: range(t[0], t[1], t[2]))

#: Values inside the witness codec, nested ones included.
_CODEC_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False) | st.binary(max_size=4),
    lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=3)
    | st.frozensets(st.integers(), max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
#: Values outside it.
_OUTSIDE_CODEC = st.builds(object) | st.dictionaries(
    st.integers(), st.integers(), min_size=1, max_size=2)


def _encodable(value):
    try:
        encode_value(value)
    except ValueError:
        return False
    return True


def _degraded(value):
    """Is a table value the ``{"__repr__": ...}`` of a witness outside
    the codec?"""
    return type(value) is dict and "__repr__" in value


# ---------------------------------------------------------------------------
# hidden-path scans: closed form ≡ compiled ≡ plain scalar
# ---------------------------------------------------------------------------

def _seed_scan(pfsm, domain, limit):
    found = []
    for candidate in domain:
        if pfsm.takes_hidden_path(candidate):
            found.append(candidate)
            if len(found) >= limit:
                break
    return found


def _has_closed_form(pfsm):
    return plan._build(plan.hidden_spec(pfsm)).intervals is not None


class TestHiddenWitnessScan:
    @given(trees, st.one_of(st.none(), trees), ranges,
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=120)
    @example(truthy() & never, None, range(-5, 5), 3)
    @example(~truthy(), equals(True) | always, range(4, -4, -2), 8)
    def test_all_strategies_match_seed_scan(self, spec, impl, backing, limit):
        pfsm = PrimitiveFSM("p", "a", "x", spec_accepts=spec,
                            impl_accepts=impl)
        domain = Domain(backing, description="r")
        expected = _seed_scan(pfsm, domain, limit)
        with _counters() as counters:
            found = hidden_witness_scan(pfsm, domain, limit=limit)
        assert found == expected
        # The folded spec tree alone decides the interval strategy.
        assert counters.get("sweep.scans.fastpath", 0) == \
            int(_has_closed_form(pfsm))

    @given(trees, st.one_of(st.none(), trees), ranges)
    @settings(max_examples=100)
    @example(equals(True) | always, truthy() & never, range(-3, 3))
    def test_count_matches_brute_force(self, spec, impl, backing):
        pfsm = PrimitiveFSM("p", "a", "x", spec_accepts=spec,
                            impl_accepts=impl)
        expected = sum(1 for obj in backing if pfsm.takes_hidden_path(obj))
        with _counters() as counters:
            count = hidden_witness_count(pfsm, Domain(backing, description="r"))
        assert count == expected
        assert counters.get("sweep.scans.fastpath", 0) == \
            int(_has_closed_form(pfsm))

    def test_bypassed_planner_still_answers_by_intervals(self):
        pfsm = PrimitiveFSM("p", "a", "x", spec_accepts=in_range(0, 99),
                            impl_accepts=less_equal(10**6))
        domain = Domain.integers(-50, 10**6)
        with plan.disabled(), _counters() as counters:
            found = hidden_witness_scan(pfsm, domain, limit=5)
            count = hidden_witness_count(pfsm, domain)
        assert found == [-50, -49, -48, -47, -46]
        assert count == 50 + (10**6 - 99)
        assert counters["sweep.scans.fastpath"] == 2
        assert "plan.compiles" not in counters

    @given(trees, ranges)
    @settings(max_examples=80)
    def test_predicate_witnesses_are_the_plain_loop(self, pred, backing):
        domain = Domain(backing, description="r")
        expected = [obj for obj in domain if pred.evaluate(obj)]
        assert pred.witnesses(domain, limit=7) == expected[:7]

    @staticmethod
    def _counting_tiled_scan():
        calls = {"n": 0}

        def spec_fn(record):
            calls["n"] += 1
            return record["n"] >= 0

        pfsm = PrimitiveFSM(
            "p", "a", "x",
            spec_accepts=Predicate(spec_fn, "n >= 0"),
            impl_accepts=None,
        )
        bad, good = {"n": -1}, {"n": 1}
        domain = Domain([bad, good] * 40, description="tiled")
        return pfsm, domain, bad, calls

    def test_identity_memo_judges_each_object_once(self):
        pfsm, domain, bad, calls = self._counting_tiled_scan()
        found = hidden_witness_scan(pfsm, domain, limit=10**9)
        # Each repeated occurrence of the witness is reported...
        assert found == [bad] * 40
        # ...but each distinct object was judged exactly once.
        assert calls["n"] == 2

    def test_hidden_witnesses_judge_each_object_once(self):
        pfsm, domain, bad, calls = self._counting_tiled_scan()
        assert pfsm.hidden_witnesses(domain, limit=10**9) == [bad] * 40
        assert calls["n"] == 2

    def test_cached_scan_matches_on_record_domains(self):
        label = "NULL HTTPD Heap Overflow"
        model = all_extended_models()[label]
        domains = all_extended_pfsm_domains()[label]
        for _operation, pfsm in model.all_pfsms():
            domain = domains[pfsm.name]
            assert hidden_witness_scan(pfsm, domain, limit=100) \
                == _seed_scan(pfsm, domain, 100)

    @given(
        runs=st.lists(st.tuples(st.integers(min_value=0, max_value=80),
                                st.integers(min_value=0, max_value=40)),
                      max_size=30),
        limit=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=150)
    def test_flagged_rows_switch_from_find_to_compress(self, runs, limit):
        # alternating runs of 0 and 1 flags: sparse hits, dense hits and
        # every mix of the two
        flags = b"".join(b"\x00" * zeros + b"\x01" * ones
                         for zeros, ones in runs)
        expected = [row for row, flag in enumerate(flags) if flag][:limit]
        assert sweep_module._flagged_rows(flags, limit) == expected


# ---------------------------------------------------------------------------
# parallel ≡ serial sweeps
# ---------------------------------------------------------------------------

def _flat(sweeps):
    return [
        (f.model_name, f.operation_name, f.pfsm_name, f.activity, f.witnesses)
        for sweep in sweeps for f in sweep.findings
    ]


class TestSweepDeterminism:
    def _corpus(self):
        models = all_extended_models()
        domains = all_extended_pfsm_domains()
        keep = ["Sendmail Signed Integer Overflow", "NULL HTTPD Heap Overflow"]
        return ({k: models[k] for k in keep}, {k: domains[k] for k in keep})

    def test_parallel_equals_serial_on_sendmail_and_nullhttpd(self):
        models, domains = self._corpus()
        serial = sweep_models(models, domains)
        for workers in (2, 4):
            parallel = sweep_models(models, domains, workers=workers)
            assert _flat(parallel) == _flat(serial)
            assert [s.model_name for s in parallel] == \
                [s.model_name for s in serial]

    def test_sweep_covers_whole_corpus_in_model_order(self):
        models = all_extended_models()
        domains = all_extended_pfsm_domains()
        sweeps = sweep_models(models, domains, workers=4)
        assert [s.model_name for s in sweeps] == \
            [m.name for m in models.values()]
        assert any(s.vulnerable for s in sweeps)

    def test_finding_str_names_the_location(self):
        models, domains = self._corpus()
        finding = _flat(sweep_models(models, domains))[0]
        sweeps = sweep_models(models, domains)
        text = str(sweeps[0].findings[0])
        assert finding[2] in text and finding[0] in text

    def test_wire_table_encodes_each_distinct_object_once(
            self, monkeypatch):
        calls = []

        def recording(value):
            calls.append(value)
            return value

        monkeypatch.setattr(sweep_module, "encode_witness", recording)
        dumps = []
        dump = sweep_module._dumps

        def dumping(value):
            dumps.append(value)
            return dump(value)

        monkeypatch.setattr(sweep_module, "_dumps", dumping)
        tile = ["a", "b"]
        finding = SweepFinding("m", "op", "p", "scan", tuple(tile * 40))
        table = finding.wire_table
        assert table.values == tile and table.codes == [0, 1] * 40
        assert calls == tile
        assert finding.wire_table is table
        # one dump per distinct value, none per witness
        assert table.text == '{"values":["a","b"],"codes":[0,1' \
            + ",0,1" * 39 + "]}"
        assert dumps == tile

    def test_mostly_distinct_witnesses_dump_the_values_once(
            self, monkeypatch):
        dumps = []
        dump = sweep_module._dumps

        def dumping(value):
            dumps.append(value)
            return dump(value)

        monkeypatch.setattr(sweep_module, "_dumps", dumping)
        witnesses = tuple(f"w{i}" for i in range(8)) * 2
        finding = SweepFinding("m", "op", "p", "scan", witnesses)
        codes = list(range(8)) * 2
        assert finding.wire_table.text == json.dumps(
            {"values": list(witnesses[:8]), "codes": codes},
            separators=(",", ":"))
        assert dumps == list(witnesses[:8])  # one per value

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_CODEC_VALUES | _OUTSIDE_CODEC, min_size=1,
                    max_size=6),
           st.lists(st.integers(0, 5), max_size=40),
           st.sampled_from(("shared", "distinct", "copies")),
           st.booleans())
    # Two equal one-byte strings that are not one object: the decoded
    # finding's table holds one value, CPython's cached one-byte string.
    @example([b"\x00"], [0, 0], "copies", False)
    def test_table_decodes_to_the_witnesses(self, pool, picks, sharing,
                                            scanned):
        from repro.serve.protocol import finding_payload

        # "shared" repeats a few objects by reference, as tiled domains
        # do; "distinct" makes every witness its own object; "copies"
        # makes equal objects that are not the same object.
        picked = [pool[i % len(pool)] for i in picks]
        if sharing == "distinct":
            witnesses = pool
        elif sharing == "shared":
            witnesses = picked
        else:
            witnesses = [pickle.loads(pickle.dumps(w)) for w in picked]
        if not witnesses:
            return
        if scanned:
            # every row rides the hidden path, so the scan keeps them all
            pfsm = PrimitiveFSM("p", "scan", "x", spec_accepts=never,
                                impl_accepts=None)
            finding = sweep_module._scan_task(
                ("m", "op", pfsm, Domain(witnesses), len(witnesses)))
            assert "_codes" in vars(finding)
        else:
            finding = SweepFinding("m", "op", "p", "scan",
                                   tuple(witnesses))
        table = finding.wire_table
        expected = [encode_witness(w) for w in witnesses]
        assert [table.values[code] for code in table.codes] == expected
        # values in order of first appearance
        assert list(dict.fromkeys(table.codes)) == \
            list(range(len(table.values)))
        assert len(table.values) == len(set(map(id, witnesses)))
        assert table.text == json.dumps(
            {"values": table.values, "codes": table.codes},
            separators=(",", ":"))
        exact = all(map(_encodable, witnesses))
        assert exact == all(not _degraded(v) for v in table.values)
        # the response and the store carry one table
        payload = finding_payload(finding)
        assert payload["witnesses"] == json.loads(table.text)
        line = _response_line(finding)
        assert json.loads(line)["findings"][0]["witnesses"] == \
            json.loads(table.text)
        if not exact:
            with pytest.raises(ValueError):
                dist._store_line("k", 5, finding)
            return
        record = json.loads(dist._store_line("k", 5, finding))
        assert record["finding"]["witnesses"] == json.loads(table.text)
        decoded = dist._decode_finding(record["finding"])
        assert decoded == finding
        # The codec keeps values, not identity: equal witnesses that
        # were distinct objects may decode to one object (CPython
        # caches one-byte strings), whose table then holds one value
        # where the original held two.  It still expands to the same
        # witnesses, and its text decodes to the same finding.
        again = decoded.wire_table
        assert [again.values[code] for code in again.codes] == expected
        assert dist._decode_finding(
            {**record["finding"], "witnesses": json.loads(again.text)}) \
            == finding
        if len(set(map(id, decoded.witnesses))) == len(table.values):
            assert again == table

    def test_wire_table_is_not_a_field(self):
        finding = SweepFinding("m", "op", "p", "scan", ((1, 2),))
        twin = SweepFinding("m", "op", "p", "scan", ((1, 2),))
        assert finding.wire_table.values == [{"__tuple__": [1, 2]}]
        assert finding == twin and hash(finding) == hash(twin)
        assert "wire_table" in vars(finding)
        assert "wire_table" not in vars(
            dataclasses.replace(finding, pfsm_name="q"))


# ---------------------------------------------------------------------------
# memo correctness
# ---------------------------------------------------------------------------

def _counting_spec(fn, name):
    """An opaque spec predicate and the dict counting its calls."""
    calls = {"n": 0}

    def counted(obj):
        calls["n"] += 1
        return fn(obj)

    return Predicate(counted, name), calls


@contextlib.contextmanager
def _counters():
    """Enable the default telemetry registry (counters only) for one
    block; yields a dict filled with the block's counters on exit."""
    registry = obs.get_registry()
    registry.reset()
    registry.enable()
    counters = {}
    try:
        yield counters
    finally:
        registry.disable()
        counters.update(registry.counters())
        registry.reset()


def _string_pfsms():
    """Three compilable pFSMs over strings sharing one costly subtree."""
    def shared():
        return satisfies_all(is_instance(str), length_le(64),
                             not_contains("%n"))

    return [
        PrimitiveFSM("pa", "scan", "x",
                     spec_accepts=satisfies_all(shared(),
                                                not_contains("%s")),
                     impl_accepts=length_le(200)),
        PrimitiveFSM("pb", "scan", "x",
                     spec_accepts=satisfies_all(shared(), contains("/")),
                     impl_accepts=length_le(200)),
        PrimitiveFSM("pc", "scan", "x", spec_accepts=shared(),
                     impl_accepts=length_le(120)),
    ]


def _strings(n):
    """``n`` distinct strings mixing ``%n``, ``%s``, ``/`` and lengths
    on both sides of the pFSMs' 64 and 120 bounds."""
    return [f"{'%n' * (i % 3 == 0)}{'%s' * (i % 5 == 0)}{'/' * (i % 2)}"
            f"{'x' * (i % 7 * 22)}{i}" for i in range(n)]


class TestPredicateCache:
    """The guarantees the cross-scan verdict cache gave, now held by the
    distinct-row index: verdicts are never stale, repeats are judged
    once, and an opaque predicate's verdicts do not outlive the scan."""

    def test_rebound_predicate_is_not_served_stale_verdicts(self):
        domain = Domain.of(-2, -1, 0, 1, 2)
        spec = less_equal(0)  # compiled
        pfsm = PrimitiveFSM("p", "a", "x", spec_accepts=spec,
                            impl_accepts=None)
        assert hidden_witness_scan(pfsm, domain) == [1, 2]
        spec.rebind(lambda x: x >= 0, "non-negative")
        assert hidden_witness_scan(pfsm, domain) == [-2, -1]
        opaque = Predicate(lambda x: x < 0, "negative")  # scalar
        pfsm = PrimitiveFSM("q", "a", "x", spec_accepts=opaque,
                            impl_accepts=None)
        assert hidden_witness_scan(pfsm, domain) == [0, 1, 2]
        opaque.rebind(lambda x: x > 0, "positive")
        assert hidden_witness_scan(pfsm, domain) == [-2, -1, 0]

    def test_hits_and_misses_are_counted(self):
        spec, calls = _counting_spec(lambda obj: obj["n"] >= 0, "counting")
        pfsm = PrimitiveFSM("p", "a", "x", spec_accepts=spec,
                            impl_accepts=always)
        bad, good = {"n": -1}, {"n": 1}
        with _counters() as counters:
            found = hidden_witness_scan(pfsm, Domain([bad, good] * 40),
                                        limit=10**9)
        assert found == [bad] * 40
        assert calls["n"] == 2
        assert counters["sweep.scans.plain"] == 1
        assert counters["sweep.objects.judged"] == 2
        assert counters["sweep.witnesses"] == 40

    def test_unhashable_objects_pass_through_uncached(self):
        spec, calls = _counting_spec(lambda obj: obj["n"] >= 0, "counting")
        pfsm = PrimitiveFSM("p", "a", "x", spec_accepts=spec,
                            impl_accepts=always)
        # Equal but distinct dicts: the memo keys on identity, not value.
        first, twin, good = {"n": -1}, {"n": -1}, {"n": 1}
        found = hidden_witness_scan(pfsm, Domain([first, twin, good, first]),
                                    limit=10)
        assert found == [first, twin, first]
        assert found[0] is first and found[1] is twin
        assert calls["n"] == 3

    def test_distinct_predicates_do_not_collide(self):
        pfsms = _string_pfsms()
        domain = Domain(_strings(60))
        with columnar.disabled():
            alone = [hidden_witness_scan(p, domain, limit=100)
                     for p in pfsms]
        assert alone == [_seed_scan(p, domain, 100) for p in pfsms]
        assert len({tuple(w) for w in alone}) == len(pfsms)

    def test_each_scan_judges_a_shared_subtree_itself(self):
        calls = {"n": 0}

        def counted(value):
            calls["n"] += 1
            return value % 3 != 0

        shared = named_predicate("sweep_counted_not_div3", counted,
                                 "counts its verdicts")
        pfsms = [PrimitiveFSM(f"p{i}", "scan", "x",
                              spec_accepts=shared & other,
                              impl_accepts=less_equal(1000))
                 for i, other in enumerate((in_range(-5, 100),
                                            greater_equal(-5)))]
        domain = Domain(list(range(20)) * 3)
        with columnar.disabled(), _counters() as counters:
            found = [hidden_witness_scan(p, domain, limit=10**9)
                     for p in pfsms]
        # One judgement per distinct object per scan: repeats within a
        # scan are memoized, the second scan gets no verdict from the first.
        assert calls["n"] == 2 * 20
        assert counters["sweep.scans.compiled"] == 2
        assert counters["sweep.objects.judged"] == 2 * 20
        assert found[0] == [v for v in range(20) if v % 3 == 0] * 3
        assert found == [_seed_scan(p, domain, 10**9) for p in pfsms]

    def test_scan_entry_points_take_no_memo(self):
        from repro.core import dist
        entry_points = (hidden_witness_scan, sweep_models,
                        sweep_module._scan, sweep_module._scan_codes,
                        sweep_module._scan_task, sweep_module._run_tasks,
                        sweep_module._sweep_tasks, dist._chunk_worker)
        for fn in entry_points:
            assert "memo" not in inspect.signature(fn).parameters, fn
        with pytest.raises(TypeError):
            hidden_witness_scan(_string_pfsms()[0], Domain(["a"]),
                                memo=None)

    def test_no_cache_sentinel_disables_memoization(self):
        spec, calls = _counting_spec(lambda obj: obj >= 0, "counting")
        pfsm = PrimitiveFSM("p", "a", "x", spec_accepts=spec,
                            impl_accepts=always)
        domain = Domain.of(-1, 1, -1, 1)
        assert hidden_witness_scan(pfsm, domain) == [-1, -1]
        assert calls["n"] == 2
        # An opaque predicate keeps no verdict past its scan: the next
        # scan judges again.
        assert hidden_witness_scan(pfsm, domain) == [-1, -1]
        assert calls["n"] == 4


def _seed_judged(pfsm, domain, limit):
    """How many distinct references a scan that memoizes verdicts by
    identity judges: those seen up to the row of the ``limit``-th
    witness."""
    seen = set()
    found = 0
    for candidate in domain if limit > 0 else ():
        seen.add(id(candidate))  # the domain keeps every object alive
        if pfsm.takes_hidden_path(candidate):
            found += 1
            if found >= limit:
                break
    return len(seen)


def _twin(obj):
    """An equal object that is not ``obj`` (where one can exist)."""
    if isinstance(obj, dict):
        return dict(obj)
    if isinstance(obj, str):
        return "".join(list(obj))  # a new object from two characters up
    if isinstance(obj, int):
        return int(str(obj))  # a new object outside the small-int cache
    return obj


#: Domain objects: small and large ints, short strings, unhashable
#: dicts, and objects outside the witness codec.
_ROW_OBJECTS = st.one_of(
    st.integers(-3, 3), st.integers(1000, 1003),
    st.text(alphabet="ab%", max_size=3),
    st.builds(lambda n, k: {"n": n, "k": k},
              st.integers(-2, 2), st.text(alphabet="xy", max_size=2)),
    st.builds(object))


@st.composite
def _repeating_domains(draw):
    """``(domain, limit)``: a few objects, some with equal twins, tiled
    by reference in any order, on a list, tuple or raw-list backing."""
    pool = draw(st.lists(_ROW_OBJECTS, min_size=1, max_size=6))
    pool += [_twin(obj) for obj in pool if draw(st.booleans())]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    items = [pool[i] for i in picks]
    backing = draw(st.sampled_from(("list", "tuple", "raw")))
    domain = {"list": lambda: Domain(items),
              "tuple": lambda: Domain(tuple(items)),
              "raw": lambda: items}[backing]()
    return domain, draw(st.integers(0, 3) | st.integers(0, len(items) + 2))


def _mixed_pfsms():
    """A compiled and an opaque (plain) pFSM over mixed-type objects."""
    compiled = PrimitiveFSM(
        "c", "scan", "x",
        spec_accepts=satisfies_any(is_instance(int), length_le(1),
                                   attr("n", less_equal(0))),
        impl_accepts=always)
    opaque = PrimitiveFSM(
        "o", "scan", "x",
        spec_accepts=Predicate(
            lambda x: not (isinstance(x, dict) and x["n"] > 0
                           or isinstance(x, int) and x > 1000),
            "no positive n, no large int"),
        impl_accepts=None)
    assert plan.program_for(compiled) is not None
    assert plan.program_for(opaque) is None
    return {"compiled": compiled, "plain": opaque}


def _response_line(finding):
    from repro.serve.protocol import encode_line, finding_payload

    return encode_line({"status": "ok", "model": "m",
                        "findings": [finding_payload(finding)]})


class TestDistinctRowScan:
    """The compiled and plain scans walk the domain's distinct-row
    index: the same witnesses and wire bytes as a scan that memoizes
    verdicts by identity row by row, and no more judgements."""

    @settings(max_examples=300, deadline=None)
    @given(_repeating_domains(), st.lists(st.integers(0, 45), max_size=3),
           st.sampled_from(("compiled", "plain")))
    # The limit is reached on a repeat, before "x"/1 is ever judged.
    @example((Domain(["ab", "ab", "x", 1]), 2), [], "compiled")
    @example(([{"n": 1, "k": ""}] * 2 + [1001], 2), [], "plain")
    # A later scan stops on a repeat the first scan's table decides.
    @example((Domain(["ab", 1, "ab", "x", 1]), 3), [1, 2], "compiled")
    def test_scan_matches_the_seed_scan_by_identity(self, case, more,
                                                    strategy):
        domain, limit = case
        limits = [limit] + more
        pfsm = _mixed_pfsms()[strategy]
        with _counters() as counters:
            for limit in limits:
                expected = _seed_scan(pfsm, domain, limit) \
                    if limit > 0 else []
                found = hidden_witness_scan(pfsm, domain, limit=limit)
                assert len(found) == len(expected)
                assert all(map(operator.is_, found, expected))
        reached = [_seed_judged(pfsm, domain, limit) for limit in limits]
        # A compiled program's table outlives the scan on a domain's
        # index; a raw list gets a fresh index, and so a fresh table,
        # on every scan, and an opaque predicate keeps none.
        kept = strategy == "compiled" and not isinstance(domain, list)
        assert counters.get("sweep.objects.judged", 0) == \
            (max(reached) if kept else sum(reached))
        assert counters.get(f"sweep.scans.{strategy}", 0) == \
            sum(1 for limit in limits if limit > 0)

        finding = sweep_module._scan_task(("m", "op", pfsm, domain, limit))
        if not expected:
            assert finding is None
            return
        assert "_codes" in vars(finding)
        assert all(map(operator.is_, finding.witnesses, expected))
        plain = dataclasses.replace(finding)  # the same finding, no rows
        assert "_codes" not in vars(plain)
        assert finding.wire_table == plain.wire_table
        assert _response_line(finding) == _response_line(plain)
        if not any(map(_degraded, finding.wire_table.values)):
            assert dist._store_line("k", 5, finding) == \
                dist._store_line("k", 5, plain)

    def test_each_distinct_object_is_encoded_once_per_domain(
            self, monkeypatch):
        calls = []
        encode = sweep_module.encode_witness

        def recording(value):
            calls.append(value)
            return encode(value)

        monkeypatch.setattr(sweep_module, "encode_witness", recording)
        pfsm = _mixed_pfsms()["compiled"]
        domain = Domain(["ab", 1, "%%", {"n": 1, "k": ""}] * 30)
        findings = [sweep_module._scan_task(("m", "op", pfsm, domain, limit))
                    for limit in (1, 7, 50, 10**6)]
        tables = [finding.wire_table for finding in findings]
        assert calls == ["ab", "%%", {"n": 1, "k": ""}]
        assert tables[-1].text == json.dumps(
            {"values": ["ab", "%%", {"__dict__": {"n": 1, "k": ""}}],
             "codes": [0, 1, 2] * 30}, separators=(",", ":"))
        assert [len(f.witnesses) for f in findings] == [1, 7, 50, 90]
        assert [len(t.values) for t in tables] == [1, 3, 3, 3]

    def test_domain_and_finding_pickle_as_if_never_scanned(self):
        label = "Sendmail Signed Integer Overflow"
        model = all_extended_models()[label]
        operation, pfsm = next((op, p) for op, p in model.all_pfsms()
                               if p.name == "pFSM1")
        items = list(all_extended_pfsm_domains()[label]["pFSM1"]) * 40
        scanned = Domain(items, description="tiled probes")
        pristine = Domain(list(items), description="tiled probes")
        finding = sweep_module._scan_task(
            (model.name, operation.name, pfsm, scanned, 5))
        assert witness._DISTINCT.get(scanned) is not None
        assert "_codes" in vars(finding)
        twin = dataclasses.replace(finding)
        assert pickle.dumps(scanned) == pickle.dumps(pristine)
        assert pickle.dumps(finding) == pickle.dumps(twin)
        assert finding.wire_table == twin.wire_table
        assert pickle.dumps(finding) == pickle.dumps(twin)
        assert len(pickle.dumps(finding)) < 2048
        returned = pickle.loads(pickle.dumps(finding))
        assert "_codes" not in vars(returned)
        assert returned == finding
        assert returned.wire_table == twin.wire_table


#: Opaque conditions a step of a scan sequence rebinds a spec to.
_REBINDS = (lambda x: isinstance(x, int),
            lambda x: not isinstance(x, str),
            lambda x: False)


class TestVerdictTables:
    """A compiled program's verdict table outlives the scan on the
    domain's distinct-row index: each later scan of the same program
    judges only the objects no earlier scan reached, reads the rest
    from the table, and returns the row-by-row scan's witnesses."""

    @settings(max_examples=200, deadline=None)
    @given(_repeating_domains(),
           st.lists(st.tuples(st.sampled_from(("scan", "count", "rebind")),
                              st.integers(0, 1), st.integers(0, 45)),
                    max_size=10))
    # Rebound after a table covers the domain: the next scan is opaque.
    @example((Domain([1, "ab", 1001, "ab"]), 0),
             [("scan", 0, 9), ("rebind", 0, 1), ("scan", 0, 9),
              ("count", 0, 0)])
    def test_scan_and_count_sequences_match_the_row_by_row_scan(
            self, case, steps):
        domain, _ = case
        pfsms = [_mixed_pfsms()["compiled"],
                 PrimitiveFSM("d", "scan", "x",
                              spec_accepts=satisfies_any(
                                  is_instance(str), greater_equal(1001)),
                              impl_accepts=length_le(2))]
        # How many codes each program's table covers; None once the
        # pFSM is opaque.
        covered = [0, 0]
        persistent = not isinstance(domain, list)
        distinct = len(set(map(id, domain)))
        for step, which, limit in steps:
            pfsm = pfsms[which]
            if step == "rebind":
                pfsm.spec_accepts.rebind(_REBINDS[limit % len(_REBINDS)])
                assert plan.program_for(pfsm) is None
                covered[which] = None
                continue
            with _counters() as counters:
                if step == "count":
                    reach = distinct
                    assert hidden_witness_count(pfsm, domain) == \
                        sum(map(pfsm.takes_hidden_path, domain))
                else:
                    reach = _seed_judged(pfsm, domain, limit)
                    expected = _seed_scan(pfsm, domain, limit) \
                        if limit > 0 else []
                    found = hidden_witness_scan(pfsm, domain, limit=limit)
                    assert len(found) == len(expected)
                    assert all(map(operator.is_, found, expected))
            if step == "scan" and limit <= 0:
                assert counters.get("sweep.objects.judged", 0) == 0
                continue
            start = covered[which] if persistent else None
            if start is None:
                assert counters["sweep.objects.judged"] == reach
                assert "sweep.objects.reused" not in counters
                continue
            assert counters["sweep.objects.judged"] == max(0, reach - start)
            assert counters.get("sweep.objects.reused", 0) == \
                min(start, reach)
            covered[which] = max(start, reach)

    def test_a_scan_covered_by_the_table_judges_nothing(self):
        calls = {"n": 0}

        def counted(value):
            calls["n"] += 1
            return value % 3 != 0

        spec = named_predicate("sweep_tabled_not_div3", counted,
                               "counts its verdicts")
        pfsm = PrimitiveFSM("p", "scan", "x", spec_accepts=spec,
                            impl_accepts=less_equal(1000))
        domain = Domain(list(range(30)) * 4)
        reference = _seed_scan(pfsm, domain, 10**9)
        calls["n"] = 0
        with columnar.disabled():
            assert hidden_witness_scan(pfsm, domain, limit=2) == \
                reference[:2]
            assert calls["n"] == 4  # 0..3, up to the second witness
            assert hidden_witness_scan(pfsm, domain, limit=1) == [0]
            assert hidden_witness_scan(pfsm, domain, limit=4) == \
                reference[:4]
            assert calls["n"] == 10  # 4..9 are new
            assert hidden_witness_count(pfsm, domain) == len(reference)
            assert calls["n"] == 30
            with _counters() as counters:
                for limit in (1, 7, 10**9):
                    assert hidden_witness_scan(pfsm, domain, limit=limit) \
                        == reference[:limit]
            assert calls["n"] == 30
        assert counters["sweep.scans.compiled"] == 3
        assert counters["sweep.objects.judged"] == 0
        assert counters["sweep.objects.reused"] == 1 + 19 + 30
        # A new program of the same spec keeps a table of its own.
        twin = PrimitiveFSM("q", "scan", "x", spec_accepts=spec,
                            impl_accepts=less_equal(1000))
        with columnar.disabled():
            assert hidden_witness_scan(twin, domain, limit=10**9) == \
                reference
        assert calls["n"] == 60

    def test_named_predicate_rebound_in_place_is_not_served_stale_verdicts(
            self):
        leaf = named_predicate("sweep_tabled_rebindable", lambda v: v >= 0,
                               "non-negative")
        pfsm = PrimitiveFSM("p", "scan", "x",
                            spec_accepts=leaf & less_equal(100),
                            impl_accepts=None)
        domain = Domain([-2, -1, 0, 1, 200] * 3)
        with columnar.disabled():
            first = plan.program_for(pfsm)
            assert first is not None
            assert hidden_witness_scan(pfsm, domain, limit=10**9) == \
                [-2, -1, 200] * 3
            # The registered predicate changes under the program that
            # bound it, so the program is emitted anew, with no table.
            leaf.rebind(lambda v: v < 0, "negative")
            assert hidden_witness_scan(pfsm, domain, limit=10**9) == \
                _seed_scan(pfsm, domain, 10**9) == [0, 1, 200] * 3
            assert plan.program_for(pfsm) is not first

    def test_tables_die_with_their_program_and_their_domain(self):
        import gc

        pfsm = _string_pfsms()[0]
        domain = Domain(_strings(40) * 2)
        with columnar.disabled():
            hidden_witness_scan(pfsm, domain, limit=10**9)
        index = witness.distinct_rows(domain)
        program = plan.program_for(pfsm)
        assert index.verdicts[program][1] == 40
        tables = index.verdicts
        del program, pfsm
        gc.collect()
        assert len(tables) == 0
        hidden_witness_scan(_string_pfsms()[0], domain, limit=10**9)
        assert len(tables) == 0  # kept by the new program, now dead too
        ref = weakref.ref(domain)
        del index, domain
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("strategy", ["compiled", "columnar"])
    def test_threads_scanning_one_program_at_once(self, strategy):
        if strategy == "columnar":
            pytest.importorskip("numpy")  # the columnar kernels' engine
        pfsm = _string_pfsms()[1]
        domain = Domain(_strings(300) * 3)
        limits = [1, 2, 5, 40, 150, 10**9]
        expected = {limit: _seed_scan(pfsm, domain, limit)
                    for limit in limits}
        count = len(expected[10**9])
        barrier = threading.Barrier(4)
        failures = []

        def scan(seed):
            order = random.Random(seed).sample(limits * 3, len(limits) * 3)
            barrier.wait()
            for limit in order:
                if limit == 10**9 and seed % 2:
                    if hidden_witness_count(pfsm, domain) != count:
                        failures.append(("count", seed))
                elif hidden_witness_scan(pfsm, domain, limit=limit) != \
                        expected[limit]:
                    failures.append((limit, seed))

        switch = columnar.disabled() if strategy == "compiled" \
            else contextlib.nullcontext()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with switch:
                assert plan.plan_scan(pfsm, domain).strategy == strategy
                threads = [threading.Thread(target=scan, args=(seed,))
                           for seed in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            sys.setswitchinterval(previous)
        assert failures == []
        # Whichever scan published last, its table is whole and right.
        index = witness.distinct_rows(domain)
        table, judged = index.verdicts[plan.program_for(pfsm)]
        assert judged == len(index.objects) == 300
        assert [table[code] for code in range(judged)] == \
            [int(pfsm.takes_hidden_path(obj)) for obj in index.objects]

    def test_process_sweep_forked_from_a_warm_parent(self):
        models = all_extended_models()
        domains = all_extended_pfsm_domains()
        dist.clear_memo()
        try:
            sweep_models(models, domains, limit=1)  # tables cover a prefix
            programs = [(witness.distinct_rows(domains[label][p.name]),
                         plan.program_for(p))
                        for label, model in models.items()
                        for _op, p in model.all_pfsms()
                        if p.name in domains.get(label, {})]
            programs = [(index, program) for index, program in programs
                        if index is not None and program is not None]
            before = [index.verdicts.get(program)
                      for index, program in programs]
            assert any(before)
            forked = sweep_models(models, domains, limit=5, mode="process",
                                  workers=2)
            # The workers extended their inherited copies, not ours.
            assert [index.verdicts.get(program)
                    for index, program in programs] == before
            inline = sweep_models(models, domains, limit=5)
        finally:
            dist.clear_memo()
        cold = sweep_models(all_extended_models(),
                            all_extended_pfsm_domains(), limit=5)
        assert _flat(forked) == _flat(inline) == _flat(cold)
        assert any(s.vulnerable for s in cold)


class TestEvaluateDigestMany:
    """The compiled scan's one loop, which replaced the windowed bulk
    evaluation: domain order and one judgement per distinct object."""

    @pytest.fixture(autouse=True)
    def _scalar_engine(self):
        with columnar.disabled():
            yield

    def test_verdicts_match_chunk_order(self):
        pfsm = _string_pfsms()[0]
        domain = Domain(_strings(1500))  # spans several old 512-windows
        found = hidden_witness_scan(pfsm, domain, limit=10**9)
        assert plan.program_for(pfsm) is not None
        assert found == _seed_scan(pfsm, domain, 10**9)
        assert len(found) > 512

    def test_equal_objects_within_chunk_judged_once(self):
        pfsm = _string_pfsms()[1]
        objects = _strings(5)
        with _counters() as counters:
            found = hidden_witness_scan(pfsm, Domain(objects * 30),
                                        limit=10**9)
        assert found == _seed_scan(pfsm, Domain(objects * 30), 10**9)
        assert counters["sweep.scans.compiled"] == 1
        assert counters["sweep.objects.judged"] == 5

    def test_warm_across_calls_and_with_scalar_twin(self):
        pfsm = _string_pfsms()[2]
        domain = Domain(_strings(200))
        first = hidden_witness_scan(pfsm, domain, limit=50)
        with _counters() as counters:
            assert hidden_witness_scan(pfsm, domain, limit=50) == first
        assert counters.get("plan.compiles", 0) == 0  # program reused
        with plan.disabled():
            with _counters() as counters:
                scalar = hidden_witness_scan(pfsm, domain, limit=50)
        assert counters["sweep.scans.plain"] == 1
        assert scalar == first

    def test_unhashable_objects_bypass_and_still_judge(self):
        def shared():
            return attr("s", satisfies_all(is_instance(str), length_le(64),
                                           not_contains("%n")))

        keep = PrimitiveFSM("a", "scan", "x",
                            spec_accepts=satisfies_all(
                                shared(), attr("s", not_contains("%s"))),
                            impl_accepts=always)
        other = PrimitiveFSM("b", "scan", "x",
                             spec_accepts=satisfies_all(
                                 shared(), attr("s", contains("/"))),
                             impl_accepts=always)
        # Equal but distinct dicts: each is judged by the identity memo.
        records = [{"s": text} for text in _strings(40) * 2]
        domain = Domain(records)
        plan.program_for(other)
        assert plan.program_for(keep) is not None
        found = hidden_witness_scan(keep, domain, limit=10**9)
        assert found == _seed_scan(keep, domain, 10**9)
        assert 0 < len(found) < len(records)


class TestScanWindow:
    """The bulk-evaluation window is gone: a compiled scan is one loop,
    and only its ``limit`` decides where it stops."""

    def test_window_size_does_not_change_witnesses(self):
        domain = Domain([f"{'%n' * (i % 9)}{i}" for i in range(700)])
        pfsm = PrimitiveFSM(
            "p", "scan", "x",
            spec_accepts=satisfies_all(not_contains("%n"), length_le(6)),
            impl_accepts=length_le(40))
        with plan.disabled():
            reference = hidden_witness_scan(pfsm, domain, limit=10**9)
        with columnar.disabled():
            assert plan.program_for(pfsm) is not None
            for limit in (1, 3, 64, 512, 10_000):
                assert hidden_witness_scan(pfsm, domain, limit=limit) \
                    == reference[:limit]


# ---------------------------------------------------------------------------
# hot-path surgery keeps observable behaviour
# ---------------------------------------------------------------------------

class TestMinimalFoilPointsFastPath:
    def test_fast_path_matches_exhaustive_on_every_bundled_model(self):
        models = all_extended_models()
        exploits = all_extended_exploit_inputs()
        for label, model in models.items():
            fast = minimal_foil_points(model, exploits[label])
            slow = minimal_foil_points(model, exploits[label],
                                       exhaustive=True)
            assert fast == slow, label
            assert fast, f"{label}: exploit should be foilable"


class TestBoundedStateSpaceQueries:
    def _space(self):
        label = "NULL HTTPD Heap Overflow"
        return build_state_space(all_extended_models()[label],
                                 all_extended_pfsm_domains()[label])

    def test_cutoff_bounds_path_length(self):
        space = self._space()
        unbounded = space.exploit_paths(limit=64)
        assert unbounded
        cutoff = max(len(p) for p in unbounded) - 1
        bounded = space.exploit_paths(limit=64, cutoff=cutoff)
        assert bounded == unbounded
        short = space.exploit_paths(limit=64, cutoff=2)
        assert all(len(path) <= 3 for path in short)

    def test_max_paths_caps_enumeration(self):
        space = self._space()
        capped = space.exploit_paths(limit=64, max_paths=1)
        assert len(capped) <= 1

    def test_cut_set_still_disconnects_the_exploit(self):
        space = self._space()
        cut = space.cut_set(cutoff=None, max_paths=None)
        assert cut
        survivor = space
        for edge in cut:
            operation, pfsm = space.edge_owner(edge)
            survivor = survivor.without_hidden_edge(operation, pfsm)
        assert not survivor.compromise_reachable()


class TestLazyDomains:
    def test_integer_domain_stays_range_backed(self):
        domain = Domain.integers(-10**6, 10**6)
        assert isinstance(domain.backing, range)
        assert len(domain) == 2 * 10**6 + 1
        assert 123456 in domain
        assert 10**6 + 1 not in domain
        assert "nope" not in domain

    def test_record_domain_has_len_without_materializing(self):
        domain = Domain.records(a=Domain.of(1, 2, 3), b=Domain.of(4, 5))
        assert len(domain) == 6
        assert {"a": 1, "b": 5} in domain
        assert {"a": 9, "b": 4} not in domain
        # Re-iterable: two passes see the same records.
        assert list(domain) == list(domain)

    def test_membership_on_list_domain(self):
        domain = Domain.of("x", "y")
        assert "x" in domain
        assert "z" not in domain
