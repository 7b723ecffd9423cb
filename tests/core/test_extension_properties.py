"""Property-based tests over the extension layers: metrics bounds and
monotonicity, state-space structure on random chain models, and
serialization stability."""

# State-space queries import networkx on first use; importing it here
# keeps that one-time cost out of the first timed hypothesis example.
import networkx  # noqa: F401
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Domain,
    Operation,
    PrimitiveFSM,
    VulnerabilityModel,
    WeightedDomain,
    build_state_space,
    compromise_probability,
    in_range,
    model_fingerprint,
    model_to_dict,
)

intervals = st.tuples(
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=-10, max_value=10),
).map(lambda pair: (min(pair), max(pair)))

chains = st.lists(st.tuples(intervals, intervals), min_size=1, max_size=4)


def _chain_model(shapes):
    pfsms = [
        PrimitiveFSM(f"p{i}", f"activity {i}", "x",
                     spec_accepts=in_range(*spec),
                     impl_accepts=in_range(*impl))
        for i, (spec, impl) in enumerate(shapes)
    ]
    operation = Operation("op", "the object", pfsms)
    return VulnerabilityModel("random chain", [operation])


class TestMetricsProperties:
    @given(chains)
    @settings(max_examples=50)
    def test_probability_bounded(self, shapes):
        model = _chain_model(shapes)
        inputs = WeightedDomain.uniform(Domain.integers(-12, 12))
        probability = compromise_probability(model, inputs)
        assert 0.0 <= probability <= 1.0

    @given(chains)
    @settings(max_examples=50)
    def test_securing_never_increases_probability(self, shapes):
        model = _chain_model(shapes)
        inputs = WeightedDomain.uniform(Domain.integers(-12, 12))
        before = compromise_probability(model, inputs)
        for _operation, pfsm in model.all_pfsms():
            hardened = model.with_pfsm_secured("op", pfsm.name)
            after = compromise_probability(hardened, inputs)
            assert after <= before + 1e-12

    @given(chains)
    @settings(max_examples=50)
    def test_fully_secured_probability_zero(self, shapes):
        model = _chain_model(shapes).fully_secured()
        inputs = WeightedDomain.uniform(Domain.integers(-12, 12))
        assert compromise_probability(model, inputs) == 0.0

    @given(chains, st.integers(min_value=-12, max_value=12))
    @settings(max_examples=50)
    def test_probability_is_measure_of_compromising_inputs(self, shapes, x):
        model = _chain_model(shapes)
        singleton = WeightedDomain([(x, 1.0)])
        probability = compromise_probability(model, singleton)
        assert probability == (1.0 if model.is_compromised_by(x) else 0.0)


class TestStateSpaceProperties:
    @given(chains)
    @settings(max_examples=40)
    def test_node_count_formula(self, shapes):
        model = _chain_model(shapes)
        space = build_state_space(model,
                                  {f"p{i}": Domain.integers(-12, 12)
                                   for i in range(len(shapes))})
        # 3 nodes per pFSM + ENTRY + COMPROMISED + FOILED.
        assert space.node_count == 3 * len(shapes) + 3

    @given(chains)
    @settings(max_examples=40)
    def test_exploit_paths_formula(self, shapes):
        model = _chain_model(shapes)
        domains = {f"p{i}": Domain.integers(-12, 12)
                   for i in range(len(shapes))}
        space = build_state_space(model, domains)
        hidden = len(space.hidden_edges())
        paths = space.exploit_paths(limit=256)
        assert len(paths) == 2**hidden - 1 if hidden else len(paths) == 0

    @given(chains)
    @settings(max_examples=40)
    def test_reachability_agrees_with_hidden_edges(self, shapes):
        model = _chain_model(shapes)
        domains = {f"p{i}": Domain.integers(-12, 12)
                   for i in range(len(shapes))}
        space = build_state_space(model, domains)
        assert space.compromise_reachable() == bool(space.hidden_edges())

    @given(chains)
    @settings(max_examples=40)
    def test_benign_path_always_exists_for_chains(self, shapes):
        model = _chain_model(shapes)
        space = build_state_space(model)
        assert space.benign_path_exists()


class TestSerializationProperties:
    @given(chains)
    @settings(max_examples=40)
    def test_fingerprint_deterministic(self, shapes):
        assert model_fingerprint(_chain_model(shapes)) == \
            model_fingerprint(_chain_model(shapes))

    @given(chains)
    @settings(max_examples=40)
    def test_dict_reflects_structure(self, shapes):
        model = _chain_model(shapes)
        data = model_to_dict(model)
        assert len(data["operations"][0]["pfsms"]) == len(shapes)

    @given(chains)
    @settings(max_examples=40)
    def test_securing_changes_fingerprint_iff_divergent(self, shapes):
        model = _chain_model(shapes)
        secured = model.fully_secured()
        # If every pFSM already had impl == spec semantically AND
        # textually, fingerprints match; a textual difference in any
        # impl description changes it.
        same_text = all(
            pfsm.impl_accepts is not None
            and pfsm.impl_accepts.description
            == pfsm.spec_accepts.description
            for _op, pfsm in model.all_pfsms()
        )
        if same_text:
            assert model_fingerprint(model) == model_fingerprint(secured)
        else:
            assert model_fingerprint(model) != model_fingerprint(secured)
