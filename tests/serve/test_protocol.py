"""The serve wire protocol: request validation, response encoding."""

import json

import pytest

from repro.core.sweep import SweepFinding
from repro.serve import decode_request, encode_line, ProtocolError
from repro.serve.protocol import (
    KNOWN_OPS,
    SHED_STATUSES,
    encode_witness,
    finding_payload,
)


class TestDecodeRequest:
    def test_minimal_query(self):
        request = decode_request('{"model": "sendmail"}')
        assert request == {"op": "query", "id": None, "model": "sendmail",
                           "limit": 5, "deadline_ms": None,
                           "traceparent": None, "trace": False}

    def test_full_query(self):
        request = decode_request(
            '{"op": "query", "id": 7, "model": "iis", "limit": 2,'
            ' "deadline_ms": 250}')
        assert request["id"] == 7
        assert request["limit"] == 2
        assert request["deadline_ms"] == 250

    def test_trace_fields_pass_through(self):
        header = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        request = decode_request(json.dumps(
            {"model": "iis", "traceparent": header, "trace": True}))
        assert request["traceparent"] == header
        assert request["trace"] is True

    def test_oversized_traceparent_rejected(self):
        with pytest.raises(ProtocolError, match="traceparent"):
            decode_request(json.dumps(
                {"model": "iis", "traceparent": "x" * 129}))

    def test_non_string_traceparent_rejected(self):
        with pytest.raises(ProtocolError, match="traceparent"):
            decode_request('{"model": "iis", "traceparent": 12}')

    def test_non_boolean_trace_rejected(self):
        with pytest.raises(ProtocolError, match="'trace'"):
            decode_request('{"model": "iis", "trace": "yes"}')

    def test_ping_and_metrics_need_no_model(self):
        assert decode_request('{"op": "ping"}')["op"] == "ping"
        assert decode_request('{"op": "metrics", "id": "m"}') == {
            "op": "metrics", "id": "m"}

    def test_not_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_request("model=sendmail")

    def test_not_an_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_request('["query", "sendmail"]')

    def test_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            decode_request('{"op": "shutdown"}')
        assert set(KNOWN_OPS) == {"query", "ping", "metrics"}

    @pytest.mark.parametrize("model", ['""', "3", "null", "[]"])
    def test_bad_model(self, model):
        with pytest.raises(ProtocolError, match="'model'"):
            decode_request('{"model": %s}' % model)

    @pytest.mark.parametrize("limit", ["-1", "true", '"5"', "2.5"])
    def test_bad_limit(self, limit):
        with pytest.raises(ProtocolError, match="'limit'"):
            decode_request('{"model": "m", "limit": %s}' % limit)

    @pytest.mark.parametrize("deadline", ["0", "-10", "true", '"soon"'])
    def test_bad_deadline(self, deadline):
        with pytest.raises(ProtocolError, match="'deadline_ms'"):
            decode_request('{"model": "m", "deadline_ms": %s}' % deadline)

    def test_shed_statuses_are_the_refusals(self):
        assert SHED_STATUSES == {"overloaded", "timeout", "draining"}


class TestEncoding:
    def test_encode_line_round_trips(self):
        line = encode_line({"status": "ok", "id": 3})
        assert line.endswith(b"\n")
        assert json.loads(line.decode("utf-8")) == {"status": "ok", "id": 3}

    def test_encode_witness_codec_values(self):
        assert encode_witness(5) == 5
        assert encode_witness((1, 2)) == {"__tuple__": [1, 2]}

    def test_encode_witness_degrades_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque thing>"

        encoded = encode_witness(Opaque())
        assert encoded == {"__repr__": "<opaque thing>"}
        json.dumps(encoded)  # always renderable

    def test_finding_payload(self):
        finding = SweepFinding(
            model_name="M", operation_name="op", pfsm_name="pFSM1",
            activity="scan", witnesses=(7, (1, 2)),
        )
        payload = finding_payload(finding)
        assert payload["operation"] == "op"
        assert payload["pfsm"] == "pFSM1"
        assert payload["activity"] == "scan"
        assert payload["witnesses"] == [7, {"__tuple__": [1, 2]}]
        json.dumps(payload)

    def test_second_payload_encodes_nothing(self, encode_calls):
        finding = SweepFinding(
            model_name="M", operation_name="op", pfsm_name="pFSM1",
            activity="scan", witnesses=((1, 2), "x", (1, 2)),
        )
        first = finding_payload(finding)
        assert encode_calls[0] > 0
        encode_calls[0] = 0
        assert finding_payload(finding) == first
        assert encode_calls[0] == 0

    def test_mutating_a_response_leaves_the_next_intact(self):
        finding = SweepFinding(
            model_name="M", operation_name="op", pfsm_name="pFSM1",
            activity="scan", witnesses=(7, 8),
        )
        first = finding_payload(finding)
        first["witnesses"].append("tampered")
        first["witnesses"][0] = "tampered"
        assert finding_payload(finding)["witnesses"] == [7, 8]

    def test_out_of_codec_finding_degrades_per_witness(self):
        class Opaque:
            def __repr__(self):
                return "<opaque thing>"

        finding = SweepFinding(
            model_name="M", operation_name="op", pfsm_name="pFSM1",
            activity="scan", witnesses=(7, Opaque()),
        )
        assert finding.wire_witnesses is None
        payload = finding_payload(finding)
        assert payload["witnesses"] == [7, {"__repr__": "<opaque thing>"}]
        json.dumps(payload)

    def test_out_of_codec_finding_line_matches_the_reference(self):
        class Opaque:
            def __repr__(self):
                return "<opaque \u00e9>"

        findings = [
            SweepFinding(model_name="M", operation_name="op",
                         pfsm_name="pFSM1", activity="scan",
                         witnesses=(7, Opaque())),
            SweepFinding(model_name="M", operation_name="op",
                         pfsm_name="pFSM2", activity="scan",
                         witnesses=((1, "\u00e9"), b"\x00")),
        ]
        response = {"status": "ok", "model": "m", "vulnerable": True,
                    "findings": [finding_payload(f) for f in findings],
                    "cached": False, "id": 4, "elapsed_ms": 1.5}
        assert encode_line(response) == reference_line(response)


def reference_line(response):
    return (json.dumps(response, separators=(",", ":"), default=str)
            + "\n").encode("utf-8")


class TestMutatedPayloads:
    """A caller that edits a response before encoding it gets the edit
    on the wire, never the finding's memoized text."""

    @staticmethod
    def response():
        finding = SweepFinding(
            model_name="M", operation_name="op", pfsm_name="pFSM1",
            activity="scan", witnesses=(1, (1, 2), "x", (1, 2)),
        )
        finding_payload(finding)  # the memo is warm
        return {"status": "ok", "model": "m",
                "findings": [finding_payload(finding)], "cached": True}

    @pytest.mark.parametrize("edit", [
        lambda f: f["witnesses"].append("tampered"),
        lambda f: f["witnesses"].pop(),
        lambda f: f["witnesses"].reverse(),
        lambda f: f["witnesses"].__setitem__(0, 2),
        # equal to the original value, but encoded differently
        lambda f: f["witnesses"].__setitem__(0, True),
        lambda f: f["witnesses"].__setitem__(0, 1.0),
        lambda f: f["witnesses"].__setitem__(1, {"__list__": [1, 2]}),
        lambda f: f.__setitem__("witnesses", [9]),
        lambda f: f.__setitem__("witnesses", (1, 2)),
        lambda f: f.__setitem__("pfsm", "pFSM9"),
        lambda f: f.__setitem__("extra", {"k": None}),
        lambda f: f.__setitem__("operation", f.pop("operation")),
        lambda f: f.__setitem__("witnesses", f.pop("witnesses")),
        lambda f: f.pop("witnesses"),
        lambda f: f.clear(),
    ])
    def test_an_edited_finding_is_encoded_as_it_stands(self, edit):
        response = self.response()
        edit(response["findings"][0])
        assert encode_line(response) == reference_line(response)

    @pytest.mark.parametrize("edit", [
        lambda r: r["findings"].append({"operation": "added"}),
        lambda r: r["findings"].insert(0, r["findings"][0]),
        lambda r: r["findings"].clear(),
        lambda r: r.__setitem__("findings", None),
        lambda r: r.__setitem__("findings", r.pop("findings")),
        lambda r: r.__setitem__("id", 3),
    ])
    def test_an_edited_response_is_encoded_as_it_stands(self, edit):
        response = self.response()
        edit(response)
        assert encode_line(response) == reference_line(response)

    def test_an_untouched_response_reuses_the_text(self):
        response = self.response()
        assert response["findings"][0].pristine()
        assert encode_line(response) == reference_line(response)

