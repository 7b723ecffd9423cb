"""The cluster wire protocol: framing, validation, codecs, addresses."""

import io
import json

import pytest

from repro.cluster.protocol import (
    MAX_LINE,
    ClusterProtocolError,
    decode_blob,
    decode_message,
    decode_payload,
    encode_blob,
    encode_line,
    encode_payload,
    parse_address,
    read_line,
)


class TestFraming:
    def test_encode_line_is_one_json_line(self):
        raw = encode_line({"op": "ping", "n": 1})
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        assert json.loads(raw) == {"op": "ping", "n": 1}

    def test_read_line_round_trips_and_signals_eof(self):
        stream = io.BytesIO(encode_line({"op": "ping"}))
        assert json.loads(read_line(stream)) == {"op": "ping"}
        assert read_line(stream) is None  # EOF, not an exception

    def test_read_line_rejects_oversized_lines(self):
        stream = io.BytesIO(b"x" * (MAX_LINE + 10))
        with pytest.raises(ClusterProtocolError):
            read_line(stream)


class TestMessages:
    def test_known_ops_decode(self):
        msg = decode_message('{"op": "claim", "worker": "w-1"}')
        assert msg["op"] == "claim" and msg["worker"] == "w-1"

    def test_unknown_op_rejected(self):
        with pytest.raises(ClusterProtocolError):
            decode_message('{"op": "evaluate", "worker": "w-1"}')

    def test_missing_worker_rejected(self):
        with pytest.raises(ClusterProtocolError):
            decode_message('{"op": "claim"}')

    def test_ping_needs_no_worker(self):
        assert decode_message('{"op": "ping"}')["op"] == "ping"

    def test_non_json_rejected(self):
        with pytest.raises(ClusterProtocolError):
            decode_message("claim w-1")


class TestCodecs:
    def test_blob_round_trip(self):
        data = bytes(range(256)) * 3
        assert decode_blob(encode_blob(data)) == data

    def test_invalid_base64_rejected(self):
        with pytest.raises(ClusterProtocolError):
            decode_blob("@@@not-base64@@@")

    def test_payload_round_trip_preserves_order_and_bytes(self):
        # A process chunk's rows name their tasks and carry no bytes.
        rows = [(4, b"\x00\x01task"), (0, b"other"), (3, b"")]
        assert decode_payload(encode_payload(rows)) == rows

    def test_payload_rejects_malformed_rows(self):
        for bad in (None, [["x", "aGk="]], [[True, "aGk="]], [[1]]):
            with pytest.raises(ClusterProtocolError):
                decode_payload(bad)


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.7:9000") == ("10.0.0.7", 9000)

    def test_bare_port_gets_default_host(self):
        assert parse_address("9000") == ("127.0.0.1", 9000)

    def test_bad_port_raises_with_flag_name(self):
        with pytest.raises(ValueError, match="--listen"):
            parse_address("host:notaport", flag="--listen")

    def test_out_of_range_port_rejected(self):
        with pytest.raises(ValueError):
            parse_address("host:70000")
