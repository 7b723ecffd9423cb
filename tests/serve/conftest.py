"""Shared fixtures of the serving tests."""

import pytest

from repro.core import dist, predspec, sweep
from repro.serve import protocol


@pytest.fixture
def encode_calls(monkeypatch):
    """Counts every top-level :func:`~repro.core.predspec.encode_value`
    call made by the engine, the store and the protocol, in any thread
    (``calls[0]``)."""
    calls = [0]
    original = predspec.encode_value

    def counting(value):
        calls[0] += 1
        return original(value)

    for module in (predspec, sweep, dist, protocol):
        monkeypatch.setattr(module, "encode_value", counting)
    return calls
