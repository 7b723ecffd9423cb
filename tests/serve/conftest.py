"""Shared fixtures of the serving tests."""

import pytest

from repro.core import dist, predspec


@pytest.fixture
def encode_calls(monkeypatch):
    """Counts every top-level :func:`~repro.core.predspec.encode_value`
    call made by the engine, the store and the protocol, in any thread
    (``calls[0]``).  The engine and the protocol encode witnesses
    through :func:`~repro.core.predspec.encode_witness`, which calls it
    in :mod:`~repro.core.predspec`."""
    calls = [0]
    original = predspec.encode_value

    def counting(value):
        calls[0] += 1
        return original(value)

    for module in (predspec, dist):
        monkeypatch.setattr(module, "encode_value", counting)
    return calls
