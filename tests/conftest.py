"""Shared fixtures."""

import pytest

from bosegas import quadrature


@pytest.fixture
def gk15_panels(monkeypatch):
    """Count Gauss-Kronrod panels evaluated while the test runs."""
    calls = [0]
    inner = quadrature._gk15

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(quadrature, "_gk15", counted)
    return calls
