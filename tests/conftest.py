"""Shared fixtures."""

import pytest

from bosegas import quadrature


@pytest.fixture
def gk15_panels(monkeypatch):
    """Count Gauss-Kronrod panels evaluated while the test runs.

    One call of ``quadrature._gk15_batch`` evaluates several panels (both
    children of a split, or all initial pieces of one integrand), so each
    call adds the number of panels it was given.
    """
    panels = [0]
    inner = quadrature._gk15_batch

    def counted(f, spans, where):
        panels[0] += len(spans)
        return inner(f, spans, where)

    monkeypatch.setattr(quadrature, "_gk15_batch", counted)
    return panels
