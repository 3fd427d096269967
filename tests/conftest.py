"""Shared fixtures."""

import pytest

from bosegas import quadrature


@pytest.fixture
def gk15_panels(monkeypatch):
    """Count Gauss-Kronrod panels evaluated while the test runs.

    One call of ``quadrature._gk15_batch`` evaluates several panels (both
    children of a split, or all initial pieces of one integrand), and one
    call of ``quadrature._gk15_tagged`` the panels of every row of a
    batch, so each call adds the number of panels it was given.
    """
    panels = [0]
    single = quadrature._gk15_batch
    tagged = quadrature._gk15_tagged

    def counted(f, spans, to_p):
        panels[0] += len(spans)
        return single(f, spans, to_p)

    def counted_rows(f, los, his, rows):
        panels[0] += len(los)
        return tagged(f, los, his, rows)

    monkeypatch.setattr(quadrature, "_gk15_batch", counted)
    monkeypatch.setattr(quadrature, "_gk15_tagged", counted_rows)
    return panels
