"""Fixtures shared by the test modules."""

import pytest

from spincheck import scalar


@pytest.fixture
def gcd_calls(monkeypatch):
    """A list that grows by one entry per call of the polynomial gcd of
    Q(v) canonicalization."""
    calls = []
    pgcd = scalar._pgcd

    def spy(a, b):
        calls.append((a, b))
        return pgcd(a, b)

    monkeypatch.setattr(scalar, "_pgcd", spy)
    return calls
