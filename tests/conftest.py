from math import factorial

import pytest

from permfact.counting import series_prefix


def _dense(rows):
    """The p(n) x p(n) list of lists that sparse (column, value) rows
    stand for. The library never builds it; tests compare against it."""
    out = [[0] * len(rows) for _ in rows]
    for line, pairs in zip(out, rows):
        for j, v in pairs:
            line[j] = v
    return out


def _spectral_counts(mu, k_max):
    """count_spectral(mu, k) for k = 0 .. k_max from one walk of column
    mu: the series coefficients c_k/k! times k!."""
    return [int(c * factorial(k)) for k, c
            in enumerate(series_prefix(mu, k_max + 1).coefficients)]


@pytest.fixture
def dense():
    return _dense


@pytest.fixture
def spectral_counts():
    return _spectral_counts
