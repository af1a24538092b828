from math import factorial, prod

import pytest

from permfact.counting import series_prefix
from permfact.oracle import Poly, monomial_symmetric, power_sum


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


def _from_monomials(row, index, N):
    """The polynomial in N variables whose coordinates on the monomial
    symmetric functions m_mu, mu in index, are the sparse row's."""
    out = Poly(N)
    for col, v in row:
        out = out + monomial_symmetric(index.ordered[col], N).scale(v)
    return out


def _dense_product(X, Y):
    """The product of two dense square matrices."""
    return [[sum(x * row[j] for x, row in zip(line, Y) if x)
             for j in range(len(Y))] for line in X]


def _power_product(nu, N):
    """p_nu in N variables, as a product of oracle power sums."""
    return prod((power_sum(r, N) for r in nu), start=Poly.constant(N, 1))


@pytest.fixture
def dense():
    return _dense


@pytest.fixture
def dense_product():
    return _dense_product


@pytest.fixture
def from_monomials():
    return _from_monomials


@pytest.fixture
def power_product():
    return _power_product


@pytest.fixture
def spectral_counts():
    return _spectral_counts
