"""Symmetric functions of degree n as integer rows on the monomial basis
m_mu, mu in P(n), in A_n's sparse row format: (column, value) pairs,
value != 0, columns ascending. Row lam holds the m-coordinates of the
image or expansion of lam:

    dstar_rows(n)       D - 2nN I, D the paper's operator (defined by
                        oracle.apply_dstar) in any N >= n variables
    pour_rows(n)        R[nu][mu], the coefficient of m_mu in p_nu
    kostka_rows(table, pour)
                        K, with s_lam = sum_mu K[lam][mu] m_mu, pour
                        being pour_rows(n)

and times_rows, the one product of a sparse row vector with such rows.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial

from .partitions import enumerate_partitions, class_size


def times_rows(pairs, rows):
    """The row vector with these (position, value) pairs times the square
    matrix with these sparse rows, as a dense list."""
    out = [0] * len(rows)
    for s, x in pairs:
        for t, v in rows[s]:
            out[t] += x * v
    return out


def dstar_rows(n):
    """D - 2nN I on {m_lam}: the diagonal is sum_k lam_k (lam_k - 1 - 2k),
    k from 1. D sends x_i^a x_j^b + x_i^b x_j^a, a > b, to 2a times itself
    plus 2(a - b) sum_{t=1}^{a-b-1} x_i^(b+t) x_j^(a-t). So x^mu in D m_lam
    gains 2(a - b) per pair of parts c >= d of mu and b < d with
    lam = mu - {c, d} + {a, b}, a = c + d - b (a part b = 0 dropped)."""
    index = enumerate_partitions(n)
    rows = [Counter() for _ in index]
    for col, mu in enumerate(index):
        rows[col][col] = sum(p * (p - 1 - 2 * k)
                             for k, p in enumerate(mu, 1))
        for i, j in combinations(range(len(mu)), 2):
            c, d = mu[i], mu[j]
            rest = mu[:i] + mu[i + 1:j] + mu[j + 1:]
            for b in range(d):
                a = c + d - b
                lam = tuple(sorted(filter(None, rest + (a, b)), reverse=True))
                rows[index.rank[lam]][col] += 2 * (a - b)
    return [sorted((c, v) for c, v in row.items() if v) for row in rows]


def pour_rows(n):
    """R[nu][mu]: the ways to pour the parts of nu into the rows of mu.
    p_nu = p_r p_rest, r = nu_1, and p_r m_mu adds r to one part v of mu,
    or to a new part v = 0, giving m_lam times lam's count of v + r."""
    index = enumerate_partitions(n)

    @cache
    def coords(nu):
        if not nu:
            return {(): 1}
        r, out = nu[0], {}
        for mu, c in coords(nu[1:]).items():
            for v in set(mu) | {0}:
                at = mu.index(v) if v else len(mu)
                lam = tuple(sorted(mu[:at] + (v + r,) + mu[at + 1:],
                                   reverse=True))
                out[lam] = out.get(lam, 0) + c * lam.count(v + r)
        return out

    return [sorted((index.rank[mu], c) for mu, c in coords(nu).items())
            for nu in index]


def kostka_rows(table, pour):
    """K = chi diag(n!/z) R / n! from a character table of S_n, summed in
    integers, with R = pour = pour_rows(n); a pour of another size is a
    ValueError. An entry that is not a nonnegative integer flags a broken
    table and raises RuntimeError."""
    n, index = table.n, table.index
    if len(pour) != len(index):
        raise ValueError(f"pour table has {len(pour)} rows, not "
                         f"p({n}) = {len(index)}")
    nfact = factorial(n)
    sizes = [class_size(nu) for nu in index]
    rows = []
    for lam, chi in zip(index, table.values):
        scaled = times_rows(((s, x * size) for s, (x, size)
                             in enumerate(zip(chi, sizes)) if x), pour)
        for col, c in enumerate(scaled):
            if c % nfact or c < 0:
                raise RuntimeError(
                    f"non-integer or negative Kostka number "
                    f"{Fraction(c, nfact)} at ({lam}, {index.ordered[col]})")
        rows.append([(col, c // nfact) for col, c in enumerate(scaled) if c])
    return rows
