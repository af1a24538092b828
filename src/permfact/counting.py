"""Counting factorizations into k transpositions, and the table of routes.

c_k(mu) = (1/n!) * sum_r a_r r^k, a combination of geometric sequences
in k, is one Expansion, with a weight a_r per +-r pair of eigenvalues. The
spectral route sums chi^lam(1^n) chi^lam(mu) over the lam of column mu
with rho_lam = r; the closed forms for one and two cycles build the same
object from formulas. Counts, series and the battery evaluate or compare
expansions; count_matrix_method walks row mu of the transition matrix
instead. `count` and the battery read ROUTES, so a route added there is
run, and compared by count and by expansion, with no other edit.
"""

from collections import namedtuple
from math import comb, factorial

from .partitions import (check_partition, is_int_at_least, rho, z_value,
                         BRUTE_MAX_N, BRUTE_MAX_K)


class Expansion(namedtuple("Expansion", "n sign weights")):
    """c_k = (1/n!) * sum a_r r^k over every eigenvalue r, with a_-r =
    sign a_r for sign = (-1)^(n-l(mu)) (the partition graph is bipartite).
    weights: the (r, a_r) with r >= 0, r descending, no a = 0, as _grouped
    builds them; so two of one n are equal exactly when their counts agree
    at every k. Expansion(3, 1, w) == (3, 1, w), and c_k is at(k)."""
    __slots__ = ()

    def at(self, k):
        """c_k, checked to be a count; 0 at once off the parity of sign."""
        if not is_int_at_least(k, 0):
            raise ValueError(f"k must be a nonnegative int, got {k!r}")
        if (-1) ** (k % 2) != self.sign:
            return 0
        total = sum((2 * a if r else a) * r ** k for r, a in self.weights)
        if total % factorial(self.n) != 0 or total < 0:
            raise RuntimeError(f"expansion sum {total} is not a nonnegative "
                               f"multiple of {self.n}! at k={k}")
        return total // factorial(self.n)


def _grouped(n, length, pairs):
    """The Expansion of (w, r) pairs for a mu of length parts, the ws of
    each r summed; the one check of a_-r = (-1)^(n-length) a_r."""
    weights = {}
    for w, r in pairs:
        weights[r] = weights.get(r, 0) + w
    sign = (-1) ** (n - length)
    for r, a in weights.items():
        if weights.get(-r, 0) != sign * a:
            raise RuntimeError(f"weight pairing a_-r = {sign} * a_r fails "
                               f"at r = {r} for S_{n}")
    return Expansion(n, sign, tuple(sorted(
        ((r, a) for r, a in weights.items() if r >= 0 and a), reverse=True)))


def spectral_expansion(mu):
    """Weights chi^lam(1^n) chi^lam(mu) at rho_lam over the support of
    column mu, with dimensions from the hook formula, after both column
    orthogonality checks. Every spectral count evaluates it."""
    from .characters import character_column, dimension_hook_formula
    mu = check_partition(mu)
    column = character_column(mu)
    dims = {lam: dimension_hook_formula(lam) for lam in column}
    n = sum(mu)
    # column orthogonality, on exactly the data the count reads
    if sum(chi * chi for chi in column.values()) != z_value(mu):
        raise RuntimeError(f"column {mu} of the character table does not "
                           f"have squared norm z = {z_value(mu)}")
    pairing = sum(dims[lam] * chi for lam, chi in column.items())
    if pairing != (factorial(n) if mu == (1,) * n else 0):
        raise RuntimeError(f"hook dimensions and column {mu} are not "
                           f"orthogonal: sum of dim * chi is {pairing}")
    return _grouped(n, len(mu), ((dims[lam] * chi, rho(lam))
                                 for lam, chi in column.items()))


def count_spectral(mu, k):
    """c_k(mu) from character values and content-sum eigenvalues."""
    return spectral_expansion(mu).at(k)


def count_matrix_method(mu, k):
    """c_k(mu) = (A^k)[mu][1^n] by transition.walk_row, read when it runs."""
    from . import transition  # loaded only where the walk runs
    return transition.walk_row(check_partition(mu), k)


def goulden_expansion(n):
    """Single-cycle closed form: weight C(n-1,i) (-1)^i at
    r = C(n,2) - n i for i = 0 .. n-1."""
    if not is_int_at_least(n, 1):
        raise ValueError(f"n must be a positive int, got {n!r}")
    return _grouped(n, 1, ((comb(n - 1, i) * (-1) ** i, comb(n, 2) - n * i)
                           for i in range(n)))


def count_goulden(n, k):
    """c_k((n,)) from the single-cycle closed form."""
    return goulden_expansion(n).at(k)


# ---------------------------------------------------------------------------
# two-cycle closed form


def _abcd_partition(a, b, c, d):
    # first row a, second row c+1, then d rows of 2 and b-d-1 rows of 1
    assert 1 <= c < a and 0 <= d < b
    return tuple(sorted((a, c + 1) + (2,) * d + (1,) * (b - d - 1),
                        reverse=True))


def _abcd_dimension(n, a, b, c, d):
    num = factorial(n) // (factorial(a) * factorial(b) * factorial(c) * factorial(d))
    num *= a * c * (a - c) * (b - d)
    den = (a + b) * (a + d) * (b + c) * (c + d)
    if num % den != 0:
        raise RuntimeError(f"non-integer dimension for abcd={a, b, c, d}")
    return num // den


def _abcd_rho(a, b, c, d):
    return comb(a, 2) - comb(b + 1, 2) + comb(c, 2) - comb(d + 1, 2)


def two_cycle_terms(m, k_small):
    """Spectral terms for mu = (m, k_small) as (partition, chi_mu,
    chi_one, rho) tuples, from closed formulas only.

    Contributing shapes fit inside two hooks: hooks themselves and
    shapes with a 2x2 but no 3x3 square, the latter parametrized by
    arm/leg pairs (a, b, c, d). A hook with arm length in (k_small, m]
    carries two tableaux of opposite sign and so drops out; an arm of
    length at most k_small forces a single tableau of sign (-1)^(b+1),
    and an arm longer than m a single tableau of sign (-1)^b.
    """
    if not (is_int_at_least(k_small, 1) and is_int_at_least(m, k_small)):
        raise ValueError(f"need ints m >= k_small >= 1, got m={m!r}, "
                         f"k_small={k_small!r}")
    n = m + k_small
    terms = []
    for j in range(1, k_small + 1):
        for i in range(j + 1, m - k_small + j):
            a, b, c, d = i, m - i, j, k_small - j
            terms.append((_abcd_partition(a, b, c, d), (-1) ** (b + d),
                          _abcd_dimension(n, a, b, c, d), _abcd_rho(a, b, c, d)))
    doubled = 2 if m == k_small else 1
    for j in range(1, k_small + 1):
        for i in range(m - k_small + j + 1, m + 1):
            a, b, c, d = i, k_small - j, j, m - i
            terms.append((_abcd_partition(a, b, c, d),
                          doubled * (-1) ** (b + d + 1),
                          _abcd_dimension(n, a, b, c, d), _abcd_rho(a, b, c, d)))
    if m > k_small:
        for j in range(1, k_small + 1):
            for i in range(j + 1, k_small + 1):
                a, b, c, d = i, m - j, j, k_small - i
                terms.append((_abcd_partition(a, b, c, d), (-1) ** (b + d + 1),
                              _abcd_dimension(n, a, b, c, d),
                              _abcd_rho(a, b, c, d)))
    for a in range(1, n + 1):
        b = n - a
        if a > m:
            chi = (-1) ** b
        elif a <= k_small:
            chi = (-1) ** (b + 1)
        else:
            continue  # two tableaux of opposite sign cancel
        hook = (a,) + (1,) * b
        terms.append((hook, chi, comb(n - 1, b), comb(a, 2) - comb(b + 1, 2)))
    return terms


def two_cycle_expansion(m, k_small):
    """The Expansion of c_k((m, k_small)) from two_cycle_terms."""
    return _grouped(m + k_small, 2, ((chi * dim, r) for _, chi, dim, r
                                     in two_cycle_terms(m, k_small)))


def count_two_cycle(m, k_small, k, max_n=None):
    """c_k((m, k_small)) from the two-cycle closed form. max_n, when given,
    is a size ceiling; it is kept because the benchmark's checks pass one."""
    if max_n is not None and m + k_small > max_n:
        raise ValueError(f"n={m + k_small} above ceiling {max_n}")
    return two_cycle_expansion(m, k_small).at(k)


# ---------------------------------------------------------------------------
# the table of count routes


def _count_brute(mu, k):
    from . import oracle  # loaded only where brute force runs
    return oracle.count_brute(mu, k)


# Every count route, in the order `count --method all` runs them, as name:
# (reason, count, expansion). reason(mu, k) is why the route cannot answer,
# or None; count(mu, k) and expansion(mu), None where a route builds no
# Expansion, read their function by name when they run, so rebinding works.
ROUTES = {
    "spectral": (lambda mu, k: None, lambda mu, k: count_spectral(mu, k),
                 lambda mu: spectral_expansion(mu)),
    "matrix": (lambda mu, k: None if sum(mu) >= 2 else "needs n >= 2",
               lambda mu, k: count_matrix_method(mu, k), None),
    "goulden": (
        lambda mu, k: None if len(mu) == 1 else "needs a single-part mu",
        lambda mu, k: count_goulden(sum(mu), k),
        lambda mu: goulden_expansion(sum(mu))),
    "two-cycle": (
        lambda mu, k: None if len(mu) == 2 else "needs a two-part mu",
        lambda mu, k: count_two_cycle(*mu, k),
        lambda mu: two_cycle_expansion(*mu)),
    "brute": (
        lambda mu, k: None if sum(mu) <= BRUTE_MAX_N and k <= BRUTE_MAX_K
        else f"capped at n <= {BRUTE_MAX_N}, k <= {BRUTE_MAX_K}",
        _count_brute, None),
}


# ---------------------------------------------------------------------------
# generating-function prefix


class SeriesPrefix(namedtuple("SeriesPrefix",
                               "mu coefficients nonzero_parity")):
    """mu, the Fractions c_j(mu)/j! for j = 0 .. terms-1, and the residue
    r mod 2 such that coefficients vanish off j = r (mod 2)."""
    __slots__ = ()


def series_prefix(mu, terms):
    """Exponential generating coefficients c_j(mu)/j! for j < terms.

    Only one parity of j can be nonzero (the partition graph is
    bipartite): the expansion's builder checks the pairing that makes it
    so, and at(j) is 0 off that parity.
    """
    from fractions import Fraction  # only a series makes one
    mu = check_partition(mu)
    if not is_int_at_least(terms, 1):
        raise ValueError(f"terms must be a positive int, got {terms!r}")
    expansion = spectral_expansion(mu)
    return SeriesPrefix(mu, tuple(Fraction(expansion.at(j), factorial(j))
                                  for j in range(terms)),
                        (1 - expansion.sign) // 2)
