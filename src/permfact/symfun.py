"""Exact symmetric polynomials and the squared-degree differential operator.

Polynomials live in a fixed number of variables N, stored as
exponent-tuple -> coefficient maps. Coefficients are kept as given:
power sums, Schur polynomials and the operator's images are integer
polynomials, so they hold ints. Fraction appears only where values are
rational: power-sum coordinates and the solve that finds them. The
operator

    D f = sum_i x_i^2 d^2f/dx_i^2
        + sum_{i != j} (x_i^2 df/dx_i - x_j^2 df/dx_j) / (x_i - x_j)

acts on symmetric polynomials; on a Schur polynomial of degree n it
multiplies by 2n(N-1) + 2 rho, and its matrix on the power-sum basis of
degree n is twice the transposed transition matrix shifted by n(N-1).
Each divided difference is taken term by term on the exponent maps, as
(g - g|_{x_i=x_j}) / (x_i - x_j). That quotient is exact iff g vanishes
at x_i = x_j, and this is checked for every pair (i, j).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm
from operator import add

from .partitions import (enumerate_partitions, check_partition, class_size,
                         z_value)


class Poly:
    """Multivariate polynomial in N variables; coefficients are ints or
    Fractions, stored as given, zeros dropped."""

    __slots__ = ("N", "terms")

    def __init__(self, N, terms=None):
        self.N = N
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                if c:
                    self.terms[tuple(exps)] = c

    @classmethod
    def constant(cls, N, value):
        return cls(N, {(0,) * N: value})

    @classmethod
    def variable(cls, N, i, power=1):
        exps = [0] * N
        exps[i] = power
        return cls(N, {tuple(exps): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.N == other.N \
            and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Poly(self.N, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.N, out)

    def scale(self, value):
        return Poly(self.N, {e: c * value for e, c in self.terms.items()})

    def swap(self, i, j):
        out = {}
        for exps, c in self.terms.items():
            e = list(exps)
            e[i], e[j] = e[j], e[i]
            out[tuple(e)] = c
        return Poly(self.N, out)

    def __repr__(self):
        return f"Poly(N={self.N}, {len(self.terms)} terms)"


def is_symmetric(f):
    """Invariance under all adjacent transpositions of the variables."""
    return all(f.swap(i, i + 1) == f for i in range(f.N - 1))


def power_sum(k, N):
    """p_k = x_1^k + ... + x_N^k."""
    if N < 1 or k < 1:
        raise ValueError("need N >= 1 and k >= 1")
    out = Poly(N)
    for i in range(N):
        out = out + Poly.variable(N, i, k)
    return out


def expand_p(lam, N):
    """p_lam as the product of the power sums of its parts. The last 256
    are memoized: callers share the returned Poly, and every Poly
    operation builds a new one."""
    return _expand_p(check_partition(lam), N)


@lru_cache(maxsize=256)
def _expand_p(lam, N):
    out = Poly.constant(N, 1)
    for part in lam:
        out = out * power_sum(part, N)
    return out


def schur_from_characters(lam, N, table):
    """s_lam = sum_nu chi^lam(nu) p_nu / z_nu, summed in integers as
    sum_nu chi^lam(nu) (n!/z_nu) p_nu and divided exactly by n!.
    Coefficients must come out as nonnegative integers; anything else
    flags a broken table."""
    lam = check_partition(lam)
    n = sum(lam)
    out = {}
    for nu in table.index:
        chi = table.value(lam, nu)
        if chi:
            w = chi * class_size(nu)
            for exps, c in expand_p(nu, N).terms.items():
                out[exps] = out.get(exps, 0) + w * c
    nfact = factorial(n)
    terms = {}
    for exps, c in out.items():
        q, rest = divmod(c, nfact)
        if rest or q < 0:
            raise RuntimeError(f"non-integer or negative Schur coefficient "
                               f"{Fraction(c, nfact)} at {exps} for {lam}")
        terms[exps] = q
    return Poly(N, terms)


def _divide_by_difference(g, i, j):
    """Exact quotient of g, an {exponents: coeff} map, by x_i - x_j, as a
    map that may hold zeros. Taken term by term the quotient is
    (g - g|_{x_i=x_j}) / (x_i - x_j), so it is exact iff g vanishes at
    x_i = x_j: each term is gathered at exponent e_i + e_j of x_j, and a
    sum other than 0 raises RuntimeError."""
    out, rest = {}, {}
    for exps, c in g.items():
        e = list(exps)
        a, s = e[i], e[i] + e[j]
        e[i], e[j] = 0, s
        key = tuple(e)
        rest[key] = rest.get(key, 0) + c
        # x_i^a x_j^b - x_j^(a+b) = (x_i - x_j) sum_d x_i^d x_j^(a+b-1-d)
        for d in range(a):
            e[i], e[j] = d, s - 1 - d
            key = tuple(e)
            out[key] = out.get(key, 0) + c
    if any(rest.values()):
        raise RuntimeError(f"division by x_{i} - x_{j} left a remainder")
    return out


def apply_dstar(f):
    """Apply the operator to a symmetric polynomial."""
    if not is_symmetric(f):
        raise ValueError("operator input must be symmetric")
    N = f.N
    # (x_i^2 d_i f - x_j^2 d_j f) / (x_i - x_j)
    #     = x_i d_i f + x_j (x_i d_i - x_j d_j) f / (x_i - x_j),
    # and the (j, i) summand equals the (i, j) one: factor 2. Both
    # x_k^2 d_k^2 and the x_k d_k f of the N - 1 - k pairs (k, j), j > k,
    # fix each monomial, scaling it by e_k (e_k - 1) and 2 (N - 1 - k) e_k;
    # h is the rest, x_j (x_i d_i - x_j d_j) f, which must divide exactly
    out = {exps: c * sum(e * (e - 1 + 2 * (N - 1 - k))
                         for k, e in enumerate(exps))
           for exps, c in f.terms.items()}
    for i, j in combinations(range(N), 2):
        h = {}
        for exps, c in f.terms.items():
            a, b = exps[i], exps[j]
            if a != b:
                e = list(exps)
                e[j] += 1
                h[tuple(e)] = (a - b) * c
        for exps, c in _divide_by_difference(h, i, j).items():
            out[exps] = out.get(exps, 0) + 2 * c
    return Poly(N, out)


def p_basis_coords(f, n, N):
    """Coordinates of a degree-n symmetric polynomial in the basis
    {p_lam : lam in P(n)}. Requires N > n for the basis to be free."""
    if N <= n:
        raise ValueError(f"need N > n to invert the power-sum basis "
                         f"(got N={N}, n={n})")
    index = enumerate_partitions(n)
    expansions = [expand_p(lam, N) for lam in index]
    # a symmetric f of degree n is fixed by its coefficients on the
    # monomials x^lam, lam in P(n); the reconstruction below checks the rest
    monomials = [lam + (0,) * (N - len(lam)) for lam in index]
    rows = [[p.terms.get(mono, 0) for p in expansions] for mono in monomials]
    rhs = [f.terms.get(mono, 0) for mono in monomials]
    coords = _solve_exact(rows, rhs)
    # exactness check, in integers: the coordinates times their common
    # denominator must reproduce f times it on the nose
    den = lcm(*(c.denominator for c in coords))
    recon = {}
    for c, p in zip(coords, expansions):
        if c:
            c = c.numerator * (den // c.denominator)
            for exps, v in p.terms.items():
                recon[exps] = recon.get(exps, 0) + c * v
    if {e: v for e, v in recon.items() if v} != \
            {e: den * v for e, v in f.terms.items()}:
        raise RuntimeError("power-sum re-expression failed to reproduce input")
    return {lam: coords[i] for i, lam in enumerate(index)}


def _solve_exact(rows, rhs):
    """Solve a square rational system by Gauss-Jordan elimination."""
    k = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(k):
        piv = next((i for i in range(col, k) if aug[i][col]), None)
        if piv is None:
            raise RuntimeError("singular system: power sums not independent")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(k):
            if i != col and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[col])]
    return [row[k] for row in aug]


def matrix_of_dstar(n, N):
    """Matrix of the operator on the power-sum basis of degree n,
    columns indexed by the source partition in canonical order."""
    index = enumerate_partitions(n)
    size = len(index)
    mat = [[Fraction(0)] * size for _ in range(size)]
    for col, lam in enumerate(index):
        image = apply_dstar(expand_p(lam, N))
        coords = p_basis_coords(image, n, N)
        for row, target in enumerate(index):
            mat[row][col] = coords[target]
    return mat


def omega_on_p(coords, n):
    """Basis involution on power-sum coordinates: the coordinate at lam
    picks up (-1)^(n - len(lam)). Sends Schur coordinates of lam to
    those of the conjugate shape."""
    out = {}
    for lam, c in coords.items():
        out[lam] = c if (n - len(lam)) % 2 == 0 else -c
    return out


def schur_p_coords(lam, table):
    """Power-sum coordinates of s_lam: chi^lam(nu)/z_nu per nu."""
    lam = check_partition(lam)
    return {nu: Fraction(table.value(lam, nu), z_value(nu))
            for nu in table.index}
