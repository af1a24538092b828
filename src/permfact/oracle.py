"""Ground truth from raw definitions, by direct work in the symmetric group.

Nothing here touches characters or the partition-graph matrix: this
module imports neither `characters` nor `transition`, and each reference
comes from its definition alone. count_brute runs dynamic programming
over all n! group elements and count_tuples enumerates transposition
tuples literally. build_raw_counts tallies the entries of A_n by acting
with every transposition on one element of each class. enumerate_bst
lists border strip tableaux label by label, the definition that the
strip walk for characters is checked against. Permutations are
tuples of images in one-line notation on {0, ..., n-1}, composed as
(p * q)(x) = p(q(x)).

count_brute walks S_n once per n, up to BRUTE_MAX_K, and keeps only
the counts at one element of each cycle type. The walk's inner loops
run at C level: each transposition is one operator.itemgetter row over
element indices, and a step sums the rows' gathers with map(sum, zip).
count_tuples composes each tuple's product from its prefix's, one
level at a time, and tallies the products of one (n, k) once.

apply_dstar is the paper's operator on polynomials in N variables, the
reference for symfun's integer rows; each divided difference is checked
to be exact:

    D f = sum_i x_i^2 d^2f/dx_i^2
        + sum_{i != j} (x_i^2 df/dx_i - x_j^2 df/dx_j) / (x_i - x_j)
"""

from collections import Counter, namedtuple
from functools import cache
from itertools import combinations, compress, permutations as _all_perms
from operator import add, attrgetter, gt, itemgetter

from .partitions import (enumerate_partitions, check_partition,
                         is_int_at_least, BRUTE_MAX_N, BRUTE_MAX_K)

TUPLE_MAX_N = 4
TUPLE_MAX_K = 5
BST_MAX_N = 8
DSTAR_MAX_N = 5  # apply_dstar's cost in N = n + 2 grows about 7x per n


def identity(n):
    return tuple(range(n))


def compose(p, q):
    return tuple(map(p.__getitem__, q))


def transpositions(n):
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            t = list(range(n))
            t[i], t[j] = t[j], t[i]
            out.append(tuple(t))
    return out


def cycle_type(p):
    """Cycle lengths of p, sorted descending."""
    return tuple(sorted(_cycle_lengths(p), reverse=True))


def _cycle_lengths(p):
    """Cycle lengths of p, fixed points included, in order of first point."""
    seen = [False] * len(p)
    lens = []
    for i in range(len(p)):
        if not seen[i]:
            c = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                c += 1
            lens.append(c)
    return lens


def class_representative(mu):
    """Permutation of cycle type mu: cycles on consecutive integers, largest first."""
    n = sum(mu)
    img = list(range(n))
    start = 0
    for part in mu:
        for t in range(part):
            img[start + t] = start + (t + 1) % part
        start += part
    return tuple(img)


def walk_distributions(n, kmax):
    """Factorization counts over the whole group.

    Returns (elements, index, vecs) where vecs[k][index[g]] is the number
    of ordered k-tuples of transpositions multiplying to g: the k-tuples
    ending in tau that multiply to g are the (k-1)-tuples multiplying to
    g * tau, so vecs[k][i] sums vecs[k-1] at g_i * tau over every tau.
    Row tau gathers those entries: an itemgetter over the indices of
    the g * tau, each composed by itemgetter(*tau)."""
    elements = list(_all_perms(range(n)))
    index = {g: i for i, g in enumerate(elements)}
    rows = [itemgetter(*map(index.__getitem__,
                            map(itemgetter(*tau), elements)))
            for tau in transpositions(n)]
    v = [0] * len(elements)
    v[index[identity(n)]] = 1
    vecs = [v]
    for _ in range(kmax):
        # S_1 has no transposition: every count past k = 0 is 0
        v = list(map(sum, zip(*[row(v) for row in rows]))) if rows \
            else [0] * len(v)
        vecs.append(v)
    return elements, index, vecs


def count_brute(mu, k):
    """Count factorizations of a type-mu permutation into k transpositions
    by group-algebra dynamic programming."""
    mu = check_partition(mu, ordered=False)
    n = sum(mu)
    if n > BRUTE_MAX_N:
        raise ValueError(f"brute-force ceiling is n <= {BRUTE_MAX_N}, got n={n}")
    if not is_int_at_least(k, 0):
        raise ValueError(f"k must be a nonnegative int, got {k!r}")
    if k > BRUTE_MAX_K:
        raise ValueError(f"brute-force ceiling is k <= {BRUTE_MAX_K}, got k={k}")
    return _class_counts(n)[cycle_type(class_representative(mu))][k]


@cache
def _class_counts(n):
    """{cycle type: (count at k = 0, ..., BRUTE_MAX_K)} at the first element
    of each class in one walk of S_n; the walk itself is not kept."""
    elements, _, vecs = walk_distributions(n, BRUTE_MAX_K)
    out = {}
    for i, g in enumerate(elements):
        ct = cycle_type(g)
        if ct not in out:
            out[ct] = tuple(v[i] for v in vecs)
    return out


def count_tuples(mu, k):
    """Same count by literally enumerating k-tuples of transpositions."""
    mu = check_partition(mu, ordered=False)
    n = sum(mu)
    if not is_int_at_least(k, 0):
        raise ValueError(f"k must be a nonnegative int, got {k!r}")
    if n > TUPLE_MAX_N or k > TUPLE_MAX_K:
        raise ValueError(f"tuple enumeration capped at n <= {TUPLE_MAX_N}, "
                         f"k <= {TUPLE_MAX_K}")
    return _tuple_products(n, k)[class_representative(mu)]


@cache
def _tuple_products(n, k):
    """{g: number of k-tuples of transpositions of S_n with product g},
    one product per tuple: each level composes every product of the
    (k-1)-prefixes with every transposition on the right."""
    compose_with = [itemgetter(*tau) for tau in transpositions(n)]
    products = [identity(n)]
    for _ in range(k):
        products = [right(g) for g in products for right in compose_with]
    return Counter(products)


def build_raw_counts(n):
    """Transition counts tallied by acting with every transposition on a
    fixed representative of each class. Row t, column s: moves t -> s."""
    if not is_int_at_least(n, 2):
        raise ValueError(f"raw counts need an int n >= 2, got {n!r}")
    index = enumerate_partitions(n)
    taus = transpositions(n)
    rows = []
    for t in index:
        alpha = class_representative(t)
        tally = Counter(index.rank[cycle_type(compose(tau, alpha))]
                        for tau in taus)
        rows.append(sorted(tally.items()))
    return rows


class BorderStripTableau(namedtuple(
        "BorderStripTableau", "shape content filling height width")):
    """filling holds the rows of labels, 1-based."""
    __slots__ = ()

    def sign(self):
        return -1 if self.height % 2 else 1


def enumerate_bst(lam, mu):
    """All border strip tableaux of shape lam and content mu, generated
    label by label from the definition: weakly increasing rows and
    columns, each label edge-connected, no 2x2 block of a single label.
    Rows and columns weakly increase exactly when the cells labelled
    1..i form a diagram lam^(i), so a tableau is a chain of diagrams
    from the empty one to lam with mu_i cells in lam^(i) / lam^(i-1);
    label i's cells are tested as a border strip as soon as it is
    placed. The parts of mu may come in any order; the tableaux come
    sorted by filling."""
    lam = check_partition(lam)
    mu = check_partition(mu, ordered=False)
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    if n > BST_MAX_N:
        raise ValueError(f"tableau enumeration capped at n <= {BST_MAX_N}")

    rows = [[] for _ in lam]  # the labels placed so far, row by row
    found = []

    def place(label, inner, height, width):
        if label > len(mu):
            found.append(BorderStripTableau(
                lam, mu, tuple(map(tuple, rows)), height, width))
            return
        for outer in _grown(inner, lam, mu[label - 1]):
            extent = _strip_extent(inner, outer)
            if extent is None:
                continue
            top, bottom, columns = extent
            for r in range(top, bottom + 1):
                rows[r] += (label,) * (outer[r] - inner[r])
            place(label + 1, outer, height + bottom - top,
                  width + columns - 1)
            for r in range(top, bottom + 1):
                del rows[r][inner[r]:]

    place(1, (0,) * len(lam), 0, 0)
    found.sort(key=attrgetter("filling"))
    return found


def _grown(inner, lam, m):
    """Every diagram outer with inner <= outer <= lam row by row, m cells
    more than inner, and its grown rows consecutive: a label's cells on
    rows that skip one are not edge-connected, so no other diagram can
    hold a strip. A diagram is a tuple of row lengths as long as lam,
    zeros included."""
    out = []
    last = len(lam) - 1
    for top, lo in enumerate(inner):
        # a row grows to at most lam's row and the row above it
        cap = min(lam[top], inner[top - 1]) if top else lam[0]
        if lo == cap:
            continue
        stack = [(top, cap, m, inner[:top])]
        while stack:
            r, cap, left, grown = stack.pop()
            lo = inner[r]
            if cap > lo + left:
                cap = lo + left
            for x in range(lo + 1, cap + 1):
                if x - lo == left:
                    out.append(grown + (x,) + inner[r + 1:])
                elif r < last:
                    stack.append((r + 1, min(x, lam[r + 1]), left - x + lo,
                                  grown + (x,)))
    return out


def _strip_extent(inner, outer):
    """(top row, bottom row, number of columns) of the cells of outer not
    in inner, row r holding columns [inner[r], outer[r]), if they form a
    border strip: edge-connected, with no 2x2 block. Else None.

    A row's cells are one interval, so they are connected; rows r and
    r + 1 share the columns [inner[r], outer[r + 1]). The cells are
    edge-connected exactly when their rows are consecutive and each two
    adjacent ones share a column, and two shared columns are a 2x2
    block. The columns of connected cells run from inner[bottom] to
    outer[top] - 1."""
    rows = list(compress(range(len(outer)), map(gt, outer, inner)))
    for r, s in zip(rows, rows[1:]):
        if s != r + 1 or outer[s] <= inner[r]:  # not edge-connected
            return None
        if outer[s] > inner[r] + 1:  # a 2x2 block
            return None
    return rows[0], rows[-1], outer[rows[0]] - inner[rows[-1]]


def bst_signed_count(lam, mu):
    return sum(t.sign() for t in enumerate_bst(lam, mu))


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


def monomial_symmetric(lam, N):
    """m_lam in N variables: each distinct zero-padded rearrangement."""
    lam = check_partition(lam)
    if len(lam) > N:
        return Poly(N)
    return Poly(N, dict.fromkeys(_all_perms(lam + (0,) * (N - len(lam))), 1))


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
