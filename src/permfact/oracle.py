"""Ground truth from raw definitions, by direct work in the symmetric group.

Nothing here touches characters or the partition-graph matrix: this
module imports neither `characters` nor `transition`, and each reference
comes from its definition alone. count_brute runs dynamic programming
over all n! group elements and count_tuples enumerates transposition
tuples literally. build_raw_counts tallies the entries of A_n by acting
with every transposition on one element of each class. enumerate_bst
lists border strip tableaux cell by cell, the definition that the
strip recursion for characters is checked against. Permutations are
tuples of images in one-line notation on {0, ..., n-1}, composed as
(p * q)(x) = p(q(x)).

count_brute walks S_n once per n, up to BRUTE_MAX_K, and keeps only
the counts at one element of each cycle type.
"""

from collections import Counter, namedtuple
from functools import cache
from itertools import permutations as _all_perms, product as _product

from .partitions import (enumerate_partitions, check_partition,
                         is_int_at_least, BRUTE_MAX_N, BRUTE_MAX_K)

TUPLE_MAX_N = 4
TUPLE_MAX_K = 5
BST_MAX_N = 8


def identity(n):
    return tuple(range(n))


def compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


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
    of ordered k-tuples of transpositions multiplying to g.
    """
    elements = list(_all_perms(range(n)))
    index = {g: i for i, g in enumerate(elements)}
    # tau_rows[t][i] = index of tau_t composed with element i
    tau_rows = [[index[compose(tau, g)] for g in elements]
                for tau in transpositions(n)]
    v = [0] * len(elements)
    v[index[identity(n)]] = 1
    vecs = [list(v)]
    for _ in range(kmax):
        nxt = [0] * len(elements)
        for row in tau_rows:
            for gi, ti in enumerate(row):
                nxt[gi] += v[ti]
        v = nxt
        vecs.append(list(v))
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
    target = class_representative(mu)
    total = 0
    for tup in _product(transpositions(n), repeat=k):
        g = identity(n)
        for tau in tup:
            g = compose(g, tau)
        if g == target:
            total += 1
    return total


def build_raw_counts(n):
    """Transition counts tallied by acting with every transposition on a
    fixed representative of each class. Row t, column s: moves t -> s."""
    if n < 2:
        raise ValueError("raw counts need n >= 2")
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
    from the definition: weakly increasing rows and columns, each label
    edge-connected, no 2x2 block of a single label. The parts of mu may
    come in any order."""
    lam = check_partition(lam)
    mu = check_partition(mu, ordered=False)
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    if n > BST_MAX_N:
        raise ValueError(f"tableau enumeration capped at n <= {BST_MAX_N}")

    cells = [(r, c) for r, p in enumerate(lam) for c in range(p)]
    fill = {}
    remaining = list(mu)
    found = []

    def place(pos):
        if pos == len(cells):
            tab = tuple(tuple(fill[(r, c)] for c in range(p))
                        for r, p in enumerate(lam))
            t = _validate_bst(lam, mu, tab)
            if t is not None:
                found.append(t)
            return
        r, c = cells[pos]
        lo = 1
        if c > 0:
            lo = max(lo, fill[(r, c - 1)])
        if r > 0:
            lo = max(lo, fill[(r - 1, c)])
        for label in range(lo, len(mu) + 1):
            if remaining[label - 1] == 0:
                continue
            remaining[label - 1] -= 1
            fill[(r, c)] = label
            place(pos + 1)
            del fill[(r, c)]
            remaining[label - 1] += 1

    place(0)
    return found


def _validate_bst(lam, mu, tab):
    height = 0
    width = 0
    for label in range(1, len(mu) + 1):
        cells = {(r, c) for r, row in enumerate(tab)
                 for c, v in enumerate(row) if v == label}
        rows = {r for r, _ in cells}
        cols = {c for _, c in cells}
        # edge-connectivity of the strip
        stack = [next(iter(cells))]
        seen = {stack[0]}
        while stack:
            r, c = stack.pop()
            for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != cells:
            return None
        # no 2x2 block of one label
        for r, c in cells:
            if {(r + 1, c), (r, c + 1), (r + 1, c + 1)} <= cells:
                return None
        height += len(rows) - 1
        width += len(cols) - 1
    return BorderStripTableau(lam, mu, tab, height, width)


def bst_signed_count(lam, mu):
    return sum(t.sign() for t in enumerate_bst(lam, mu))
