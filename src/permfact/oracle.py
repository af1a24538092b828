"""Ground-truth counting by direct work in the symmetric group.

Nothing here touches characters or the partition-graph matrix: counts
come from dynamic programming over all n! group elements, or from
literal enumeration of transposition tuples. Permutations are tuples
of images in one-line notation on {0, ..., n-1}, composed as
(p * q)(x) = p(q(x)).

count_brute walks S_n once per n, up to BRUTE_MAX_K, and keeps only
the counts at one element of each cycle type.
"""

from functools import cache
from itertools import permutations as _all_perms, product as _product

from .partitions import BRUTE_MAX_N, BRUTE_MAX_K

TUPLE_MAX_N = 4
TUPLE_MAX_K = 5
CUT_GLUE_MAX_N = 8
CLASS_MAX_N = 6
CLASS_MAX_K = 8


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
    n = sum(mu)
    if n > BRUTE_MAX_N:
        raise ValueError(f"brute-force ceiling is n <= {BRUTE_MAX_N}, got n={n}")
    if k < 0:
        raise ValueError("k must be nonnegative")
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
    n = sum(mu)
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


def verify_cut_glue(n):
    """Exhaustively check that a transposition (i j) cuts a cycle of alpha
    when i and j share a cycle, and glues two cycles otherwise."""
    if n > CUT_GLUE_MAX_N:
        raise ValueError(f"cut/glue check capped at n <= {CUT_GLUE_MAX_N}")
    # transpositions(n) lists (i j) in this same order
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    taus = list(zip(pairs, transpositions(n)))
    for alpha in _all_perms(range(n)):
        before = len(_cycle_lengths(alpha))
        for (i, j), t in taus:
            same = _same_cycle(alpha, i, j)
            after = len(_cycle_lengths(compose(t, alpha)))
            if after != (before + 1 if same else before - 1):
                return False
    return True


def _same_cycle(p, i, j):
    x = p[i]
    while x != i:
        if x == j:
            return True
        x = p[x]
    return False


def verify_class_invariance(n, k):
    """Check that factorization counts are constant on conjugacy classes."""
    if n > CLASS_MAX_N or k > CLASS_MAX_K:
        raise ValueError(f"class invariance check capped at n <= {CLASS_MAX_N}, "
                         f"k <= {CLASS_MAX_K}")
    elements, index, vecs = walk_distributions(n, k)
    per_class = {}
    for g in elements:
        per_class.setdefault(cycle_type(g), set()).add(vecs[k][index[g]])
    return all(len(vals) == 1 for vals in per_class.values())
