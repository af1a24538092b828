"""Integer partition arithmetic.

Partitions are immutable tuples of weakly decreasing positive integers.
The canonical ordering of P(n) is ascending lexicographic on the part
tuples, so 1^n comes first and (n) last.
"""

from functools import lru_cache
from math import factorial
import operator
from collections import Counter

DEFAULT_MAX_N = 20  # the default of --max-n
# brute-force ceilings, here so that the brute row of counting.ROUTES
# reads them without loading the oracle; oracle exports them too
BRUTE_MAX_N = 7
BRUTE_MAX_K = 16


def is_int_at_least(value, least):
    """Whether value is an int, not a bool, and at least least: the one
    check of parts, sizes and exponents."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= least


def check_partition(lam, ordered=True):
    """Validate that lam is a nonempty tuple of positive ints (no bools),
    weakly decreasing unless ordered is false, as a cycle type may be."""
    lam = tuple(lam)
    if not lam:
        raise ValueError("partition must be nonempty")
    for p in lam:
        # exact ints, nearly every part, skip the general check's two
        # isinstance calls; it still decides every other type
        if not (p >= 1 if type(p) is int else is_int_at_least(p, 1)):
            raise ValueError(f"invalid part {p!r} in {lam}")
    if not ordered:
        return lam
    for a, b in zip(lam, lam[1:]):
        if a < b:
            raise ValueError(f"parts not weakly decreasing: {lam}")
    return lam


def _gen(n, cap):
    if n == 0:
        yield ()
        return
    for a in range(1, min(n, cap) + 1):
        for rest in _gen(n - a, a):
            yield (a,) + rest


class PartitionIndex:
    """All partitions of n in canonical order with O(1) rank lookup."""

    def __init__(self, n):
        if not is_int_at_least(n, 1):
            raise ValueError(f"n must be a positive integer, got {n!r}")
        self.n = n
        self.ordered = tuple(_gen(n, n))
        self.rank = {lam: i for i, lam in enumerate(self.ordered)}

    def __len__(self):
        return len(self.ordered)

    def __iter__(self):
        return iter(self.ordered)

    def position(self, lam):
        lam = check_partition(lam)
        if sum(lam) != self.n:
            raise ValueError(f"{lam} is not a partition of {self.n}")
        return self.rank[lam]


@lru_cache(maxsize=64, typed=True)  # typed: True must not hit the entry for 1
def enumerate_partitions(n):
    """Return the PartitionIndex for n (cached; indexes are immutable)."""
    return PartitionIndex(n)


def conjugate(lam):
    """Transpose the Young diagram: lam'_j = #{i : lam_i >= j}.

    One pointer walks the weakly decreasing parts from the end, so this
    takes O(lam_1 + len(lam)) steps."""
    out = []
    rows = len(lam)  # parts >= j
    for j in range(1, lam[0] + 1 if lam else 1):
        while lam[rows - 1] < j:
            rows -= 1
        out.append(rows)
    return tuple(out)


def z_value(lam):
    """prod_i i^{k_i} k_i! for the multiplicities k_i of lam."""
    z = 1
    for i, k in Counter(lam).items():
        z *= i ** k * factorial(k)
    return z


def class_size(lam):
    """Number of permutations with cycle type lam: n! / z_lam."""
    n = sum(lam)
    z = z_value(lam)
    size, rest = divmod(factorial(n), z)
    if rest:
        raise RuntimeError(f"z = {z} of {lam} does not divide {n}!")
    return size


def rho(lam):
    """Sum of contents (column - row) over the cells of lam.

    Computed two ways, from the part lengths and cell by cell; the two
    must agree or the implementation is broken. Memoized, so each
    distinct shape is checked once.
    """
    lam = lam if type(lam) is tuple else tuple(lam)
    for p in lam:  # a float part must not hit the entry of an equal int
        operator.index(p)
    return _rho(lam)


# every shape of any one n <= 15 (176 at n = 15); keys are the callers'
# own tuples, so the memo allocates no copies
@lru_cache(maxsize=256)
def _rho(lam):
    twice = sum(p * (p - 2 * i - 1) for i, p in enumerate(lam))
    if twice % 2 != 0:
        raise RuntimeError(f"odd doubled content sum for {lam}")
    by_parts = twice // 2
    by_cells = sum(c - r for r, p in enumerate(lam) for c in range(p))
    if by_parts != by_cells:
        raise RuntimeError(f"content formulas disagree on {lam}: "
                           f"{by_parts} vs {by_cells}")
    return by_parts


def hook_lengths(lam):
    """Hook length of every cell, row-major order."""
    conj = conjugate(lam)
    return [lam[r] - c + conj[c] - r - 1
            for r, p in enumerate(lam) for c in range(p)]
