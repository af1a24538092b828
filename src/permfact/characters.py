"""Irreducible character values of S_n, combinatorially.

Shapes are beta-sets held as bitmasks, and one helper slides a bead by
+r or -r to add or remove a border strip of size r. mn_character peels
strips recursively; character_column adds them to the empty shape and
yields column mu over its support only. Dimensions come from hook
lengths as a third route. The raw-definition reference, explicit
border strip tableaux, is oracle.enumerate_bst.
"""

from functools import cache, lru_cache
from itertools import accumulate
from math import factorial, prod

from .partitions import enumerate_partitions, check_partition, hook_lengths

# Most shapes character_column may hold while adding one part. The
# largest inputs measured fit: (20,15,10,8,5,3,2,1) at n = 64 peaks at
# 439,482 and (40,30,20,10) at 224,900. (30,25,20,15,10,5,3,2) at
# n = 110 passes 1,000,000 at its seventh part and, uncapped, ran out of
# memory at its eighth.
COLUMN_MAX_STATES = 1_000_000


def _beads(lam):
    """Beta-set of lam as a bitmask, one bead per part: part i of L sits
    at position lam_i + (L - 1 - i). Only the empty shape has a bead-free
    mask, and no other mask has a bead at 0, so a shape has one mask at
    every n."""
    mask = 0
    for i, p in enumerate(reversed(lam)):
        mask |= 1 << (p + i)
    return mask


def _canonical(mask):
    """Shift out the beads at 0, 1, ...: they stand for parts of size 0."""
    return mask >> ((mask ^ (mask + 1)).bit_length() - 1)


def _shape(mask):
    """The partition with beta-set mask: each bead's part is the number
    of empty positions below it."""
    gaps = [len(g) for g in bin(mask)[2:].split("1")[1:]]  # top bead first
    parts = list(accumulate(reversed(gaps)))  # bottom bead first
    return tuple(p for p in reversed(parts) if p)


def _slides(mask, step):
    """(new mask, strip height) for every bead that can move by step onto
    an empty position >= 0. A move by +r adds a border strip of size r and
    a move by -r removes one (Murnaghan-Nakayama in abacus form); the
    height is the number of beads strictly between the two positions."""
    r = abs(step)
    if step > 0:
        movable = mask & ~(mask >> r)
    else:
        movable = (mask & ~(mask << r)) >> r << r
    between = (1 << (r - 1)) - 1
    while movable:
        b = movable.bit_length() - 1
        movable ^= 1 << b
        height = ((mask >> (min(b, b + step) + 1)) & between).bit_count()
        yield mask ^ (1 << b) ^ (1 << (b + step)), height


def mn_character(lam, mu):
    """chi^lam(mu) by recursive border-strip removal.

    Parts of mu, positive ints in any order, are consumed left to right
    as given; the value does not depend on that order (tested, not
    assumed).
    """
    lam = check_partition(lam)
    mu = check_partition(mu, ordered=False)
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _mn(_beads(lam), mu)


@cache
def _mn(mask, mu):
    if not mu:
        return 1 if not mask else 0
    rest = mu[1:]
    total = 0
    for smaller, height in _slides(mask, -mu[0]):
        value = _mn(_canonical(smaller), rest)
        total += -value if height % 2 else value
    return total


def character_column(mu):
    """{lam: chi^lam(mu)} over exactly the lam where it is nonzero.

    Border strips of sizes mu's parts, smallest first, are added to the
    empty shape, held as n beads at 0 .. n-1, carrying signed values; a
    shape whose value sums to 0 is dropped after each part. The value
    does not depend on the order of the parts, and small strips first
    keep the early supports small. P(n) is never enumerated, so the cost
    follows the support, not p(n). More than COLUMN_MAX_STATES shapes
    after any part is a ValueError, raised as soon as they are reached."""
    mu = check_partition(mu)
    states = {(1 << sum(mu)) - 1: 1}
    for r in reversed(mu):
        grown = {}
        for mask, value in states.items():
            for larger, height in _slides(mask, r):
                grown[larger] = grown.get(larger, 0) + \
                    (-value if height % 2 else value)
            if len(grown) > COLUMN_MAX_STATES:
                raise ValueError(f"character column of {mu} needs more "
                                 f"shapes than COLUMN_MAX_STATES = "
                                 f"{COLUMN_MAX_STATES}")
        states = {mask: value for mask, value in grown.items() if value}
    return {_shape(mask): value for mask, value in states.items()}


def dimension_hook_formula(lam):
    """Number of standard Young tableaux of shape lam: n! over the
    product of all hook lengths. Memoized, so each distinct shape is
    computed once."""
    return _dimension(check_partition(lam))


# the deep battery reads the 271 shapes of n <= 12 once per column that
# holds them, and 512 keeps all of them; a CLI request reads each shape of
# its one column once, so only a long-lived process gets hits
@lru_cache(maxsize=512)
def _dimension(lam):
    n = sum(lam)
    hooks = prod(hook_lengths(lam))
    dim, rest = divmod(factorial(n), hooks)
    if rest:
        raise RuntimeError(f"hook product {hooks} does not divide {n}!")
    return dim


class CharacterTable:
    """chi^lam(nu) for all lam, nu in P(n), canonical order both ways."""

    def __init__(self, index, values):
        values = tuple(tuple(row) for row in values)
        size = len(index)
        if len(values) != size or any(len(row) != size for row in values):
            raise ValueError(f"character table of S_{index.n} needs {size} "
                             f"rows of {size} values")
        kinds = {type(x) for row in values for x in row} - {int}
        if kinds:
            raise ValueError(f"character values must be ints, not "
                             f"{', '.join(sorted(t.__name__ for t in kinds))}")
        for lam, row in zip(index, values):
            if row[0] != dimension_hook_formula(lam):
                raise ValueError(f"dimension of {lam} in the character table "
                                 f"disagrees with the hook length formula")
        self.n = index.n
        self.index = index
        self.values = values

    def row(self, lam):
        return self.values[self.index.position(lam)]


def _table_rows(index):
    return [[_mn(mask, nu) for nu in index]
            for mask in map(_beads, index)]


def build_character_table(n):
    """Full character table via the strip recursion. CharacterTable checks
    its first column against the hook length formula; a table built here
    that fails is a fault of the builder, raised as RuntimeError."""
    index = enumerate_partitions(n)
    values = _table_rows(index)
    try:
        return CharacterTable(index, values)
    except ValueError as exc:
        raise RuntimeError(f"strip recursion: {exc}") from exc
