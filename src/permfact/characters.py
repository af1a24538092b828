"""Irreducible character values of S_n, combinatorially.

Shapes of n are beta-sets of n beads held as bitmasks, and sliding a
bead up by r adds a border strip of size r (Murnaghan-Nakayama in abacus
form). One walk adds strips to the empty shape: character_column reads
it for one column over its support, build_character_table for every
column, and mn_character for one value. Dimensions come from hook
lengths as a second route. The raw-definition reference, explicit
border strip tableaux, is oracle.enumerate_bst.
"""

from functools import lru_cache
from itertools import accumulate
from math import factorial, prod

from .partitions import enumerate_partitions, check_partition, hook_lengths

# Most shapes the walk may hold after adding one part. The largest
# inputs measured fit: (20,15,10,8,5,3,2,1) at n = 64 peaks at 439,482
# and (40,30,20,10) at 224,900. (30,25,20,15,10,5,3,2) at n = 110 passes
# 1,000,000 at its seventh part and, uncapped, ran out of memory at its
# eighth.
COLUMN_MAX_STATES = 1_000_000


def _beads(lam, n):
    """Beta-set of lam with n beads as a bitmask: lam padded with zeros
    to n parts, part i at position lam_i + (n - 1 - i)."""
    mask = (1 << (n - len(lam))) - 1  # the zero parts
    for i, p in enumerate(lam):
        mask |= 1 << (p + n - 1 - i)
    return mask


def _shape(mask):
    """The partition with beta-set mask: each bead's part is the number
    of empty positions below it."""
    gaps = [len(g) for g in bin(mask)[2:].split("1")[1:]]  # top bead first
    parts = list(accumulate(reversed(gaps)))  # bottom bead first
    return tuple(p for p in reversed(parts) if p)


def _slides(mask, r):
    """(new mask, strip height) for every bead that can move up by r onto
    an empty position, which adds a border strip of size r; the height is
    the number of beads strictly between the two positions."""
    movable = mask & ~(mask >> r)
    between = (1 << (r - 1)) - 1
    while movable:
        b = movable.bit_length() - 1
        movable ^= 1 << b
        height = ((mask >> (b + 1)) & between).bit_count()
        yield mask ^ (1 << b) ^ (1 << (b + r)), height


def _added(mu):
    """{mask: chi(mu)} over the support of column mu: strips of mu's
    parts, last part first, added to the n-bead empty shape, carrying
    signed values; a shape whose value sums to 0 is dropped after each
    part. More than COLUMN_MAX_STATES shapes after any part is a
    ValueError naming mu, raised as soon as they are reached."""
    n = sum(mu)
    states = {_beads((), n): 1}
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
    return states


def character_column(mu):
    """{lam: chi^lam(mu)} over exactly the lam where it is nonzero.

    Strips are added smallest part first, which keeps the early supports
    small. P(n) is never enumerated, so the cost follows the support,
    not p(n). Past COLUMN_MAX_STATES shapes it raises ValueError."""
    mu = check_partition(mu)
    return {_shape(mask): value for mask, value in _added(mu).items()}


def mn_character(lam, mu):
    """chi^lam(mu) by border-strip addition.

    Parts of mu, positive ints in any order, are added last part first
    as given; the value does not depend on that order (tested, not
    assumed). The walk behind one mu is kept for the next lam, up to
    512 orders of mu. Past COLUMN_MAX_STATES shapes it raises
    ValueError, as character_column does.
    """
    lam = check_partition(lam)
    mu = check_partition(mu, ordered=False)
    n = sum(mu)
    if sum(lam) != n:
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _mn_column(mu).get(_beads(lam, n), 0)


# for each lam, the deep battery reads all 511 orders of the mu of n <= 9;
# a caller reading every lam for one mu walks it once
_mn_column = lru_cache(maxsize=512)(_added)


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
    columns = [_added(nu) for nu in index]
    return [[column.get(mask, 0) for column in columns]
            for mask in (_beads(lam, index.n) for lam in index)]


def build_character_table(n):
    """Full character table, one strip walk per column. CharacterTable
    checks its first column against the hook length formula; a table
    built here that fails is a fault of the builder, raised as
    RuntimeError."""
    index = enumerate_partitions(n)
    values = _table_rows(index)
    try:
        return CharacterTable(index, values)
    except ValueError as exc:
        raise RuntimeError(f"strip walk: {exc}") from exc
