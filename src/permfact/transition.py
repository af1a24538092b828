"""The transposition transition matrix on partitions of n.

Convention: entry A[t][s] (row t, column s, canonical partition order)
is the number of transpositions tau such that tau * alpha has cycle
type s, for any fixed alpha of cycle type t. Every row sums to
n(n-1)/2, and iterating v -> A v from the unit vector at 1^n yields
the factorization counts: (A^k e_{1^n})_mu counts ordered k-tuples of
transpositions with product of type mu.

A is held only as sparse rows: per row t, a list of the (s, A[t][s])
pairs with A[t][s] != 0, s ascending. No p(n) x p(n) grid is ever built.

The same entry is produced by closed formulas for the reverse move
s -> t, with cycle multiplicities k_i read off the column partition s:

    split m -> i + j, i != j :  i*j*(k_i+1)*(k_j+1)
    split m -> i + i         :  i^2*(k_i+1)*(k_i+2)/2
    glue  i + i -> m         :  i*(k_m+1)
    glue  i + j -> m, i != j :  (i+j)*(k_m+1)

build_raw_counts constructs the matrix the literal way instead and is
the oracle for these formulas.
"""

from collections import Counter
from math import factorial

from .partitions import (enumerate_partitions, multiplicities, conjugate,
                         class_size, z_value, rho)
from .oracle import class_representative, transpositions, compose, cycle_type


def build_transition_matrix(n):
    """Construct A_n from the four closed move formulas."""
    if n < 2:
        raise ValueError("transition matrix needs n >= 2")
    index = enumerate_partitions(n)
    rows = [Counter() for _ in index]
    for col, source in enumerate(index):
        k = multiplicities(source)
        base = list(source)
        # splits of one source part m into i + (m - i)
        for m in set(source):
            removed = _remove_one(base, m)
            for i in range(1, m // 2 + 1):
                j = m - i
                target = _canon(removed + [i, j])
                if i == j:
                    w = i * i * (k[i] + 1) * (k[i] + 2) // 2
                else:
                    w = i * j * (k[i] + 1) * (k[j] + 1)
                rows[index.rank[target]][col] += w
        # glues of two source parts i, j into m = i + j
        values = sorted(set(source))
        for a, i in enumerate(values):
            for j in values[a:]:
                if i == j and k[i] < 2:
                    continue
                m = i + j
                target = _canon(_remove_one(_remove_one(base, i), j) + [m])
                w = i * (k[m] + 1) if i == j else (i + j) * (k[m] + 1)
                rows[index.rank[target]][col] += w
    return [list(row.items()) for row in rows]  # columns came ascending


def _remove_one(parts, value):
    out = list(parts)
    out.remove(value)
    return out


def _canon(parts):
    return tuple(sorted(parts, reverse=True))


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


def matrix_equality_offenders(n):
    """Entries where the formula matrix and the raw tally disagree, plus
    violations of the double-counting identity t_{ls}*|C_l| = t_{sl}*|C_s|."""
    index = enumerate_partitions(n)
    formula = [Counter(dict(row)) for row in build_transition_matrix(n)]
    raw = [Counter(dict(row)) for row in build_raw_counts(n)]
    sizes = [class_size(lam) for lam in index]
    # every cell where a compared entry may be nonzero, in row-major order
    cells = {(a, b) for m in (formula, raw) for a, r in enumerate(m) for b in r}
    bad = []
    for a, b in sorted(cells | {(b, a) for a, b in cells}):
        if formula[a][b] != raw[a][b]:
            bad.append(("entry", index.ordered[a], index.ordered[b],
                        formula[a][b], raw[a][b]))
        if raw[a][b] * sizes[a] != raw[b][a] * sizes[b]:
            bad.append(("double-count", index.ordered[a], index.ordered[b],
                        raw[a][b] * sizes[a], raw[b][a] * sizes[b]))
    return bad


def verify_matrix_equality(n):
    return not matrix_equality_offenders(n)


def matrix_power_apply(matrix, k, vec):
    """Exact A^k v by repeated sparse matrix-vector products."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if len(vec) != len(matrix):
        raise ValueError("dimension mismatch")
    v = list(vec)
    for _ in range(k):
        v = [sum(val * v[j] for j, val in row) for row in matrix]
    return v


def row_sums(matrix):
    return [sum(v for _, v in row) for row in matrix]


def bipartite_offenders(n, matrix=None):
    """Stored entries between partitions whose lengths do not differ by 1."""
    index = enumerate_partitions(n)
    if matrix is None:
        matrix = build_transition_matrix(n)
    _require_rows(matrix, index)
    return [(t, index.ordered[b], v)
            for t, row in zip(index, matrix) for b, v in row
            if abs(len(t) - len(index.ordered[b])) != 1]


def zero_multiplicity_lower_bound(n):
    """Number of self-conjugate partitions of n, each contributing a zero
    eigenvalue. Cross-checked: every self-conjugate partition has rho = 0."""
    index = enumerate_partitions(n)
    self_conj = [lam for lam in index if lam == conjugate(lam)]
    for lam in self_conj:
        if rho(lam) != 0:
            raise RuntimeError(f"self-conjugate {lam} has nonzero content sum")
    return len(self_conj)


def _require_rows(matrix, index):
    if len(matrix) != len(index):
        raise ValueError(f"matrix has {len(matrix)} rows, not "
                         f"p({index.n}) = {len(index)}")


def _operands(n, matrix, table):
    """A_n and S_n's character table: built, or the caller's sized for n."""
    from .characters import build_character_table
    table = build_character_table(n) if table is None else table
    if table.n != n:
        raise ValueError(f"character table is for n = {table.n}, not {n}")
    matrix = build_transition_matrix(n) if matrix is None else matrix
    _require_rows(matrix, table.index)
    return matrix, table


def eigen_mismatches(n, matrix=None, table=None):
    """Locations (lam, nu) where A u_lam = rho_lam u_lam fails, with
    u_lam(nu) the irreducible character values along row lam."""
    matrix, table = _operands(n, matrix, table)
    index = table.index
    bad = []
    for lam in index:
        u = table.row(lam)
        lhs = [sum(val * u[j] for j, val in row) for row in matrix]
        bad += _first_mismatch(lam, index, lhs, u)
    return bad


def dual_eigen_mismatches(n, matrix=None, table=None):
    """Same for the transpose, A^T w = rho w with w_nu = chi(nu)/z_nu, in
    integers scaled by n!; A^T w is scattered from the rows of A."""
    matrix, table = _operands(n, matrix, table)
    index = table.index
    nfact = factorial(n)
    weights = [nfact // z_value(nu) for nu in index]
    bad = []
    for lam in index:
        w = [x * y for x, y in zip(table.row(lam), weights)]
        lhs = [0] * len(index)
        for s_pos, row in enumerate(matrix):
            for t_pos, val in row:
                lhs[t_pos] += val * w[s_pos]
        bad += _first_mismatch(lam, index, lhs, w)
    return bad


def _first_mismatch(lam, index, lhs, vec):
    """[(lam, nu)] for the first nu where lhs != rho(lam) * vec, else []."""
    r = rho(lam)
    return [(lam, nu) for nu, x, y in zip(index, lhs, vec) if x != r * y][:1]
