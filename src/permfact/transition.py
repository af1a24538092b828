"""The transposition transition matrix on partitions of n.

Convention: entry A[t][s] (row t, column s, canonical partition order)
is the number of transpositions tau such that tau * alpha has cycle
type s, for any fixed alpha of cycle type t. Every row sums to
n(n-1)/2, and iterating v -> A v from the unit vector at 1^n yields
the factorization counts: (A^k e_{1^n})_mu counts ordered k-tuples of
transpositions with product of type mu.

A is held only as sparse rows: per row t, a list of the (s, A[t][s])
pairs with A[t][s] != 0, s ascending. No p(n) x p(n) grid is ever built.

Row t comes from the cut-and-join move rule on t alone, with cycle
multiplicities k_i read off t. A transposition joins the two cycles
holding its points, or cuts the one cycle holding both:

    join i + j -> i+j, i != j :  i*j*k_i*k_j
    join i + i -> 2i          :  i^2*k_i*(k_i-1)/2
    cut  m -> a + (m-a)       :  m*k_m, or (m/2)*k_m when a = m-a

A move changes the number of parts by exactly one, so a walk with j
steps left can reach 1^n only from shapes s with len(s) + j >= n;
walk_row keeps only those. build_raw_counts constructs the matrix the
literal way instead and is the oracle for the move rule.
"""

from collections import Counter
from math import factorial

from .partitions import (enumerate_partitions, multiplicities, conjugate,
                         class_size, z_value, rho)


def _moves(t):
    """Row t of A_n as {s: A[t][s]}, from the move rule on t alone."""
    k = multiplicities(t)
    sizes = sorted(k)
    row = {}
    for x, i in enumerate(sizes):
        for j in sizes[x:]:
            if i != j:
                w = i * j * k[i] * k[j]
            elif k[i] > 1:
                w = i * i * k[i] * (k[i] - 1) // 2
            else:
                continue
            row[_replace(t, (i, j), (i + j,))] = w
        for a in range(1, i // 2 + 1):
            w = i * k[i] // 2 if 2 * a == i else i * k[i]
            row[_replace(t, (i,), (a, i - a))] = w
    return row


def _replace(t, old, new):
    """Partition t with the parts old taken out and the parts new put in."""
    parts = list(t)
    for p in old:
        parts.remove(p)
    return tuple(sorted(parts + list(new), reverse=True))


def build_transition_matrix(n):
    """Construct A_n row by row from the move rule."""
    if n < 2:
        raise ValueError("transition matrix needs n >= 2")
    index = enumerate_partitions(n)
    return [sorted((index.rank[s], w) for s, w in _moves(t).items())
            for t in index]


def walk_row(mu, k):
    """(A^k)[mu][1^n]: the unit row vector at mu times A_n, k times, over
    the shapes that can still reach 1^n, read at 1^n.

    A row is made by _moves the first time the walk reaches its shape.
    Shapes get small int ids, which hash faster than tuples."""
    n = sum(mu)
    if n < 2:
        raise ValueError("transition matrix needs n >= 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    shapes, ids, rows = [mu], {mu: 0}, [None]  # rows: (id, len, weight)
    v = {0: 1} if len(mu) + k >= n else {}
    for left in range(k - 1, -1, -1):
        need = n - left  # shortest length that reaches 1^n in left steps
        nxt = {}
        for t, c in v.items():
            row = rows[t]
            if row is None:
                row = rows[t] = []
                for s, w in _moves(shapes[t]).items():
                    if s not in ids:
                        ids[s] = len(shapes)
                        shapes.append(s)
                        rows.append(None)
                    row.append((ids[s], len(s), w))
            for s, length, w in row:
                if length >= need:
                    nxt[s] = nxt.get(s, 0) + c * w
        v = nxt
    return v.get(ids.get((1,) * n), 0)


def build_raw_counts(n):
    """Transition counts tallied by acting with every transposition on a
    fixed representative of each class. Row t, column s: moves t -> s."""
    from .oracle import (class_representative, transpositions, compose,
                         cycle_type)
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
    """Entries where the move-rule matrix and the raw tally disagree, plus
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
