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

The move rule works on packed keys, not tuples. A shape t of n is the
int key = sum_i k_i * 2^(b*i) with slot width b = n.bit_length(): k_i
sits in the b-bit slot i. No multiplicity exceeds n < 2^b, so no slot
carries into the next and each shape has exactly one key. With
P[x] = 2^(b*x), a move is integer arithmetic on the key:

    cut  m -> a + (m-a) :  key - P[m] + P[a] + P[m-a]   (one part more)
    join i + j -> i+j   :  key - P[i] - P[j] + P[i+j]   (one part fewer)

and 1^n is n*P[1]. A move changes the number of parts by exactly one,
so a walk with j steps left can reach 1^n only from shapes s with
len(s) + j >= n; walk_row keeps only those. build_raw_counts
constructs the matrix the literal way instead and is the oracle for
the move rule.
"""

from collections import Counter
from math import factorial

from .partitions import (enumerate_partitions, conjugate, class_size,
                         z_value, rho)


def _slot_powers(n):
    """P[x] = 2^(b*x) for x = 0..n, b = n.bit_length(): the key of one
    part x, in slots wide enough to hold any multiplicity of n."""
    b = n.bit_length()
    return [1 << (b * x) for x in range(n + 1)]


def _key(t, P):
    """The packed key of shape t: sum of P[p] over its parts p."""
    return sum(P[p] for p in t)


def _moves(key, P):
    """Row t of A_n, for t the shape with this key, as (key of s, length
    change, A[t][s]) triples, from the move rule on key's slots."""
    b = P[1].bit_length() - 1
    mask = P[1] - 1
    parts = []  # (i, k_i) with k_i > 0, i ascending
    x, i = key >> b, 1
    while x:
        if x & mask:
            parts.append((i, x & mask))
        x >>= b
        i += 1
    row = []
    for at, (i, ki) in enumerate(parts):
        rest = key - P[i]
        for j, kj in parts[at:]:
            if i != j:
                w = i * j * ki * kj
            elif ki > 1:
                w = i * i * ki * (ki - 1) // 2
            else:
                continue
            row.append((rest - P[j] + P[i + j], -1, w))
        for a in range(1, i // 2 + 1):
            w = i * ki // 2 if 2 * a == i else i * ki
            row.append((rest + P[a] + P[i - a], 1, w))
    return row


def build_transition_matrix(n):
    """Construct A_n row by row from the move rule."""
    if n < 2:
        raise ValueError("transition matrix needs n >= 2")
    P = _slot_powers(n)
    keys = [_key(t, P) for t in enumerate_partitions(n)]
    rank = {key: r for r, key in enumerate(keys)}
    return [sorted((rank[s], w) for s, _, w in _moves(key, P))
            for key in keys]


def walk_row(mu, k):
    """(A^k)[mu][1^n]: the unit row vector at mu times A_n, k times, over
    the shapes that can still reach 1^n, read at 1^n.

    States are packed keys, grouped by length. A row is made by _moves
    the first time the walk reaches its key, and split into cuts (one
    part more) and joins (one part fewer). A state was kept, so its
    cuts always can still reach 1^n; its joins can only while it is
    longer than the shortest length that reaches 1^n."""
    n = sum(mu)
    if n < 2:
        raise ValueError("transition matrix needs n >= 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    P = _slot_powers(n)
    rows = {}  # key: (cuts, joins), each a list of (key', weight)
    v = {len(mu): {_key(mu, P): 1}} if len(mu) + k >= n else {}
    for left in range(k - 1, -1, -1):
        need = n - left  # shortest length that reaches 1^n in left steps
        nxt = {}
        for length, states in v.items():
            up = nxt.setdefault(length + 1, {})
            down = nxt.setdefault(length - 1, {}) if length > need else None
            for t, c in states.items():
                row = rows.get(t)
                if row is None:
                    moves = _moves(t, P)
                    row = rows[t] = ([(s, w) for s, d, w in moves if d > 0],
                                     [(s, w) for s, d, w in moves if d < 0])
                for s, w in row[0]:
                    up[s] = up.get(s, 0) + c * w
                if down is not None:
                    for s, w in row[1]:
                        down[s] = down.get(s, 0) + c * w
        v = nxt
    return v.get(n, {}).get(n * P[1], 0)


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
