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
len(s) + j >= n; walk_row keeps only those. oracle.build_raw_counts
constructs the matrix the literal way instead and is the reference for
the move rule; verify holds the comparisons.
"""

from .partitions import enumerate_partitions, is_int_at_least


def _slot_powers(n):
    """P[x] = 2^(b*x) for x = 0..n, b = n.bit_length(): the key of one
    part x, in slots wide enough to hold any multiplicity of n."""
    b = n.bit_length()
    return [1 << (b * x) for x in range(n + 1)]


def _key(t, P):
    """The packed key of shape t: sum of P[p] over its parts p."""
    return sum(P[p] for p in t)


def _moves(key, P, joins=True):
    """Row t of A_n, for t the shape with this key, from the move rule on
    key's slots, as two lists of (key of s, A[t][s]) pairs: the cuts
    (one part more), and the joins (one part fewer), left empty unless
    joins is true. One decode of the slots feeds both."""
    b = P[1].bit_length() - 1
    mask = P[1] - 1
    parts = []  # (i, k_i) with k_i > 0, i ascending
    x, i = key >> b, 1
    while x:
        if x & mask:
            parts.append((i, x & mask))
        x >>= b
        i += 1
    cuts, glued = [], []
    for at, (i, ki) in enumerate(parts):
        rest = key - P[i]
        for j, kj in parts[at:] if joins else ():
            if i != j:
                w = i * j * ki * kj
            elif ki > 1:
                w = i * i * ki * (ki - 1) // 2
            else:
                continue
            glued.append((rest - P[j] + P[i + j], w))
        for a in range(1, i // 2 + 1):
            w = i * ki // 2 if 2 * a == i else i * ki
            cuts.append((rest + P[a] + P[i - a], w))
    return cuts, glued


def build_transition_matrix(n):
    """Construct A_n row by row from the move rule."""
    if not is_int_at_least(n, 2):
        raise ValueError(f"transition matrix needs an int n >= 2, got {n!r}")
    P = _slot_powers(n)
    keys = [_key(t, P) for t in enumerate_partitions(n)]
    rank = {key: r for r, key in enumerate(keys)}
    return [sorted((rank[s], w) for half in _moves(key, P) for s, w in half)
            for key in keys]


def walk_row(mu, k):
    """(A^k)[mu][1^n]: the unit row vector at mu times A_n, k times, over
    the shapes that can still reach 1^n, read at 1^n.

    States are packed keys, grouped by length. A row is made by _moves
    the first time the walk reaches its key, as its cuts (one part
    more) and its joins (one part fewer). A state was kept, so its
    cuts always can still reach 1^n; its joins can only while it is
    longer than the shortest length that reaches 1^n. That length only
    grows as the walk goes on, so joins a state's first visit does not
    need are never needed, and that visit makes its cuts alone: on a
    minimal walk, k = n - len(mu), no join is made."""
    n = sum(mu)
    if n < 2:
        raise ValueError("transition matrix needs n >= 2")
    if not is_int_at_least(k, 0):
        raise ValueError(f"k must be a nonnegative int, got {k!r}")
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
                    row = rows[t] = _moves(t, P, down is not None)
                for s, w in row[0]:
                    up[s] = up.get(s, 0) + c * w
                if down is not None:
                    for s, w in row[1]:
                        down[s] = down.get(s, 0) + c * w
        v = nxt
    return v.get(n, {}).get(n * P[1], 0)


def matrix_power_apply(matrix, k, vec):
    """Exact A^k v by repeated sparse matrix-vector products."""
    if not is_int_at_least(k, 0):
        raise ValueError(f"k must be a nonnegative int, got {k!r}")
    if len(vec) != len(matrix):
        raise ValueError("dimension mismatch")
    v = list(vec)
    for _ in range(k):
        v = [sum(val * v[j] for j, val in row) for row in matrix]
    return v
