"""Cross-validation battery: every identity the library relies on,
checked at configurable scale in exact arithmetic.

Each check returns a CheckResult; run_battery collects all of them.
A check's signature defaults are the battery's default scales; deep
mode raises them to the full ranges the test suite also pins. The
comparisons the checks run (move rule against raw tally, eigen
relations, matrix structure, parity census, conjugation of character
rows, the operator's identities on symfun's integer rows) live here,
not in the route modules, and oracle holds the raw-definition
references. Which mu a route answers, and its expansion, are read from
counting.ROUTES. No clause restates another: rho-conjugation with
parity-census gives rho = 0 at self-conjugate lam and the +-r pairing of
A_n's eigenvalues; dual-bases' diagonal checks z, and Burnside at 1^n.
Dual-bases' column orthogonality is the table's row orthogonality too;
eigen-relations' two sides give A_n's double counting |C_t| A[t][s] =
|C_s| A[s][t]; CharacterTable checks each table's hook dimensions.
The table, the count columns and mn_character read one strip walk, so
no clause compares them with each other: the count checks read the
column's shapes, and the tableaux check reads mn_character.
"""

from collections import Counter, namedtuple
from math import comb
from operator import mul

from . import oracle, transition, symfun
from .characters import build_character_table, mn_character
from .counting import ROUTES, spectral_expansion
from .partitions import (enumerate_partitions, conjugate, class_size, rho,
                         z_value)


class CheckResult(namedtuple("CheckResult", "name status detail")):
    """status is PASS or FAIL."""
    __slots__ = ()


def _result(name, ok, detail):
    return CheckResult(name, "PASS" if ok else "FAIL", detail)


# ---------------------------------------------------------------------------
# comparisons behind the checks


def parity_census(n):
    """Counts of (even-length, odd-length, self-conjugate) partitions of n.

    evens - odds = (-1)^n * self_conj at every n; this is checked here.
    """
    index = enumerate_partitions(n)
    evens = sum(1 for lam in index if len(lam) % 2 == 0)
    odds = len(index) - evens
    self_conj = sum(1 for lam in index if lam == conjugate(lam))
    if evens - odds != (-1) ** n * self_conj:
        raise RuntimeError(f"parity census identity fails at n={n}")
    return evens, odds, self_conj


def matrix_equality_offenders(n):
    """Entries where the move-rule matrix and the raw tally disagree; the
    double counting |C_t| A[t][s] = |C_s| A[s][t] is eigen-relations'."""
    index = enumerate_partitions(n)
    formula = [Counter(dict(row))
               for row in transition.build_transition_matrix(n)]
    raw = [Counter(dict(row)) for row in oracle.build_raw_counts(n)]
    # every cell where a compared entry may be nonzero, in row-major order
    cells = {(a, b) for m in (formula, raw) for a, r in enumerate(m) for b in r}
    return [("entry", index.ordered[a], index.ordered[b], formula[a][b],
             raw[a][b])
            for a, b in sorted(cells) if formula[a][b] != raw[a][b]]


def row_sums(matrix):
    return [sum(v for _, v in row) for row in matrix]


def bipartite_offenders(n, matrix):
    """Stored entries between partitions whose lengths do not differ by 1."""
    index = enumerate_partitions(n)
    _require_rows(matrix, index)
    return [(t, index.ordered[b], v)
            for t, row in zip(index, matrix) for b, v in row
            if abs(len(t) - len(index.ordered[b])) != 1]


def _require_rows(matrix, index):
    if len(matrix) != len(index):
        raise ValueError(f"matrix has {len(matrix)} rows, not "
                         f"p({index.n}) = {len(index)}")


def _require_operands(n, matrix, table):
    """Refuse A_n or S_n's character table when either is sized for
    another n: the comparison would pass, report bogus mismatches or die
    on an index."""
    if table.n != n:
        raise ValueError(f"character table is for n = {table.n}, not {n}")
    _require_rows(matrix, table.index)


def eigen_mismatches(n, matrix, table):
    """Locations (lam, nu) where A u_lam = rho_lam u_lam fails, with
    u_lam(nu) the irreducible character values along row lam."""
    _require_operands(n, matrix, table)
    index = table.index
    bad = []
    for lam in index:
        u, r = table.row(lam), rho(lam)
        lhs = transition.matrix_power_apply(matrix, 1, u)
        nu = _first_difference(index, lhs, [r * x for x in u])
        bad += [(lam, nu)] if nu else []
    return bad


def dual_eigen_mismatches(n, matrix, table):
    """Same for the transpose, A^T w = rho w with w_nu = chi(nu)/z_nu, in
    integers scaled by n!; A^T w is scattered from the rows of A."""
    _require_operands(n, matrix, table)
    index = table.index
    weights = [class_size(nu) for nu in index]
    bad = []
    for lam in index:
        w, r = [x * y for x, y in zip(table.row(lam), weights)], rho(lam)
        lhs = symfun.times_rows(enumerate(w), matrix)
        nu = _first_difference(index, lhs, [r * x for x in w])
        bad += [(lam, nu)] if nu else []
    return bad


def conjugation_mismatches(table):
    """Shapes lam, each with its first nu, where chi^lam'(nu) =
    (-1)^(n - l(nu)) chi^lam(nu) fails; on the power-sum coordinates
    chi^lam(nu)/z_nu of s_lam, this is omega(s_lam) = s_lam'."""
    index = table.index
    signs = [(-1) ** (table.n - len(nu)) for nu in index]
    bad = []
    for lam, row in zip(index, table.values):
        nu = _first_difference(index, table.row(conjugate(lam)),
                               [s * x for s, x in zip(signs, row)])
        bad += [(lam, nu)] if nu else []
    return bad


def _compositions(n):
    """Every composition of n, a tuple of positive parts summing to n:
    2^(n-1) of them for n >= 1."""
    if not n:
        return [()]
    return [(first,) + rest for first in range(1, n + 1)
            for rest in _compositions(n - first)]


def _first_difference(index, xs, ys):
    """The first partition nu of index where xs and ys, vectors indexed by
    index, differ, or None."""
    return next((nu for nu, x, y in zip(index, xs, ys) if x != y), None)


# ---------------------------------------------------------------------------
# the checks


def check_rho_symmetries(n_max=12):
    for n in range(1, n_max + 1):
        index = enumerate_partitions(n)
        bound = comb(n, 2)
        extremes = {(n,), (1,) * n}
        for lam in index:
            r = rho(lam)
            if rho(conjugate(lam)) != -r:
                return _result("rho-conjugation", False, f"{lam}")
            if abs(r) > bound or (abs(r) == bound) != (lam in extremes):
                return _result("rho-conjugation", False, f"bound at {lam}")
    return _result("rho-conjugation", True, f"n <= {n_max}")


def check_census(n_max=12):
    for n in range(1, n_max + 1):
        parity_census(n)  # raises on violation
        for lam in enumerate_partitions(n):
            if conjugate(conjugate(lam)) != lam:
                return _result("parity-census", False, f"conj not involutive {lam}")
    return _result("parity-census", True, f"n <= {n_max}")


def check_matrix_vs_raw(n_max=7):
    for n in range(2, n_max + 1):
        bad = matrix_equality_offenders(n)
        if bad:
            return _result("matrix-vs-raw", False, f"n={n}: {bad[0]}")
    return _result("matrix-vs-raw", True, f"n <= {n_max}")


def check_matrix_structure(n_max=12):
    for n in range(2, n_max + 1):
        mat = transition.build_transition_matrix(n)
        expect = comb(n, 2)
        if any(s != expect for s in row_sums(mat)):
            return _result("matrix-structure", False, f"row sum at n={n}")
        if bipartite_offenders(n, mat):
            return _result("matrix-structure", False, f"bipartite at n={n}")
    return _result("matrix-structure", True, f"n <= {n_max}")


def check_eigen_relations(n_max=8):
    for n in range(2, n_max + 1):
        table = build_character_table(n)
        mat = transition.build_transition_matrix(n)
        bad = eigen_mismatches(n, mat, table)
        if bad:
            return _result("eigen-relations", False, f"n={n}: A u at {bad[0]}")
        bad = dual_eigen_mismatches(n, mat, table)
        if bad:
            return _result("eigen-relations", False, f"n={n}: A^T w at {bad[0]}")
    return _result("eigen-relations", True, f"n <= {n_max}")


def check_character_table(n_max=8):
    """Conjugation symmetry, chi^lam'(nu) = (-1)^(n - l(nu)) chi^lam(nu).

    Row orthogonality is dual-bases', and CharacterTable compares the
    dimensions with the hook formula on every build."""
    for n in range(1, n_max + 1):
        for lam, nu in conjugation_mismatches(build_character_table(n)):
            return _result("character-table", False,
                           f"conjugation at ({lam}, {nu})")
    return _result("character-table", True, f"n <= {n_max}")


def check_mn_vs_tableaux(n_max=6):
    n_max = min(n_max, oracle.BST_MAX_N)
    for n in range(1, n_max + 1):
        index = enumerate_partitions(n)
        for lam in index:
            for mu in index:
                if oracle.bst_signed_count(lam, mu) != mn_character(lam, mu):
                    return _result("strip-recursion-vs-tableaux", False,
                                   f"({lam}, {mu})")
    return _result("strip-recursion-vs-tableaux", True, f"n <= {n_max}")


def check_mn_order_invariance(n_max=6):
    """chi^lam(mu) read with mu's parts in every order. The orders of
    every mu of n are the compositions of n, grouped here by their
    sorted parts."""
    for n in range(2, n_max + 1):
        index = enumerate_partitions(n)
        orders = {mu: [] for mu in index}
        for order in _compositions(n):
            orders[tuple(sorted(order, reverse=True))].append(order)
        for lam in index:
            for mu in index:
                vals = {mn_character(lam, order) for order in orders[mu]}
                if len(vals) != 1:
                    return _result("strip-order-invariance", False,
                                   f"({lam}, {mu})")
    return _result("strip-order-invariance", True, f"n <= {n_max}")


def check_counts_agree(n_max=8, k_max=12, walk_n_max=8, brute_n_max=5,
                       brute_k_max=5):
    """The spectral expansion against A_n^k e_(1^n) at every k <= k_max, and
    every other row of ROUTES that can answer at k = n-l, n-l+2 (the walk
    without and with joins) for n <= walk_n_max, k <= brute_k_max for n <=
    brute_n_max."""
    rows = [(name, row) for name, row in ROUTES.items() if name != "spectral"]
    for n in range(1, max(n_max, walk_n_max, brute_n_max) + 1):
        index = enumerate_partitions(n)
        # count_spectral(mu, k) for every k, from one expansion per mu
        expansions = [spectral_expansion(mu) for mu in index]
        if 2 <= n <= n_max:
            mat = transition.build_transition_matrix(n)
            v = [1] + [0] * (len(index) - 1)  # the unit vector at 1^n
            for k in range(k_max + 1):
                for pos, mu in enumerate(index):
                    if expansions[pos].at(k) != v[pos]:
                        return _result("spectral-vs-matrix", False,
                                       f"(n={n}, mu={mu}, k={k})")
                v = transition.matrix_power_apply(mat, 1, v)
        for mu, expansion in zip(index, expansions):
            ks = {n - len(mu), n - len(mu) + 2} if n <= walk_n_max else set()
            ks |= set(range(brute_k_max + 1)) if n <= brute_n_max else set()
            for k in sorted(ks):
                c = expansion.at(k)
                for name, (reason, count, _) in rows:
                    if reason(mu, k) is None and count(mu, k) != c:
                        return _result("spectral-vs-matrix", False,
                                       f"{name} (n={n}, mu={mu}, k={k})")
    return _result("spectral-vs-matrix", True,
                   f"matrix n <= {n_max} k <= {k_max}, "
                   f"walk n <= {walk_n_max} k in {{n-l, n-l+2}}, "
                   f"brute n <= {brute_n_max} k <= {brute_k_max}")


def _expansions_agree(name, route, n_max):
    """The expansion of ROUTES' row route against the spectral row's, for
    every mu of n <= n_max that the row answers, so at every k."""
    reason, _, expansion = ROUTES[route]
    spectral = ROUTES["spectral"][2]
    for n in range(1, n_max + 1):
        for mu in enumerate_partitions(n):
            if reason(mu, 0) is None and expansion(mu) != spectral(mu):
                return _result(name, False, f"mu={mu}")
    return _result(name, True, f"n <= {n_max}, every k")


def check_goulden(n_max=8):
    return _expansions_agree("single-cycle-closed-form", "goulden", n_max)


def check_two_cycle(n_max=8):
    return _expansions_agree("two-cycle-closed-form", "two-cycle", n_max)


def check_parity_vanishing(n_max=6, k_max=10):
    """c_k(mu) = 0 unless k >= n - l and k = n - l mod 2, read on that
    parity: at(k) is 0 off it by construction, compared with A^k by
    spectral-vs-matrix, and the builder of each expansion read here
    raises where the pairing a_-r = (-1)^(n-l) a_r behind it fails."""
    for n in range(2, n_max + 1):
        for mu in enumerate_partitions(n):
            expansion = spectral_expansion(mu)
            dist = n - len(mu)
            for k in range(dist % 2, k_max + 1, 2):
                if (k < dist) != (expansion.at(k) == 0):
                    return _result("count-parity", False, f"(mu={mu}, k={k})")
    return _result("count-parity", True,
                   f"n <= {n_max}, k <= {k_max}; a_-r = (-1)^(n-l) a_r")


def check_mass_conservation(n_max=6, k_max=8):
    for n in range(2, n_max + 1):
        index = enumerate_partitions(n)
        expansions = [spectral_expansion(mu) for mu in index]
        for k in range(k_max + 1):
            total = sum(class_size(mu) * expansion.at(k)
                        for mu, expansion in zip(index, expansions))
            if total != comb(n, 2) ** k:
                return _result("mass-conservation", False, f"(n={n}, k={k})")
    return _result("mass-conservation", True, f"n <= {n_max}, k <= {k_max}")


def check_dual_bases(n_max=8):
    """sum_lam chi^lam(mu) chi^lam(nu) = z_mu delta(mu, nu), the power-sum
    side of the Hall pairing; on the square table it holds exactly when
    the rows are orthogonal, the Schur side."""
    for n in range(1, n_max + 1):
        table = build_character_table(n)
        parts = table.index.ordered
        columns = list(zip(*table.values))
        for a, col_a in enumerate(columns):
            for b in range(a, len(columns)):
                dot = sum(map(mul, col_a, columns[b]))
                if dot != (z_value(parts[a]) if a == b else 0):
                    return _result("dual-bases", False,
                                   f"({parts[a]}, {parts[b]})")
    return _result("dual-bases", True, f"n <= {n_max}")


def check_omega(n_max=5):
    """omega(s_lam) = s_lam', read as character-table's conjugation clause."""
    for n in range(1, n_max + 1):
        for lam, _ in conjugation_mismatches(build_character_table(n)):
            return _result("omega-involution", False, f"{lam}")
    return _result("omega-involution", True, f"n <= {n_max}")


def check_dstar(n_max=8):
    """For every N >= n at once: K unitriangular, K (D - 2nN) =
    diag(2 rho - 2n) K and R (D - 2nN) = (2A - 2n) R. Up to DSTAR_MAX_N,
    also oracle.apply_dstar on each m_lam in N = n+1 and n+2 variables."""
    raw_max = min(n_max, oracle.DSTAR_MAX_N)
    for n in range(1, n_max + 1):
        index = enumerate_partitions(n)
        dstar = symfun.dstar_rows(n)
        pour = symfun.pour_rows(n)
        kostka = symfun.kostka_rows(build_character_table(n), pour)
        for r, (lam, row) in enumerate(zip(index, kostka)):
            if row[-1:] != [(r, 1)]:
                return _result("diff-operator", False,
                               f"Kostka not unitriangular (n={n}) at {lam}")
            mu = _first_difference(
                index, symfun.times_rows(row, dstar),
                symfun.times_rows([(r, 2 * rho(lam) - 2 * n)], kostka))
            if mu:
                return _result("diff-operator", False,
                               f"eigenfunction (n={n}) at ({lam}, {mu})")
        moves = transition.build_transition_matrix(n) if n > 1 else [[]]
        for r, (nu, row, move) in enumerate(zip(index, pour, moves)):
            mu = _first_difference(
                index, symfun.times_rows(row, dstar),
                symfun.times_rows([(s, 2 * v) for s, v in move]
                                  + [(r, -2 * n)], pour))
            if mu:
                return _result("diff-operator", False,
                               f"power sums (n={n}) at ({nu}, {mu})")
        for N in (n + 1, n + 2) if n <= raw_max else ():
            monomials = [oracle.monomial_symmetric(lam, N) for lam in index]
            for lam, m, row in zip(index, monomials, dstar):
                image = sum((monomials[col].scale(v) for col, v in row),
                            m.scale(2 * n * N))
                if oracle.apply_dstar(m) != image:
                    return _result("diff-operator", False,
                                   f"raw operator (n={n}, N={N}) at {lam}")
    return _result("diff-operator", True,
                   f"n <= {n_max}, every N >= n; "
                   f"raw operator n <= {raw_max}, N in {{n+1, n+2}}")


def run_battery(deep=False):
    """Run every check, at its default scales, or in deep mode at the
    scales below. A check that raises is a fault, not a result: the
    exception propagates."""
    # built per call, so a check rebound on this module is the one run
    deep_scales = [
        (check_rho_symmetries, {"n_max": 15}),
        (check_census, {"n_max": 15}),
        (check_matrix_vs_raw, {"n_max": 10}),
        (check_matrix_structure, {"n_max": 15}),
        (check_eigen_relations, {"n_max": 12}),
        (check_character_table, {"n_max": 12}),
        (check_mn_vs_tableaux, {"n_max": 8}),
        (check_mn_order_invariance, {"n_max": 9}),
        (check_counts_agree, {"n_max": 12, "k_max": 30, "walk_n_max": 10,
                              "brute_n_max": 7, "brute_k_max": 7}),
        (check_goulden, {"n_max": 10}),
        (check_two_cycle, {"n_max": 10}),
        (check_parity_vanishing, {"n_max": 8, "k_max": 16}),
        (check_mass_conservation, {"n_max": 7, "k_max": 10}),
        (check_dual_bases, {"n_max": 12}),
        (check_omega, {"n_max": 6}),
        (check_dstar, {"n_max": 12}),
    ]
    return [check(**(scales if deep else {})) for check, scales in deep_scales]
