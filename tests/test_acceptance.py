"""Acceptance gate: every headline requirement at its full scale.

Each test prints one line on success so a verbose run reads as a
checklist. All equalities are exact; the few runtime guards use wall
time with the stated budgets.
"""

import time
from math import comb, factorial

from permfact.characters import (build_character_table,
                                 dimension_hook_formula, mn_character)
from permfact.counting import (count_spectral, count_goulden,
                               count_two_cycle)
from permfact.oracle import (bst_signed_count, class_representative,
                             walk_distributions)
from permfact.partitions import (enumerate_partitions, conjugate, class_size,
                                 rho, z_value)
from permfact.transition import build_transition_matrix, matrix_power_apply
from permfact.verify import (bipartite_offenders, dual_eigen_mismatches,
                             eigen_mismatches, parity_census, row_sums)

A4_EXPECTED = [[0, 6, 0, 0, 0],
               [1, 0, 1, 4, 0],
               [0, 2, 0, 0, 4],
               [0, 3, 0, 0, 3],
               [0, 0, 2, 4, 0]]

# Reference eigenvalue multisets, n = 3..10. Every value is the content
# sum of one partition; zeros appear once per self-conjugate partition
# (n = 8 and n = 10 each have two self-conjugate partitions).
EIGENVALUES = {
    3: [-3, 0, 3],
    4: [-6, -2, 0, 2, 6],
    5: [-10, -5, -2, 0, 2, 5, 10],
    6: [-15, -9, -5, -3, -3, 0, 3, 3, 5, 9, 15],
    7: [-21, -14, -9, -7, -6, -3, -1, 0, 1, 3, 6, 7, 9, 14, 21],
    8: [-28, -20, -14, -12, -10, -8, -7, -4, -4, -2, 0, 0,
        2, 4, 4, 7, 8, 10, 12, 14, 20, 28],
    9: [-36, -27, -20, -18, -15, -12, -12, -9, -8, -6, -6, -4, -3, -1, 0, 0,
        1, 3, 4, 6, 6, 8, 9, 12, 12, 15, 18, 20, 27, 36],
    10: [-45, -35, -27, -25, -21, -18, -17, -15, -15, -13, -11, -10, -9, -7,
         -5, -5, -5, -3, -3, -3, 0, 0, 3, 3, 3, 5, 5, 5, 7, 9, 10, 11, 13,
         15, 15, 17, 18, 21, 25, 27, 35, 45],
}


def test_criterion_01_transition_matrix_n4(dense):
    start = time.monotonic()
    assert dense(build_transition_matrix(4)) == A4_EXPECTED
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 1 PASS: A_4 matches expected matrix ({elapsed:.3f}s)")


def test_criterion_02_count_vector_n4():
    m = build_transition_matrix(4)
    vec = matrix_power_apply(m, 4, [1, 0, 0, 0, 0])
    assert vec == [120, 0, 104, 108, 0]
    assert count_spectral((3, 1), 4) == 108
    print("criterion 2 PASS: A_4^4 e = (120, 0, 104, 108, 0), c_4(31) = 108")


def test_criterion_03_eigenvalue_table():
    start = time.monotonic()
    for n in range(3, 11):
        computed = sorted(rho(lam) for lam in enumerate_partitions(n))
        assert computed == EIGENVALUES[n], f"eigenvalue multiset differs at n={n}"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 3 PASS: eigenvalue multisets match for n=3..10 "
          f"({elapsed:.3f}s)")


def test_criterion_04_eigen_relations_to_n12():
    start = time.monotonic()
    for n in range(2, 13):
        table = build_character_table(n)
        matrix = build_transition_matrix(n)
        assert eigen_mismatches(n, matrix=matrix, table=table) == []
        assert dual_eigen_mismatches(n, matrix=matrix, table=table) == []
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 4 PASS: exact eigen relations for n <= 12 "
          f"({elapsed:.1f}s)")


def test_criterion_05_oracle_equivalence(spectral_counts):
    start = time.monotonic()
    for n in range(2, 13):
        index = enumerate_partitions(n)
        counts = [spectral_counts(mu, 30) for mu in index]
        matrix = build_transition_matrix(n)
        v = [0] * len(index)
        v[0] = 1
        for k in range(31):
            for pos, mu in enumerate(index):
                assert counts[pos][k] == v[pos], \
                    f"spectral != matrix at n={n}, mu={mu}, k={k}"
            v = matrix_power_apply(matrix, 1, v)
    for n in range(2, 8):
        _, idx, vecs = walk_distributions(n, 7)
        for mu in enumerate_partitions(n):
            gi = idx[class_representative(mu)]
            for k, c in enumerate(spectral_counts(mu, 7)):
                assert c == vecs[k][gi], \
                    f"spectral != brute at n={n}, mu={mu}, k={k}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 5 PASS: spectral = matrix power (n <= 12, k <= 30), "
          f"spectral = group DP (n <= 7, k <= 7) ({elapsed:.1f}s)")


def test_criterion_06_single_cycle_closed_form(spectral_counts):
    for n in range(1, 11):
        for k, c in enumerate(spectral_counts((n,), 20)):
            assert count_goulden(n, k) == c
    print("criterion 6 PASS: single-cycle closed form (n <= 10, k <= 20)")


def test_criterion_07_two_cycle_closed_form(spectral_counts):
    mismatches = []
    for n in range(2, 11):
        for k_small in range(1, n // 2 + 1):
            m = n - k_small
            for k, spectral in enumerate(spectral_counts((m, k_small), 12)):
                closed = count_two_cycle(m, k_small, k)
                if closed != spectral:
                    mismatches.append(((m, k_small), k, closed, spectral))
    assert mismatches == [], f"two-cycle closed form disagreements: {mismatches}"
    print("criterion 7 PASS: two-cycle closed form (n <= 10, k <= 12)")


def test_criterion_08_character_suite():
    for n in range(1, 9):
        index = enumerate_partitions(n)
        for lam in index:
            for mu in index:
                assert bst_signed_count(lam, mu) == mn_character(lam, mu)
    for n in range(1, 13):
        table = build_character_table(n)
        index = enumerate_partitions(n)
        nfact = factorial(n)
        weights = [nfact // z_value(nu) for nu in index]
        size = len(index)
        for a in range(size):
            assert table.values[a][0] == dimension_hook_formula(index.ordered[a])
            for b in range(a, size):
                dot = sum(weights[i] * table.values[a][i] * table.values[b][i]
                          for i in range(size))
                assert dot == (nfact if a == b else 0)
        for lam in index:
            row = table.row(lam)
            conj_row = table.row(conjugate(lam))
            for pos, nu in enumerate(index):
                assert conj_row[pos] == (-1) ** (n - len(nu)) * row[pos]
    print("criterion 8 PASS: tableaux = recursion (n <= 8); orthogonality, "
          "conjugation, hook dimensions (n <= 12)")


def test_criterion_09_differential_operator(dense, dense_product,
                                            power_product, from_monomials):
    from permfact.oracle import apply_dstar
    from permfact.symfun import dstar_rows, kostka_rows, pour_rows
    start = time.monotonic()
    # the raw operator on power sums and Schur polynomials in N
    # variables, compared as polynomials, with no solve
    for n in range(1, 6):
        index = enumerate_partitions(n)
        moves = build_transition_matrix(n) if n >= 2 else [[]]
        kostka = kostka_rows(build_character_table(n), pour_rows(n))
        for N in (n + 1, n + 2):
            p = [power_product(nu, N) for nu in index]
            for p_nu, row in zip(p, moves):
                image = p_nu.scale(2 * n * (N - 1))
                for s, v in row:
                    image = image + p[s].scale(2 * v)
                assert apply_dstar(p_nu) == image
            for lam, row in zip(index, kostka):
                s = from_monomials(row, index, N)
                eigenvalue = 2 * n * (N - 1) + 2 * rho(lam)
                assert apply_dstar(s) == s.scale(eigenvalue)
    # on the monomial basis, for every N >= n: K unitriangular,
    # K (D - 2nN) = diag(2 rho - 2n) K and R (D - 2nN) = (2A - 2n) R
    for n in range(1, 13):
        index = enumerate_partitions(n)
        D = dense(dstar_rows(n))
        R = dense(pour_rows(n))
        K = dense(kostka_rows(build_character_table(n), pour_rows(n)))
        A = dense(build_transition_matrix(n)) if n >= 2 else [[0]]
        for r, line in enumerate(K):
            assert line[r] == 1 and not any(line[r + 1:])
        assert dense_product(K, D) == [
            [(2 * rho(lam) - 2 * n) * x for x in line]
            for lam, line in zip(index, K)]
        assert dense_product(R, D) == [
            [2 * x - 2 * n * y for x, y in zip(a, r)]
            for a, r in zip(dense_product(A, R), R)]
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 9 PASS: operator on power sums and Schur polynomials "
          f"(n <= 5, N in {{n+1, n+2}}), on the monomial basis (n <= 12) "
          f"({elapsed:.1f}s)")


def test_criterion_10_structural_properties(spectral_counts):
    for n in range(2, 16):
        matrix = build_transition_matrix(n)
        assert row_sums(matrix) == [comb(n, 2)] * len(matrix)
        assert bipartite_offenders(n, matrix) == []
        index = enumerate_partitions(n)
        evens, odds, self_conj = parity_census(n)
        assert sum(1 for lam in index if rho(lam) == 0) >= self_conj
        assert abs(evens - odds) == self_conj
    # parity vanishing of the counts themselves, via exact matrix powers
    for n in range(2, 16):
        index = enumerate_partitions(n)
        matrix = build_transition_matrix(n)
        v = [0] * len(index)
        v[0] = 1
        for k in range(17):
            for pos, mu in enumerate(index):
                dist = n - len(mu)
                expect_zero = k < dist or (k - dist) % 2 == 1
                assert (v[pos] == 0) == expect_zero, (mu, k)
            v = matrix_power_apply(matrix, 1, v)
    # and through the spectral formula directly at character-table scale
    for n in range(2, 9):
        for mu in enumerate_partitions(n):
            dist = n - len(mu)
            for k, c in enumerate(spectral_counts(mu, 16)):
                assert (c == 0) == (k < dist or (k - dist) % 2 == 1)
    print("criterion 10 PASS: row sums, bipartite structure, zero "
          "multiplicity, parity census, count parity (n <= 15)")


def test_criterion_11_mass_conservation(spectral_counts):
    for n in range(2, 8):
        index = enumerate_partitions(n)
        counts = [spectral_counts(mu, 10) for mu in index]
        for k in range(11):
            total = sum(class_size(mu) * c[k] for mu, c in zip(index, counts))
            assert total == comb(n, 2) ** k
    print("criterion 11 PASS: sum over classes equals C(n,2)^k "
          "(n <= 7, k <= 10)")
