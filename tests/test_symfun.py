from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, prod

from permfact.characters import build_character_table
from permfact.oracle import Poly, apply_dstar
from permfact.partitions import enumerate_partitions, rho
from permfact.symfun import dstar_rows, pour_rows, kostka_rows, times_rows
from permfact.transition import build_transition_matrix


def _complete_homogeneous(n, N):
    """h_n: every degree-n monomial once."""
    out = {}
    for combo in combinations_with_replacement(range(N), n):
        e = [0] * N
        for i in combo:
            e[i] += 1
        out[tuple(e)] = 1
    return Poly(N, out)


def _elementary(n, N):
    """e_n: every squarefree degree-n monomial once."""
    out = {}
    for combo in combinations(range(N), n):
        e = [0] * N
        for i in combo:
            e[i] = 1
        out[tuple(e)] = 1
    return Poly(N, out)




def test_power_sum_expansions(from_monomials, power_product):
    # p_11 = m_2 + 2 m_11; p_111 = m_3 + 3 m_21 + 6 m_111; p_21 = m_3 + m_21
    assert pour_rows(2) == [[(0, 2), (1, 1)], [(1, 1)]]
    assert pour_rows(3) == [[(0, 6), (1, 3), (2, 1)], [(1, 1), (2, 1)],
                            [(2, 1)]]
    for n in range(1, 6):
        index = enumerate_partitions(n)
        for nu, row in zip(index, pour_rows(n)):
            assert from_monomials(row, index, n) == power_product(nu, n)


def test_times_rows():
    rows = [[(0, 1), (2, 3)], [], [(1, -2)]]
    assert times_rows([(0, 5), (2, 1)], rows) == [5, -2, 15]
    assert times_rows(enumerate([0, 7, 0]), rows) == [0, 0, 0]


def test_pour_rows_are_upper_triangular():
    # p_nu holds m_nu prod_i m_i(nu)! times, and no m_mu before nu
    for n in range(1, 9):
        for r, (nu, row) in enumerate(zip(enumerate_partitions(n),
                                          pour_rows(n))):
            assert row[0] == (r, prod(map(factorial, Counter(nu).values())))


def test_dstar_rows_are_lower_triangular():
    # the diagonal is sum_k lam_k (lam_k - 1 - 2k), 0 at (3) and stored
    # only when not 0; every other entry is a sum of 2(a - b) over
    # pairs, so even and positive, and left of it
    assert dstar_rows(3)[2] == [(1, 6)]
    for n in range(1, 9):
        for r, (lam, row) in enumerate(zip(enumerate_partitions(n),
                                           dstar_rows(n))):
            off = dict(row)
            assert off.pop(r, 0) == sum(p * (p - 1 - 2 * k)
                                        for k, p in enumerate(lam, 1))
            assert all(c < r and v > 0 and v % 2 == 0
                       for c, v in off.items())


def test_dstar_rows_n2_example():
    # D m_11 = (4N - 6) m_11; D m_2 = (4N - 2) m_2 + 4 m_11
    assert dstar_rows(2) == [[(0, -6)], [(0, 4), (1, -2)]]


def test_dstar_rows_match_transition(dense, dense_product):
    # R (D - 2nN) = (2 A - 2n) R: D p_nu = 2n(N-1) p_nu + 2 sum_s A[nu][s] p_s
    for n in range(2, 8):
        R, D = dense(pour_rows(n)), dense(dstar_rows(n))
        A = dense(build_transition_matrix(n))
        rhs = dense_product(A, R)
        expect = [[2 * x - 2 * n * y for x, y in zip(line, r_line)]
                  for line, r_line in zip(rhs, R)]
        assert dense_product(R, D) == expect


def test_schur_polynomials(from_monomials):
    for n in range(1, 7):
        index = enumerate_partitions(n)
        rows = kostka_rows(build_character_table(n), pour_rows(n))
        # s_n = h_n and s_1^n = e_n: every m_mu once, and m_1^n alone
        assert rows[-1] == [(c, 1) for c in range(len(index))]
        assert rows[0] == [(0, 1)]
        assert from_monomials(rows[-1], index, n + 1) == \
            _complete_homogeneous(n, n + 1)
        assert from_monomials(rows[0], index, n + 1) == _elementary(n, n + 1)
    # s_21 = m_21 + 2 m_111
    s21 = kostka_rows(build_character_table(3), pour_rows(3))[1]
    assert s21 == [(0, 2), (1, 1)]


def test_schur_eigenfunctions(dense, dense_product):
    # K (D - 2nN) = diag(2 rho - 2n) K, with K unitriangular
    for n in range(1, 8):
        index = enumerate_partitions(n)
        K = dense(kostka_rows(build_character_table(n), pour_rows(n)))
        assert all(K[r][r] == 1 and not any(K[r][r + 1:])
                   for r in range(len(index)))
        expect = [[(2 * rho(lam) - 2 * n) * x for x in line]
                  for lam, line in zip(index, K)]
        assert dense_product(K, dense(dstar_rows(n))) == expect


def _ints_only(f):
    return all(type(c) is int for c in f.terms.values())


def test_integer_polynomials_hold_ints(from_monomials, power_product):
    for n in range(1, 5):
        index = enumerate_partitions(n)
        table = build_character_table(n)
        pour = pour_rows(n)
        rows = [*dstar_rows(n), *pour, *kostka_rows(table, pour)]
        assert all(type(v) is int for row in rows for _, v in row)
        N = n + 1
        for lam, row in zip(index, kostka_rows(table, pour)):
            p = power_product(lam, N)
            assert _ints_only(p) and _ints_only(apply_dstar(p))
            s = from_monomials(row, index, N)
            assert _ints_only(s) and _ints_only(apply_dstar(s))


def test_fraction_coefficients_compare_equal(power_product):
    assert Poly(3, {(1, 0, 0): Fraction(1)}) == Poly.variable(3, 0)
    assert Poly(2, {(1, 0): Fraction(0)}) == Poly(2)
    half = power_product((1, 1), 2).scale(Fraction(1, 2))
    assert half.terms == {(2, 0): Fraction(1, 2), (1, 1): 1,
                          (0, 2): Fraction(1, 2)}
    assert half.scale(2) == power_product((1, 1), 2)
    assert Poly.constant(2, Fraction(3)) == Poly.constant(2, 3)
