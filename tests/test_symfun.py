from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from permfact.characters import CharacterTable, build_character_table
from permfact.partitions import enumerate_partitions, conjugate, rho, z_value
from permfact.symfun import (Poly, power_sum, expand_p,
                             schur_from_characters, is_symmetric,
                             apply_dstar, matrix_of_dstar, p_basis_coords,
                             omega_on_p, schur_p_coords,
                             _divide_by_difference)
from permfact.transition import build_transition_matrix


def _diff(f, i):
    """d f / d x_i."""
    out = {}
    for exps, c in f.terms.items():
        if exps[i]:
            e = list(exps)
            e[i] -= 1
            out[tuple(e)] = c * exps[i]
    return Poly(f.N, out)


def _evaluate(f, point):
    total = Fraction(0)
    for exps, c in f.terms.items():
        v = c
        for x, e in zip(point, exps):
            v *= Fraction(x) ** e
        total += v
    return total


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


def test_power_sum_expansions():
    p1 = power_sum(1, 2)
    assert p1.terms == {(1, 0): 1, (0, 1): 1}
    p11 = expand_p((1, 1), 2)
    assert p11.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert _evaluate(expand_p((2, 1), 3), [1, 1, 1]) == 9


def test_symmetry_detection():
    assert is_symmetric(power_sum(3, 4))
    skew = Poly(3, {(1, 0, 0): Fraction(1)})
    assert not is_symmetric(skew)
    with pytest.raises(ValueError):
        apply_dstar(skew)


def test_divide_by_difference_exact():
    # (x0^2 - x1^2) / (x0 - x1) = x0 + x1
    g = {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    assert Poly(2, _divide_by_difference(g, 0, 1)) == power_sum(1, 2)
    with pytest.raises(RuntimeError):
        _divide_by_difference({(2, 0): Fraction(1)}, 0, 1)
    # a non-adjacent pair: (x0 - x2)(x0 x1 + x2^2) / (x0 - x2)
    g = (Poly.variable(3, 0) - Poly.variable(3, 2)) * Poly(
        3, {(1, 1, 0): 1, (0, 0, 2): 1})
    assert Poly(3, _divide_by_difference(g.terms, 0, 2)) == \
        Poly(3, {(1, 1, 0): 1, (0, 0, 2): 1})
    # at x0 = x2, x0^2 x1 - x2^2 x1 cancels but x0 x1 leaves x1 x2
    bad = {(2, 1, 0): 1, (0, 1, 2): -1, (1, 1, 0): 1}
    with pytest.raises(RuntimeError, match="x_0 - x_2"):
        _divide_by_difference(bad, 0, 2)


def test_expand_p_memo_is_shared_and_unchanged():
    def fresh():
        return power_sum(2, 3) * power_sum(1, 3)
    p = expand_p([2, 1], 3)
    assert p == fresh() and p is expand_p((2, 1), 3)
    p.scale(5), p + p, p * p, p - p  # each builds a new Poly
    assert expand_p((2, 1), 3) == fresh()
    with pytest.raises(ValueError):
        expand_p([1, 2], 3)


def _reference_dstar(f):
    """The operator by generic Poly arithmetic over every ordered pair,
    each quotient checked by multiplying back."""
    N = f.N
    out = Poly(N, {e: c * sum(k * (k - 1) for k in e)
                   for e, c in f.terms.items()})
    for i in range(N):
        for j in range(N):
            if i != j:
                g = Poly.variable(N, i, 2) * _diff(f, i) \
                    - Poly.variable(N, j, 2) * _diff(f, j)
                q = Poly(N, _divide_by_difference(g.terms, i, j))
                assert (Poly.variable(N, i) - Poly.variable(N, j)) * q == g
                out = out + q
    return out


def test_dstar_matches_reference_on_p_and_s():
    for n in range(1, 5):
        table = build_character_table(n)
        for N in (n + 1, n + 2):
            for lam in enumerate_partitions(n):
                for f in (expand_p(lam, N),
                          schur_from_characters(lam, N, table=table)):
                    assert apply_dstar(f) == _reference_dstar(f)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.data())
def test_dstar_matches_reference_on_p_combinations(n, extra, data):
    N = n + extra
    f = Poly(N)
    for lam in enumerate_partitions(n):
        f = f + expand_p(lam, N).scale(data.draw(st.integers(-5, 5)))
    assert apply_dstar(f) == _reference_dstar(f)


def test_dstar_on_p1_and_constants():
    for N in range(2, 6):
        p1 = power_sum(1, N)
        assert apply_dstar(p1) == p1.scale(2 * (N - 1))
    assert apply_dstar(Poly.constant(3, 7)) == Poly(3)


def test_schur_polynomials():
    table = build_character_table(3)
    assert schur_from_characters((3,), 4, table=table) == \
        _complete_homogeneous(3, 4)
    assert schur_from_characters((1, 1, 1), 4, table=table) == \
        _elementary(3, 4)
    s21 = schur_from_characters((2, 1), 3, table=table)
    assert s21.terms[(1, 1, 1)] == 2


def _ints_only(f):
    return all(type(c) is int for c in f.terms.values())


def test_integer_polynomials_hold_ints():
    for n in range(1, 5):
        table = build_character_table(n)
        N = n + 1
        for lam in enumerate_partitions(n):
            assert _ints_only(expand_p(lam, N))
            assert _ints_only(apply_dstar(expand_p(lam, N)))
            s = schur_from_characters(lam, N, table=table)
            assert _ints_only(s) and _ints_only(apply_dstar(s))


def test_schur_rejects_one_changed_table_value():
    # the first column is the hook formula, which CharacterTable checks
    for n in (3, 4):
        table = build_character_table(n)
        N = n + 1
        for r, lam in enumerate(table.index):
            for c in range(1, len(table.index)):
                for delta in (1, -1):
                    values = [list(row) for row in table.values]
                    values[r][c] += delta
                    changed = CharacterTable(table.index, values)
                    with pytest.raises(RuntimeError, match="Schur coefficient"):
                        schur_from_characters(lam, N, table=changed)


def test_fraction_coefficients_compare_equal():
    assert Poly(3, {(1, 0, 0): Fraction(1)}) == Poly.variable(3, 0)
    assert Poly(2, {(1, 0): Fraction(0)}) == Poly(2)
    half = expand_p((1, 1), 2).scale(Fraction(1, 2))
    assert half.terms == {(2, 0): Fraction(1, 2), (1, 1): 1,
                          (0, 2): Fraction(1, 2)}
    assert half.scale(2) == expand_p((1, 1), 2)
    assert Poly.constant(2, Fraction(3)) == Poly.constant(2, 3)


def test_schur_eigenfunctions():
    for n in range(1, 5):
        table = build_character_table(n)
        N = n + 1
        for lam in enumerate_partitions(n):
            s = schur_from_characters(lam, N, table=table)
            assert apply_dstar(s) == s.scale(2 * n * (N - 1) + 2 * rho(lam))


def test_matrix_of_dstar_n2_example(dense):
    # n=2, N=3: half the matrix minus 2(N-1) I is the transposed A_2
    M = matrix_of_dstar(2, 3)
    A = dense(build_transition_matrix(2))
    for r in range(2):
        for c in range(2):
            expect = Fraction(A[c][r])
            if r == c:
                expect += 2 * (3 - 1)
            assert M[r][c] == 2 * expect


def test_matrix_of_dstar_matches_transition(dense):
    for n in range(2, 5):
        A = dense(build_transition_matrix(n))
        size = len(A)
        for N in (n + 1, n + 2):
            M = matrix_of_dstar(n, N)
            for r in range(size):
                for c in range(size):
                    expect = Fraction(A[c][r])
                    if r == c:
                        expect += n * (N - 1)
                    assert M[r][c] == 2 * expect
            assert all(M[d][d] == 2 * n * (N - 1) for d in range(size))


def test_p_basis_requires_enough_variables():
    with pytest.raises(ValueError):
        p_basis_coords(power_sum(3, 3), 3, 3)


def test_p_basis_rejects_what_power_sums_cannot_reproduce():
    # the solve reads only monomials with weakly decreasing exponents;
    # the reconstruction must catch a fault anywhere else
    with pytest.raises(RuntimeError):
        p_basis_coords(Poly.variable(4, 0, 3), 3, 4)
    with pytest.raises(RuntimeError):
        p_basis_coords(power_sum(3, 4) + Poly.variable(4, 3, 3), 3, 4)
    with pytest.raises(RuntimeError):
        p_basis_coords(power_sum(2, 4), 3, 4)


def test_p_basis_roundtrip():
    n, N = 4, 5
    index = enumerate_partitions(n)
    f = Poly(N)
    want = {}
    for i, lam in enumerate(index):
        coeff = Fraction(i + 1, 3)
        want[lam] = coeff
        f = f + expand_p(lam, N).scale(coeff)
    coords = p_basis_coords(f, n, N)
    assert coords == want


def test_omega():
    for n in range(1, 7):
        table = build_character_table(n)
        for lam in enumerate_partitions(n):
            coords = schur_p_coords(lam, table=table)
            flipped = omega_on_p(coords, n)
            assert flipped == schur_p_coords(conjugate(lam), table=table)
            assert omega_on_p(flipped, n) == coords
    # top power sum coordinate just flips sign
    coords = {(4,): Fraction(1)}
    assert omega_on_p(coords, 4) == {(4,): Fraction(-1)}


def test_schur_p_coords_definition():
    table = build_character_table(4)
    for lam in enumerate_partitions(4):
        coords = schur_p_coords(lam, table=table)
        for nu in enumerate_partitions(4):
            assert coords[nu] == Fraction(table.value(lam, nu), z_value(nu))
