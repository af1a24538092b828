from fractions import Fraction
from itertools import permutations, product
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from permfact import oracle
from permfact.characters import build_character_table
from permfact.oracle import (identity, compose, cycle_type, transpositions,
                             class_representative, walk_distributions,
                             BorderStripTableau, enumerate_bst,
                             count_brute, count_tuples, BRUTE_MAX_K,
                             _cycle_lengths, Poly, power_sum, is_symmetric,
                             monomial_symmetric, apply_dstar,
                             _divide_by_difference)
from permfact.partitions import enumerate_partitions
from permfact.symfun import kostka_rows, pour_rows


def _verify_cut_glue(n):
    """Exhaustively check that a transposition (i j) cuts a cycle of alpha
    when i and j share a cycle, and glues two cycles otherwise."""
    # transpositions(n) lists (i j) in this same order
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    taus = list(zip(pairs, transpositions(n)))
    for alpha in permutations(range(n)):
        before = len(_cycle_lengths(alpha))
        for (i, j), t in taus:
            same = _same_cycle(alpha, i, j)
            after = len(_cycle_lengths(compose(t, alpha)))
            if after != (before + 1 if same else before - 1):
                return False
    return True


def _same_cycle(p, i, j):
    x = p[i]
    while x != i:
        if x == j:
            return True
        x = p[x]
    return False


def _reference_walk(n, kmax):
    """walk_distributions by a triple loop: vecs[k][i] sums vecs[k-1] at
    the index of tau * g_i over every transposition tau."""
    elements = list(permutations(range(n)))
    index = {g: i for i, g in enumerate(elements)}
    tau_rows = [[index[compose(tau, g)] for g in elements]
                for tau in transpositions(n)]
    v = [0] * len(elements)
    v[index[identity(n)]] = 1
    vecs = [list(v)]
    for _ in range(kmax):
        nxt = [0] * len(elements)
        for row in tau_rows:
            for gi, ti in enumerate(row):
                nxt[gi] += v[ti]
        v = nxt
        vecs.append(list(v))
    return elements, index, vecs


def _reference_tuples(mu, k):
    """count_tuples by composing each k-tuple's product on its own."""
    n = sum(mu)
    target = class_representative(mu)
    total = 0
    for tup in product(transpositions(n), repeat=k):
        g = identity(n)
        for tau in tup:
            g = compose(g, tau)
        if g == target:
            total += 1
    return total


def _verify_class_invariance(n, k):
    """Check that factorization counts are constant on conjugacy classes."""
    elements, index, vecs = walk_distributions(n, k)
    per_class = {}
    for g in elements:
        per_class.setdefault(cycle_type(g), set()).add(vecs[k][index[g]])
    return all(len(vals) == 1 for vals in per_class.values())


def _cell_by_cell_bst(lam, mu):
    """enumerate_bst the literal way: fill lam one cell at a time, row by
    row, with every label that keeps rows and columns weakly increasing
    and the content mu, then keep the whole fillings whose labels are
    each edge-connected with no 2x2 block."""
    cells = [(r, c) for r, p in enumerate(lam) for c in range(p)]
    fill = {}
    remaining = list(mu)
    found = []

    def place(pos):
        if pos == len(cells):
            tab = tuple(tuple(fill[(r, c)] for c in range(p))
                        for r, p in enumerate(lam))
            t = _strips_of(lam, mu, tab)
            if t is not None:
                found.append(t)
            return
        r, c = cells[pos]
        lo = 1
        if c > 0:
            lo = max(lo, fill[(r, c - 1)])
        if r > 0:
            lo = max(lo, fill[(r - 1, c)])
        for label in range(lo, len(mu) + 1):
            if remaining[label - 1] == 0:
                continue
            remaining[label - 1] -= 1
            fill[(r, c)] = label
            place(pos + 1)
            del fill[(r, c)]
            remaining[label - 1] += 1

    place(0)
    return found


def _strips_of(lam, mu, tab):
    """The tableau record of filling tab if each label's cells are
    edge-connected with no 2x2 block, else None."""
    height = 0
    width = 0
    for label in range(1, len(mu) + 1):
        cells = {(r, c) for r, row in enumerate(tab)
                 for c, v in enumerate(row) if v == label}
        stack = [next(iter(cells))]
        seen = {stack[0]}
        while stack:
            r, c = stack.pop()
            for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != cells:
            return None
        for r, c in cells:
            if {(r + 1, c), (r, c + 1), (r + 1, c + 1)} <= cells:
                return None
        height += len({r for r, _ in cells}) - 1
        width += len({c for _, c in cells}) - 1
    return BorderStripTableau(lam, mu, tab, height, width)


def test_cycle_type_examples():
    assert cycle_type(identity(4)) == (1, 1, 1, 1)
    assert cycle_type((1, 2, 3, 0)) == (4,)
    assert cycle_type((1, 0, 3, 2)) == (2, 2)


def test_class_representative():
    for n in range(1, 8):
        for mu in enumerate_partitions(n):
            assert cycle_type(class_representative(mu)) == mu


def test_transpositions_count():
    for n in range(2, 8):
        taus = transpositions(n)
        assert len(taus) == comb(n, 2)
        assert all(cycle_type(t) == (2,) + (1,) * (n - 2) for t in taus)


def test_count_brute_examples():
    assert count_brute((3,), 2) == 3
    assert count_brute((2, 1, 1), 1) == 1
    assert count_brute((3, 1), 4) == 108


def test_count_brute_ceilings():
    with pytest.raises(ValueError):
        count_brute((8,) , 2)
    with pytest.raises(ValueError):
        count_brute((3,), 99)


def test_count_brute_matches_a_fresh_walk():
    for n, kmax in [(n, BRUTE_MAX_K) for n in range(1, 7)] + [(7, 7)]:
        _, index, vecs = walk_distributions(n, kmax)
        for mu in enumerate_partitions(n):
            g = index[class_representative(mu)]
            for k in range(kmax + 1):
                assert count_brute(mu, k) == vecs[k][g], (mu, k)


def test_count_brute_takes_parts_in_any_order():
    _, index, vecs = walk_distributions(6, 8)
    for mu in ((1, 2, 3), (2, 1, 3), (1, 1, 4), (2, 4), (1, 2, 1, 2)):
        g = index[class_representative(mu)]
        for k in range(9):
            assert count_brute(mu, k) == vecs[k][g]
            assert count_brute(mu, k) == \
                count_brute(tuple(sorted(mu, reverse=True)), k)


def test_count_brute_errors(monkeypatch):
    def no_walk(n, kmax):
        raise AssertionError("walk built for a rejected query")

    monkeypatch.setattr(oracle, "walk_distributions", no_walk)
    monkeypatch.setattr(oracle, "_class_counts",
                        oracle._class_counts.__wrapped__)
    for mu, k, message in (((8,), 2, "n <= 7, got n=8"),
                           ((4, 4), 0, "n <= 7, got n=8"),
                           ((3,), 17, "k <= 16, got k=17"),
                           ((3,), -1, "nonnegative")):
        with pytest.raises(ValueError, match=message):
            count_brute(mu, k)
    # a cycle type has positive int parts, in any order
    for mu in ((2, 0, 1), (True, 2), (3, -1), (2.0, 1), ()):
        for count in (count_brute, count_tuples):
            with pytest.raises(ValueError):
                count(mu, 1)
    # and k is a nonnegative int, not a bool or a float
    for k in (True, 1.0, -1):
        for count in (count_brute, count_tuples):
            with pytest.raises(ValueError, match="nonnegative int"):
                count((2, 1), k)


def test_one_walk_per_n(monkeypatch):
    calls = []
    real = oracle.walk_distributions

    def counted(n, kmax):
        calls.append((n, kmax))
        return real(n, kmax)

    monkeypatch.setattr(oracle, "walk_distributions", counted)
    oracle._class_counts.cache_clear()
    for n in (3, 5, 3, 6, 5, 6):
        for mu in enumerate_partitions(n):
            for k in (BRUTE_MAX_K, 0, 7):
                count_brute(mu, k)
    assert calls == [(3, BRUTE_MAX_K), (5, BRUTE_MAX_K), (6, BRUTE_MAX_K)]
    # the memo keeps one row of counts per cycle type, not the walk
    memo = oracle._class_counts(6)
    assert sorted(memo) == sorted(enumerate_partitions(6))
    assert all(len(row) == BRUTE_MAX_K + 1 for row in memo.values())


def test_walk_matches_triple_loop():
    for n, kmax in [(n, BRUTE_MAX_K) for n in range(1, 7)] + [(7, 7)]:
        assert walk_distributions(n, kmax) == _reference_walk(n, kmax), n
    # S_1 has no transposition, S_2 one
    assert walk_distributions(1, 2)[2] == [[1], [0], [0]]
    assert walk_distributions(2, 3) == ([(0, 1), (1, 0)],
                                        {(0, 1): 0, (1, 0): 1},
                                        [[1, 0], [0, 1], [1, 0], [0, 1]])


def test_tuple_products_match_literal_enumeration():
    for n in range(1, 5):
        for mu in enumerate_partitions(n):
            for k in range(6):
                assert count_tuples(mu, k) == _reference_tuples(mu, k), \
                    (mu, k)


def test_one_enumeration_per_size(monkeypatch):
    calls = []
    real = oracle.transpositions

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(oracle, "transpositions", counted)
    oracle._tuple_products.cache_clear()
    for n in (3, 4, 3, 4):
        for mu in enumerate_partitions(n):
            for k in (5, 0, 5, 2):
                count_tuples(mu, k)
    assert calls == [3, 3, 3, 4, 4, 4]
    # the memo keeps one tally of products per size, not the tuples:
    # five transpositions multiply to each odd permutation of S_4
    memo = oracle._tuple_products(4, 5)
    assert sorted(memo) == [g for g in permutations(range(4))
                            if len(_cycle_lengths(g)) % 2]
    assert sum(memo.values()) == comb(4, 2) ** 5


def test_tuple_errors_build_no_enumeration(monkeypatch):
    def no_enumeration(n, k):
        raise AssertionError("enumeration built for a rejected query")

    monkeypatch.setattr(oracle, "_tuple_products", no_enumeration)
    for mu, k, message in (((5,), 2, "n <= 4"), ((2, 2, 1), 0, "n <= 4"),
                           ((3,), 6, "k <= 5"), ((3,), -1, "nonnegative"),
                           ((2, 1), True, "nonnegative"),
                           ((2, 0, 1), 1, "invalid part"),
                           ((), 1, "nonempty")):
        with pytest.raises(ValueError, match=message):
            count_tuples(mu, k)


def test_tuple_enumeration_matches_dp():
    for n in range(2, 5):
        for mu in enumerate_partitions(n):
            for k in range(5):
                assert count_tuples(mu, k) == count_brute(mu, k)
    with pytest.raises(ValueError):
        count_tuples((5,), 2)


def test_walk_total_mass():
    for n in range(2, 8):
        _, _, vecs = walk_distributions(n, 10)
        for k, vec in enumerate(vecs):
            assert sum(vec) == comb(n, 2) ** k


def test_cut_glue():
    for n in range(2, 9):
        assert _verify_cut_glue(n)


def test_class_invariance():
    assert _verify_class_invariance(4, 4)
    assert _verify_class_invariance(5, 5)
    assert _verify_class_invariance(3, 2)


def test_class_invariance_value():
    # all eight 3-cycle-type elements of S_4 admit 108 factorizations
    elements, index, vecs = walk_distributions(4, 4)
    vals = {vecs[4][index[g]] for g in elements if cycle_type(g) == (3, 1)}
    assert vals == {108}



def test_symmetry_detection():
    assert is_symmetric(power_sum(3, 4))
    m21 = monomial_symmetric((2, 1), 3)
    assert is_symmetric(m21) and len(m21.terms) == 6
    skew = Poly(3, {(1, 0, 0): Fraction(1)})
    assert not is_symmetric(skew)
    with pytest.raises(ValueError):
        apply_dstar(skew)


def test_monomial_symmetric():
    assert monomial_symmetric((2, 1), 2).terms == {(2, 1): 1, (1, 2): 1}
    assert monomial_symmetric((1, 1), 3).terms == \
        {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    # m_lam vanishes in fewer variables than lam has parts
    assert monomial_symmetric((1, 1, 1), 2) == Poly(2)
    with pytest.raises(ValueError):
        monomial_symmetric((1, 2), 3)


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


def _diff(f, i):
    """d f / d x_i."""
    out = {}
    for exps, c in f.terms.items():
        if exps[i]:
            e = list(exps)
            e[i] -= 1
            out[tuple(e)] = c * exps[i]
    return Poly(f.N, out)


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


def test_dstar_matches_reference_on_p_and_s(from_monomials, power_product):
    for n in range(1, 5):
        index = enumerate_partitions(n)
        kostka = kostka_rows(build_character_table(n), pour_rows(n))
        for N in (n + 1, n + 2):
            for lam, row in zip(index, kostka):
                for f in (power_product(lam, N),
                          from_monomials(row, index, N)):
                    assert apply_dstar(f) == _reference_dstar(f)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.data())
def test_dstar_matches_reference_on_p_combinations(n, extra, data):
    N = n + extra
    f = Poly(N)
    for lam in enumerate_partitions(n):
        p = prod((power_sum(r, N) for r in lam), start=Poly.constant(N, 1))
        f = f + p.scale(data.draw(st.integers(-5, 5)))
    assert apply_dstar(f) == _reference_dstar(f)


def test_dstar_on_p1_and_constants():
    for N in range(2, 6):
        p1 = power_sum(1, N)
        assert apply_dstar(p1) == p1.scale(2 * (N - 1))
    assert apply_dstar(Poly.constant(3, 7)) == Poly(3)


def test_label_by_label_matches_cell_by_cell():
    # every lam and every order of every mu at n <= 6: the same records
    # in the same order
    for n in range(1, 7):
        index = enumerate_partitions(n)
        for lam in index:
            for mu in index:
                for order in set(permutations(mu)):
                    assert enumerate_bst(lam, order) == \
                        _cell_by_cell_bst(lam, order), (lam, order)


def test_strip_extent_reads_the_definition():
    # (top row, bottom row, columns) of outer / inner, or None
    assert oracle._strip_extent((0, 0), (2, 1)) == (0, 1, 2)
    assert oracle._strip_extent((1, 0), (2, 2)) == (0, 1, 2)
    assert oracle._strip_extent((0, 0, 0), (1, 1, 1)) == (0, 2, 1)
    assert oracle._strip_extent((2, 0), (2, 2)) == (1, 1, 2)
    assert oracle._strip_extent((0, 0), (2, 2)) is None  # a 2x2 block
    # cells meeting at a corner only; rows 0 and 2 grown, row 1 not
    assert oracle._strip_extent((1, 0, 0), (2, 1, 1)) is None
    assert oracle._strip_extent((2, 1, 0), (3, 1, 1)) is None
