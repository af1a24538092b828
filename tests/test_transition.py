from itertools import product
from math import comb

import pytest

from permfact import transition
from permfact.characters import build_character_table
from permfact.counting import count_goulden
from permfact.oracle import (build_raw_counts, transpositions, compose,
                             identity)
from permfact.partitions import enumerate_partitions
from permfact.transition import (build_transition_matrix, matrix_power_apply,
                                 walk_row, _moves, _key, _slot_powers)
from permfact.verify import (matrix_equality_offenders, row_sums,
                             bipartite_offenders,
                             eigen_mismatches, dual_eigen_mismatches)


def _shape(key, n):
    """The partition of n whose multiplicities are key's b-bit slots."""
    b = n.bit_length()
    parts = []
    for i in range(n, 0, -1):
        parts += [i] * ((key >> (b * i)) & ((1 << b) - 1))
    assert sum(parts) == n, (key, parts)
    return tuple(parts)

A4 = [[0, 6, 0, 0, 0],
      [1, 0, 1, 4, 0],
      [0, 2, 0, 0, 4],
      [0, 3, 0, 0, 3],
      [0, 0, 2, 4, 0]]


def test_a4_matrix(dense):
    assert dense(build_transition_matrix(4)) == A4


def test_a2_matrix(dense):
    assert dense(build_transition_matrix(2)) == [[0, 1], [1, 0]]


def test_single_entries_by_case(dense):
    # split a 2 of (2,1,1) into 1+1: source multiplicity of 1 is 2
    index = enumerate_partitions(4)
    m = dense(build_transition_matrix(4))
    assert m[index.rank[(1, 1, 1, 1)]][index.rank[(2, 1, 1)]] == 6
    # glue 2+2 of (2,2) into 4: source multiplicity of 4 is 0
    assert m[index.rank[(4,)]][index.rank[(2, 2)]] == 2


def test_raw_counts_211_row(dense):
    index = enumerate_partitions(4)
    raw = dense(build_raw_counts(4))
    row = raw[index.rank[(2, 1, 1)]]
    assert row[index.rank[(1, 1, 1, 1)]] == 1
    assert row[index.rank[(3, 1)]] == 4
    assert row[index.rank[(2, 2)]] == 1
    assert row[index.rank[(4,)]] == 0
    col = index.rank[(2, 1, 1)]
    assert raw[index.rank[(1, 1, 1, 1)]][col] == 6
    assert raw[index.rank[(3, 1)]][col] == 3
    assert raw[index.rank[(2, 2)]][col] == 2
    assert raw[index.rank[(4,)]][col] == 0


def test_formula_equals_raw_counts():
    for n in range(2, 11):
        assert matrix_equality_offenders(n) == []


def test_moves_equal_raw_count_rows():
    for n in range(2, 9):
        index = enumerate_partitions(n)
        P = _slot_powers(n)
        for t, row in zip(index, build_raw_counts(n)):
            cuts, joins = _moves(_key(t, P), P)
            got = {_shape(s, n): v for s, v in cuts + joins}
            assert len(got) == len(cuts) + len(joins), t  # one per target
            assert got == {index.ordered[s]: v for s, v in row}, t
            assert all(len(_shape(s, n)) == len(t) + 1 for s, _ in cuts), t
            assert all(len(_shape(s, n)) == len(t) - 1 for s, _ in joins), t
            assert _moves(_key(t, P), P, joins=False) == (cuts, []), t


def test_walk_rows_stay_in_band(monkeypatch):
    """At k = n - len(mu), and at k one larger, a join leaves no way back
    to 1^n, so the walk makes rows only for shapes no shorter than mu. At
    k = n - len(mu) every step must cut, so no row's joins are made; two
    steps more, some are."""
    made, joined = [], []

    def recording(key, P, joins=True):
        row = _moves(key, P, joins)
        made.append(_shape(key, len(P) - 1))
        joined.extend(row[1])
        return row

    monkeypatch.setattr(transition, "_moves", recording)
    for n in range(2, 10):
        for mu in enumerate_partitions(n):
            for k in (n - len(mu), n - len(mu) + 1, n - len(mu) + 2):
                made.clear()
                joined.clear()
                walk_row(mu, k)
                if k < n - len(mu) + 2:
                    assert all(len(t) >= len(mu) for t in made), (mu, k)
                if k == n - len(mu):
                    assert joined == [], mu
                if k == n - len(mu) + 2:
                    assert joined, mu


# n at either side of each point where the slot width b = n.bit_length()
# grows: 1^n fills slot 1 with n, and n = 2^b - 1 is the fullest a slot gets
WIDTH_EDGES = (7, 8, 15, 16, 31, 32, 63, 64)


@pytest.mark.parametrize("n", WIDTH_EDGES)
def test_walk_at_slot_width_edges(n):
    assert walk_row((1,) * n, 2) == comb(n, 2)
    assert walk_row((2, 2) + (1,) * (n - 4), 2) == 2


@pytest.mark.parametrize("n", (7, 8, 15, 16))
def test_single_cycle_walks_at_slot_width_edges(n):
    assert walk_row((n,), n - 1) == n ** (n - 2)  # Denes
    # two steps more pass through 1^n, so its row is made from its key
    assert walk_row((n,), n + 1) == count_goulden(n, n + 1)


@pytest.mark.parametrize("n", (15, 16))
def test_matrix_equals_raw_counts_at_slot_width_edge(n):
    assert build_transition_matrix(n) == build_raw_counts(n)


def test_raw_count_rows_sum_to_transposition_count():
    for n in range(2, 9):
        raw = build_raw_counts(n)
        assert row_sums(raw) == [comb(n, 2)] * len(raw)


def test_row_sums_and_bipartite():
    for n in range(2, 16):
        m = build_transition_matrix(n)
        assert row_sums(m) == [comb(n, 2)] * len(m)
        assert bipartite_offenders(n, m) == []


def test_sparse_rows_at_n30():
    m = build_transition_matrix(30)
    assert len(m) == 5604
    for row in m:
        assert all(v != 0 for _, v in row)
        cols = [j for j, _ in row]
        assert all(a < b for a, b in zip(cols, cols[1:]))
    assert row_sums(m) == [comb(30, 2)] * len(m)
    index = enumerate_partitions(30)
    for t, row in zip(index, m):
        for b, _ in row:
            assert abs(len(t) - len(index.ordered[b])) == 1


def test_matrix_power_apply():
    m = build_transition_matrix(4)
    e = [1, 0, 0, 0, 0]
    assert matrix_power_apply(m, 4, e) == [120, 0, 104, 108, 0]
    assert matrix_power_apply(m, 0, [5, 4, 3, 2, 1]) == [5, 4, 3, 2, 1]


def test_matrix_power_apply_takes_int_steps_only():
    # True once ran one step, and 1.5 raised TypeError from range
    m = build_transition_matrix(3)
    for k in (True, 1.5):
        with pytest.raises(ValueError, match=rf"^k must be a nonnegative "
                                             rf"int, got {k!r}$"):
            matrix_power_apply(m, k, [1, 0, 0])


def test_matrix_power_matches_pair_enumeration_s3():
    # count ordered pairs of transpositions in S_3 by hand
    taus = transpositions(3)
    tally = {}
    for t1, t2 in product(taus, repeat=2):
        g = compose(t1, t2)
        tally[g] = tally.get(g, 0) + 1
    assert tally[identity(3)] == 3
    assert tally[(1, 2, 0)] == 3  # a 3-cycle
    m = build_transition_matrix(3)
    assert matrix_power_apply(m, 2, [1, 0, 0]) == [3, 0, 3]


def test_eigen_relations_small():
    for n in range(2, 9):
        matrix, table = build_transition_matrix(n), build_character_table(n)
        assert eigen_mismatches(n, matrix, table) == []
        assert dual_eigen_mismatches(n, matrix, table) == []


def test_fault_injection_is_detected():
    n = 5
    m = build_transition_matrix(n)
    j, v = m[0][0]
    assert j == 1
    m[0][0] = (1, v + 1)  # flip entry (0, 1)
    bad = eigen_mismatches(n, m, build_character_table(n))
    assert bad, "a corrupted matrix must fail the eigen relations"
    # the offending row is the one that was corrupted
    index = enumerate_partitions(n)
    lam, nu = bad[0]
    assert nu in index.ordered and lam in index.ordered
    assert any(pair[1] == (1,) * n for pair in bad)


def test_needs_n_at_least_2():
    with pytest.raises(ValueError):
        build_transition_matrix(1)
    with pytest.raises(ValueError, match="n >= 2"):
        walk_row((1,), 0)
    with pytest.raises(ValueError, match="nonnegative"):
        walk_row((2,), -1)
    for k in (14.0, True):
        with pytest.raises(ValueError, match="int"):
            walk_row((6, 4, 2), k)
    with pytest.raises(ValueError):
        matrix_power_apply([[]], -1, [1])
    with pytest.raises(ValueError):
        matrix_power_apply([[], []], 1, [1])


@pytest.mark.parametrize("n", [2.5, 3.0, "3", True, 1])
def test_matrix_size_must_be_an_int_at_least_2(n):
    with pytest.raises(ValueError, match=r"int n >= 2"):
        build_transition_matrix(n)


@pytest.mark.parametrize("n", [2.5, 3.0, "3", True, 1])
def test_raw_count_size_must_be_an_int_at_least_2(n):
    with pytest.raises(ValueError, match=r"int n >= 2"):
        build_raw_counts(n)


def test_wrong_size_operands_are_rejected():
    # a matrix or table for another n is refused, not compared: the
    # comparison would pass, report bogus mismatches or die on an index
    a4, a5 = build_transition_matrix(4), build_transition_matrix(5)
    t4, t5 = build_character_table(4), build_character_table(5)
    for call in (lambda: bipartite_offenders(5, a4),
                 lambda: eigen_mismatches(4, matrix=a4, table=t5),
                 lambda: eigen_mismatches(5, matrix=a5, table=t4),
                 lambda: dual_eigen_mismatches(5, matrix=a4, table=t4),
                 lambda: eigen_mismatches(5, matrix=a4, table=t5),
                 lambda: dual_eigen_mismatches(5, matrix=a4, table=t5)):
        with pytest.raises(ValueError):
            call()
    assert bipartite_offenders(5, a5) == []
    assert eigen_mismatches(4, matrix=a4, table=t4) == []
    assert dual_eigen_mismatches(5, matrix=a5, table=t5) == []
