from math import comb

import pytest

from permfact.oracle import (identity, cycle_type, transpositions,
                             class_representative, walk_distributions,
                             count_brute, count_tuples, verify_cut_glue,
                             verify_class_invariance)
from permfact.partitions import enumerate_partitions


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
        assert verify_cut_glue(n)
    with pytest.raises(ValueError):
        verify_cut_glue(9)


def test_class_invariance():
    assert verify_class_invariance(4, 4)
    assert verify_class_invariance(5, 5)
    assert verify_class_invariance(3, 2)
    with pytest.raises(ValueError):
        verify_class_invariance(7, 2)


def test_class_invariance_value():
    # all eight 3-cycle-type elements of S_4 admit 108 factorizations
    elements, index, vecs = walk_distributions(4, 4)
    vals = {vecs[4][index[g]] for g in elements if cycle_type(g) == (3, 1)}
    assert vals == {108}
