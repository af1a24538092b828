from collections import Counter
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from permfact import partitions
from permfact.partitions import (enumerate_partitions, conjugate, z_value,
                                 class_size, rho, hook_lengths,
                                 check_partition, PartitionIndex)
from permfact.verify import parity_census


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                         min_size=n, max_size=n))
    counts = Counter(bins)
    return tuple(sorted(counts.values(), reverse=True))


@lru_cache(maxsize=None)
def _count_partitions(n, max_part):
    """Independent counting oracle: p(n) with parts bounded by max_part."""
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    total = 0
    part = min(n, max_part)
    while part >= 1:
        total += _count_partitions(n - part, part)
        part -= 1
    return total


def test_canonical_order_n4():
    assert list(enumerate_partitions(4)) == [
        (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]


def test_single_partition():
    assert list(enumerate_partitions(1)) == [(1,)]


def test_partition_counts_match_independent_oracle():
    for n in range(1, 16):
        assert len(enumerate_partitions(n)) == _count_partitions(n, n)
    assert len(enumerate_partitions(10)) == 42


def test_rank_is_bijective():
    index = enumerate_partitions(9)
    assert sorted(index.rank.values()) == list(range(len(index)))
    for lam in index:
        assert index.position(lam) == index.rank[lam]


def test_bounds_errors():
    with pytest.raises(ValueError):
        PartitionIndex(0)
    with pytest.raises(ValueError):
        PartitionIndex(True)
    assert len(PartitionIndex(21)) == 792
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((3, 0))
    with pytest.raises(ValueError):
        check_partition((True,))


class _Part(int):
    """An int subclass: accepted as a part, like any int but bool."""


@pytest.mark.parametrize("lam, part", [
    ((True,), True), ((2, False), False), ((2.0,), 2.0), ((3, 1.0), 1.0),
    ((3, 0), 0), ((2, -1), -1), ((_Part(0),), 0), (("2",), "2"),
])
def test_check_partition_rejects_each_part_type_alike(lam, part):
    for ordered in (True, False):
        with pytest.raises(ValueError) as info:
            check_partition(lam, ordered=ordered)
        assert str(info.value) == f"invalid part {part!r} in {lam}"


def test_check_partition_accepts_int_subclass_parts():
    lam = check_partition((_Part(3), 1, _Part(1)))
    assert lam == (3, 1, 1) and type(lam[0]) is _Part
    assert check_partition([1, _Part(2)], ordered=False) == (1, 2)
    with pytest.raises(ValueError) as info:
        check_partition((1, _Part(2)))
    assert str(info.value) == "parts not weakly decreasing: (1, 2)"
    with pytest.raises(ValueError) as info:
        check_partition(())
    assert str(info.value) == "partition must be nonempty"


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((4, 4, 4, 4)) == (4, 4, 4, 4)


def test_z_value_examples():
    assert z_value((2, 1, 1)) == 4
    assert z_value((1, 1, 1, 1)) == 24
    assert class_size((3, 1)) == 8


def test_class_size_raises_on_a_wrong_z(monkeypatch):
    # z = 5 does not divide 4!: a raise, not an assert that -O strips
    monkeypatch.setattr(partitions, "z_value", lambda lam: 5)
    with pytest.raises(RuntimeError, match="does not divide"):
        class_size((3, 1))


def test_rho_examples():
    assert rho((4,)) == 6
    assert rho((1, 1, 1, 1)) == -6
    assert rho((2, 1)) == 0


def test_rho_accepts_the_same_sequences():
    def by_cells(parts):
        return sum(c - r for r, p in enumerate(parts) for c in range(p))

    for parts in ((4,), [3, 1], [2, 2, 1], (True,), (True, True), [2, 0],
                  (1, 2), (), range(3, 0, -1)):
        assert rho(parts) == by_cells(parts), parts
    assert rho([3, 1]) == rho((3, 1)) == 2
    # a cached int shape does not answer for equal float parts
    assert rho((2,)) == 1
    with pytest.raises(TypeError):
        rho((2.0,))
    with pytest.raises(RuntimeError):
        rho((-1,))


def test_rho_checks_each_shape_once():
    lam = (9, 7, 7, 2, 1, 1)
    rho(lam)
    before = partitions._rho.cache_info()
    assert rho(list(lam)) == rho(lam) == rho(lam[:-1] + (True,))
    after = partitions._rho.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)


def test_rho_hook_closed_form():
    # hook with arm a and leg b: (n^2 - n)/2 - n*b
    for a in range(1, 10):
        for b in range(0, 8):
            n = a + b
            lam = (a,) + (1,) * b
            assert rho(lam) == (n * n - n) // 2 - n * b


def test_rho_symmetries_up_to_15():
    for n in range(1, 16):
        bound = comb(n, 2)
        for lam in enumerate_partitions(n):
            r = rho(lam)
            assert rho(conjugate(lam)) == -r
            if lam == conjugate(lam):
                assert r == 0
            assert abs(r) <= bound
            assert (abs(r) == bound) == (lam in {(n,), (1,) * n})


def test_hook_lengths_examples():
    assert sorted(hook_lengths((2, 1))) == [1, 1, 3]
    assert sorted(hook_lengths((5,))) == [1, 2, 3, 4, 5]
    prod = 1
    for h in hook_lengths((3, 1)):
        prod *= h
    assert prod == 8
    assert factorial(4) // prod == len(_standard_tableaux((3, 1)))


def _standard_tableaux(lam):
    """Brute-force standard Young tableaux of shape lam."""
    n = sum(lam)
    results = []

    def grow(filled, num):
        if num > n:
            results.append(tuple(filled))
            return
        for r in range(len(lam)):
            c = len([x for x in filled if x[0] == r])
            if c < lam[r] and (r == 0 or (r - 1, c) in filled):
                grow(filled | {(r, c)}, num + 1)

    grow(frozenset(), 1)
    return results


def test_standard_tableaux_oracle_sane():
    assert len(_standard_tableaux((2, 1))) == 2
    assert len(_standard_tableaux((2, 2))) == 2


def test_parity_census():
    assert parity_census(1) == (0, 1, 1)
    assert parity_census(4) == (3, 2, 1)
    for n in range(1, 16):
        evens, odds, self_conj = parity_census(n)
        # recount from scratch
        index = enumerate_partitions(n)
        assert evens == sum(1 for lam in index if len(lam) % 2 == 0)
        assert odds == sum(1 for lam in index if len(lam) % 2 == 1)
        assert self_conj == sum(1 for lam in index if lam == conjugate(lam))
        assert evens - odds == (-1) ** n * self_conj


@given(partition_strategy())
def test_conjugate_is_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


@given(partition_strategy())
def test_z_times_class_size(lam):
    assert z_value(lam) * class_size(lam) == factorial(sum(lam))


@given(partition_strategy())
def test_hook_lengths_count_and_content(lam):
    hooks = hook_lengths(lam)
    assert len(hooks) == sum(lam)
    assert all(h >= 1 for h in hooks)
    # rho recomputed cell by cell agrees (rho itself cross-checks already)
    assert rho(lam) == sum(c - r for r, p in enumerate(lam) for c in range(p))
