import inspect
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from permfact import characters
from permfact.characters import (mn_character, dimension_hook_formula,
                                 build_character_table, character_column)
from permfact.oracle import BorderStripTableau, enumerate_bst, bst_signed_count
from permfact.partitions import enumerate_partitions, conjugate, z_value


def test_trivial_and_sign_rows():
    for n in range(1, 9):
        index = enumerate_partitions(n)
        for mu in index:
            assert mn_character((n,), mu) == 1
            assert mn_character((1,) * n, mu) == (-1) ** (n - len(mu))


def test_single_cycle_column_hooks_only():
    for n in range(2, 10):
        for lam in enumerate_partitions(n):
            chi = mn_character(lam, (n,))
            if len(lam) == 1 or lam[1] == 1:  # hook
                assert chi == (-1) ** (len(lam) - 1)
            else:
                assert chi == 0


def test_character_table_n3():
    table = build_character_table(3)
    assert table.values == ((1, -1, 1), (2, 0, -1), (1, 1, 1))


def test_mn_size_mismatch():
    with pytest.raises(ValueError):
        mn_character((2, 1), (2, 2))
    with pytest.raises(ValueError):
        enumerate_bst((2, 1), (4,))


@pytest.mark.parametrize("call, part", [
    (lambda: mn_character((2, 1, 1), (2, -1, 3)), "-1"),
    (lambda: mn_character((4,), (5, -1)), "-1"),
    (lambda: mn_character((3, 1), (True, 3)), "True"),
    (lambda: mn_character((4,), (4, 0)), "0"),
    (lambda: mn_character((3,), (1.0, 2)), "1.0"),
    (lambda: enumerate_bst((2, 1), (2, 1, 0)), "0"),
    (lambda: enumerate_bst((2, 1), (True, 2)), "True"),
])
def test_malformed_cycle_types_are_rejected(call, part):
    with pytest.raises(ValueError, match=rf"^invalid part {part} in "):
        call()


def test_cycle_type_parts_in_any_order():
    # the part check must not reject an unsorted mu
    assert mn_character((2, 2), (1, 2, 1)) == mn_character((2, 2), (2, 1, 1))
    assert bst_signed_count((2, 1), (1, 2)) == mn_character((2, 1), (2, 1))


def test_bst_examples():
    assert enumerate_bst((2, 2), (4,)) == []
    tabs = enumerate_bst((2, 1), (1, 1, 1))
    assert len(tabs) == 2
    assert all(t.height + t.width + len(t.content) == 3 for t in tabs)
    assert bst_signed_count((2, 1), (1, 1, 1)) == 2


def test_bst_record():
    # keyword fields, repr, value equality and hash, sign, no assignment
    assert list(inspect.signature(BorderStripTableau).parameters) == \
        ["shape", "content", "filling", "height", "width"]
    flat = BorderStripTableau(shape=(2, 1), content=(2, 1),
                              filling=((1, 1), (2,)), height=0, width=1)
    assert repr(flat) == ("BorderStripTableau(shape=(2, 1), content=(2, 1), "
                          "filling=((1, 1), (2,)), height=0, width=1)")
    tabs = enumerate_bst((2, 1), (2, 1))
    assert tabs[0] == flat and hash(tabs[0]) == hash(flat)
    assert tabs[1] != flat
    assert (flat.sign(), tabs[1].sign()) == (1, -1)
    with pytest.raises(AttributeError):
        flat.height = 1
    with pytest.raises(AttributeError):
        flat.sign_cache = 1


def test_bst_cells_identity_and_match_recursion():
    for n in range(1, 8):
        index = enumerate_partitions(n)
        for lam in index:
            for mu in index:
                tabs = enumerate_bst(lam, mu)
                for t in tabs:
                    assert t.height + t.width + len(mu) == n
                    # content counts respected
                    flat = [v for row in t.filling for v in row]
                    assert sorted(flat) == [i + 1 for i, p in enumerate(mu)
                                            for _ in range(p)]
                assert sum(t.sign() for t in tabs) == mn_character(lam, mu)


def test_bst_ceiling():
    with pytest.raises(ValueError):
        enumerate_bst((9,), (9,))


def test_dimension_examples():
    assert dimension_hook_formula((2, 1)) == 2
    for n in range(1, 11):
        for b in range(n):
            a = n - b
            assert dimension_hook_formula((a,) + (1,) * b) == comb(n - 1, b)


def test_dimension_computed_once_per_shape(monkeypatch):
    hooked = []
    hooks = characters.hook_lengths

    def counted(lam):
        hooked.append(lam)
        return hooks(lam)

    monkeypatch.setattr(characters, "hook_lengths", counted)
    characters._dimension.cache_clear()
    for lam in [(3, 1), [3, 1], (2, 2), (3, 1), (2, 2)]:
        dimension_hook_formula(lam)
    assert hooked == [(3, 1), (2, 2)]
    # the shape is checked before the memo is read
    for lam in [(1, 3), (3, 0), (True, 1), (2.0, 1), ()]:
        with pytest.raises(ValueError):
            dimension_hook_formula(lam)
    assert hooked == [(3, 1), (2, 2)]


def test_dimension_two_hook_shapes():
    # shapes (a, c+1, 2^d, 1^(b-d-1)): multinomial closed form
    for a, b, c, d in [(2, 1, 1, 0), (3, 2, 1, 0), (3, 2, 2, 1), (4, 3, 2, 1),
                       (5, 2, 1, 1), (4, 4, 3, 2)]:
        n = a + b + c + d
        lam = tuple(sorted((a, c + 1) + (2,) * d + (1,) * (b - d - 1),
                           reverse=True))
        expect = (factorial(n) // (factorial(a) * factorial(b)
                                   * factorial(c) * factorial(d))
                  * a * c * (a - c) * (b - d)
                  // ((a + b) * (a + d) * (b + c) * (c + d)))
        assert dimension_hook_formula(lam) == expect


def test_builder_dimension_fault_is_a_runtime_error(monkeypatch):
    # the builder's own table failing the hook check is its fault, not
    # bad input, so it is not the ValueError a caller's table gets
    hook = characters.dimension_hook_formula
    monkeypatch.setattr(characters, "dimension_hook_formula",
                        lambda lam: hook(lam) + (lam == (2, 1, 1)))
    build_character_table(3)
    with pytest.raises(RuntimeError, match=r"dimension of \(2, 1, 1\)"):
        build_character_table(4)


def test_first_column_and_burnside():
    for n in range(1, 13):
        table = build_character_table(n)
        index = enumerate_partitions(n)
        for pos, lam in enumerate(index):
            assert table.values[pos][0] == dimension_hook_formula(lam)
        assert sum(row[0] ** 2 for row in table.values) == factorial(n)


def test_character_column_is_table_support():
    for n in range(1, 13):
        table = build_character_table(n)
        for at, mu in enumerate(table.index):
            support = {lam: row[at] for lam, row
                       in zip(table.index, table.values) if row[at]}
            assert character_column(mu) == support, mu


def test_column_state_cap(monkeypatch):
    characters._mn_column.cache_clear()
    monkeypatch.setattr(characters, "COLUMN_MAX_STATES", 5)
    assert len(character_column((4,))) == 4
    with pytest.raises(ValueError, match=r"COLUMN_MAX_STATES = 5$"):
        character_column((1,) * 6)
    assert mn_character((2, 2), (2, 1, 1)) == 0
    # mn_character names mu as given, the order it walks and keeps
    with pytest.raises(ValueError, match=r"of \(1, 2, 1, 1, 1\) .* "
                       r"COLUMN_MAX_STATES = 5$"):
        mn_character((2, 2, 2), (1, 2, 1, 1, 1))


def test_mn_character_walks_one_column_per_mu():
    characters._mn_column.cache_clear()
    mu = (4, 3, 3, 1, 1)
    assert [mn_character(lam, mu) for lam in enumerate_partitions(12)] == \
        [character_column(mu).get(lam, 0) for lam in enumerate_partitions(12)]
    assert characters._mn_column.cache_info().misses == 1


def test_orthogonality_exact():
    for n in range(1, 10):
        table = build_character_table(n)
        index = enumerate_partitions(n)
        nfact = factorial(n)
        weights = [nfact // z_value(nu) for nu in index]
        size = len(index)
        for a in range(size):
            for b in range(a, size):
                dot = sum(weights[i] * table.values[a][i] * table.values[b][i]
                          for i in range(size))
                assert dot == (nfact if a == b else 0)


def test_conjugation_symmetry():
    for n in range(1, 11):
        table = build_character_table(n)
        index = enumerate_partitions(n)
        for lam in index:
            row = table.row(lam)
            conj_row = table.row(conjugate(lam))
            for pos, nu in enumerate(index):
                assert conj_row[pos] == (-1) ** (n - len(nu)) * row[pos]


@settings(max_examples=60)
@given(st.data())
def test_mn_order_invariance(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    index = enumerate_partitions(n)
    lam = data.draw(st.sampled_from(index.ordered))
    mu = data.draw(st.sampled_from(index.ordered))
    shuffled = data.draw(st.permutations(mu))
    assert mn_character(lam, tuple(shuffled)) == mn_character(lam, mu)


def test_dual_basis_pairing():
    for n in range(1, 9):
        table = build_character_table(n)
        index = enumerate_partitions(n)
        for lam in index:
            for mu in index:
                dot = sum(Fraction(a * b, z_value(nu)) for a, b, nu
                          in zip(table.row(lam), table.row(mu), index))
                assert dot == (1 if lam == mu else 0)
