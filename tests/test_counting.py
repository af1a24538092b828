import inspect
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from permfact import characters
from permfact.characters import (CharacterTable, build_character_table,
                                 mn_character)
from permfact.cli import main
from permfact.counting import (ROUTES, count_spectral, count_matrix_method,
                               count_goulden, count_two_cycle,
                               two_cycle_terms, series_prefix,
                               SeriesPrefix, Expansion, spectral_expansion,
                               goulden_expansion, two_cycle_expansion)
from permfact.oracle import (count_brute, count_tuples, TUPLE_MAX_K,
                             TUPLE_MAX_N)
from permfact.partitions import enumerate_partitions, class_size, rho
from permfact.transition import build_transition_matrix, matrix_power_apply


def test_spectral_examples():
    assert count_spectral((3, 1), 4) == 108
    assert count_spectral((1, 1, 1, 1), 4) == 120
    assert count_spectral((2, 2), 4) == 104
    for n in range(2, 9):
        assert count_spectral((2,) + (1,) * (n - 2), 1) == 1


def test_matrix_method_examples():
    index = enumerate_partitions(4)
    vec = [count_matrix_method(mu, 4) for mu in index]
    assert vec == [120, 0, 104, 108, 0]
    for mu in index:
        assert count_matrix_method(mu, 0) == (1 if mu == (1, 1, 1, 1) else 0)


def test_matrix_walk_equals_full_power():
    """Every mu of n <= 9 at every k <= 14, so also k below n - len(mu)
    and k of the wrong parity, against A^k over all of P(n)."""
    for n in range(2, 10):
        index = enumerate_partitions(n)
        matrix = build_transition_matrix(n)
        e = [1] + [0] * (len(index) - 1)  # canonical order starts at 1^n
        for k in range(15):
            power = matrix_power_apply(matrix, k, e)
            for mu, entry in zip(index, power):
                assert count_matrix_method(mu, k) == entry, (mu, k)


def test_matrix_walk_wide_band():
    # k far past n - len(mu): nearly every shape of P(n) stays in the band
    for mu, k in [((10, 6), 80), ((12, 8, 4), 60), ((12, 8, 4), 61)]:
        assert count_matrix_method(mu, k) == count_spectral(mu, k)


def test_three_way_agreement_small(spectral_counts):
    for n in range(2, 8):
        for mu in enumerate_partitions(n):
            for k, s in enumerate(spectral_counts(mu, 6)):
                assert s == count_matrix_method(mu, k)
                assert s == count_brute(mu, k)


@st.composite
def _query(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    mu = draw(st.sampled_from(enumerate_partitions(n).ordered))
    return mu, draw(st.integers(min_value=0, max_value=10))


# deadline=None: the first draw at n = 7 builds the walk of S_7
@settings(max_examples=80, deadline=None)
@given(_query())
def test_every_route_agrees_through_api_and_cli(query):
    mu, k = query
    n = sum(mu)
    values = {"spectral": count_spectral(mu, k), "brute": count_brute(mu, k)}
    if n >= 2:
        values["matrix"] = count_matrix_method(mu, k)
    if len(mu) == 1:
        values["goulden"] = count_goulden(n, k)
    if len(mu) == 2:
        values["two-cycle"] = count_two_cycle(mu[0], mu[1], k)
    if n <= TUPLE_MAX_N and k <= TUPLE_MAX_K:
        values["tuples"] = count_tuples(mu, k)
    assert len(set(values.values())) == 1, values
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["count", "--mu", ",".join(map(str, mu)), "--k", str(k),
                     "--format", "json"])
    assert code == 0
    payload = json.loads(out.getvalue())
    assert (payload["n"], tuple(payload["mu"]), payload["k"]) == (n, mu, k)
    values.pop("tuples", None)  # the CLI has no tuple route
    assert payload["counts"] == {m: str(v) for m, v in values.items()}


def test_tuple_enumeration_spot_check():
    for n in range(2, 5):
        index = enumerate_partitions(n)
        for mu in index:
            for k in range(5):
                assert count_tuples(mu, k) == count_brute(mu, k)


def test_goulden_examples():
    assert count_goulden(3, 2) == 3
    for n in range(2, 9):
        for k in range(13):
            if (k - (n - 1)) % 2 == 1:
                assert count_goulden(n, k) == 0


def test_goulden_matches_spectral(spectral_counts):
    for n in range(1, 11):
        for k, s in enumerate(spectral_counts((n,), 20)):
            assert count_goulden(n, k) == s


def test_two_cycle_shape_values_match_recursion():
    """The closed-form terms carry the exact character data per shape."""
    for n in range(2, 11):
        table = build_character_table(n)
        for k_small in range(1, n // 2 + 1):
            m = n - k_small
            mu = (m, k_small)
            seen = set()
            for lam, chi_mu, chi_one, r in two_cycle_terms(m, k_small):
                assert lam not in seen, f"duplicate term for {lam}"
                seen.add(lam)
                assert chi_mu == mn_character(lam, mu)
                assert chi_one == table.row(lam)[0]
                assert r == rho(lam)
            # coverage: every shape with nonzero character appears
            for lam in enumerate_partitions(n):
                if mn_character(lam, mu) != 0:
                    assert lam in seen, f"{lam} missing from closed form"


def test_two_cycle_counts(spectral_counts):
    assert count_two_cycle(1, 1, 1) == 0
    assert count_two_cycle(1, 1, 2) == 1
    for n in range(2, 11):
        for k_small in range(1, n // 2 + 1):
            m = n - k_small
            for k, s in enumerate(spectral_counts((m, k_small), 12)):
                assert count_two_cycle(m, k_small, k) == s


def test_expansion_record():
    # c_k(1^3): chi^lam(1^3)^2 = 1, 4, 1 at rho = 3, 0, -3; a_-3 = a_3
    # is kept once, with sign (-1)^(3-3) = 1
    e = spectral_expansion((1, 1, 1))
    assert e == Expansion(n=3, sign=1, weights=((3, 1), (0, 4)))
    assert [e.at(k) for k in range(5)] == [1, 0, 3, 0, 27]
    assert Expansion.count is tuple.count  # c_k is at(k), not count(k)
    assert hash(e) == hash(Expansion(3, 1, ((3, 1), (0, 4))))
    with pytest.raises(AttributeError):
        e.n = 4
    with pytest.raises(AttributeError):
        e.terms = ()


def test_expansion_weights_are_grouped_by_eigenvalue():
    for n in range(1, 10):
        for mu in enumerate_partitions(n):
            e = spectral_expansion(mu)
            rs = [r for r, _ in e.weights]
            assert (e.n, e.sign) == (n, (-1) ** (n - len(mu)))
            assert rs == sorted(set(rs), reverse=True), mu
            assert all(r >= 0 for r in rs), mu
            assert all(a != 0 for _, a in e.weights), mu
    # far fewer distinct eigenvalues than shapes in the column, and one
    # weight per +-r pair
    assert len(spectral_expansion((20, 12, 8)).weights) == 124
    assert len(spectral_expansion((12, 9, 5, 4)).weights) == 205


def test_expansion_is_zero_off_parity():
    for n in range(1, 9):
        for mu in enumerate_partitions(n):
            e = spectral_expansion(mu)
            for k in range((n - len(mu) + 1) % 2, 17, 2):
                assert e.at(k) == 0, (mu, k)
                if n >= 2:
                    assert count_matrix_method(mu, k) == 0, (mu, k)


def test_closed_form_expansions_equal_spectral():
    """Equal expansions give equal counts at every k."""
    for n in range(1, 13):
        goulden = tuple((comb(n, 2) - n * i, comb(n - 1, i) * (-1) ** i)
                        for i in range(n) if comb(n, 2) >= n * i)
        assert goulden_expansion(n) == spectral_expansion((n,)) == \
            Expansion(n, (-1) ** (n - 1), goulden)
        for k_small in range(1, n // 2 + 1):
            mu = (n - k_small, k_small)
            assert two_cycle_expansion(*mu) == spectral_expansion(mu), mu


def test_route_expansions_evaluate_to_their_counts():
    # the closed-form checks read reason(mu, 0) and the expansion, so each
    # row's reason must not depend on k, and its expansion must give its
    # count at every k
    rows = {name: row for name, row in ROUTES.items() if row[2] is not None}
    assert list(rows) == ["spectral", "goulden", "two-cycle"]
    for name, (reason, count, expansion) in rows.items():
        for n in range(1, 9):
            for mu in enumerate_partitions(n):
                why = reason(mu, 0)
                assert all(reason(mu, k) == why for k in range(13)), name
                if why is None:
                    e = expansion(mu)
                    assert all(count(mu, k) == e.at(k)
                               for k in range(13)), (name, mu)


def test_character_values_must_be_ints():
    # a float or bool table once passed, and chartable wrote 1.0 or True
    table = build_character_table(4)
    with pytest.raises(ValueError, match="not float"):
        CharacterTable(table.index,
                       [[float(v) for v in row] for row in table.values])
    with pytest.raises(ValueError, match="not bool"):
        CharacterTable(enumerate_partitions(1), [[True]])


def test_exponents_and_sizes_must_be_ints():
    # floats and bools are usage errors: never a count, never reported
    # as a fault of the expansion sum
    for call in (lambda: count_spectral((4,), 5.0),
                 lambda: count_spectral((6, 4, 2), 14.0),
                 lambda: count_goulden(12, 31.0),
                 lambda: count_spectral((2, 1), True),
                 lambda: count_matrix_method((6, 4, 2), 14.0),
                 lambda: count_two_cycle(3, 1, 2.0),
                 lambda: series_prefix((3,), 2.0),
                 lambda: series_prefix((2, 1), True),
                 lambda: count_goulden(True, 1),
                 lambda: goulden_expansion(3.0),
                 lambda: count_two_cycle(True, 1, 2),
                 lambda: two_cycle_terms(2, True),
                 lambda: two_cycle_expansion(2.0, 1)):
        with pytest.raises(ValueError, match="int"):
            call()


def test_two_cycle_validation():
    with pytest.raises(ValueError):
        count_two_cycle(1, 2, 3)
    with pytest.raises(ValueError):
        count_two_cycle(3, 1, -1)


def test_series_prefix_examples():
    p = series_prefix((3,), 4)
    assert p.coefficients == (Fraction(0), Fraction(0), Fraction(3, 2),
                              Fraction(0))
    assert p.nonzero_parity == 0
    for n in range(2, 7):
        p = series_prefix((1,) * n, 6)
        assert p.coefficients[0] == 1  # empty product gives the identity
        assert p.coefficients[1] == 0


def test_series_prefix_record():
    # keyword fields, repr, value equality and hash, no assignment
    assert list(inspect.signature(SeriesPrefix).parameters) == \
        ["mu", "coefficients", "nonzero_parity"]
    p = SeriesPrefix(mu=(2,), coefficients=(Fraction(0), Fraction(1),
                                            Fraction(0)), nonzero_parity=1)
    assert repr(p) == ("SeriesPrefix(mu=(2,), coefficients=(Fraction(0, 1), "
                       "Fraction(1, 1), Fraction(0, 1)), nonzero_parity=1)")
    same = series_prefix((2,), 3)
    assert p == same and hash(p) == hash(same)
    assert p != series_prefix((2,), 4)
    # the parity is the expansion's sign, read by series_prefix
    assert series_prefix((1, 1), 1).nonzero_parity == 0
    with pytest.raises(AttributeError):
        p.mu = (1, 1)
    with pytest.raises(AttributeError):
        p.terms = 3


def test_series_parity_collapse():
    # series and counts read the same column terms;
    # test_character_column_is_table_support ties each column to the table
    for n in range(2, 9):
        for mu in enumerate_partitions(n):
            p = series_prefix(mu, 16)
            live = (n - len(mu)) % 2
            assert p.nonzero_parity == live
            for j, c in enumerate(p.coefficients):
                if j % 2 != live:
                    assert c == 0
                assert c * factorial(j) == count_spectral(mu, j)


def test_count_vanishing_pattern(spectral_counts):
    for n in range(2, 9):
        for mu in enumerate_partitions(n):
            dist = n - len(mu)
            for k, c in enumerate(spectral_counts(mu, 16)):
                if k < dist or (k - dist) % 2:
                    assert c == 0, (mu, k)
                else:
                    assert c > 0, (mu, k)


def test_mass_conservation(spectral_counts):
    for n in range(2, 8):
        index = enumerate_partitions(n)
        counts = [spectral_counts(mu, 10) for mu in index]
        for k in range(11):
            total = sum(class_size(mu) * c[k] for mu, c in zip(index, counts))
            assert total == comb(n, 2) ** k


def test_validation_errors(monkeypatch):
    with pytest.raises(ValueError, match="n >= 2"):
        count_matrix_method((1,), 0)
    with pytest.raises(ValueError, match="nonnegative"):
        count_matrix_method((2, 1), -1)
    with pytest.raises(ValueError):
        count_spectral((3, 1), -1)
    with pytest.raises(ValueError):
        count_spectral((1, 2), 3)
    with pytest.raises(ValueError):
        series_prefix((2, 1), 0)
    with pytest.raises(ValueError):
        count_spectral((True,), 0)
    with pytest.raises(ValueError):
        count_goulden(0, 1)
    table = build_character_table(4)
    with pytest.raises(ValueError):  # S_4's table without its row 0
        CharacterTable(table.index, table.values[1:])
    # chi^(2,2)(1^4) = 2 changed to 14
    values = [list(row) for row in table.values]
    values[2][0] = 14
    with pytest.raises(ValueError, match=r"\(2, 2\).*hook length formula"):
        CharacterTable(table.index, values)
    # column (4) with chi^(4) and chi^(1^4) swapped keeps both orthogonality
    # sums, but the k = 3 sum is -480, not a nonnegative multiple of 4!
    column = characters.character_column

    def swapped(mu):
        out = column(mu)
        if mu == (4,):
            out[(4,)], out[(1, 1, 1, 1)] = out[(1, 1, 1, 1)], out[(4,)]
        return out

    monkeypatch.setattr(characters, "character_column", swapped)
    with pytest.raises(RuntimeError, match="-480 is not a nonnegative"):
        count_spectral((4,), 3)
    with pytest.raises(RuntimeError, match="-24 is not a nonnegative"):
        series_prefix((4,), 4)


def test_column_path_checks_hook_dimensions(monkeypatch):
    hook = characters.dimension_hook_formula
    monkeypatch.setattr(characters, "dimension_hook_formula",
                        lambda lam: hook(lam) + (lam == (2, 1, 1)))
    # (2, 1, 1) is off the support of column (3, 1): the count is right
    assert count_spectral((3, 1), 2) == 3
    with pytest.raises(RuntimeError, match=r"column \(2, 2\) are not orth"):
        count_spectral((2, 2), 2)
    with pytest.raises(RuntimeError, match=r"column \(4,\) are not orth"):
        series_prefix((4,), 3)


def _mutation_never_silent(monkeypatch, target, name, mutant):
    """Every count at n <= 10 under the mutant is either the true count or
    a RuntimeError, and at least one mu raises."""
    cases = [(mu, k) for n in range(1, 11) for mu in enumerate_partitions(n)
             for k in (n - len(mu), n - len(mu) + 2)]
    truth = [count_spectral(mu, k) for mu, k in cases]
    monkeypatch.setattr(target, name, mutant)
    raised = 0
    for (mu, k), expect in zip(cases, truth):
        try:
            assert count_spectral(mu, k) == expect, (mu, k)
        except RuntimeError:
            raised += 1
    assert raised


def test_walk_with_flipped_height_one_sign_raises(monkeypatch):
    slides = characters._slides

    def flipped(mask, r):  # strips of height 1 count as even
        for larger, height in slides(mask, r):
            yield larger, height + (height == 1)

    _mutation_never_silent(monkeypatch, characters, "_slides", flipped)
    with pytest.raises(RuntimeError):
        count_spectral((2, 2), 2)


def test_walk_with_dropped_state_raises(monkeypatch):
    column = characters.character_column

    def dropped(mu):  # the first shape reached goes missing
        return dict(list(column(mu).items())[1:])

    _mutation_never_silent(monkeypatch, characters, "character_column", dropped)
    with pytest.raises(RuntimeError, match=r"squared norm"):
        count_spectral((3, 1), 2)


def test_two_cycle_ceiling_only_when_passed():
    # Denes: (n-2)! m^(m-2) s^(s-2) / ((m-1)! (s-1)!) minimal factorizations
    minimal = factorial(53) // (factorial(29) * factorial(24)) \
        * 30 ** 28 * 25 ** 23
    assert count_two_cycle(30, 25, 53) == minimal
    with pytest.raises(ValueError, match="ceiling 40"):
        count_two_cycle(30, 25, 53, max_n=40)


def test_column_route_past_brute_force_sizes():
    """Oracles that hold at any n, at sizes past brute force and tables."""
    mu = (10, 8, 6, 3, 2, 1)
    assert count_spectral(mu, 26) == count_matrix_method(mu, 26)
    assert count_spectral((60,), 61) == count_goulden(60, 61)
    assert count_spectral((40, 20), 60) == \
        count_two_cycle(40, 20, 60, max_n=60)
    # Denes: c_{n-l}(mu) = (n-l)! prod m^(m-2)/(m-1)!
    for mu in [(30, 20, 10), (12, 9, 5, 4)]:
        minimal = Fraction(factorial(sum(mu) - len(mu)))
        for m in mu:
            minimal *= Fraction(m ** (m - 2), factorial(m - 1))
        assert count_spectral(mu, sum(mu) - len(mu)) == minimal
