import ast
import inspect
from bisect import insort
from itertools import permutations

import pytest

from permfact import (characters, counting, oracle, symfun, transition,
                      verify)
from permfact.cli import main
from permfact.characters import CharacterTable, build_character_table
from permfact.verify import (run_battery, check_dstar, check_two_cycle,
                             eigen_mismatches)
from permfact.transition import build_transition_matrix
from permfact.partitions import conjugate, enumerate_partitions


def test_quick_battery_passes():
    results = run_battery(deep=False)
    failures = [r for r in results if r.status != "PASS"]
    assert not failures, failures
    assert len(results) == 16


DEFAULT_REPORT = """\
rho-conjugation              PASS  n <= 12
parity-census                PASS  n <= 12
matrix-vs-raw                PASS  n <= 7
matrix-structure             PASS  n <= 12
eigen-relations              PASS  n <= 8
character-table              PASS  n <= 8
strip-recursion-vs-tableaux  PASS  n <= 6
strip-order-invariance       PASS  n <= 6
spectral-vs-matrix           PASS  matrix n <= 8 k <= 12, \
walk n <= 8 k in {n-l, n-l+2}, brute n <= 5 k <= 5
single-cycle-closed-form     PASS  n <= 8, every k
two-cycle-closed-form        PASS  n <= 8, every k
count-parity                 PASS  n <= 6, k <= 10; a_-r = (-1)^(n-l) a_r
mass-conservation            PASS  n <= 6, k <= 8
dual-bases                   PASS  n <= 8
omega-involution             PASS  n <= 5
diff-operator                PASS  n <= 8, every N >= n; \
raw operator n <= 5, N in {n+1, n+2}
16/16 checks passed
"""


def test_default_report_is_pinned(capsys):
    # the whole report, as CI pins the deep one: a dropped check or a
    # lowered default scale fails
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == DEFAULT_REPORT


def _seed(monkeypatch, fn, old, new):
    """fn, rebound on its module, with one phrase of its source replaced."""
    module = inspect.getmodule(fn)
    source = inspect.getsource(fn)
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(module, fn.__name__, namespace[fn.__name__])


def test_walk_joining_one_step_late_fails_the_count_check(monkeypatch):
    _seed(monkeypatch, transition.walk_row, "if length > need",
          "if length > need + 1")
    r = verify.check_counts_agree()
    assert (r.status, r.detail) == ("FAIL", "matrix (n=2, mu=(1, 1), k=2)")


def test_minimal_walk_reading_zero_fails_the_count_check(monkeypatch):
    _seed(monkeypatch, transition.walk_row, "len(mu) + k >= n",
          "len(mu) + k > n")
    r = verify.check_counts_agree()
    assert (r.status, r.detail) == ("FAIL", "matrix (n=2, mu=(1, 1), k=0)")


def test_strip_test_admitting_a_2x2_block_fails_the_tableau_check(
        monkeypatch):
    # (2, 2) filled with one label is a 2x2 block; admitted, it is a
    # tableau of height 1 and chi^(2,2)((4,)) = 0 reads -1
    _seed(monkeypatch, oracle._strip_extent, "outer[s] > inner[r] + 1",
          "False")
    assert verify.check_mn_vs_tableaux(n_max=3).status == "PASS"
    r = verify.check_mn_vs_tableaux(n_max=4)
    assert (r.status, r.detail) == ("FAIL", "((2, 2), (4,))")


def test_order_invariance_reads_each_composition_once(monkeypatch):
    calls = []
    mn = verify.mn_character
    monkeypatch.setattr(verify, "mn_character",
                        lambda lam, mu: calls.append((lam, mu)) or mn(lam, mu))
    assert verify.check_mn_order_invariance(n_max=7).status == "PASS"
    for n in range(2, 8):
        compositions = {order for mu in enumerate_partitions(n)
                        for order in permutations(mu)}
        assert len(compositions) == 2 ** (n - 1)
        for lam in enumerate_partitions(n):
            read = [mu for nu, mu in calls if nu == lam]
            assert sorted(read) == sorted(compositions), lam


def test_order_dependent_character_fails_order_invariance(monkeypatch):
    # one more wherever mu's parts are not sorted
    mn = verify.mn_character
    monkeypatch.setattr(verify, "mn_character", lambda lam, mu: mn(lam, mu) + (
        list(mu) != sorted(mu, reverse=True)))
    r = verify.check_mn_order_invariance()
    assert (r.status, r.detail) == ("FAIL", "((1, 1, 1), (2, 1))")


def test_a_row_added_to_the_table_is_compared(monkeypatch):
    # a route off by one everywhere: the count check names its row
    monkeypatch.setitem(counting.ROUTES, "dummy", (
        lambda mu, k: None, lambda mu, k: counting.count_spectral(mu, k) + 1,
        None))
    r = verify.check_counts_agree()
    assert (r.status, r.detail) == ("FAIL", "dummy (n=1, mu=(1,), k=0)")


def test_unpaired_weight_fails_the_parity_check(monkeypatch):
    # rho((3,)) read as 2 moves the weight of (3,) off the eigenvalue 3
    # that pairs it with (1, 1, 1) at -3. The two orthogonality sums of
    # column (2, 1) read no eigenvalue, so only the pairing, checked
    # where every expansion is built, can see it
    rho = counting.rho
    monkeypatch.setattr(counting, "rho",
                        lambda lam: 2 if lam == (3,) else rho(lam))
    with pytest.raises(RuntimeError, match="pairing"):
        counting.spectral_expansion((2, 1))
    with pytest.raises(RuntimeError, match="pairing"):
        verify.check_parity_vanishing(k_max=0)


@pytest.mark.parametrize("lam, value, detail", [
    # rho(lam') = -rho(lam) at lam = lam' is rho = 0: the zero eigenvalue
    # of each self-conjugate shape is checked there
    ((2, 1), 1, "(2, 1)"),
    # -3 left without its +3: the sorted rho are not the sorted -rho
    ((3,), 2, "(1, 1, 1)"),
], ids=["self-conjugate", "pairing"])
def test_changed_rho_fails_rho_conjugation(monkeypatch, lam, value, detail):
    rho = verify.rho
    monkeypatch.setattr(verify, "rho",
                        lambda nu: value if nu == lam else rho(nu))
    r = verify.check_rho_symmetries()
    assert (r.status, r.detail) == ("FAIL", detail)


def test_count_off_its_parity_fails_the_count_check(monkeypatch):
    # count-parity reads the live parity only; at(k) of the other
    # parity is compared with A^k and the other routes
    at = counting.Expansion.at
    monkeypatch.setattr(counting.Expansion, "at", lambda self, k: 1 if (
        (-1) ** (k % 2) != self.sign) else at(self, k))
    assert verify.check_parity_vanishing().status == "PASS"
    r = verify.check_counts_agree()
    assert (r.status, r.detail) == ("FAIL", "brute (n=1, mu=(1,), k=1)")


def test_changed_z_fails_dual_bases(monkeypatch):
    # z_(2,2) = 8 read as 16: the diagonal sum_lam chi^lam(mu)^2 is z_mu
    z_value = verify.z_value
    monkeypatch.setattr(verify, "z_value", lambda mu: z_value(mu) * (
        2 if mu == (2, 2) else 1))
    r = verify.check_dual_bases()
    assert (r.status, r.detail) == ("FAIL", "((2, 2), (2, 2))")


def test_changed_class_size_fails_eigen_relations(monkeypatch):
    # |C_(2,2)| = 3 read as 6: with A u = rho u, A^T w = rho w for
    # w = |C| chi gives the double counting |C_t| A[t][s] = |C_s| A[s][t];
    # matrix-vs-raw compares entries only, so it passes
    class_size = verify.class_size
    monkeypatch.setattr(verify, "class_size", lambda mu: class_size(mu) * (
        2 if mu == (2, 2) else 1))
    r = verify.check_eigen_relations()
    assert (r.status, r.detail) == \
        ("FAIL", "n=4: A^T w at ((1, 1, 1, 1), (2, 1, 1))")
    r = verify.check_mass_conservation()
    assert (r.status, r.detail) == ("FAIL", "(n=4, k=2)")
    assert verify.check_matrix_vs_raw().status == "PASS"


def test_seeded_fault_is_located():
    n = 6
    index = enumerate_partitions(n)
    m = build_transition_matrix(n)
    row, col = 3, 5
    assert col not in [j for j, _ in m[row]]  # entry (3, 5) is zero
    insort(m[row], (col, 1))
    bad = eigen_mismatches(n, m, build_character_table(n))
    assert bad
    # the corrupted row shows up as the offending class for some eigenvector
    assert any(nu == index.ordered[row] for _, nu in bad)


def test_crashed_check_fails_verify(monkeypatch, capsys):
    def broken(lam):
        raise ValueError("bug: bad partition")

    monkeypatch.setattr(verify, "rho", broken)  # rho-conjugation runs first
    assert main(["verify"]) != 0
    assert "checks passed" not in capsys.readouterr().out


def test_battery_counts_through_the_column_route(monkeypatch):
    # every column but 1^n negated keeps sum chi^2 and sum f chi, so the
    # column's own orthogonality checks pass and only the counts go wrong
    column = characters.character_column
    monkeypatch.setattr(characters, "character_column",
                        lambda mu: column(mu) if mu == (1,) * sum(mu) else
                        {lam: -chi for lam, chi in column(mu).items()})
    for check in (verify.check_counts_agree, verify.check_goulden,
                  verify.check_two_cycle, verify.check_parity_vanishing,
                  verify.check_mass_conservation):
        try:
            status = check().status
        except RuntimeError:
            continue
        assert status == "FAIL", check.__name__


def test_battery_reads_no_private_name_of_another_module():
    tree = ast.parse(inspect.getsource(verify))
    # names bound by `from . import x` and `from .x import y`, and the
    # attributes read off them
    names = [a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level
             for a in node.names]
    read = [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in names]
    assert not [name for name in names + read if name.startswith("_")]


def test_individual_checks_report_scales():
    r = check_dstar(n_max=2)
    assert r.status == "PASS"
    assert "n <= 2" in r.detail
    r = check_two_cycle(n_max=6)
    assert (r.status, r.detail) == ("PASS", "n <= 6, every k")


def test_changed_two_cycle_weight_fails_its_check(monkeypatch):
    terms = counting.two_cycle_terms

    def seed(scale, extra):
        # every dimension of the (4, 2) closed form times scale, and the
        # first one plus extra
        def changed(m, k_small):
            out = terms(m, k_small)
            if (m, k_small) == (4, 2):
                out = [(lam, chi, scale * dim, r) for lam, chi, dim, r in out]
                lam, chi, dim, r = out[0]
                out[0] = (lam, chi, dim + extra, r)
            return out

        monkeypatch.setattr(counting, "two_cycle_terms", changed)

    # one dimension off by one changes one weight and not its pair
    seed(1, 1)
    with pytest.raises(RuntimeError, match="pairing"):
        verify.check_two_cycle(n_max=8)
    # every dimension doubled keeps the pairing: only the comparison sees it
    seed(2, 0)
    r = verify.check_two_cycle(n_max=8)
    assert (r.status, r.detail) == ("FAIL", "mu=(4, 2)")


def test_changed_single_cycle_weight_fails_its_check(monkeypatch):
    # the top weight of (4,) off by 4! keeps every count an integer
    goulden = counting.goulden_expansion

    def changed(n):
        expansion = goulden(n)
        if n == 4:
            (r, a), *rest = expansion.weights
            expansion = counting.Expansion(4, expansion.sign,
                                           ((r, a + 24), *rest))
        return expansion

    monkeypatch.setattr(counting, "goulden_expansion", changed)
    r = verify.check_goulden(n_max=8)
    assert (r.status, r.detail) == ("FAIL", "mu=(4,)")


def _changed_table(monkeypatch, n, change):
    """verify's build_character_table, with change applied to the value
    lists of S_n's table."""
    build = verify.build_character_table

    def changed(m):
        table = build(m)
        if m != n:
            return table
        values = [list(row) for row in table.values]
        change(table.index, values)
        return CharacterTable(table.index, values)

    monkeypatch.setattr(verify, "build_character_table", changed)


def test_conjugation_fault_fails_both_checks_that_read_it(monkeypatch):
    # chi^(1^4)((2, 2)) = 1 negated: both checks read one comparison
    def negate(index, values):
        values[0][index.position((2, 2))] *= -1

    _changed_table(monkeypatch, 4, negate)
    assert verify.check_character_table(n_max=5).status == "FAIL"
    r = verify.check_omega(n_max=5)
    assert (r.status, r.detail) == ("FAIL", "(1, 1, 1, 1)")


def test_swapped_rows_fail_only_the_conjugation_clause(monkeypatch):
    # (5, 1) and (3, 3) both have dimension 5 and are not conjugate: the
    # swap keeps orthogonality and hook dimensions
    def swap(index, values):
        a, b = index.position((5, 1)), index.position((3, 3))
        values[a], values[b] = values[b], values[a]

    _changed_table(monkeypatch, 6, swap)
    r = verify.check_character_table(n_max=6)
    assert (r.status, r.detail) == \
        ("FAIL", "conjugation at ((2, 1, 1, 1, 1), (2, 1, 1, 1, 1))")
    r = verify.check_omega(n_max=6)
    assert (r.status, r.detail) == ("FAIL", "(2, 1, 1, 1, 1)")


def test_dimension_changed_with_the_hook_formula_fails_dual_bases(
        monkeypatch):
    # chi^(2, 1)(1^3) read as 3 by the table and the hook formula alike:
    # Burnside's sum_lam dim(lam)^2 = n! is dual-bases' (1^n, 1^n) entry
    table = build_character_table(3)
    values = [list(row) for row in table.values]
    values[table.index.position((2, 1))][0] += 1
    hook = characters.dimension_hook_formula
    monkeypatch.setattr(characters, "dimension_hook_formula",
                        lambda lam: hook(lam) + (lam == (2, 1)))
    changed = CharacterTable(table.index, values)
    build = verify.build_character_table
    monkeypatch.setattr(verify, "build_character_table",
                        lambda m: changed if m == 3 else build(m))
    r = verify.check_dual_bases()
    assert (r.status, r.detail) == ("FAIL", "((1, 1, 1), (1, 1, 1))")


def test_orthogonality_fault_is_reported(monkeypatch):
    # one off-diagonal character value of S_4 changed by 1
    def bump(index, values):
        values[1][2] += 1

    _changed_table(monkeypatch, 4, bump)
    r = verify.check_character_table(n_max=5)
    assert (r.status, r.detail) == \
        ("FAIL", "conjugation at ((2, 1, 1), (2, 2))")
    r = verify.check_dual_bases(n_max=5)
    assert (r.status, r.detail) == ("FAIL", "((1, 1, 1, 1), (2, 2))")


def test_mutated_strip_walk_fails_dual_bases(monkeypatch):
    slides = characters._slides

    def flipped(mask, r):  # strips of height 1 count as even
        for larger, height in slides(mask, r):
            yield larger, height + (height == 1)

    monkeypatch.setattr(characters, "_slides", flipped)
    r = verify.check_dual_bases(n_max=5)
    assert (r.status, r.detail) == ("FAIL", "((1, 1), (2,))")


def test_conjugated_shape_decoding_is_caught(monkeypatch):
    # the table looks shapes up by mask, so only the count column decodes
    # them: every count check reads the column under conjugated labels
    shape = characters._shape
    monkeypatch.setattr(characters, "_shape",
                        lambda mask: conjugate(shape(mask)))
    for check in (verify.check_counts_agree, verify.check_parity_vanishing,
                  verify.check_mass_conservation):
        with pytest.raises(RuntimeError):
            check()
    assert verify.check_goulden() == ("single-cycle-closed-form", "FAIL",
                                      "mu=(2,)")
    assert verify.check_two_cycle() == ("two-cycle-closed-form", "FAIL",
                                        "mu=(2, 1)")
    assert verify.check_dual_bases().status == "PASS"


def test_dimension_fault_is_reported(monkeypatch):
    # every table build compares the hook formula, so the battery raises
    # at the first check that builds S_4's table
    hook = characters.dimension_hook_formula
    monkeypatch.setattr(characters, "dimension_hook_formula",
                        lambda lam: hook(lam) + (lam == (2, 1, 1)))
    for run in (lambda: verify.check_character_table(n_max=5), run_battery):
        with pytest.raises(RuntimeError, match=r"dimension of \(2, 1, 1\)"):
            run()


def test_dstar_faults_are_located(monkeypatch):
    # D m_31 holds 12 m_211 at n = 4; 14 instead breaks K D = diag K there
    rows = symfun.dstar_rows

    def changed(n):
        out = rows(n)
        if n == 4:
            at = out[3].index((1, 12))  # row (3, 1), column (2, 1, 1)
            out[3][at] = (1, 14)
        return out

    monkeypatch.setattr(symfun, "dstar_rows", changed)
    r = check_dstar(n_max=5)
    assert (r.status, r.detail) == \
        ("FAIL", "eigenfunction (n=4) at ((3, 1), (2, 1, 1))")


def test_dstar_dropped_pair_is_caught(monkeypatch):
    # the raw operator loses the (0, 1) quotient; the rows do not
    divide = oracle._divide_by_difference
    monkeypatch.setattr(oracle, "_divide_by_difference",
                        lambda g, i, j: {} if (i, j) == (0, 1)
                        else divide(g, i, j))
    r = check_dstar(n_max=3)
    assert (r.status, r.detail) == ("FAIL", "raw operator (n=1, N=2) at (1,)")


def test_dstar_pours_once_per_n(monkeypatch):
    # K and the power-sum clause read one R per n
    calls = []
    pour = symfun.pour_rows
    monkeypatch.setattr(symfun, "pour_rows",
                        lambda n: calls.append(n) or pour(n))
    assert check_dstar(n_max=6).status == "PASS"
    assert calls == [1, 2, 3, 4, 5, 6]


def test_kostka_rejects_one_changed_table_value():
    # the first column is the hook formula, which CharacterTable checks
    for n in (3, 4):
        table, pour = build_character_table(n), symfun.pour_rows(n)
        for r in range(len(table.index)):
            for c in range(1, len(table.index)):
                for delta in (1, -1):
                    values = [list(row) for row in table.values]
                    values[r][c] += delta
                    changed = CharacterTable(table.index, values)
                    with pytest.raises(RuntimeError, match="Kostka number"):
                        symfun.kostka_rows(changed, pour)


def test_kostka_rejects_a_pour_of_another_size():
    # too short once read an index past its end; too long blamed the table
    table = build_character_table(4)
    for m, rows in ((3, 3), (5, 7)):
        with pytest.raises(ValueError, match=rf"{rows} rows, not p\(4\) = 5"):
            symfun.kostka_rows(table, symfun.pour_rows(m))
