"""The routes' agreement past tier-1's sizes, the deep battery's report and
the benchmark's workloads, each check in a child process that fails on a
nonzero exit or past its time limit. Tier-1 collects only test_*.py; run
`PYTHONPATH=src python -m pytest -q tests/scale_checks.py`."""
import csv
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from permfact.characters import mn_character
from permfact.counting import ROUTES, spectral_expansion
from permfact.oracle import (bst_signed_count, class_representative,
                             walk_distributions)
from permfact.partitions import class_size, enumerate_partitions
from permfact.transition import build_transition_matrix
from permfact.verify import check_census, check_dstar, check_rho_symmetries

ROOT = Path(__file__).parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
    str(ROOT / "src"), os.getenv("PYTHONPATH")))))


def run(*args, limit=60):
    """The stdout bytes of `python args` with src importable, under limit."""
    return subprocess.run([sys.executable, *args], env=ENV, check=True,
                          stdout=subprocess.PIPE, timeout=limit).stdout


permfact = functools.partial(run, "-m", "permfact.cli")


DEEP_REPORT = """\
rho-conjugation              PASS  n <= 15
parity-census                PASS  n <= 15
matrix-vs-raw                PASS  n <= 10
matrix-structure             PASS  n <= 15
eigen-relations              PASS  n <= 12
character-table              PASS  n <= 12
strip-recursion-vs-tableaux  PASS  n <= 8
strip-order-invariance       PASS  n <= 9
spectral-vs-matrix           PASS  matrix n <= 12 k <= 30, walk n <= 10 k in {n-l, n-l+2}, brute n <= 7 k <= 7
single-cycle-closed-form     PASS  n <= 10, every k
two-cycle-closed-form        PASS  n <= 10, every k
count-parity                 PASS  n <= 8, k <= 16; a_-r = (-1)^(n-l) a_r
mass-conservation            PASS  n <= 7, k <= 10
dual-bases                   PASS  n <= 12
omega-involution             PASS  n <= 6
diff-operator                PASS  n <= 12, every N >= n; raw operator n <= 5, N in {n+1, n+2}
16/16 checks passed
"""


def test_deep_battery_report():
    # the whole report, so a dropped check or a lowered scale fails too
    assert permfact("verify", "--deep").decode() == DEEP_REPORT


# Tracing wraps each module's functions once they are loaded. The CLI
# imports each route inside its subcommand and the package binds a
# name on first read, so both must still reach the wrappers.
@pytest.mark.parametrize("workload", [
    "matrix-reach", "matrix-reach --trace 1", "cold-count", "warm-series",
    "crosscheck", "cold-count --trace 1", "crosscheck --trace 1"])
def test_workload_answers_correctly(workload):
    # every answer of one second of the workload against its checks
    out = run(str(ROOT / "perfbench" / "run.py"), "--workload",
              *workload.split(), "--seed", "1", "--seconds", "1", limit=300)
    assert json.loads(out.splitlines()[-1])["correct"] is True


def test_character_table_at_20_is_byte_stable():
    # the whole 627 x 627 table, against its recorded digest
    out = permfact("chartable", "--n", "20", "--format", "csv")
    assert hashlib.sha256(out).hexdigest() == \
        "2582e35bf0eec2b52a4fe2c6d576e5862532b14af5622ddc11be5a4a252bfb19"


# the spectral count against the two-cycle closed form: at n = 60 over
# its support, and past 4,300 digits, the interpreter's default limit on
# int -> str conversion (c_10001 of (30,10) is 0 by parity, so k = 10000)
@pytest.mark.parametrize("mu, k, max_n, digits", [
    ("40,20", "60", "60", 1), ("30,10", "10000", "40", 4301)])
def test_spectral_count_against_two_cycle(mu, k, max_n, digits):
    spectral, closed = (
        permfact("count", "--mu", mu, "--k", k, "--max-n", max_n, "--method",
                 method, "--format", "csv").decode().splitlines()[-1]
        .removeprefix(method + ",") for method in ("spectral", "two-cycle"))
    assert spectral == closed and len(spectral) >= digits


def test_count_zero_by_parity_is_instant():
    # n - l = 13 is odd, so c_k of (8,5,3) vanishes at every even k;
    # the expansion answers off its parity with no sum
    assert permfact("count", "--mu", "8,5,3", "--k", "1000000", "--max-n",
                    "16", "--method", "spectral", limit=10) == \
        b"c_1000000(8+5+3) [spectral] = 0\n"


def child_closed_form_expansions_at_60_equal_spectral():
    # so counts agree at every k
    for mu, names in (((40, 20), {"two-cycle"}), ((30, 30), {"two-cycle"}),
                      ((60,), {"goulden"})):
        ran = set()
        for name, (reason, _, expansion) in ROUTES.items():
            if name != "spectral" and expansion and reason(mu, 0) is None:
                assert expansion(mu) == spectral_expansion(mu), (name, mu)
                ran.add(name)
        assert ran == names, (mu, ran)


def child_dstar_integer_rows_at_14():
    # the differential operator's rows on the monomial basis
    result = check_dstar(n_max=14)
    assert result.status == "PASS", result


def child_rho_conjugation_and_census_at_30():
    # rho(lam') = -rho(lam) also checks rho = 0 at self-conjugate lam
    # and, with conjugation an involution, the pairing of A_n's
    # eigenvalues: twice the deep battery's n <= 15
    for result in (check_rho_symmetries(n_max=30), check_census(n_max=30)):
        assert result.status == "PASS", result


def child_detailed_balance_at_25_to_30():
    # |C_t| A[t][s] = |C_s| A[s][t] over every stored pair and its
    # mirror; the battery reads it from the eigen relations at n <= 12
    for n in range(25, 31):
        index = enumerate_partitions(n).ordered
        sizes = [class_size(t) for t in index]
        rows = [dict(row) for row in build_transition_matrix(n)]
        for t, row in enumerate(rows):
            for s, v in row.items():
                assert sizes[t] * v == sizes[s] * rows[s].get(t, 0), \
                    (n, index[t], index[s])


def child_group_walk_at_8_against_spectral():
    # past BRUTE_MAX_N = 7: one walk of S_8, read at each class
    _, index, vecs = walk_distributions(8, 8)
    for mu in enumerate_partitions(8):
        expansion = spectral_expansion(mu)
        g = index[class_representative(mu)]
        for k, vec in enumerate(vecs):
            assert vec[g] == expansion.at(k), (mu, k)


def child_tableaux_for_every_order_of_mu_at_8():
    # the battery compares sorted mu only; enumerate_bst takes the
    # parts in any order, one strip per label
    for n in range(1, 9):
        # a composition of n cuts 1..n at a subset of the n - 1 gaps
        orders = [tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
                  for size in range(n)
                  for cuts in combinations(range(1, n), size)]
        assert len(set(orders)) == 2 ** (n - 1), n
        for lam in enumerate_partitions(n):
            for order in orders:
                mu = tuple(sorted(order, reverse=True))
                assert bst_signed_count(lam, order) == \
                    mn_character(lam, mu), (lam, order)


# all methods, exit 1 on MISMATCH. Keys of n = 32 need 6-bit slots: the
# walk of (16,16) ends at 1^32, whose multiplicity 32 fills slot 1
@pytest.mark.parametrize("mu, k, max_n", [("20,12,8", "41", "40"),
                                          ("16,16", "32", "32")])
def test_matrix_walk_against_spectral(mu, k, max_n):
    permfact("count", "--mu", mu, "--k", k, "--max-n", max_n)


def child_route_table_at_40_against_spectral():
    # a row runs wherever its reason is None: spectral, matrix, and a
    # closed form where mu has one or two parts
    ran = set()
    for mu, ks in (((20, 12, 8), (39, 41)), ((30, 10), (40,)), ((40,), (39,))):
        expansion = spectral_expansion(mu)
        for k in ks:
            for name, (reason, count, _) in ROUTES.items():
                if reason(mu, k) is None:
                    assert count(mu, k) == expansion.at(k), (name, mu, k)
                    ran.add(name)
    assert len(ran) >= 3, ran


def test_matrix_formats_at_20_read_as_one_grid():
    text, rows, entries = (permfact("matrix", "--n", "20", "--format", fmt)
                           .decode() for fmt in ("text", "csv", "json"))
    grids = [[list(map(int, row)) for row in json.loads(entries)["entries"]],
             [list(map(int, row[1:]))
              for row in list(csv.reader(rows.splitlines()))[1:]],
             [list(map(int, line.split(":", 1)[1].split()))
              for line in text.splitlines()[1:]]]
    assert grids[0] == grids[1] == grids[2], "formats disagree"
    assert len(grids[0]) == 627, len(grids[0])
    assert all(sum(row) == math.comb(20, 2) for row in grids[0])


@pytest.mark.parametrize("body", [f for name, f in list(globals().items())
                                  if name.startswith("child_")])
def test_child(body):
    """A child_ function, run in a child: this file, given its name."""
    run(__file__, body.__name__)


if __name__ == "__main__":
    globals()[sys.argv[1]]()
