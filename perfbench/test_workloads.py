"""Tests of the benchmark's request generator and output checks.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from permfact.cli import build_parser
from permfact.oracle import BRUTE_MAX_K, BRUTE_MAX_N, TUPLE_MAX_K, TUPLE_MAX_N
from permfact.partitions import DEFAULT_MAX_N, enumerate_partitions

import checks
import workloads

ROUNDS = 4


def requests(workload, seed):
    return [r for rnd in workloads.first_rounds(workload, seed, ROUNDS)
            for r in rnd]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests_other_seed_other_requests(workload):
    assert requests(workload, 7) == requests(workload, 7)
    assert requests(workload, 7) != requests(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_k_has_the_parity_of_n_minus_length(workload):
    for seed in range(20):
        for rnd in workloads.first_rounds(workload, seed, ROUNDS):
            for req, slot in zip(rnd, workloads.TEMPLATES[workload]):
                if req.kind in ("series", "matrix"):
                    assert req.k == -1
                    continue
                d = req.n - len(req.mu)
                assert req.k >= d and (req.k - d) % 2 == 0, req
                if slot.minimal:
                    assert req.k == d, req


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_stay_within_the_ceilings_of_their_path(workload):
    parser = build_parser()
    for seed in range(20):
        for req in requests(workload, seed):
            if req.kind != "matrix":
                assert sum(req.mu) == req.n
                assert list(req.mu) == sorted(req.mu, reverse=True)
            if req.kind == "query":
                assert req.n <= BRUTE_MAX_N and req.k <= BRUTE_MAX_K
                assert req.k <= workloads.QUERY_MAX_K
                if req.tuples:
                    assert req.n <= TUPLE_MAX_N and req.k <= TUPLE_MAX_K
                continue
            args = parser.parse_args(req.argv())
            assert args.n is None or args.n == req.n
            if req.kind == "matrix" or req.method == "matrix":
                # the paths that honour --max-n past the default
                assert req.n <= args.max_n <= workloads.MATRIX_MAX_N
            else:
                assert req.n <= args.max_n == DEFAULT_MAX_N


def test_partition_order_is_the_library_order():
    for n in range(1, 21):
        assert workloads.partitions_of(n) == enumerate_partitions(n).ordered


def test_checks_catch_a_wrong_count():
    req = workloads.Request("count", 4, (3, 1), 4)
    ref = checks.Reference()
    good = b"".join(b"c_4(3+1) [%s] = 108\n" % m for m in
                    (b"spectral", b"matrix", b"two-cycle", b"brute")) + b"MATCH\n"
    assert checks.check_cli(req, 0, good, ref) is None
    assert checks.check_cli(req, 0, good.replace(b"108", b"107"), ref)
    assert checks.check_cli(req, 1, good, ref)


def test_minimal_formula_matches_known_counts():
    # c_3((4)) = 4^2 = 16 (Denes) and c_2((2, 2)) = 2! * 1 * 1 = 2
    assert checks.minimal_count((4,)) == 16
    assert checks.minimal_count((2, 2)) == 2
