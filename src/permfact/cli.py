"""Command-line front end.

Subcommands: count, matrix, chartable, series, verify, partitions.
Exit codes: 0 on success, 1 when a verification or cross-method check
fails, 2 on usage errors.

Each subcommand imports the modules of its own route when it runs, so
a process loads only what its subcommand reads: `matrix` never loads
the characters, a count never loads the battery.
"""

import argparse
import sys

from . import serialize
from .partitions import (enumerate_partitions, rho, DEFAULT_MAX_N,
                         BRUTE_MAX_N, BRUTE_MAX_K)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _ceiling(args, n, least=1):
    """The one size check, least <= n <= --max-n; returns n. The library
    takes any n >= 1, so the ceiling is a policy of the CLI alone."""
    if n is None or n < least:
        raise UsageError(f"{args.command} needs --n >= {least}")
    if n > args.max_n:
        raise UsageError(f"n={n} exceeds ceiling {args.max_n}")
    return n


def _resolve_mu(args):
    mu = serialize.parse_partition(args.mu)
    n = sum(mu)
    if args.n is not None and args.n != n:
        raise UsageError(f"--mu {args.mu} sums to {n}, not --n {args.n}")
    return mu, _ceiling(args, n)


def cmd_count(args, out):
    from .counting import (count_spectral, count_matrix_method,
                           count_goulden, count_two_cycle)
    mu, n = _resolve_mu(args)
    methods = [args.method] if args.method != "all" else None
    if methods is None:
        methods = ["spectral"]
        if n >= 2:  # A_n needs two cells to cut or glue
            methods.append("matrix")
        if len(mu) == 1:
            methods.append("goulden")
        if len(mu) == 2:
            methods.append("two-cycle")
        if n <= BRUTE_MAX_N and args.k <= BRUTE_MAX_K:
            methods.append("brute")
    results = []
    for method in methods:
        if method == "spectral":
            value = count_spectral(mu, args.k)
        elif method == "matrix":
            value = count_matrix_method(mu, args.k)
        elif method == "goulden":
            if len(mu) != 1:
                raise UsageError("goulden method needs a single-part mu")
            value = count_goulden(n, args.k)
        elif method == "two-cycle":
            if len(mu) != 2:
                raise UsageError("two-cycle method needs a two-part mu")
            value = count_two_cycle(mu[0], mu[1], args.k, max_n=args.max_n)
        else:  # brute
            if n > BRUTE_MAX_N:
                raise UsageError(f"brute method capped at n <= {BRUTE_MAX_N}")
            from .oracle import count_brute
            value = count_brute(mu, args.k)
        results.append((method, value))
    distinct = {v for _, v in results}
    verdict = "MATCH" if len(distinct) == 1 else "MISMATCH"
    if args.format == "json":
        if len(results) == 1:
            out.write(serialize.count_json(n, mu, args.k, results[0][1],
                                           results[0][0]))
        else:
            out.write(serialize.counts_json(n, mu, args.k, results))
    elif args.format == "csv":
        out.write("method,count\n")
        for method, value in results:
            out.write(f"{method},{value}\n")
    else:
        for method, value in results:
            out.write(f"c_{args.k}({serialize.partition_label(mu)}) "
                      f"[{method}] = {value}\n")
        if len(results) > 1:
            out.write(f"{verdict}\n")
    return EXIT_OK if verdict == "MATCH" else EXIT_MISMATCH


def cmd_matrix(args, out):
    from .transition import build_transition_matrix
    n = _ceiling(args, args.n, least=2)
    index = enumerate_partitions(n)
    rows = build_transition_matrix(n)
    pairs = sorted(((rho(lam), lam) for lam in index)) if args.eigen else None
    if args.format == "json":
        out.write(serialize.matrix_json(index, rows, eigen=pairs))
    elif args.format == "csv":
        out.write(serialize.matrix_csv(index, rows))
        if pairs:
            for r, lam in pairs:
                out.write(f"eigenvalue,{serialize.partition_label(lam)},{r}\n")
    else:
        out.write(serialize.matrix_text(index, rows))
        if pairs:
            out.write("eigenvalues:\n")
            for r, lam in pairs:
                out.write(f"  {serialize.partition_label(lam)}: {r}\n")
    return EXIT_OK


def cmd_chartable(args, out):
    from .characters import build_character_table
    table = build_character_table(_ceiling(args, args.n))
    if args.format == "json":
        out.write(serialize.chartable_json(table))
    elif args.format == "csv":
        out.write(serialize.chartable_csv(table))
    else:
        out.write(serialize.chartable_text(table))
    return EXIT_OK


def cmd_series(args, out):
    from .counting import series_prefix
    mu, _ = _resolve_mu(args)
    prefix = series_prefix(mu, args.terms)
    if args.format == "json":
        out.write(serialize.series_json(prefix))
    elif args.format == "csv":
        out.write("k,coefficient\n")
        for j, c in enumerate(prefix.coefficients):
            out.write(f"{j},{serialize.fraction_str(c)}\n")
    else:
        coeffs = ", ".join(serialize.fraction_str(c)
                           for c in prefix.coefficients)
        out.write(f"f_{serialize.partition_label(mu)} coefficients: "
                  f"{coeffs}\n")
        out.write(f"nonzero only for k = {prefix.nonzero_parity} (mod 2)\n")
    return EXIT_OK


def cmd_verify(args, out):
    from .verify import run_battery
    results = run_battery(deep=args.deep)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        out.write(f"{r.name:<{width}}  {r.status:<4}  {r.detail}\n")
        if r.status == "FAIL":
            failed += 1
    out.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


def cmd_partitions(args, out):
    index = enumerate_partitions(_ceiling(args, args.n))
    if args.format == "json":
        out.write(serialize.partitions_json(index))
    elif args.format == "csv":
        out.write("rank,partition\n")
        for i, lam in enumerate(index):
            out.write(f"{i},{serialize.partition_label(lam)}\n")
    else:
        for lam in index:
            out.write(serialize.partition_label(lam) + "\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="permfact",
        description="Exact counts of permutation factorizations into "
                    "transpositions, with cross-validated spectral, "
                    "matrix-power, closed-form and brute-force methods.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cache=False, mu=False, k=False, terms=False):
        p.add_argument("--n", type=int, default=None,
                       help="size of the permutations")
        p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                       help="ceiling override")
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
        if cache:
            p.add_argument("--cache-dir", default=None,
                           help="ignored; accepted so that older command "
                                "lines still run")
        if mu:
            p.add_argument("--mu", required=True,
                           help="cycle type, comma-separated parts")
        if k:
            p.add_argument("--k", type=int, required=True,
                           help="number of transpositions")
        if terms:
            p.add_argument("--terms", type=int, required=True,
                           help="series coefficients to compute")

    p = sub.add_parser("count", help="count factorizations into k transpositions")
    common(p, cache=True, mu=True, k=True)
    p.add_argument("--method", default="all",
                   choices=("spectral", "matrix", "brute", "goulden",
                            "two-cycle", "all"))
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("matrix", help="emit the transition matrix")
    common(p)
    p.add_argument("--eigen", action="store_true",
                   help="append (partition, eigenvalue) pairs")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("chartable", help="emit the character table")
    common(p)
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("series", help="generating function coefficients c_k/k!")
    common(p, cache=True, mu=True, terms=True)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="run the cross-validation battery")
    p.add_argument("--deep", action="store_true",
                   help="raise all scale ceilings")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("partitions", help="list partitions in canonical order")
    common(p)
    p.set_defaults(func=cmd_partitions)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
