"""Command-line front end: parsing, the size ceiling and dispatch;
serialize writes every byte of stdout. `count` reads its routes from
counting.ROUTES and checks `--method` against that table.

Subcommands: count, matrix, chartable, series, verify, partitions.
Exit codes: 0 on success, 1 when a verification or cross-method check
fails, 2 on usage errors.

Each subcommand imports the modules of its own route when it runs, so
a process loads only what its subcommand reads: `matrix` never loads
the characters, a count never loads the battery.
"""

import argparse
import functools
import sys

from . import serialize
from .partitions import enumerate_partitions, rho, DEFAULT_MAX_N

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
    """--mu as a partition, checked against --n and the ceiling."""
    mu = serialize.parse_partition(args.mu)
    n = sum(mu)
    if args.n is not None and args.n != n:
        raise UsageError(f"--mu {args.mu} sums to {n}, not --n {args.n}")
    _ceiling(args, n)
    return mu


def cmd_count(args, out):
    from .counting import ROUTES
    if args.method not in (*ROUTES, "all"):
        raise UsageError(f"unknown method {args.method!r}; choose from "
                         f"{', '.join(ROUTES)} or all")
    mu = _resolve_mu(args)
    names = list(ROUTES) if args.method == "all" else [args.method]
    why = {name: ROUTES[name][0](mu, args.k) for name in names}
    if args.method != "all" and why[args.method]:
        raise UsageError(f"{args.method} method {why[args.method]}")
    results = [(name, ROUTES[name][1](mu, args.k))
               for name in names if why[name] is None]
    verdict = "MATCH" if len({v for _, v in results}) == 1 else "MISMATCH"
    out.write(serialize.count(args.format, mu, args.k, results, verdict))
    return EXIT_OK if verdict == "MATCH" else EXIT_MISMATCH


def cmd_matrix(args, out):
    from .transition import build_transition_matrix
    index = enumerate_partitions(_ceiling(args, args.n, least=2))
    eigen = sorted((rho(lam), lam) for lam in index) if args.eigen else None
    out.write(serialize.matrix(args.format, index,
                               build_transition_matrix(index.n), eigen))
    return EXIT_OK


def cmd_chartable(args, out):
    from .characters import build_character_table
    table = build_character_table(_ceiling(args, args.n))
    out.write(serialize.chartable(args.format, table))
    return EXIT_OK


def cmd_series(args, out):
    from .counting import series_prefix
    mu = _resolve_mu(args)
    out.write(serialize.series(args.format, series_prefix(mu, args.terms)))
    return EXIT_OK


def cmd_verify(args, out):
    from .verify import run_battery
    results = run_battery(deep=args.deep)
    out.write(serialize.report(results))
    return EXIT_OK if all(r.status == "PASS" for r in results) \
        else EXIT_MISMATCH


def cmd_partitions(args, out):
    index = enumerate_partitions(_ceiling(args, args.n))
    out.write(serialize.partitions(args.format, index))
    return EXIT_OK


@functools.cache
def build_parser():
    """The parser, built once per process: main reuses it."""
    parser = argparse.ArgumentParser(
        prog="permfact",
        description="Exact counts of permutation factorizations into "
                    "transpositions, with cross-validated spectral, "
                    "matrix-power, closed-form and brute-force methods.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *required, cache=False):
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
        for flag, kind, text in required:
            p.add_argument(flag, type=kind, required=True, help=text)

    mu = ("--mu", str, "cycle type, comma-separated parts")
    p = sub.add_parser("count", help="count factorizations into k transpositions")
    common(p, mu, ("--k", int, "number of transpositions"),
           cache=True)
    p.add_argument("--method", default="all",
                   help="a count route, or all that can answer")
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
    common(p, mu, ("--terms", int, "series coefficients to compute"),
           cache=True)
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
    args = build_parser().parse_args(argv)
    # exact counts of any size reach stdout: the int -> str conversion
    # limit of Python 3.11+ (and 3.10.7+) is lifted for this call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        return args.func(args, sys.stdout)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
