"""Seeded request streams for the four benchmark workloads.

A stream is an endless sequence of rounds. Every round of a workload
follows the same template of slots (command, n, how mu and k are drawn),
so a round costs about the same whatever the seed, and a run of whole
rounds measures the same mix on every seed. The seed picks mu, k, the
number of series terms and the output format inside each slot.

Partitions are enumerated here, not through permfact, so the same seed
gives the same requests on every commit of the library.
"""

import math
import random
from dataclasses import dataclass
from functools import lru_cache

CLI_MAX_N = 20       # ceiling every CLI path honours (permfact DEFAULT_MAX_N)
MATRIX_MAX_N = 30    # ceiling the matrix paths reach through --max-n
QUERY_MAX_K = 12     # crosscheck stream: k <= 12
TUPLE_MAX_N = 4      # count_tuples ceilings
TUPLE_MAX_K = 5


@dataclass(frozen=True)
class Request:
    """One request of a stream.

    kind is "count", "series" or "matrix" for CLI workloads, and
    "query" or "battery" for crosscheck. k is the number of
    transpositions (-1 where the kind has none); tuples marks a query
    that also runs count_tuples.
    """
    kind: str
    n: int
    mu: tuple = ()
    k: int = -1
    terms: int = 0
    method: str = "all"
    fmt: str = "text"
    max_n: int = CLI_MAX_N
    tuples: bool = False

    def argv(self):
        """CLI arguments, without the cache directory the runner adds."""
        if self.kind == "matrix":
            args = ["matrix", "--n", str(self.n)]
        else:
            args = [self.kind, "--mu", ",".join(map(str, self.mu))]
            args += ["--k", str(self.k)] if self.kind == "count" \
                else ["--terms", str(self.terms)]
        if self.method != "all":
            args += ["--method", self.method]
        if self.max_n != CLI_MAX_N:
            args += ["--max-n", str(self.max_n)]
        return args + ["--format", self.fmt]


@dataclass(frozen=True)
class Slot:
    kind: str
    n: int
    lengths: tuple = None   # allowed len(mu); None means any
    minimal: bool = False   # k = n - len(mu)
    extra: int = 10         # otherwise k = n - len(mu) + 2j, 0 <= j <= extra
    terms: tuple = (0, 0)   # series terms drawn from this range
    method: str = "all"
    fmts: tuple = ("text", "json")
    max_n: int = CLI_MAX_N
    tuples: bool = False


# Round templates. A run serves a fixed number of rounds (see rounds_for),
# so every seed measures the same mix. Slots are arranged so that the
# median latency falls inside a group of like requests, not on the edge
# between two groups of different cost.
TEMPLATES = {
    # The full character table is built per request: 1.0 s at n = 16 up
    # to 6.8 s at n = 20 (Python 3.11, 2-core x86 VM).
    "cold-count": (
        Slot("count", 16),
        Slot("series", 16, terms=(10, 30)),
        Slot("count", 17, minimal=True),
        Slot("count", 16, minimal=True),
        Slot("count", 16),
        Slot("series", 18, terms=(10, 30)),
        Slot("count", 16),
        Slot("count", 19, minimal=True),
        Slot("series", 16, terms=(10, 30)),
        Slot("count", 16, minimal=True),
        Slot("count", 20),
        Slot("count", 16),
        Slot("series", 16, terms=(10, 30)),
    ),
    # Tables come from the cache filled during set-up; sums dominate.
    "warm-series": (
        Slot("series", 18, terms=(96, 120)),
        Slot("count", 20, method="spectral", extra=20),
        Slot("count", 18, method="spectral", extra=20),
        Slot("count", 20, method="spectral", extra=20),
        Slot("series", 20, terms=(96, 120)),
        Slot("count", 20, method="spectral", extra=20),
    ),
    # Only the paths that honour --max-n past 20. len(mu) is banded so
    # that k, and with it the matrix-power cost, stays in a narrow range.
    "matrix-reach": (
        Slot("count", 30, lengths=(4, 5, 6, 7, 8), minimal=True,
             method="matrix", max_n=MATRIX_MAX_N),
        Slot("count", 24, lengths=(1, 2), extra=2, method="matrix",
             max_n=MATRIX_MAX_N),
        Slot("matrix", 18, fmts=("json",)),
        Slot("count", 24, lengths=(3, 4, 5, 6), minimal=True,
             method="matrix", max_n=MATRIX_MAX_N),
        Slot("matrix", 22, fmts=("json",), max_n=22),
        Slot("count", 24, lengths=(3, 4, 5, 6), extra=3, method="matrix",
             max_n=MATRIX_MAX_N),
        Slot("matrix", 24, fmts=("json",), max_n=24),
        Slot("count", 24, lengths=(2,), extra=2, method="matrix",
             max_n=MATRIX_MAX_N),
    ),
    # In-process all-route queries; count_brute dominates at n = 7. The
    # median falls among the n = 6 queries, which take tens of
    # milliseconds, not among the sub-millisecond ones.
    "crosscheck": (
        Slot("query", 3),
        Slot("query", 4, tuples=True),
        Slot("query", 6),
        Slot("query", 5),
        Slot("query", 6),
        Slot("query", 7),
        Slot("query", 6),
    ),
}

# Seconds one round took when the benchmark was defined (Python 3.11.7,
# 2-core x86 VM). They size a run, in rounds, from --seconds; the count
# does not depend on how fast the program runs, so a seed and --seconds
# always give the same requests.
ROUND_SECONDS = {"cold-count": 24.0, "warm-series": 2.5,
                 "matrix-reach": 7.8, "crosscheck": 0.31}
MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it

WORKLOADS = tuple(TEMPLATES)


def _gen(n, cap):
    if n == 0:
        yield ()
        return
    for a in range(min(n, cap), 0, -1):
        for rest in _gen(n - a, a):
            yield (a,) + rest


@lru_cache(maxsize=None)
def partitions_of(n):
    """Partitions of n as descending tuples, in ascending lexicographic
    order (1^n first), the canonical order of permfact."""
    return tuple(sorted(_gen(n, n)))


def _draw(slot, rng):
    if slot.kind == "matrix":
        return Request("matrix", slot.n, fmt=rng.choice(slot.fmts),
                       max_n=slot.max_n)
    choices = [mu for mu in partitions_of(slot.n)
               if slot.lengths is None or len(mu) in slot.lengths]
    mu = rng.choice(choices)
    d = slot.n - len(mu)
    fmt = rng.choice(slot.fmts)
    if slot.kind == "series":
        return Request("series", slot.n, mu, terms=rng.randint(*slot.terms),
                       fmt=fmt, max_n=slot.max_n)
    if slot.kind == "query":
        top = TUPLE_MAX_K if slot.tuples else QUERY_MAX_K
        k = d + 2 * rng.randint(0, (top - d) // 2)
        return Request("query", slot.n, mu, k, tuples=slot.tuples)
    k = d if slot.minimal else d + 2 * rng.randint(0, slot.extra)
    return Request("count", slot.n, mu, k, method=slot.method, fmt=fmt,
                   max_n=slot.max_n)


def rounds_for(workload, seconds):
    """Rounds in a run of about `seconds` on the defining machine."""
    return max(math.ceil(seconds / ROUND_SECONDS[workload]),
               math.ceil(MIN_SAMPLES / len(TEMPLATES[workload])))


def rounds(workload, seed):
    """Endless iterator of rounds (lists of Request) for a workload."""
    template = TEMPLATES[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield [_draw(slot, rng) for slot in template]


def first_rounds(workload, seed, count):
    stream = rounds(workload, seed)
    return [next(stream) for _ in range(count)]
