"""Output checks, run outside the timed region.

Every answer is checked by a route other than the one that produced it:

- spectral counts and series against A^k e from the transition matrix
  (the count_matrix_method route), for n <= 20;
- matrix counts against the spectral sum over one character column,
  sum_lam dim(lam) chi^lam(mu) rho(lam)^k / n!, built from
  mn_character, the hook formula and rho, which reaches any n;
- at any n: counts are nonzero (k has the parity n - len(mu) and is at
  least that), the minimal-factorization formula at k = n - len(mu),
  the single-cycle and two-cycle closed forms, and for printed matrices
  row sums C(n, 2), entries only between lengths one apart, and the
  double-counting identity |C_t| A[t][s] = |C_s| A[s][t].

Each check returns None when the output is right, or a reason string.
"""

import hashlib
import json
import re
from fractions import Fraction
from math import comb, factorial

from permfact.characters import dimension_hook_formula, mn_character
from permfact.counting import count_goulden, count_two_cycle
from permfact.oracle import BRUTE_MAX_K, BRUTE_MAX_N
from permfact.partitions import class_size, rho
from permfact.transition import build_transition_matrix, matrix_power_apply

from spans import VERIFY_CHECKS
from workloads import partitions_of

_COUNT_LINE = re.compile(r"^c_(\d+)\(([\d+]+)\) \[([a-z-]+)\] = (\d+)$")


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def label(mu):
    return "+".join(map(str, mu))


def minimal_count(mu):
    """c_{n-l}(mu) = (n-l)! prod m^(m-2)/(m-1)!  (Denes, cycles interleaved)."""
    n = sum(mu)
    value = Fraction(factorial(n - len(mu)))
    for m in mu:
        value *= Fraction(m) ** (m - 2) / factorial(m - 1)
    return value


class Reference:
    """Reference values, cached for the length of one run."""

    def __init__(self):
        self._powers = {}   # n -> [A^j e for j = 0, 1, ...]
        self._columns = {}  # mu -> [(dim * chi, rho)]

    def matrix_count(self, mu, k):
        n = sum(mu)
        if n < 2:
            return 1 if k == 0 else 0
        if n not in self._powers:
            e = [0] * len(partitions_of(n))
            e[0] = 1
            self._powers[n] = ([e], build_transition_matrix(n))
        vectors, matrix = self._powers[n]
        while len(vectors) <= k:
            vectors.append(matrix_power_apply(matrix, 1, vectors[-1]))
        return vectors[k][partitions_of(n).index(mu)]

    def spectral_count(self, mu, k):
        if mu not in self._columns:
            self._columns[mu] = [
                (dimension_hook_formula(lam) * mn_character(lam, mu), rho(lam))
                for lam in partitions_of(sum(mu))]
        total = sum(w * r ** k for w, r in self._columns[mu])
        quotient, rest = divmod(total, factorial(sum(mu)))
        return quotient if rest == 0 else None


def count_identities(mu, k, value):
    """Identities that hold at any n, for k >= n - len(mu) of its parity."""
    n = sum(mu)
    if value <= 0:
        return f"count {value} is not positive at parity-allowed k={k}"
    if k == n - len(mu) and value != minimal_count(mu):
        return f"minimal formula gives {minimal_count(mu)}, output {value}"
    if len(mu) == 1 and value != count_goulden(n, k):
        return f"single-cycle closed form gives {count_goulden(n, k)}"
    if len(mu) == 2:
        expect = count_two_cycle(mu[0], mu[1], k, max_n=n)
        if value != expect:
            return f"two-cycle closed form gives {expect}"
    return None


def _parse_counts(req, text):
    """{method: value} from a count's text or JSON output."""
    if req.fmt == "json":
        payload = json.loads(text)
        if (payload["n"], tuple(payload["mu"]), payload["k"]) != \
                (req.n, req.mu, req.k):
            raise ValueError("echoed n, mu or k differ from the request")
        if "counts" in payload:
            return {m: int(v) for m, v in payload["counts"].items()}
        return {payload["method"]: int(payload["count"])}
    counts = {}
    for line in text.splitlines():
        match = _COUNT_LINE.match(line)
        if match:
            k, lab, method, value = match.groups()
            if (int(k), lab) != (req.k, label(req.mu)):
                raise ValueError(f"line for another query: {line}")
            counts[method] = int(value)
        elif line != "MATCH":
            raise ValueError(f"unexpected line {line!r}")
    return counts


def expected_methods(req):
    """Methods a count prints, or routes a crosscheck query answers."""
    if req.method != "all":
        return {req.method}
    methods = {"spectral", "matrix"}
    if len(req.mu) == 1:
        methods.add("goulden")
    if len(req.mu) == 2:
        methods.add("two-cycle")
    if req.kind == "query" or (req.n <= BRUTE_MAX_N and req.k <= BRUTE_MAX_K):
        methods.add("brute")
    if req.tuples:
        methods.add("tuples")
    return methods


def check_count(req, text, ref):
    counts = _parse_counts(req, text)
    if set(counts) != expected_methods(req):
        return f"methods {sorted(counts)} printed"
    if len(set(counts.values())) != 1:
        return f"methods disagree: {counts}"
    if req.method == "all" and req.fmt == "text" and \
            not text.rstrip().endswith("MATCH"):
        return "no MATCH verdict"
    value = next(iter(counts.values()))
    if "spectral" in counts:
        expect = ref.matrix_count(req.mu, req.k)
    else:
        expect = ref.spectral_count(req.mu, req.k)
    if value != expect:
        return f"output {value}, other route {expect}"
    return count_identities(req.mu, req.k, value)


def check_series(req, text, ref):
    if req.fmt == "json":
        payload = json.loads(text)
        coeffs = payload["coefficients"]
        parity = payload["nonzero_parity"]
    else:
        head, tail = text.splitlines()
        prefix = f"f_{label(req.mu)} coefficients: "
        if not head.startswith(prefix):
            return "unexpected series header"
        coeffs = head[len(prefix):].split(", ")
        parity = int(re.fullmatch(r"nonzero only for k = (\d) \(mod 2\)",
                                  tail).group(1))
    if parity != (req.n - len(req.mu)) % 2:
        return f"parity {parity} printed"
    if len(coeffs) != req.terms:
        return f"{len(coeffs)} coefficients for {req.terms} terms"
    for j, c in enumerate(coeffs):
        expect = Fraction(ref.matrix_count(req.mu, j), factorial(j))
        if Fraction(c) != expect:
            return f"coefficient {j} is {c}, matrix route gives {expect}"
    return None


def check_matrix(req, text):
    payload = json.loads(text)
    index = partitions_of(req.n)
    if payload["n"] != req.n or payload["order"] != [label(p) for p in index]:
        return "partition order differs from the canonical order"
    rows = [[int(v) for v in row] for row in payload["entries"]]
    if len(rows) != len(index) or any(len(r) != len(index) for r in rows):
        return "matrix is not p(n) x p(n)"
    pairs = comb(req.n, 2)
    sizes = [class_size(p) for p in index]
    for a, row in enumerate(rows):
        if sum(row) != pairs:
            return f"row {label(index[a])} sums to {sum(row)}, not {pairs}"
        for b, v in enumerate(row):
            if not v:
                continue
            if abs(len(index[a]) - len(index[b])) != 1:
                return f"nonzero between {index[a]} and {index[b]}"
            if v * sizes[a] != rows[b][a] * sizes[b]:
                return f"double counting fails at ({a}, {b})"
    return None


def check_cli(req, returncode, stdout, ref):
    """None if a CLI request succeeded with a right answer."""
    if returncode != 0:
        return f"exit code {returncode}"
    text = stdout.decode()
    if "MISMATCH" in text:
        return "MISMATCH printed"
    try:
        if req.kind == "count":
            return check_count(req, text, ref)
        if req.kind == "series":
            return check_series(req, text, ref)
        return check_matrix(req, text)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"


def check_query(req, values):
    if set(values) != expected_methods(req):
        return f"routes {sorted(values)} answered"
    counts = {int(v) for v in values.values()}
    if len(counts) != 1:
        return f"routes disagree: {values}"
    return count_identities(req.mu, req.k, counts.pop())


def check_battery(results):
    if [r[0] for r in results] != list(VERIFY_CHECKS):
        return f"checks run: {[r[0] for r in results]}"
    bad = [r for r in results if r[1] != "PASS"]
    return f"not passing: {bad}" if bad else None
