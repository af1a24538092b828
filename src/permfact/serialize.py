"""Deterministic JSON and CSV emitters.

Counts routinely exceed 64-bit range, so every scalar result is written
as a decimal string. Partition parts are small and stay plain integers.
Output is byte-stable for a fixed input: fixed orderings, no
timestamps.
"""

import csv
import io
import json


def dumps(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ": "),
                      indent=2) + "\n"


def partition_label(lam):
    return "+".join(str(p) for p in lam)


def parse_partition(text):
    """Comma-separated parts in any order, normalized to descending."""
    try:
        parts = tuple(sorted((int(p) for p in text.split(",")), reverse=True))
    except ValueError:
        raise ValueError(f"cannot parse partition literal {text!r}") from None
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"partition parts must be positive: {text!r}")
    return parts


def partitions_json(index):
    return dumps({"n": index.n, "count": len(index),
                  "partitions": [list(lam) for lam in index]})


def matrix_json(index, matrix, eigen=None):
    payload = {
        "n": index.n,
        "order": [partition_label(lam) for lam in index],
        "entries": [[str(v) for v in row] for row in matrix],
    }
    if eigen is not None:
        payload["eigenvalues"] = [[partition_label(lam), str(r)]
                                  for r, lam in eigen]
    return dumps(payload)


def matrix_csv(index, matrix):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    labels = [partition_label(lam) for lam in index]
    writer.writerow([""] + labels)
    for label, row in zip(labels, matrix):
        writer.writerow([label] + [str(v) for v in row])
    return buf.getvalue()


def matrix_text(index, matrix):
    labels = [partition_label(lam) for lam in index]
    width = max(max(len(s) for s in labels),
                max(len(str(v)) for row in matrix for v in row))
    lines = [" " * (width + 2) + " ".join(f"{s:>{width}}" for s in labels)]
    lines += [f"{label:>{width}}: " + " ".join(f"{v:>{width}}" for v in row)
              for label, row in zip(labels, matrix)]
    return "\n".join(lines) + "\n"


def chartable_json(table):
    return dumps({
        "n": table.n,
        "order": [partition_label(lam) for lam in table.index],
        "values": [[str(v) for v in row] for row in table.values],
    })


def chartable_csv(table):
    return matrix_csv(table.index, table.values)


def count_json(n, mu, k, count, method):
    return dumps({"n": n, "mu": list(mu), "k": k,
                  "count": str(count), "method": method})


def counts_json(n, mu, k, results):
    return dumps({"n": n, "mu": list(mu), "k": k,
                  "counts": {method: str(v) for method, v in results}})


def fraction_str(q):
    return str(q.numerator) if q.denominator == 1 \
        else f"{q.numerator}/{q.denominator}"


def series_json(prefix):
    return dumps({
        "n": sum(prefix.mu),
        "mu": list(prefix.mu),
        "coefficients": [fraction_str(c) for c in prefix.coefficients],
        "nonzero_parity": prefix.nonzero_parity,
    })
