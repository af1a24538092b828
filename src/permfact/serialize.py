"""Deterministic JSON, CSV and text-grid emitters.

Counts routinely exceed 64-bit range, so every scalar result is written
as a decimal string. Partition parts are small and stay plain integers.
Output is byte-stable for a fixed input: fixed orderings, no
timestamps.
"""

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


def _dense_rows(rows):
    """Sparse (column, value) rows as full lists, one row at a time."""
    for pairs in rows:
        line = [0] * len(rows)
        for j, v in pairs:
            line[j] = v
        yield line


def _grid_json(index, key, rows, **extra):
    """dumps({n, order, key: rows, **extra}), written a row at a time."""
    order = [partition_label(lam) for lam in index]
    head, tail = dumps({"n": index.n, "order": order, key: None, **extra}
                       ).split(f'"{key}": null')
    grid = ",\n".join("    [\n" + ",\n".join(f'      "{v}"' for v in row)
                      + "\n    ]" for row in rows)
    return "".join([head, f'"{key}": [\n', grid, "\n  ]", tail])


def _grid_csv(index, rows):
    labels = [partition_label(lam) for lam in index]
    lines = [",".join(["", *labels])]  # no cell ever needs quoting
    lines += [",".join([label, *map(str, row)])
              for label, row in zip(labels, rows)]
    return "\n".join(lines) + "\n"


def _grid_text(index, rows, stored):
    """Cells as wide as the widest label or value in the rows of stored."""
    labels = [partition_label(lam) for lam in index]
    width = max(len(str(v)) for row in (labels, *stored) for v in row)
    lines = [" " * (width + 2) + " ".join(f"{s:>{width}}" for s in labels)]
    lines += [f"{label:>{width}}: " + " ".join(f"{v:>{width}}" for v in row)
              for label, row in zip(labels, rows)]
    return "\n".join(lines) + "\n"


def matrix_json(index, rows, eigen=None):
    extra = {} if eigen is None else {"eigenvalues": [
        [partition_label(lam), str(r)] for r, lam in eigen]}
    return _grid_json(index, "entries", _dense_rows(rows), **extra)


def matrix_csv(index, rows):
    return _grid_csv(index, _dense_rows(rows))


def matrix_text(index, rows):
    stored = ((v for _, v in pairs) for pairs in rows)
    return _grid_text(index, _dense_rows(rows), stored)


def chartable_json(table):
    return _grid_json(table.index, "values", table.values)


def chartable_csv(table):
    return _grid_csv(table.index, table.values)


def chartable_text(table):
    return _grid_text(table.index, table.values, table.values)


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
