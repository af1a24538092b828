"""Deterministic JSON, CSV and text-grid emitters.

Counts routinely exceed 64-bit range, so every scalar result is written
as a decimal string. Partition parts are small and stay plain integers.
Output is byte-stable for a fixed input: fixed orderings, no
timestamps.
"""

from functools import cache, partial


def dumps(payload):
    import json  # loaded here only: text and csv output never need it
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


def _spliced_rows(rows, size, cell, sep):
    """Each sparse row of (column, value) pairs, columns ascending, as one
    line of size cells joined by sep: cell(v) for each stored pair and
    zero = cell(0) elsewhere. No zero is formatted on its own: every zero
    cell has one width, so in the line of size zeros cell j starts at
    j * (len(zero) + len(sep)), and a row's stored cells are spliced into
    that string there. Grids repeat few values, so cell is memoized."""
    cell = cache(cell)
    zero = cell(0)
    blank = sep.join([zero] * size)
    width, step = len(zero), len(zero) + len(sep)
    for pairs in rows:
        parts = []
        add, at = parts.append, 0
        for j, v in pairs:
            start = j * step
            add(blank[at:start])
            add(cell(v))
            at = start + width
        add(blank[at:])
        yield "".join(parts)


def _joined_rows(rows, cell, sep):
    """Each dense row as one line of its cells joined by sep; cell is
    memoized."""
    cell = cache(cell)
    for row in rows:
        yield sep.join(map(cell, row))


def _grid_json(index, key, format_rows, **extra):
    """dumps({n, order, key: rows, **extra}), written a row at a time;
    format_rows(cell, sep) yields each row as one line of its cells."""
    order = [partition_label(lam) for lam in index]
    head, tail = dumps({"n": index.n, "order": order, key: None, **extra}
                       ).split(f'"{key}": null')
    grid = ",\n".join(f"    [\n{line}\n    ]" for line in
                      format_rows(lambda v: f'      "{v}"', ",\n"))
    return "".join([head, f'"{key}": [\n', grid, "\n  ]", tail])


def _grid_csv(index, format_rows):
    labels = [partition_label(lam) for lam in index]
    lines = [",".join(["", *labels])]  # no cell ever needs quoting
    lines += [f"{label},{line}" for label, line in
              zip(labels, format_rows(str, ","))]
    return "\n".join(lines) + "\n"


def _grid_text(index, values, format_rows):
    """Cells as wide as the widest label or value in values. A 0 is never
    wider than a label, so values may leave out the zeros."""
    labels = [partition_label(lam) for lam in index]
    width = max(map(len, labels + list(map(str, set(values)))))
    lines = [" " * (width + 2) + " ".join(f"{s:>{width}}" for s in labels)]
    lines += [f"{label:>{width}}: {line}" for label, line in
              zip(labels, format_rows(f"{{:>{width}}}".format, " "))]
    return "\n".join(lines) + "\n"


def matrix_json(index, rows, eigen=None):
    extra = {} if eigen is None else {"eigenvalues": [
        [partition_label(lam), str(r)] for r, lam in eigen]}
    return _grid_json(index, "entries",
                      partial(_spliced_rows, rows, len(index)), **extra)


def matrix_csv(index, rows):
    return _grid_csv(index, partial(_spliced_rows, rows, len(index)))


def matrix_text(index, rows):
    return _grid_text(index, (v for pairs in rows for _, v in pairs),
                      partial(_spliced_rows, rows, len(index)))


def chartable_json(table):
    return _grid_json(table.index, "values",
                      partial(_joined_rows, table.values))


def chartable_csv(table):
    return _grid_csv(table.index, partial(_joined_rows, table.values))


def chartable_text(table):
    return _grid_text(table.index, (v for row in table.values for v in row),
                      partial(_joined_rows, table.values))


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
