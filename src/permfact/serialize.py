"""Every byte the CLI writes to stdout, in text, csv or json.

One function per result kind (partitions, matrix, chartable, count,
series, and the battery's report) takes the format and returns one
str; the CLI writes it once. Counts routinely exceed 64-bit range, so
json writes every scalar result as a decimal string. Partition parts
are small and stay plain integers. Output is byte-stable for a fixed
input: fixed orderings, no timestamps.
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


def _grid(fmt, index, key, format_rows, values, **extra):
    """The grid in fmt, written a row at a time: format_rows(cell, sep)
    yields each row as one line of its cells. json is dumps({n, order,
    key: rows, **extra}); text cells are as wide as the widest label or
    value in values. A 0 is never wider than a label, so values may
    leave out the zeros."""
    labels = [partition_label(lam) for lam in index]
    if fmt == "json":
        head, tail = dumps({"n": index.n, "order": labels, key: None,
                            **extra}).split(f'"{key}": null')
        grid = ",\n".join(f"    [\n{line}\n    ]" for line in
                          format_rows(lambda v: f'      "{v}"', ",\n"))
        return "".join([head, f'"{key}": [\n', grid, "\n  ]", tail])
    if fmt == "csv":
        lines = [",".join(["", *labels])]  # no cell ever needs quoting
        lines += [f"{label},{line}" for label, line in
                  zip(labels, format_rows(str, ","))]
    else:
        width = max(map(len, labels + list(map(str, set(values)))))
        lines = [" " * (width + 2) + " ".join(f"{s:>{width}}" for s in labels)]
        lines += [f"{label:>{width}}: {line}" for label, line in
                  zip(labels, format_rows(f"{{:>{width}}}".format, " "))]
    return "\n".join(lines) + "\n"


def partitions(fmt, index):
    if fmt == "json":
        return dumps({"n": index.n, "count": len(index),
                      "partitions": [list(lam) for lam in index]})
    labels = [partition_label(lam) for lam in index]
    if fmt == "csv":
        return "".join(["rank,partition\n",
                        *(f"{i},{s}\n" for i, s in enumerate(labels))])
    return "".join(f"{s}\n" for s in labels)


def matrix(fmt, index, rows, eigen=None):
    """A_n's sparse rows as a grid, then eigen's (rho, lam) pairs, if
    given, as the json key eigenvalues or as lines after the grid."""
    pairs = [[partition_label(lam), str(r)] for r, lam in eigen or ()]
    grid = _grid(fmt, index, "entries",
                 partial(_spliced_rows, rows, len(index)),
                 (v for row in rows for _, v in row),
                 **({} if eigen is None else {"eigenvalues": pairs}))
    if fmt == "json" or not pairs:
        return grid
    if fmt == "csv":
        return grid + "".join(f"eigenvalue,{s},{r}\n" for s, r in pairs)
    return grid + "".join(["eigenvalues:\n",
                           *(f"  {s}: {r}\n" for s, r in pairs)])


def chartable(fmt, table):
    return _grid(fmt, table.index, "values",
                 partial(_joined_rows, table.values),
                 (v for row in table.values for v in row))


def count(fmt, mu, k, results, verdict):
    """The (method, count) pairs of results; the text names the verdict
    when more than one route ran."""
    if fmt == "json":
        body = ({"count": str(results[0][1]), "method": results[0][0]}
                if len(results) == 1 else
                {"counts": {m: str(v) for m, v in results}})
        return dumps({"n": sum(mu), "mu": list(mu), "k": k, **body})
    if fmt == "csv":
        return "".join(["method,count\n",
                        *(f"{m},{v}\n" for m, v in results)])
    label = partition_label(mu)
    lines = [f"c_{k}({label}) [{m}] = {v}\n" for m, v in results]
    return "".join(lines + [f"{verdict}\n"] * (len(results) > 1))


def series(fmt, prefix):
    coefficients = list(map(str, prefix.coefficients))
    if fmt == "json":
        return dumps({"n": sum(prefix.mu), "mu": list(prefix.mu),
                      "coefficients": coefficients,
                      "nonzero_parity": prefix.nonzero_parity})
    if fmt == "csv":
        return "".join(["k,coefficient\n",
                        *(f"{j},{c}\n" for j, c in enumerate(coefficients))])
    return (f"f_{partition_label(prefix.mu)} coefficients: "
            f"{', '.join(coefficients)}\n"
            f"nonzero only for k = {prefix.nonzero_parity} (mod 2)\n")


def report(results):
    """The battery's CheckResults, one line each, and the tally."""
    width = max(len(r.name) for r in results)
    passed = sum(r.status == "PASS" for r in results)
    return "".join([*(f"{r.name:<{width}}  {r.status:<4}  {r.detail}\n"
                      for r in results),
                    f"{passed}/{len(results)} checks passed\n"])
