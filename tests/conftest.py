import pytest


def _dense(rows):
    """The p(n) x p(n) list of lists that sparse (column, value) rows
    stand for. The library never builds it; tests compare against it."""
    out = [[0] * len(rows) for _ in rows]
    for line, pairs in zip(out, rows):
        for j, v in pairs:
            line[j] = v
    return out


@pytest.fixture
def dense():
    return _dense
