"""Span tracing of permfact from outside the library.

install() wraps the public functions of every permfact module and
rebinds each name other modules hold (``from .x import y`` copies), so
no call bypasses a wrapper. A span records name, start, end, parent and
request id; spans are kept in compact arrays and written out at the end.

A few small helpers run once per cell or per group element (for
example z_value, conjugate, compose) and are not wrapped: their spans
would outnumber, and their cost swamp, the work they measure.

Run as a script, this is the child process of one traced CLI request:

    python3 perfbench/spans.py OUT SPAWN_TIME -- <permfact arguments>
"""

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

from workloads import partitions_of

MODULES = ("partitions", "characters", "transition", "counting", "oracle",
           "symfun", "verify", "serialize", "cli")

NOT_WRAPPED = {
    "partitions": {"check_partition", "conjugate", "multiplicities",
                   "z_value", "class_size", "hook_lengths"},
    "oracle": {"identity", "compose", "transpositions", "cycle_type",
               "class_representative"},
    "symfun": {"is_symmetric", "power_sum"},
    "serialize": {"dumps", "partition_label", "parse_partition",
                  "fraction_str"},
}

VERIFY_CHECKS = (
    "rho-conjugation", "parity-census", "matrix-vs-raw", "matrix-structure",
    "eigen-relations", "character-table", "strip-recursion-vs-tableaux",
    "strip-order-invariance", "spectral-vs-matrix",
    "single-cycle-closed-form", "two-cycle-closed-form", "count-parity",
    "mass-conservation", "dual-bases", "omega-involution", "diff-operator",
)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.stack = []
        self.request = 0
        self.counters = Counter()
        self.walk_ns = []
        self.startup_s = 0.0

    def wrap(self, qualname, fn, post=None):
        nid = len(self.names)
        self.names.append(qualname)
        name_a, start_a, end_a = self.name, self.start, self.end
        parent_a, req_a, stack = self.parent, self.req, self.stack
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_a)
            name_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            req_a.append(rec.request)
            start_a.append(0.0)
            end_a.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_a[idx] = t0
                end_a[idx] = t1
            if post is not None:
                post(args, kwargs, result, idx)
            return result
        return wrapper

    def dump(self, path):
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.name),
                       "counters": self.counters,
                       "walk_ns": self.walk_ns, "startup_s": self.startup_s},
                      fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.start, self.end, self.parent,
                        self.req):
                arr.tofile(fh)


def _posts(rec):
    """Counters taken after a call returns, outside its span."""
    c = rec.counters

    def table(args, kwargs, result, idx):
        c["table_cells"] += len(result.values) * len(result.values[0])

    def spectral(args, kwargs, result, idx):
        n = sum(_arg(args, kwargs, 0, "mu"))
        c["cells_read"] += 2 * len(partitions_of(n))

    def matrix(args, kwargs, result, idx):
        c["entries_stored"] += len(result) * len(result)
        c["entries_nonzero"] += sum(len(row) - row.count(0) for row in result)

    def power(args, kwargs, result, idx):
        c["power_steps"] += _arg(args, kwargs, 1, "k")

    def walk(args, kwargs, result, idx):
        rec.walk_ns.append(_arg(args, kwargs, 0, "n"))

    def emitted(args, kwargs, result, idx):
        parent = rec.parent[idx]
        if parent < 0 or not rec.names[rec.name[parent]].startswith("serialize."):
            c["bytes_out"] += len(result)

    def check(args, kwargs, result, idx):
        c[f"verify.{result.name}_s"] += rec.end[idx] - rec.start[idx]

    # keyed by the start of the wrapped function's qualified name
    return {
        "characters.build_character_table": table,
        "characters.load_table": lambda *_: c.update(cache_hits=1),
        "characters.save_table": lambda *_: c.update(cache_misses=1),
        "counting.count_spectral": spectral,
        "transition.build_transition_matrix": matrix,
        "transition.matrix_power_apply": power,
        "oracle.walk_distributions": walk,
        "serialize.": emitted,
        "verify.check_": check,
    }


def install():
    """Wrap permfact's public functions and rebind every module's copy
    of their names; returns the Recorder that collects the spans."""
    rec = Recorder()
    posts = _posts(rec)
    wrappers = {}
    for short in MODULES:
        mod = importlib.import_module(f"permfact.{short}")
        skip = NOT_WRAPPED.get(short, set())
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or attr in skip or isinstance(obj, type) \
                    or not callable(obj) \
                    or getattr(obj, "__module__", None) != mod.__name__:
                continue
            qual = f"{short}.{attr}"
            post = next((fn for key, fn in posts.items()
                         if qual.startswith(key)), None)
            wrappers[id(obj)] = rec.wrap(qual, obj, post)
    for modname, mod in list(sys.modules.items()):
        if modname == "permfact" or modname.startswith("permfact."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
    return rec


# ---------------------------------------------------------------------------
# reading spans back


class Summary:
    """Span totals merged over any number of span files.

    total[name] counts a span unless its parent has the same name;
    layer_total[layer] counts a span unless its parent is in the same
    layer; self times subtract the spans of direct children.
    """

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_total = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.counters = Counter()
        self.walk_ns = []
        self.startup_s = 0.0

    def add(self, path):
        with open(path + ".json") as fh:
            head = json.load(fh)
        names = head["names"]
        arrays = [array(code) for code in "iddii"]
        count = head["count"]
        with open(path + ".bin", "rb") as fh:
            for arr in arrays:
                arr.fromfile(fh, count)
        name, start, end, parent, _ = arrays
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * count
        for i in range(count):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        layer = [n.split(".", 1)[0] for n in names]
        for i in range(count):
            nid, p = name[i], parent[i]
            qual, own = names[nid], dur[i] - child[i]
            self.calls[qual] += 1
            self.self_time[qual] += own
            self.layer_self[layer[nid]] += own
            if p < 0 or name[p] != nid:
                self.total[qual] += dur[i]
            if p < 0 or layer[name[p]] != layer[nid]:
                self.layer_total[layer[nid]] += dur[i]
        self.counters.update(head["counters"])
        self.walk_ns.extend(head["walk_ns"])
        self.startup_s += head["startup_s"]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(s, requests):
    """Per-layer metrics: seconds and counts per request, ratios of
    totals, and verify.<check>_s per battery run."""
    t, c, calls = s.total, s.counters, s.calls
    per = {
        "cli.startup_s": s.startup_s,
        "cli.self_s": s.layer_self["cli"],
        "partitions.index_s": t["partitions.enumerate_partitions"],
        "partitions.rho_calls": calls["partitions.rho"],
        "partitions.rho_s": t["partitions.rho"],
        "characters.table_s": t["characters.build_character_table"],
        "characters.table_builds": calls["characters.build_character_table"],
        "characters.table_cells": c["table_cells"],
        "characters.cache_load_s": t["characters.load_table"],
        "characters.cache_hits": c["cache_hits"],
        "characters.cache_misses": c["cache_misses"],
        "counting.spectral_self_s": s.self_time["counting.count_spectral"],
        "counting.series_self_s": s.self_time["counting.series_prefix"],
        "counting.spectral_calls": calls["counting.count_spectral"],
        "counting.matrix_self_s": s.self_time["counting.count_matrix_method"],
        "counting.closed_form_s": t["counting.count_goulden"]
        + t["counting.count_two_cycle"],
        "transition.build_s": t["transition.build_transition_matrix"],
        "transition.entries_stored": c["entries_stored"],
        "transition.power_s": t["transition.matrix_power_apply"],
        "transition.power_steps": c["power_steps"],
        "oracle.walk_s": t["oracle.walk_distributions"],
        "oracle.walk_builds": calls["oracle.walk_distributions"],
        "oracle.tuples_s": t["oracle.count_tuples"],
        "symfun.dstar_matrix_s": t["symfun.matrix_of_dstar"],
        "symfun.schur_s": t["symfun.schur_from_characters"]
        + t["symfun.schur_p_coords"],
        "serialize.emit_s": s.layer_total["serialize"],
        "serialize.bytes_out": c["bytes_out"],
    }
    metrics = {name: value / requests for name, value in per.items()}
    metrics["characters.cells_read_ratio"] = _ratio(c["cells_read"],
                                                    c["table_cells"])
    metrics["transition.nonzero_ratio"] = _ratio(c["entries_nonzero"],
                                                 c["entries_stored"])
    metrics["oracle.walk_distinct_ratio"] = _ratio(len(set(s.walk_ns)),
                                                   len(s.walk_ns))
    for check in VERIFY_CHECKS:
        metrics[f"verify.{check}_s"] = c[f"verify.{check}_s"]
    return metrics


# ---------------------------------------------------------------------------
# child process of one traced CLI request


def main(argv):
    out, spawned, sep, cli_args = argv[0], float(argv[1]), argv[2], argv[3:]
    if sep != "--":
        raise SystemExit("usage: spans.py OUT SPAWN_TIME -- ARGS...")
    import permfact.cli
    rec = install()
    rec.startup_s = time.perf_counter() - spawned
    try:
        code = permfact.cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    rec.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
