import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from math import factorial

import pytest

import permfact
from permfact import characters, counting, serialize
from permfact.characters import build_character_table
from permfact.cli import main
from permfact.counting import ROUTES, spectral_expansion
from permfact.partitions import enumerate_partitions, rho
from permfact.transition import build_transition_matrix


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_all_methods_match(capsys):
    # (3,1): spectral, matrix, two-cycle, brute; (1): no A_1, so spectral,
    # goulden, brute. (3,2,1) and (5,2,1): spectral and matrix, plus brute
    # within its ceilings n <= 7, k <= 16 only
    for argv, value, methods in (
            (["--n", "4", "--mu", "3,1", "--k", "4"], 108, 4),
            (["--mu", "1", "--k", "0"], 1, 3),
            (["--mu", "1", "--k", "3"], 0, 3),
            (["--mu", "3,2,1", "--k", "15"], 1216371917525319, 3),
            (["--mu", "3,2,1", "--k", "17"], 273683681486243496, 2),
            (["--mu", "5,2,1", "--k", "7"], 633125, 2)):
        code, out, _ = run_cli(["count"] + argv, capsys)
        assert code == 0, argv
        assert out.count(f"= {value}\n") == methods, out
        assert out.endswith("MATCH\n"), out


def test_count_parity_zero(capsys):
    code, out, _ = run_cli(["count", "--mu", "1,1,1,1", "--k", "3",
                            "--method", "spectral"], capsys)
    assert code == 0
    assert "= 0" in out


def test_count_goulden_equals_spectral(capsys):
    code1, out1, _ = run_cli(["count", "--n", "10", "--mu", "10", "--k", "9",
                              "--method", "goulden"], capsys)
    code2, out2, _ = run_cli(["count", "--n", "10", "--mu", "10", "--k", "9",
                              "--method", "spectral"], capsys)
    assert code1 == code2 == 0
    assert out1.split("=")[1].strip() == out2.split("=")[1].strip()


def test_count_json_round_trip(capsys):
    code, out, _ = run_cli(["count", "--mu", "3,1", "--k", "4",
                            "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["spectral"] == "108"
    assert payload["mu"] == [3, 1]
    assert payload["n"] == 4


def test_count_single_method_json_schema(capsys):
    code, out, _ = run_cli(["count", "--mu", "3,1", "--k", "4",
                            "--method", "matrix", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 4, "mu": [3, 1], "k": 4,
                       "count": "108", "method": "matrix"}


def test_max_n_override_raises_ceiling(capsys):
    argv = ["count", "--mu", "12,9", "--k", "1", "--method", "matrix"]
    assert run_cli(argv, capsys)[0] == 2  # default ceiling refuses n=21
    code, out, _ = run_cli(argv + ["--max-n", "22"], capsys)
    assert code == 0
    assert "= 0" in out  # one transposition cannot produce a (12,9) type


def test_max_n_honoured_past_default_ceiling(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path)]  # accepted and ignored
    runs = {"partitions": ["partitions", "--n", "21"],
            "matrix": ["matrix", "--n", "21", "--format", "csv"],
            "chartable": ["chartable", "--n", "21", "--format", "csv"],
            "count": ["count", "--mu", "11,10", "--k", "3"] + cache,
            "series": ["series", "--mu", "11,10", "--terms", "4"] + cache}
    outs = {}
    for name, argv in runs.items():
        assert run_cli(argv, capsys)[0] == 2, name  # default ceiling is 20
        code, outs[name], _ = run_cli(argv + ["--max-n", "25"], capsys)
        assert code == 0, name
    assert len(outs["partitions"].splitlines()) == 792
    assert len(outs["matrix"].splitlines()) == 793
    assert len(outs["chartable"].splitlines()) == 793
    assert outs["count"].splitlines() == [
        f"c_3(11+10) [{m}] = 0" for m in ("spectral", "matrix", "two-cycle")
    ] + ["MATCH"]
    assert outs["series"].startswith("f_11+10 coefficients: 0, 0, 0, 0\n")


def test_mu_parsing_any_order(capsys):
    code1, out1, _ = run_cli(["count", "--mu", "1,3", "--k", "4",
                              "--method", "spectral"], capsys)
    code2, out2, _ = run_cli(["count", "--mu", "3,1", "--k", "4",
                              "--method", "spectral"], capsys)
    assert out1 == out2 and code1 == code2 == 0


def test_usage_errors_exit_2(capsys):
    assert run_cli(["count", "--n", "5", "--mu", "3,1", "--k", "2"],
                   capsys)[0] == 2
    assert run_cli(["count", "--mu", "3,x", "--k", "2"], capsys)[0] == 2
    assert run_cli(["count", "--mu", "9,9,9", "--k", "1",
                    "--method", "brute"], capsys)[0] == 2
    assert run_cli(["count", "--mu", "1,1,1", "--k", "-1",
                    "--method", "brute"], capsys)[0] == 2
    assert run_cli(["count", "--mu", "3,1", "--k", "2",
                    "--method", "goulden"], capsys)[0] == 2
    assert run_cli(["matrix", "--n", "1"], capsys)[0] == 2
    assert run_cli(["partitions", "--n", "25"], capsys)[0] == 2
    # options a subcommand does not read, --jobs among them with any
    # value, are refused by argparse itself
    too_many = str((os.cpu_count() or 1) + 1)
    for argv in (["verify", "--format", "json"], ["verify", "--n", "5"],
                 ["verify", "--max-n", "25"], ["verify", "--cache-dir", "X"],
                 ["matrix", "--n", "3", "--cache-dir", "X"],
                 ["matrix", "--n", "3", "--jobs", "2"],
                 ["partitions", "--n", "4", "--cache-dir", "X"],
                 ["partitions", "--n", "4", "--jobs", "2"],
                 ["count", "--mu", "3,1", "--k", "2", "--jobs", "-3"],
                 ["chartable", "--n", "3", "--jobs", "0"],
                 ["series", "--mu", "3", "--terms", "2", "--jobs", "0"],
                 ["verify", "--jobs", "0"], ["verify", "--jobs", "x"],
                 ["count", "--mu", "3,1", "--k", "2", "--jobs", "2"],
                 ["series", "--mu", "3", "--terms", "2", "--jobs", "2"],
                 ["verify", "--jobs", too_many],
                 ["chartable", "--n", "3", "--jobs", too_many],
                 ["chartable", "--n", "4", "--cache-dir", "X"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_matrix_output(capsys, dense):
    code, out, _ = run_cli(["matrix", "--n", "4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    entries = [[int(v) for v in row] for row in payload["entries"]]
    assert entries == dense(build_transition_matrix(4))
    assert payload["order"][0] == "1+1+1+1"


def test_matrix_csv_round_trip(capsys, dense):
    code, out, _ = run_cli(["matrix", "--n", "5", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    index = enumerate_partitions(5)
    assert lines[0].split(",")[1:] == \
        [serialize.partition_label(lam) for lam in index]
    parsed = [[int(v) for v in line.split(",")[1:]] for line in lines[1:]]
    assert parsed == dense(build_transition_matrix(5))


def test_matrix_eigen_listing(capsys):
    code, out, _ = run_cli(["matrix", "--n", "3", "--eigen"], capsys)
    assert code == 0
    assert "1+1+1: -3" in out
    assert "2+1: 0" in out
    assert "3: 3" in out


def test_matrix_eigen_json_stays_parseable(capsys):
    code, out, _ = run_cli(["matrix", "--n", "8", "--eigen",
                            "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    values = sorted(int(v) for _, v in payload["eigenvalues"])
    assert values == [-28, -20, -14, -12, -10, -8, -7, -4, -4, -2, 0, 0,
                      2, 4, 4, 7, 8, 10, 12, 14, 20, 28]


def test_cache_dir_env_var_is_ignored(tmp_path, capsys, monkeypatch):
    argv = ["chartable", "--n", "4"]
    clean = run_cli(argv, capsys)
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    monkeypatch.setenv("PERMFACT_CACHE_DIR", str(not_a_dir))
    assert run_cli(argv, capsys) == clean
    assert clean[0] == 0


def test_count_and_series_read_no_table(tmp_path, capsys, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a full character table was built")

    monkeypatch.setattr(characters, "_table_rows", no_table)
    code, out, _ = run_cli(["count", "--mu", "6,5,4", "--k", "14",
                            "--cache-dir", str(tmp_path)], capsys)
    assert code == 0 and out.endswith("MATCH\n"), out
    assert "[spectral] = 2583039932928000\n" in out
    assert list(tmp_path.iterdir()) == []  # --cache-dir is accepted, unused
    code, out, _ = run_cli(["series", "--mu", "5,4,3,3,2,1", "--terms", "12"],
                           capsys)
    assert code == 0, out


def test_chartable_row_of_ones(capsys):
    code, out, _ = run_cli(["chartable", "--n", "5", "--format", "json"],
                           capsys)
    payload = json.loads(out)
    assert payload["values"][-1] == ["1"] * 7  # row of the single-row shape


def test_series_output(capsys):
    code, out, _ = run_cli(["series", "--n", "3", "--mu", "3",
                            "--terms", "4"], capsys)
    assert code == 0
    assert "0, 0, 3/2, 0" in out
    code, out, _ = run_cli(["series", "--mu", "1,1,1", "--terms", "5",
                            "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["coefficients"][0] == "1"
    assert payload["coefficients"][1] == "0"
    code, out, _ = run_cli(["series", "--mu", "3", "--terms", "4",
                            "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[1:] == ["0,0", "1,0", "2,3/2", "3,0"]


def test_partitions_listing(capsys):
    code, out, _ = run_cli(["partitions", "--n", "4"], capsys)
    assert code == 0
    assert out.splitlines() == ["1+1+1+1", "2+1+1", "2+2", "3+1", "4"]
    code, out, _ = run_cli(["partitions", "--n", "4", "--format", "json"],
                           capsys)
    payload = json.loads(out)
    assert payload["count"] == 5
    assert payload["partitions"][0] == [1, 1, 1, 1]


def test_deterministic_outputs(capsys):
    for argv in (["matrix", "--n", "6", "--format", "json"],
                 ["partitions", "--n", "7", "--format", "csv"],
                 ["count", "--mu", "4,2", "--k", "6", "--format", "json"]):
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first == second


def test_parser_rejects_unknown_method(capsys):
    # a name outside the route table exits 2, naming every route and all
    code, out, err = run_cli(["count", "--mu", "3", "--k", "2",
                              "--method", "nope"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: unknown method 'nope'; choose from spectral, " \
        "matrix, goulden, two-cycle, brute or all\n"


def test_method_choices_are_the_route_table(capsys):
    # --method takes each row of the table, in its order, and all: each
    # answers for some mu
    assert list(ROUTES) == ["spectral", "matrix", "goulden", "two-cycle",
                            "brute"]
    for method in [*ROUTES, "all"]:
        codes = [run_cli(["count", "--mu", mu, "--k", "2", "--method",
                          method], capsys)[0] for mu in ("3", "2,1")]
        assert 0 in codes, method


def test_a_row_added_to_the_table_is_a_method(monkeypatch, capsys):
    monkeypatch.setitem(counting.ROUTES, "dummy", (
        lambda mu, k: None, lambda mu, k: counting.count_spectral(mu, k),
        None))
    code, out, _ = run_cli(["count", "--mu", "2,2", "--k", "2",
                            "--method", "dummy"], capsys)
    assert (code, out) == (0, "c_2(2+2) [dummy] = 2\n")
    # all runs it after the others, in table order
    code, out, _ = run_cli(["count", "--mu", "2,2", "--k", "2",
                            "--format", "csv"], capsys)
    assert (code, out) == (0, "method,count\n" + "".join(
        f"{name},2\n" for name in ("spectral", "matrix", "two-cycle",
                                   "brute", "dummy")))


def _whole_grid_output(command, n, fmt, eigen, dense):
    """matrix or chartable stdout as it was written from a whole grid of
    ints: json.dumps of all of it, csv.writer, and the padded text grid."""
    index = enumerate_partitions(n)
    labels = [serialize.partition_label(lam) for lam in index]
    if command == "matrix":
        key, grid = "entries", dense(build_transition_matrix(n))
    else:
        key, grid = "values", build_character_table(n).values
    pairs = [(serialize.partition_label(lam), r)
             for r, lam in sorted((rho(lam), lam) for lam in index)]
    if fmt == "json":
        payload = {"n": n, "order": labels,
                   key: [[str(v) for v in row] for row in grid]}
        if eigen:
            payload["eigenvalues"] = [[label, str(r)] for label, r in pairs]
        return json.dumps(payload, sort_keys=True, separators=(",", ": "),
                          indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([""] + labels)
        for label, row in zip(labels, grid):
            writer.writerow([label] + [str(v) for v in row])
        for label, r in pairs if eigen else ():
            buf.write(f"eigenvalue,{label},{r}\n")
        return buf.getvalue()
    width = max(max(len(s) for s in labels),
                max(len(str(v)) for row in grid for v in row))
    lines = [" " * (width + 2) + " ".join(f"{s:>{width}}" for s in labels)]
    lines += [f"{label:>{width}}: " + " ".join(f"{v:>{width}}" for v in row)
              for label, row in zip(labels, grid)]
    if eigen:
        lines += ["eigenvalues:"] + [f"  {label}: {r}" for label, r in pairs]
    return "\n".join(lines) + "\n"


def test_grid_outputs_match_whole_grid_formatters(capsys, dense):
    cases = [("matrix", n, fmt, eigen) for n in range(2, 11)
             for fmt in ("text", "csv", "json") for eigen in (False, True)]
    cases += [("chartable", n, fmt, False) for n in range(1, 8)
              for fmt in ("text", "csv", "json")]
    # A_16: 231 shapes, 0.9 % stored, every row spliced into zeros; the
    # character table of S_12 has negative values and labels wider than
    # any value
    cases += [("matrix", 16, fmt, eigen) for fmt in ("text", "csv", "json")
              for eigen in (False, True)]
    cases += [("chartable", 12, fmt, False) for fmt in ("text", "csv", "json")]
    for command, n, fmt, eigen in cases:
        argv = [command, "--n", str(n), "--format", fmt]
        code, out, _ = run_cli(argv + ["--eigen"] * eigen, capsys)
        assert code == 0, argv
        assert out == _whole_grid_output(command, n, fmt, eigen, dense), \
            (argv, eigen)


def test_matrix_json_peak_memory():
    # the rows are written one at a time from sparse A_22 (0.1 % nonzero);
    # a whole grid of its 1M entries and their strings peaked at 174 MB.
    # The child reads its peak from VmHWM where Linux has it: ru_maxrss
    # keeps the spawning process's peak across exec, so it would report
    # this test process's size.
    child = (
        "import os, resource, sys\n"
        "from permfact.cli import main\n"
        "code = main(['matrix', '--n', '22', '--max-n', '22',"
        " '--format', 'json'])\n"
        "sys.stdout.flush()\n"
        "if os.path.exists('/proc/self/status'):\n"
        "    kb = next(int(line.split()[1]) for line in"
        " open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "else:\n"
        "    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    kb //= 1024 if sys.platform == 'darwin' else 1\n"
        "sys.stderr.write(f'{code} {kb}')\n")
    src = os.path.dirname(os.path.dirname(permfact.__file__))
    result = subprocess.run([sys.executable, "-c", child],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src},
                            text=True, timeout=300)
    code, kb = map(int, result.stderr.split())
    assert code == 0
    assert kb < 100 * 1024, f"peak RSS {kb / 1024:.0f} MB"


def test_count_leaves_battery_unloaded():
    # symfun and verify are loaded on first use, and only then
    child = (
        "import sys\n"
        "import permfact.cli\n"
        "assert permfact.cli.main(['count', '--mu', '3,2', '--k', '5']) == 0\n"
        "loaded = {'permfact.verify', 'permfact.symfun'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "import permfact\n"
        "assert set(permfact.__all__) <= set(dir(permfact))\n"
        "assert permfact.run_battery.__module__ == 'permfact.verify'\n"
        "assert permfact.Poly.__module__ == 'permfact.oracle'\n"
        "assert not hasattr(permfact, 'no_such_name')\n"
        "names = {}\n"
        "exec('from permfact import *', names)\n"
        "missing = set(permfact.__all__) - set(names)\n"
        "assert not missing, missing\n")
    src = os.path.dirname(os.path.dirname(permfact.__file__))
    result = subprocess.run([sys.executable, "-c", child],
                            capture_output=True, text=True, timeout=300,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("MATCH\n"), result.stdout


# printed last: the names in sys.modules after `import permfact` and the
# CLI run of the arguments, if any
_MODULE_PROBE = (
    "import sys\n"
    "import permfact\n"
    "if sys.argv[1:]:\n"
    "    from permfact.cli import main\n"
    "    assert main(sys.argv[1:]) == 0\n"
    "print(*sorted(sys.modules))\n")


def _modules_after(*argv, probe=_MODULE_PROBE):
    """The modules a fresh interpreter holds after importing permfact and
    running argv. It starts without site (-S), so whatever it holds
    beyond the interpreter's own start-up, permfact imported."""
    src = os.path.dirname(os.path.dirname(permfact.__file__))
    result = subprocess.run([sys.executable, "-S", "-c", probe,
                             *argv], capture_output=True, text=True,
                            timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def test_import_loads_no_submodule():
    loaded = _modules_after()
    assert "permfact" in loaded
    assert not {m for m in loaded if m.startswith("permfact.")}, loaded


@pytest.mark.parametrize("argv, unloaded", [
    # n = 15 is past the brute-force ceiling, so brute force never runs
    (["count", "--mu", "9,4,2", "--k", "13"],
     {"dataclasses", "inspect", "fractions", "decimal", "json",
      "permfact.symfun", "permfact.verify", "permfact.oracle"}),
    # the matrix route reads no character values
    (["count", "--mu", "14,10", "--k", "24", "--method", "matrix",
      "--max-n", "30"],
     {"permfact.characters", "permfact.oracle"}),
    # a spectral count or series never walks the matrix
    (["count", "--mu", "9,4,2", "--k", "13", "--method", "spectral"],
     {"permfact.transition", "permfact.oracle"}),
    (["series", "--mu", "9,4,2", "--terms", "6"],
     {"dataclasses", "permfact.oracle", "permfact.transition"}),
    (["matrix", "--n", "9"], {"permfact.counting", "permfact.characters"}),
])
def test_subcommand_loads_only_its_route(argv, unloaded):
    loaded = _modules_after(*argv)
    assert "permfact.cli" in loaded
    assert not loaded & unloaded, loaded & unloaded


def _modules_importing(module):
    """The modules a fresh interpreter holds after `import module`."""
    return _modules_after(probe=f"import sys\nimport {module}\n"
                          "print(*sorted(sys.modules))\n")


def test_symfun_loads_no_characters():
    # symfun reads the tables its callers pass and builds none
    loaded = _modules_importing("permfact.symfun")
    assert "permfact.symfun" in loaded
    assert "permfact.characters" not in loaded


@pytest.mark.parametrize("route", ["transition", "characters"])
def test_route_module_loads_only_partitions(route):
    # the references and comparisons that check a route live in oracle
    # and verify, so a route loads nothing it does not run
    loaded = _modules_importing(f"permfact.{route}")
    assert {m for m in loaded if m.startswith("permfact.")} == \
        {f"permfact.{route}", "permfact.partitions"}


def test_oracle_loads_no_route():
    loaded = _modules_importing("permfact.oracle")
    assert "permfact.oracle" in loaded
    assert not loaded & {"permfact.characters", "permfact.transition"}


def test_battery_loads_no_dataclasses():
    loaded = _modules_importing("permfact.verify")
    assert "permfact.verify" in loaded
    assert "dataclasses" not in loaded


def test_package_binds_each_name_from_its_module():
    for name in permfact.__all__:
        module = importlib.import_module(f"permfact.{permfact._LAZY[name]}")
        value = getattr(permfact, name)
        assert value is getattr(module, name), name
        assert vars(permfact)[name] is value, name  # bound on first read
        if callable(value):
            assert value.__module__ == module.__name__, name


def test_count_past_column_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(characters, "COLUMN_MAX_STATES", 5)
    code, out, err = run_cli(["count", "--mu", "1,1,1,1,1,1", "--k", "4",
                              "--method", "spectral"], capsys)
    assert code == 2
    assert out == ""
    assert err.endswith("COLUMN_MAX_STATES = 5\n"), err


FORMATS = ("text", "csv", "json")


def _grid():
    """Every subcommand but verify in every format: partitions,
    chartable and matrix with and without --eigen at n = 0..13; series
    for every mu of n <= 8 at 1, 3 and 12 terms; count for every mu of
    n <= 8 by every method at k = 0, 1, n - l, n - l + 2, 12 and 17."""
    for n in range(14):
        for fmt in FORMATS:
            yield ["partitions", "--n", str(n), "--format", fmt]
            yield ["chartable", "--n", str(n), "--format", fmt]
            yield ["matrix", "--n", str(n), "--format", fmt]
            yield ["matrix", "--n", str(n), "--format", fmt, "--eigen"]
    methods = ("spectral", "matrix", "goulden", "two-cycle", "brute", "all")
    for n in range(1, 9):
        for mu in enumerate_partitions(n):
            literal = ",".join(map(str, mu))
            ks = sorted({0, 1, n - len(mu), n - len(mu) + 2, 12, 17})
            for fmt in FORMATS:
                for terms in (1, 3, 12):
                    yield ["series", "--mu", literal, "--terms", str(terms),
                           "--format", fmt]
                for k in ks:
                    for method in methods:
                        yield ["count", "--mu", literal, "--k", str(k),
                               "--method", method, "--format", fmt]


def _quiet_main(argv):
    """main's exit code and stdout, stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_stdout_and_exit_codes_match_recorded_digest():
    # stdout and exit code of 7,620 invocations, hashed: the recorded
    # digest pins every output format byte for byte (stderr is not hashed)
    digest = hashlib.sha256()
    for argv in _grid():
        code, out = _quiet_main(argv)
        digest.update(repr((argv, code, out)).encode())
    assert digest.hexdigest() == \
        "ada423b617fbcd5f5be4dbd11b5e50b0c73d40b879642983499bec1e6873e288"


def test_all_runs_every_route_in_reach():
    # spectral always; matrix from n = 2; a closed form where mu has one
    # or two parts; brute force within n <= 7, k <= 16
    for n in range(1, 9):
        for mu in enumerate_partitions(n):
            for k in range(18):
                expected = ["spectral"] + ["matrix"] * (n >= 2) \
                    + ["goulden"] * (len(mu) == 1) \
                    + ["two-cycle"] * (len(mu) == 2) \
                    + ["brute"] * (n <= 7 and k <= 16)
                code, out = _quiet_main(["count", "--mu",
                                         ",".join(map(str, mu)),
                                         "--k", str(k), "--format", "csv"])
                lines = out.splitlines()
                assert code == 0 and lines[0] == "method,count", (mu, k)
                assert [line.split(",")[0] for line in lines[1:]] == \
                    expected, (mu, k)


def test_named_route_out_of_reach_exits_2(capsys):
    for method, mu, k in (("matrix", "1", 0), ("goulden", "3,1", 2),
                          ("two-cycle", "3", 2), ("two-cycle", "2,1,1", 1),
                          ("brute", "4,4", 2), ("brute", "2,1", 17)):
        code, out, err = run_cli(["count", "--mu", mu, "--k", str(k),
                                  "--method", method], capsys)
        assert (code, out) == (2, ""), (method, mu)
        assert err.startswith(f"error: {method} method "), err


@contextlib.contextmanager
def _digits_unlimited():
    """No limit on int -> str conversion inside, where Python has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_count_of_any_size_reaches_stdout(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    mu, k = (20, 12, 8), 10001
    with _digits_unlimited():
        digits = str(spectral_expansion(mu).at(k))
    assert len(digits) > 4300
    argv = ["count", "--mu", "20,12,8", "--k", str(k), "--max-n", "40",
            "--method", "spectral", "--format"]
    outs = {}
    for fmt in FORMATS:
        code, outs[fmt], _ = run_cli(argv + [fmt], capsys)
        assert code == 0, fmt
        # main lifts the limit for its own call only
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() \
            == limit
    assert outs["text"] == f"c_{k}(20+12+8) [spectral] = {digits}\n"
    assert outs["csv"] == f"method,count\nspectral,{digits}\n"
    assert json.loads(outs["json"])["count"] == digits


def test_series_of_any_size_reaches_stdout(capsys):
    # c_k(2) = 1 at odd k, so coefficient k is 1/k!; 1699! has 4,741 digits
    code, out, _ = run_cli(["series", "--mu", "2", "--terms", "1700",
                            "--format", "csv"], capsys)
    assert code == 0
    with _digits_unlimited():
        assert out.splitlines()[-1] == f"1699,1/{factorial(1699)}"
