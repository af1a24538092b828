"""The permfact benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cold-count --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; permfact is imported from ./src. One
closed-loop client sends the next request only after the previous one
returned. The run serves a fixed number of rounds of the seeded stream,
sized so that the requests take about --seconds on the machine that
defined the benchmark (workloads.py). Every output is checked outside
the timed region (checks.py).

--trace 0 reports the end-to-end metrics. --trace 1 serves every request
twice, untraced and then with every permfact layer wrapped in spans
(spans.py), and reports per-layer metrics and the tracing overhead; the
two outputs of each request must be byte-identical.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. The lines before it print every metric by name with its
unit, the environment, and the digests of the outputs.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

REQUEST_TIMEOUT_S = 60   # a request slower than this is killed and fails
MEASURE_CAP_S = 100      # stop mid-round past this, to end within 180 s
WORKER_EXIT_S = 10       # a crosscheck worker that does not exit is killed
STARTUP_PROBES = 5
WARM_TABLES = (18, 20)

UNITS = {"requests_per_s": "1/s", "latency_p50_s": "s",
         "latency_tail_s": "s", "cpu_per_request_s": "s",
         "peak_rss_mb": "MB", "setup_s": "s", "success_ratio": "ratio"}


@dataclass
class Outcome:
    req: object
    latency: float
    cpu: float
    rss_kb: int
    error: str
    digest: str


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def _wait(proc, timeout):
    """Reap proc and return its rusage; kill it after timeout seconds."""
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except Timeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_child(cmd, env):
    """Run cmd to its end; a blocking wait4 times it to the microsecond,
    where subprocess.run with a timeout polls in steps of up to 50 ms."""
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, env=env, cwd=ROOT)
    _wait(proc, REQUEST_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError(f"{cmd} exited with code {proc.returncode}")


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PERMFACT_CACHE_DIR", None)
    return env


def startup_seconds(env):
    """Median wall time of a fresh interpreter importing permfact."""
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "import permfact"], env)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class CliClient:
    """Runs each request as a fresh `permfact` CLI process, traced or not."""

    def __init__(self, work, env, ref, cache_dir, trace):
        self.work, self.env, self.ref, self.trace = work, env, ref, trace
        self.cache = ["--cache-dir", str(cache_dir)] if cache_dir else []
        self.traced = 0

    def serve(self, req):
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            if self.trace:
                self.traced += 1
                cmd = [sys.executable, str(HERE / "spans.py"),
                       str(self.work / f"spans{self.traced}"), repr(t0), "--"]
            else:
                cmd = [sys.executable, "-m", "permfact.cli"]
            proc = subprocess.Popen(cmd + req.argv() + self.cache,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            usage = _wait(proc, REQUEST_TIMEOUT_S)
            latency = time.perf_counter() - t0
        stdout = out_path.read_bytes()
        error = checks.check_cli(req, proc.returncode, stdout, self.ref)
        if error and proc.returncode:
            error += ": " + err_path.read_text(errors="replace")[-300:].strip()
        return Outcome(req, latency, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss, error, checks.digest(stdout))

    def span_files(self):
        return [str(self.work / f"spans{i}") for i in range(1, self.traced + 1)]

    def close(self):
        pass


class ApiClient:
    """Sends each request to one long-lived worker process, which records
    spans into spans_out when that is given."""

    def __init__(self, env, spans_out=None):
        self.spans_out = spans_out
        self.ids = 0
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")]
            + ([spans_out] if spans_out else []), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        self._read()  # the ready line

    def _read(self):
        signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
        try:
            line = self.proc.stdout.readline()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not line:
            raise RuntimeError("crosscheck worker exited")
        return json.loads(line)

    def serve(self, req):
        self.ids += 1
        message = {"id": self.ids, "kind": req.kind, "mu": list(req.mu),
                   "k": req.k, "tuples": req.tuples}
        t0 = time.perf_counter()
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        reply = self._read()
        latency = time.perf_counter() - t0
        if "error" in reply:
            error = body = reply["error"]
        elif req.kind == "battery":
            body = reply["results"]
            error = checks.check_battery(body)
        else:
            body = reply["values"]
            error = checks.check_query(req, body)
        data = json.dumps(body, sort_keys=True).encode()
        return Outcome(req, latency, reply["cpu"], reply["rss_kb"], error,
                       checks.digest(data))

    def span_files(self):
        return [self.spans_out]

    def close(self):
        """End the worker: it writes its spans and exits at end of input."""
        self.proc.stdin.close()
        _wait(self.proc, WORKER_EXIT_S)
        self.proc.stdout.close()


def serve_rounds(client, stream, count, traced=None):
    """Serve `count` rounds of the stream; the outcomes, round by round.

    With a second, traced client, each request is served by it right
    after the untraced one, so both see the same machine state; its
    outcomes come back as a flat list.
    """
    served, replay, measured = [], [], 0.0
    for round_ in itertools.islice(stream, count):
        outcomes = []
        for req in round_:
            outcomes.append(client.serve(req))
            measured += outcomes[-1].latency
            if traced is not None:
                replay.append(traced.serve(req))
            if measured > MEASURE_CAP_S:
                break
        served.append(outcomes)
        if measured > MEASURE_CAP_S:
            break
    return served, replay


def end_to_end(outcomes, setup_s):
    latencies = sorted(o.latency for o in outcomes)
    count = len(latencies)
    ok = sum(1 for o in outcomes if o.error is None)
    if count >= 11:  # highest percentile with ten samples beyond it
        tail, pct = latencies[count - 11], 100 * (count - 10) / count
    else:  # only when MEASURE_CAP_S cut the run short: the maximum
        tail, pct = latencies[-1], 100.0
    metrics = {
        "requests_per_s": ok / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "cpu_per_request_s": sum(o.cpu for o in outcomes) / count,
        "peak_rss_mb": max(o.rss_kb for o in outcomes) / 1024,
        "setup_s": setup_s,
        "success_ratio": ok / count,
    }
    notes = {"latency_tail_s": f"p{pct:.1f} of {count} samples",
             "success_ratio": "1 - fail_ratio"}
    return metrics, notes


def round_digests(rounds_served):
    return [hashlib.sha256("".join(o.digest for o in r).encode())
            .hexdigest()[:16] for r in rounds_served]


def environment():
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              env=dict(os.environ,
                                       GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        git_head = head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_head = "unknown"
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "git_head": git_head}


def make_client(workload, work, env, ref, cache_dir, trace=False):
    if workload == "crosscheck":
        return ApiClient(env, str(work / "worker-spans") if trace else None)
    return CliClient(work, env, ref, cache_dir, trace)


def set_up(workload, work, env):
    """Set-up seconds, and the table cache directory for warm-series."""
    setup_s = startup_seconds(env)
    if workload != "warm-series":
        return setup_s, None
    cache_dir = work / "cache"
    t0 = time.perf_counter()
    for n in WARM_TABLES:
        run_child([sys.executable, "-m", "permfact.cli", "count", "--method",
                   "spectral", "--mu", str(n), "--k", "0", "--cache-dir",
                   str(cache_dir)], env)
    return setup_s + time.perf_counter() - t0, cache_dir


def run(args, work):
    """Serve the run; returns report lines, outcomes, metrics, units and
    whether traced outputs equal untraced ones."""
    t0 = time.perf_counter()
    env = child_env()
    ref = checks.Reference()
    setup_s, cache_dir = set_up(args.workload, work, env)
    client = make_client(args.workload, work, env, ref, cache_dir)
    traced = None
    if args.trace:
        traced = make_client(args.workload, work, env, ref, cache_dir,
                             trace=True)
    try:
        served, replay = serve_rounds(
            client, workloads.rounds(args.workload, args.seed),
            workloads.rounds_for(args.workload, args.seconds), traced)
        if args.workload == "crosscheck":
            battery = workloads.Request("battery", 0)
            served[-1].append(client.serve(battery))
            if traced is not None:
                replay.append(traced.serve(battery))
    finally:
        client.close()
        if traced is not None:
            traced.close()
    outcomes = [o for r in served for o in r]
    lines = [f"workload {args.workload}, seed {args.seed}, "
             f"{len(served)} rounds, {len(outcomes)} requests, "
             f"{sum(o.latency for o in outcomes):.2f} s in requests, "
             f"{time.perf_counter() - t0:.1f} s in all",
             f"environment {json.dumps(environment())}",
             "round digests " + " ".join(round_digests(served))]
    lines += [f"FAILED {o.req}: {o.error}" for o in outcomes if o.error]
    if not args.trace:
        metrics, notes = end_to_end(outcomes, setup_s)
        for name, value in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            lines.append(f"{name} = {value:.6g} {UNITS[name]}{note}")
        failed = sum(1 for o in outcomes if o.error)
        lines.append(f"fail_ratio = {failed / len(outcomes):.6g} ratio  "
                     f"({failed} of {len(outcomes)} requests failed)")
        return lines, outcomes, metrics, UNITS, True

    summary = spans.Summary()
    for path in traced.span_files():
        summary.add(path)
    metrics = spans.layer_metrics(summary, len(replay))
    untraced = sum(o.latency for o in outcomes)
    overhead = sum(o.latency for o in replay) - untraced
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / untraced
    same = [a.digest == b.digest for a, b in zip(outcomes, replay)]
    lines.append(f"traced: {len(replay)} requests, each right after its "
                 f"untraced twin; outputs identical for {sum(same)} of "
                 f"{len(same)}")
    lines.append(f"tracing overhead = {overhead:.4f} s "
                 f"({100 * overhead / untraced:.1f} % of {untraced:.3f} s)")
    lines.append("layer seconds per request (total / self):")
    for layer in spans.MODULES:
        lines.append(f"  {layer:<11} {summary.layer_total[layer] / len(replay):10.4f}"
                     f" {summary.layer_self[layer] / len(replay):10.4f}")
    lines += [f"FAILED traced {o.req}: {o.error}" for o in replay if o.error]
    units = {name: layer_unit(name) for name in metrics}
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    return lines, outcomes + replay, metrics, units, all(same)


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name.endswith("bytes_out") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        lines, outcomes, metrics, units, identical = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for o in outcomes if o.error)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0 and identical,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "permfact" / "cli.py").is_file():
        print(f"error: no permfact sources under {SRC}; run from the root "
              "of a permfact checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import checks
    import spans
    import workloads
    sys.exit(main())
