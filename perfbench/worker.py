"""The crosscheck server: one long-lived process on the permfact API.

Reads one JSON request per line on stdin and answers one JSON line on
stdout, so caches stay warm across requests as they do in a test run or
in `permfact verify`. Calls go through attributes of the permfact
package, so the wrappers that spans.install() puts there are used.

    python3 perfbench/worker.py [SPANS_OUT]
"""

import json
import resource
import sys


def _usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def answer(permfact, req):
    if req["kind"] == "battery":
        return {"results": [[r.name, r.status, r.detail]
                            for r in permfact.run_battery(deep=True)]}
    mu, k = tuple(req["mu"]), req["k"]
    values = {"spectral": permfact.count_spectral(mu, k),
              "matrix": permfact.count_matrix_method(mu, k),
              "brute": permfact.count_brute(mu, k)}
    if len(mu) == 1:
        values["goulden"] = permfact.count_goulden(sum(mu), k)
    if len(mu) == 2:
        values["two-cycle"] = permfact.count_two_cycle(mu[0], mu[1], k)
    if req["tuples"]:
        values["tuples"] = permfact.count_tuples(mu, k)
    return {"values": {route: str(v) for route, v in values.items()}}


def main(argv):
    import permfact
    recorder = None
    if argv:
        import spans
        recorder = spans.install()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        if recorder is not None:
            recorder.request = req["id"]
        cpu0, _ = _usage()
        try:
            reply = answer(permfact, req)
        except Exception as exc:  # reported to the client as a failed request
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        cpu1, rss_kb = _usage()
        reply.update(id=req["id"], cpu=cpu1 - cpu0, rss_kb=rss_kb)
        print(json.dumps(reply), flush=True)
    if recorder is not None:
        recorder.dump(argv[0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
