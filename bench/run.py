"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload algebra --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout that holds ``src/bigon``; the package
is imported from there, unmodified and uninstalled.

A workload's seed makes a sequence of request lists of the same classes
(``workloads.build``), each sent from a fresh interpreter so that the
package's memo caches start empty.

``--trace 0`` measures the end-to-end metrics.  It sends the lists in
order, each twice, until ``--seconds`` have passed, and times a fresh
interpreter importing ``bigon.cli`` (``setup_s``) three times before every
session.  Every time is scaled to the reference speed of ``speed.py``; a
request counts with its faster send, and the figures pool every request of
the run.

``--trace 1`` measures the per-layer metrics.  It sends each of the first
two lists once plain, once with spans around the harness's calls into each
layer, and once under cProfile, each in a fresh interpreter, and sums the
figures over the lists.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, the metrics being those BENCHMARK.json lists for the mode.  A
report with every figure, the unscaled ones, the per-size breakdown and,
when traced, the spans goes to ``bench/out/``.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

sys.path.insert(0, BENCH)
import speed  # noqa: E402  (needs the path above)
from workloads import WORKLOADS, build  # noqa: E402

SETUP_PER_SESSION = 3
# How many times a run sends each list, each time from a fresh interpreter.
SENDS = 2
# The lists of a traced run: its counts repeat exactly for a seed.
TRACED_LISTS = 2
SETUP_CODE = "import bigon.cli as cli; cli.build_parser()"
# Every child is stopped in time for the whole run to end within 180 s.
DEADLINE = time.monotonic() + 170


def _env():
    # A fixed hash seed makes set and dict orders, and so every count, repeat.
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def _child(cmd):
    """Run a fresh interpreter to the end, or stop it at the deadline."""
    try:
        return subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("error: %s did not finish before the deadline" % " ".join(cmd[1:3]))


def launch_cli():
    """Wall time for a fresh interpreter to import bigon.cli and build its parser."""
    start = time.perf_counter()
    proc = _child([sys.executable, "-c", SETUP_CODE])
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("error: importing bigon.cli exited with %d" % proc.returncode)
    return elapsed


def timed_launch():
    """A launch's wall time and its factor to the reference speed."""
    reference = speed.sample()
    elapsed = launch_cli()
    return elapsed, speed.factor(reference, speed.sample())


def run_session(workload, seed, part, mode):
    cmd = [sys.executable, os.path.join(BENCH, "session.py"), workload, str(seed), str(part), mode]
    proc = _child(cmd)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("error: %s session of %s exited with %d" % (mode, workload, proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile; failed requests sort last as infinite."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def scaled(session):
    """A session's latencies at the reference speed."""
    return [t * k for t, k in zip(session["latencies"], session["scales"])]


def summarize(lists, times=scaled):
    """The end-to-end figures of a run, pooling the requests of all its lists.

    `lists` holds, for each list, the sessions that sent it.  A request
    counts with its fastest send, and a request that fails in any send
    counts as failed, with an infinite latency.
    """
    elapsed, ok = [], []
    for sends in lists:
        elapsed += [min(t) for t in zip(*map(times, sends))]
        ok += [all(o == "ok" for o in outcomes) for outcomes in zip(*(s["outcomes"] for s in sends))]
    ranked = [e if good else math.inf for e, good in zip(elapsed, ok)]
    outcomes = [o for sends in lists for s in sends for o in s["outcomes"]]
    attempted = len(outcomes)
    failed = sum(o != "ok" for o in outcomes)
    return {
        "ops_per_s": sum(ok) / sum(elapsed),
        "latency_p50_ms": 1000 * percentile(ranked, 0.5),
        "latency_p90_ms": 1000 * percentile(ranked, 0.9),
        "fail_rate": failed / attempted,
        "peak_rss_mb": statistics.median(s["rss_mb"] for sends in lists for s in sends),
    }, attempted, failed


def size_groups(requests, sessions):
    """Median latency of each (layer, op, size) group, in milliseconds."""
    groups = defaultdict(list)
    for reqs, session in zip(requests, sessions):
        for (op, size, _), latency, outcome in zip(reqs, scaled(session), session["outcomes"]):
            groups[(op.split(".", 1)[0], op, size)].append(1000 * latency if outcome == "ok" else math.inf)
    out = []
    for (layer, op, size), v in sorted(groups.items()):
        median = statistics.median(v)
        out.append({"layer": layer, "op": op, "size": size, "count": len(v),
                    "median_ms": median if median < math.inf else None})
    return out


def measure(workload, seed, seconds):
    """Send the seed's lists in order, each twice, until `seconds` have passed.

    Three timed CLI launches go before every session, so that the set-up
    samples are spread over the run like the request samples; ``setup_s``
    is the median of them all.  The first launch only compiles the
    bytecode, as installing the package would, and is not timed.
    """
    launch_cli()
    setup, lists = [], []
    start = time.monotonic()
    while not lists or time.monotonic() - start < seconds:
        sends = []
        for _ in range(SENDS):
            setup += [timed_launch() for _ in range(SETUP_PER_SESSION)]
            sends.append(run_session(workload, seed, len(lists), "plain"))
        lists.append(sends)
    metrics, attempted, failed = summarize(lists)
    metrics["setup_s"] = statistics.median(t * k for t, k in setup)
    unscaled = summarize(lists, lambda s: s["latencies"])[0]
    unscaled["setup_s"] = statistics.median(t for t, _ in setup)
    sessions = [s for sends in lists for s in sends]
    wrong = sum(o == "wrong" for s in sessions for o in s["outcomes"])
    info = {"sessions": len(sessions), "requests": sum(len(sends[0]["outcomes"]) for sends in lists),
            "samples": attempted}
    cache_sizes = {name: sorted(s["cache_sizes"][name] for s in sessions)[len(sessions) // 2]
                   for name in sessions[0]["cache_sizes"]}
    return metrics, attempted, failed, wrong, info, {"unscaled": unscaled, "cache_sizes": cache_sizes}


def measure_traced(workload, seed):
    """Send each of the first TRACED_LISTS lists plain, traced and profiled."""
    metrics = defaultdict(int)
    plain, spans, attempted, failed, wrong = [], [], 0, 0, 0
    for part in range(TRACED_LISTS):
        runs = [run_session(workload, seed, part, mode) for mode in ("plain", "trace", "profile")]
        for name, value in list(runs[1]["metrics"].items()) + list(runs[2]["metrics"].items()):
            metrics[name] += value
        metrics["plain_s"] += sum(scaled(runs[0]))
        metrics["traced_s"] += sum(scaled(runs[1]))
        plain.append(runs[0])
        spans.append(runs[1]["spans"])
        outcomes = [o for s in runs for o in s["outcomes"]]
        attempted += len(outcomes)
        failed += sum(o != "ok" for o in outcomes)
        wrong += sum(o == "wrong" for o in outcomes)
    metrics["ring.self_share"] = metrics["ring.self_s"] / metrics.pop("profile.self_s")
    metrics["trace.overhead"] = metrics.pop("traced_s") / metrics.pop("plain_s")
    requests = [build(workload, seed, part) for part in range(TRACED_LISTS)]
    info = {"sessions": 3 * TRACED_LISTS, "requests": sum(map(len, requests)), "samples": attempted}
    extra = {"groups": size_groups(requests, plain), "spans": spans}
    return dict(metrics), attempted, failed, wrong, info, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bigon", "__init__.py")):
        sys.stderr.write("error: no package at %s; run inside a checkout of the repository\n" % SRC)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_rate"] = "ratio"

    if args.trace:
        metrics, attempted, failed, wrong, info, extra = measure_traced(args.workload, args.seed)
    else:
        metrics, attempted, failed, wrong, info, extra = measure(args.workload, args.seed, args.seconds)

    env = {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()}
    print("bench %s seed %d trace %d: %d requests in %d sessions, %d samples; nproc %d, Python %s"
          % (args.workload, args.seed, args.trace, info["requests"], info["sessions"], info["samples"],
             env["nproc"], env["python"]))
    for name in sorted(metrics):
        print("  %-34s %-22r %s" % (name, metrics[name], units.get(name, "")))
    for name in sorted(extra.get("unscaled", ())):
        print("  %-34s %-22r %s" % ("unscaled " + name, extra["unscaled"][name], units.get(name, "")))
    print("  %-34s %d / %d (wrong answers: %d)" % ("failed / attempted", failed, attempted, wrong))
    for name, size in extra.get("cache_sizes", {}).items():
        print("  %-34s %-22d entries after a list, median over the lists, next to peak_rss_mb" % (name + " cache", size))
    for g in extra.get("groups", ()):
        median = "failed" if g["median_ms"] is None else "%.3f ms" % g["median_ms"]
        print("  size %-10s %-24s %4s  n=%-3d median %s" % (g["layer"], g["op"], g["size"], g["count"], median))

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "env": env, "info": info, "attempted": attempted, "failed": failed, "wrong": wrong,
        "metrics": metrics, **extra,
    }
    os.makedirs(OUT, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in declared},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
