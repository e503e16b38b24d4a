"""Run every workload on seeds 1-10 and report each metric's median and spread.

    python3 bench/spread.py --out bench/results/baseline.json

Each run is ``bench/run.py --trace 0`` with the workloads and ``run_seconds``
of BENCHMARK.json.  The spread of a metric is the distance between the first
and third quartiles of its values, as ``statistics.quantiles(values, n=4)``
gives them, as a share of their median: the figure the metric's bound in
BENCHMARK.json is compared against.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEEDS = range(1, 11)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.splitlines()[-1])
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[name] = {"median": median, "spread": (q3 - q1) / median, "bound": bound}
            print("%-9s %-15s median %12.5g  spread %.3f  bound %.2f" % (workload, name, median, summary[name]["spread"], bound))
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
