"""Record the baseline: two interleaved ten-seed sets per workload, then traced runs.

Run from the root of a checkout:

    python3 perfbench/baseline.py

It runs the workloads BENCHMARK.json lists, each run lasting its
run_seconds. Set A uses seeds 1-10 and
set B seeds 11-20, and the runs alternate between the sets (A1, B11, A2,
B12, ...), so that a drift of the host falls on both. For each workload,
set and end-to-end metric, perfbench/baseline.json gets the median, the
quartiles, the spread (interquartile range over median) and set B's
median over set A's; then the median of every per-layer metric over
TRACED traced runs. Runs are sequential, so they do not disturb each
other.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT = os.path.join(HERE, "baseline.json")
SEEDS = 10  # per set
TRACED = 2  # traced runs per workload
SETS = {"A": range(1, SEEDS + 1), "B": range(SEEDS + 1, 2 * SEEDS + 1)}


def benchmark() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: int, trace: int):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    print(workload, seed, trace, f"{time.perf_counter() - start:.1f}s", json.dumps(
        {k: round(v["value"], 4) for k, v in result["metrics"].items()}), flush=True)
    return info, result


def summary(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = benchmark()
    seconds = spec["run_seconds"]
    out = {"seconds": seconds, "sets": {k: list(v) for k, v in SETS.items()},
           "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: {} for name in SETS}
        for seeds in zip(*SETS.values()):
            for name, seed in zip(SETS, seeds):
                info, result = run(workload, seed, seconds, 0)
                for metric, m in result["metrics"].items():
                    values[name].setdefault(metric, []).append(m["value"])
        per_layer = {}
        for seed in SETS["A"][:TRACED]:
            _, result = run(workload, seed, seconds, 1)
            for metric, m in result["metrics"].items():
                per_layer.setdefault(metric, []).append(m["value"])
        out["machine"] = info["machine"]
        end_to_end = {}
        for metric in values["A"]:
            a, b = summary(values["A"][metric]), summary(values["B"][metric])
            end_to_end[metric] = {"A": a, "B": b, "B_over_A": b["median"] / a["median"]}
            print(workload, metric, f"A {a['median']:.4g} spread {a['spread']:.3f}",
                  f"B {b['median']:.4g} spread {b['spread']:.3f}",
                  f"B/A {b['median'] / a['median']:.3f}", flush=True)
        out["workloads"][workload] = {
            "sizes": info["machine"]["sizes"],
            "end_to_end": end_to_end,
            "per_layer": {k: statistics.median(v) for k, v in per_layer.items()},
        }
    del out["machine"]["sizes"]
    with open(OUTPUT, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
