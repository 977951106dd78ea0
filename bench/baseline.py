"""Run every workload over several seeds and write the results as a BENCH file.

    python3 bench/baseline.py --out bench/BENCH_0.json [--seeds 1-10] [--seconds 35]

For each workload this makes one untraced run per seed, then one traced
run at the first seed.  The file keeps every run's metric lines and, per
metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median.
Comparing two such files, made by the same benchmark code on the parent
commit and on a change, is how a gain or a regression is shown.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

from run import BENCH_DIR, ROOT
from workloads import WORKLOADS

METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)  \[(.*)\]$")

# What the benchmark deliberately does not measure, and why.
EXCLUDED = {
    "tier1_wall_time": "34 s per operation is too long for a benchmark run; its "
                       "main cost, about 26 child start-ups, is measured by cli-short",
    "z_evaluation_counts": "need a ScanStats counter in rzs (ROADMAP item 5); reading "
                           "the private _z_values would break on the item 4 refactors",
    "rzs_threads_above_1": "the machine has 2 cores and the pool is slated for removal, "
                           "so every workload runs the default single-process path",
    "mass_sweep_gate": "mass-sweep runs and is recorded here but is not in "
                       "BENCHMARK.json: its run medians move with the host's speed "
                       "by more than the benchmark's largest bound (see workloads.py)",
    "scan_sweep_gate": "scan-sweep runs and is recorded here but is not in "
                       "BENCHMARK.json: 2-3% of its heights fail (ROADMAP item 1) "
                       "and a timed run's operation count varies, so its failed "
                       "count cannot agree between two sets of runs",
    "gated_accuracy_and_tail": "error_rate, zero_err_max, bracket_miss_share and "
                               "pi_rel_err_max can read 0, and wall_tail_s needs 40 "
                               "operations in a run, so BENCHMARK.json gates only on "
                               "setup_s, wall_p50_s, ops_per_s and peak_rss_mb; every "
                               "run prints the rest, traced runs report the accuracy "
                               "figures as per-layer metrics",
}


def run_once(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    metrics = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            name, value, unit, note = match.groups()
            metrics[name] = {"value": float(value), "unit": unit, "note": note}
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "env": env, "metrics": metrics}


def spread_summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
        median = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "n": len(values),
                 "median": median}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        out[name] = entry
    return out


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="35")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    report = {"benchmark": "bench/run.py", "run_seconds": float(args.seconds),
              "seeds": seeds, "excluded": EXCLUDED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, args.seconds, 0))
            print(name, seed, {k: round(v["value"], 5) for k, v in
                               runs[-1]["metrics"].items()}, flush=True)
        traced = run_once(name, seeds[0], args.seconds, 1)
        report["workloads"][name] = {
            "why": workload.why,
            "summary": spread_summary(runs),
            "traced": traced,
            "runs": runs,
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for name, entry in report["workloads"].items():
        for metric, s in entry["summary"].items():
            print(f"{name} {metric}: median {s['median']:.6g} {s['unit']} "
                  f"spread {s.get('spread')}")


if __name__ == "__main__":
    main()
