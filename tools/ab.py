"""A/B runs of the benchmark: this checkout against a parent commit.

    python3 tools/ab.py --pr N

The change is the checkout's tracked files as they are in the working
tree (a new file counts once it is added with git add).  Its parent is
HEAD while tracked files have uncommitted changes, and HEAD~1 once they
are all committed; a change identical to its parent is an error.  Both
sides are copied with `git archive`: the parent to .bench_build/base,
and the change, as the commit `git stash create` makes of the working
tree, to .bench_build/head.  Both paths have the same length, because
the directory name alone moves the children's peak RSS.  For every
workload of BENCHMARK.json it then runs

    python3 bench/run.py --workload W --seed S --seconds RUN_SECONDS

in PAIRS pairs, one run on each side at the same seed 1000 N + i,
alternating which side runs first, and writes BENCH_<N>.json at the root
of the checkout.  For each end-to-end metric and workload the file gives
both sides' median and quartiles, the pairs each side won (ties count for
neither), the change's relative worsening of the median against the
metric's bound and the parent's relative interquartile range.  For each
side and workload it also gives failed and attempted operations and the
worst of each accuracy figure the runs print (ACCURACY).  For each side it
gives what the probes of tools/probes.py measure, each in a fresh child
started in that side's copy (probe): under work the work of
scan_zeros(0, 1e4, 1e-8), counted by wrapping the kernels (work), under
scan_traced_peak_bytes and zeros_traced_peak_bytes the tracemalloc peaks
of that scan and of one zeros --t-max 1e4 command, both warm (peaks),
which fresh processes of one tree read up to about 1 KB apart, and
under warm_scan_s the warm in-process time of that scan, one child per
side in each of PAIRS alternating pairs (warm), with the statistics of a
metric.  It keeps every run's raw numbers.
bench/ is read, never changed; both copies are removed afterwards.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
SIDES = ("base", "head")  # equal lengths: equal paths for both copies
PAIRS = 10
# The accuracy figures an untraced bench/run.py prints, each on a line
# "metric NAME = VALUE UNIT  [note]" before its last line; lower is better.
ACCURACY = ("error_rate", "zero_err_max", "bracket_miss_share", "pi_rel_err_max")

PROBES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probes.py")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def parent() -> tuple[str, bool]:
    """The change's parent commit, and whether the change is committed:
    HEAD while tracked files have uncommitted changes, else HEAD~1.
    Exits where the change is identical to its parent."""
    committed = not git("status", "--porcelain", "--untracked-files=no")
    rev = git("rev-parse", "HEAD~1" if committed else "HEAD").decode().strip()
    if subprocess.run(["git", "diff", "--quiet", rev], cwd=ROOT).returncode == 0:
        sys.exit(f"ab: the change is identical to its parent {rev}")
    return rev, committed


def change() -> str:
    """The change as a commit: `git stash create` of the tracked working
    tree, which changes no ref, branch or staged content, or HEAD where
    it has no uncommitted changes."""
    rev = git("stash", "create").decode().strip()
    return rev or git("rev-parse", "HEAD").decode().strip()


def copy(rev: str, dest: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def pair_order(i: int) -> tuple[str, str]:
    """The sides of pair i in the order they run: base first in even pairs."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def bench_run(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a copy, read by parse_run."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, check=True, capture_output=True, text=True).stdout
    return parse_run(out)


def parse_run(out: str) -> dict:
    """The JSON object of an untraced run's last line, with the figures
    of its ACCURACY lines under "accuracy"; a run without all of them
    raises ValueError."""
    accuracy = {name: float(value) for name, value in re.findall(
        r"^metric (%s) = (\S+) " % "|".join(ACCURACY), out, re.MULTILINE)}
    if len(accuracy) != len(ACCURACY):
        raise ValueError(f"ab: a run printed {sorted(accuracy)} of {ACCURACY}")
    return {**json.loads(out.strip().splitlines()[-1]), "accuracy": accuracy}


def probe(root: str, name: str, *args: str):
    """The result of tools/probes.py's probe name, run with args in a fresh
    child started in the tree at root."""
    return json.loads(subprocess.run(
        [sys.executable, PROBES, name, *args], cwd=root,
        check=True, capture_output=True, text=True).stdout)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def compare(values: dict[str, list[float]], better: str) -> dict:
    """Paired values of both sides: each side's spread, the pairs each
    side won (ties count for neither), the change's relative worsening of
    the median (negative where it improved) and the parent's
    interquartile range relative to its median."""
    sign = 1.0 if better == "lower" else -1.0
    wins = {side: 0 for side in SIDES}
    for b, h in zip(values["base"], values["head"]):
        if h != b:
            wins["head" if sign * (h - b) < 0.0 else "base"] += 1
    spreads = {side: spread(values[side]) for side in SIDES}
    base = spreads["base"]
    return {
        "better": better, **spreads, "pairs": len(values["base"]),
        "base_wins": wins["base"], "head_wins": wins["head"],
        "rel_worse": sign * (spreads["head"]["median"] - base["median"]) / base["median"],
        # Above a metric's bound, the parent's own runs cannot resolve it.
        "base_rel_iqr": (base["q3"] - base["q1"]) / base["median"],
    }


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: each side's operations and worst accuracy figures
    and, per end-to-end metric, compare's statistics of both sides and
    whether the change's worsening is within the metric's bound.

    runs holds one record per run: workload, pair, side, and the
    benchmark's correct, attempted, failed, metrics and accuracy."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        paired = list(pairs.values())
        entry = {side: {key: sum(p[side][key] for p in paired)
                        for key in ("attempted", "failed")}
                 for side in SIDES}
        for side in SIDES:
            entry[side]["broken_runs"] = sum(not p[side]["correct"] for p in paired)
            entry[side]["accuracy"] = {
                name: max(p[side]["accuracy"][name] for p in paired)
                for name in ACCURACY}
        metrics = {}
        for spec in end_to_end:
            name = spec["name"]
            stats = compare({side: [p[side]["metrics"][name]["value"] for p in paired]
                             for side in SIDES}, spec["better"])
            metrics[name] = {**stats, "bound": spec["bound"],
                             "within_bound": stats["rel_worse"] <= spec["bound"]}
        entry["metrics"] = metrics
        out[workload] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    roots = {side: os.path.join(BUILD, side) for side in SIDES}
    for root in roots.values():
        if os.path.exists(root):
            sys.exit(f"ab: {root} exists; remove it first")
    head_rev = git("rev-parse", "HEAD").decode().strip()
    base_rev, committed = parent()
    seconds = spec["run_seconds"]
    runs = []
    try:
        copy(base_rev, roots["base"])
        copy(change(), roots["head"])
        work = {side: probe(roots[side], "work") for side in SIDES}
        peaks = {side: probe(roots[side], "peaks") for side in SIDES}
        warm = {side: [] for side in SIDES}
        for i in range(PAIRS):
            for side in pair_order(i):
                warm[side].append(probe(roots[side], "warm"))
        for w in spec["workloads"]:
            for i in range(PAIRS):
                seed = 1000 * args.pr + i
                for side in pair_order(i):
                    print(f"ab: {w['name']} pair {i} seed {seed} {side}",
                          file=sys.stderr, flush=True)
                    result = bench_run(roots[side], w["name"], seed, seconds)
                    runs.append({"workload": w["name"], "pair": i, "seed": seed,
                                 "side": side, **result})
    finally:
        for root in roots.values():
            shutil.rmtree(root, ignore_errors=True)
    record = {
        "pr": args.pr,
        "base": base_rev,
        "head": head_rev if committed else f"working tree on {head_rev}",
        "command": spec["command"],
        "run_seconds": seconds,
        "pairs": PAIRS,
        "host": {"platform": platform.platform(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "work": work,
        "scan_traced_peak_bytes": {side: p[0] for side, p in peaks.items()},
        "zeros_traced_peak_bytes": {side: p[1] for side, p in peaks.items()},
        "warm_scan_s": {**compare(warm, "lower"), "runs": warm},
        "workloads": summarize(runs, spec["end_to_end"]),
        "runs": runs,
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"ab: wrote {os.path.relpath(path, ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
