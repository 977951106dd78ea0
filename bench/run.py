"""rzs benchmark: closed-loop workloads whose outputs are checked against mpmath.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all  [...]   # every workload in turn

Run it from the root of a checkout: it imports rzs from ./src and starts
`python -m rzs` children with that absolute path on PYTHONPATH and
RZS_THREADS unset.  One client runs one operation at a time for S seconds
(the last batch may run over), then the run prints one line per metric,
with its unit and sample count, and as its last line a JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones:

    setup_s      median over fresh processes of `import rzs` plus the
                 workload's own set-up (mass-sweep: its 5520-high scan)
    wall_p50_s   median wall time of one operation
    ops_per_s    completed operations / the wall time they took
    peak_rss_mb  peak RSS of this process, or of the largest child for
                 CLI workloads

and the lines before it also give wall_tail_s (the highest percentile
with ten samples beyond it, where the run has enough operations) and the
accuracy figures error_rate, zero_err_max, bracket_miss_share and
pi_rel_err_max.  With --trace 1 each operation runs twice, untraced and
with every public function of rzs wrapped (tracing.py), in alternating
order; the metrics are the per-layer ones, the tracing overhead and the
accuracy figures, and the spans are written to .bench_work/.  A traced run
fails if a wrapper the workload must call records no calls.

`failed` counts operations that failed any check in check.py; `correct`
is false when an operation crashed or printed malformed output, so its
timing measured no real work.  Wrong values (a dropped close pair, an
index shift, a gross miss) count as failed but leave `correct` true.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

from check import Failed, OpAccuracy, Reference, Tally
from tracing import LAYERS, Tracer, summarize
from workloads import WORKLOADS, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

REPEATS = 7  # fresh processes per set-up or start-up measurement
CHILD_TIMEOUT_S = 60.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_p50_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# (metric, traced function, field of its summary) averaged per traced op.
SPAN_METRICS = (
    ("zeta.scan_zeros.s", "zeta.scan_zeros", "s"),
    ("zeta.scan_zeros.calls", "zeta.scan_zeros", "calls"),
    ("zeta.scan_zeros.zeros", "zeta.scan_zeros", "size"),
    ("zeta.zero_table_to_csv.s", "zeta.zero_table_to_csv", "s"),
    ("bubble.correlator_sample.calls", "bubble.correlator_sample", "calls"),
    ("bubble.correlator_sample.self_s", "bubble.correlator_sample", "self_s"),
    ("bubble.pi_closed.s", "bubble.pi_closed", "s"),
    ("bubble.gap_mass.s", "bubble.gap_mass", "s"),
    ("bubble.gap_residual.s", "bubble.gap_residual", "s"),
    ("correspond.build_report.self_s", "correspond.build_report", "self_s"),
    ("correspond.log_slope_fit.s", "correspond.log_slope_fit", "s"),
    ("correspond.report_to_json.s", "correspond.report_to_json", "s"),
    ("correspond.report_to_csv.s", "correspond.report_to_csv", "s"),
    ("correspond.rows", "correspond.build_report", "size"),
)
# Self time of a whole layer per traced op; for cli that is main outside
# library spans.
LAYER_SELF = {"cli": "cli.main.self_s", "zeta": "zeta.self_s",
              "bubble": "bubble.self_s", "correspond": "correspond.self_s"}

PER_LAYER = {
    "cli.interpreter_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import_modules": ("count", "lower"),
    "cli.import_scipy": ("count", "lower"),
    "cli.out_bytes": ("B", "lower"),
    "cli.compare.overscan": ("ratio", "lower"),
    "zeta.zeros_per_s": ("1/s", "higher"),
    **{name: ("count" if field in ("calls", "size") else "s",
              "higher" if field == "size" else "lower")
       for name, _, field in SPAN_METRICS},
    **{name: ("s", "lower") for name in LAYER_SELF.values()},
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.spans_per_op": ("count", "lower"),
    "error_rate": ("ratio", "lower"),
    "zero_err_max": ("t", "lower"),
    "bracket_miss_share": ("ratio", "lower"),
    "pi_rel_err_max": ("ratio", "lower"),
}

IMPORT_PROBE = (
    "import json, sys, time\n"
    "t0 = time.perf_counter()\n"
    "import rzs\n"
    "print(json.dumps([time.perf_counter() - t0, len(sys.modules),"
    " int('scipy.integrate' in sys.modules)]))\n"
)


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND,
                    ladder=TAIL_LADDER) -> tuple[float, float, int] | None:
    """(q, value, samples above) for the highest q in ladder whose
    nearest-rank percentile has at least `beyond` samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in ladder:
        rank = math.ceil(round(q * n / 100.0, 9))
        if rank >= 1 and n - rank >= beyond:
            return q, ordered[rank - 1], n - rank
    return None


def child_env() -> dict[str, str]:
    """Children import rzs from ./src, single-process, with bytecode caching
    on, so that import time is measured in the same cache state every run."""
    env = dict(os.environ)
    env.pop("RZS_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list[str], env: dict[str, str]):
    """Run a child to completion; returns (CompletedProcess, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=WORK, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return proc, time.perf_counter() - t0


def timed_children(code: str, repeats: int, env) -> list[tuple[float, str]]:
    """Run `python -c code` repeats times; (wall, stdout) each; exit on error."""
    results = []
    for _ in range(repeats):
        proc, wall = run_child([sys.executable, "-c", code], env)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up process failed:\n{proc.stderr}")
        results.append((wall, proc.stdout))
    return results


class Runner:
    """Runs Ops, in process or as children, traced or not."""

    def __init__(self, env, tracer: Tracer | None):
        self.env = env
        self.tracer = tracer
        self.spans_path = os.path.join(WORK, "child-spans.json")
        self.reported_exception = False

    def run(self, op, traced: bool, op_id: int):
        """Returns (output, wall seconds); raises Failed('error')."""
        if op.argv is None:
            return self._run_call(op, traced, op_id)
        if op.out_file is not None and os.path.exists(op.out_file):
            os.unlink(op.out_file)
        if traced:
            argv = [sys.executable, os.path.join(BENCH_DIR, "tracing.py"),
                    self.spans_path, *op.argv]
        else:
            argv = [sys.executable, "-m", "rzs", *op.argv]
        try:
            proc, wall = run_child(argv, self.env)
        except subprocess.TimeoutExpired:
            raise Failed("error", f"{op.label} timed out") from None
        if proc.returncode != 0:
            raise Failed("error", f"{op.label} exited {proc.returncode}: "
                                  f"{proc.stderr.strip()[-300:]}")
        if traced:
            with open(self.spans_path, encoding="utf-8") as handle:
                self.tracer.absorb(json.load(handle), op_id)
        if op.out_file is None:
            return proc.stdout, wall
        with open(op.out_file, encoding="utf-8") as handle:
            return handle.read(), wall

    def _run_call(self, op, traced, op_id):
        if traced:
            self.tracer.current_op = op_id
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            output = op.call()
            return output, time.perf_counter() - t0
        except Exception as exc:  # an operation failing is a measured outcome
            if not self.reported_exception:
                traceback.print_exc()
                self.reported_exception = True
            raise Failed("error", repr(exc)) from None
        finally:
            if traced:
                self.tracer.uninstall()


class Run:
    """The measured loop of one workload and everything it recorded."""

    def __init__(self, workload: Workload, runner: Runner):
        self.workload = workload
        self.runner = runner
        self.tally = Tally()
        self.walls: list[float] = []          # untraced, completed ops
        self.labels: list[str] = []
        self.out_bytes: list[int] = []
        self.traced_walls: list[float] = []
        self.traced_ops: list[tuple[int, object]] = []

    def loop(self, seed: int, seconds: float) -> None:
        traced_too = self.runner.tracer is not None
        op_id = 0
        start = time.perf_counter()
        for batch in self.workload.batches(random.Random(seed)):
            for op in batch:
                order = (False, True) if op_id % 2 == 0 else (True, False)
                for traced in order if traced_too else (False,):
                    self._one(op, traced, op_id)
                op_id += 1
            if time.perf_counter() - start >= seconds:
                return

    def _one(self, op, traced: bool, op_id: int) -> None:
        acc = OpAccuracy()
        failure = None
        try:
            output, wall = self.runner.run(op, traced, op_id)
            if traced:
                self.traced_walls.append(wall)
                self.traced_ops.append((op_id, op))
            else:
                self.walls.append(wall)
                self.labels.append(op.label)
                if isinstance(output, str):
                    self.out_bytes.append(len(output.encode()))
            op.check(output, acc)
        except Failed as exc:
            failure = exc
        self.tally.record(failure, acc)


def accuracy_metrics(tally: Tally) -> dict[str, tuple[float, str]]:
    acc = tally.acc
    out = {"error_rate": (tally.failed / tally.attempted,
                          f"{tally.failed} of {tally.attempted} operations failed"
                          + (f" {dict(tally.failures)}" if tally.failed else ""))}
    if acc.zeros_checked:
        out["zero_err_max"] = (acc.zero_err_max,
                               f"max over {acc.zeros_checked} checked zeros")
    else:
        out["zero_err_max"] = (0.0, "not applicable: no zero checked")
    if acc.brackets_checked:
        out["bracket_miss_share"] = (
            acc.bracket_misses / acc.brackets_checked,
            f"{acc.bracket_misses} of {acc.brackets_checked} reference zeros "
            "outside their reported bracket")
    else:
        out["bracket_miss_share"] = (0.0, "not applicable: no bracket reported")
    if acc.pi_checked:
        out["pi_rel_err_max"] = (acc.pi_rel_err_max,
                                 f"max over {acc.pi_checked} checked values")
    else:
        out["pi_rel_err_max"] = (0.0, "not applicable: no pi, correlator or "
                                      "prediction value computed")
    return out


def end_to_end_metrics(run: Run, setup_walls: list[float]) -> dict:
    walls = run.walls
    if not walls:
        sys.exit("bench: no operation completed")
    if run.workload.cli:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        rss_note = "largest child process"
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_note = "this process"
    n = len(walls)
    return {
        "setup_s": (statistics.median(setup_walls),
                    f"median of {len(setup_walls)} fresh set-up processes"),
        "wall_p50_s": (statistics.median(walls), f"n={n}"),
        "ops_per_s": (n / math.fsum(walls),
                      f"{n} completed operations in {math.fsum(walls):.3f} s"),
        "peak_rss_mb": (rss_kb / 1024.0, rss_note),
    }


def extra_lines(run: Run) -> list[str]:
    """wall_tail_s and, for mixed workloads, the median per command."""
    tail = tail_percentile(run.walls)
    if tail is None:
        lines = [f"wall_tail_s: not reported: {len(run.walls)} operations, the "
                 f"rule needs {TAIL_BEYOND} beyond the p{TAIL_LADDER[-1]:g}"]
    else:
        q, value, beyond = tail
        lines = [f"metric wall_tail_s = {value!r} s  [p{q:g}, n={len(run.walls)},"
                 f" {beyond} samples beyond]"]
    labels = sorted(set(run.labels))
    if len(labels) > 1:
        for label in labels:
            walls = [w for w, lab in zip(run.walls, run.labels) if lab == label]
            lines.append(f"metric wall_p50_s[{label}] = "
                         f"{statistics.median(walls)!r} s  [n={len(walls)}]")
    return lines


def per_layer_metrics(run: Run, tracer: Tracer, probes) -> dict:
    workload = run.workload
    n_ops = len(run.traced_ops)
    totals = summarize(tracer)
    missing = [name for name in workload.expected
               if totals.get(name, {}).get("calls", 0) == 0]
    if missing:
        sys.exit(f"bench: traced run of {workload.name}: no calls recorded by "
                 f"{', '.join(missing)}; a wrapper is missing or was bypassed")
    per_op = f"per op, mean of {n_ops} traced ops"
    out = {}
    interp = [wall for wall, _ in probes["interpreter"]]
    imports = [json.loads(stdout) for _, stdout in probes["import"]]
    out["cli.interpreter_s"] = (statistics.median(interp),
                                f"median of {len(interp)} bare `python -c pass`")
    out["cli.import_s"] = (statistics.median(i[0] for i in imports),
                           f"median of {len(imports)} fresh `import rzs`")
    out["cli.import_modules"] = (imports[0][1], "len(sys.modules) after import rzs")
    out["cli.import_scipy"] = (imports[0][2], "1 if import rzs loads scipy.integrate")
    if workload.cli:
        out["cli.out_bytes"] = (statistics.fmean(run.out_bytes),
                                f"mean over {len(run.out_bytes)} untraced ops")
    else:
        out["cli.out_bytes"] = (0, "not applicable: in-process workload")
    compares = [(i, op) for i, op in run.traced_ops if op.label == "compare"]
    if compares:
        scanned = summarize(tracer, {i for i, _ in compares})["zeta.scan_zeros"]["size"]
        n_max = sum(op.params["n_max"] for _, op in compares)
        out["cli.compare.overscan"] = (scanned / n_max,
                                       f"zeros scanned / n_max over {len(compares)} "
                                       "compare ops")
    else:
        out["cli.compare.overscan"] = (0, "not applicable: no compare operation")
    scan = totals.get("zeta.scan_zeros")
    if scan and scan["s"] > 0:
        out["zeta.zeros_per_s"] = (scan["size"] / scan["s"],
                                   f"over {scan['calls']} scans")
    else:
        out["zeta.zeros_per_s"] = (0, "not applicable: scan_zeros not called")
    for metric, fn, field in SPAN_METRICS:
        entry = totals.get(fn)
        if entry is None or entry["calls"] == 0:
            out[metric] = (0, f"not applicable: {fn} not called by this workload")
        else:
            out[metric] = (entry[field] / n_ops, f"{per_op}; {entry['calls']} calls")
    for layer in LAYERS:
        self_s = sum(v["self_s"] for k, v in totals.items() if k.startswith(layer + "."))
        calls = sum(v["calls"] for k, v in totals.items() if k.startswith(layer + "."))
        note = f"{per_op}; {calls} spans" if calls else "not applicable: no span"
        out[LAYER_SELF[layer]] = (self_s / n_ops, note)
    plain, traced = statistics.median(run.walls), statistics.median(run.traced_walls)
    out["trace.overhead_s"] = (traced - plain,
                               f"traced p50 {traced!r} s (n={len(run.traced_walls)}) "
                               f"- untraced p50 {plain!r} s (n={len(run.walls)})")
    out["trace.overhead_share"] = ((traced - plain) / plain, "overhead_s / untraced p50")
    out["trace.spans_per_op"] = (len(tracer.start) / n_ops, per_op)
    out.update(accuracy_metrics(run.tally))
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    import numpy as np

    np.savez(path, names=np.array(tracer.names),
             name=np.array(tracer.name, dtype=np.int32),
             parent=np.array(tracer.parent, dtype=np.int32),
             op=np.array(tracer.op, dtype=np.int32),
             start=np.array(tracer.start), end=np.array(tracer.end),
             size=np.array(tracer.size, dtype=np.int64))


def environment(load_start) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    load_start = list(os.getloadavg())
    env = child_env()
    workload = WORKLOADS[name](Reference.load(), WORK)
    # A warm-up import leaves src/rzs's bytecode cache current, so every
    # timed start-up below finds it in the same state.
    timed_children("import rzs", 1, env)
    if trace:
        probes = {"interpreter": timed_children("pass", REPEATS, env),
                  "import": timed_children(IMPORT_PROBE, REPEATS, env)}
    else:
        setup_walls = [w for w, _ in timed_children(workload.setup_code,
                                                    REPEATS, env)]
    if not workload.cli:
        sys.path.insert(0, SRC)
        import rzs

        if os.path.dirname(os.path.dirname(os.path.abspath(rzs.__file__))) != SRC:
            sys.exit(f"bench: imported rzs from {rzs.__file__}, not from {SRC}")
        workload.prepare(rzs)
    tracer = Tracer() if trace else None
    run = Run(workload, Runner(env, tracer))
    run.loop(seed, seconds)

    print(f"# rzs benchmark: workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print(f"# why: {workload.why}")
    if trace:
        metrics, units = per_layer_metrics(run, tracer, probes), PER_LAYER
        spans_path = os.path.join(WORK, f"spans-{name}.npz")
        write_spans(tracer, spans_path)
        print(f"# {len(tracer.start)} spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics, units = end_to_end_metrics(run, setup_walls), END_TO_END
    print("env " + json.dumps(environment(load_start)))
    for metric, (value, note) in metrics.items():
        print(f"metric {metric} = {value!r} {units[metric][0]}  [{note}]")
    if not trace:
        for line in extra_lines(run):
            print(line)
        for metric, (value, note) in accuracy_metrics(run.tally).items():
            print(f"metric {metric} = {value!r} {PER_LAYER[metric][0]}  [{note}]")
    tally = run.tally
    for message in tally.first_failure.values():
        print(f"# first failure of its kind: {message[:500]}")
    print(json.dumps({
        "correct": tally.broken == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m][0]} for m, (v, _) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rzs", "__init__.py")):
        print(f"bench: no rzs sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            status |= subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode
        return status
    os.makedirs(WORK, exist_ok=True)
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
