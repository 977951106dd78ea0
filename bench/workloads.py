"""The four benchmark workloads: their inputs, operations and checks.

Each workload yields batches of Ops from a seeded random.Random; run.py
runs them one at a time in a closed loop (one client) and stops between
batches.  An Op runs either in this process, calling rzs through its
public functions, or as a fresh `python -m rzs` child, and returns the
output text its checker verifies against the mpmath reference.

Why these four:
  zeros-1e4   the headline command; a fresh process per operation, so no
              work is shared between operations;
  scan-sweep  many shallow in-process scans from t = 0 at seeded heights:
              per-call cost, low-height kernels, and the audit's dropped
              close pairs (ROADMAP item 1) as failed operations;
  mass-sweep  report building and serialization over a fixed zero table:
              correspond and bubble do all the timed work, zeta none;
  cli-short   five short commands, where process start-up and import rzs
              are most of the time; `gap` needs scipy.integrate.

mass-sweep is not among the workloads BENCHMARK.json gates on.  On the
2-core test host its run medians moved by up to 1.8x between runs minutes
apart, with the host's speed rather than with the code, so the spread of
ten runs ranged from 0.13 to 0.46 between sets of runs, mostly above the
benchmark's largest bound (0.25).  Run it by name for changes to correspond
or bubble, and compare against the parent with alternating runs.

scan-sweep is not gated either.  About 2-3% of its heights fail (the
audit drops a close pair, ROADMAP item 1), and a run does as many
operations as fit in its time, so the number that fail moves from run to
run with the machine's speed and two sets of runs cannot agree on it; the
gated workloads must be ones on which no operation fails.  It still counts
those heights as failed when run by name, and its zeta layer is timed on
the gated workloads through zeros-1e4's deep scan and cli-short's shallow
ones.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from check import (
    OpAccuracy,
    Reference,
    check_bubble_csv,
    check_count_text,
    check_gap_text,
    check_report,
    check_report_csv,
    check_zero_table,
    parse_zero_csv,
)

TOL = 1.0e-8
MASS_SWEEP_T = 5520.0
MASS_SWEEP_N = 5000
MASS_SWEEP_SAMPLE = 32  # rows per operation checked against mpmath
SCAN_STRATA = 16


@dataclass
class Op:
    """One operation: a label, what to run, and how to check its output.

    argv is set for CLI operations (out_file names the file the command
    writes, None when it prints to stdout); call for in-process ones.
    """

    label: str
    check: Callable[[object, OpAccuracy], None]
    argv: list[str] | None = None
    out_file: str | None = None
    call: Callable[[], object] | None = None
    params: dict = field(default_factory=dict)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _table_rows(table) -> list[tuple[int, float, float, float]]:
    return [(e.n, e.gamma, e.bracket_lo, e.bracket_hi) for e in table.zeros]


class Workload:
    name = ""
    why = ""
    cli = False
    setup_code = "import rzs"  # what a fresh set-up process runs
    expected: tuple[str, ...] = ()  # spans a traced run must record

    def __init__(self, ref: Reference, work_dir: str):
        self.ref = ref
        self.work_dir = work_dir

    def prepare(self, rzs) -> None:
        """In-process set-up before the first operation."""
        self.rzs = rzs

    def batches(self, rng: random.Random) -> Iterator[list[Op]]:
        raise NotImplementedError


class Zeros1e4(Workload):
    name = "zeros-1e4"
    why = ("the headline command rzs zeros --t-max 1e4 in a fresh process per "
           "operation: start-up plus one deep scan, no work shared between operations")
    cli = True
    expected = ("cli.main", "zeta.scan_zeros", "zeta.count_zeros",
                "zeta.zero_table_to_csv")

    def batches(self, rng):
        out = f"{self.work_dir}/zeros-1e4.csv"
        argv = ["zeros", "--t-max", "10000", "--tol", repr(TOL), "--out-path", out]
        while True:
            yield [Op("zeros", lambda text, acc: check_zero_table(
                parse_zero_csv(text), 10000.0, self.ref, acc), argv=argv, out_file=out)]


class ScanSweep(Workload):
    name = "scan-sweep"
    why = ("in-process scan_zeros(0, T) at seeded T in [100, 3000]: per-call and "
           "low-height kernel cost, and the audit dropping close pairs")
    expected = ("zeta.scan_zeros", "zeta.count_zeros")

    def _op(self, t_max):
        return Op("scan",
                  lambda table, acc: check_zero_table(_table_rows(table), t_max,
                                                      self.ref, acc),
                  call=lambda: self.rzs.scan_zeros(0.0, t_max, TOL))

    def batches(self, rng):
        # One height from each of SCAN_STRATA equal slices of [ln 100, ln 3000],
        # shuffled: every batch spans the range, so the heights a run sees,
        # and hence its median, differ little from seed to seed.
        lo, hi = math.log(100.0), math.log(3000.0)
        width = (hi - lo) / SCAN_STRATA
        while True:
            heights = [math.exp(lo + (i + rng.random()) * width)
                       for i in range(SCAN_STRATA)]
            rng.shuffle(heights)
            yield [self._op(t_max) for t_max in heights]


class MassSweep(Workload):
    name = "mass-sweep"
    why = ("build_report, log_slope_fit and JSON/CSV output over a fixed 5000-zero "
           "table at seeded m^2 and fit windows: correspond and bubble work, no zeta")
    setup_code = f"import rzs; rzs.scan_zeros(0.0, {MASS_SWEEP_T!r}, {TOL!r})"
    expected = ("correspond.build_report", "bubble.correlator_sample",
                "bubble.pi_closed", "zeta.gamma_asymptotic",
                "correspond.log_slope_fit", "correspond.report_to_json",
                "correspond.report_to_csv")

    def prepare(self, rzs):
        super().prepare(rzs)
        self.table = rzs.scan_zeros(0.0, MASS_SWEEP_T, TOL)

    def _run(self, m2, window):
        rzs = self.rzs
        report = rzs.build_report(self.table, m2, MASS_SWEEP_N)
        fit = rzs.log_slope_fit(report, n_min=window[0], n_max=window[1])
        return rzs.report_to_json(report, fit), rzs.report_to_csv(report)

    def _check(self, output, acc, m2, window, sample):
        json_text, csv_text = output
        rows = check_report(json_text, MASS_SWEEP_N, m2, window, sample, self.ref, acc)
        check_report_csv(csv_text, rows)

    def batches(self, rng):
        n_rows = MASS_SWEEP_N - 6
        while True:
            m2 = _log_uniform(rng, 1.0, 40.0)
            lo = rng.randint(7, MASS_SWEEP_N - 49)
            window = (lo, rng.randint(lo + 49, MASS_SWEEP_N))
            sample = [0, n_rows - 1, *rng.sample(range(1, n_rows - 1), MASS_SWEEP_SAMPLE)]
            yield [Op("report",
                      lambda out, acc, a=(m2, window, sample): self._check(out, acc, *a),
                      call=lambda a=(m2, window): self._run(*a))]


class CliShort(Workload):
    name = "cli-short"
    why = ("five short rzs commands (count, gap, bubble, zeros to t~100, compare to "
           "n~100) in seeded order, each a fresh process: start-up and import dominate")
    cli = True
    expected = ("cli.main", "zeta.count_zeros", "zeta.scan_zeros",
                "zeta.zero_table_to_csv", "bubble.correlator_sample",
                "bubble.gap_mass", "bubble.gap_residual",
                "correspond.build_report", "correspond.log_slope_fit",
                "correspond.report_to_json")

    def _count(self, rng):
        t = _log_uniform(rng, 10.0, 1.0e4)
        return Op("count", lambda text, acc: check_count_text(text, t),
                  argv=["count", "--t", repr(t)])

    def _gap(self, rng):
        # Draw the exponent 4 pi / (N g^2) of the inverted gap equation in
        # [1, 20], where a physical mass exists and does not underflow.
        n = rng.randint(2, 8)
        g = math.sqrt(4.0 * math.pi / (n * _log_uniform(rng, 1.0, 20.0)))
        cutoff = _log_uniform(rng, 1.0, 100.0)
        return Op("gap", lambda text, acc: check_gap_text(text, g, n, cutoff),
                  argv=["gap", "--coupling", repr(g), "--n-components", str(n),
                        "--cutoff", repr(cutoff)])

    def _bubble(self, rng):
        t_min = _log_uniform(rng, 1.0e-3, 1.0)
        t_max = _log_uniform(rng, 1.0e3, 1.0e8)
        m2 = _log_uniform(rng, 0.1, 10.0)
        out = f"{self.work_dir}/bubble.csv"
        return Op("bubble",
                  lambda text, acc: check_bubble_csv(text, t_min, t_max, 50, m2, acc),
                  argv=["bubble", "--t-min", repr(t_min), "--t-max", repr(t_max),
                        "--points", "50", "--mass2", repr(m2), "--out-path", out],
                  out_file=out)

    def _zeros(self, rng):
        t_max = rng.uniform(60.0, 200.0)
        out = f"{self.work_dir}/zeros.csv"
        return Op("zeros",
                  lambda text, acc: check_zero_table(parse_zero_csv(text), t_max,
                                                     self.ref, acc),
                  argv=["zeros", "--t-max", repr(t_max), "--tol", repr(TOL),
                        "--out-path", out],
                  out_file=out)

    def _compare(self, rng):
        # compare fits all rows n = 7..n_max and its fit needs 50 of them.
        n_max = rng.randint(60, 150)
        out = f"{self.work_dir}/compare.json"
        every_row = list(range(n_max - 6))
        return Op("compare",
                  lambda text, acc: check_report(text, n_max, 2.0 * math.pi, None,
                                                 every_row, self.ref, acc),
                  argv=["compare", "--n-max", str(n_max), "--out-path", out],
                  out_file=out, params={"n_max": n_max})

    def batches(self, rng):
        makers = [self._count, self._gap, self._bubble, self._zeros, self._compare]
        while True:
            rng.shuffle(makers)
            yield [make(rng) for make in makers]


WORKLOADS = {w.name: w for w in (Zeros1e4, ScanSweep, MassSweep, CliShort)}
