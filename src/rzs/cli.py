"""Command-line entry point with reproducible file outputs.

Five subcommands expose the computational modules:

    zeros    sign-change scan of Z; emits the zero table as CSV
    count    counting-formula estimate N(T) and density D(T)
    bubble   correlator samples on a log-spaced grid of t; CSV
    gap      solves the gap equation; prints m^2 and the residual
    compare  scans enough zeros, builds the correspondence report

Output files are written atomically (temp file + rename) and every
number is serialized with 17 significant digits, so re-running a
command with identical flags produces byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .bubble import GapEquationSpec, correlator_sample, gap_mass, gap_residual
from .correspond import build_report, log_slope_fit, report_to_csv, report_to_json
from .errors import DomainError, RzsError
from .zeta import (
    T_SUPPORT_MAX,
    TWO_PI,
    count_zeros,
    scan_zeros,
    zero_table_to_csv,
)

__all__ = ["RunConfig", "run", "main", "build_parser"]

_DEFAULT_TOL = 1.0e-8
_DEFAULT_POINTS = 50
_DEFAULT_MASS2_BUBBLE = 1.0
_DEFAULT_MASS2_COMPARE = TWO_PI


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation: the command plus its numeric parameters."""

    command: str
    t: float | None = None
    t_min: float | None = None
    t_max: float | None = None
    tol: float = _DEFAULT_TOL
    mass2: float | None = None
    points: int = _DEFAULT_POINTS
    coupling: float | None = None
    n_components: int | None = None
    cutoff: float | None = None
    n_max: int | None = None
    out_path: str | None = None
    format: str = "csv"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".rzs-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _emit(config: RunConfig, text: str, *, to_stdout: bool) -> None:
    if to_stdout:
        sys.stdout.write(text)
    if config.out_path is not None:
        _atomic_write(config.out_path, text)


def _cmd_zeros(config: RunConfig) -> None:
    table = scan_zeros(0.0, config.t_max, config.tol)
    _emit(config, zero_table_to_csv(table), to_stdout=config.out_path is None)


def _cmd_count(config: RunConfig) -> None:
    est = count_zeros(config.t)
    text = (
        f"t = {_fmt(est.t)}\n"
        f"n_main = {_fmt(est.n_main)}\n"
        f"n_correction = {_fmt(est.n_correction)}\n"
        f"n_estimate = {_fmt(est.n_estimate)}\n"
        f"density = {_fmt(est.density)}\n"
    )
    _emit(config, text, to_stdout=True)


def _cmd_bubble(config: RunConfig) -> None:
    if not (0.0 < config.t_min <= config.t_max):
        raise DomainError("bubble: need 0 < t_min <= t_max for a log-spaced grid")
    if config.points < 1:
        raise DomainError("bubble: points must be a positive integer")
    grid = np.geomspace(config.t_min, config.t_max, config.points)
    lines = ["t,pi,correlator,asymptote"]
    for t in grid:
        sample = correlator_sample(float(t), config.mass2)
        asym = "nan" if sample.asymptote is None else _fmt(sample.asymptote)
        lines.append(
            f"{_fmt(sample.t)},{_fmt(sample.pi_value)},"
            f"{_fmt(sample.correlator)},{asym}"
        )
    _emit(config, "\n".join(lines) + "\n", to_stdout=config.out_path is None)


def _cmd_gap(config: RunConfig) -> None:
    spec = GapEquationSpec(
        coupling=config.coupling,
        n_components=config.n_components,
        cutoff=config.cutoff,
    )
    m2 = gap_mass(spec)
    residual = gap_residual(spec, m2)
    text = f"m2 = {_fmt(m2)}\nresidual = {_fmt(residual)}\n"
    _emit(config, text, to_stdout=True)


def _scan_upper_for(n_max: int) -> float:
    """Height covering n_max zeros: where the counting formula reaches n_max + 2.

    The true count differs from the formula by S(T) + O(1/T), and |S(T)|
    stays below 2 far beyond the supported heights, so two zeros of
    margin cover n_max without overscanning.  Capped at T_SUPPORT_MAX.
    """
    lo = TWO_PI * 1.001
    hi = T_SUPPORT_MAX
    if count_zeros(hi).n_estimate < n_max:
        raise DomainError(
            f"compare: n_max = {n_max} needs zeros above the supported "
            f"height {T_SUPPORT_MAX:g}"
        )
    while hi - lo > 1.0e-6 * hi:
        mid = 0.5 * (lo + hi)
        if count_zeros(mid).n_estimate < n_max + 2:
            lo = mid
        else:
            hi = mid
    return hi


def _cmd_compare(config: RunConfig) -> None:
    t_upper = _scan_upper_for(config.n_max)
    while True:
        table = scan_zeros(0.0, t_upper, config.tol)
        if len(table.zeros) >= config.n_max or t_upper >= T_SUPPORT_MAX:
            break
        # The counting-formula estimate undershot; extend and rescan.
        t_upper = min(1.1 * t_upper, T_SUPPORT_MAX)
    report = build_report(table, config.mass2, config.n_max)
    fit = log_slope_fit(report)
    if config.format == "json":
        text = report_to_json(report, fit)
    else:
        text = report_to_csv(report)
    _emit(config, text, to_stdout=config.out_path is None)


_DISPATCH = {
    "zeros": _cmd_zeros,
    "count": _cmd_count,
    "bubble": _cmd_bubble,
    "gap": _cmd_gap,
    "compare": _cmd_compare,
}


def run(config: RunConfig) -> int:
    """Dispatch one configured command; returns the exit status."""
    if config.command not in _DISPATCH:
        raise DomainError(f"unknown command {config.command!r}")
    _DISPATCH[config.command](config)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rzs",
        description=(
            "Riemann zeta zeros, the 2D large-N sigma-model bubble, and "
            "the asymptotic correspondence between them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_zeros = sub.add_parser("zeros", help="scan zeros of Z and emit a CSV table")
    p_zeros.add_argument("--t-max", type=float, required=True,
                         help="upper end of the scan range (scan starts at 0)")
    p_zeros.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                         help="bracket width per zero (default 1e-8)")
    p_zeros.add_argument("--out-path", required=True, help="output CSV path")
    p_zeros.add_argument("--format", choices=["csv"], default="csv")

    p_count = sub.add_parser("count", help="counting-formula estimate at height t")
    p_count.add_argument("--t", type=float, required=True, help="height T")
    p_count.add_argument("--out-path", help="also write the printed text here")

    p_bubble = sub.add_parser("bubble", help="correlator grid over log-spaced t")
    p_bubble.add_argument("--t-min", type=float, required=True)
    p_bubble.add_argument("--t-max", type=float, required=True)
    p_bubble.add_argument("--points", type=int, default=_DEFAULT_POINTS,
                          help=f"grid size (default {_DEFAULT_POINTS})")
    p_bubble.add_argument("--mass2", type=float, default=_DEFAULT_MASS2_BUBBLE,
                          help="squared mass (default 1.0)")
    p_bubble.add_argument("--out-path", required=True, help="output CSV path")
    p_bubble.add_argument("--format", choices=["csv"], default="csv")

    p_gap = sub.add_parser("gap", help="solve the gap equation for m^2")
    p_gap.add_argument("--coupling", type=float, required=True, help="g0")
    p_gap.add_argument("--n-components", type=int, required=True, help="N")
    p_gap.add_argument("--cutoff", type=float, required=True, help="Lambda")
    p_gap.add_argument("--out-path", help="also write the printed text here")

    p_cmp = sub.add_parser("compare", help="zeros vs correlator report")
    p_cmp.add_argument("--n-max", type=int, required=True,
                       help="largest zero index in the report")
    p_cmp.add_argument("--mass2", type=float, default=_DEFAULT_MASS2_COMPARE,
                       help="squared mass (default 2*pi)")
    p_cmp.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                       help="bracket width per zero (default 1e-8)")
    p_cmp.add_argument("--out-path", required=True, help="output path")
    p_cmp.add_argument("--format", choices=["json", "csv"], default="json")

    return parser


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    fields = {
        key: value
        for key, value in vars(ns).items()
        if key in RunConfig.__dataclass_fields__ and value is not None
    }
    return RunConfig(**fields)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return run(_config_from_args(ns))
    except (RzsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
