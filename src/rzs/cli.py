"""Command-line entry point with reproducible file outputs.

Five subcommands expose the computational modules:

    zeros    sign-change scan of Z; emits the zero table as CSV
    count    counting-formula estimate N(T) and density D(T)
    bubble   correlator samples on a log-spaced grid of t; CSV
    gap      solves the gap equation; prints m^2 and the residual
    compare  scans to the Gram point g_{n_max+1}, builds the report

Output files are written atomically (temp file + rename).  zeros and
bubble write their tables block by block as the rows are formatted;
compare writes its report as one text.  Every text is a %
template of zeta._SPEC, 17 significant digits, and every table goes
through zeta._format_rows, so re-running a command with identical flags
produces byte-identical output.

Only zeros and compare compute with arrays, so only they load numpy:
zeros imports the scan kernels when it runs, and compare those and
correspond.

main sets OPENBLAS_NUM_THREADS=1 in its own environment before numpy
loads.  No code path of rzs calls BLAS or LAPACK (compare's slope fit
is in closed form), yet numpy's OpenBLAS starts a worker per extra core
as soon as numpy loads, and that worker costs every fresh process 60 to
70 ms.  Set OPENBLAS_NUM_THREADS to override it; OMP_NUM_THREADS and
GOTO_NUM_THREADS rank below it in OpenBLAS and so no longer apply
alone.  Importing rzs or rzs.cli, or calling main after numpy has
loaded, leaves the environment as it was.

run is the process entry of both launchers, the rzs script and
python -m rzs.  It calls main, flushes stdout and stderr, and ends the
process with os._exit, skipping interpreter teardown: module cleanup,
the final garbage collection over numpy's objects and the OpenBLAS
library destructor, 10 to 35 ms per process once its output is out.
Nothing is lost by the skip: _atomic_open closes and renames every
file before main returns, the flush reports a failing stdout (a closed
pipe, say) as a one-line error with exit status 1, and neither rzs nor
numpy registers an atexit handler.  A caller that needs the teardown,
or that embeds rzs in a longer-lived process, calls main instead.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
import tempfile
from typing import Iterator, NoReturn, TextIO

from .bubble import GapEquationSpec, correlator_sample, gap_mass, gap_residual
from .errors import DomainError, RzsError
from .zeta import (_SPEC, T_SUPPORT_MAX, _format_rows, count_zeros, scan_zeros,
                   zero_table_to_csv)

__all__ = ["main", "run", "build_parser"]

_DEFAULT_TOL = 1.0e-8

# One template per output: the fields of ZeroCountEstimate in order, the
# gap mass and residual, and one bubble CSV row.
_COUNT_TEXT = (f"t = {_SPEC}\nn_main = {_SPEC}\nn_correction = {_SPEC}\n"
               f"n_estimate = {_SPEC}\ndensity = {_SPEC}\n")
_GAP_TEXT = f"m2 = {_SPEC}\nresidual = {_SPEC}\n"
_BUBBLE_ROW = f"{_SPEC},{_SPEC},{_SPEC},{_SPEC}\n"


@contextlib.contextmanager
def _atomic_open(path: str) -> Iterator[TextIO]:
    """A text file whose content replaces path's when the with block ends.

    Writes go to a temp file in path's directory, renamed onto path once
    the block completes and removed if it raises, so an error leaves path
    as it was even after blocks have been written.  path gets the mode
    open(path, "w") leaves: an existing file keeps its own, a new one
    gets 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".rzs-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.chmod(tmp_path, mode)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _print(ns: argparse.Namespace, text: str) -> None:
    """Print text; with --out-path, also write it there."""
    sys.stdout.write(text)
    if ns.out_path is not None:
        with _atomic_open(ns.out_path) as out:
            out.write(text)


def _cmd_zeros(ns: argparse.Namespace) -> None:
    table = scan_zeros(0.0, ns.t_max, ns.tol)
    with _atomic_open(ns.out_path) as out:
        zero_table_to_csv(table, file=out)


def _cmd_count(ns: argparse.Namespace) -> None:
    _print(ns, _COUNT_TEXT % count_zeros(ns.t))


def _log_grid(t_min: float, t_max: float, points: int) -> list[float]:
    """t_min (t_max/t_min)^(i/(points-1)) for i < points, both ends exact;
    one point is [t_min].  Where t_max/t_min overflows, the logarithms
    are interpolated instead."""
    ratio = t_max / t_min
    if ratio < math.inf:
        inner = [t_min * ratio ** (i / (points - 1)) for i in range(1, points - 1)]
    else:
        lo, hi = math.log(t_min), math.log(t_max)
        inner = [math.exp(lo + (hi - lo) * (i / (points - 1)))
                 for i in range(1, points - 1)]
    return [t_min, *inner, t_max][:points]


def _cmd_bubble(ns: argparse.Namespace) -> None:
    if not (0.0 < ns.t_min <= ns.t_max < math.inf):
        raise DomainError(
            "bubble: need finite 0 < t_min <= t_max for a log-spaced grid")
    if ns.points < 1:
        raise DomainError("bubble: points must be a positive integer")
    samples = (correlator_sample(t, ns.mass2)
               for t in _log_grid(ns.t_min, ns.t_max, ns.points))
    # An undefined (None) asymptote prints as nan.
    rows = ((s.t, s.pi_value, s.correlator,
             math.nan if s.asymptote is None else s.asymptote) for s in samples)
    with _atomic_open(ns.out_path) as out:
        out.write("t,pi,correlator,asymptote\n")
        _format_rows(out, _BUBBLE_ROW, rows)


def _cmd_gap(ns: argparse.Namespace) -> None:
    spec = GapEquationSpec(
        coupling=ns.coupling,
        n_components=ns.n_components,
        cutoff=ns.cutoff,
    )
    m2 = gap_mass(spec)
    residual = gap_residual(spec, m2)
    _print(ns, _GAP_TEXT % (m2, residual))


def _scan_upper_for(n_max: int) -> float:
    """Scan height for n_max zeros: g_{n_max+1}, capped at T_SUPPORT_MAX.

    N(g_n) = n + 1 + S(g_n), and S is -1, 0 or +1 at every Gram point
    below the supported height, so (0, g_{n_max+1}] holds n_max + 1 to
    n_max + 3 zeros.  Gram points start at g_-1, so any n_max < 0 scans
    to g_0 and is left for build_report to reject.
    """
    from ._zkernels import _gram_points

    if count_zeros(T_SUPPORT_MAX).n_estimate < n_max:
        raise DomainError(
            f"compare: n_max = {n_max} needs zeros above the supported "
            f"height {T_SUPPORT_MAX:g}"
        )
    return min(float(_gram_points([max(n_max + 1, 0)])[0]), T_SUPPORT_MAX)


def _cmd_compare(ns: argparse.Namespace) -> None:
    from .correspond import build_report, log_slope_fit, report_to_csv, report_to_json

    table = scan_zeros(0.0, _scan_upper_for(ns.n_max), ns.tol)
    report = build_report(table, ns.mass2, ns.n_max)
    if ns.format == "json":
        # Only the JSON carries the fit, which needs 50 rows.
        text = report_to_json(report, log_slope_fit(report))
    else:
        text = report_to_csv(report)
    with _atomic_open(ns.out_path) as out:
        out.write(text)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help text either reaches stdout or raises:
    argparse drops an OSError of that write, so a closed pipe would pass
    for success.  Its subparsers are of this class too."""

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rzs",
        description=(
            "Riemann zeta zeros, the 2D large-N sigma-model bubble, and "
            "the asymptotic correspondence between them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_zeros = sub.add_parser("zeros", help="scan zeros of Z and emit a CSV table")
    p_zeros.set_defaults(handler=_cmd_zeros)
    p_zeros.add_argument("--t-max", type=float, required=True,
                         help="upper end of the scan range (scan starts at 0)")
    p_zeros.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                         help="bracket width per zero (default 1e-8)")
    p_zeros.add_argument("--out-path", required=True, help="output CSV path")

    p_count = sub.add_parser("count", help="counting-formula estimate at height t")
    p_count.set_defaults(handler=_cmd_count)
    p_count.add_argument("--t", type=float, required=True, help="height T")
    p_count.add_argument("--out-path", help="also write the printed text here")

    p_bubble = sub.add_parser("bubble", help="correlator grid over log-spaced t")
    p_bubble.set_defaults(handler=_cmd_bubble)
    p_bubble.add_argument("--t-min", type=float, required=True)
    p_bubble.add_argument("--t-max", type=float, required=True)
    p_bubble.add_argument("--points", type=int, default=50,
                          help="grid size (default 50)")
    p_bubble.add_argument("--mass2", type=float, default=1.0,
                          help="squared mass (default 1.0)")
    p_bubble.add_argument("--out-path", required=True, help="output CSV path")

    p_gap = sub.add_parser("gap", help="solve the gap equation for m^2")
    p_gap.set_defaults(handler=_cmd_gap)
    p_gap.add_argument("--coupling", type=float, required=True, help="g0")
    p_gap.add_argument("--n-components", type=int, required=True, help="N")
    p_gap.add_argument("--cutoff", type=float, required=True, help="Lambda")
    p_gap.add_argument("--out-path", help="also write the printed text here")

    p_cmp = sub.add_parser("compare", help="zeros vs correlator report")
    p_cmp.set_defaults(handler=_cmd_compare)
    p_cmp.add_argument("--n-max", type=int, required=True,
                       help="largest zero index in the report")
    p_cmp.add_argument("--mass2", type=float, default=math.tau,
                       help="squared mass (default 2*pi)")
    p_cmp.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                       help="bracket width per zero (default 1e-8)")
    p_cmp.add_argument("--out-path", required=True, help="output path")
    p_cmp.add_argument("--format", choices=["json", "csv"], default="json",
                       help="json (with the slope fit) or csv (rows only)")

    return parser


def main(argv: list[str] | None = None) -> int:
    # rzs calls no BLAS, but OpenBLAS starts its worker when numpy loads,
    # costing every fresh process 60-70 ms.  The setting counts only before
    # numpy loads; once it has, the environment is left as it was.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        ns.handler(ns)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except (RzsError, OSError) as exc:
        return _error(exc)
    return 0


def _error(exc: Exception) -> int:
    """Print the one-line diagnostic of exc; returns exit status 1."""
    print(f"error: {exc}", file=sys.stderr)
    return 1


def run() -> NoReturn:
    """Run main, flush stdout and stderr, and end the process at once.

    A failing stdout flush is an error like any OSError of main, one
    diagnostic line and status 1, unless main has already failed.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = code or _error(exc)
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)
