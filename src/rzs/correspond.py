"""Pairing zeta zeros with the sigma-model correlator at t = n.

Identifying the zero index n with the squared momentum t makes the
correlator asymptote 2 pi t / ln(t/m^2) and the zero-height asymptote
2 pi n / ln(n/2pi) literally the same expression when m^2 = 2 pi.  This
module quantifies how well the computed zeros track the exact
correlator under that identification: one row per n in [7, n_max]
(n <= 6 is excluded because ln(n/2pi) is not positive there), with

    prediction      = 1 / Pi(sqrt(n))   at mass m2,
    asym_prediction = 2 pi n / ln(n/2pi),
    rel_dev         = |gamma_n - prediction| / gamma_n.

The default m^2 = 2 pi is a choice, not a law: it is the unique mass
for which the two asymptotes coincide, and it is configurable.  The
comparison reports deviations without asserting a convergence rate:
the zero-height asymptote converges only logarithmically, and at
accessible n the pointwise deviation is not even monotone (it grows
from n ~ 100 to n ~ 1000 before the asymptotic regime takes over),
which is why the summary bins mean deviations by decade of n.  Note
also that t is a continuous momentum while n is a discrete index; this
module simply samples the correlator at integer t and records the
caveat rather than resolving it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bubble import correlator_sample
from .errors import DomainError, InsufficientZerosError, _integer
from .zeta import _SPEC, ZeroTable, _rows_text, gamma_asymptotic

__all__ = [
    "ReportRow",
    "ReportSummary",
    "CorrespondenceReport",
    "FitResult",
    "build_report",
    "log_slope_fit",
    "report_to_csv",
    "report_to_json",
]

_N_ROW_MIN = 7  # smallest index with ln(n/2pi) > 0
_FIT_ROWS_MIN = 50


class ReportRow(NamedTuple):
    """One paired observation at index n."""

    n: int
    gamma_n: float
    prediction: float
    asym_prediction: float
    rel_dev: float


class ReportSummary(NamedTuple):
    """Deviation statistics over all rows.

    mean_rel_dev_per_decade maps the decade exponent e (rows with
    10^e <= n < 10^{e+1}) to the mean rel_dev in that decade.  The slope
    of gamma_n * ln(n/2pi) comes from log_slope_fit.
    """

    max_rel_dev: float
    mean_rel_dev_per_decade: tuple[tuple[int, float], ...]


class CorrespondenceReport(NamedTuple):
    """Rows plus summary for one mass value m2."""

    m2: float
    rows: tuple[ReportRow, ...]
    summary: ReportSummary


class FitResult(NamedTuple):
    slope: float
    intercept: float
    residual: float


def build_report(zeros: ZeroTable, m2: float, n_max: int) -> CorrespondenceReport:
    """One row per n in [7, n_max] pairing gamma_n with the correlator.

    The zero table must carry global indices starting at 1 (a full scan
    from t = 0) and hold at least n_max entries.
    """
    n_max = _integer("build_report: n_max", n_max)
    if n_max < 10:
        raise DomainError("build_report: need n_max >= 10")
    if not m2 > 0.0:
        raise DomainError("build_report: m2 must be positive")
    m2 = float(m2)
    if len(zeros.gamma) < n_max:
        raise InsufficientZerosError(
            f"build_report: table holds {len(zeros.gamma)} zeros, "
            f"need {n_max}"
        )
    if zeros.n_first != 1:
        raise DomainError(
            "build_report: zero table must start at global index 1 "
            "(scan from t = 0)"
        )

    rows = []
    gammas = zeros.gamma[_N_ROW_MIN - 1:n_max].tolist()
    for n, gamma in enumerate(gammas, _N_ROW_MIN):
        prediction = correlator_sample(float(n), m2).correlator
        rows.append(
            ReportRow(
                n=n,
                gamma_n=gamma,
                prediction=prediction,
                asym_prediction=gamma_asymptotic(n),
                rel_dev=abs(gamma - prediction) / gamma,
            )
        )

    # Rows are n = 7, 8, ..., so decade e >= 1 starts at row 10^e - 7.
    devs = np.array([r.rel_dev for r in rows])
    splits = [10**e - _N_ROW_MIN for e in range(1, len(str(n_max)))]
    decades = tuple((e, float(d.mean())) for e, d in enumerate(np.split(devs, splits)))
    summary = ReportSummary(
        max_rel_dev=float(devs.max()),
        mean_rel_dev_per_decade=decades,
    )
    return CorrespondenceReport(m2=m2, rows=tuple(rows), summary=summary)


def log_slope_fit(
    report: CorrespondenceReport,
    *,
    n_min: int | None = None,
    n_max: int | None = None,
) -> FitResult:
    """Least squares of y = gamma_n * ln(n/2pi) against x = n.

    If the identification holds asymptotically, y grows linearly with
    slope near 2 pi.  The optional integer window [n_min, n_max] limits
    the fit (defaults cover the whole report); at least 50 rows must
    survive it.  residual is the root-mean-square misfit relative to
    mean(y).

    The line is the centred closed form, in element-wise operations and
    correctly rounded sums (math.fsum) alone: no BLAS or LAPACK solver
    runs, and the slope lies within 1 ulp of the exact least squares of
    the same doubles.
    """
    lo = report.rows[0].n if n_min is None else _integer("log_slope_fit: n_min", n_min)
    hi = report.rows[-1].n if n_max is None else _integer("log_slope_fit: n_max", n_max)
    rows = [r for r in report.rows if lo <= r.n <= hi]
    if len(rows) < _FIT_ROWS_MIN:
        raise DomainError(
            f"log_slope_fit: {len(rows)} rows in window, need >= {_FIT_ROWS_MIN}"
        )
    x = np.array([float(r.n) for r in rows])
    y = np.array([r.gamma_n * math.log(r.n / math.tau) for r in rows])
    x_mean, y_mean = math.fsum(x) / x.size, math.fsum(y) / y.size
    xc = x - x_mean
    slope = math.fsum(xc * (y - y_mean)) / math.fsum(xc * xc)
    intercept = y_mean - slope * x_mean
    misfit = y - (slope * x + intercept)
    residual = math.sqrt(float(np.mean(misfit * misfit))) / float(y_mean)
    return FitResult(slope=float(slope), intercept=float(intercept),
                     residual=residual)


# ----------------------------------------------------------------------
# Serialization (text only; file handling lives in the cli module)
# ----------------------------------------------------------------------

# The fields n,gamma,prediction,asym_prediction,rel_dev of a ReportRow.
_ROW = f"%d,{_SPEC},{_SPEC},{_SPEC},{_SPEC}"
_JSON_HEAD = f'{{"m2":{_SPEC},"rows":['
_JSON_SUMMARY = (f'],"summary":{{"max_rel_dev":{_SPEC},'
                 '"mean_rel_dev_per_decade":{%s}}')
_JSON_FIT = f',"fit":{{"slope":{_SPEC},"intercept":{_SPEC},"residual":{_SPEC}}}'


def report_to_csv(report: CorrespondenceReport) -> str:
    """Rows only, header n,gamma,prediction,asym_prediction,rel_dev."""
    return ("n,gamma,prediction,asym_prediction,rel_dev\n"
            + _rows_text(_ROW + "\n", report.rows))


def report_to_json(report: CorrespondenceReport, fit: FitResult | None = None) -> str:
    """Report as JSON: m2, rows as arrays, summary object.

    Numbers carry 17 significant digits, rendered by % templates (the
    stdlib encoder formats floats its own way).  When a fit is supplied
    it is appended as a "fit" object.
    """
    # Each row and decade mean opens with its comma; [1:] drops the first.
    rows = _rows_text(f",[{_ROW}]", report.rows)[1:]
    decades = _rows_text(f',"%d":{_SPEC}', report.summary.mean_rel_dev_per_decade)[1:]
    text = (_JSON_HEAD % report.m2 + rows
            + _JSON_SUMMARY % (report.summary.max_rel_dev, decades))
    if fit is not None:
        text += _JSON_FIT % fit
    return text + "}\n"
