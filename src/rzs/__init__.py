"""Riemann zeta zeros, the 2D large-N sigma-model bubble, and the
asymptotic correspondence between them.

Three computational layers:

- rzs.zeta: critical-line evaluation of Z(t), zero scanning over
  Gram blocks, and Riemann-von Mangoldt statistics.
- rzs.bubble: the one-loop polarization Pi(p), the general
  Feynman-parameter integral, the correlator asymptote, and the
  saddle-point gap equation.
- rzs.correspond: deviation reports pairing gamma_n with the
  correlator at t = n.

The rzs.cli module exposes all of it as the `rzs` command.
"""

from .bubble import (
    BubbleSpec,
    CorrelatorSample,
    GapEquationSpec,
    correlator_sample,
    f_kinematic,
    feynman_integral,
    gap_mass,
    gap_residual,
    pi_at_zero,
    pi_closed,
)
from .correspond import (
    CorrespondenceReport,
    FitResult,
    ReportRow,
    ReportSummary,
    build_report,
    log_slope_fit,
    report_to_csv,
    report_to_json,
)
from .errors import (
    AuditError,
    ConvergenceError,
    DomainError,
    InsufficientZerosError,
    NoSolutionError,
    PrecisionError,
    RzsError,
)
from .zeta import (
    CriticalLineSample,
    ZeroCountEstimate,
    ZeroEntry,
    ZeroTable,
    count_zeros,
    gamma_asymptotic,
    scan_zeros,
    theta,
    z_function,
    zero_table_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AuditError",
    "BubbleSpec",
    "ConvergenceError",
    "CorrelatorSample",
    "CorrespondenceReport",
    "CriticalLineSample",
    "DomainError",
    "FitResult",
    "GapEquationSpec",
    "InsufficientZerosError",
    "NoSolutionError",
    "PrecisionError",
    "ReportRow",
    "ReportSummary",
    "RzsError",
    "ZeroCountEstimate",
    "ZeroEntry",
    "ZeroTable",
    "build_report",
    "correlator_sample",
    "count_zeros",
    "f_kinematic",
    "feynman_integral",
    "gamma_asymptotic",
    "gap_mass",
    "gap_residual",
    "log_slope_fit",
    "pi_at_zero",
    "pi_closed",
    "report_to_csv",
    "report_to_json",
    "scan_zeros",
    "theta",
    "z_function",
    "zero_table_to_csv",
    "__version__",
]
