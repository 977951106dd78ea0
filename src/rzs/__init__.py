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

The public names resolve on every access from their home modules (PEP
562), uncached, so `import rzs` loads no numpy and rzs.<name> is always
the object its home module holds.
"""

import importlib

__version__ = "0.1.0"

# Home module of every public name.
_HOME = {name: module for module, names in (
    ("bubble", "BubbleSpec CorrelatorSample GapEquationSpec correlator_sample "
               "f_kinematic feynman_integral gap_mass gap_residual pi_at_zero "
               "pi_closed"),
    ("correspond", "CorrespondenceReport FitResult ReportRow ReportSummary "
                   "build_report log_slope_fit report_to_csv report_to_json"),
    ("errors", "AuditError ConvergenceError DomainError InsufficientZerosError "
               "NoSolutionError PrecisionError RzsError"),
    ("zeta", "CriticalLineSample ZeroCountEstimate ZeroEntry ZeroTable count_zeros "
             "gamma_asymptotic scan_zeros theta z_function zero_table_to_csv"),
) for name in names.split()}
_SUBMODULES = ("bubble", "correspond", "errors", "zeta")

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
