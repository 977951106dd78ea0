"""Critical-line zeta evaluation, zero location, and zero-counting statistics.

The central object is the real-valued function

    Z(t) = exp(i*theta(t)) * zeta(1/2 + i*t),

whose sign changes mark the zeros of zeta on the critical line.  Here
theta is the phase

    theta(t) = Im ln Gamma(1/4 + i*t/2) - (t/2) ln pi,

computed from its real asymptotic series in 1/t from t = 10 up, and
below that from the Stirling series for ln Gamma after a recurrence
shift.  Z itself comes from one main sum,
sum_{n<=N} cos(theta(t) - t ln n)/sqrt(n), for both of its methods:
truncated Euler-Maclaurin summation below the crossover t = 30 (N = 45
terms plus the Bernoulli tail for every height) and the Riemann-Siegel
expansion from it up (twice the sum to N = floor(sqrt(t/2pi)) plus two
correction terms: Psi, even about p = 1/2, from its committed series of
12 Chebyshev terms, and Psi''', odd, from 10 derived from it at import).
A batch is evaluated in blocks of at most 4,096 heights, so its
temporaries are bounded whatever its size.  The sum runs over the
heights of a block sorted by N, one term n at a time across the
contiguous run of heights that need it; each height adds its own terms
in order, so a value does not depend on its batch.  Each cosine comes
from the tangent of the half phase, cos x = (1 - u^2)/(1 + u^2) with
u = tan(x/2), which numpy vectorises.  Only z_function bounds Z's error.

Zeros are located on the Gram-point grid, g_n with theta(g_n) = n pi.
Consecutive good Gram points ((-1)^n Z(g_n) > 0) bound Gram blocks, and
by Rosser's rule a block of k Gram intervals holds exactly k zeros; the
blocks that show fewer sign changes are subdivided until they show all
of them.  Every bracket is then refined by bracketed Anderson-Bjorck
(regula falsi) steps.
All heights are limited to t <= 1e4 and tolerances to >= 1e-8: that is
the regime where plain double precision keeps every promise made here.
The scan returns a columnar ZeroTable, one read-only float64 array per
column, and builds no object per zero.

theta, z_function and scan_zeros import the numpy kernels of all this,
rzs._zkernels, on their first call; counting zeros loads no numpy.

_SPEC and _format_rows, the one number spec and the one row writer,
serve every text rzs writes.
"""

from __future__ import annotations

import io
import itertools
import math
import sys
from typing import NamedTuple, TextIO

from .errors import DomainError, PrecisionError, _integer

__all__ = [
    "CriticalLineSample",
    "ZeroTable",
    "ZeroEntry",
    "ZeroCountEstimate",
    "theta",
    "z_function",
    "scan_zeros",
    "count_zeros",
    "gamma_asymptotic",
    "zero_table_to_csv",
]

# Supported precision regime: double precision keeps the error model
# honest only for heights up to 1e4 and tolerances down to 1e-8.
T_SUPPORT_MAX = 1.0e4
TOL_SUPPORT_MIN = 1.0e-8


# ----------------------------------------------------------------------
# Domain types
# ----------------------------------------------------------------------

class CriticalLineSample(NamedTuple):
    """One evaluation of Z on the critical line.

    method records which path produced the value ("euler_maclaurin" or
    "riemann_siegel"); est_abs_error is a positive bound on |error|.
    """

    t: float
    z_value: float
    theta_value: float
    method: str
    est_abs_error: float


class ZeroEntry(NamedTuple):
    """One located zero: global index, refined height, final bracket."""

    n: int
    gamma: float
    bracket_lo: float
    bracket_hi: float
    refined_tol: float


class ZeroTable(NamedTuple):
    """Ordered zeros up to height t_max, one column per field.

    Zero n_first + i has the refined height gamma[i] and the final
    bracket [bracket_lo[i], bracket_hi[i]], at most refined_tol wide.
    The three columns are read-only float64 numpy arrays.  A table
    compares and hashes by value: it equals a ZeroTable, and nothing
    else, whose fields are equal, each column bit for bit.
    """

    n_first: int
    gamma: numpy.ndarray  # a name only: this module imports no numpy
    bracket_lo: numpy.ndarray
    bracket_hi: numpy.ndarray
    refined_tol: float
    t_max: float

    def __eq__(self, other):
        return isinstance(other, ZeroTable) and _table_key(self) == _table_key(other)

    def __ne__(self, other):  # tuple's own != would compare the arrays
        return not self == other

    def __hash__(self):
        return hash(_table_key(self))

    @property
    def zeros(self) -> tuple[ZeroEntry, ...]:
        """The rows as ZeroEntry records of Python floats, built anew on
        every access."""
        return tuple(map(
            ZeroEntry, itertools.count(self.n_first), self.gamma.tolist(),
            self.bracket_lo.tolist(), self.bracket_hi.tolist(),
            itertools.repeat(self.refined_tol),
        ))


def _table_key(table: ZeroTable) -> tuple:
    """The fields of table with each column as its bytes."""
    return (table.n_first, table.gamma.tobytes(), table.bracket_lo.tobytes(),
            table.bracket_hi.tobytes(), table.refined_tol, table.t_max)


class ZeroCountEstimate(NamedTuple):
    """Counting-formula value N(T) split into main term and correction,
    plus the local density D(T) = ln(T/2pi) / 2pi."""

    t: float
    n_main: float
    n_correction: float
    n_estimate: float
    density: float


# ----------------------------------------------------------------------
# theta(t) and Z(t); the array kernels live in rzs._zkernels
# ----------------------------------------------------------------------

def theta(t: float) -> float:
    """Riemann-Siegel theta, theta(t) = arg Gamma(1/4 + it/2) - (t/2) ln pi.

    Odd in t.  Raises PrecisionError outside the supported height range.
    """
    t = float(t)
    if not math.isfinite(t):
        raise DomainError("theta: height must be finite")
    if abs(t) > T_SUPPORT_MAX:
        raise PrecisionError(
            f"theta: |t| = {abs(t):g} exceeds supported height {T_SUPPORT_MAX:g}"
        )
    if t < 0.0:
        return -theta(-t)
    from ._zkernels import _theta_vec

    return float(_theta_vec([t])[0])


def z_function(t: float, tol: float) -> CriticalLineSample:
    """Evaluate Z(t) with an absolute error bound est_abs_error <= tol.

    method names how the one main sum is completed: Euler-Maclaurin
    below t = 30, whose bound is a proven truncation bound plus a rounding
    floor near 1e-13, or Riemann-Siegel above, whose bound
    0.02 (t/2pi)^{-5/4} rests on a measured coefficient, not a proof.
    One kernel call gives the value, bit-equal to a scan's at the same
    height, and theta; _z_bound gives its bound.  Even in t (Z(-t) =
    Z(t)), so negative heights are served through their absolute value;
    theta_value keeps its odd sign.  Raises PrecisionError when the
    tolerance is unreachable at this height with the configured term
    counts, so tight tolerances are only servable below the crossover.
    """
    t = float(t)
    tol = float(tol)
    if not math.isfinite(t):
        raise DomainError("z_function: height must be finite")
    if not tol > 0.0:
        raise DomainError("z_function: tol must be positive")
    if abs(t) > T_SUPPORT_MAX:
        raise PrecisionError(
            f"z_function: |t| = {abs(t):g} exceeds supported height {T_SUPPORT_MAX:g}"
        )
    from ._zkernels import CROSSOVER_T, _z_block, _z_bound

    at = abs(t)
    vals, th = _z_block([at])
    method = "euler_maclaurin" if at < CROSSOVER_T else "riemann_siegel"
    est = float(_z_bound([at])[0])
    if est > tol:
        raise PrecisionError(
            f"z_function: reachable error {est:.3e} at t = {t:g} exceeds tol = {tol:g}"
        )
    return CriticalLineSample(
        t=t,
        z_value=float(vals[0]),
        theta_value=-float(th[0]) if t < 0.0 else float(th[0]),
        method=method,
        est_abs_error=est,
    )


# ----------------------------------------------------------------------
# Counting formula and zero-height asymptote
# ----------------------------------------------------------------------

def count_zeros(t: float) -> ZeroCountEstimate:
    """Counting-formula estimate N(T) = (T/2pi) ln(T/2pi) - T/2pi + 7/8.

    With the constant correction 7/8, N(T) - 1 matches theta(T)/pi, the
    smooth count of Gram points, up to O(1/T).  Also returns the density
    D(T) = ln(T/2pi) / 2pi.
    """
    t = float(t)
    u = t / math.tau
    if not (math.isfinite(t) and u >= sys.float_info.min):
        raise DomainError("count_zeros: height must be finite, t/2pi positive normal")
    log_u = math.log(u)
    n_main = u * (log_u - 1.0)
    if not math.isfinite(n_main):
        raise DomainError("count_zeros: counting formula overflowed")
    return ZeroCountEstimate(
        t=t,
        n_main=n_main,
        n_correction=7.0 / 8.0,
        n_estimate=n_main + 7.0 / 8.0,
        density=log_u / math.tau,
    )


def gamma_asymptotic(n: int) -> float:
    """Asymptotic height of the n-th zero, 2 pi n / ln(n/2pi).

    Meaningful only once the logarithm is positive, which needs n >= 7;
    smaller n raise DomainError.
    """
    n = _integer("gamma_asymptotic: n", n)
    if n <= 6:
        raise DomainError(
            f"gamma_asymptotic: n = {n} has n/2pi <= 1, logarithm not positive"
        )
    try:
        x = float(n)
    except OverflowError:
        raise DomainError("gamma_asymptotic: n too large for a float") from None
    # n / ln(n/2pi) first: 2 pi n would overflow above n ~ 2.9e307.
    return math.tau * (x / math.log(x / math.tau))


# ----------------------------------------------------------------------
# Zero scan
# ----------------------------------------------------------------------

def scan_zeros(t_min: float, t_max: float, tol: float) -> ZeroTable:
    """Locate every sign-change zero of Z in (t_min, t_max].

    The scan always covers (0, t_max] internally so indices n are global
    counts from t = 0; zeros below t_min are dropped from the output
    only after indexing, so the table's n_first is the global index of
    its first zero.

    Z is evaluated in one batch on the Gram points g_n (theta(g_n) = n pi)
    from g_-1 ~ 9.67 on and on t_max, a node so that no bracket crosses
    it; the grid ends at the first good one at or above t_max.
    Consecutive good Gram points bound Gram blocks.  By Rosser's rule,
    which holds for every block far beyond t = 1e4 (Brent, Math. Comp.
    33, 1979), a block of k Gram intervals holds exactly k zeros.  The
    blocks showing fewer sign changes are subdivided together, halving
    their node spacing down to STRIDE_FLOOR; a block still unresolved
    there raises AuditError.  Z < 0 on (0, 14.13), so g_-1 is good and
    (0, g_-1] holds no zero: the i-th sign change is zero n = i.  Each
    bracket is then refined by bracketed Anderson-Bjorck steps to width
    <= tol, in place, once the arrays of the Gram grid are freed.

    Equal arguments give equal batches, so the result is deterministic.
    """
    t_min = float(t_min)
    t_max = float(t_max)
    tol = float(tol)
    if not (0.0 <= t_min < t_max):
        raise DomainError("scan_zeros: need 0 <= t_min < t_max")
    if not tol > 0.0:
        raise DomainError("scan_zeros: tol must be positive")
    if tol < TOL_SUPPORT_MIN:
        raise PrecisionError(
            f"scan_zeros: tol = {tol:g} below supported minimum {TOL_SUPPORT_MIN:g}"
        )
    if t_max > T_SUPPORT_MAX:
        raise PrecisionError(
            f"scan_zeros: t_max = {t_max:g} exceeds supported height {T_SUPPORT_MAX:g}"
        )

    from ._zkernels import _refine_brackets, _scan_brackets

    # N(T) < 1 up to 2pi e: any t_max below 2pi sizes the grid as 2pi does.
    n_estimate = count_zeros(max(t_max, math.tau)).n_estimate
    lo, hi = _refine_brackets(*_scan_brackets(t_max, n_estimate), tol)
    gammas = 0.5 * (lo + hi)
    start = int(gammas.searchsorted(t_min, "right"))  # gammas ascend
    columns = gammas[start:], lo[start:], hi[start:]
    for column in columns:
        column.flags.writeable = False
    return ZeroTable(start + 1, *columns, refined_tol=tol, t_max=t_max)


# ----------------------------------------------------------------------
# Serialization (text only; file handling lives in the cli module)
# ----------------------------------------------------------------------

# The one number spec of every rzs output: 17 significant digits
# round-trip any double exactly, and a nan prints as "nan".  Every text
# rzs writes is a % template built from it.
_SPEC = "%.17g"
_BLOCK = 1024
_CSV_ROW = f"%d,{_SPEC},{_SPEC},{_SPEC}\n"


def _format_rows(out: TextIO, row: str, records) -> None:
    """Write the records (tuples of the template's fields) to out, rendered
    by the % template row one after another; each % operation renders
    _BLOCK of them, and each block goes to out as soon as it is made."""
    records = iter(records)
    while block := tuple(itertools.islice(records, _BLOCK)):
        out.write(row * len(block) % tuple(itertools.chain.from_iterable(block)))


def _rows_text(row: str, records) -> str:
    """What _format_rows writes, as one str."""
    out = io.StringIO()
    _format_rows(out, row, records)
    return out.getvalue()


def zero_table_to_csv(table: ZeroTable, file: TextIO | None = None) -> str | None:
    """ZeroTable as CSV with header n,gamma,bracket_lo,bracket_hi.

    Full double precision (17 significant digits), '.' radix, newline
    line ends.  Returns the text; given a text file, writes it there
    block by block instead, never holding the whole text, and returns
    None.
    """
    out = io.StringIO() if file is None else file
    out.write("n,gamma,bracket_lo,bracket_hi\n")
    columns = table.gamma, table.bracket_lo, table.bracket_hi
    _format_rows(out, _CSV_ROW, itertools.chain.from_iterable(
        zip(itertools.count(table.n_first + i),
            *(column[i:i + _BLOCK].tolist() for column in columns))
        for i in range(0, len(table.gamma), _BLOCK)))
    return out.getvalue() if file is None else None
