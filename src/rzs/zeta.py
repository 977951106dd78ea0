"""Critical-line zeta evaluation, zero location, and zero-counting statistics.

The central object is the real-valued function

    Z(t) = exp(i*theta(t)) * zeta(1/2 + i*t),

whose sign changes mark the zeros of zeta on the critical line.  Here
theta is the phase

    theta(t) = Im ln Gamma(1/4 + i*t/2) - (t/2) ln pi,

computed from its real asymptotic series in 1/t from t = 10 up, and
below that from the Stirling series for ln Gamma after a recurrence
shift.  Z itself is evaluated by truncated Euler-Maclaurin summation at
low heights (cheap and certifiable there) and by the main sum of the
Riemann-Siegel expansion plus its first two correction terms above a
fixed crossover height; the crossover is t = 30.  The main sum runs
over the heights sorted by their term count N, one term n at a time
across the contiguous run of heights that need it, and the correction
terms come from a degree-24 Chebyshev series of Psi.

Zeros are located on the Gram-point grid, g_n with theta(g_n) = n pi.
Consecutive good Gram points ((-1)^n Z(g_n) > 0) bound Gram blocks, and
by Rosser's rule a block of k Gram intervals holds exactly k zeros; the
blocks that show fewer sign changes are subdivided until they show all
of them.  Every bracket is then refined by bracketed Illinois steps.
All heights are limited to t <= 1e4 and tolerances to >= 1e-8: that is
the regime where plain double precision keeps every promise made here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from .errors import AuditError, DomainError, PrecisionError

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

LN_PI = math.log(math.pi)
LN_2PI = math.log(math.tau)

# Supported precision regime: double precision keeps the error model
# honest only for heights up to 1e4 and tolerances down to 1e-8.
T_SUPPORT_MAX = 1.0e4
TOL_SUPPORT_MIN = 1.0e-8

# Evaluation crossover: Euler-Maclaurin below, Riemann-Siegel above.
CROSSOVER_T = 30.0

# theta(t) comes from its asymptotic series at t >= THETA_SERIES_T: the
# first omitted term, 691/2730 * (1 - 2^-11) / 264 * t^-11 ~ 9.6e-4 t^-11,
# is <= 1e-14 there.  Below it, the shifted Stirling series serves.
# _THETA_SERIES holds the coefficients of t^-1, t^-3, ..., t^-9.
THETA_SERIES_T = 10.0
_THETA_SERIES = (
    1.0 / 48.0,
    7.0 / 5760.0,
    31.0 / 80640.0,
    127.0 / 430080.0,
    511.0 / 1216512.0,
)

# Zero scan.  A Gram block that does not show one sign change per Gram
# interval is subdivided until its node spacing reaches STRIDE_FLOOR.
# Gram points come from _LAMBERT_STEPS Newton steps for Lambert's W,
# then _GRAM_NEWTON_STEPS on theta, and past t_max in batches of
# _GRAM_PAD.  A node or refinement point where Z is exactly 0.0 moves
# up by _NUDGE, far below any node spacing and below half of
# TOL_SUPPORT_MIN.  Root refinement may fall _REFINE_SLACK halvings
# behind plain bisection.
STRIDE_FLOOR = 1.0 / 1024.0
_LAMBERT_STEPS = 8
_GRAM_NEWTON_STEPS = 4
_GRAM_PAD = 8
_NUDGE = 1.0e-6 * STRIDE_FLOOR
_REFINE_SLACK = 3

# Bernoulli numbers B_2, B_4, ..., B_16.
_BERN2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

# B_2k / (2k)! for the Euler-Maclaurin tail, k = 1..8; B_18 feeds the
# truncation bound on the first omitted term.
_EM_COEF = tuple(
    b / math.factorial(2 * (k + 1)) for k, b in enumerate(_BERN2K)
)
_BERN_18 = 43867.0 / 798.0

_STIRLING_SHIFT = 12  # ln Gamma recurrence shift before the series


# ----------------------------------------------------------------------
# Domain types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalLineSample:
    """One evaluation of Z on the critical line.

    method records which path produced the value ("euler_maclaurin" or
    "riemann_siegel"); est_abs_error is a positive bound on |error|.
    """

    t: float
    z_value: float
    theta_value: float
    method: str
    est_abs_error: float


@dataclass(frozen=True)
class ZeroEntry:
    """One located zero: global index, refined height, final bracket."""

    n: int
    gamma: float
    bracket_lo: float
    bracket_hi: float
    refined_tol: float


@dataclass(frozen=True)
class ZeroTable:
    """Ordered zeros with bracketing metadata, up to height t_max."""

    zeros: tuple[ZeroEntry, ...]
    t_max: float


@dataclass(frozen=True)
class ZeroCountEstimate:
    """Counting-formula value N(T) split into main term and correction,
    plus the local density D(T) = ln(T/2pi) / 2pi."""

    t: float
    n_main: float
    n_correction: float
    n_estimate: float
    density: float


# ----------------------------------------------------------------------
# theta(t): asymptotic series, or Stirling series for Im ln Gamma(1/4 + i t/2)
# ----------------------------------------------------------------------

def _log_gamma_imag(z: np.ndarray) -> np.ndarray:
    """Im ln Gamma(z) for complex z with Re z > 0, elementwise.

    Shift z by the recurrence ln Gamma(z) = ln Gamma(z+s) - sum ln(z+k)
    so the asymptotic series runs at |z+s| >= 12, where eight Bernoulli
    terms reach double-precision accuracy.
    """
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for k in range(_STIRLING_SHIFT):
        acc += np.log(z + k)
    zs = z + _STIRLING_SHIFT
    series = np.zeros_like(z)
    zpow = zs.copy()
    z2 = zs * zs
    for k, b in enumerate(_BERN2K, start=1):
        series += b / ((2 * k) * (2 * k - 1) * zpow)
        zpow = zpow * z2
    total = (zs - 0.5) * np.log(zs) - zs + 0.5 * LN_2PI + series - acc
    return total.imag


def _theta_series(ts: np.ndarray) -> np.ndarray:
    """theta(t) = (t/2) ln(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760t^3) + ...,
    the real asymptotic series, for heights t >= THETA_SERIES_T."""
    x = 1.0 / ts
    x2 = x * x
    tail = _THETA_SERIES[-1]
    for coef in _THETA_SERIES[-2::-1]:
        tail = coef + x2 * tail
    return 0.5 * ts * (np.log(ts / math.tau) - 1.0) - math.pi / 8.0 + x * tail


def _theta_vec(ts: np.ndarray) -> np.ndarray:
    """theta on an array of non-negative heights."""
    out = np.empty_like(ts)
    low = ts < THETA_SERIES_T
    out[~low] = _theta_series(ts[~low])
    if low.any():
        t_low = ts[low]
        out[low] = _log_gamma_imag(0.25 + 0.5j * t_low) - 0.5 * t_low * LN_PI
    return out


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
    return float(_theta_vec(np.array([t]))[0])


# ----------------------------------------------------------------------
# Euler-Maclaurin evaluation of zeta(1/2 + it), t below the crossover
# ----------------------------------------------------------------------

def _em_order(t: float) -> int:
    """Truncation point N of the Euler-Maclaurin sum at height t."""
    return max(20, int(math.ceil(1.2 * t + 10.0)))


def _zeta_em_group(ts: np.ndarray, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """zeta(1/2 + i ts) by Euler-Maclaurin with a shared truncation N.

    Returns (values, truncation bounds).  The remainder after the k = K
    tail term is bounded by |next term| * |s + 2K + 1| / (sigma + 2K + 1).
    """
    s = 0.5 + 1j * ts
    ns = np.arange(1, n_terms)
    # sum n^{-s} = n^{-1/2} e^{-i t ln n}
    phases = np.exp(-1j * np.outer(ts, np.log(ns)))
    partial = phases @ (1.0 / np.sqrt(ns)).astype(complex)
    n_pow = float(n_terms) ** (-s)  # N^{-s}
    value = partial + 0.5 * n_pow + n_pow * n_terms / (s - 1.0)

    # Tail: sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * N^{-s-2k+1}
    rising = s.copy()
    q = n_pow / n_terms  # N^{-s-1}
    n_inv2 = 1.0 / (n_terms * n_terms)
    for k, coef in enumerate(_EM_COEF, start=1):
        if k > 1:
            rising = rising * (s + (2 * k - 3)) * (s + (2 * k - 2))
        value = value + coef * rising * q
        q = q * n_inv2

    k_next = len(_EM_COEF) + 1  # first omitted tail index; needs B_18
    rising_next = rising * (s + (2 * k_next - 3)) * (s + (2 * k_next - 2))
    coef_next = _BERN_18 / math.factorial(2 * k_next)
    first_omitted = abs(coef_next) * np.abs(rising_next) * np.abs(q)
    bound = first_omitted * np.abs(s + (2 * k_next - 1)) / (0.5 + 2 * k_next - 1)
    return value, bound


def _z_em_vec(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z(t) below the crossover, with error estimates, grouped by N."""
    vals = np.empty_like(ts)
    errs = np.empty_like(ts)
    orders = np.array([_em_order(t) for t in ts])
    th = _theta_vec(ts)
    for n_terms in np.unique(orders):
        m = orders == n_terms
        zeta_vals, bounds = _zeta_em_group(ts[m], int(n_terms))
        vals[m] = (np.exp(1j * th[m]) * zeta_vals).real
        # Truncation bound plus a rounding floor for the ~N-term sums.
        errs[m] = bounds + 1.0e-13
    return vals, errs


# ----------------------------------------------------------------------
# Riemann-Siegel evaluation, t at or above the crossover
# ----------------------------------------------------------------------

# Chebyshev series of Psi(p) = cos(2pi(p^2 - p - 1/16)) / cos(2pi p) on
# [0, 1]: the degree-64 interpolant truncated to degree 24.  Psi is
# entire, as the numerator cancels the zeros of the denominator at
# p = 1/4 and 3/4; the 65 first-kind nodes stay >= 0.0034 away from both
# removable points.  The coefficients beyond degree ~20 are rounding
# noise below 1.4e-14, and the third derivative needed for the second
# correction term amplifies that noise: Psi''' of the full interpolant
# is off by ~2e-4, of the truncated series by ~1e-7.
_PSI = Chebyshev.interpolate(
    lambda p: np.cos(math.tau * (p * p - p - 0.0625)) / np.cos(math.tau * p),
    64, domain=[0.0, 1.0],
).truncate(25)
_PSI3 = _PSI.deriv(3)

_RS_ERR_COEF = 0.02  # measured: |error| <= 0.005 * a^{-5/2}; 4x margin


def _z_rs_vec(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z(t) by the Riemann-Siegel main sum plus two correction terms.

    With a = sqrt(t/2pi), N = floor(a), p = a - N:

        Z(t) ~ 2 sum_{n<=N} cos(theta(t) - t ln n)/sqrt(n)
               + (-1)^{N-1} a^{-1/2} [ Psi(p) - Psi'''(p)/(96 pi^2 a) ].

    The heights are sorted once, so for every n the heights with N >= n
    form one contiguous tail; term n is added across that tail, from
    tables of ln n and n^{-1/2} shared by all heights, and the results
    are scattered back to input order.  No temporary is larger than the
    batch.
    """
    order = np.argsort(ts)
    t = ts[order]
    a = np.sqrt(t / math.tau)
    big_n = np.floor(a).astype(int)
    p = a - big_n
    th = _theta_vec(t)

    ns = np.arange(1, big_n[-1] + 1)
    ln_n = np.log(ns)
    rsqrt_n = 1.0 / np.sqrt(ns)
    main = np.zeros_like(t)
    for n, start in enumerate(np.searchsorted(big_n, ns)):
        main[start:] += rsqrt_n[n] * np.cos(th[start:] - t[start:] * ln_n[n])

    c0 = _PSI(p)
    c1 = -_PSI3(p) / (96.0 * math.pi ** 2)
    sign = np.where(big_n % 2 == 1, 1.0, -1.0)  # (-1)^(N-1)
    vals = np.empty_like(ts)
    vals[order] = 2.0 * main + sign * (c0 + c1 / a) / np.sqrt(a)
    errs = _RS_ERR_COEF * (ts / math.tau) ** (-1.25) + 1.0e-11
    return vals, errs


def _z_values(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z and its error bound on an array of heights in [0, T_SUPPORT_MAX]:
    Euler-Maclaurin below CROSSOVER_T, Riemann-Siegel from it up."""
    ts = np.asarray(ts, dtype=float)
    vals = np.empty_like(ts)
    errs = np.empty_like(ts)
    low = ts < CROSSOVER_T
    if low.any():
        vals[low], errs[low] = _z_em_vec(ts[low])
    if (~low).any():
        vals[~low], errs[~low] = _z_rs_vec(ts[~low])
    return vals, errs


def z_function(t: float, tol: float) -> CriticalLineSample:
    """Evaluate Z(t) with a certified absolute error bound <= tol.

    Dispatches to Euler-Maclaurin below t = 30 and Riemann-Siegel above.
    Even in t (Z(-t) = Z(t)), so negative heights are served through
    their absolute value; theta_value keeps its odd sign.  Raises
    PrecisionError when the tolerance is unreachable at this height
    with the configured term counts: the Euler-Maclaurin floor sits
    near 1e-13, the Riemann-Siegel truncation near 0.02 (t/2pi)^{-5/4},
    so tight tolerances are only servable below the crossover.
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
    at = abs(t)
    vals, errs = _z_values(np.array([at]))
    method = "euler_maclaurin" if at < CROSSOVER_T else "riemann_siegel"
    est = float(errs[0])
    if est > tol:
        raise PrecisionError(
            f"z_function: reachable error {est:.3e} at t = {t:g} exceeds tol = {tol:g}"
        )
    return CriticalLineSample(
        t=t,
        z_value=float(vals[0]),
        theta_value=theta(t),
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
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError("count_zeros: height must be finite and positive")
    u = t / math.tau
    log_u = math.log(u)
    n_main = u * log_u - u
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
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError("gamma_asymptotic: n must be a positive integer")
    n = int(n)
    if n <= 6:
        raise DomainError(
            f"gamma_asymptotic: n = {n} has n/2pi <= 1, logarithm not positive"
        )
    return math.tau * n / math.log(n / math.tau)


# ----------------------------------------------------------------------
# Zero scan
# ----------------------------------------------------------------------

def _gram_points(ns: np.ndarray) -> np.ndarray:
    """Gram points g_n, where theta(g_n) = n pi, for integers n >= -1.

    Starts from the asymptotic inversion g_n ~ 2pi e exp(W((n + 1/8)/e)),
    W the principal branch of Lambert's W, and polishes it by Newton
    steps on theta with theta'(t) ~ ln(t/2pi)/2 - 1/(48 t^2).
    """
    ns = np.asarray(ns, dtype=float)
    z = (ns + 0.125) / math.e
    w = np.log1p(z)
    for _ in range(_LAMBERT_STEPS):
        ew = np.exp(w)
        w -= (w * ew - z) / (ew * (w + 1.0))
    ts = math.tau * math.e * np.exp(w)
    for _ in range(_GRAM_NEWTON_STEPS):
        slope = 0.5 * np.log(ts / math.tau) - 1.0 / (48.0 * ts * ts)
        ts -= (_theta_vec(ts) - math.pi * ns) / slope
    return ts


def _sign_definite(ts: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move every node where Z is exactly 0.0 up by _NUDGE and re-evaluate
    there: the sign-change bookkeeping needs a strict sign at every node."""
    exact = zs == 0.0
    if exact.any():
        ts = ts.copy()
        zs = zs.copy()
        ts[exact] += _NUDGE
        zs[exact] = _z_values(ts[exact])[0]
    return ts, zs


def _gram_grid(t_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gram points g_-1 .. g_B and Z there, B the first good index with g_B >= t_max.

    g_n is good when (-1)^n Z(g_n) > 0.  The counting formula N(T) - 1
    equals theta(T)/pi up to O(1/T), so it sizes the first batch of Gram
    points; _GRAM_PAD more follow while none at or past t_max is good.
    Returns (indices n, heights, Z values, good mask).
    """
    ns = np.arange(-1, max(int(count_zeros(t_max).n_estimate), 0) + _GRAM_PAD)
    gs = _gram_points(ns)
    gs, zs = _sign_definite(gs, _z_values(gs)[0])
    while True:
        good = np.where(ns % 2 == 0, zs, -zs) > 0.0
        past = np.flatnonzero(good & (gs >= t_max))
        if past.size:
            stop = past[0] + 1
            return ns[:stop], gs[:stop], zs[:stop], good[:stop]
        more = np.arange(ns[-1] + 1, ns[-1] + 1 + _GRAM_PAD)
        g_more = _gram_points(more)
        g_more, z_more = _sign_definite(g_more, _z_values(g_more)[0])
        ns = np.concatenate((ns, more))
        gs = np.concatenate((gs, g_more))
        zs = np.concatenate((zs, z_more))


def _resolve_blocks(
    ts: np.ndarray, zs: np.ndarray, edges: np.ndarray, edge_n: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Subdivide Gram blocks until each shows one sign change per Gram interval.

    ts, zs are the sorted nodes and Z there; edges are the node indices
    of the good Gram points and edge_n their Gram indices, so block j
    runs from node edges[j] to node edges[j+1] over k = edge_n[j+1] -
    edge_n[j] Gram intervals and, by Rosser's rule, holds k zeros.  Each
    level halves every node gap of every block that does not show k
    sign changes, all at once, with one batched Z call over the new
    midpoints.  A block still unresolved once its widest gap is <=
    STRIDE_FLOOR raises AuditError.  Returns the refined (ts, zs).
    """
    k = np.diff(edge_n)
    while True:
        seen = np.concatenate(([0], np.cumsum(zs[:-1] * zs[1:] < 0.0)))
        found = seen[edges[1:]] - seen[edges[:-1]]
        unresolved = np.flatnonzero(found != k)
        if unresolved.size == 0:
            return ts, zs
        lengths = edges[unresolved + 1] - edges[unresolved]
        gaps = np.concatenate([np.arange(edges[j], edges[j + 1]) for j in unresolved])
        widths = ts[gaps + 1] - ts[gaps]
        widest = np.maximum.reduceat(widths, np.cumsum(lengths) - lengths)
        stuck = widest <= STRIDE_FLOOR
        if stuck.any():
            i = int(np.argmax(stuck))
            j = unresolved[i]
            raise AuditError(
                f"scan_zeros: Gram block g_{edge_n[j]}..g_{edge_n[j + 1]} "
                f"(t in [{ts[edges[j]]:.6f}, {ts[edges[j + 1]]:.6f}]) shows "
                f"{found[j]} sign changes for {k[j]} Gram intervals at node "
                f"spacing {widest[i]:.3g} (floor {STRIDE_FLOOR:g})"
            )
        mids = 0.5 * (ts[gaps] + ts[gaps + 1])
        mids, z_mids = _sign_definite(mids, _z_values(mids)[0])
        edges = edges + np.searchsorted(gaps, edges)
        ts = np.insert(ts, gaps + 1, mids)
        zs = np.insert(zs, gaps + 1, z_mids)


def _refine_brackets(
    lo: np.ndarray, hi: np.ndarray, z_lo: np.ndarray, z_hi: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink every bracket to width <= tol by batched Illinois steps.

    A step evaluates Z at the regula falsi point of the endpoint weights,
    which are the endpoint Z values except that an endpoint kept twice
    in a row has its weight halved (the Illinois rule).  The point stays
    at least tol/2 inside the bracket, so a converged guess closes the
    bracket on the next step.  A bracket that fails to halve often
    enough to fall more than _REFINE_SLACK halvings behind plain
    bisection takes bisection steps instead, so none needs more than
    the bisection count plus _REFINE_SLACK + 2 steps.  A point where Z
    is exactly 0.0 moves up by _NUDGE < tol/2 and stays inside, so both
    ends keep a strict sign change throughout.
    """
    lo, hi, z_lo, z_hi = lo.copy(), hi.copy(), z_lo.copy(), z_hi.copy()
    w_lo, w_hi = z_lo.copy(), z_hi.copy()
    kept = np.zeros(lo.size, dtype=np.int8)  # end kept last step: -1 lo, +1 hi
    limit = (hi - lo) * 2.0 ** _REFINE_SLACK  # widest width still on schedule
    while True:
        idx = np.flatnonzero(hi - lo > tol)
        if idx.size == 0:
            return lo, hi
        a, b = lo[idx], hi[idx]
        width = b - a
        guess = a - w_lo[idx] * width / (w_hi[idx] - w_lo[idx])
        x = np.where(width > limit[idx], 0.5 * (a + b),
                     np.clip(guess, a + 0.5 * tol, b - 0.5 * tol))
        x, fx = _sign_definite(x, _z_values(x)[0])
        left = z_lo[idx] * fx < 0.0  # sign change in [a, x]: x is the new hi
        new_hi, new_lo = idx[left], idx[~left]
        w_lo[new_hi[kept[new_hi] == -1]] *= 0.5
        w_hi[new_lo[kept[new_lo] == 1]] *= 0.5
        hi[new_hi], z_hi[new_hi], w_hi[new_hi] = x[left], fx[left], fx[left]
        lo[new_lo], z_lo[new_lo], w_lo[new_lo] = x[~left], fx[~left], fx[~left]
        kept[new_hi], kept[new_lo] = -1, 1
        limit[idx] *= 0.5


def scan_zeros(t_min: float, t_max: float, tol: float) -> ZeroTable:
    """Locate every sign-change zero of Z in (t_min, t_max].

    The scan always covers (0, t_max] internally so indices n are global
    counts from t = 0; entries below t_min are dropped from the output
    only after indexing.

    Z is evaluated once on the Gram points g_n (theta(g_n) = n pi) from
    g_-1 ~ 9.67 up to the first good one at or above t_max, with t_max
    itself added as a node so that no bracket crosses it.  Consecutive
    good Gram points bound Gram blocks.  By Rosser's rule, which holds
    for every block far beyond t = 1e4 (Brent, Math. Comp. 33, 1979), a
    block of k Gram intervals holds exactly k zeros.  The blocks showing
    fewer sign changes are subdivided together, halving their node
    spacing down to STRIDE_FLOOR; a block still unresolved there raises
    AuditError.  Z < 0 on (0, 14.13), so g_-1 is good and (0, g_-1]
    holds no zero: the i-th sign change is zero n = i.  Each bracket is
    then refined by bracketed Illinois steps to width <= tol.

    Grid values are pure functions of t, so the result is deterministic.
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

    ns, ts, zs, good = _gram_grid(t_max)
    edges = np.flatnonzero(good)
    edge_n = ns[edges]
    at = int(np.searchsorted(ts, t_max))
    if 0 < at and ts[at] != t_max:
        node = np.array([t_max])
        t_node, z_node = _sign_definite(node, _z_values(node)[0])
        ts = np.insert(ts, at, t_node)
        zs = np.insert(zs, at, z_node)
        edges = edges + (edges >= at)
    ts, zs = _resolve_blocks(ts, zs, edges, edge_n)

    idx = np.flatnonzero((zs[:-1] * zs[1:] < 0.0) & (ts[:-1] < t_max))
    lo, hi = _refine_brackets(ts[idx], ts[idx + 1], zs[idx], zs[idx + 1], tol)
    gammas = 0.5 * (lo + hi)
    start = int(np.searchsorted(gammas, t_min, "right"))  # gammas ascend
    entries = tuple(map(
        ZeroEntry, range(start + 1, gammas.size + 1), gammas[start:].tolist(),
        lo[start:].tolist(), hi[start:].tolist(), repeat(tol),
    ))
    return ZeroTable(zeros=entries, t_max=t_max)


# ----------------------------------------------------------------------
# Serialization (text only; file handling lives in the cli module)
# ----------------------------------------------------------------------

# The one number formatter of every rzs output: 17 significant digits
# round-trip any double exactly.
_fmt = "{:.17g}".format


def zero_table_to_csv(table: ZeroTable) -> str:
    """ZeroTable as CSV with header n,gamma,bracket_lo,bracket_hi.

    Full double precision (17 significant digits), '.' radix, newline
    line ends.
    """
    lines = ["n,gamma,bracket_lo,bracket_hi"]
    for entry in table.zeros:
        lines.append(
            f"{entry.n},{_fmt(entry.gamma)},{_fmt(entry.bracket_lo)},"
            f"{_fmt(entry.bracket_hi)}"
        )
    return "\n".join(lines) + "\n"
