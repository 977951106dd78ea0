"""The numpy kernels behind rzs.zeta: theta, Z, the Gram points and the scan.

rzs.zeta, which describes the methods, validates arguments and imports
this module on the first call that needs it, so `import rzs` and the
commands count, gap and bubble load no numpy.  Euler-Maclaurin and
Riemann-Siegel share one kernel for the main sum of n^{-1/2} cos(theta -
t ln n), _main_sum, and differ only in its term count, its weight and
what is added to it.  The kernel takes each cosine from np.tan of the
half phase, whose loop numpy vectorises; the package calls no np.cos
or np.sin.  The Riemann-Siegel correction terms sum the committed
Chebyshev series of Psi and the one of Psi''' derived from it at import,
both in y = 2x^2 - 1 by parity, by one Clenshaw recurrence; nothing here
imports numpy.polynomial.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AuditError

# Evaluation crossover: Euler-Maclaurin below, Riemann-Siegel above.  Every
# height below it takes the Euler-Maclaurin N = ceil(1.2 t + 10) of the
# crossover itself, as a larger N only tightens the bound.
CROSSOVER_T = 30.0
_EM_N = math.ceil(1.2 * CROSSOVER_T + 10.0)

# _z_block takes at most this many heights at a time.
_Z_BLOCK = 4096

# theta(t) comes from its asymptotic series at t >= THETA_SERIES_T: the
# first omitted term, k = 6 of _THETA_SERIES's formula, ~9.6e-4 t^-11, is
# <= 1e-14 there, and with e^{-pi t}/2, which the series lacks, the series
# is within 2.2e-14 of theta.  Below it, the shifted Stirling series serves.
THETA_SERIES_T = 10.0

LN_PI = math.log(math.pi)

# Zero scan.  A Gram block that does not show one sign change per Gram
# interval is subdivided until its node spacing reaches STRIDE_FLOOR.
# Gram points come from _GRAM_NEWTON_STEPS Newton steps on theta, up to
# _GRAM_PAD past N(t_max) - 1 ~ theta(t_max)/pi.  Every sign change the
# scan counts or brackets is between Z < 0 and Z >= 0, so an exact 0.0
# closes its bracket, which holds the zero as the interval is closed; a
# Gram point g_n is good where (-1)^n Z > 0, so one with Z = 0.0 is bad.
STRIDE_FLOOR = 1.0 / 1024.0
_GRAM_NEWTON_STEPS = 6
_GRAM_PAD = 8

# B_2, B_4, ..., B_18 as exact (numerator, denominator) pairs, the one
# source of the Stirling series of ln Gamma (B_2k, k <= 8), the
# Euler-Maclaurin tail (B_2k/(2k)!, k <= 8, and k = 9 for its bound) and
# the asymptotic series of theta, whose coefficient of t^(1-2k) is
# (2^(2k-1) - 1) |B_2k| / (2k (2k-1) 4^k), k <= 5: 1/48, 7/5760, ...
# (Edwards, Riemann's Zeta Function, 1974, 6.5).  _BERN2K and _THETA_SERIES
# round each exact value once; _EM_COEF divides the float B_2k by (2k)!.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
              (-691, 2730), (7, 6), (-3617, 510), (43867, 798))
_BERN2K = tuple(p / q for p, q in _BERNOULLI[:-1])
_EM_COEF = tuple(p / q / math.factorial(2 * k)
                 for k, (p, q) in enumerate(_BERNOULLI, start=1))
_THETA_SERIES = tuple(
    (2 ** (2 * k - 1) - 1) * abs(p) / (q * (2 * k) * (2 * k - 1) * 4 ** k)
    for k, (p, q) in enumerate(_BERNOULLI[:5], start=1))

_STIRLING_SHIFT = 12  # ln Gamma recurrence shift before the series


# ----------------------------------------------------------------------
# theta(t): asymptotic series, or Stirling series for Im ln Gamma(1/4 + i t/2)
# ----------------------------------------------------------------------

def _log_gamma_imag(z: np.ndarray) -> np.ndarray:
    """Im ln Gamma(z) for complex z with Re z > 0, elementwise.

    Shift z by the recurrence ln Gamma(z) = ln Gamma(z+s) - sum ln(z+k)
    so the asymptotic series runs at |z+s| >= 12, where eight Bernoulli
    terms reach double-precision accuracy.
    """
    acc = np.zeros_like(z)
    for k in range(_STIRLING_SHIFT):
        acc += np.log(z + k)
    zs = z + _STIRLING_SHIFT
    series = np.zeros_like(z)
    zpow = zs
    z2 = zs * zs
    for k, b in enumerate(_BERN2K, start=1):
        series += b / ((2 * k) * (2 * k - 1) * zpow)
        zpow = zpow * z2
    total = (zs - 0.5) * np.log(zs) - zs + series - acc
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


def _theta_vec(ts) -> np.ndarray:
    """theta on an array (or sequence) of non-negative heights."""
    ts = np.asarray(ts, dtype=float)
    return np.piecewise(ts, [ts < THETA_SERIES_T], [
        lambda low: _log_gamma_imag(0.25 + 0.5j * low) - 0.5 * low * LN_PI,
        _theta_series])


# ----------------------------------------------------------------------
# Riemann-Siegel correction terms, t at or above the crossover
# ----------------------------------------------------------------------

# Chebyshev series in y = 2x^2 - 1, x = 2p - 1, of Psi(p) = cos(2pi(p^2 -
# p - 1/16)) / cos(2pi p) on [0, 1], the one committed table.  Psi is entire
# and even in x, as Psi(p) = Psi(1 - p), and T_2j(x) = T_j(y): these are the
# even coefficients, degrees 0..22, of numpy's Chebyshev.interpolate of Psi
# at 65 first-kind nodes (>= 0.0034 from the removable points p = 1/4, 3/4);
# the rest are its rounding noise, <= 1.5e-15.  tests/test_zeta.py checks
# Psi (4.9e-15) and Psi''' (1.7e-8) against mpmath.
_PSI = (
    0.6426672862397688,
    0.27197299999785457,
    0.010738605819339475,
    -0.0013743815296329547,
    -0.00012468221880361152,
    -5.76459971464114e-07,
    2.728067438072673e-07,
    8.077952936449776e-09,
    -2.0884668899175084e-10,
    -1.3114384823597715e-11,
    -1.3729197237849506e-14,
    1.0233504342217772e-14,
)


def _derivative(coef: tuple[float, ...], m: int) -> tuple[float, ...]:
    """The series, in x = 2p - 1, of the m-th p-derivative of coef, m <
    len(coef), by the recurrence d_{j-1} = d_{j+1} + 4j c_j from the top
    (2j from d/dx, 2 from dx/dp), with d_0 halved."""
    for _ in range(m):
        der = [0.0] * (len(coef) + 1)
        for j in range(len(coef) - 1, 0, -1):
            der[j - 1] = der[j + 1] + 4 * j * coef[j]
        der[0] *= 0.5
        coef = tuple(der[:-2])
    return coef


def _odd_over_x(coef: tuple[float, ...]) -> tuple[float, ...]:
    """e with x sum_j e[j] T_j(y) = sum_k coef[k] T_k(x) for an odd coef,
    as 2x T_j(y) = T_2j+1(x) + T_|2j-1|(x), solved from the top down."""
    e = [0.0]
    for c in reversed(coef[1::2]):
        e.append(2.0 * c - e[-1])
    e[-1] *= 0.5
    return tuple(e[:0:-1])


# C1(p) = -Psi'''(p)/(96 pi^2), odd in x: x times this series in y.
_C1 = _odd_over_x(tuple(-v / (96.0 * math.pi ** 2) for v in _derivative(
    tuple(v for c in _PSI for v in (c, 0.0))[:-1], 3)))
_RS_ERR_COEF = 0.02  # measured: |error| <= 0.005 * a^{-5/2}; 4x margin
# Euler-Maclaurin's remainder after k = 8 is at most the first omitted term,
# |B_18/18! s(s+1)...(s+16) N^{-s-17}|, times |s + 17|/17.5 (Edwards 1974,
# ch. 6): _EM_BOUND prod_{j<18} hypot(j + 1/2, t), <= 4.1e-18 below 30.
_EM_BOUND = abs(_EM_COEF[-1]) * _EM_N ** -17.5 / 17.5


def _chebyshev(coef: tuple[float, ...], y: np.ndarray) -> np.ndarray:
    """sum_k coef[k] T_k(y) by Clenshaw's recurrence in three buffers, bit
    for bit as numpy.polynomial.chebyshev.chebval sums it: its c1 * 2y is
    formed as 2 (c1 y), which is exact, as doubling is."""
    c0, c1 = np.full_like(y, coef[-2]), np.full_like(y, coef[-1])
    tmp = np.empty_like(y)
    for c in coef[-3::-1]:
        np.subtract(c, c1, out=tmp)  # the next c0
        c1 *= y
        c1 += c1
        c1 += c0
        c0, tmp = tmp, c0
    c1 *= y
    c1 += c0
    return c1


# ----------------------------------------------------------------------
# Z(t): one main sum, Euler-Maclaurin below the crossover, Riemann-Siegel above
# ----------------------------------------------------------------------

def _em_tail(ts: np.ndarray) -> np.ndarray:
    """The tail of zeta(s), s = 1/2 + it, after sum_{n<N} n^{-s}, N = _EM_N:
    N^{-s}/2 + N^{1-s}/(s - 1) plus eight Bernoulli terms; _z_bound gives
    its bound."""
    s = 0.5 + 1j * ts
    n_pow = float(_EM_N) ** (-s)  # N^{-s}
    rising, q = s, n_pow / _EM_N  # N^{-s-1}
    n_inv2 = 1.0 / (_EM_N * _EM_N)
    # sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * N^{-s-2k+1}, k = 1..8.
    tail = 0.5 * n_pow + n_pow * _EM_N / (s - 1.0) + _EM_COEF[0] * rising * q
    for k, coef in enumerate(_EM_COEF[1:-1], start=1):
        rising = rising * (s + (2 * k - 1)) * (s + 2 * k)
        q = q * n_inv2
        tail = tail + coef * rising * q
    return tail


def _main_sum(ts: np.ndarray, th: np.ndarray, big_n: np.ndarray) -> np.ndarray:
    """sum_{n<=N} cos(theta - t ln n)/sqrt(n) at every height t, with th its
    theta and big_n its integer term count N.

    The heights are sorted once by N, so term n is added across the
    contiguous tail of heights with N >= n, and the sums are scattered
    back to input order.  Each height adds its own terms in the order
    n = 1, 2, ..., N, so a value is bit-equal alone and in any batch.

    Each cosine comes from the half-angle tangent, cos x = (1 - u^2) /
    (1 + u^2) with u = tan(x/2), as numpy vectorises float64 tan but not
    cos (with AVX-512, ~2-3 against ~22-30 ns a term).  Halving is
    exact, so theta/2 - t (ln n)/2 is x/2 exactly and a term moves by
    <= 2.2e-16.  Every double |x/2| < 2e4, which covers t <= 1e4, has
    |u| < 2e18, so u^2 stays finite.
    """
    order = np.argsort(big_n, kind="stable")
    n_sorted, t = big_n[order], ts[order]
    half_ph = 0.5 * th[order]
    ns = np.arange(1, n_sorted.max(initial=0) + 1)
    half_ln_n = 0.5 * np.log(ns)
    rsqrt_n = 1.0 / np.sqrt(ns)
    acc = np.zeros_like(t)
    u_buf, w_buf = np.empty_like(t), np.empty_like(t)
    for n, start in enumerate(np.searchsorted(n_sorted, ns)):
        u, w = u_buf[start:], w_buf[start:]
        np.multiply(t[start:], half_ln_n[n], out=u)
        np.subtract(half_ph[start:], u, out=u)
        np.tan(u, out=u)
        np.multiply(u, u, out=w)
        np.subtract(1.0, w, out=u)
        w += 1.0
        u /= w
        u *= rsqrt_n[n]
        acc[start:] += u
    out = u_buf  # free now: no fresh array beside the loop's dead ones
    out[order] = acc
    return out


def _z_values(ts) -> np.ndarray:
    """Z at a non-empty array of heights in [0, T_SUPPORT_MAX], the Z of
    one _z_block per _Z_BLOCK heights, concatenated: a batch of any size
    holds the temporaries of one block, and as no value depends on the
    rest of its batch, the blocks give the bits of one pass; no bound."""
    ts = np.asarray(ts, dtype=float)
    return np.concatenate([_z_block(ts[i:i + _Z_BLOCK])[0]
                           for i in range(0, ts.size, _Z_BLOCK)])


def _z_block(ts) -> tuple[np.ndarray, np.ndarray]:
    """(Z, theta) at at most _Z_BLOCK heights, from one theta and one main
    sum S_N; _z_bound gives Z's bound.  Below CROSSOVER_T, Z = S_{N-1} +
    Re(e^{i theta} tail) with N = _EM_N (Euler-Maclaurin); from it up,
    with a = sqrt(t/2pi), N = floor(a) and p = a - N,
    Z ~ 2 S_N + (-1)^{N-1} a^{-1/2} [Psi(p) - Psi'''(p)/(96 pi^2 a)]
    (Riemann-Siegel; Edwards, Riemann's Zeta Function, 1974, 6-7), whose
    correction is formed before the main sum.
    """
    ts = np.asarray(ts, dtype=float)
    th = _theta_vec(ts)
    z = np.empty_like(ts)
    low = ts < CROSSOVER_T
    high = ~low
    big_n = np.full(ts.shape, _EM_N - 1)
    if high.any():
        a = np.sqrt(ts[high] / math.tau)
        big_n[high] = n = np.floor(a)
        z[high] = _rs_correction(a, n)
        del a, n  # gone before the main sum's buffers
    vals = _main_sum(ts, th, big_n)
    if low.any():
        z[low] = vals[low] + (np.exp(1j * th[low]) * _em_tail(ts[low])).real
    z[high] += 2.0 * vals[high]
    return z, th


def _z_bound(ts) -> np.ndarray:
    """Z's error bound at a batch of heights of any size, the one home of
    its model, a function of t alone: the proven Euler-Maclaurin truncation
    bound plus a 1e-13 rounding floor below CROSSOVER_T, and the measured
    _RS_ERR_COEF (t/2pi)^{-5/4} + 1e-11 up."""
    ts = np.asarray(ts, dtype=float)
    return np.piecewise(ts, [ts < CROSSOVER_T], [
        lambda low: _EM_BOUND * math.prod(
            np.hypot(j + 0.5, low) for j in range(18)) + 1.0e-13,
        lambda high: _RS_ERR_COEF * (high / math.tau) ** (-1.25) + 1.0e-11])


def _rs_correction(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """(-1)^(N-1) a^{-1/2} [Psi(p) + C1(p)/a] at a = sqrt(t/2pi), N = n =
    floor(a) and p = a - N, through x = 2p - 1 and y = 2x^2 - 1."""
    x = 2.0 * (a - n) - 1.0
    y = 2.0 * x * x - 1.0
    c = _chebyshev(_PSI, y) + x * _chebyshev(_C1, y) / a
    return np.where(n % 2 == 1, c, -c) / np.sqrt(a)


# ----------------------------------------------------------------------
# Zero scan
# ----------------------------------------------------------------------

def _gram_points(ns) -> np.ndarray:
    """Gram points g_n, where theta(g_n) = n pi, for integers n >= -1.

    Newton steps on theta, theta'(t) ~ ln(t/2pi)/2 - 1/(48 t^2), from
    t_0 = 2pi(n + 1/8 + e).  As theta ~ pi(u ln u - u - 1/8), u = t/2pi, and
    u ln u - u >= u - e, t_0 lies above g_n, where theta is increasing and
    convex, so every step moves down onto g_n without overshooting.
    """
    ns = np.asarray(ns, dtype=float)
    ts = math.tau * (ns + 0.125 + math.e)
    for _ in range(_GRAM_NEWTON_STEPS):
        slope = 0.5 * np.log(ts / math.tau) - 1.0 / (48.0 * ts * ts)
        ts -= (_theta_vec(ts) - math.pi * ns) / slope
    return ts


def _resolve_blocks(
    t_max: float, n_estimate: float
) -> tuple[np.ndarray, np.ndarray]:
    """The scan's nodes ts, ascending, and Z there: the Gram points up to
    g_B and t_max, each Gram block subdivided until it shows one sign
    change per Gram interval; N(t_max) = n_estimate.

    One batched Z call covers the Gram points and t_max, a node unless it
    is <= g_-1 or a Gram point.  Below 1e4 no 3 consecutive Gram points
    are bad, so the batch holds g_B, the first good one at or past t_max;
    a batch without it raises AuditError.  The gap after node i is in Gram
    block (good nodes up to i) - 1, as g_-1 is good: Z < 0 below 14.13,
    and a Z that is not negative at g_-1 raises AuditError.

    With edge_n the Gram indices of the good Gram points, block j spans
    k = edge_n[j+1] - edge_n[j] Gram intervals and, by Rosser's rule,
    holds k zeros.  Each level halves every gap of every block that does
    not show k sign changes, all at once, with one batched Z call over
    the new midpoints; both halves keep the gap's label.  A block still
    unresolved once its widest gap is <= STRIDE_FLOOR raises AuditError.
    """
    ns = np.arange(-1, max(int(n_estimate), 0) + _GRAM_PAD)
    ts = _gram_points(ns)
    parity = np.where(ns % 2 == 0, 1.0, -1.0)  # 0.0 at t_max: never good
    at = int(np.searchsorted(ts, t_max))
    if 0 < at < ts.size and ts[at] != t_max:
        ts = np.insert(ts, at, t_max)
        ns = np.insert(ns, at, 0)
        parity = np.insert(parity, at, 0.0)
    zs = _z_values(ts)
    good = parity * zs > 0.0
    if not good[0]:
        raise AuditError(f"scan_zeros: Z(g_-1) = {zs[0]:g} at t = {ts[0]:.6f}, "
                         "where Z < 0")
    past = np.flatnonzero(good & (ts >= t_max))
    if past.size == 0:
        raise AuditError(
            f"scan_zeros: no good Gram point among g_{ns[0]}..g_{ns[-1]} "
            f"(t in [{ts[0]:.6f}, {ts[-1]:.6f}]) at or past t_max = {t_max:g}"
        )
    stop = past[0] + 1
    block = np.cumsum(good[:stop - 1], dtype=np.int32) - 1
    edge_n = ns[:stop][good[:stop]]
    # No other frame holds the grid, so the first level's inserts free its
    # nodes, Z and labels.
    ts, zs = ts[:stop], zs[:stop]
    k = np.diff(edge_n)
    while True:
        neg = zs < 0.0
        found = np.bincount(block[neg[:-1] != neg[1:]], minlength=k.size)
        unresolved = found != k
        if not unresolved.any():
            return ts, zs
        gaps = np.flatnonzero(unresolved[block])
        labels = block[gaps]
        firsts = np.flatnonzero(np.diff(labels, prepend=-1))  # label starts
        widest = np.maximum.reduceat(ts[gaps + 1] - ts[gaps], firsts)
        stuck = widest <= STRIDE_FLOOR
        if stuck.any():
            i = int(np.argmax(stuck))
            j = labels[firsts[i]]
            lo, hi = np.searchsorted(block, [j, j + 1])
            raise AuditError(
                f"scan_zeros: Gram block g_{edge_n[j]}..g_{edge_n[j + 1]} "
                f"(t in [{ts[lo]:.6f}, {ts[hi]:.6f}]) shows "
                f"{found[j]} sign changes for {k[j]} Gram intervals at node "
                f"spacing {widest[i]:.3g} (floor {STRIDE_FLOOR:g})"
            )
        mids = 0.5 * (ts[gaps] + ts[gaps + 1])
        zs = np.insert(zs, gaps + 1, _z_values(mids))
        ts = np.insert(ts, gaps + 1, mids)
        block = np.insert(block, gaps + 1, labels)


def _refine_brackets(
    lo: np.ndarray, hi: np.ndarray, z_lo: np.ndarray, z_hi: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink every bracket to width <= tol by batched Anderson-Bjorck steps.

    A step evaluates Z at the regula falsi point of the endpoint weights,
    which are the endpoint Z values, except that an endpoint kept twice
    in a row has its weight scaled by 1 - Z(x)/Z(replaced end), or by 1/2
    where that is <= 0 or Z(replaced end) is 0.0 (Anderson and Bjorck,
    BIT 13, 1973; the Illinois rule always halves).  A guess that is not
    finite, as where weights overflow, falls back to the midpoint.  The
    point stays at least tol/2 inside the bracket, so every step shrinks
    the bracket by at least tol/2, and a converged guess closes it on the
    next step.

    Refines lo, hi, z_lo and z_hi in place, and returns (lo, hi).
    """
    w_lo, w_hi = z_lo.copy(), z_hi.copy()
    kept = np.zeros(lo.size, dtype=np.int8)  # end kept last step: -1 lo, +1 hi
    while True:
        idx = np.flatnonzero(hi - lo > tol)
        if idx.size == 0:
            return lo, hi
        # x to a - w_lo (b - a) / (w_hi - w_lo) in place, a and b bound
        # only after the division's temporaries are gone.
        x = hi[idx] - lo[idx]
        x *= w_lo[idx]
        x /= w_hi[idx] - w_lo[idx]
        a, b = lo[idx], hi[idx]
        np.subtract(a, x, out=x)
        np.copyto(x, 0.5 * (a + b), where=~np.isfinite(x))
        np.clip(x, a + 0.5 * tol, b - 0.5 * tol, out=x)
        del a, b  # gone before Z's batch, the scan's peak of memory
        fx = _z_values(x)
        left = (z_lo[idx] < 0.0) != (fx < 0.0)  # sign change in [a, x]: x is hi
        gone = np.where(left, z_hi[idx], z_lo[idx])  # Z at the replaced end
        scale = 1.0 - np.divide(fx, gone, out=np.ones_like(fx), where=gone != 0.0)
        scale[~(scale > 0.0)] = 0.5
        del gone
        was_kept = kept[idx]
        for side, end, z_end, w_end, w_kept, last in (
                (left, hi, z_hi, w_hi, w_lo, -1), (~left, lo, z_lo, w_lo, w_hi, 1)):
            twice = side & (was_kept == last)  # the kept end, kept last step too
            w_kept[idx[twice]] *= scale[twice]
            at = idx[side]
            end[at] = x[side]
            z_end[at] = w_end[at] = fx[side]
            kept[at] = last
        # The next round starts from the brackets, their weights and kept
        # alone: this round's arrays would otherwise live through its Z batch.
        del idx, x, fx, scale, left, was_kept, side, twice, at


def _scan_brackets(
    t_max: float, n_estimate: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unrefined brackets of every sign change of Z in (0, t_max], the
    scan_zeros method; N(t_max) = n_estimate.  Returns fresh arrays (lo,
    hi, Z(lo), Z(hi)), ascending, which scan_zeros hands to
    _refine_brackets once this returns and the Gram grid is freed.  The
    nodes come from _resolve_blocks, whose locals, the grid and the
    subdivision's bookkeeping, are gone before the brackets are cut.
    """
    ts, zs = _resolve_blocks(t_max, n_estimate)

    # A gap starting at t_max holds a zero in (0, t_max] where Z(t_max) = 0.0.
    neg = zs < 0.0
    inside = (ts[:-1] < t_max) | ((ts[:-1] == t_max) & (zs[:-1] == 0.0))
    idx = np.flatnonzero((neg[:-1] != neg[1:]) & inside)
    return ts[idx], ts[idx + 1], zs[idx], zs[idx + 1]
