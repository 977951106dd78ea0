"""One-loop polarization of the 2D O(N) non-linear sigma model.

At leading order in 1/N the Lagrange-multiplier fluctuation propagates
with inverse propagator Pi(p), the one-loop two-propagator bubble

    Pi(p) = (1 / (2 pi f(m/p) p^2)) * ln[(1 + f(m/p)) / (f(m/p) - 1)],
    f(x)  = sqrt(1 + 4 x^2),

which is the (alpha, beta) = (1, 1), d = 2 case of the general
Feynman-parameter integral

    I(a, b, d, p) = (4 pi)^{-d/2} (p^2)^{d/2-a-b}
                    * Gamma(a+b-d/2) / (Gamma(a) Gamma(b))
                    * Int_0^1 dx x^{a-1} (1-x)^{b-1}
                      [x(1-x) + m^2/p^2]^{d/2-a-b}.

The correlator of the multiplier field is Pi(p)^{-1}, with the large-t
asymptote 2 pi t / ln(t/m^2) in terms of t = p^2.  The dynamically
generated mass m^2 comes from the saddle-point gap equation; with a
sharp momentum cutoff Lambda on the tadpole it reads

    1/g0^2 = N * (1/4pi) * ln((Lambda^2 + m^2) / m^2).

All quantities are expressed in units of the mass unless both scales
appear (the gap equation), so no unit ambiguity can arise.
"""

from __future__ import annotations

import math
import numbers
import sys
from operator import mul
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, NoSolutionError, _integer

__all__ = [
    "BubbleSpec",
    "CorrelatorSample",
    "GapEquationSpec",
    "feynman_integral",
    "pi_closed",
    "pi_at_zero",
    "correlator_sample",
    "gap_mass",
    "gap_residual",
]

# m^2/p^2 below this makes the Feynman-parameter integrand near-singular
# at the endpoints; refuse rather than return garbage.
FEYNMAN_MASS_RATIO_MIN = 1.0e-14

_QUAD_EPSREL = 1.0e-9  # relative tolerance of the Feynman-parameter quadrature
_TADPOLE_EPSREL = 1.0e-12  # relative tolerance of the gap tadpole quadrature
_QUAD_LIMIT = 200  # most subintervals _quad may use

# The 15-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk15, Piessens et
# al. 1983): the Kronrod nodes in ascending order, their weights, and the
# weights of the 7-point Gauss rule on the odd-indexed nodes.
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649)
_WK0 = 0.209482141084727828012999174891714
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975)
_WG0 = 0.417959183673469387755102040816327
_KRONROD_NODES = (*(-x for x in _XK), 0.0, *reversed(_XK))
_KRONROD_WEIGHTS = (*_WK, _WK0, *reversed(_WK))
_GAUSS_WEIGHTS = (*_WG, _WG0, *reversed(_WG))


class BubbleSpec(NamedTuple):
    """Parameters (alpha, beta, dim, p, m) of the integral I(a,b,d,p)."""

    alpha: float
    beta: float
    dim: float
    p: float
    m: float


class CorrelatorSample(NamedTuple):
    """A point (t, Pi, Pi^{-1}, asymptote) at squared momentum t = p^2.

    asymptote is None (the undefined marker) when t <= m2, where the
    logarithm in 2 pi t / ln(t/m^2) is not positive.
    """

    t: float
    pi_value: float
    correlator: float
    asymptote: float | None
    m2: float


class GapEquationSpec(NamedTuple):
    """Gap-equation inputs: coupling g0, component count N, cutoff."""

    coupling: float
    n_components: int
    cutoff: float


def _quad(f, a: float, b: float, epsrel: float) -> float:
    """Globally adaptive G7-K15 Gauss-Kronrod quadrature of f over [a, b].

    f maps one abscissa to one value; it runs at the 15 Kronrod nodes of
    every subinterval.  The estimate is accepted once the summed
    |K15 - G7| is at most epsrel * |total|; until then every subinterval
    whose error exceeds its share of that tolerance is bisected.  Raises
    ConvergenceError when more than _QUAD_LIMIT subintervals would be needed.
    """
    live = []  # (|K15 - G7|, K15, lo, hi) of every subinterval in use
    new = [(float(a), float(b))]
    while True:
        for lo, hi in new:
            half = 0.5 * (hi - lo)
            centre = lo + half
            y = [f(centre + half * x) for x in _KRONROD_NODES]
            kronrod = half * sum(map(mul, _KRONROD_WEIGHTS, y))
            gauss = half * sum(map(mul, _GAUSS_WEIGHTS, y[1::2]))
            live.append((abs(kronrod - gauss), kronrod, lo, hi))
        total = sum(interval[1] for interval in live)
        tol = epsrel * abs(total)
        err = sum(interval[0] for interval in live)
        if err <= tol:
            return total
        share = tol / len(live)
        split = [interval for interval in live if interval[0] > share]
        if not math.isfinite(err) or len(live) + len(split) > _QUAD_LIMIT:
            raise ConvergenceError(
                f"quadrature: error estimate {err:.3e} above the tolerance "
                f"{tol:.3e} with {_QUAD_LIMIT} subintervals"
            )
        live = [interval for interval in live if not interval[0] > share]
        new = []
        for _, _, lo, hi in split:
            mid = 0.5 * (lo + hi)
            new += ((lo, mid), (mid, hi))


def feynman_integral(spec: BubbleSpec) -> float:
    """General Feynman-parameter form I(alpha, beta, dim, p) at mass m.

    The x-integral runs through the adaptive G7-K15 Gauss-Kronrod rule
    at relative tolerance 1e-9 and raises ConvergenceError when it needs
    more than 200 subintervals.  p must be positive and finite (the p = 0
    limit is served by pi_at_zero); m^2/p^2 below 1e-14 is rejected
    because the integrand turns near-singular at the endpoints.  Raises
    DomainError when I is 0 or infinite in double precision.
    """
    if not spec.m > 0.0:
        raise DomainError("feynman_integral: m must be positive")
    if not 0.0 < spec.p < math.inf:
        raise DomainError("feynman_integral: need finite p > 0 (see pi_at_zero)")
    if not spec.alpha + spec.beta - spec.dim / 2.0 > 0.0:
        raise DomainError(
            "feynman_integral: need alpha + beta - dim/2 > 0 for the "
            "Gamma prefactor to converge"
        )
    if spec.alpha < 1.0 or spec.beta < 1.0:
        raise DomainError(
            "feynman_integral: exponents below 1 give endpoint-singular "
            "integrands; this implementation restricts to alpha, beta >= 1"
        )
    a, b, d = float(spec.alpha), float(spec.beta), float(spec.dim)
    p, m = float(spec.p), float(spec.m)
    ratio = m / p
    mass_ratio = ratio * ratio  # never forms m^2 or p^2, which may over- or underflow
    if ratio < math.sqrt(FEYNMAN_MASS_RATIO_MIN):
        raise ConvergenceError(
            f"feynman_integral: m^2/p^2 = {mass_ratio:.3e} below "
            f"{FEYNMAN_MASS_RATIO_MIN:g}; integrand too close to singular"
        )
    power = d / 2.0 - a - b

    # Folded onto [0, 1/2] by x -> 1 - x: both endpoint peaks then sit at
    # x = 0, where x and x(1 - x) keep full relative precision (near x = 1,
    # 1 - x has only the absolute precision of x).
    def integrand(x: float) -> float:
        return (
            x ** (a - 1.0) * (1.0 - x) ** (b - 1.0)
            + x ** (b - 1.0) * (1.0 - x) ** (a - 1.0)
        ) * (x * (1.0 - x) + mass_ratio) ** power

    try:
        integral = _quad(integrand, 0.0, 0.5, _QUAD_EPSREL)
    except OverflowError:  # a float power beyond the largest double
        raise ConvergenceError(
            "feynman_integral: the integrand overflows double precision"
        ) from None
    try:
        value = (
            (4.0 * math.pi) ** (-d / 2.0)
            * p ** (2.0 * power)
            * math.gamma(a + b - d / 2.0)
            / (math.gamma(a) * math.gamma(b))
            * integral
        )
    except OverflowError:  # a float power or Gamma beyond the largest double
        value = math.inf
    if not 0.0 < value < math.inf:
        raise DomainError(
            f"feynman_integral: I underflows or overflows double precision "
            f"at p = {p:.6g}, m = {m:.6g}"
        )
    return value


def _log_quotient(a: float, b: float) -> float:
    """ln(a/b) for positive a, b; from ln a - ln b where a/b overflows."""
    quotient = a / b
    return math.log(quotient) if quotient < math.inf else math.log(a) - math.log(b)


def pi_closed(p: float, m: float) -> float:
    """Closed-form bubble Pi(p) for d = 2, alpha = beta = 1.

    With s = hypot(p, 2m) = f p, (1+f)/(f-1) = 1 + x for x = p y,
    y = (p+s)/(2m)/m, so Pi(p) = [log1p(x)/x] y / (2 pi s) at every p: no
    subtraction, no p^2 or m^2, and no digit lost where p/m is subnormal
    (log1p(x)/x is 1 there).  Where x overflows, ln(1+x) = ln p +
    ln((p+s)/2) - 2 ln m.  Even in p.  Raises DomainError when Pi(p) is 0
    or infinite in double precision.
    """
    p = abs(float(p))
    m = float(m)
    if not m > 0.0:
        raise DomainError("pi_closed: m must be positive")
    if p == 0.0 or not math.isfinite(p):
        raise DomainError("pi_closed: p must be nonzero and finite (see pi_at_zero)")
    s = math.hypot(p, 2.0 * m)
    y = (p + s) / (2.0 * m) / m  # x / p, formed without p
    x = p * y
    if x < math.inf:
        value = (math.log1p(x) / x if x else 1.0) * y / s / math.tau
    else:  # ln(1 + x) = ln p + ln((p+s)/2) - 2 ln m
        log_x1 = math.log(p) + math.log((p + s) / 2.0) - 2.0 * math.log(m)
        value = log_x1 / p / s / math.tau
    if not 0.0 < value < math.inf:
        raise DomainError(
            f"pi_closed: Pi(p) underflows or overflows double precision "
            f"at p = {p:.6g}, m = {m:.6g}"
        )
    return value


def pi_at_zero(m: float) -> float:
    """The p -> 0 limit of the bubble: Pi(0) = 1 / (4 pi m^2).

    Formed as 1/(4 pi m)/m, never m^2.  Raises DomainError when Pi(0) is
    0 or infinite in double precision.
    """
    m = float(m)
    if not m > 0.0:
        raise DomainError("pi_at_zero: m must be positive")
    value = 1.0 / (4.0 * math.pi * m) / m
    if not 0.0 < value < math.inf:
        raise DomainError(
            f"pi_at_zero: Pi(0) is 0 or infinite in double precision at m = {m:.6g}")
    return value


def correlator_sample(t: float, m2: float) -> CorrelatorSample:
    """Sample the multiplier correlator at squared momentum t.

    pi_value = Pi(sqrt(t)), correlator = 1/pi_value, and the asymptote
    2 pi t / ln(t/m2) is attached when t > m2 (None otherwise, since the
    logarithm is not positive there).  Raises DomainError when a field
    is 0 or infinite in double precision.
    """
    t = float(t)
    m2 = float(m2)
    if not 0.0 < t < math.inf:
        raise DomainError("correlator_sample: t must be positive and finite")
    if not 0.0 < m2 < math.inf:
        raise DomainError("correlator_sample: m2 must be positive and finite")
    pi_value = pi_closed(math.sqrt(t), math.sqrt(m2))
    correlator = 1.0 / pi_value
    asymptote = math.tau * t / _log_quotient(t, m2) if t > m2 else None
    if correlator == math.inf or asymptote == math.inf:
        raise DomainError(
            f"correlator_sample: the correlator or its asymptote overflows "
            f"double precision at t = {t:.6g}, m2 = {m2:.6g}"
        )
    return CorrelatorSample(
        t=t,
        pi_value=pi_value,
        correlator=correlator,
        asymptote=asymptote,
        m2=m2,
    )


def _gap_float(value, name: str) -> float:
    """A gap-spec field as a float; DomainError for a non-number or overflow."""
    if not isinstance(value, numbers.Real):
        raise DomainError(f"gap_mass: {name} must be a real number")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the largest double
        raise DomainError(f"gap_mass: {name} too large for a float") from None


def _validate_gap_spec(spec: GapEquationSpec) -> tuple[float, float, float]:
    """Check the spec; return its coupling, N and cutoff as floats."""
    coupling = _gap_float(spec.coupling, "coupling")
    if not 0.0 < coupling < math.inf:
        raise DomainError("gap_mass: coupling must be positive and finite")
    if not coupling * coupling > 1.0 / sys.float_info.max:
        raise DomainError(
            "gap_mass: coupling g0 so small that g0^2 underflows and 1/g0^2 "
            "is not finite"
        )
    n = _integer("gap_mass: n_components", spec.n_components)
    if n < 2:
        raise DomainError("gap_mass: need n_components >= 2")
    n = _gap_float(n, "n_components")
    cutoff = _gap_float(spec.cutoff, "cutoff")
    if not (cutoff > 0.0 and cutoff * cutoff < math.inf):
        raise DomainError("gap_mass: cutoff must be positive, with a finite square")
    return coupling, n, cutoff


def gap_mass(spec: GapEquationSpec) -> float:
    """Solve the cutoff-regularized gap equation for the mass m^2.

        1/g0^2 = N * (1/4pi) * ln((Lambda^2 + m^2) / m^2)

    The root is the exact inversion m^2 = Lambda^2 / expm1(4pi/(N g0^2)).
    Solutions with m^2 > Lambda^2 (where the exponent drops below ln 2)
    are unphysical at this cutoff and raise NoSolutionError rather than
    being returned silently; a mass that underflows raises DomainError.
    """
    coupling, n, cutoff = _validate_gap_spec(spec)
    lam2 = cutoff * cutoff
    exponent = 4.0 * math.pi / (n * coupling * coupling)
    if exponent == 0.0:
        raise NoSolutionError(
            "gap_mass: N g0^2 overflows, so 4pi/(N g0^2) = 0 and the inverted "
            "mass m^2 is infinite; no physical solution"
        )
    try:
        denom = math.expm1(exponent)
    except OverflowError:
        denom = math.inf
    m2 = lam2 / denom
    if m2 == 0.0:  # also where expm1 overflowed
        raise DomainError(
            "gap_mass: mass underflows double precision at this coupling"
        )
    # 1e-12 of slack keeps the boundary case m^2 = Lambda^2 solvable
    # when rounding lands the exponent a hair below ln 2.
    if denom < 1.0 - 1.0e-12:
        raise NoSolutionError(
            f"gap_mass: inverted mass m^2 = {m2:.6g} exceeds the "
            f"squared cutoff {lam2:.6g}; no physical solution"
        )
    return m2


def gap_residual(spec: GapEquationSpec, m2: float) -> float:
    """|LHS - RHS| of the quadrature-form gap equation at mass m2.

    The tadpole G = (1/2pi) Int_0^Lambda r dr / (r^2 + m2) becomes, with
    r = m sinh v, G = (1/2pi) Int_0^asinh(Lambda/m) tanh v dv: a smooth,
    bounded integrand over a logarithmic range.  It is evaluated by the
    adaptive G7-K15 Gauss-Kronrod rule at relative tolerance 1e-12 (not
    the closed form), so this is an independent back-substitution check
    on gap_mass.  Raises ConvergenceError when the rule cannot reach that
    tolerance with 200 subintervals.
    """
    coupling, n, cutoff = _validate_gap_spec(spec)
    if not m2 > 0.0:
        raise DomainError("gap_residual: m2 must be positive")
    v_max = math.asinh(cutoff / math.sqrt(m2))
    tadpole = _quad(math.tanh, 0.0, v_max, _TADPOLE_EPSREL)
    lhs = 1.0 / (coupling * coupling)
    rhs = n * tadpole / math.tau
    return abs(lhs - rhs)
