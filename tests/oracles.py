"""Independent numerical oracles used only by the test suite.

Each oracle reaches a quantity the library also computes, but through a
different route, so agreement is evidence rather than tautology:

- theta_oracle: the log-gamma phase through Binet's integral
  representation (tanh-sinh quadrature), instead of the Stirling series.
- smooth_zero: the height where the smooth zero count theta(t)/pi + 1
  reaches n - 1/2, from theta's asymptotic series in floats, which
  theta_oracle checks; a zero index oracle independent of the scan.
- zeta_oracle: Euler-Maclaurin again, but with its own truncation
  point and ten tail terms instead of eight, implemented on complex
  scalars rather than numpy arrays.
- pi_momentum_oracle: the bubble as a literal 2D momentum integral in
  polar coordinates -- the angular integral in closed form, tanh-sinh
  radial quadrature to infinity -- instead of the Feynman-parameter form.
- feynman_oracle: the Feynman-parameter integral by tanh-sinh
  quadrature, split at decades of m^2/p^2 to resolve the endpoint peak.
- tadpole_oracle: the gap-equation tadpole by quadrature.

Every quadrature is mpmath's tanh-sinh rule over breakpoints (mpmath.quad
at its default 15 digits), a rule the library does not use; the
integrands are evaluated in Python floats, which is ten times faster
than mpmath arithmetic and accurate to well below the test tolerances.
"""

from __future__ import annotations

import cmath
import math

import mpmath

TWO_PI = 2.0 * math.pi


def _quad(f, points) -> float:
    """Int f over [points[0], points[-1]], split at every point, with f
    evaluated in floats."""
    return float(mpmath.quad(lambda u: f(float(u)), points))


# ----------------------------------------------------------------------
# theta via Binet's second integral:
# ln Gamma(z) = (z - 1/2) ln z - z + ln(2pi)/2
#               + 2 Int_0^inf arctan(u/z) / (e^{2 pi u} - 1) du
# ----------------------------------------------------------------------

def theta_oracle(t: float) -> float:
    """theta(t) from Binet's integral for Im ln Gamma(1/4 + it/2)."""
    z = 0.25 + 0.5j * t

    def integrand(u: float) -> float:
        return (cmath.atan(u / z)).imag / math.expm1(TWO_PI * u)

    # Integrand decays like e^{-2 pi u}; by u = 40 it is below 1e-100.
    tail = _quad(integrand, [0.0, 1.0, 10.0, 40.0])
    main = ((z - 0.5) * cmath.log(z) - z).imag
    return main + 2.0 * tail - 0.5 * t * math.log(math.pi)


# ----------------------------------------------------------------------
# The smooth zero count: theta by its asymptotic series in floats, and the
# height where theta(t)/pi + 1 reaches n - 1/2
# ----------------------------------------------------------------------

def theta_asymptotic(t: float) -> float:
    """theta(t) = (t/2) ln(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760t^3) +
    31/(80640t^5) + 127/(430080t^7) + 511/(1216512t^9) (Edwards,
    Riemann's Zeta Function, 1974, 6.5), for t >= 10, where the first
    omitted term is below 1e-14."""
    u = 1.0 / t
    u2 = u * u
    tail = 511.0 / 1216512.0
    for coef in (127.0 / 430080.0, 31.0 / 80640.0, 7.0 / 5760.0, 1.0 / 48.0):
        tail = coef + u2 * tail
    return 0.5 * t * (math.log(t / TWO_PI) - 1.0) - math.pi / 8.0 + u * tail


def smooth_zero(n: int) -> float:
    """gamma~_n >= 14, the root of theta(t) = (n - 3/2) pi, where the
    smooth count theta(t)/pi + 1 reaches n - 1/2: the Gram point g_{n-3/2}.

    Newton steps on theta_asymptotic from the Lambert-W start
    2pi(n - 11/8) / W((n - 11/8)/e), the root of theta's two leading
    terms (Franca and LeClair, Transcendental equations satisfied by the
    individual zeros of Riemann zeta, Dirichlet and modular L-functions,
    2015).
    """
    m = n - 1.375
    t = TWO_PI * m / float(mpmath.lambertw(m / math.e).real)
    target = (n - 1.5) * math.pi
    for _ in range(3):
        t -= (theta_asymptotic(t) - target) / (0.5 * math.log(t / TWO_PI))
    return t


# ----------------------------------------------------------------------
# Independent Euler-Maclaurin zeta(1/2 + it)
# ----------------------------------------------------------------------

# B_2 .. B_20 over (2k)!, k = 1..10: deliberately two more tail terms
# and a different truncation point than the library uses.
_BERN = [
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
    -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0,
    -174611.0 / 330.0,
]
_COEF = [b / math.factorial(2 * (k + 1)) for k, b in enumerate(_BERN)]


def zeta_oracle(t: float) -> tuple[complex, float]:
    """zeta(1/2 + it) with a truncation-error bound, by Euler-Maclaurin.

    Truncation N = max(32, ceil(2.5 t) + 16) and K = 10 tail terms.
    Returns (value, bound); the bound covers truncation only, so allow
    a few 1e-13 on top for rounding when comparing.
    """
    s = 0.5 + 1j * t
    big_n = max(32, math.ceil(2.5 * t) + 16)
    value = 0.0 + 0.0j
    for n in range(1, big_n):
        value += cmath.exp(-s * math.log(n))
    n_pow = cmath.exp(-s * math.log(big_n))  # N^{-s}
    value += 0.5 * n_pow + n_pow * big_n / (s - 1.0)

    rising = s
    q = n_pow / big_n
    inv_n2 = 1.0 / (big_n * big_n)
    for k, coef in enumerate(_COEF, start=1):
        if k > 1:
            rising = rising * (s + (2 * k - 3)) * (s + (2 * k - 2))
        value += coef * rising * q
        q *= inv_n2

    k_next = len(_COEF) + 1  # bound the first omitted term with B_22
    rising_next = rising * (s + (2 * k_next - 3)) * (s + (2 * k_next - 2))
    bern_22 = 854513.0 / 138.0
    first_omitted = abs(bern_22 / math.factorial(22)) * abs(rising_next) * abs(q)
    bound = first_omitted * abs(s + (2 * k_next - 1)) / (0.5 + 2 * k_next - 1)
    return value, bound


def z_oracle(t: float) -> tuple[float, float]:
    """Z(t) from zeta_oracle and the library-independent phase here."""
    value, bound = zeta_oracle(t)
    phase = cmath.exp(1j * theta_oracle(t))
    return (phase * value).real, bound + 1.0e-12


# ----------------------------------------------------------------------
# Bubble as a direct 2D momentum integral (polar coordinates)
# ----------------------------------------------------------------------

def pi_momentum_oracle(p: float, m: float) -> float:
    """Pi(p) = Int d^2q/(2pi)^2 [ (q^2+m^2)((q+p)^2+m^2) ]^{-1}.

    In polar coordinates (r, phi) the angular integral is exact:
    Int_0^{2pi} dphi / (a + b cos phi) = 2pi / sqrt(a^2 - b^2), with
    a = r^2 + p^2 + m^2 and b = 2pr, and a^2 - b^2 factors as
    ((r-p)^2 + m^2)((r+p)^2 + m^2), free of cancellation where the
    integrand peaks at r ~ p.  The radial integral runs to infinity,
    split where its structure lives, below r ~ p + m; beyond 10(p + m)
    the integrand decays like 2pi/r^3.
    """
    m2 = m * m

    def radial(r: float) -> float:
        angular = TWO_PI / math.sqrt(((r - p) ** 2 + m2) * ((r + p) ** 2 + m2))
        return r * angular / (r * r + m2)

    edges = [0.0, *sorted({m, p}), p + m, 10.0 * (p + m), mpmath.inf]
    return _quad(radial, edges) / (TWO_PI * TWO_PI)


def pi_zero_momentum_oracle(m: float) -> float:
    """The p = 0 bubble Int d^2q/(2pi)^2 (q^2+m^2)^{-2}, radial quadrature
    to infinity."""
    m2 = m * m
    return _quad(lambda r: r / (r * r + m2) ** 2, [0.0, m, mpmath.inf]) / TWO_PI


# ----------------------------------------------------------------------
# General Feynman-parameter integral
# ----------------------------------------------------------------------

def feynman_oracle(a: float, b: float, d: float, p: float, m: float) -> float:
    """I(a, b, d, p) at mass m by tanh-sinh quadrature.

    The x-integral is folded onto [0, 1/2] (so 1 - x is never formed
    near 0) and split at r, 10 r, 100 r, ... with r = m^2/p^2, where the
    width-r peak at the endpoint sits.
    """
    r = (m * m) / (p * p)
    power = d / 2.0 - a - b

    def integrand(x: float) -> float:
        return ((x ** (a - 1.0) * (1.0 - x) ** (b - 1.0)
                 + x ** (b - 1.0) * (1.0 - x) ** (a - 1.0))
                * (x * (1.0 - x) + r) ** power)

    edges = [0.0]
    while r * 10.0 ** (len(edges) - 1) < 0.5:
        edges.append(r * 10.0 ** (len(edges) - 1))
    edges.append(0.5)
    return (
        (4.0 * math.pi) ** (-d / 2.0) * (p * p) ** power
        * math.gamma(a + b - d / 2.0) / (math.gamma(a) * math.gamma(b))
        * _quad(integrand, edges)
    )


# ----------------------------------------------------------------------
# Gap-equation tadpole
# ----------------------------------------------------------------------

def tadpole_oracle(m2: float, cutoff: float) -> float:
    """G = (1/2pi) Int_0^Lambda r dr / (r^2 + m2) by quadrature."""
    return _quad(lambda r: r / (r * r + m2), [0.0, cutoff]) / TWO_PI
