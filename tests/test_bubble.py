"""Tests for the 2D bubble: closed form, quadratures, correlator, gap."""

from __future__ import annotations

import math
import random

import mpmath
import numpy as np
import pytest

from rzs import (
    BubbleSpec,
    ConvergenceError,
    DomainError,
    GapEquationSpec,
    NoSolutionError,
    RzsError,
    correlator_sample,
    feynman_integral,
    gap_mass,
    gap_residual,
    pi_at_zero,
    pi_closed,
)
import rzs.bubble
import rzs.cli
from rzs.bubble import _quad
from rzs.zeta import _SPEC

import oracles

TWO_PI = 2.0 * math.pi

GRID_P = (0.1, 1.0, 10.0)
GRID_M = (0.5, 1.0, 2.0)


# ----------------------------------------------------------------------
# feynman_integral
# ----------------------------------------------------------------------

class TestFeynmanIntegral:
    def test_matches_closed_form_across_momenta(self):
        for p in np.geomspace(0.1, 100.0, 20):
            quadrature = feynman_integral(BubbleSpec(1.0, 1.0, 2.0, float(p), 1.0))
            closed = pi_closed(float(p), 1.0)
            assert quadrature == pytest.approx(closed, rel=1.0e-8)

    def test_symmetric_in_alpha_beta(self):
        a = feynman_integral(BubbleSpec(1.0, 2.0, 2.0, 3.0, 1.0))
        b = feynman_integral(BubbleSpec(2.0, 1.0, 2.0, 3.0, 1.0))
        assert a == pytest.approx(b, rel=1.0e-9)

    def test_other_dimensions_evaluate(self):
        value = feynman_integral(BubbleSpec(2.0, 2.0, 3.0, 1.0, 1.0))
        assert math.isfinite(value) and value > 0.0

    def test_rejects_exponents_below_one(self):
        with pytest.raises(DomainError):
            feynman_integral(BubbleSpec(0.5, 1.0, 2.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            feynman_integral(BubbleSpec(1.0, 0.9, 2.0, 1.0, 1.0))

    def test_rejects_divergent_prefactor(self):
        with pytest.raises(DomainError):
            feynman_integral(BubbleSpec(1.0, 1.0, 4.0, 1.0, 1.0))

    def test_rejects_zero_momentum(self):
        with pytest.raises(DomainError, match="pi_at_zero"):
            feynman_integral(BubbleSpec(1.0, 1.0, 2.0, 0.0, 1.0))

    def test_rejects_negative_momentum(self):
        with pytest.raises(DomainError, match="p > 0"):
            feynman_integral(BubbleSpec(1.0, 1.0, 2.0, -1.0, 1.0))

    def test_rejects_infinite_momentum(self):
        with pytest.raises(DomainError, match="finite"):
            feynman_integral(BubbleSpec(1.0, 1.0, 2.0, math.inf, 1.0))

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(DomainError):
            feynman_integral(BubbleSpec(1.0, 1.0, 2.0, 1.0, 0.0))

    def test_extreme_mass_ratio_raises(self):
        with pytest.raises(ConvergenceError):
            feynman_integral(BubbleSpec(1.0, 1.0, 2.0, 1.0e8, 1.0))

    def test_converges_up_to_the_mass_ratio_floor(self):
        # m^2/p^2 = 1e-14 at p = 1e7 is the smallest ratio accepted.
        for p in (1.0e5, 1.0e6, 1.0e7):
            quadrature = feynman_integral(BubbleSpec(1.0, 1.0, 2.0, p, 1.0))
            assert quadrature == pytest.approx(pi_closed(p, 1.0), rel=1.0e-9)

    def test_overflowing_integrand_raises(self):
        # [x(1 - x) + 1e-14]^-39 is beyond the largest double near x = 0.
        with pytest.raises(ConvergenceError, match="overflows"):
            feynman_integral(BubbleSpec(20.0, 20.0, 2.0, 1.0e7, 1.0))

    @pytest.mark.parametrize("alpha, beta, dim", [
        (1.0, 1.0, 2.0), (1.0, 2.0, 2.0), (2.0, 1.0, 2.0),
        (1.0, 1.0, 3.0), (2.0, 2.0, 3.0),
    ])
    def test_matches_tanh_sinh_oracle(self, alpha, beta, dim):
        for p in (0.1, 3.0, 100.0, 1.0e4):
            value = feynman_integral(BubbleSpec(alpha, beta, dim, p, 1.0))
            reference = oracles.feynman_oracle(alpha, beta, dim, p, 1.0)
            assert value == pytest.approx(reference, rel=1.0e-9)


# ----------------------------------------------------------------------
# _quad, the Gauss-Kronrod rule behind both quadratures
# ----------------------------------------------------------------------

class TestQuad:
    def test_tadpole_matches_closed_form_over_gap_range(self):
        # The benchmark's gap range: exponent 4 pi/(N g0^2) in [1, 20] and
        # cutoff in [1, 100], both log-uniform; the tadpole depends on N and
        # g0 only through m^2 = cutoff^2 / (e^exponent - 1).
        rng = random.Random(7)
        for _ in range(2000):
            exponent = math.exp(rng.uniform(0.0, math.log(20.0)))
            cutoff = math.exp(rng.uniform(0.0, math.log(100.0)))
            m2 = cutoff * cutoff / math.expm1(exponent)
            tadpole = _quad(lambda r: r / (r * r + m2), 0.0, cutoff, 1.0e-9)
            closed = 0.5 * math.log1p(cutoff * cutoff / m2)
            assert abs(tadpole - closed) <= 1.0e-9 * closed, (exponent, cutoff)

    def test_degree_13_polynomial_is_exact_in_one_round(self):
        # G7 integrates degree 13 exactly, so K15 - G7 vanishes at once:
        # one subinterval, the integrand called once at each of 15 nodes.
        coefficients = np.arange(1.0, 15.0)  # 1 + 2x + ... + 14x^13
        calls = []

        def poly(x):
            calls.append(x)
            return float(np.polynomial.polynomial.polyval(x, coefficients))

        value = _quad(poly, -0.5, 2.0, 1.0e-9)
        exact = sum(c * (2.0 ** (k + 1) - (-0.5) ** (k + 1)) / (k + 1)
                    for k, c in enumerate(coefficients))
        assert len(calls) == 15 and len(set(calls)) == 15
        assert value == pytest.approx(exact, rel=1.0e-14)

    def test_raises_beyond_the_subinterval_limit(self, monkeypatch):
        # 1/x on [0, 1] diverges, so no number of subintervals suffices;
        # a tighter limit stops the tadpole at exponent 20 sooner.
        calls = []

        def inverse(x):
            calls.append(x)
            return 1.0 / x

        with pytest.raises(ConvergenceError):
            _quad(inverse, 0.0, 1.0, 1.0e-9)
        # 15 calls per subinterval; after the first, each bisection adds
        # a pair of subintervals and removes one.
        assert len(calls) % 15 == 0
        assert 1 + (len(calls) // 15 - 1) // 2 <= 200
        m2 = 1.0 / math.expm1(20.0)
        monkeypatch.setattr(rzs.bubble, "_QUAD_LIMIT", 5)
        with pytest.raises(ConvergenceError):
            _quad(lambda r: r / (r * r + m2), 0.0, 1.0, 1.0e-9)

    def test_nan_integrand_raises(self):
        with pytest.raises(ConvergenceError):
            _quad(lambda x: math.nan, 0.0, 1.0, 1.0e-9)


# ----------------------------------------------------------------------
# pi_closed / pi_at_zero
# ----------------------------------------------------------------------

class TestPiClosed:
    def test_agrees_with_momentum_quadrature_on_grid(self):
        # p/m up to 1e6 beyond the grid: there the integrand peaks
        # sharply at r ~ p.
        points = [(p, m) for p in GRID_P for m in GRID_M]
        for p, m in [*points, (1.0e2, 0.01), (1.0e3, 0.01), (1.0e4, 0.01)]:
            closed = pi_closed(p, m)
            direct = oracles.pi_momentum_oracle(p, m)
            assert closed == pytest.approx(direct, rel=1.0e-9), (p, m)

    def test_frozen_reference_value(self):
        assert pi_closed(3.0, 1.0) == pytest.approx(0.03515920448367486,
                                                    rel=1.0e-12)

    def test_asymptotic_form_at_large_momentum(self):
        # t/m^2 = 1e6: Pi -> ln(t/m^2) / (2 pi t) for m = 1.
        target = math.log(1.0e6) / (TWO_PI * 1.0e6)
        assert pi_closed(1000.0, 1.0) == pytest.approx(target, rel=1.0e-4)

    def test_depends_only_on_momentum_magnitude(self):
        assert pi_closed(-3.0, 1.0) == pi_closed(3.0, 1.0)

    def test_continuous_at_small_momentum(self):
        assert pi_closed(1.0e-3, 1.0) == pytest.approx(pi_at_zero(1.0),
                                                       rel=1.0e-5)

    def test_continuous_where_log1p_avoids_cancellation(self):
        # Near p^2/m^2 = 1e-6 ln[(1+f)/(f-1)] cancels catastrophically
        # unless formed as log1p; Pi must stay continuous there.
        below = pi_closed(0.999999e-3, 1.0)
        above = pi_closed(1.000001e-3, 1.0)
        assert below == pytest.approx(above, rel=1.0e-10)

    def test_positive_on_log_grid(self):
        for p in np.geomspace(1.0e-4, 1.0e3, 100):
            assert pi_closed(float(p), 1.0) > 0.0
        assert pi_at_zero(1.0) > 0.0

    def test_strictly_decreasing_in_momentum(self):
        values = [pi_closed(float(p), 1.0)
                  for p in np.geomspace(1.0e-4, 1.0e3, 100)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_scaling_dimension(self):
        for lam in (2.0, 10.0):
            for p, m in ((0.3, 1.0), (3.0, 0.5), (40.0, 2.0)):
                scaled = pi_closed(lam * p, lam * m)
                assert scaled == pytest.approx(pi_closed(p, m) / lam**2,
                                               rel=1.0e-12)

    def test_matches_mpmath_over_twenty_four_decades(self):
        # One formula at every momentum: p/m in [1e-12, 1e12] and m in
        # [1e-2, 1e2], log-uniform.
        rng = random.Random(1515)
        for _ in range(2000):
            m = 10.0 ** rng.uniform(-2.0, 2.0)
            p = m * 10.0 ** rng.uniform(-12.0, 12.0)
            value = pi_closed(p, m)
            with mpmath.workdps(60):
                p2, m2 = mpmath.mpf(p) ** 2, mpmath.mpf(m) ** 2
                f = mpmath.sqrt(1 + 4 * m2 / p2)
                exact = mpmath.log((1 + f) / (f - 1)) / (2 * mpmath.pi * f * p2)
                assert abs(value / exact - 1) <= 1.0e-15, (p, m)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            pi_closed(math.nan, 1.0)
        with pytest.raises(DomainError):
            pi_closed(math.inf, 1.0)
        with pytest.raises(DomainError):
            pi_closed(0.0, 1.0)
        with pytest.raises(DomainError):
            pi_closed(1.0, -1.0)


class TestPiAtZero:
    def test_closed_value(self):
        assert pi_at_zero(1.0) == pytest.approx(1.0 / (4.0 * math.pi),
                                                rel=1.0e-15)

    def test_mass_scaling(self):
        for m in (0.5, 3.0, 10.0):
            assert pi_at_zero(m) == pytest.approx(pi_at_zero(1.0) / m**2,
                                                  rel=1.0e-15)

    def test_agrees_with_direct_quadrature(self):
        for m in (0.5, 1.0, 2.0):
            assert pi_at_zero(m) == pytest.approx(
                oracles.pi_zero_momentum_oracle(m), rel=1.0e-8)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(DomainError):
            pi_at_zero(0.0)

    def test_matches_mpmath_where_the_mass_squared_underflows(self):
        # m^2 = 9e-310 is subnormal; Pi(0) ~ 8.8e307 is still finite.
        m = 3.0e-155
        with mpmath.workdps(40):
            exact = 1 / (4 * mpmath.pi * mpmath.mpf(m) ** 2)
            assert abs(pi_at_zero(m) / exact - 1) <= 1.0e-15

    @pytest.mark.parametrize("m", [1.0e-170, 2.0e-160, 1.0e200, math.inf])
    def test_zero_or_infinite_value_raises(self, m):
        # m^2 underflows to 0 (1e-170) or Pi(0) overflows (2e-160);
        # Pi(0) underflows to 0 (1e200, inf).  pi_closed raises alike.
        with pytest.raises(DomainError, match="pi_at_zero"):
            pi_at_zero(m)


# ----------------------------------------------------------------------
# correlator_sample
# ----------------------------------------------------------------------

class TestCorrelatorSample:
    def test_asymptote_at_t_equals_e(self):
        sample = correlator_sample(math.e, 1.0)
        assert sample.asymptote == pytest.approx(TWO_PI * math.e, rel=1.0e-15)

    def test_printed_asymptote_matches_mpmath_on_the_ordinary_range(self):
        # 4,000 seeded (t, m2): m2 log-uniform in [0.1, 10] and L = ln(t/m2)
        # log-uniform in [1e-6, ln 1e8], the range `bubble` prints, as its
        # 17-digit text.  The rounding of t/m2, 2^-53 relative, moves ln by
        # 2^-53 absolute, 2^-53/ln(t/m2) relative, which grows as t -> m2.
        # Seed 29's worst case is 1.61 of the unit.
        rng = random.Random(29)
        for _ in range(4000):
            m2 = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            t = m2 * math.exp(math.exp(rng.uniform(math.log(1.0e-6),
                                                   math.log(math.log(1.0e8)))))
            printed = float(_SPEC % correlator_sample(t, m2).asymptote)
            with mpmath.workdps(50):
                log_ratio = mpmath.log(mpmath.mpf(t) / mpmath.mpf(m2))
                exact = 2 * mpmath.pi * t / log_ratio
                unit = 2.0 ** -53 * (1 + 1 / log_ratio)
                assert abs(printed / exact - 1) <= 4 * unit, (t, m2)

    def test_correlator_is_stored_reciprocal(self):
        for t in (0.5, 2.0, 100.0, 1.0e4):
            sample = correlator_sample(t, 1.0)
            assert sample.pi_value > 0.0
            assert sample.correlator == 1.0 / sample.pi_value

    def test_ratio_to_asymptote_at_1e4(self):
        sample = correlator_sample(1.0e4, 1.0)
        ratio = sample.correlator / sample.asymptote
        assert abs(ratio - 1.0) <= 1.0e-3
        assert ratio == pytest.approx(1.0002, abs=5.0e-5)

    def test_ratio_converges_through_decades(self):
        deviations = []
        for exponent in (2, 3, 4, 5):
            sample = correlator_sample(10.0**exponent, 1.0)
            deviations.append(abs(sample.correlator / sample.asymptote - 1.0))
        assert all(b < a for a, b in zip(deviations, deviations[1:]))
        assert deviations[2] <= 1.0e-3

    def test_asymptote_undefined_at_or_below_m2(self):
        assert correlator_sample(1.0, 1.0).asymptote is None
        assert correlator_sample(0.5, 1.0).asymptote is None
        assert correlator_sample(1.5, 1.0).asymptote is not None

    def test_fields_recorded(self):
        sample = correlator_sample(9.0, 4.0)
        assert sample.t == 9.0
        assert sample.m2 == 4.0
        assert sample.pi_value == pi_closed(3.0, 2.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            correlator_sample(0.0, 1.0)
        with pytest.raises(DomainError):
            correlator_sample(1.0, 0.0)
        for t, m2 in ((math.inf, 1.0), (1.0, math.inf)):
            with pytest.raises(DomainError, match="must be positive and finite"):
                correlator_sample(t, m2)

    def test_overflowing_denominator_raises(self):
        # At t = 1e308 the asymptote 2 pi t / ln t overflows; at m^2 near
        # the largest double Pi ~ 4e-310, whose reciprocal overflows; and
        # at p = 1e200 Pi ~ 1.5e-398 underflows to 0.
        for t, m2 in ((1.0e308, 1.0), (1.0, 1.7976931348623157e308)):
            with pytest.raises(DomainError, match="overflows"):
                correlator_sample(t, m2)
        with pytest.raises(DomainError, match="overflows"):
            pi_closed(1.0e200, 1.0)


def _mp_pi(t: float, m2: float):
    """Pi(sqrt(t)) from the textbook closed form ln((1+f)/(f-1)) / (2pi f t),
    at 700 digits, so f - 1 ~ 2 m2/t keeps its digits down to m2/t = 1e-650."""
    with mpmath.workdps(700):
        t, m2 = mpmath.mpf(t), mpmath.mpf(m2)
        f = mpmath.sqrt(1 + 4 * m2 / t)
        return mpmath.log((1 + f) / (f - 1)) / (2 * mpmath.pi * f * t)


class TestOverflowingRatios:
    """Inputs where t/m2 or (1 + f) p/(2m) overflows but Pi, the
    correlator and the asymptote are finite doubles."""

    @pytest.mark.parametrize("t, m2", [(1.0, 1.0e-320), (1.0e299, 1.0e-320),
                                       (1.0e300, 1.0e-320), (1.0e10, 5.0e-324)])
    def test_matches_mpmath(self, t, m2):
        sample = correlator_sample(t, m2)
        pi_ref = _mp_pi(t, m2)
        with mpmath.workdps(30):
            asym_ref = 2 * mpmath.pi * t / mpmath.log(mpmath.mpf(t) / m2)
        assert abs(sample.pi_value / pi_ref - 1) <= 1.0e-14
        assert abs(sample.correlator * pi_ref - 1) <= 1.0e-14
        assert abs(sample.asymptote / asym_ref - 1) <= 1.0e-14

    def test_asymptote_at_unit_t(self):
        # t/m2 = 1e320 overflows; the asymptote is 2 pi / ln(1e320).
        asymptote = correlator_sample(1.0, 1.0e-320).asymptote
        assert asymptote == pytest.approx(0.0085273520826699326, rel=1.0e-15)

    def test_pi_beyond_the_largest_double_raises(self):
        # Pi ~ 7.8e318 here: its reciprocal, the correlator, would be 0.
        with pytest.raises(DomainError, match="overflows"):
            correlator_sample(1.0e-321, 1.0e-320)

    def test_mass_whose_square_underflows(self):
        # m^2 = 1e-340 is 0.0 in double precision; Pi itself is not.
        value = pi_closed(1.0, 1.0e-170)
        assert value == pytest.approx(124.59905180950272, rel=1.0e-15)
        with mpmath.workdps(40):
            exact = _mp_pi(1.0, mpmath.mpf(1.0e-170) ** 2)
            assert abs(value / exact - 1) <= 1.0e-15

    def test_matches_mpmath_where_the_mass_ratio_is_subnormal(self):
        # p/m in [1e-330, 1e-300], below the smallest normal double, where
        # Pi is close to 1/(4 pi m^2); m stays below 1e150 so Pi is a
        # normal double.  p enters Pi through x = p y only, and
        # log1p(x)/x is exactly 1 there, so no digit is lost.
        cases = [(1.0e-320, 3.0), (1.0e-200, 1.0e130)]
        rng = random.Random(330)
        for _ in range(200):
            log_ratio = rng.uniform(-330.0, -300.0)
            log_p = rng.uniform(-320.0, 150.0 + log_ratio)
            cases.append((10.0 ** log_p, 10.0 ** (log_p - log_ratio)))
        for p, m in cases:
            exact = _mp_pi(mpmath.mpf(p) ** 2, mpmath.mpf(m) ** 2)
            assert abs(pi_closed(p, m) / exact - 1) <= 1.0e-15, (p, m)
        # The same regime through the CLI's route, t = 5e-324, m2 = 1e306.
        sample = correlator_sample(5.0e-324, 1.0e306)
        assert abs(sample.pi_value / _mp_pi(5.0e-324, 1.0e306) - 1) <= 1.0e-15

    def test_pi_of_tiny_momentum_and_mass_beyond_the_largest_double_raises(self):
        # Pi ~ 1/(4 pi m^2) ~ 7.96e338 at p = 1e-200, m = 1e-170.
        with pytest.raises(DomainError, match="overflows"):
            pi_closed(1.0e-200, 1.0e-170)

    def test_feynman_integral_with_tiny_momentum_and_mass(self):
        # I = Pi(1, 1) / p^2 ~ 8e338 at p = m = 1e-170 overflows; at
        # 1e-100 it is an ordinary number, 6.85e198.
        with pytest.raises(RzsError):
            feynman_integral(BubbleSpec(1.0, 1.0, 2.0, 1.0e-170, 1.0e-170))
        value = feynman_integral(BubbleSpec(1.0, 1.0, 2.0, 1.0e-100, 1.0e-100))
        assert value == pytest.approx(pi_closed(1.0e-100, 1.0e-100), rel=1.0e-9)

    def test_asymptote_beyond_the_largest_double_raises(self):
        # ln(t/m2) = 2.2e-16, so 2 pi t / ln(t/m2) ~ 2.8e316.
        with pytest.raises(DomainError, match="asymptote"):
            correlator_sample(1.0e300, math.nextafter(1.0e300, 0.0))


# ----------------------------------------------------------------------
# gap equation
# ----------------------------------------------------------------------

def _ln2_spec(cutoff: float = 5.0) -> GapEquationSpec:
    # 4 pi / (N g0^2) = ln 2  ->  m^2 = Lambda^2 exactly.
    coupling = math.sqrt(4.0 * math.pi / (2.0 * math.log(2.0)))
    return GapEquationSpec(coupling=coupling, n_components=2, cutoff=cutoff)


class TestGapEquation:
    def test_special_point_mass_equals_cutoff_squared(self):
        spec = _ln2_spec(cutoff=5.0)
        assert gap_mass(spec) == pytest.approx(25.0, rel=1.0e-9)

    def test_matches_closed_form_inversion(self):
        for coupling, n, cutoff in ((0.5, 4, 10.0), (1.2, 2, 5.0), (2.0, 3, 50.0)):
            spec = GapEquationSpec(coupling, n, cutoff)
            exponent = 4.0 * math.pi / (n * coupling * coupling)
            closed = cutoff * cutoff / math.expm1(exponent)
            assert gap_mass(spec) == pytest.approx(closed, rel=1.0e-9)

    def test_mass_increases_with_coupling(self):
        masses = [gap_mass(GapEquationSpec(g, 3, 10.0))
                  for g in (0.8, 1.0, 1.3)]
        assert masses[0] < masses[1] < masses[2]

    def test_quadrature_back_substitution(self):
        for coupling, n, cutoff in ((0.5, 4, 10.0), (1.2, 2, 5.0), (2.0, 3, 50.0)):
            spec = GapEquationSpec(coupling, n, cutoff)
            m2 = gap_mass(spec)
            lhs = 1.0 / (coupling * coupling)
            assert gap_residual(spec, m2) <= 1.0e-6 * lhs

    def test_residual_matches_independent_tadpole(self):
        spec = GapEquationSpec(1.2, 2, 5.0)
        m2 = gap_mass(spec)
        rhs = spec.n_components * oracles.tadpole_oracle(m2, spec.cutoff)
        assert gap_residual(spec, m2) == pytest.approx(
            abs(1.0 / spec.coupling**2 - rhs), abs=1.0e-12)

    def test_unphysical_regime_raises_no_solution(self):
        with pytest.raises(NoSolutionError):
            gap_mass(GapEquationSpec(4.0, 2, 1.0))

    def test_vanishing_mass_raises_domain_error(self):
        with pytest.raises(DomainError):
            gap_mass(GapEquationSpec(1.0e-3, 2, 1.0))

    def test_extreme_inputs_raise_instead_of_crashing(self):
        # Non-finite inputs, and a cutoff whose square overflows.
        for spec in (GapEquationSpec(math.inf, 3, 1.0),
                     GapEquationSpec(math.nan, 3, 1.0),
                     GapEquationSpec(1.0, 3, math.inf),
                     GapEquationSpec(1.0, 3, math.nan),
                     GapEquationSpec(1.0, 3, 1.0e200)):
            with pytest.raises(DomainError):
                gap_mass(spec)
        # N g0^2 overflows: the exponent 4 pi/(N g0^2) is 0, m^2 infinite.
        with pytest.raises(NoSolutionError):
            gap_mass(GapEquationSpec(1.0e200, 3, 1.0))
        # N g0^2 underflows to 0: the mass underflows.
        with pytest.raises(DomainError):
            gap_mass(GapEquationSpec(1.0e-200, 3, 1.0))

    def test_integer_cutoff_without_a_float_square_raises(self):
        # 10**200 has a float form but its square does not; 10**400 has
        # neither.
        for cutoff in (10**200, 10**400):
            spec = GapEquationSpec(1.0, 3, cutoff)
            with pytest.raises(DomainError, match="cutoff"):
                gap_mass(spec)
            with pytest.raises(DomainError, match="cutoff"):
                gap_residual(spec, 1.0)

    def test_matches_mpmath_over_the_benchmark_gap_range(self):
        # 1,000 triples from the benchmark's gap range: exponent
        # 4 pi/(N g0^2) in [1, 20] and cutoff in [1, 100], log-uniform.
        rng = random.Random(4096)
        for _ in range(1000):
            n = rng.randint(2, 8)
            exponent = math.exp(rng.uniform(0.0, math.log(20.0)))
            coupling = math.sqrt(4.0 * math.pi / (n * exponent))
            cutoff = math.exp(rng.uniform(0.0, math.log(100.0)))
            m2 = gap_mass(GapEquationSpec(coupling, n, cutoff))
            with mpmath.workdps(40):
                inv_g2 = 1 / mpmath.mpf(coupling) ** 2
                lam2 = mpmath.mpf(cutoff) ** 2
                exact = lam2 / mpmath.expm1(4 * mpmath.pi * inv_g2 / n)
                rhs = n * mpmath.log1p(lam2 / m2) / (4 * mpmath.pi)
                assert abs(m2 / exact - 1) <= 1.0e-14, (coupling, n, cutoff)
                assert abs(inv_g2 - rhs) <= 1.0e-15 * inv_g2, (coupling, n, cutoff)

    def test_residual_matches_mpmath_at_a_vanishing_mass(self):
        # m2 = 1e-300 puts the tadpole's peak at r ~ 1e-150; in v, with
        # r = m sinh v, the integrand tanh v is smooth on [0, 346].
        spec = GapEquationSpec(1.0, 3, 1.0)
        with mpmath.workdps(40):
            tadpole = mpmath.log1p(1 / mpmath.mpf(1.0e-300)) / (4 * mpmath.pi)
            exact = abs(1 - 3 * tadpole)
            assert abs(gap_residual(spec, 1.0e-300) - exact) <= 1.0e-15 * exact

    def test_printed_residual_over_the_benchmark_gap_range(self, capsys):
        # 1,000 triples drawn as the benchmark's cli-short draws its gap
        # commands: N in 2..8, exponent 4 pi/(N g0^2) in [1, 20] and
        # cutoff in [1, 100], both log-uniform.
        rng = random.Random(5)
        for _ in range(1000):
            n = rng.randint(2, 8)
            exponent = math.exp(rng.uniform(0.0, math.log(20.0)))
            coupling = math.sqrt(4.0 * math.pi / (n * exponent))
            cutoff = math.exp(rng.uniform(0.0, math.log(100.0)))
            assert rzs.cli.main(["gap", "--coupling", repr(coupling),
                                 "--n-components", str(n),
                                 "--cutoff", repr(cutoff)]) == 0
            printed = capsys.readouterr().out.splitlines()[1]
            assert printed.startswith("residual = ")
            residual = float(printed.removeprefix("residual = "))
            assert residual <= 1.0e-15 / (coupling * coupling), (coupling, n, cutoff)

    def test_rejects_coupling_whose_square_underflows(self):
        # g0^2 underflows to 0 (1e-200) or to a subnormal whose inverse
        # overflows (1e-160), so 1/g0^2 is not a finite double.
        for coupling in (1.0e-200, 1.0e-160):
            with pytest.raises(DomainError, match="underflows"):
                gap_residual(GapEquationSpec(coupling, 3, 1.0), 1.0)

    def test_rejects_component_count_without_float_form(self):
        huge = int("1" * 401)
        for call in (gap_mass, lambda spec: gap_residual(spec, 1.0)):
            with pytest.raises(DomainError, match="n_components"):
                call(GapEquationSpec(1.0, huge, 1.0))

    def test_non_numbers_raise_domain_error(self):
        # Every field is checked for its type before it becomes a float,
        # in the order coupling, n_components, cutoff.
        for spec, field in ((GapEquationSpec(1.0, None, 1.0), "n_components"),
                            (GapEquationSpec("1.0", 3, 1.0), "coupling"),
                            (GapEquationSpec(1.0, 3, "10"), "cutoff"),
                            (GapEquationSpec(-1.0, 10**400, 1.0), "coupling"),
                            (GapEquationSpec(10**400, 3, 1.0), "coupling")):
            for call in (gap_mass, lambda spec: gap_residual(spec, 1.0)):
                with pytest.raises(DomainError, match=field):
                    call(spec)

    def test_rejects_bad_specs(self):
        with pytest.raises(DomainError):
            gap_mass(GapEquationSpec(0.0, 2, 1.0))
        with pytest.raises(DomainError):
            gap_mass(GapEquationSpec(1.0, 1, 1.0))
        with pytest.raises(DomainError):
            gap_mass(GapEquationSpec(1.0, 2.5, 1.0))
        with pytest.raises(DomainError):
            gap_mass(GapEquationSpec(1.0, 2, 0.0))
        with pytest.raises(DomainError):
            gap_residual(GapEquationSpec(1.0, 2, 1.0), -1.0)
