"""Sanity anchors for the test-suite oracles themselves.

These pin each oracle to an independent closed form or documented
constant, so a silent oracle regression cannot weaken the cross-check
tests that rely on them.
"""

from __future__ import annotations

import math

import pytest

import oracles


def test_theta_oracle_vanishes_at_origin():
    assert abs(oracles.theta_oracle(0.0)) < 1.0e-13


def test_zeta_oracle_at_origin():
    value, bound = oracles.zeta_oracle(0.0)
    assert value.imag == pytest.approx(0.0, abs=1.0e-13)
    assert value.real == pytest.approx(-1.4603545, abs=1.0e-6)
    assert bound < 1.0e-13


def test_z_oracle_vanishes_at_first_zero():
    value, _ = oracles.z_oracle(14.134725)
    assert abs(value) < 1.0e-6


def test_tadpole_oracle_matches_logarithm():
    for m2, cutoff in ((1.0, 10.0), (25.0, 5.0), (0.37, 100.0)):
        closed = math.log1p(cutoff * cutoff / m2) / (4.0 * math.pi)
        assert oracles.tadpole_oracle(m2, cutoff) == pytest.approx(
            closed, rel=1.0e-12)


def test_zero_momentum_oracle_matches_quarter_inverse_pi():
    assert oracles.pi_zero_momentum_oracle(1.0) == pytest.approx(
        1.0 / (4.0 * math.pi), rel=1.0e-9)


def test_feynman_oracle_matches_closed_forms():
    # With r = m^2/p^2 and c = sqrt(r + 1/4): I(1, 2, 2, p) is half of
    # (4 pi p^4)^-1 Int_0^1 (x(1-x) + r)^-2 dx, which is
    # 1/(2 c^2 r) + ln((c + 1/2)/(c - 1/2)) / (2 c^3); and
    # I(1, 1, 3, p) = arcsin(1/(2c)) / (4 pi p).
    for p in (0.1, 3.0, 100.0, 1.0e4):
        r = 1.0 / (p * p)
        c = math.sqrt(r + 0.25)
        j = 1.0 / (2.0 * c * c * r) + math.log((c + 0.5) / (c - 0.5)) / (2.0 * c**3)
        assert oracles.feynman_oracle(1.0, 2.0, 2.0, p, 1.0) == pytest.approx(
            0.5 * j / (4.0 * math.pi * p**4), rel=1.0e-12)
        assert oracles.feynman_oracle(1.0, 1.0, 3.0, p, 1.0) == pytest.approx(
            math.asin(0.5 / c) / (4.0 * math.pi * p), rel=1.0e-12)


def test_theta_asymptotic_matches_theta_oracle():
    # Measured: at most 2.2e-14 up to t = 1000 and 3.6e-12 at t = 1e4,
    # the quadrature's own rounding of theta ~ 3.3e4.
    for t in (10.0, 14.0, 100.0, 1000.0, 1.0e4):
        assert abs(oracles.theta_asymptotic(t) - oracles.theta_oracle(t)) <= (
            3.0e-14 + 1.0e-15 * t)


def test_smooth_zero_is_the_half_integer_point_of_the_smooth_count():
    # theta(gamma~_n) = (n - 3/2) pi, and gamma~_n lies within a mean
    # spacing of the zeros gamma_1 = 14.13, gamma_2 = 21.02 and gamma_100
    # = 236.52 (measured: 14.52, 20.65, 235.99).
    for n, near in ((1, 14.13), (2, 21.02), (100, 236.52)):
        t = oracles.smooth_zero(n)
        assert abs(oracles.theta_asymptotic(t) / math.pi - (n - 1.5)) <= 1.0e-14 * n
        assert abs(t - near) <= math.tau / math.log(near / math.tau)
