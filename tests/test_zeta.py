"""Tests for the critical-line engine: theta, Z, the scan, the counter."""

from __future__ import annotations

import ast
import bisect
import functools
import json
import math
import pathlib
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rzs._zkernels
import rzs.cli
import rzs.zeta
from rzs import (
    AuditError,
    DomainError,
    PrecisionError,
    ZeroEntry,
    correlator_sample,
    count_zeros,
    gamma_asymptotic,
    report_to_csv,
    report_to_json,
    scan_zeros,
    theta,
    z_function,
    zero_table_to_csv,
)

import oracles

TWO_PI = 2.0 * math.pi

# Every zero below t = 3000 from mpmath, committed with the benchmark.
_REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.json"


@functools.cache
def _reference_zeros() -> tuple[float, ...]:
    data = json.loads(_REFERENCE.read_text())
    return tuple(float(g) for g in data["full"])


# ----------------------------------------------------------------------
# theta
# ----------------------------------------------------------------------

class TestTheta:
    def test_zero_at_origin(self):
        assert theta(0.0) == 0.0

    def test_parity_at_50(self):
        assert theta(-50.0) == -theta(50.0)

    def test_against_quadrature_oracle_at_100(self):
        assert abs(theta(100.0) - oracles.theta_oracle(100.0)) < 1.0e-10

    def test_against_quadrature_oracle_across_heights(self):
        # Heights 5, 6, ..., 40 span THETA_SERIES_T = 10, where theta moves
        # from the shifted Stirling series to the asymptotic series, and
        # the Euler-Maclaurin/Riemann-Siegel crossover at t = 30.
        span = [float(t) for t in np.linspace(5.0, 40.0, 36)]
        for t in (0.5, 1.0, 14.134725, 30.0, 500.0, 5000.0, 9999.0, *span):
            assert abs(theta(t) - oracles.theta_oracle(t)) < 1.0e-10

    def test_continuous_across_series_switch(self):
        t0, eps = rzs._zkernels.THETA_SERIES_T, 1.0e-9
        slope = 0.5 * math.log(t0 / TWO_PI) - 1.0 / (48.0 * t0 * t0)
        jump = theta(t0 + eps) - theta(t0 - eps) - slope * 2.0 * eps
        assert abs(jump) <= 1.0e-12

    def test_frozen_value_at_100(self):
        assert theta(100.0) == pytest.approx(87.97216523178722, rel=1.0e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            theta(math.nan)
        with pytest.raises(DomainError):
            theta(math.inf)

    def test_beyond_supported_height(self):
        with pytest.raises(PrecisionError):
            theta(10001.0)


# ----------------------------------------------------------------------
# z_function
# ----------------------------------------------------------------------

class TestZFunction:
    def test_value_at_origin_is_zeta_half(self):
        # Z's bound raises no floating-point warning: the Riemann-Siegel
        # power is taken only at heights from the crossover up, never at 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample = z_function(0.0, 1.0e-10)
            crossover = rzs._zkernels.CROSSOVER_T
            for t in (math.nextafter(crossover, 0.0), crossover):
                assert z_function(t, 1.0).est_abs_error > 0.0
        assert sample.z_value == pytest.approx(-1.4603545, abs=1.0e-6)
        assert sample.method == "euler_maclaurin"
        assert sample.est_abs_error <= 1.0e-10
        ref, bound = oracles.z_oracle(0.0)
        assert abs(sample.z_value - ref) <= sample.est_abs_error + bound

    def test_first_zero_is_bracketed(self):
        lo = z_function(14.0, 1.0e-6).z_value
        hi = z_function(14.2, 1.0e-6).z_value
        assert math.copysign(1.0, lo) != math.copysign(1.0, hi)

    def test_method_dispatch_at_crossover(self):
        assert z_function(29.999, 1.0e-2).method == "euler_maclaurin"
        assert z_function(30.0, 1.0e-2).method == "riemann_siegel"
        assert z_function(1000.0, 1.0e-2).method == "riemann_siegel"

    def test_parity_at_20_random_heights(self):
        rng = random.Random(20260817)
        for _ in range(20):
            t = rng.uniform(0.5, 80.0)
            plus = z_function(t, 1.0e-2)
            minus = z_function(-t, 1.0e-2)
            assert minus.z_value == plus.z_value
            assert minus.theta_value == -plus.theta_value
            assert theta(-t) == -theta(t)

    def test_consistency_with_independent_zeta(self):
        # |Z(t)| must equal |zeta(1/2+it)| within twice the requested
        # tolerance; the reference comes from the independently
        # truncated Euler-Maclaurin oracle.
        rng = random.Random(1859)
        for _ in range(50):
            t = rng.uniform(1.0, 80.0)
            tol = 1.0e-10 if t < rzs._zkernels.CROSSOVER_T else 3.0e-3
            sample = z_function(t, tol)
            ref, bound = oracles.zeta_oracle(t)
            assert abs(abs(sample.z_value) - abs(ref)) <= 2.0 * tol
            # ... and within the per-sample estimate it reports.
            assert (
                abs(abs(sample.z_value) - abs(ref))
                <= sample.est_abs_error + bound + 1.0e-12
            )

    def test_error_estimate_covers_true_error(self):
        for t in (2.0, 14.0, 29.9, 31.0, 45.0, 60.0, 77.0):
            tol = 1.0e-9 if t < rzs._zkernels.CROSSOVER_T else 1.0e-2
            sample = z_function(t, tol)
            ref, bound = oracles.z_oracle(t)
            assert abs(sample.z_value - ref) <= sample.est_abs_error + bound

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(PrecisionError):
            z_function(50.0, 1.0e-8)
        with pytest.raises(PrecisionError):
            z_function(1000.0, 1.0e-9)

    def test_sample_fields(self):
        sample = z_function(40.0, 1.0e-2)
        assert sample.t == 40.0
        assert sample.theta_value == theta(40.0)
        assert sample.est_abs_error > 0.0

    @pytest.mark.parametrize("t", [5.0, 50.0, -50.0])
    def test_theta_computed_once_per_call(self, monkeypatch, t):
        real = rzs._zkernels._theta_vec
        calls = []

        def counting(ts):
            calls.append(np.size(ts))
            return real(ts)

        monkeypatch.setattr(rzs._zkernels, "_theta_vec", counting)
        sample = z_function(t, 1.0e-2)
        monkeypatch.undo()
        assert calls == [1]
        assert sample.theta_value == theta(t)

    def test_kernel_returns_the_theta_it_used(self):
        # _z_block returns its theta, bit-equal to _theta_vec's on both
        # sides of the crossover and of THETA_SERIES_T.
        ts = np.concatenate([np.linspace(0.0, 40.0, 401), [1.0e3, 1.0e4]])
        assert _bits(rzs._zkernels._z_block(ts)[1]) == _bits(
            rzs._zkernels._theta_vec(ts))

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            z_function(math.nan, 1.0e-6)
        with pytest.raises(DomainError):
            z_function(10.0, 0.0)
        with pytest.raises(DomainError):
            z_function(10.0, -1.0e-6)
        with pytest.raises(PrecisionError):
            z_function(10001.0, 1.0)


class TestRiemannSiegelKernel:
    def test_shuffled_batch_matches_sorted_batch_and_single_points(self):
        # Log-uniform heights over [30, 1e4] mix every term count N = 2..39
        # of the main sum; the kernel sorts them by N internally, and each
        # height adds its own terms in order, so a value is bit-equal alone
        # and in any batch.
        rng = np.random.default_rng(1859)
        ts = np.sort(np.exp(rng.uniform(math.log(30.0), math.log(1.0e4), 800)))
        assert set(np.floor(np.sqrt(ts / TWO_PI)).astype(int)) == set(range(2, 40))
        perm = rng.permutation(ts.size)
        vals, _, errs = _block_columns(ts)
        shuffled_vals, _, shuffled_errs = _block_columns(ts[perm])
        assert np.array_equal(shuffled_vals, vals[perm])
        assert np.array_equal(shuffled_errs, errs[perm])
        single = np.array([rzs._zkernels._z_values(ts[i:i + 1])[0] for i in perm])
        assert np.array_equal(single, shuffled_vals)

        # Below the crossover too: Euler-Maclaurin takes one truncation
        # for every height and the same main sum.
        low = rng.uniform(0.0, rzs._zkernels.CROSSOVER_T, 200)
        alone = np.array([rzs._zkernels._z_values([t])[0] for t in low.tolist()])
        assert np.array_equal(rzs._zkernels._z_values(low), alone)
        for size in (2, 7, 50, 199):
            pick = rng.permutation(low.size)[:size]
            mixed = np.concatenate([low[pick], ts[:size]])
            assert np.array_equal(rzs._zkernels._z_values(mixed)[:size], alone[pick])

        # One sorted batch across the crossover, and the same batch shuffled.
        both = np.sort(np.concatenate([low, ts]))
        both_vals, _, both_errs = _block_columns(both)
        perm = rng.permutation(both.size)
        shuffled_vals, _, shuffled_errs = _block_columns(both[perm])
        assert np.array_equal(shuffled_vals, both_vals[perm])
        assert np.array_equal(shuffled_errs, both_errs[perm])

    def test_a_batch_of_many_blocks_gives_the_bits_of_small_batches(self):
        # _z_values takes a batch _Z_BLOCK heights at a time, so a batch of
        # 2.5 blocks, a fifth of it below the crossover, is cut twice; every
        # value and bound of the whole batch, and every theta of its blocks,
        # is the one batches of 7 heights give.
        kernels = rzs._zkernels
        rng = np.random.default_rng(1737)
        size = 5 * kernels._Z_BLOCK // 2
        ts = np.where(rng.uniform(size=size) < 0.2,
                      rng.uniform(0.0, kernels.CROSSOVER_T, size),
                      rng.uniform(kernels.CROSSOVER_T, 1.0e4, size))
        small = [_block_columns(part) for part in np.array_split(ts, size // 7)]
        _assert_blocks_give_the_bits_of(ts, small)

    def test_a_large_euler_maclaurin_batch_gives_the_bits_of_small_batches(self):
        # Above 16,384 heights below the crossover, a complex temporary of
        # the Euler-Maclaurin tail passes numpy's 256 KiB elision size and
        # its product is taken in place, which rounds differently; in one
        # batch a bound formed from that tail was 1 ulp off at t = 29.3006.
        # Blocks keep every temporary below that size.
        ts = np.linspace(0.0, 40.0, 200001)[:146504]
        assert ts[-1] < rzs._zkernels.CROSSOVER_T
        small = [_block_columns(part) for part in np.array_split(ts, 147)]
        _assert_blocks_give_the_bits_of(ts, small)


class TestMainSumKernel:
    """_main_sum takes each cos x from u = tan(x/2) as (1 - u^2)/(1 + u^2),
    with the half phase computed exactly."""

    @staticmethod
    def _cos_loop(ts, th, big_n):
        # The same double phases theta - t ln n, the same weights and the
        # same order of additions as the kernel, with math.cos per term.
        ns = np.arange(1, int(big_n.max()) + 1)
        ln_n = np.log(ns).tolist()
        rsqrt_n = (1.0 / np.sqrt(ns)).tolist()
        sums = []
        for t, phase, count in zip(ts.tolist(), th.tolist(), big_n.tolist()):
            acc = 0.0
            for k in range(count):
                acc += rsqrt_n[k] * math.cos(phase - t * ln_n[k])
            sums.append(acc)
        return np.array(sums)

    def test_matches_a_cos_loop_over_the_same_phases(self):
        # Each term is within ~4 ulp of its cosine; measured <= 1.8e-15.
        rng = np.random.default_rng(1914)
        ts = np.concatenate((rng.uniform(0.0, 1.0e4, 600), [0.0, 30.0, 1.0e4]))
        th = rzs._zkernels._theta_vec(ts)
        big_n = rng.integers(1, 46, ts.size)
        big_n[-3:] = 45
        got = rzs._zkernels._main_sum(ts, th, big_n)
        err = np.abs(got - self._cos_loop(ts, th, big_n))
        assert np.all(err <= big_n * 4.0 * 2.0 ** -53)

    @pytest.mark.parametrize("m", [0, 14])
    def test_half_phase_at_an_odd_multiple_of_half_pi(self, m):
        # At t = 0 every term's half phase is theta/2 = h, the double
        # nearest (2m + 1) pi/2, where tan(h) is ~1e16; m = 14 gives
        # the largest |tan| of any double below 2e4, ~1.6e18.  u^2 stays
        # finite and every term is -1/sqrt(n).
        with mpmath.workdps(40):
            h = float((2 * m + 1) * mpmath.pi / 2)
        assert abs(np.tan(h)) > 1.0e15
        big_n = np.arange(1, 46)
        ts = np.zeros(big_n.size)
        th = np.full(big_n.size, 2.0 * h)
        got = rzs._zkernels._main_sum(ts, th, big_n)
        assert np.all(np.isfinite(got))
        assert abs(got[0] + 1.0) <= 2.0 ** -52
        expected = self._cos_loop(ts, th, big_n)
        assert np.all(np.abs(got - expected) <= big_n * 4.0 * 2.0 ** -53)
        assert np.all(np.abs(expected + np.cumsum(1.0 / np.sqrt(big_n)))
                      <= big_n * 2.0 ** -50)


def _psi_mp(p):
    """Psi(p) = cos(2pi(p^2 - p - 1/16)) / cos(2pi p) in mpmath; at the
    removable points p = 1/4, 3/4 the ratio of the derivatives."""
    u = 2 * (p * p - p - mpmath.mpf(1) / 16)
    den = mpmath.cospi(2 * p)
    if den == 0:
        return mpmath.sinpi(u) * (2 * p - 1) / mpmath.sinpi(2 * p)
    return mpmath.cospi(u) / den


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _block_columns(ts):
    """(Z, theta, bound) at at most _Z_BLOCK heights: _z_block's Z and
    theta, and _z_bound's bound."""
    return (*rzs._zkernels._z_block(ts), rzs._zkernels._z_bound(ts))


def _assert_blocks_give_the_bits_of(ts, small):
    """_z_values and _z_bound at ts, a batch of more than one _Z_BLOCK, and
    the theta of _z_block on each of its _Z_BLOCK slices, bit-equal to the
    (Z, theta, bound) batches small, from _block_columns, concatenated."""
    block = rzs._zkernels._Z_BLOCK
    assert ts.size > block
    theta = np.concatenate([rzs._zkernels._z_block(ts[i:i + block])[1]
                            for i in range(0, ts.size, block)])
    got = (rzs._zkernels._z_values(ts), theta, rzs._zkernels._z_bound(ts))
    for column, parts in zip(got, zip(*small), strict=True):
        assert _bits(column) == _bits(np.concatenate(parts))


class TestPsiSeries:
    """The Chebyshev series behind the Riemann-Siegel correction terms, in
    y = 2x^2 - 1, x = 2p - 1: Psi's is committed, and C1 = -Psi'''/(96
    pi^2), x times a series in y, is derived from it at import."""

    P = np.linspace(0.0, 1.0, 201)

    @staticmethod
    def _terms(p):
        # Psi and Psi''' as _z_values sums them.
        kernels = rzs._zkernels
        x = 2.0 * p - 1.0
        y = 2.0 * x * x - 1.0
        c1 = x * kernels._chebyshev(kernels._C1, y)
        return kernels._chebyshev(kernels._PSI, y), -96.0 * math.pi ** 2 * c1

    def test_psi_and_third_derivative_match_mpmath(self):
        with mpmath.workdps(40):
            psi = [float(_psi_mp(mpmath.mpf(p))) for p in self.P.tolist()]
            psi3 = [float(mpmath.diff(_psi_mp, mpmath.mpf(p), 3))
                    for p in self.P.tolist()]
        got, got3 = self._terms(self.P)
        # Measured: 4.9e-15 and 1.7e-8 (the rounding noise of _PSI's
        # coefficients, amplified by the third derivative).
        assert np.abs(got - psi).max() <= 1.0e-14
        assert np.abs(got3 - psi3).max() <= 3.0e-8

    def test_parity_about_one_half_is_exact(self):
        # On dyadic p, x = 2p - 1 and the x of 1 - p are exact negatives
        # and share y, so Psi(p) = Psi(1 - p) and Psi'''(p) = -Psi'''(1 - p)
        # hold bit for bit, with Psi'''(1/2) = 0.
        p = np.arange(1025) / 1024.0
        psi, psi3 = self._terms(p)
        assert _bits(psi) == _bits(psi[::-1])
        assert _bits(psi3[:512]) == _bits(-psi3[:512:-1])
        assert psi3[512] == 0.0

    def test_clenshaw_helper_is_bit_equal_to_chebval(self):
        from numpy.polynomial import chebyshev

        y = np.random.default_rng(1859).uniform(-1.0, 1.0, 1000)
        kernels = rzs._zkernels
        for coef in (kernels._PSI, kernels._C1):
            assert np.array_equal(kernels._chebyshev(coef, y),
                                  chebyshev.chebval(y, coef))

    def test_third_derivative_is_chebder_of_psi(self):
        # _PSI with its odd coefficients as zeros is Psi's series in x;
        # chebder's third derivative of it, summed in x, agrees with the
        # folded series to 6 ulps of max |Psi'''| ~ 29 (measured).
        from numpy.polynomial import chebyshev

        in_x = [v for c in rzs._zkernels._PSI for v in (c, 0.0)][:-1]
        x = 2.0 * self.P - 1.0
        expected = chebyshev.chebval(x, chebyshev.chebder(in_x, 3, scl=2.0))
        assert np.abs(self._terms(self.P)[1] - expected).max() <= 8 * math.ulp(29.0)

    def test_derivative_is_exact_on_integer_series(self):
        # d/dp T_k(2p - 1) = 4k sum' T_j over j < k with k - j odd, the
        # j = 0 term halved: summed in Fractions, independently of the
        # kernel's recurrence.  Every intermediate of the recurrence on an
        # integer series is an exact double, so it gives the exact values.
        def exact(coef):
            return [sum(Fraction(4 * k * c, 2 if j == 0 else 1)
                        for k, c in enumerate(coef) if k > j and (k - j) % 2)
                    for j in range(len(coef) - 1)]

        rng = np.random.default_rng(1859)
        coef = tuple(float(v) for v in rng.integers(-1000, 1001, 25))
        expected = [Fraction(c) for c in coef]
        for m in (1, 2, 3):
            expected = exact(expected)
            got = rzs._zkernels._derivative(coef, m)
            assert [Fraction(v) for v in got] == expected, m

    def test_derivative_agrees_with_chebder(self):
        # Within 4 ulps of each coefficient of numpy's chebder (measured
        # <= 2), which orders its operations differently.
        from numpy.polynomial import chebyshev

        rng = np.random.default_rng(1859)
        coef = tuple((rng.standard_normal(25) * np.logspace(0.0, -15.0, 25)).tolist())
        for m in (1, 2, 3):
            expected = chebyshev.chebder(coef, m, scl=2.0)
            got = np.array(rzs._zkernels._derivative(coef, m))
            assert got.shape == expected.shape, m
            assert np.all(np.abs(got - expected) <= 4 * np.spacing(np.abs(expected))), m

    def test_psi_is_the_only_committed_table(self):
        # Every other series of the kernels is derived from _PSI or from
        # an exact table, so _PSI is the one module-level tuple of float
        # literals in _zkernels.py.
        def is_float(node):
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                node = node.operand
            return isinstance(node, ast.Constant) and isinstance(node.value, float)

        path = pathlib.Path(rzs._zkernels.__file__)
        tree = ast.parse(path.read_text(), str(path))
        tables = [ast.unparse(target) for node in tree.body
                  if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                  and all(map(is_float, node.value.elts)) for target in node.targets]
        assert tables == ["_PSI"]
        assert len(rzs._zkernels._PSI) == 12
        assert len(rzs._zkernels._C1) == 10

    def test_coefficients_are_the_truncated_interpolant(self):
        # Bit-equal on the host that wrote them; np.cos may round
        # differently elsewhere.  The coefficients the series drops, the
        # odd ones that Psi(p) = Psi(1 - p) makes 0 and degree 24, are the
        # interpolation's rounding noise.
        from numpy.polynomial import chebyshev

        psi = chebyshev.Chebyshev.interpolate(
            lambda p: np.cos(TWO_PI * (p * p - p - 0.0625)) / np.cos(TWO_PI * p),
            64, domain=[0.0, 1.0],
        ).truncate(25).coef
        assert np.abs(psi[0:23:2] - rzs._zkernels._PSI).max() <= 1.0e-15
        assert np.abs(psi[1::2]).max() <= 1.5e-15
        assert abs(psi[24]) <= 1.5e-15


class TestEulerMaclaurinKernel:
    def test_shuffled_batch_agrees_with_single_heights(self):
        # Every height below the crossover takes the same truncation N,
        # so a batch value is bit-equal to its single-height value, and
        # the reported bound is proven: each value lies within it of
        # mpmath's Z at 30 digits.
        rng = np.random.default_rng(1737)
        ts = rng.permutation(np.concatenate((rng.uniform(0.0, 30.0, 300), [29.999])))
        vals, _, errs = _block_columns(ts)
        with mpmath.workdps(30):
            exact = [mpmath.siegelz(t) for t in ts.tolist()]
        for t, value, err, ref in zip(ts, vals, errs, exact):
            single = z_function(float(t), 1.0e-9)
            assert single.method == "euler_maclaurin"
            assert value == single.z_value and err == single.est_abs_error, t
            assert abs(mpmath.mpf(float(value)) - ref) <= err, t

    def test_bound_is_the_first_omitted_term_to_one_ulp(self):
        # Below the crossover the bound is |B_18/18!| N^{-17.5}/17.5 times
        # prod_{j=0}^{17} |s + j|, s = 1/2 + it and N = 46, plus the 1e-13
        # rounding floor: each value within 1 ulp of that sum at 30 digits.
        rng = np.random.default_rng(1859)
        ts = np.concatenate(([0.0, 29.999], rng.uniform(0.0, 30.0, 200)))
        bound = rzs._zkernels._z_bound(ts)
        with mpmath.workdps(30):
            coef = abs(mpmath.bernoulli(18)) / mpmath.factorial(18) / 17.5
            for t, value in zip(ts.tolist(), bound.tolist()):
                s = mpmath.mpc(0.5, t)
                terms = mpmath.fprod(abs(s + j) for j in range(18))
                exact = float(coef * mpmath.mpf(46) ** -17.5 * terms + 1.0e-13)
                assert abs(value - exact) <= np.spacing(exact), t


class TestBernoulliTable:
    """_BERNOULLI is the one source of the kernels' Bernoulli numbers."""

    kernels = rzs._zkernels

    @staticmethod
    def theta_coef(k):
        # (2^(2k-1) - 1) |B_2k| / (2k (2k-1) 4^k), the t^(1-2k) coefficient
        # of theta's asymptotic series (Edwards, 1974, 6.5), exact.
        b = abs(Fraction(*mpmath.bernfrac(2 * k)))
        return (2 ** (2 * k - 1) - 1) * b / (2 * k * (2 * k - 1) * 4 ** k)

    def test_entries_are_the_exact_bernoulli_numbers(self):
        table = self.kernels._BERNOULLI
        assert table == tuple(mpmath.bernfrac(2 * k) for k in range(1, 10))
        assert self.kernels._BERN2K == tuple(float(Fraction(*b)) for b in table[:8])

    def test_theta_series_entries_are_their_rationals_rounded_once(self):
        coefs = [self.theta_coef(k) for k in range(1, 6)]
        assert coefs == [Fraction(1, 48), Fraction(7, 5760), Fraction(31, 80640),
                         Fraction(127, 430080), Fraction(511, 1216512)]
        assert self.kernels._THETA_SERIES == tuple(float(c) for c in coefs)

    def test_em_coefficients_and_the_bound_term(self):
        coefs = self.kernels._EM_COEF
        assert len(coefs) == 9
        assert coefs[-1] == float(Fraction(43867, 798) / math.factorial(18))
        # Each is the float B_2k divided by (2k)!, two roundings.
        for k, c in enumerate(coefs, start=1):
            exact = Fraction(*mpmath.bernfrac(2 * k)) / math.factorial(2 * k)
            assert abs(Fraction(c) - exact) <= 2.0 ** -52 * abs(exact), k

    def test_first_omitted_theta_term_at_the_series_switch(self):
        # At THETA_SERIES_T the first omitted term, k = 6, is <= 1e-14.
        # The series also lacks a term e^{-pi t}/2, so five terms of it in
        # exact arithmetic are 2.13e-14 off theta there (mpmath).
        t = self.kernels.THETA_SERIES_T
        assert float(self.theta_coef(6)) * t ** -11 <= 1.0e-14
        with mpmath.workdps(40):
            tm = mpmath.mpf(t)
            series = tm / 2 * (mpmath.log(tm / (2 * mpmath.pi)) - 1) - mpmath.pi / 8
            for k in range(1, 6):
                c = self.theta_coef(k)
                series += mpmath.mpf(c.numerator) / c.denominator * tm ** (1 - 2 * k)
            error = mpmath.siegeltheta(tm) - series
            assert 0.0 < error <= 2.2e-14
            c6 = self.theta_coef(6)
            rest = error - mpmath.mpf(c6.numerator) / c6.denominator * tm ** -11
            assert abs(rest - mpmath.exp(-mpmath.pi * tm) / 2) <= 1.0e-15


# ----------------------------------------------------------------------
# count_zeros
# ----------------------------------------------------------------------

class TestCountZeros:
    def test_main_term_at_two_pi(self):
        est = count_zeros(TWO_PI)
        assert est.n_main == -1.0

    def test_density_at_two_pi_e(self):
        est = count_zeros(TWO_PI * math.e)
        assert est.density == pytest.approx(1.0 / TWO_PI, rel=1.0e-15)

    def test_total_is_main_plus_correction(self):
        for t in (10.0, 100.0, 5000.0):
            est = count_zeros(t)
            assert est.n_estimate == est.n_main + est.n_correction

    def test_correction_is_seven_eighths(self):
        assert count_zeros(100.0).n_correction == 7.0 / 8.0

    def test_estimate_monotone_and_density_nonnegative(self):
        grid = np.linspace(TWO_PI, 1.0e4, 400)
        estimates = [count_zeros(float(t)) for t in grid]
        totals = [e.n_estimate for e in estimates]
        assert all(b >= a for a, b in zip(totals, totals[1:]))
        assert all(e.density >= 0.0 for e in estimates)

    def test_fields_match_mpmath(self):
        # Seeded log-uniform heights from just above 2pi (where u ln u - u
        # cancels to -1) to 1e300, and the band where u ln u overflows
        # though u (ln u - 1) does not: from its first height to the last
        # height whose count is a finite double.  Errors are measured in
        # ulps of the size of the terms: max(|u ln u|, u, 1) for the
        # counts, max(|ln u|, 1)/2pi for the density (measured: 1.80 and
        # 1.29).
        rng = np.random.default_rng(1914)
        lo, hi = math.log(TWO_PI * (1.0 + 1.0e-7)), math.log(1.0e300)
        heights = [*np.exp(rng.uniform(lo, hi, 500)).tolist(), TWO_PI * math.e, 10.0,
                   1.0e4, 1.6062009223274123e306, 1.6064e306, 1.6084849632182114e306]
        with mpmath.workdps(40):
            for t in heights:
                est = count_zeros(t)
                u = mpmath.mpf(t) / (2 * mpmath.pi)
                log_u = mpmath.log(u)
                n_main = u * log_u - u
                n_estimate = n_main + mpmath.mpf(7) / 8
                count_ulp = math.ulp(float(max(abs(u * log_u), u, 1)))
                density_ulp = math.ulp(float(max(abs(log_u), 1) / (2 * mpmath.pi)))
                assert abs(est.n_main - n_main) <= 4 * count_ulp, t
                assert abs(est.n_estimate - n_estimate) <= 4 * count_ulp, t
                assert abs(est.density - log_u / (2 * mpmath.pi)) <= 4 * density_ulp, t

    def test_estimate_matches_scan_at_100(self):
        table = scan_zeros(0.0, 100.0, 1.0e-8)
        assert len(table.gamma) == 29
        assert abs(count_zeros(100.0).n_estimate - 29) <= 1.0

    def test_rejects_bad_heights(self):
        for bad in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                count_zeros(bad)

    def test_rejects_heights_whose_count_overflows(self):
        with pytest.raises(DomainError, match="overflowed"):
            count_zeros(1.0e307)

    def test_rejects_heights_with_subnormal_ratio(self):
        # t/2pi below the smallest normal double: at 5e-324 it is 0 and
        # math.log(0) used to fail with a bare ValueError.
        for bad in (5.0e-324, 1.0e-310, math.tau * 1.0e-308):
            with pytest.raises(DomainError, match="normal"):
                count_zeros(bad)
        assert math.isfinite(count_zeros(math.tau * 2.3e-308).density)


# ----------------------------------------------------------------------
# gamma_asymptotic
# ----------------------------------------------------------------------

class TestGammaAsymptotic:
    def test_formula_at_17(self):
        value = gamma_asymptotic(17)
        assert value == pytest.approx(TWO_PI * 17 / math.log(17 / TWO_PI),
                                      rel=1.0e-15)
        assert 106.0 < value < 108.0

    def test_value_at_100(self):
        value = gamma_asymptotic(100)
        assert value == pytest.approx(TWO_PI * 100 / math.log(100 / TWO_PI),
                                      rel=1.0e-15)
        assert value == pytest.approx(227.05, abs=0.05)

    def test_smallest_legal_index(self):
        value = gamma_asymptotic(7)
        assert math.isfinite(value) and value > 0.0

    def test_rejects_small_and_non_integer(self):
        for bad in (6, 0, -3):
            with pytest.raises(DomainError):
                gamma_asymptotic(bad)
        with pytest.raises(DomainError):
            gamma_asymptotic(7.5)
        with pytest.raises(DomainError):
            gamma_asymptotic(True)

    def test_rejects_index_without_float_form(self):
        with pytest.raises(DomainError, match="float"):
            gamma_asymptotic(10**400)

    def test_matches_mpmath_at_every_compare_row(self):
        # n = 7 .. 10,142, every index rzs compare reports below t = 1e4.
        worst = 0.0
        with mpmath.workdps(30):
            for n in range(7, 10143):
                exact = 2 * mpmath.pi * n / mpmath.log(n / (2 * mpmath.pi))
                worst = max(worst, abs(gamma_asymptotic(n) / exact - 1))
        assert worst <= 1.4e-15

    def test_finite_where_two_pi_n_overflows(self):
        # 2 pi n overflows above n ~ 2.9e307; the quotient does not.
        n = 10**308
        with mpmath.workdps(30):
            exact = float(2 * mpmath.pi * n / mpmath.log(n / (2 * mpmath.pi)))
        assert gamma_asymptotic(n) == pytest.approx(exact, rel=1.0e-14)


# ----------------------------------------------------------------------
# scan_zeros
# ----------------------------------------------------------------------

class TestGramPoints:
    # theta(g_n) ~ 3e4 near g_n = 1e4, where one ulp of theta moves g_n by
    # about 1e-12: above g_n ~ 3000 a double-precision theta pins g_n only
    # to a few ulps of g_n, 3.6e-12 at most below 1e4.
    @pytest.mark.parametrize("n", [-1, 0, 1, 10, 100, 1000, 5000, 10141])
    def test_matches_mpmath_at_fixed_indices(self, n):
        g = float(rzs._zkernels._gram_points([n])[0])
        with mpmath.workdps(30):
            assert abs(g - float(mpmath.grampoint(n))) <= 1.0e-12

    def test_matches_mpmath_at_seeded_indices(self):
        ns = np.random.default_rng(2024).integers(-1, 10150, 40)
        gs = rzs._zkernels._gram_points(ns)
        for n, g in zip(ns.tolist(), gs.tolist()):
            with mpmath.workdps(30):
                ref = float(mpmath.grampoint(n))
            assert abs(g - ref) <= max(1.0e-12, 3.0 * np.spacing(ref)), n

    def test_at_most_two_consecutive_bad_gram_points(self):
        # The scan evaluates Z on g_-1 .. g_{N(t_max)+7} in one batch and
        # needs a good Gram point ((-1)^n Z(g_n) > 0) at or past t_max
        # among them: below 1e4 no three consecutive Gram points are bad.
        # Its block labels count good Gram points from g_-1, which is good
        # as Z < 0 below the first zero.
        ns = np.arange(-1, 10160)
        zs = rzs._zkernels._z_values(rzs._zkernels._gram_points(ns))
        assert zs[0] < 0.0
        bad = np.where(ns % 2 == 0, zs, -zs) <= 0.0
        assert bad.sum() == 841
        assert (bad[:-1] & bad[1:]).any()
        assert not (bad[:-2] & bad[1:-1] & bad[2:]).any()

    def test_theta_residual_over_the_supported_range(self):
        ns = np.arange(-1, 10150)
        gs = rzs._zkernels._gram_points(ns)
        residual = np.abs(rzs._zkernels._theta_vec(gs) - math.pi * ns)
        assert residual.max() <= 1.0e-11
        assert np.all(np.diff(gs) > 0.0)


class TestScanZeros:
    def test_first_zero(self):
        table = scan_zeros(0.0, 15.0, 1.0e-8)
        assert table.n_first == 1
        ((gamma, lo, hi),) = zip(table.gamma, table.bracket_lo, table.bracket_hi)
        assert gamma == pytest.approx(14.134725, abs=1.0e-6)
        assert hi - lo <= 1.0e-8
        assert lo < gamma < hi
        assert table.refined_tol == 1.0e-8

    def test_zeros_property_gives_the_rows_as_records(self):
        table = scan_zeros(20.0, 30.0, 1.0e-8)
        assert table.zeros == (
            ZeroEntry(2, table.gamma[0], table.bracket_lo[0],
                      table.bracket_hi[0], 1.0e-8),
            ZeroEntry(3, table.gamma[1], table.bracket_lo[1],
                      table.bracket_hi[1], 1.0e-8),
        )
        assert scan_zeros(1.0, 5.0, 1.0e-8).zeros == ()
        # The rows hold Python floats, not numpy scalars.
        assert {type(v) for row in table.zeros for v in row[1:]} == {float}

    def test_tables_compare_and_hash_by_the_bits_of_their_columns(self):
        table, again = scan_zeros(0.0, 100.0, 1.0e-8), scan_zeros(0.0, 100.0, 1.0e-8)
        assert table == again and not table != again
        assert hash(table) == hash(again)
        for field in ("gamma", "bracket_lo", "bracket_hi"):
            column = getattr(table, field).copy()
            column.view(np.uint64)[17] ^= 1  # the last bit of one value
            changed = table._replace(**{field: column})
            assert changed != table and not changed == table
        assert table != table._replace(t_max=101.0)
        assert table != tuple(table) and not tuple(table) == table

    def test_columns_are_read_only_float64_arrays(self):
        table = scan_zeros(0.0, 100.0, 1.0e-8)
        for column in (table.gamma, table.bracket_lo, table.bracket_hi):
            assert column.dtype == np.float64 and column.shape == (29,)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0

    def test_empty_interval(self):
        table = scan_zeros(1.0, 5.0, 1.0e-8)
        assert len(table.gamma) == len(table.bracket_lo) == len(table.bracket_hi) == 0
        assert table.t_max == 5.0

    def test_completeness_against_counting_formula(self):
        for t_max in (50.0, 100.0, 250.0, 500.0):
            table = scan_zeros(0.0, t_max, 1.0e-8)
            expected = round(count_zeros(t_max).n_estimate)
            assert abs(len(table.gamma) - expected) <= 1

    def test_bracket_soundness(self, table_500):
        for lo, hi in zip(table_500.bracket_lo, table_500.bracket_hi):
            z_lo = z_function(lo, 1.0).z_value
            z_hi = z_function(hi, 1.0).z_value
            assert z_lo * z_hi < 0.0

    def test_indices_strictly_increasing(self, table_500):
        gammas = table_500.gamma
        assert all(b > a for a, b in zip(gammas, gammas[1:]))
        assert table_500.n_first == 1

    def test_matches_brute_force_fine_grid_scan(self):
        # Reference: sign changes of Z on a uniform grid of stride 1/64
        # over (0, 250], each bisected to width <= 1e-8; no Gram points.
        z = rzs._zkernels._z_values
        ts = np.arange(1, 250 * 64 + 1) / 64.0
        vals = z(ts)
        cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        lo, hi, z_lo = ts[cells], ts[cells + 1], vals[cells]
        while (hi - lo).max() > 1.0e-8:
            mid = 0.5 * (lo + hi)
            z_mid = z(mid)
            left = z_lo * z_mid < 0.0
            hi = np.where(left, mid, hi)
            z_lo = np.where(left, z_lo, z_mid)
            lo = np.where(left, lo, mid)
        reference = 0.5 * (lo + hi)

        table = scan_zeros(0.0, 250.0, 1.0e-8)
        assert table.n_first == 1
        assert len(table.gamma) == len(reference)
        assert np.abs(np.array(table.gamma) - reference).max() <= 1.0e-8

    def test_window_keeps_global_indices(self):
        table = scan_zeros(20.0, 30.0, 1.0e-8)
        assert table.n_first == 2
        assert table.gamma == pytest.approx((21.022040, 25.010858), abs=1.0e-5)

    def test_determinism(self):
        a = scan_zeros(0.0, 100.0, 1.0e-8)
        b = scan_zeros(0.0, 100.0, 1.0e-8)
        assert a == b

    def test_unresolvable_gram_block_raises_audit_error(self, monkeypatch):
        # Gram points g_0 = 17.846, g_1 = 23.170 and g_2 = 27.670 are all
        # good.  Reporting |Z| on (18, 27), which holds the zeros at 21.02
        # and 25.01 and the Gram point g_1, makes g_1 bad and leaves the
        # block g_0..g_2 with no sign change for its 2 Gram intervals.
        real = rzs._zkernels._z_values

        def one_signed(ts):
            ts = np.asarray(ts, dtype=float)
            vals = real(ts)
            inside = (ts > 18.0) & (ts < 27.0)
            return np.where(inside, np.abs(vals), vals)

        monkeypatch.setattr(rzs._zkernels, "_z_values", one_signed)
        with pytest.raises(AuditError, match=(
                r"Gram block g_0\.\.g_2 \(t in \[17\.845600, 27\.670182\]\) "
                r"shows 0 sign changes for 2 Gram intervals ")):
            scan_zeros(0.0, 50.0, 1.0e-8)

    def test_no_good_gram_point_past_t_max_raises_audit_error(self, monkeypatch):
        # Flip Z so that every Gram point above 40 is bad: the one batch
        # of Gram points holds no good one at or past t_max = 50.
        real = rzs._zkernels._z_values

        def all_bad_above_40(ts):
            ts = np.asarray(ts, dtype=float)
            vals = real(ts)
            n = np.rint(rzs._zkernels._theta_vec(ts) / math.pi)
            parity = np.where(n % 2 == 0, 1.0, -1.0)
            return np.where(ts > 40.0, -parity * np.abs(vals), vals)

        monkeypatch.setattr(rzs._zkernels, "_z_values", all_bad_above_40)
        with pytest.raises(AuditError, match=r"no good Gram point .* t_max = 50"):
            scan_zeros(0.0, 50.0, 1.0e-8)

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_non_negative_z_at_g_minus_1_raises_audit_error(
            self, monkeypatch, value):
        # The scan counts zeros from g_-1 ~ 9.67 on, its only node below
        # 10, as Z < 0 below 14.13.  A Z that is 0.0 or positive there
        # makes g_-1 bad and would drop gamma_1 from the count unnoticed.
        real = rzs._zkernels._z_values

        def wrong_at_g_minus_1(ts):
            ts = np.asarray(ts, dtype=float)
            return np.where(ts < 10.0, value, real(ts))

        monkeypatch.setattr(rzs._zkernels, "_z_values", wrong_at_g_minus_1)
        with pytest.raises(AuditError, match=r"Z\(g_-1\) = .* t = 9\.66"):
            scan_zeros(0.0, 50.0, 1.0e-8)

    def test_exact_zero_at_refinement_point_keeps_strict_signs(self, monkeypatch):
        # Report Z = 0.0 exactly at the first refinement point less than
        # 1e-3 above gamma_1.  Stored as the new lower end, that point
        # would push the bracket past the zero; as Z >= 0 there, it is
        # the new upper end instead, and the bracket keeps a strict sign
        # change of the true Z at both ends.
        real = rzs._zkernels._z_values
        gamma_1 = _reference_zeros()[0]
        zeroed = []

        def one_exact_zero(ts):
            ts = np.asarray(ts, dtype=float)
            if not zeroed and ts.size == 1 and 0.0 < ts[0] - gamma_1 < 1.0e-3:
                zeroed.append(float(ts[0]))
                return np.zeros_like(ts)
            return real(ts)

        monkeypatch.setattr(rzs._zkernels, "_z_values", one_exact_zero)
        table = scan_zeros(0.0, 15.0, 1.0e-8)
        monkeypatch.undo()
        assert len(zeroed) == 1
        ((gamma, lo, hi),) = zip(table.gamma, table.bracket_lo, table.bracket_hi)
        assert abs(gamma - gamma_1) <= 1.0e-8
        assert hi - lo <= 1.0e-8
        z_ends = real(np.array([lo, hi]))
        assert z_ends[0] * z_ends[1] < 0.0

    @pytest.mark.parametrize("factor", [2.0 ** -600, 2.0 ** 600])
    def test_scaled_z_gives_the_same_table(self, monkeypatch, factor):
        # The scan decides signs by Z < 0 only, so Z times a power of two
        # gives the same table, and no product of two Z values underflows
        # or overflows on the way.
        real = rzs._zkernels._z_values
        expected = scan_zeros(0.0, 1000.0, 1.0e-8)

        def scaled(ts):
            return real(ts) * factor

        monkeypatch.setattr(rzs._zkernels, "_z_values", scaled)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert scan_zeros(0.0, 1000.0, 1.0e-8) == expected

    @pytest.mark.parametrize("z, zeros", [
        (lambda ts: ts - 14.0, (14.0,)),
        (lambda ts: -(ts - 12.0) * (ts - 14.0), (12.0, 14.0)),
    ], ids=["rising", "falling"])
    def test_exact_zero_at_a_grid_node_closes_its_bracket(
            self, monkeypatch, z, zeros):
        # Z is 0.0 at the node t_max = 14.  Rising there, Z >= 0 makes the
        # node end the bracket of the sign change, between the good Gram
        # points g_-1 ~ 9.67 and g_0 ~ 17.85.  Falling there, g_0 is bad,
        # the block g_-1..g_1 holds the zeros 12 and 14, and the sign
        # change at 14 lies in the gap after t_max, which the scan keeps.
        def exact(ts):
            ts = np.asarray(ts, dtype=float)
            return z(ts)

        monkeypatch.setattr(rzs._zkernels, "_z_values", exact)
        with np.errstate(all="raise"):
            table = scan_zeros(0.0, 14.0, 1.0e-8)
        assert len(table.gamma) == len(zeros)
        for zero, lo, hi in zip(zeros, table.bracket_lo, table.bracket_hi):
            assert lo <= zero <= hi
            assert hi - lo <= 1.0e-8

    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_exact_zero_at_a_refinement_point_closes_its_bracket(
            self, monkeypatch, slope):
        # On [8, 16] the regula falsi point of Z = slope * (t - 12) is the
        # root 12 exactly, where Z = 0.0 counts as Z >= 0.
        points = []

        def linear(ts):
            ts = np.asarray(ts, dtype=float)
            points.extend(ts.tolist())
            return slope * (ts - 12.0)

        monkeypatch.setattr(rzs._zkernels, "_z_values", linear)
        with np.errstate(all="raise"):
            lo, hi = rzs._zkernels._refine_brackets(
                np.array([8.0]), np.array([16.0]),
                np.array([-4.0 * slope]), np.array([4.0 * slope]), 1.0e-8)
        assert points[0] == 12.0
        assert lo[0] <= 12.0 <= hi[0]
        assert hi[0] - lo[0] <= 1.0e-8

    def test_replaced_exact_zero_end_gives_no_division(self, monkeypatch):
        # Z = (t - 10)(t - 12)^2 on [8, 12] has Z = 0.0 at the upper end,
        # and Z > 0 just below it, so the first step replaces that end
        # while the scale 1 - Z(x)/Z(replaced end) would divide by 0.0.
        def touching(ts):
            ts = np.asarray(ts, dtype=float)
            return (ts - 10.0) * (ts - 12.0) ** 2

        monkeypatch.setattr(rzs._zkernels, "_z_values", touching)
        with np.errstate(all="raise"):
            lo, hi = rzs._zkernels._refine_brackets(
                np.array([8.0]), np.array([12.0]),
                np.array([-32.0]), np.array([0.0]), 1.0e-8)
        assert lo[0] <= 10.0 <= hi[0]
        assert hi[0] - lo[0] <= 1.0e-8

    @pytest.mark.parametrize("t_max, count", [(1339.03, 931), (1420.65, 1001)])
    def test_close_pair_heights_give_exact_counts(self, t_max, count):
        # mpmath counts at heights just above a close pair of zeros,
        # which a scan on a uniform grid easily drops.
        table = scan_zeros(0.0, t_max, 1.0e-8)
        assert table.n_first == 1
        assert len(table.gamma) == count

    @settings(max_examples=40, deadline=None, database=None)
    @given(t_max=st.floats(min_value=100.0, max_value=3000.0))
    def test_count_matches_mpmath_reference(self, t_max):
        expected = bisect.bisect_right(_reference_zeros(), t_max)
        assert len(scan_zeros(0.0, t_max, 1.0e-8).gamma) == expected

    @pytest.mark.xfail(
        strict=True,
        reason="gamma_20 = 77.1448400689 lies just above t_max, where the "
               "computed Z is -1.18e-4 against mpmath's +1.09e-4, inside the "
               "8.7e-4 bound, so the scan counts it: 20 zeros for 19 until a "
               "count treats |Z(t_max)| <= err as unknown (ROADMAP item 2) "
               "or certifies its windows (ROADMAP item 1b)",
    )
    def test_count_matches_mpmath_within_the_bound_of_a_zero(self):
        t_max = 77.14476515622218
        expected = bisect.bisect_right(_reference_zeros(), t_max)
        assert expected == 19
        assert len(scan_zeros(0.0, t_max, 1.0e-8).gamma) == expected

    def test_deep_scan_brackets(self):
        # Its cost, 75,508 Z evaluations in 19 batched calls, is pinned by
        # tests/test_ab.py::test_work_counters_of_the_deep_scan.
        table = scan_zeros(0.0, 1.0e4, 1.0e-8)
        assert len(table.gamma) == 10142
        lo = np.array(table.bracket_lo)
        hi = np.array(table.bracket_hi)
        gamma = np.array(table.gamma)
        assert np.all((lo < gamma) & (gamma < hi))
        assert np.all(hi - lo <= 1.0e-8)
        z = rzs._zkernels._z_values
        assert np.all(z(lo) * z(hi) < 0.0)

    def test_non_finite_guess_falls_back_to_midpoint(self, monkeypatch):
        # Z near the largest double makes w_lo * (b - a) overflow, so the
        # regula falsi guess is inf/inf = nan until the bracket is small.
        root = 20.0 + math.pi / 10.0

        def huge(ts):
            ts = np.asarray(ts, dtype=float)
            return 1.0e308 * np.tanh(ts - root)

        monkeypatch.setattr(rzs._zkernels, "_z_values", huge)
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = rzs._zkernels._refine_brackets(
                np.array([10.0]), np.array([40.0]),
                np.array([-1.0e308]), np.array([1.0e308]), 1.0e-8)
        assert lo[0] < root < hi[0]
        assert hi[0] - lo[0] <= 1.0e-8

    def test_scan_below_two_pi_is_empty(self):
        # t_max/2pi may be subnormal; the scan still covers (0, t_max].
        for t_max in (1.0e-310, 1.0, 6.0):
            assert len(scan_zeros(0.0, t_max, 1.0e-8).gamma) == 0

    def test_rejects_bad_ranges_and_tolerances(self):
        with pytest.raises(DomainError):
            scan_zeros(-1.0, 10.0, 1.0e-8)
        with pytest.raises(DomainError):
            scan_zeros(10.0, 10.0, 1.0e-8)
        with pytest.raises(DomainError):
            scan_zeros(0.0, 10.0, 0.0)
        with pytest.raises(PrecisionError):
            scan_zeros(0.0, 10.0, 1.0e-9)
        with pytest.raises(PrecisionError):
            scan_zeros(0.0, 2.0e4, 1.0e-8)


# ----------------------------------------------------------------------
# Asymptote sanity across the full scan
# ----------------------------------------------------------------------

class TestAsymptoteSanity:
    @pytest.mark.xfail(
        strict=True,
        reason="documented band gamma_n/gamma_asymptotic(n) in [0.8, 1.2] "
               "from n = 10 does not hold at small n: the measured ratio "
               "drops to 0.368 at n = 10 and stays outside through n = 25",
    )
    def test_ratio_within_band_from_10(self, full_table):
        for n in range(10, 5001):
            ratio = full_table.gamma[n - 1] / gamma_asymptotic(n)
            assert 0.8 <= ratio <= 1.2

    def test_ratio_within_band_from_26(self, full_table):
        ratios = [full_table.gamma[n - 1] / gamma_asymptotic(n)
                  for n in range(26, 5001)]
        assert 0.8 <= min(ratios) and max(ratios) <= 1.2


# ----------------------------------------------------------------------
# CSV serialization
# ----------------------------------------------------------------------

class TestZeroTableCsv:
    def test_header_and_shape(self, table_500):
        text = zero_table_to_csv(table_500)
        lines = text.splitlines()
        assert lines[0] == "n,gamma,bracket_lo,bracket_hi"
        assert len(lines) == len(table_500.gamma) + 1
        assert text.endswith("\n")

    def test_numbers_round_trip_at_full_precision(self, table_500):
        text = zero_table_to_csv(table_500)
        first = text.splitlines()[1].split(",")
        assert int(first[0]) == table_500.n_first
        assert float(first[1]) == table_500.gamma[0]
        assert float(first[2]) == table_500.bracket_lo[0]
        assert float(first[3]) == table_500.bracket_hi[0]

    def test_blocks_match_per_row_formatting(self, full_table, report_2pi, tmp_path):
        # Every table rzs writes goes through one block formatter.  Each
        # text here spans several 1,024-row blocks and a partial one, and
        # is checked against per-row {:.17g} formatting.  The zero-table
        # window from 20 starts at zero 2.
        for table in (full_table, scan_zeros(20.0, 30.0, 1.0e-8)):
            rows = zip(range(table.n_first, table.n_first + len(table.gamma)),
                       table.gamma, table.bracket_lo, table.bracket_hi)
            expected = "n,gamma,bracket_lo,bracket_hi\n" + "".join(
                f"{n},{g:.17g},{lo:.17g},{hi:.17g}\n" for n, g, lo, hi in rows)
            assert zero_table_to_csv(table) == expected

        # The report's 4,994 rows as CSV and as the JSON rows array.
        rows = [f"{r.n},{r.gamma_n:.17g},{r.prediction:.17g},"
                f"{r.asym_prediction:.17g},{r.rel_dev:.17g}" for r in report_2pi.rows]
        assert len(rows) == 4994
        assert report_to_csv(report_2pi) == (
            "n,gamma,prediction,asym_prediction,rel_dev\n"
            + "".join(f"{row}\n" for row in rows))
        head, _, rest = report_to_json(report_2pi).partition('"rows":[')
        assert head == f'{{"m2":{report_2pi.m2:.17g},'
        assert rest.partition('],"summary"')[0] == "[" + "],[".join(rows) + "]"

        # A bubble grid whose first rows (t <= m2) have no asymptote.
        out = tmp_path / "bubble.csv"
        argv = ["bubble", "--t-min", "0.01", "--t-max", "1e6", "--points", "2500",
                "--out-path", str(out)]
        assert rzs.cli.main(argv) == 0
        samples = [correlator_sample(t, 1.0)
                   for t in rzs.cli._log_grid(0.01, 1.0e6, 2500)]
        expected = "t,pi,correlator,asymptote\n" + "".join(
            f"{s.t:.17g},{s.pi_value:.17g},{s.correlator:.17g},"
            f"{'nan' if s.asymptote is None else format(s.asymptote, '.17g')}\n"
            for s in samples)
        assert expected.count(",nan\n") == 625  # the rows with t < 1
        assert out.read_text() == expected

    def test_a_file_gets_the_returned_text_block_by_block(self, full_table):
        # Given a text file, zero_table_to_csv writes there the text it
        # would return, in writes of at most one 1,024-row block (< 100 KB
        # here), never the whole text (over 300 KB), and returns None.
        class Writes(list):
            write = list.append

        writes = Writes()
        assert zero_table_to_csv(full_table, file=writes) is None
        text = zero_table_to_csv(full_table)
        assert len(text) > 300_000
        assert max(map(len, writes)) < 100_000
        assert "".join(writes) == text

    def test_serialization_is_deterministic(self, table_500):
        assert zero_table_to_csv(table_500) == zero_table_to_csv(table_500)
