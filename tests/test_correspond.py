"""Tests for the zeros-vs-correlator report and its slope fit."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from rzs import (
    CorrespondenceReport,
    DomainError,
    InsufficientZerosError,
    ZeroTable,
    build_report,
    gamma_asymptotic,
    log_slope_fit,
    pi_closed,
    report_to_csv,
    report_to_json,
    scan_zeros,
)

TWO_PI = 2.0 * math.pi


def _synthetic_table(n_top: int) -> ZeroTable:
    """Zero table whose heights sit exactly on the asymptote for n >= 7.

    By construction gamma_n * ln(n/2pi) = 2*pi*n there, so a fit over
    these rows must recover the line exactly.  Heights for n <= 6 (the
    rows a report never uses) are dummy increasing values.
    """
    gammas = np.array([float(n) if n < 7 else gamma_asymptotic(n)
                       for n in range(1, n_top + 1)])
    return ZeroTable(
        n_first=1,
        gamma=gammas,
        bracket_lo=gammas - 1.0e-9,
        bracket_hi=gammas + 1.0e-9,
        refined_tol=1.0e-8,
        t_max=float(n_top),
    )


def _row(report: CorrespondenceReport, n: int):
    return report.rows[n - report.rows[0].n]


# ----------------------------------------------------------------------
# build_report
# ----------------------------------------------------------------------

class TestBuildReport:
    def test_rows_cover_7_through_n_max_in_order(self, report_2pi):
        ns = [r.n for r in report_2pi.rows]
        assert ns == list(range(7, 5001))
        assert all(r.n > 6 for r in report_2pi.rows)

    def test_rel_dev_nonnegative_and_defined(self, report_2pi):
        for row in report_2pi.rows:
            assert row.rel_dev >= 0.0
            assert row.rel_dev == abs(row.gamma_n - row.prediction) / row.gamma_n

    def test_row_100_matches_direct_evaluation(self, report_2pi):
        row = _row(report_2pi, 100)
        assert row.gamma_n == pytest.approx(236.5, abs=0.1)
        assert row.asym_prediction == pytest.approx(227.05, abs=0.05)
        # Deviation from the exact correlator is ~3.1%; against the
        # asymptote alone it is ~4.0%.
        assert 0.02 < row.rel_dev < 0.05
        assert row.rel_dev == pytest.approx(0.030896359, rel=1.0e-6)
        assert row.prediction == pytest.approx(243.83197517257128, rel=1.0e-9)
        asym_dev = abs(row.gamma_n - row.asym_prediction) / row.gamma_n
        assert asym_dev == pytest.approx(0.040049025, rel=1.0e-6)

    def test_prediction_is_reciprocal_bubble(self, report_2pi):
        m = math.sqrt(report_2pi.m2)
        for row in report_2pi.rows:
            product = row.prediction * pi_closed(math.sqrt(row.n), m)
            assert abs(product - 1.0) <= 1.0e-12

    def test_asym_prediction_shares_the_zeta_engine_formula(self, report_2pi):
        for row in report_2pi.rows:
            assert row.asym_prediction == gamma_asymptotic(row.n)

    def test_summary_max_is_row_maximum(self, report_2pi):
        assert report_2pi.summary.max_rel_dev == max(
            r.rel_dev for r in report_2pi.rows)
        assert report_2pi.summary.max_rel_dev == pytest.approx(
            1.2761164533848162, rel=1.0e-6)

    def test_summary_decade_means(self, report_2pi):
        decades = dict(report_2pi.summary.mean_rel_dev_per_decade)
        assert sorted(decades) == [0, 1, 2, 3]
        assert all(v > 0.0 for v in decades.values())
        # The deviation is not monotone at these depths: the decade of
        # n in [100, 999] sits closer to the correlator than the decade
        # of n in [1000, 5000].
        assert decades[2] < decades[3]
        assert decades[2] == pytest.approx(0.09034352823961678, rel=1.0e-6)
        assert decades[3] == pytest.approx(0.1306705736713281, rel=1.0e-6)

    @pytest.mark.parametrize("n_max", [10, 100, 1000])
    def test_decade_of_one_row_at_a_power_of_ten(self, full_table, n_max):
        # Rows start at n = 7, so n_max = 10^e opens decade e with its
        # last row, and the first decade holds n = 7, 8, 9.
        report = build_report(full_table, TWO_PI, n_max)
        decades = report.summary.mean_rel_dev_per_decade
        assert [e for e, _ in decades] == list(range(len(str(n_max))))
        assert decades[-1][1] == report.rows[-1].rel_dev
        assert decades[0][1] == sum(r.rel_dev for r in report.rows[:3]) / 3

    def test_determinism(self, full_table, report_2pi):
        again = build_report(full_table, TWO_PI, 5000)
        assert again == report_2pi
        assert report_to_json(again) == report_to_json(report_2pi)

    def test_insufficient_zeros(self):
        table = scan_zeros(0.0, 100.0, 1.0e-8)  # 29 zeros
        with pytest.raises(InsufficientZerosError):
            build_report(table, TWO_PI, 30)

    def test_rejects_bad_arguments(self, full_table):
        with pytest.raises(DomainError):
            build_report(full_table, 0.0, 100)
        with pytest.raises(DomainError):
            build_report(full_table, TWO_PI, 9)
        for n_max in (100.5, 100.0, math.nan, math.inf, True):
            with pytest.raises(DomainError, match="n_max must be an integer"):
                build_report(full_table, TWO_PI, n_max)

    def test_rejects_table_without_global_indexing(self, full_table):
        shifted = full_table._replace(
            n_first=2, gamma=full_table.gamma[1:],
            bracket_lo=full_table.bracket_lo[1:],
            bracket_hi=full_table.bracket_hi[1:],
        )
        with pytest.raises(DomainError):
            build_report(shifted, TWO_PI, 100)

    @pytest.mark.xfail(
        strict=True,
        reason="documented bound rel_dev <= 0.25 does not hold at small n: "
               "measured rel_dev exceeds it for 7 <= n <= 38, peaking at "
               "1.276 for n = 7",
    )
    def test_all_rows_within_quarter_relative_deviation(self, report_2pi):
        assert all(r.rel_dev <= 0.25 for r in report_2pi.rows)

    def test_rows_from_39_within_quarter_relative_deviation(self, report_2pi):
        bad = [r.n for r in report_2pi.rows if r.n >= 39 and r.rel_dev > 0.25]
        assert bad == []

    @pytest.mark.xfail(
        strict=True,
        reason="documented 1% prediction/asymptote agreement from n = 100 "
               "does not hold: measured disagreement stays above 1% through "
               "n = 1000 (1.0008% at n = 1000)",
    )
    def test_prediction_tracks_asymptote_within_1pct_from_100(self, report_2pi):
        for row in report_2pi.rows:
            if row.n >= 100:
                assert abs(row.prediction / row.asym_prediction - 1.0) <= 0.01

    def test_prediction_tracks_asymptote_within_1pct_from_1001(self, report_2pi):
        worst = max(
            abs(r.prediction / r.asym_prediction - 1.0)
            for r in report_2pi.rows if r.n >= 1001
        )
        assert worst <= 0.01


# ----------------------------------------------------------------------
# log_slope_fit
# ----------------------------------------------------------------------

class TestLogSlopeFit:
    def test_exact_line_recovered_from_synthetic_input(self):
        report = build_report(_synthetic_table(120), TWO_PI, 120)
        fit = log_slope_fit(report)
        assert fit.slope == pytest.approx(TWO_PI, rel=1.0e-9)
        assert fit.intercept == pytest.approx(0.0, abs=1.0e-6)
        assert fit.residual <= 1.0e-9

    def test_asymptotic_window_slope_near_two_pi(self, report_2pi):
        fit = log_slope_fit(report_2pi, n_min=1000, n_max=5000)
        assert abs(fit.slope / TWO_PI - 1.0) <= 0.25
        assert fit.slope == pytest.approx(7.298179777959852, rel=1.0e-6)

    @pytest.mark.parametrize("window", [(7, 5000), (100, 1000), (1000, 5000), None])
    def test_matches_exact_rational_least_squares(self, report_2pi, window):
        # Against the exact least-squares line of the same doubles, in
        # Fractions, over 7-5000, 100-1000, 1000-5000 and the synthetic
        # rows, the fit, with its means and centred sums by math.fsum,
        # measured: slope 0.22, 0.00, 0.84, 0.09 ulps off (numpy's
        # pairwise sums: 0.22, 1.00, 1.16, 0.09; np.polyfit's SVD solver:
        # 1.78, 4.00, 0.16, 1.91); intercept 0.02, 0.11, 0.81, 0.04 ulps of
        # mean(y), whose cancellation against slope*mean(x) dominates it;
        # residual 1.8e-15, 4.1e-16, 4.1e-15 relative and 1.2e-17 absolute
        # on the synthetic rows, whose exact residual is itself only
        # 8.5e-17.  Bounds: 1 ulp, 4 ulps of mean(y), and 1e-14 relative
        # or 1e-16 absolute.
        if window is None:
            report, lo, hi = build_report(_synthetic_table(120), TWO_PI, 120), 7, 120
        else:
            report, (lo, hi) = report_2pi, window
        rows = [r for r in report.rows if lo <= r.n <= hi]
        xs = [Fraction(r.n) for r in rows]
        ys = [Fraction(r.gamma_n * math.log(r.n / math.tau)) for r in rows]
        x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = (sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
                 / sum((x - x_mean) ** 2 for x in xs))
        intercept = y_mean - slope * x_mean
        misfit2 = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
        residual = math.sqrt(misfit2 / len(xs)) / float(y_mean)

        fit = log_slope_fit(report, n_min=lo, n_max=hi)
        assert abs(Fraction(fit.slope) - slope) <= math.ulp(float(slope))
        assert abs(Fraction(fit.intercept) - intercept) <= 4 * math.ulp(float(y_mean))
        assert fit.residual == pytest.approx(residual, rel=1.0e-14, abs=1.0e-16)

    def test_residual_improves_in_the_deeper_window(self, report_2pi):
        early = log_slope_fit(report_2pi, n_min=100, n_max=1000)
        late = log_slope_fit(report_2pi, n_min=1000, n_max=5000)
        assert late.residual < early.residual

    @pytest.mark.parametrize("bound", [math.nan, math.inf, 10.7, True])
    @pytest.mark.parametrize("side", ["n_min", "n_max"])
    def test_rejects_non_integer_window_bounds(self, report_2pi, side, bound):
        # nan, inf, a fraction and a bool all raise the one DomainError
        # that build_report gives a non-integer n_max.
        with pytest.raises(DomainError, match=f"{side} must be an integer"):
            log_slope_fit(report_2pi, **{side: bound})

    def test_minimum_row_count(self, report_2pi):
        with pytest.raises(DomainError):
            log_slope_fit(report_2pi, n_min=4990)
        # Exactly 50 rows is the smallest legal fit.
        report = build_report(_synthetic_table(56), TWO_PI, 56)
        fit = log_slope_fit(report)
        assert math.isfinite(fit.slope)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

class TestSerialization:
    def test_csv_header_and_round_trip(self, report_2pi):
        text = report_to_csv(report_2pi)
        lines = text.splitlines()
        assert lines[0] == "n,gamma,prediction,asym_prediction,rel_dev"
        assert len(lines) == len(report_2pi.rows) + 1
        assert text.endswith("\n")
        first = lines[1].split(",")
        row = report_2pi.rows[0]
        assert int(first[0]) == row.n
        assert float(first[1]) == row.gamma_n
        assert float(first[2]) == row.prediction
        assert float(first[3]) == row.asym_prediction
        assert float(first[4]) == row.rel_dev

    def test_json_schema_and_round_trip(self, report_2pi):
        parsed = json.loads(report_to_json(report_2pi))
        assert set(parsed) == {"m2", "rows", "summary"}
        assert parsed["m2"] == report_2pi.m2
        assert len(parsed["rows"]) == len(report_2pi.rows)
        row = report_2pi.rows[0]
        assert parsed["rows"][0] == [row.n, row.gamma_n, row.prediction,
                                     row.asym_prediction, row.rel_dev]
        summary = parsed["summary"]
        assert set(summary) == {"max_rel_dev", "mean_rel_dev_per_decade"}
        assert summary["max_rel_dev"] == report_2pi.summary.max_rel_dev
        decades = {int(k): v
                   for k, v in summary["mean_rel_dev_per_decade"].items()}
        assert decades == dict(report_2pi.summary.mean_rel_dev_per_decade)

    def test_printed_rel_dev_and_summary_match_exact_arithmetic(self, report_2pi):
        # The claim covers the arithmetic on the printed doubles, not the
        # error gamma itself carries.  Each printed rel_dev is within 0.5 ulp
        # of the exact |gamma - prediction| / gamma of its printed gamma and
        # prediction (measured worst 0.49997), each decade mean within 2
        # ulps of the exact mean of its printed rows (measured worst 1.004),
        # and max_rel_dev is the largest printed rel_dev.
        def ulps(value, exact):  # |value - exact| in ulps of exact
            return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))

        parsed = json.loads(report_to_json(report_2pi))
        decades = {}
        for n, gamma, prediction, _, rel_dev in parsed["rows"]:
            exact = abs(Fraction(gamma) - Fraction(prediction)) / Fraction(gamma)
            assert ulps(rel_dev, exact) <= 0.5, n
            decades.setdefault(len(str(n)) - 1, []).append(rel_dev)
        summary = parsed["summary"]
        means = {int(e): v for e, v in summary["mean_rel_dev_per_decade"].items()}
        assert set(means) == set(decades) == {0, 1, 2, 3}
        for e, devs in decades.items():
            exact = sum(map(Fraction, devs)) / len(devs)
            assert ulps(means[e], exact) <= 2, e
        assert summary["max_rel_dev"] == max(row[4] for row in parsed["rows"])

    def test_json_with_fit_block(self, report_2pi):
        fit = log_slope_fit(report_2pi)
        parsed = json.loads(report_to_json(report_2pi, fit))
        assert set(parsed) == {"m2", "rows", "summary", "fit"}
        assert parsed["fit"] == {"slope": fit.slope,
                                 "intercept": fit.intercept,
                                 "residual": fit.residual}
        # Over the whole report, 1000 <= n <= 5000 included.
        assert fit.slope / TWO_PI == pytest.approx(1.1612941166563515,
                                                   rel=1.0e-6)

    def test_serialization_is_deterministic(self, report_2pi):
        assert report_to_csv(report_2pi) == report_to_csv(report_2pi)
        assert report_to_json(report_2pi) == report_to_json(report_2pi)
