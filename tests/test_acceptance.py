"""Acceptance gate: the six release criteria, one test per criterion.

Each test runs its computation from scratch (no shared fixtures), times
itself against the stated budget, and records a one-line verdict that
the terminal summary repeats at the end of the run.

Criterion 4 currently fails, and deliberately so: its bound
gamma_n/prediction in [0.8, 1.2] for every n in [10, 5000] is not a
property the mathematics has — the measured ratio at small n dips to
0.50 at n = 10 and only enters the band for good at n = 39.  The test
asserts the stated bound anyway and reports the measured facts rather
than quietly weakening the criterion.
"""

from __future__ import annotations

import math
import time

from rzs import (
    BubbleSpec,
    GapEquationSpec,
    build_report,
    correlator_sample,
    count_zeros,
    feynman_integral,
    gamma_asymptotic,
    gap_mass,
    gap_residual,
    log_slope_fit,
    pi_at_zero,
    pi_closed,
    report_to_json,
    scan_zeros,
    theta,
    z_function,
    zero_table_to_csv,
)

import acceptance_log
import oracles

TWO_PI = 2.0 * math.pi


def _verdict(number: int, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    acceptance_log.record(line)
    print(line)
    return line


def _rel(a: float, b: float) -> float:
    return abs(a - b) / min(abs(a), abs(b))


def test_criterion_1_bubble_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for p in (0.1, 1.0, 10.0):
        for m in (0.5, 1.0, 2.0):
            closed = pi_closed(p, m)
            feynman = feynman_integral(BubbleSpec(1.0, 1.0, 2.0, p, m))
            momentum = oracles.pi_momentum_oracle(p, m)
            worst = max(worst, _rel(closed, feynman), _rel(closed, momentum),
                        _rel(feynman, momentum))
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0e-6 and elapsed <= 10.0
    line = _verdict(
        1, ok,
        f"closed/Feynman/momentum routes agree pairwise on the 9-point "
        f"grid, worst rel dev {worst:.2e} (bound 1e-6); {elapsed:.2f}s "
        f"(limit 10s)",
    )
    assert ok, line


def test_criterion_2_asymptote_reproduction():
    start = time.perf_counter()
    sample_1e4 = correlator_sample(1.0e4, 1.0)
    sample_1e6 = correlator_sample(1.0e6, 1.0)
    dev_1e4 = abs(sample_1e4.correlator / sample_1e4.asymptote - 1.0)
    dev_1e6 = abs(sample_1e6.correlator / sample_1e6.asymptote - 1.0)
    elapsed = time.perf_counter() - start
    ok = dev_1e4 <= 1.0e-3 and dev_1e6 <= 1.0e-4
    line = _verdict(
        2, ok,
        f"correlator/asymptote deviation {dev_1e4:.2e} at t/m^2 = 1e4 "
        f"(bound 1e-3) and {dev_1e6:.2e} at 1e6 (bound 1e-4); "
        f"{elapsed:.3f}s",
    )
    assert ok, line


def test_criterion_3_scan_matches_counting_formula():
    start = time.perf_counter()
    table = scan_zeros(0.0, 500.0, 1.0e-8)
    elapsed = time.perf_counter() - start
    expected = count_zeros(500.0).n_estimate
    count_gap = abs(len(table.gamma) - round(expected))
    first = table.gamma[0]
    first_dev = abs(first - 14.1347)
    ok = count_gap <= 1 and first_dev <= 1.0e-4 and elapsed <= 60.0
    line = _verdict(
        3, ok,
        f"scan to t = 500 found {len(table.gamma)} zeros vs estimate "
        f"{expected:.3f} (gap {count_gap} <= 1); first zero "
        f"{first:.7f} within {first_dev:.2e} of 14.1347 (bound 1e-4); "
        f"{elapsed:.2f}s single-threaded (limit 60s)",
    )
    assert ok, line


def test_criterion_4_correspondence_band_and_slope():
    start = time.perf_counter()
    table = scan_zeros(0.0, 5520.0, 1.0e-8)
    report = build_report(table, TWO_PI, 5000)
    fit = log_slope_fit(report, n_min=1000, n_max=5000)
    elapsed = time.perf_counter() - start

    slope_dev = abs(fit.slope / TWO_PI - 1.0)
    slope_ok = slope_dev <= 0.25

    checked = [r for r in report.rows if r.n >= 10]
    ratios = [(r.gamma_n / r.prediction, r.n) for r in checked]
    out_of_band = [(ratio, n) for ratio, n in ratios
                   if not 0.8 <= ratio <= 1.2]
    lowest, lowest_n = min(ratios)
    highest, highest_n = max(ratios)
    in_band_from = max(n for _, n in out_of_band) + 1 if out_of_band else 10
    band_ok = not out_of_band

    ok = slope_ok and band_ok and elapsed <= 600.0
    line = _verdict(
        4, ok,
        f"slope over n in [1000, 5000] is {fit.slope:.4f} = "
        f"2pi*(1{slope_dev:+.4f}) (bound 25%: "
        f"{'ok' if slope_ok else 'VIOLATED'}); gamma/prediction band "
        f"[0.8, 1.2] over n in [10, 5000]: "
        + (
            "all rows inside"
            if band_ok
            else f"{len(out_of_band)} of {len(checked)} rows outside "
                 f"(n = {min(n for _, n in out_of_band)}.."
                 f"{max(n for _, n in out_of_band)}; extremes "
                 f"{lowest:.4f} at n = {lowest_n}, {highest:.4f} at "
                 f"n = {highest_n}; band holds only from n = "
                 f"{in_band_from})"
        )
        + f"; {elapsed:.1f}s single-threaded (limit 600s)",
    )
    assert ok, line


def test_criterion_5_gap_equation_routes_agree():
    start = time.perf_counter()
    ln2_coupling = math.sqrt(4.0 * math.pi / (2.0 * math.log(2.0)))
    triples = (
        (ln2_coupling, 2, 5.0),  # the m^2 = Lambda^2 special point
        (0.5, 4, 10.0),
        (2.0, 3, 50.0),
    )
    worst = 0.0
    for coupling, n, cutoff in triples:
        spec = GapEquationSpec(coupling, n, cutoff)
        m2 = gap_mass(spec)
        closed = cutoff * cutoff / math.expm1(
            4.0 * math.pi / (n * coupling * coupling))
        lhs = 1.0 / (coupling * coupling)
        worst = max(worst, _rel(m2, closed),
                    gap_residual(spec, m2) / lhs)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0e-6 and elapsed <= 1.0
    line = _verdict(
        5, ok,
        f"closed-form inversion vs gap_mass vs quadrature "
        f"back-substitution on 3 parameter triples, worst rel dev "
        f"{worst:.2e} (bound 1e-6); {elapsed:.3f}s (limit 1s)",
    )
    assert ok, line


def test_criterion_6_invariant_suites():
    import random

    results: dict[str, bool] = {}

    rng = random.Random(60617)
    results["parity"] = all(
        theta(-t) == -theta(t)
        and z_function(-t, 1.0e-2).z_value == z_function(t, 1.0e-2).z_value
        for t in (rng.uniform(0.5, 80.0) for _ in range(20))
    )

    log_grid = [10.0 ** (k / 12.0) for k in range(-48, 37)]
    pi_values = [pi_closed(p, 1.0) for p in log_grid]
    results["positivity"] = (
        all(v > 0.0 for v in pi_values)
        and pi_at_zero(1.0) > 0.0
        and all(count_zeros(t).density >= 0.0
                for t in (TWO_PI, 10.0, 100.0, 1.0e4))
    )

    estimates = [count_zeros(TWO_PI + 2.0 * k).n_estimate for k in range(500)]
    masses = [gap_mass(GapEquationSpec(g, 3, 10.0)) for g in (0.8, 1.0, 1.3)]
    results["monotonicity"] = (
        all(b < a for a, b in zip(pi_values, pi_values[1:]))
        and all(b >= a for a, b in zip(estimates, estimates[1:]))
        and masses[0] < masses[1] < masses[2]
    )

    results["scaling"] = all(
        _rel(pi_closed(lam * p, lam * m), pi_closed(p, m) / lam**2) <= 1.0e-12
        for lam in (2.0, 10.0)
        for p, m in ((0.3, 1.0), (3.0, 0.5), (40.0, 2.0))
    ) and all(
        _rel(pi_at_zero(m), pi_at_zero(1.0) / m**2) <= 1.0e-12
        for m in (0.5, 3.0)
    )

    table_a = scan_zeros(0.0, 100.0, 1.0e-8)
    table_b = scan_zeros(0.0, 100.0, 1.0e-8)
    report_a = build_report(table_a, TWO_PI, 25)
    report_b = build_report(table_b, TWO_PI, 25)
    results["determinism"] = (
        table_a == table_b
        and zero_table_to_csv(table_a) == zero_table_to_csv(table_b)
        and report_a == report_b
        and report_to_json(report_a) == report_to_json(report_b)
        and gamma_asymptotic(100) == gamma_asymptotic(100)
    )

    table = scan_zeros(0.0, 250.0, 1.0e-8)
    results["bracket soundness"] = all(
        z_function(lo, 1.0).z_value * z_function(hi, 1.0).z_value < 0.0
        for lo, hi in zip(table.bracket_lo, table.bracket_hi)
    )

    ok = all(results.values())
    status = ", ".join(f"{name} {'ok' if good else 'FAILED'}"
                       for name, good in results.items())
    line = _verdict(6, ok, f"invariant suites: {status}")
    assert ok, line
