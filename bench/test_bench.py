"""Tests of the benchmark itself: its checker, statistics and tracing.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

from check import (
    Failed,
    OpAccuracy,
    Reference,
    Tally,
    check_gamma,
    check_report,
    check_report_csv,
    check_zero_table,
    parse_zero_csv,
)
from run import END_TO_END, PER_LAYER, ROOT, SRC, tail_percentile
from tracing import Tracer, self_times, summarize
from workloads import WORKLOADS

sys.path.insert(0, SRC)

import rzs.cli  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return Reference.load()


def _exact_rows(ref, t_max, half_width=1.0e-9):
    """A perfect zero table over (0, t_max] built from the reference."""
    return [(n, g, g - half_width, g + half_width)
            for n, g in enumerate(ref.full[:ref.count(t_max)], start=1)]


def _csv(rows):
    return "".join(["n,gamma,bracket_lo,bracket_hi\n"]
                   + [f"{n},{g!r},{lo!r},{hi!r}\n" for n, g, lo, hi in rows])


def _failure(fn, *args):
    with pytest.raises(Failed) as info:
        fn(*args)
    return info.value.kind


# ----------------------------------------------------------------------
# The checker counts broken outputs as failures
# ----------------------------------------------------------------------

def test_exact_table_passes(ref):
    acc = OpAccuracy()
    check_zero_table(_exact_rows(ref, 1339.03), 1339.03, ref, acc)
    assert acc.zeros_checked == 931 and acc.bracket_misses == 0
    assert acc.zero_err_max == 0.0


def test_table_missing_a_close_pair_fails(ref):
    # As the seed's scan does at t_max = 1339.03: the closest pair vanishes
    # and every later index shifts by 2.
    rows = _exact_rows(ref, 1339.03)
    gaps = [rows[i + 1][1] - rows[i][1] for i in range(len(rows) - 1)]
    k = gaps.index(min(gaps))
    kept = rows[:k] + rows[k + 2:]
    shifted = [(i, g, lo, hi) for i, (_, g, lo, hi) in enumerate(kept, start=1)]
    assert _failure(check_zero_table, shifted, 1339.03, ref, OpAccuracy()) == "count"
    # Even with the count check passing, the shifted indices are caught.
    n, g, _, _ = shifted[k]
    assert _failure(check_gamma, n, g, ref, OpAccuracy()) == "index"


def test_zero_moved_onto_its_neighbour_fails(ref):
    rows = _exact_rows(ref, 500.0)
    n, _, _, _ = rows[99]
    moved = rows[100][1]
    rows[99] = (n, moved, moved - 1e-9, moved + 1e-9)
    rows[100] = (n + 1, moved + 2e-9, moved + 1.5e-9, moved + 3e-9)
    assert _failure(check_zero_table, rows, 500.0, ref, OpAccuracy()) == "index"


def test_gross_zero_error_fails(ref):
    g = ref.gamma[200] + 0.05
    assert _failure(check_gamma, 200, g, ref, OpAccuracy()) == "gross"


def test_imprecise_zero_is_measured_not_failed(ref):
    acc = OpAccuracy()
    g = ref.gamma[10] + 2.0e-4
    check_gamma(10, g, ref, acc, (g - 5e-9, g + 5e-9))
    assert acc.zero_err_max == pytest.approx(2.0e-4)
    assert acc.bracket_misses == 1 and acc.brackets_checked == 1


def test_truncated_zero_csv_fails(ref):
    text = _csv(_exact_rows(ref, 300.0))
    mid_line = text[: len(text) // 2]
    assert _failure(parse_zero_csv, mid_line) == "malformed"
    at_line = mid_line[: mid_line.rindex("\n") + 1]
    rows = parse_zero_csv(at_line)
    assert _failure(check_zero_table, rows, 300.0, ref, OpAccuracy()) == "count"


@pytest.fixture(scope="module")
def report_texts():
    table = rzs.scan_zeros(0.0, 200.0, 1.0e-8)
    report = rzs.build_report(table, 2.0 * math.pi, 60)
    fit = rzs.log_slope_fit(report)
    return rzs.report_to_json(report, fit), rzs.report_to_csv(report)


def test_report_checks_pass_on_real_output(ref, report_texts):
    json_text, csv_text = report_texts
    acc = OpAccuracy()
    rows = check_report(json_text, 60, 2.0 * math.pi, None, list(range(54)), ref, acc)
    check_report_csv(csv_text, rows)
    assert acc.zeros_checked == 54 and acc.pi_checked == 108
    assert acc.pi_rel_err_max < 1e-13


def test_truncated_report_fails(ref, report_texts):
    json_text, csv_text = report_texts
    for cut in (len(json_text) // 2, len(json_text) - 3):
        assert _failure(check_report, json_text[:cut], 60, 2.0 * math.pi, None,
                        [], ref, OpAccuracy()) == "malformed"
    rows = check_report(json_text, 60, 2.0 * math.pi, None, [], ref, OpAccuracy())
    truncated = csv_text[: csv_text.rindex("\n", 0, len(csv_text) - 1) + 1]
    assert _failure(check_report_csv, truncated, rows) == "malformed"
    assert _failure(check_report_csv, csv_text[:-5], rows) == "malformed"


def test_wrong_prediction_fails(ref, report_texts):
    report = json.loads(report_texts[0])
    report["rows"][5][2] *= 1.0 + 1e-6
    report["rows"][5][4] = abs(report["rows"][5][1] - report["rows"][5][2]) / report["rows"][5][1]
    assert _failure(check_report, json.dumps(report), 60, 2.0 * math.pi, None,
                    [5], ref, OpAccuracy()) == "gross"


def test_tally_keeps_failed_ops_out_of_accuracy():
    tally = Tally()
    good = OpAccuracy()
    good.zero(1e-6, True)
    bad = OpAccuracy()
    bad.zero(0.5, False)
    tally.record(None, good)
    tally.record(Failed("index", "shifted"), bad)
    tally.record(Failed("malformed", "cut"), OpAccuracy())
    assert (tally.attempted, tally.failed, tally.broken) == (3, 2, 1)
    assert tally.acc.zero_err_max == 1e-6 and tally.acc.bracket_misses == 0


# ----------------------------------------------------------------------
# Statistics and tracing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n, expected_q, beyond", [
    (9, None, None),
    (39, None, None),
    (40, 75.0, 10),
    (99, 75.0, 24),
    (100, 90.0, 10),
    (199, 90.0, 19),
    (200, 95.0, 10),
    (1000, 99.0, 10),
    (10000, 99.9, 10),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_q, beyond):
    samples = [float(i) for i in range(n, 0, -1)]
    result = tail_percentile(samples)
    if expected_q is None:
        assert result is None
        return
    q, value, above = result
    assert (q, above) == (expected_q, beyond)
    assert sum(s > value for s in samples) == above


def test_self_time_subtracts_direct_children():
    # root [0, 10] has children [1, 4] and [5, 9]; the second has [6, 7].
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    duration, own = self_times(parent, start, end)
    assert duration == [10.0, 3.0, 4.0, 1.0]
    assert own == [3.0, 3.0, 3.0, 1.0]


def test_tracer_patches_every_lookup_site():
    tracer = Tracer()
    originals = (rzs.correspond.correlator_sample, rzs.cli.scan_zeros,
                 rzs.scan_zeros, rzs.bubble.pi_closed)
    tracer.install()
    try:
        assert rzs.correspond.correlator_sample is not originals[0]
        assert rzs.cli.scan_zeros is not originals[1]
        assert rzs.scan_zeros is rzs.zeta.scan_zeros is rzs.cli.scan_zeros
        report = rzs.build_report(rzs.scan_zeros(0.0, 60.0, 1e-8), 1.0, 10)
    finally:
        tracer.uninstall()
    assert (rzs.correspond.correlator_sample, rzs.cli.scan_zeros,
            rzs.scan_zeros, rzs.bubble.pi_closed) == originals
    totals = summarize(tracer)
    assert totals["bubble.correlator_sample"]["calls"] == 4
    assert totals["bubble.pi_closed"]["calls"] == 4
    assert totals["correspond.build_report"]["size"] == len(report.rows) == 4
    assert totals["zeta.scan_zeros"]["size"] == 13
    # pi_closed spans nest inside correlator_sample, inside build_report.
    names = tracer.names
    for i, p in enumerate(tracer.parent):
        if names[tracer.name[i]] == "bubble.pi_closed":
            assert names[tracer.name[p]] == "bubble.correlator_sample"


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    gated = {w["name"]: w["why"] for w in spec["workloads"]}
    assert gated == {name: WORKLOADS[name].why for name in gated}
    assert set(WORKLOADS) - set(gated) == {"mass-sweep", "scan-sweep"}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
