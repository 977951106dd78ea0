"""The public records: immutable, hashable named tuples with fixed fields."""

from __future__ import annotations

import math

import pytest

import rzs

# Every public record type with its fields, in order.
FIELDS = {
    "CriticalLineSample": ("t", "z_value", "theta_value", "method", "est_abs_error"),
    "ZeroEntry": ("n", "gamma", "bracket_lo", "bracket_hi", "refined_tol"),
    "ZeroTable": ("n_first", "gamma", "bracket_lo", "bracket_hi", "refined_tol",
                  "t_max"),
    "ZeroCountEstimate": ("t", "n_main", "n_correction", "n_estimate", "density"),
    "BubbleSpec": ("alpha", "beta", "dim", "p", "m"),
    "CorrelatorSample": ("t", "pi_value", "correlator", "asymptote", "m2"),
    "GapEquationSpec": ("coupling", "n_components", "cutoff"),
    "ReportRow": ("n", "gamma_n", "prediction", "asym_prediction", "rel_dev"),
    "ReportSummary": ("max_rel_dev", "mean_rel_dev_per_decade"),
    "CorrespondenceReport": ("m2", "rows", "summary"),
    "FitResult": ("slope", "intercept", "residual"),
}


def _records(table_500):
    """One record of each public type, built by the calls that return them."""
    report = rzs.build_report(table_500, math.tau, 60)
    return [
        rzs.z_function(20.0, 1.0e-10),
        # The first row of the columnar table.
        rzs.ZeroEntry(table_500.n_first, table_500.gamma[0], table_500.bracket_lo[0],
                      table_500.bracket_hi[0], table_500.refined_tol),
        table_500,
        rzs.count_zeros(100.0),
        rzs.BubbleSpec(1.0, 1.0, 2.0, 3.0, 1.0),
        rzs.correlator_sample(0.5, 1.0),
        rzs.GapEquationSpec(1.0, 3, 10.0),
        report.rows[0],
        report.summary,
        report,
        rzs.log_slope_fit(report),
    ]


def test_every_record_is_a_named_tuple_with_its_fields():
    for name, fields in FIELDS.items():
        cls = getattr(rzs, name)
        assert issubclass(cls, tuple), name
        assert cls._fields == fields, name


def test_records_are_immutable_and_hashable(table_500):
    records = _records(table_500)
    assert sorted(type(r).__name__ for r in records) == sorted(FIELDS)
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 0.0)
        assert hash(record) == hash(type(record)(*record))


def test_replace_and_asdict_give_copies():
    spec = rzs.GapEquationSpec(coupling=1.0, n_components=3, cutoff=10.0)
    wider = spec._replace(cutoff=20.0)
    assert wider == rzs.GapEquationSpec(1.0, 3, 20.0) and spec.cutoff == 10.0
    assert spec._asdict() == {"coupling": 1.0, "n_components": 3, "cutoff": 10.0}
    assert repr(spec) == "GapEquationSpec(coupling=1.0, n_components=3, cutoff=10.0)"
