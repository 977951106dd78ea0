"""Output checks against the mpmath reference, and the tally they feed.

Every checker raises Failed(kind) on the first problem it finds and
otherwise records its accuracy figures in an OpAccuracy.  The kinds:

    error      non-zero exit or exception (raised by the caller)
    malformed  output that does not parse, or has the wrong shape
    count      a zero table whose length differs from the exact count N(T)
    index      a gamma_n lying nearer another reference zero than zero n
    gross      a value missing its reference by more than the gross bound

The gross bounds only catch wrong answers; the precision actually reached
is reported separately, as zero_err_max, bracket_miss_share and
pi_rel_err_max, so that the seed's known precision defect (ROADMAP item 2)
shows as a number instead of as a failure.
"""

from __future__ import annotations

import bisect
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import mpmath

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# A zero off by more than this is wrong, not imprecise: the seed's worst
# error is about 1e-3, the smallest gap between zeros below 1e4 about 0.04.
GROSS_ZERO_ERR = 1.0e-2
# Closed forms evaluated in double precision are good to ~1e-15.
GROSS_REL_ERR = 1.0e-9
# Least-squares slopes from two different double-precision algorithms.
GROSS_FIT_REL_ERR = 1.0e-6
REF_DPS = 30


class Failed(Exception):
    """An operation failed; kind is one of those in the module docstring."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


@dataclass
class OpAccuracy:
    """Accuracy figures of one operation's output."""

    zero_err_max: float = 0.0
    zeros_checked: int = 0
    bracket_misses: int = 0
    brackets_checked: int = 0
    pi_rel_err_max: float = 0.0
    pi_checked: int = 0

    def zero(self, err: float, in_bracket: bool | None) -> None:
        self.zero_err_max = max(self.zero_err_max, err)
        self.zeros_checked += 1
        if in_bracket is not None:
            self.brackets_checked += 1
            self.bracket_misses += not in_bracket

    def rel(self, value: float, ref) -> None:
        with mpmath.workdps(REF_DPS):
            err = float(abs((mpmath.mpf(value) - ref) / ref))
        if not err <= GROSS_REL_ERR:
            raise Failed("gross", f"{value!r} vs reference {mpmath.nstr(ref, 17)}")
        self.pi_rel_err_max = max(self.pi_rel_err_max, err)
        self.pi_checked += 1


@dataclass
class Tally:
    """Outcome of every operation in a run.

    Accuracy figures are merged only from operations that passed, since a
    failed table's shifted indices would swamp them.
    """

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    first_failure: dict[str, str] = field(default_factory=dict)  # per kind
    acc: OpAccuracy = field(default_factory=OpAccuracy)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def broken(self) -> int:
        """Operations that crashed or printed malformed output."""
        return self.failures["error"] + self.failures["malformed"]

    def record(self, failure: Failed | None, acc: OpAccuracy) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures[failure.kind] += 1
            self.first_failure.setdefault(failure.kind, str(failure))
            return
        total = self.acc
        total.zero_err_max = max(total.zero_err_max, acc.zero_err_max)
        total.zeros_checked += acc.zeros_checked
        total.bracket_misses += acc.bracket_misses
        total.brackets_checked += acc.brackets_checked
        total.pi_rel_err_max = max(total.pi_rel_err_max, acc.pi_rel_err_max)
        total.pi_checked += acc.pi_checked


class Reference:
    """mpmath zeros and counts loaded from reference.json."""

    def __init__(self, data: dict):
        self.full = [float(g) for g in data["full"]]
        self.full_t_max = float(data["full_t_max"])
        self.gamma = {n: g for n, g in enumerate(self.full, start=1)}
        self.gamma.update({int(n): float(g) for n, g in data["sampled"].items()})
        self.counts = {float(t): int(n) for t, n in data["counts"].items()}

    @classmethod
    def load(cls, path: str = REFERENCE_PATH) -> "Reference":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def count(self, t: float) -> int:
        """Exact N(t), the number of zeros with 0 < gamma <= t."""
        if t <= self.full_t_max:
            return bisect.bisect_right(self.full, t)
        return self.counts[float(t)]

    def neighbours(self, n: int) -> tuple[float, float, float] | None:
        """(gamma_{n-1}, gamma_n, gamma_{n+1}) if all are known, else None."""
        g = self.gamma
        if n not in g or n + 1 not in g or (n > 1 and n - 1 not in g):
            return None
        return (g[n - 1] if n > 1 else -math.inf), g[n], g[n + 1]


# ----------------------------------------------------------------------
# Zeros
# ----------------------------------------------------------------------

def check_gamma(n: int, gamma: float, ref: Reference, acc: OpAccuracy,
                bracket: tuple[float, float] | None = None) -> None:
    """Check one reported gamma_n if the reference knows zero n."""
    near = ref.neighbours(n)
    if near is None:
        return
    below, exact, above = near
    err = abs(gamma - exact)
    if not (err < abs(gamma - below) and err < abs(gamma - above)):
        raise Failed("index", f"gamma_{n} = {gamma!r} is nearer another zero "
                              f"than the reference {exact!r}")
    if err > GROSS_ZERO_ERR:
        raise Failed("gross", f"gamma_{n} = {gamma!r}, reference {exact!r}")
    in_bracket = None if bracket is None else bracket[0] <= exact <= bracket[1]
    acc.zero(err, in_bracket)


def parse_zero_csv(text: str) -> list[tuple[int, float, float, float]]:
    lines = _lines(text, "n,gamma,bracket_lo,bracket_hi")
    rows = []
    for line in lines:
        fields = line.split(",")
        if len(fields) != 4:
            raise Failed("malformed", f"zero row {line!r}")
        rows.append((_int(fields[0]), *map(_float, fields[1:])))
    return rows


def check_zero_table(rows, t_max: float, ref: Reference, acc: OpAccuracy) -> None:
    """rows of (n, gamma, bracket_lo, bracket_hi) from a scan of (0, t_max]."""
    expected = ref.count(t_max)
    if len(rows) != expected:
        raise Failed("count", f"{len(rows)} zeros below {t_max!r}, "
                              f"mpmath counts {expected}")
    previous = 0.0
    for i, (n, gamma, lo, hi) in enumerate(rows, start=1):
        if n != i or not (previous <= lo <= gamma <= hi <= t_max):
            raise Failed("malformed", f"zero row {i}: {(n, gamma, lo, hi)}")
        previous = hi
        check_gamma(n, gamma, ref, acc, (lo, hi))


# ----------------------------------------------------------------------
# Bubble and correspondence
# ----------------------------------------------------------------------

def ref_pi(t: float, m2: float):
    """Pi(sqrt(t)) at mass^2 m2 from the textbook closed form, in mpmath."""
    with mpmath.workdps(REF_DPS):
        t, m2 = mpmath.mpf(t), mpmath.mpf(m2)
        f = mpmath.sqrt(1 + 4 * m2 / t)
        return mpmath.log((1 + f) / (f - 1)) / (2 * mpmath.pi * f * t)


def ref_asymptote(t: float, m2: float | None = None):
    """2 pi t / ln(t/m2), the correlator asymptote; gamma_t's when m2 is None."""
    with mpmath.workdps(REF_DPS):
        t = mpmath.mpf(t)
        m2 = 2 * mpmath.pi if m2 is None else mpmath.mpf(m2)
        return 2 * mpmath.pi * t / mpmath.log(t / m2)


def check_bubble_csv(text: str, t_min: float, t_max: float, points: int,
                     m2: float, acc: OpAccuracy) -> None:
    lines = _lines(text, "t,pi,correlator,asymptote")
    if len(lines) != points:
        raise Failed("malformed", f"{len(lines)} bubble rows, expected {points}")
    for i, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) != 4:
            raise Failed("malformed", f"bubble row {line!r}")
        t, pi, corr = map(_float, fields[:3])
        with mpmath.workdps(REF_DPS):
            t_ref = mpmath.mpf(t_min) * (mpmath.mpf(t_max) / t_min) ** (
                mpmath.mpf(i) / max(points - 1, 1))
        if abs(t - t_ref) > GROSS_REL_ERR * t_ref:
            raise Failed("gross", f"grid point {i}: t = {t!r}")
        pi_ref = ref_pi(t, m2)
        acc.rel(pi, pi_ref)
        acc.rel(corr, 1 / pi_ref)
        if t > m2:
            acc.rel(_float(fields[3]), ref_asymptote(t, m2))
        elif fields[3] != "nan":
            raise Failed("malformed", f"asymptote {fields[3]!r} at t <= m2")


def check_report(json_text: str, n_max: int, m2: float,
                 window: tuple[int, int] | None, sample: list[int],
                 ref: Reference, acc: OpAccuracy) -> list[list]:
    """Check report_to_json output; returns its rows for a CSV comparison.

    Every row's gamma_n is checked against the reference where it has
    zero n, and every row's rel_dev is recomputed; the mpmath predictions
    are evaluated at the rows whose positions are listed in sample.
    window is the fit window, None for the whole report.
    """
    try:
        report = json.loads(json_text)
        rows, fit = report["rows"], report["fit"]
        slope, intercept = float(fit["slope"]), float(fit["intercept"])
        got_m2 = float(report["m2"])
    except (ValueError, KeyError, TypeError) as exc:
        raise Failed("malformed", f"report JSON: {exc}") from None
    if got_m2 != m2 or len(rows) != n_max - 6:
        raise Failed("malformed", f"m2 {got_m2!r} or row count {len(rows)}")
    for i, row in enumerate(rows):
        if (not isinstance(row, list) or len(row) != 5 or row[0] != i + 7
                or not all(type(v) in (int, float) for v in row[1:])):
            raise Failed("malformed", f"report row {i}: {row!r}")
        n, gamma, prediction, _, rel_dev = row
        check_gamma(n, gamma, ref, acc)
        dev = abs(gamma - prediction) / gamma
        if abs(rel_dev - dev) > GROSS_REL_ERR * dev:
            raise Failed("gross", f"rel_dev of row n = {n}")
    for i in sample:
        n, _, prediction, asym, _ = rows[i]
        acc.rel(prediction, 1 / ref_pi(n, m2))
        acc.rel(asym, ref_asymptote(n))
    lo, hi = window or (7, n_max)
    fit_rows = rows[lo - 7:hi - 6]
    ref_slope, ref_intercept = _line_fit(
        [float(r[0]) for r in fit_rows],
        [r[1] * math.log(r[0] / (2 * math.pi)) for r in fit_rows])
    if (abs(slope - ref_slope) > GROSS_FIT_REL_ERR * abs(ref_slope)
            or abs(intercept - ref_intercept)
            > GROSS_FIT_REL_ERR * abs(ref_slope) * hi):
        raise Failed("gross", f"fit {slope!r}, {intercept!r}; "
                              f"reference {ref_slope!r}, {ref_intercept!r}")
    return rows


def check_report_csv(text: str, json_rows: list[list]) -> None:
    lines = _lines(text, "n,gamma,prediction,asym_prediction,rel_dev")
    if len(lines) != len(json_rows):
        raise Failed("malformed", f"{len(lines)} CSV rows, JSON has {len(json_rows)}")
    for line, row in zip(lines, json_rows):
        fields = line.split(",")
        if len(fields) != 5 or [_int(fields[0]), *map(_float, fields[1:])] != row:
            raise Failed("malformed", f"CSV row {line!r} differs from JSON {row!r}")


def _line_fit(x: list[float], y: list[float]) -> tuple[float, float]:
    """Least-squares line by centred sums, a different algorithm from polyfit."""
    x_mean = math.fsum(x) / len(x)
    y_mean = math.fsum(y) / len(y)
    sxy = math.fsum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
    sxx = math.fsum((a - x_mean) ** 2 for a in x)
    slope = sxy / sxx
    return slope, y_mean - slope * x_mean


# ----------------------------------------------------------------------
# count and gap
# ----------------------------------------------------------------------

def check_count_text(text: str, t: float) -> None:
    values = _key_values(text, ["t", "n_main", "n_correction", "n_estimate", "density"])
    with mpmath.workdps(REF_DPS):
        u = mpmath.mpf(t) / (2 * mpmath.pi)
        n_main = u * mpmath.log(u) - u
        expected = {
            "t": mpmath.mpf(t),
            "n_main": n_main,
            "n_correction": mpmath.mpf(7) / 8,
            "n_estimate": n_main + mpmath.mpf(7) / 8,
            "density": mpmath.log(u) / (2 * mpmath.pi),
        }
        scale = 1 + abs(u * mpmath.log(u)) + u
        for key, ref_value in expected.items():
            if abs(values[key] - ref_value) > GROSS_REL_ERR * scale:
                raise Failed("gross", f"count {key} = {values[key]!r}, "
                                      f"reference {mpmath.nstr(ref_value, 17)}")


def check_gap_text(text: str, coupling: float, n_components: int,
                   cutoff: float) -> None:
    values = _key_values(text, ["m2", "residual"])
    with mpmath.workdps(REF_DPS):
        lam2 = mpmath.mpf(cutoff) ** 2
        inv_g2 = 1 / mpmath.mpf(coupling) ** 2
        m2_ref = lam2 / mpmath.expm1(4 * mpmath.pi * inv_g2 / n_components)
        if abs(values["m2"] - m2_ref) > GROSS_REL_ERR * m2_ref:
            raise Failed("gross", f"gap m2 = {values['m2']!r}, "
                                  f"reference {mpmath.nstr(m2_ref, 17)}")
        if not 0.0 <= values["residual"] <= GROSS_REL_ERR * inv_g2:
            raise Failed("gross", f"gap residual = {values['residual']!r}")


# ----------------------------------------------------------------------
# Parsing helpers
# ----------------------------------------------------------------------

def _lines(text: str, header: str) -> list[str]:
    if not text.endswith("\n"):
        raise Failed("malformed", "output does not end with a newline")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        raise Failed("malformed", f"header {lines[0]!r}")
    return lines[1:]


def _key_values(text: str, keys: list[str]) -> dict[str, float]:
    if not text.endswith("\n"):
        raise Failed("malformed", "output does not end with a newline")
    values = {}
    for line in text[:-1].split("\n"):
        key, sep, value = line.partition(" = ")
        if not sep:
            raise Failed("malformed", f"line {line!r}")
        values[key] = _float(value)
    if list(values) != keys:
        raise Failed("malformed", f"keys {list(values)}, expected {keys}")
    return values


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise Failed("malformed", f"integer {text!r}") from None


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise Failed("malformed", f"number {text!r}") from None
    if not math.isfinite(value):
        raise Failed("malformed", f"number {text!r}")
    return value
