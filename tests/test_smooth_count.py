"""The smooth zero count as an oracle for the scan and the correspondence.

gamma~_n (oracles.smooth_zero) is where theta(t)/pi + 1, the smooth part
of the zero count, reaches n - 1/2.  With delta_n = (gamma_n - gamma~_n)
ln(gamma_n/2pi)/2pi, the offset of zero n in mean spacings, -S(gamma_n)
to first order, every window mean of delta stays near 0, and a lost or a
doubled zero moves every window mean after it by about 1.  The same
gamma~_n gives the correspondence's slope and its band misses.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from rzs import scan_zeros
from rzs.cli import main

import oracles

_WINDOW = 500
_DEEP_ZEROS = 10142  # the zeros of the deep scan to 1e4


@functools.cache
def _smooth_zeros() -> np.ndarray:
    """gamma~_1 .. gamma~_{_DEEP_ZEROS}, built once; each test slices it."""
    return np.array([oracles.smooth_zero(n) for n in range(1, _DEEP_ZEROS + 1)])


def _window_means(gamma) -> np.ndarray:
    """Mean delta_n over consecutive windows of _WINDOW zeros, n from 1."""
    gamma = np.asarray(gamma)
    delta = ((gamma - _smooth_zeros()[:gamma.size]) * np.log(gamma / math.tau)
             / math.tau)
    return delta[: delta.size // _WINDOW * _WINDOW].reshape(-1, _WINDOW).mean(axis=1)


def test_every_window_of_the_deep_scan_sits_on_the_smooth_count():
    # Measured: every mean in [-0.0013, +0.0027], 90 times inside the
    # bound; losing zero 5001 moves the means after it into [0.998, 1.002].
    table = scan_zeros(0.0, 1.0e4, 1.0e-8)
    assert table.n_first == 1 and len(table.gamma) == 10142
    assert np.abs(_window_means(table.gamma)).max() < 0.25

    # The table of a scan that lost the bracket of zero 5001.
    means = _window_means(np.delete(table.gamma, 5000))
    assert np.abs(means[:10]).max() < 0.25
    assert np.all(np.abs(means[10:]) > 0.25)


def test_compare_slope_is_the_smooth_count_slope(tmp_path):
    # The fit of compare --n-max 5000, over n = 7..5000, against the same
    # closed form on gamma~_n: 7.2966261 against 7.2966265, 5.1e-8 apart
    # relative (measured).
    out = tmp_path / "report.json"
    assert main(["compare", "--n-max", "5000", "--out-path", str(out)]) == 0
    slope = json.loads(out.read_text())["fit"]["slope"]

    n = np.arange(7, 5001)
    x, y = n.astype(float), _smooth_zeros()[6:5000] * np.log(n / math.tau)
    xc = x - math.fsum(x) / x.size
    smooth = math.fsum(xc * (y - math.fsum(y) / y.size)) / math.fsum(xc * xc)
    assert abs(slope / smooth - 1.0) <= 1.0e-6


def test_band_misses_are_those_of_the_smooth_count(report_2pi):
    # Criterion 4's band: gamma_n / prediction in [0.8, 1.2] for n >= 10.
    # The same rows, n = 10..38, leave it with gamma~_n in place of
    # gamma_n, so the misses come from the smooth count, not the scan.
    smooth = _smooth_zeros()[:5000]
    rows = [r for r in report_2pi.rows if r.n >= 10]
    scanned = [r.n for r in rows if not 0.8 <= r.gamma_n / r.prediction <= 1.2]
    predicted = [r.n for r in rows
                 if not 0.8 <= smooth[r.n - 1] / r.prediction <= 1.2]
    assert scanned == predicted == list(range(10, 39))
