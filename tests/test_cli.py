"""End-to-end tests of the command-line interface via subprocesses."""

from __future__ import annotations

import ast
import bisect
import importlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import mpmath
import pytest

import rzs
import rzs.cli
from test_ab import ab

TWO_PI = 2.0 * math.pi

# Directory of the rzs package this process imported; first on each
# child's PYTHONPATH so the child runs the same source from any cwd (an
# inherited relative entry does not resolve in tmp_path).
_RZS_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(rzs.__file__)))

_REPO = pathlib.Path(__file__).resolve().parents[1]
_REFERENCE = _REPO / "bench" / "reference.json"


# The variables through which OpenBLAS takes its thread count, highest
# rank first; a child that checks the CLI's default runs without them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _child_env(env_extra=None) -> dict[str, str]:
    """This process's environment with rzs first on PYTHONPATH; a None in
    env_extra removes that variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_RZS_ROOT, env.get("PYTHONPATH")]))
    for key, value in (env_extra or {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def _run(args, cwd, env_extra=None, *, python_args=("-m", "rzs")):
    """Run a child python; a None in env_extra removes that variable."""
    return subprocess.run(
        [sys.executable, *python_args, *args],
        capture_output=True, text=True, cwd=cwd, env=_child_env(env_extra),
        timeout=300,
    )


def _parse_kv(stdout: str) -> dict[str, float]:
    pairs = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = float(value)
    return pairs


# ----------------------------------------------------------------------
# zeros
# ----------------------------------------------------------------------

class TestZerosCommand:
    def test_table_to_100_has_29_rows(self, tmp_path):
        out = tmp_path / "zeros.csv"
        result = _run(["zeros", "--t-max", "100", "--tol", "1e-8",
                       "--out-path", str(out)], tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "n,gamma,bracket_lo,bracket_hi"
        assert len(lines) == 30
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(14.134725, abs=1.0e-6)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["zeros", "--t-max", "60", "--out-path", "zeros.csv"]
        result = _run(args, tmp_path)
        assert result.returncode == 0, result.stderr
        first = (tmp_path / "zeros.csv").read_bytes()
        result = _run(args, tmp_path)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "zeros.csv").read_bytes() == first

    def test_unsupported_height_fails_cleanly(self, tmp_path):
        out = tmp_path / "zeros.csv"
        result = _run(["zeros", "--t-max", "20000", "--out-path", str(out)],
                      tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    def test_too_tight_tolerance_fails_cleanly(self, tmp_path):
        out = tmp_path / "zeros.csv"
        result = _run(["zeros", "--t-max", "50", "--tol", "1e-9",
                       "--out-path", str(out)], tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert not out.exists()

    def test_deep_scan_and_its_csv_stay_within_their_memory(self):
        # The warm tracemalloc peaks of scan_zeros(0, 1e4, 1e-8) and of one
        # zeros --t-max 1e4 command, in a fresh child, as tools/ab.py
        # records them.
        scan_peak, command_peak = ab.probe(str(_REPO), "peaks")
        assert scan_peak <= 1.30e6
        assert command_peak <= 1.30e6


# ----------------------------------------------------------------------
# count
# ----------------------------------------------------------------------

class TestCountCommand:
    def test_main_term_at_two_pi(self, tmp_path):
        result = _run(["count", "--t", "6.283185307"], tmp_path)
        assert result.returncode == 0, result.stderr
        values = _parse_kv(result.stdout)
        assert set(values) == {"t", "n_main", "n_correction", "n_estimate",
                               "density"}
        assert values["t"] == 6.283185307
        assert values["n_main"] == pytest.approx(-1.0, abs=1.0e-8)
        assert values["n_correction"] == 7.0 / 8.0
        assert values["n_estimate"] == pytest.approx(-0.125, abs=1.0e-8)

    def test_density_at_two_pi_e(self, tmp_path):
        result = _run(["count", "--t", repr(TWO_PI * math.e)], tmp_path)
        assert result.returncode == 0, result.stderr
        values = _parse_kv(result.stdout)
        assert values["density"] == pytest.approx(1.0 / TWO_PI, rel=1.0e-12)

    def test_optional_out_path_mirrors_stdout(self, tmp_path):
        out = tmp_path / "count.txt"
        result = _run(["count", "--t", "100", "--out-path", str(out)],
                      tmp_path)
        assert result.returncode == 0, result.stderr
        assert out.read_text() == result.stdout

    @pytest.mark.parametrize("existing, expected", [(None, 0o644), (0o600, 0o600)],
                             ids=["new", "existing-0600"])
    def test_out_path_gets_the_mode_of_a_plain_open(self, tmp_path, existing,
                                                   expected):
        # The temp file behind the atomic write is created 0o600; the
        # output must get the mode open(path, "w") leaves: 0o666 less the
        # umask for a new file, its own mode for an existing one.
        code = ("import os, sys, rzs.cli; os.umask(0o022); "
                "sys.exit(rzs.cli.main(sys.argv[1:]))")
        out = tmp_path / "c.txt"
        if existing is not None:
            out.write_text("old\n")
            out.chmod(existing)
        result = _run(["count", "--t", "100", "--out-path", str(out)], tmp_path,
                      python_args=("-c", code))
        assert result.returncode == 0, result.stderr
        assert out.read_text() == result.stdout
        assert out.stat().st_mode & 0o777 == expected

    def test_nonpositive_height_fails_cleanly(self, tmp_path):
        result = _run(["count", "--t", "0"], tmp_path)
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith("error: ")

    def test_subnormal_height_fails_with_one_line(self, tmp_path):
        # t/2pi underflows to 0 at t = 5e-324.
        result = _run(["count", "--t", "5e-324"], tmp_path)
        assert result.returncode == 1, result.stdout
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1, result.stderr
        assert result.stdout == ""

    def test_count_near_the_largest_double(self, tmp_path):
        # N(1.6064e306) ~ 1.7954e308 is finite, though u ln u overflows
        # there; N(1e307) is not.
        result = _run(["count", "--t", "1.6064e306"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert math.isfinite(_parse_kv(result.stdout)["n_estimate"])
        result = _run(["count", "--t", "1e307"], tmp_path)
        assert result.returncode == 1, result.stdout
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1, result.stderr
        assert result.stdout == ""


# ----------------------------------------------------------------------
# bubble
# ----------------------------------------------------------------------

class TestBubbleCommand:
    def test_log_spaced_grid_with_undefined_marker(self, tmp_path):
        out = tmp_path / "bubble.csv"
        result = _run(["bubble", "--t-min", "0.5", "--t-max", "1e6",
                       "--points", "13", "--mass2", "1.0",
                       "--out-path", str(out)], tmp_path)
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "t,pi,correlator,asymptote"
        assert len(lines) == 14
        ts = [float(line.split(",")[0]) for line in lines[1:]]
        assert ts[0] == pytest.approx(0.5, rel=1.0e-12)
        assert ts[-1] == pytest.approx(1.0e6, rel=1.0e-12)
        ratios = [b / a for a, b in zip(ts, ts[1:])]
        for ratio in ratios[1:]:
            assert ratio == pytest.approx(ratios[0], rel=1.0e-9)
        # t = 0.5 and the grid point at t = 1.0 sit at or below m^2.
        markers = [line.split(",")[3] for line in lines[1:]]
        assert markers[0] == "nan"
        assert all(marker != "nan" for marker in markers[2:])

    def test_rows_are_consistent_samples(self, tmp_path):
        out = tmp_path / "bubble.csv"
        result = _run(["bubble", "--t-min", "2", "--t-max", "100",
                       "--points", "5", "--out-path", str(out)], tmp_path)
        assert result.returncode == 0, result.stderr
        for line in out.read_text().splitlines()[1:]:
            t, pi_value, correlator, asymptote = (float(x)
                                                  for x in line.split(","))
            assert pi_value > 0.0
            assert correlator == pytest.approx(1.0 / pi_value, rel=1.0e-15)
            assert asymptote == pytest.approx(TWO_PI * t / math.log(t),
                                              rel=1.0e-12)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["bubble", "--t-min", "1", "--t-max", "1e4",
                "--out-path", "bubble.csv"]
        result = _run(args, tmp_path)
        assert result.returncode == 0, result.stderr
        first = (tmp_path / "bubble.csv").read_bytes()
        result = _run(args, tmp_path)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "bubble.csv").read_bytes() == first

    def test_failing_row_after_the_first_block_writes_nothing(
            self, tmp_path, monkeypatch):
        # Rows reach a temp file block by block (1,024 rows a block).  A
        # row that fails once the first block is on disk removes the temp
        # file and leaves the existing output as it was.
        out = tmp_path / "bubble.csv"
        out.write_bytes(b"old,output\n")
        real, calls, on_disk = rzs.cli.correlator_sample, [], []

        def failing(t, mass2):
            calls.append(t)
            if len(calls) == 1500:
                on_disk.extend(p.stat().st_size for p in tmp_path.glob(".rzs-tmp-*"))
                raise rzs.DomainError("bubble: injected failure")
            return real(t, mass2)

        monkeypatch.setattr(rzs.cli, "correlator_sample", failing)
        argv = ["bubble", "--t-min", "1", "--t-max", "1e4", "--points", "2000",
                "--out-path", str(out)]
        assert rzs.cli.main(argv) == 1
        assert len(on_disk) == 1 and on_disk[0] > 0  # the first block
        assert out.read_bytes() == b"old,output\n"
        assert not list(tmp_path.glob(".rzs-tmp-*"))

    def test_infinite_t_max_fails_with_one_line(self, tmp_path):
        out = tmp_path / "bubble.csv"
        result = _run(["bubble", "--t-min", "1", "--t-max", "inf",
                       "--out-path", str(out)], tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1, result.stderr
        assert not out.exists()

    def test_overflowing_t_max_fails_with_one_line(self, tmp_path):
        # At t = 1e308 the denominator 2 pi f t of Pi overflows.
        out = tmp_path / "bubble.csv"
        result = _run(["bubble", "--t-min", "1", "--t-max", "1e308",
                       "--out-path", str(out)], tmp_path)
        assert result.returncode == 1, result.stdout
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1, result.stderr
        assert not out.exists()

    def test_overflowing_ratio_prints_finite_values(self, tmp_path):
        # t/m2 and (1 + f) sqrt(t)/(2 sqrt(m2)) overflow at both points.
        out = tmp_path / "bubble.csv"
        result = _run(["bubble", "--t-min", "1e299", "--t-max", "1e300",
                       "--points", "2", "--mass2", "1e-320",
                       "--out-path", str(out)], tmp_path)
        assert result.returncode == 0, result.stderr
        rows = [[float(x) for x in line.split(",")]
                for line in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == [1.0e299, 1.0e300]
        with mpmath.workdps(700):
            for t, pi_value, correlator, asymptote in rows:
                f = mpmath.sqrt(1 + 4 * mpmath.mpf(1.0e-320) / t)
                pi_ref = mpmath.log((1 + f) / (f - 1)) / (2 * mpmath.pi * f * t)
                asym_ref = 2 * mpmath.pi * t / mpmath.log(t / mpmath.mpf(1.0e-320))
                assert abs(pi_value / pi_ref - 1) <= 1.0e-14
                assert abs(correlator * pi_ref - 1) <= 1.0e-14
                assert abs(asymptote / asym_ref - 1) <= 1.0e-14

    def test_grid_is_exact_to_8_eps(self):
        # The benchmark's bubble range: t_min in [1e-3, 1], t_max in
        # [1e3, 1e8], log-uniform, 50 points.
        rng = random.Random(20261018)
        eps = sys.float_info.epsilon
        with mpmath.workdps(40):
            for _ in range(1500):
                t_min = math.exp(rng.uniform(math.log(1.0e-3), 0.0))
                t_max = math.exp(rng.uniform(math.log(1.0e3), math.log(1.0e8)))
                grid = rzs.cli._log_grid(t_min, t_max, 50)
                assert len(grid) == 50
                assert grid[0] == t_min and grid[-1] == t_max
                assert all(b > a for a, b in zip(grid, grid[1:]))
                # t_min (t_max/t_min)^(i/49) as t_min q^i, q = (t_max/t_min)^(1/49).
                step = (mpmath.mpf(t_max) / t_min) ** (mpmath.mpf(1) / 49)
                exact = mpmath.mpf(t_min)
                for i, t in enumerate(grid):
                    assert abs(t - exact) <= 8 * eps * exact, (t_min, t_max, i)
                    exact *= step

    def test_grid_sizes_and_overflowing_span(self):
        assert rzs.cli._log_grid(2.0, 8.0, 1) == [2.0]
        assert rzs.cli._log_grid(2.0, 8.0, 2) == [2.0, 8.0]
        assert rzs.cli._log_grid(2.0, 8.0, 3) == [2.0, 4.0, 8.0]
        # t_max/t_min overflows: the logarithms are interpolated.
        grid = rzs.cli._log_grid(1.0e-300, 1.0e300, 3)
        assert grid[0] == 1.0e-300 and grid[-1] == 1.0e300
        assert grid[1] == pytest.approx(1.0, rel=1.0e-13)

    def test_bad_grid_fails_cleanly(self, tmp_path):
        out = tmp_path / "bubble.csv"
        result = _run(["bubble", "--t-min", "0", "--t-max", "10",
                       "--out-path", str(out)], tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert not out.exists()


# ----------------------------------------------------------------------
# gap
# ----------------------------------------------------------------------

class TestGapCommand:
    def test_special_point(self, tmp_path):
        coupling = math.sqrt(4.0 * math.pi / (2.0 * math.log(2.0)))
        result = _run(["gap", "--coupling", repr(coupling),
                       "--n-components", "2", "--cutoff", "5"], tmp_path)
        assert result.returncode == 0, result.stderr
        values = _parse_kv(result.stdout)
        assert values["m2"] == pytest.approx(25.0, rel=1.0e-8)
        assert values["residual"] <= 1.0e-6 / coupling**2

    @pytest.mark.parametrize("coupling, cutoff", [
        ("1e200", "1"), ("1", "inf"), ("1", "1e200"),
    ])
    def test_extreme_inputs_fail_with_one_line(self, tmp_path, coupling, cutoff):
        result = _run(["gap", "--coupling", coupling, "--n-components", "3",
                       "--cutoff", cutoff], tmp_path)
        assert result.returncode == 1, result.stdout
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1, result.stderr
        assert result.stdout == ""

    def test_huge_component_count_fails_with_one_line(self, tmp_path):
        # A 401-digit N does not convert to a float.
        result = _run(["gap", "--coupling", "1", "--n-components", "1" * 401,
                       "--cutoff", "1"], tmp_path)
        assert result.returncode == 1, result.stdout
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1, result.stderr
        assert result.stdout == ""

    def test_unphysical_parameters_fail_cleanly(self, tmp_path):
        out = tmp_path / "gap.txt"
        result = _run(["gap", "--coupling", "4", "--n-components", "2",
                       "--cutoff", "1", "--out-path", str(out)], tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""
        assert not out.exists()


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

class TestCompareCommand:
    def test_json_report_row_100(self, tmp_path):
        out = tmp_path / "report.json"
        result = _run(["compare", "--n-max", "100", "--mass2", "6.283185307",
                       "--out-path", str(out)], tmp_path)
        assert result.returncode == 0, result.stderr
        parsed = json.loads(out.read_text())
        assert set(parsed) == {"m2", "rows", "summary", "fit"}
        assert parsed["m2"] == 6.283185307
        assert parsed["rows"][0][0] == 7
        assert parsed["rows"][-1][0] == 100
        n, gamma, prediction, asym, rel_dev = parsed["rows"][-1]
        assert gamma == pytest.approx(236.5242, abs=1.0e-3)
        assert prediction == pytest.approx(243.83197517257128, rel=1.0e-8)
        assert asym == pytest.approx(227.0516723626318, rel=1.0e-12)
        assert rel_dev == pytest.approx(0.030896359, rel=1.0e-5)
        assert set(parsed["fit"]) == {"slope", "intercept", "residual"}

    def test_rerun_is_byte_identical(self, tmp_path):
        # The second run lets OpenBLAS use two threads.  rzs calls no BLAS
        # (the slope fit is in closed form), so the JSON, fit included,
        # must not depend on them.
        args = ["compare", "--n-max", "60", "--out-path", "report.json"]
        result = _run(args, tmp_path)
        assert result.returncode == 0, result.stderr
        first = (tmp_path / "report.json").read_bytes()
        result = _run(args, tmp_path, env_extra={"OPENBLAS_NUM_THREADS": "2"})
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "report.json").read_bytes() == first

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        result = _run(["compare", "--n-max", "60", "--format", "csv",
                       "--out-path", str(out)], tmp_path)
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "n,gamma,prediction,asym_prediction,rel_dev"
        assert len(lines) == 55  # rows n = 7..60

    def test_csv_needs_no_fit_rows(self, tmp_path):
        # 14 rows are too few for the slope fit, which only the JSON carries.
        out = tmp_path / "report.csv"
        result = _run(["compare", "--n-max", "20", "--format", "csv",
                       "--out-path", str(out)], tmp_path)
        assert result.returncode == 0, result.stderr
        assert len(out.read_text().splitlines()) == 15  # header, n = 7..20

    def test_too_small_n_max_fails_cleanly(self, tmp_path):
        # Below g_-1 there is no Gram point to scan to; n_max <= -3 must
        # still end in the one error line of build_report.
        out = tmp_path / "report.json"
        for n_max in ("5", "0", "-5"):
            result = _run(["compare", f"--n-max={n_max}", "--out-path", str(out)],
                          tmp_path)
            assert result.returncode == 1
            assert result.stderr == "error: build_report: need n_max >= 10\n"
            assert result.stdout == ""
            assert not out.exists()

    def test_scan_height_covers_n_max_without_overscan(self):
        # The scan height g_{n_max+1} must hold n_max + 1 to n_max + 3
        # zeros, for every n_max up to the 10142 zeros below the supported
        # height, and at least n_max where T_SUPPORT_MAX caps it (n_max
        # 10141 and 10142 get +1 and +0).  Counts at heights up to
        # t = 3001.02 come from every zero there from mpmath, committed
        # with the benchmark; above, from one full scan, whose counts are
        # exact by Rosser's rule and match mpmath up to t = 3000.
        reference = json.loads(_REFERENCE.read_text())["full"]
        scanned = rzs.scan_zeros(0.0, 1.0e4, 1.0e-8).gamma
        assert len(scanned) == 10142
        for n_max in range(1, len(scanned) + 1):
            t_upper = rzs.cli._scan_upper_for(n_max)
            heights = reference if t_upper <= reference[-1] else scanned
            count = bisect.bisect_right(heights, t_upper)
            below_cap = t_upper < rzs.zeta.T_SUPPORT_MAX
            assert count >= n_max + below_cap, (n_max, t_upper)
            if t_upper <= heights[-1]:
                assert count <= n_max + 3, (n_max, t_upper)


# ----------------------------------------------------------------------
# CPU dispatch
# ----------------------------------------------------------------------

# Turns numpy's AVX-512 loops off, so tan, log and the rest take the AVX2
# or baseline ones.
_NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES":
              "AVX512_SPR AVX512_ICL AVX512_CNL AVX512_CLX AVX512_SKX X86_V4"}
_AVX512_PROBE = ("-c", "import numpy._core._multiarray_umath as m; "
                       "print(m.__cpu_features__['AVX512_SKX'])")


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="item 1b: the printed zeros are raw roots of the computed Z, whose "
           "last bits follow numpy's CPU dispatch; without AVX-512, 3 rows of "
           "zeros --t-max 1e4 (n = 2294, 3272, 7616) and 1 row of "
           "compare --n-max 5000 (n = 3272) change",
)
def test_output_bytes_do_not_depend_on_cpu_dispatch(tmp_path):
    """zeros --t-max 1e4 and compare --n-max 5000 give the same bytes in a
    child with numpy's AVX-512 loops and in one without them.  On a host
    without AVX-512 both children take the same loops, so the test shows
    nothing there and is skipped."""
    native = _run([], tmp_path, python_args=_AVX512_PROBE).stdout.strip()
    if native != "True":
        pytest.skip(f"AVX512_SKX reads {native!r}: both children would "
                    "take the same loops")
    disabled = _run([], tmp_path, _NO_AVX512, python_args=_AVX512_PROBE)
    if disabled.stdout.strip() != "False":
        pytest.fail("NPY_DISABLE_CPU_FEATURES left AVX512_SKX on: "
                    f"{disabled.stdout.strip()!r} {disabled.stderr.strip()!r}")
    outputs = {}
    for env in (None, _NO_AVX512):
        for args in (["zeros", "--t-max", "1e4"], ["compare", "--n-max", "5000"]):
            out = tmp_path / "out"
            result = _run([*args, "--out-path", str(out)], tmp_path, env)
            if result.returncode != 0:
                pytest.fail(result.stderr)
            outputs.setdefault(args[0], []).append(out.read_bytes())
    assert outputs["zeros"][0] == outputs["zeros"][1]
    assert outputs["compare"][0] == outputs["compare"][1]


# ----------------------------------------------------------------------
# argument handling and import
# ----------------------------------------------------------------------

class TestArgumentHandling:
    def test_unknown_flag_is_usage_error(self, tmp_path):
        result = _run(["count", "--t", "10", "--bogus", "1"], tmp_path)
        assert result.returncode == 2, result.stderr

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        result = _run(["zeros", "--out-path", "x.csv"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("args", [
        ["zeros", "--t-max", "60"],
        ["bubble", "--t-min", "1", "--t-max", "10"],
    ])
    def test_csv_only_commands_take_no_format_flag(self, tmp_path, args):
        result = _run([*args, "--out-path", "x.csv", "--format", "csv"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_command_is_usage_error(self, tmp_path):
        result = _run(["frobnicate"], tmp_path)
        assert result.returncode == 2, result.stderr

    def test_missing_command_is_usage_error(self, tmp_path):
        result = _run([], tmp_path)
        assert result.returncode == 2, result.stderr


class TestProcessEntry:
    """rzs.cli.run ends the process with os._exit once main returns, so
    nothing may depend on interpreter teardown.  A child that inherits
    PYTHONUNBUFFERED=1 writes every line at once; without it stdout is
    block-buffered into a pipe, and run's flush is the only one."""

    @pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
    def test_closed_stdout_gives_one_line_error(self, tmp_path, unbuffered):
        # argparse writes the help text itself and drops an OSError of
        # that write, so --help takes the same check as a command.
        for args in (["count", "--t", "100"], ["--help"]):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                result = subprocess.run(
                    [sys.executable, "-m", "rzs", *args],
                    stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
                    env=_child_env({"PYTHONUNBUFFERED": unbuffered}), timeout=300)
            finally:
                os.close(write_end)
            assert result.returncode == 1, (args, result.stderr)
            assert result.stderr == "error: [Errno 32] Broken pipe\n", args

    @pytest.mark.parametrize("args, code", [
        (["count", "--t", "1000"], 0),
        (["gap", "--coupling", "1", "--n-components", "3", "--cutoff", "10",
          "--out-path", "g.txt"], 0),
        (["--help"], 0),
        (["count", "--t", "10", "--bogus", "1"], 2),
    ], ids=["count", "gap-out-path", "help", "usage-error"])
    def test_block_buffered_stdout_matches_main(self, tmp_path, monkeypatch,
                                                capsys, args, code):
        # The help text wraps at COLUMNS in both processes.
        monkeypatch.setenv("COLUMNS", "80")
        child_dir = tmp_path / "child"
        main_dir = tmp_path / "main"
        child_dir.mkdir()
        main_dir.mkdir()
        result = _run(args, child_dir, {"PYTHONUNBUFFERED": None})
        monkeypatch.chdir(main_dir)
        assert rzs.cli.main(args) == code
        expected = capsys.readouterr().out
        assert result.returncode == code, result.stderr
        assert result.stdout == expected
        if code == 0:
            assert expected
        if "--out-path" in args:
            assert (child_dir / "g.txt").read_text() == result.stdout
        assert not list(child_dir.glob(".rzs-tmp-*"))

    def test_both_launchers_enter_through_run(self):
        # The rzs console script is not installed here, so it is checked
        # through pyproject.toml rather than launched.
        tomllib = pytest.importorskip("tomllib")
        root = pathlib.Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["rzs"]
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is rzs.cli.run
        package = pathlib.Path(rzs.__file__).parent
        guards = {}
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text())
            guards[path.name] = [
                node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
        # python -m rzs is the one module launcher: no other module of the
        # package, rzs.cli included, runs as a script.
        assert [name for name, found in guards.items() if found] == ["__main__.py"]
        assert len(guards["__main__.py"]) == 1
        calls = [node.func.id for node in ast.walk(guards["__main__.py"][0])
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
        assert calls == ["run"]


class TestImport:
    def test_import_leaves_scipy_unloaded(self, tmp_path):
        # A fresh interpreter, so that nothing this test process loaded
        # counts.  Both quadratures, the gap residual and the Feynman
        # integral, must run without SciPy.
        code = ("import sys, rzs, rzs.cli; "
                "rzs.cli.main(['gap', '--coupling', '1', '--n-components', '3', "
                "'--cutoff', '10']); "
                "rzs.feynman_integral(rzs.BubbleSpec(1.0, 2.0, 2.0, 3.0, 1.0)); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        result = _run([], tmp_path, python_args=("-c", code))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_no_module_imports_scipy(self):
        # SciPy is no dependency, not even of the tests: no module of the
        # package, the tests or the demos may import it, at the top or
        # inside a function.  In the package, numpy may be imported only
        # at the top of the two modules that compute with arrays, which
        # the rest import lazily, and records are named tuples, so
        # nothing imports dataclasses.
        package = pathlib.Path(rzs.__file__).parent
        root = pathlib.Path(__file__).resolve().parents[1]
        paths = [*package.rglob("*.py"), *root.glob("tests/*.py"),
                 *root.glob("demos/*.py")]
        offenders = []
        for path in paths:
            in_package = package in path.parents
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                numpy_ok = not in_package or (
                    path.name in ("_zkernels.py", "correspond.py")
                    and node in tree.body)
                banned = ("scipy", "dataclasses") if in_package else ("scipy",)
                offenders += [f"{path.name}:{node.lineno}" for name in names
                              if name.split(".")[0] in banned
                              or (name.split(".")[0] == "numpy" and not numpy_ok)]
        assert len(paths) > 20 and offenders == []

    def test_one_number_spec_and_one_row_writer(self):
        # Every number rzs prints comes from the one spec zeta._SPEC, and
        # every table from zeta._format_rows: the package spells .17g once
        # and joins strings on a literal separator nowhere else.
        package = pathlib.Path(rzs.__file__).parent
        spellings, joins = [], []
        for path in package.rglob("*.py"):
            text = path.read_text()
            spellings += [f"{path.name}:{line}" for line in text.splitlines()
                          if ".17g" in line]
            tree = ast.parse(text, str(path))
            writer = {node for func in ast.walk(tree)
                      if isinstance(func, ast.FunctionDef)
                      and func.name == "_format_rows" for node in ast.walk(func)}
            joins += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "join"
                      and isinstance(node.func.value, ast.Constant)
                      and node not in writer]
        assert spellings == ['zeta.py:_SPEC = "%.17g"']
        assert joins == []

    def test_one_main_sum_kernel_for_z(self):
        # Euler-Maclaurin and Riemann-Siegel share the main sum of
        # n^{-1/2} cos(theta - t ln n): the package calls np.tan once, in
        # _main_sum, which takes each cosine from the half-angle tangent,
        # calls np.cos and np.sin nowhere, and forms no outer-product matrix.
        package = pathlib.Path(rzs.__file__).parent
        trig_calls, outers = [], []
        for path in package.rglob("*.py"):
            tree = ast.parse(path.read_text(), str(path))
            kernel = {node for func in ast.walk(tree)
                      if isinstance(func, ast.FunctionDef)
                      and func.name == "_main_sum" for node in ast.walk(func)}
            trig_calls += [(path.name, ast.unparse(node.func), node in kernel)
                           for node in ast.walk(tree) if isinstance(node, ast.Call)
                           and ast.unparse(node.func) in ("np.cos", "np.sin", "np.tan")]
            outers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and node.attr == "outer"]
        assert trig_calls == [("_zkernels.py", "np.tan", True)]
        assert outers == []

    def test_no_blas_or_lapack_call(self):
        # log_slope_fit solves its 2-parameter least squares in closed
        # form, so no code path of rzs reaches numpy's BLAS or LAPACK: no
        # solver or product routine is named, imported or applied with @.
        blas = {"polyfit", "linalg", "lstsq", "dot", "matmul", "einsum",
                "inner", "vdot", "tensordot"}
        package = pathlib.Path(rzs.__file__).parent
        offenders = []
        for path in package.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.MatMult):
                    offenders.append(f"{path.name}:@")
                    continue
                # A bare name such as dot reaches numpy only through an
                # import, so local variables (cli._log_grid's inner) pass.
                if isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [getattr(node, "module", None) or "",
                             *(alias.name for alias in node.names)]
                else:
                    continue
                offenders += [f"{path.name}:{node.lineno}:{name}" for name in names
                              if blas & set(name.split("."))]
        assert offenders == []

    def test_short_commands_leave_numpy_unloaded(self, tmp_path):
        # count, gap and bubble compute with math alone; zeros and
        # compare scan with the numpy kernels, whose Riemann-Siegel
        # corrections (t_max = 50 is above the crossover) sum the committed
        # Chebyshev series of Psi and that of Psi''', derived from it at
        # import, without numpy.polynomial.
        code = ("import sys, rzs, rzs.cli; main = rzs.cli.main; "
                "main(['count', '--t', '100']); "
                "main(['gap', '--coupling', '1', '--n-components', '3', "
                "'--cutoff', '10']); "
                "main(['bubble', '--t-min', '0.5', '--t-max', '1e6', "
                "'--out-path', 'bubble.csv']); "
                "print('numpy' in sys.modules); "
                "main(['zeros', '--t-max', '50', '--out-path', 'zeros.csv']); "
                "print('numpy' in sys.modules, 'numpy.polynomial' in sys.modules); "
                "main(['compare', '--n-max', '60', '--out-path', 'report.json']); "
                "print('numpy.polynomial' in sys.modules)")
        result = _run([], tmp_path, python_args=("-c", code))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-3:] == ["False", "True False", "False"]

    _THREADS_AFTER_ZEROS = (
        "import os, rzs.cli; "
        "rzs.cli.main(['zeros', '--t-max', '50', '--out-path', 'zeros.csv']); "
        "print(len(os.listdir('/proc/self/task')), "
        "repr(os.environ.get('OPENBLAS_NUM_THREADS')))")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc/self/task to count threads")
    def test_cli_loads_numpy_without_a_blas_worker(self, tmp_path):
        # numpy's OpenBLAS starts a worker thread per extra core unless
        # told otherwise; main tells it, so the process keeps its one
        # thread.  On a 1-core host OpenBLAS starts no worker either way,
        # so there the test shows nothing.
        result = _run([], tmp_path, dict.fromkeys(_BLAS_THREAD_VARS),
                      python_args=("-c", self._THREADS_AFTER_ZEROS))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["1 '1'"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc/self/task to count threads")
    def test_user_blas_thread_count_wins(self, tmp_path):
        env = {**dict.fromkeys(_BLAS_THREAD_VARS), "OPENBLAS_NUM_THREADS": "2"}
        result = _run([], tmp_path, env,
                      python_args=("-c", self._THREADS_AFTER_ZEROS))
        assert result.returncode == 0, result.stderr
        assert result.stdout.split()[-1] == "'2'"

    def test_import_leaves_the_environment_unchanged(self, tmp_path):
        # Only main sets the BLAS default: importing the package, the CLI
        # or the numpy-loading report module must not.
        code = ("import os, rzs, rzs.cli, rzs.correspond; "
                "print(repr(os.environ.get('OPENBLAS_NUM_THREADS')))")
        result = _run([], tmp_path, dict.fromkeys(_BLAS_THREAD_VARS),
                      python_args=("-c", code))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["None"]

    def test_main_after_numpy_leaves_the_environment_unchanged(
            self, monkeypatch, capsys):
        # Once numpy has loaded, the variable has no effect, so a host
        # process that calls main keeps the environment it had.
        import numpy  # noqa: F401

        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        assert rzs.cli.main(["count", "--t", "100"]) == 0
        assert capsys.readouterr().out.startswith("t = 100\n")
        assert dict(os.environ) == before

    def test_public_names_resolve_to_their_home_modules(self):
        homes = {"rzs.bubble", "rzs.correspond", "rzs.errors", "rzs.zeta"}
        for name in rzs.__all__:
            obj = getattr(rzs, name)
            if name == "__version__":
                continue
            assert obj.__module__ in homes, name
            assert getattr(sys.modules[obj.__module__], name) is obj, name
        for module in ("bubble", "correspond", "errors", "zeta"):
            assert getattr(rzs, module) is sys.modules[f"rzs.{module}"]

    def test_dir_and_star_import_cover_all(self):
        assert set(rzs.__all__) <= set(dir(rzs))
        namespace = {}
        exec("from rzs import *", namespace)
        assert set(rzs.__all__) <= set(namespace)
        assert namespace["scan_zeros"] is rzs.zeta.scan_zeros

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rzs.no_such_name
        assert not hasattr(rzs, "_zkernels_typo")


# ----------------------------------------------------------------------
# demos
# ----------------------------------------------------------------------

_DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


class TestDemos:
    def test_all_four_demos_are_found(self):
        assert [demo.name for demo in _DEMOS] == [
            "bubble_routes.py", "mass_gap.py", "zero_hunt.py",
            "zeros_meet_bubble.py"]

    @pytest.mark.parametrize("demo", _DEMOS, ids=lambda demo: demo.name)
    def test_demo_runs_cleanly(self, demo, tmp_path):
        result = _run([], tmp_path, python_args=(str(demo),))
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert result.stdout
