"""Tests for tools/ab.py, the pairing and the summary on canned runs and
the choice of change and parent on scratch repositories, and for
tools/bitcheck.py on a scratch copy of the package."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import shutil
import sys

import pytest

_REPO = pathlib.Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load("ab")

END_TO_END = [
    {"name": "wall_p50_s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
]


def _run(workload, pair, side, wall, ops, failed=0, correct=True, err=0.0):
    return {"workload": workload, "pair": pair, "seed": pair, "side": side,
            "correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"wall_p50_s": {"value": wall, "unit": "s"},
                        "ops_per_s": {"value": ops, "unit": "1/s"}},
            "accuracy": {"error_rate": failed / 10, "zero_err_max": err,
                         "bracket_miss_share": 0.5, "pi_rel_err_max": 0.0}}


# An untraced zeros-1e4 run's output, as bench/run.py prints it.
RUN_OUTPUT = """\
# rzs benchmark: workload=zeros-1e4 seed=1 seconds=2 trace=0
# why: the headline command rzs zeros --t-max 1e4 in a fresh process
env {"python": "3.11.7", "nproc": 2}
metric setup_s = 0.06144963299448136 s  [median of 7 fresh set-up processes]
metric wall_p50_s = 0.22942348049400607 s  [n=8]
metric ops_per_s = 4.446237280987787 1/s  [8 completed operations in 1.799 s]
metric peak_rss_mb = 31.69921875 MB  [largest child process]
wall_tail_s: not reported: 8 operations, the rule needs 10 beyond the p75
metric error_rate = 0.125 ratio  [1 of 8 operations failed {'index': 1}]
metric zero_err_max = 0.00046458377025970776 t  [max over 20272 checked zeros]
metric bracket_miss_share = 0.9988161010260458 ratio  [20248 of 20272 reference zeros outside their reported bracket]
metric pi_rel_err_max = 0.0 ratio  [not applicable: no pi, correlator or prediction value computed]
# first failure of its kind: metric zero_err_max = 1.0 t
{"correct": true, "attempted": 8, "failed": 1, "metrics": {"setup_s": {"value": 0.06144963299448136, "unit": "s"}}}
"""


def test_a_run_is_read_with_its_accuracy_figures():
    assert ab.parse_run(RUN_OUTPUT) == {
        "correct": True, "attempted": 8, "failed": 1,
        "metrics": {"setup_s": {"value": 0.06144963299448136, "unit": "s"}},
        "accuracy": {"error_rate": 0.125, "zero_err_max": 0.00046458377025970776,
                     "bracket_miss_share": 0.9988161010260458, "pi_rel_err_max": 0.0}}
    missing = RUN_OUTPUT.replace("metric pi_rel_err_max", "pi_rel_err_max")
    with pytest.raises(ValueError, match="pi_rel_err_max"):
        ab.parse_run(missing)


def test_pairs_alternate_which_side_runs_first():
    assert [ab.pair_order(i) for i in range(4)] == [
        ("base", "head"), ("head", "base"), ("base", "head"), ("head", "base")]


def test_summary_of_canned_runs():
    walls = {"base": [1.0, 2.0, 3.0, 4.0, 5.0], "head": [0.5, 2.0, 2.0, 5.0, 4.0]}
    ops = {"base": [10.0, 20.0, 30.0, 40.0, 50.0],
           "head": [11.0, 21.0, 29.0, 40.0, 60.0]}
    runs = [_run("w", i, side, walls[side][i], ops[side][i],
                 failed=int(side == "head" and i == 3), err=i * 1.0e-4)
            for i in range(5) for side in ab.pair_order(i)]
    runs += [_run("v", i, side, 1.0, 1.0, correct=side == "base")
             for i in range(2) for side in ab.SIDES]

    summary = ab.summarize(runs, END_TO_END)
    assert list(summary) == ["w", "v"]
    w = summary["w"]
    # Each side's worst accuracy figures over its runs.
    accuracy = {"error_rate": 0.0, "zero_err_max": 4.0e-4,
                "bracket_miss_share": 0.5, "pi_rel_err_max": 0.0}
    assert w["base"] == {"attempted": 50, "failed": 0, "broken_runs": 0,
                         "accuracy": accuracy}
    assert w["head"] == {"attempted": 50, "failed": 1, "broken_runs": 0,
                         "accuracy": {**accuracy, "error_rate": 0.1}}
    assert summary["v"]["head"]["broken_runs"] == 2

    wall = w["metrics"]["wall_p50_s"]
    assert wall["pairs"] == 5
    # The benchmark's own quartiles: statistics.quantiles' default method.
    assert (wall["base"]["q1"], wall["base"]["median"], wall["base"]["q3"]) == (
        1.5, 3.0, 4.5)
    assert wall["head"]["median"] == 2.0
    # Lower is better: the head wins pairs 0, 2 and 4, loses pair 3, and
    # pair 1 is a tie, which counts for neither side.
    assert (wall["head_wins"], wall["base_wins"]) == (3, 1)
    assert wall["rel_worse"] == pytest.approx(-1.0 / 3.0)
    assert wall["within_bound"]
    assert wall["base_rel_iqr"] == pytest.approx(1.0)

    rate = w["metrics"]["ops_per_s"]
    # Higher is better: the head wins pairs 0, 1 and 4, loses pair 2, and
    # pair 3 is a tie.
    assert (rate["head_wins"], rate["base_wins"]) == (3, 1)
    assert rate["rel_worse"] == pytest.approx(0.1 / 3.0)
    assert rate["within_bound"]


def test_warm_scan_summary_of_canned_times():
    times = {"base": [0.040, 0.036, 0.038, 0.037, 0.041, 0.039],
             "head": [0.035, 0.036, 0.039, 0.034, 0.036, 0.037]}
    warm = ab.compare(times, "lower")
    assert warm["pairs"] == 6
    assert warm["base"] == pytest.approx(
        {"median": 0.0385, "q1": 0.03675, "q3": 0.04025})
    assert warm["head"] == pytest.approx(
        {"median": 0.036, "q1": 0.03475, "q3": 0.0375})
    # The head wins pairs 0, 3, 4 and 5 and loses pair 2; pair 1 is a tie.
    assert (warm["head_wins"], warm["base_wins"]) == (4, 1)
    assert warm["rel_worse"] == pytest.approx(-0.0025 / 0.0385)
    assert warm["base_rel_iqr"] == pytest.approx(0.0035 / 0.0385)


def test_a_worse_median_beyond_its_bound_is_flagged():
    runs = [_run("w", i, side, 1.0 if side == "base" else 1.3, 1.0)
            for i in range(3) for side in ab.SIDES]
    wall = ab.summarize(runs, END_TO_END)["w"]["metrics"]["wall_p50_s"]
    assert wall["rel_worse"] == pytest.approx(0.3)
    assert not wall["within_bound"]
    assert (wall["head_wins"], wall["base_wins"]) == (0, 3)


def _scratch_repo(tmp_path, monkeypatch):
    """An empty git repository under tmp_path that ab's git runs in."""
    # The tests' own commits need an identity.
    for key in ("GIT_AUTHOR_NAME", "GIT_COMMITTER_NAME"):
        monkeypatch.setenv(key, "a")
    for key in ("GIT_AUTHOR_EMAIL", "GIT_COMMITTER_EMAIL"):
        monkeypatch.setenv(key, "a@b")
    repo = tmp_path / "repo"
    repo.mkdir()
    monkeypatch.setattr(ab, "ROOT", str(repo))
    ab.git("init", "-q")
    return repo


def _commit(*args):
    ab.git("commit", "-q", *args)
    return ab.git("rev-parse", "HEAD").decode().strip()


def test_parent_is_head_until_the_change_is_committed(tmp_path, monkeypatch):
    repo, head = _scratch_repo(tmp_path, monkeypatch), tmp_path / "head"
    (repo / "f").write_text("1")
    ab.git("add", "f")
    first = _commit("-m", "first")
    (repo / "f").write_text("2")  # an unstaged edit
    (repo / "g").write_text("3")
    ab.git("add", "g")  # a staged new file
    (repo / "untracked").write_text("")  # not part of the change
    status = ab.git("status", "--porcelain")
    assert ab.parent() == (first, False)
    ab.copy(ab.change(), str(head))
    assert sorted(p.name for p in head.iterdir()) == ["f", "g"]
    assert ((head / "f").read_text(), (head / "g").read_text()) == ("2", "3")
    assert ab.git("status", "--porcelain") == status  # no staged content or file changed
    assert not ab.git("stash", "list")

    second = _commit("-am", "second")
    assert ab.parent() == (first, True)
    assert ab.change() == second
    _commit("--allow-empty", "-m", "empty")
    with pytest.raises(SystemExit, match="identical to its parent"):
        ab.parent()


def test_bitcheck_sees_one_changed_kernel_constant(tmp_path, monkeypatch, capsys):
    repo = _scratch_repo(tmp_path, monkeypatch)
    monkeypatch.setitem(sys.modules, "ab", ab)  # bitcheck imports it
    bitcheck = _load("bitcheck")
    shutil.copytree(_REPO / "src" / "rzs", repo / "src" / "rzs",
                    ignore=shutil.ignore_patterns("__pycache__"))
    ab.git("add", "src")
    _commit("-m", "first")

    (repo / "notes").write_text("")
    ab.git("add", "notes")  # a change that leaves the kernels alone
    assert bitcheck.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[1:]] == [
        "z", "bound", "theta", "gram", "gamma", "bracket_lo", "bracket_hi"]
    assert all(line.endswith("equal") for line in lines[1:])

    kernels = repo / "src" / "rzs" / "_zkernels.py"
    text = kernels.read_text()
    assert "THETA_SERIES_T = 10.0\n" in text
    kernels.write_text(text.replace("THETA_SERIES_T = 10.0\n", "THETA_SERIES_T = 11.0\n"))
    assert bitcheck.main() == 1
    out = capsys.readouterr().out
    assert "theta: 250002 values, equal" not in out
    assert "z: 250002 values, equal" not in out
    assert "differ, max |change| " in out

    # A change to refinement and to Z's error model alone: Z and theta keep
    # their bits, the bound and the scan do not.
    clip = "np.clip(x, a + 0.5 * tol, b - 0.5 * tol, out=x)"
    coef = "_RS_ERR_COEF = 0.02  #"
    assert clip in text and coef in text
    kernels.write_text(text.replace(clip, clip.replace("a + 0.5", "a + 0.25"))
                       .replace(coef, coef.replace("0.02", "0.03")))
    assert bitcheck.main() == 1
    out = capsys.readouterr().out
    assert "z: 250002 values, equal" in out
    assert "theta: 250002 values, equal" in out
    assert "bound: 250002 values, equal" not in out
    assert "bound: 250002 values, " in out
    assert "bracket_lo: 10142 values, equal" not in out
    assert "gamma: 10142 values, equal" not in out


# The work of scan_zeros(0, 1e4, 1e-8), counted by the work probe.
WORK_TO_1E4 = {"zeros": 10142, "evaluations": 75508, "calls": 19,
               "main_sum_terms": 2080416, "main_sum_iterations": 1243,
               "chebyshev_terms": 1660692, "clenshaw_calls": 64,
               "theta_evaluations": 136414}


def test_work_counters_of_the_deep_scan():
    # 75,508 Z evaluations in 19 calls and 32 blocks of at most 4,096
    # heights.  The calls are one over the Gram points and t_max, 5 block
    # subdivision levels and 13 Anderson-Bjorck rounds; the scan refines
    # every zero of the supported range at the smallest tol, so the call
    # count also bounds the refinement steps of any zero.  The 75,486 at or
    # above the crossover take the 12 + 10 Chebyshev terms of Psi and C1 in
    # 2 Clenshaw calls per block, and each block's main sum runs to its own
    # largest N.  theta runs once per evaluation and 6 times for each of
    # the 10,151 Gram points.
    assert ab.probe(str(_REPO), "work") == WORK_TO_1E4


def test_the_record_carries_both_sides_work(tmp_path, monkeypatch):
    repo = _scratch_repo(tmp_path, monkeypatch)
    shutil.copytree(_REPO / "src" / "rzs", repo / "src" / "rzs",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = {"command": ["true"], "run_seconds": 1, "workloads": [{"name": "w"}],
            "end_to_end": END_TO_END}
    (repo / "BENCHMARK.json").write_text(json.dumps(spec))
    ab.git("add", ".")
    _commit("-m", "first")
    (repo / "notes").write_text("")
    ab.git("add", "notes")
    monkeypatch.setattr(ab, "BUILD", str(tmp_path / "build"))
    monkeypatch.setattr(ab, "PAIRS", 2)
    # A benchmark run's own fields: the record adds workload, pair, seed, side.
    canned = {k: v for k, v in _run("w", 0, "base", 1.0, 1.0).items()
              if k in ("correct", "attempted", "failed", "metrics", "accuracy")}
    monkeypatch.setattr(ab, "bench_run", lambda root, w, seed, seconds: canned)

    assert ab.main(["--pr", "7"]) == 0
    record = json.loads((repo / "BENCH_7.json").read_text())
    assert record["work"] == {"base": WORK_TO_1E4, "head": WORK_TO_1E4}
    # One warm scan_zeros(0, 1e4, 1e-8) and one warm zeros --t-max 1e4 a
    # side, traced: 1.06 and 1.10 MB at this commit.  The command runs the
    # same scan and then writes its CSV, so it peaks higher.
    scan, zeros = record["scan_traced_peak_bytes"], record["zeros_traced_peak_bytes"]
    assert sorted(scan) == sorted(zeros) == sorted(ab.SIDES)
    for side in ab.SIDES:
        assert all(isinstance(p, int) and 1.0e6 < p < 1.0e7
                   for p in (scan[side], zeros[side]))
        assert scan[side] < zeros[side]
    assert [r["side"] for r in record["runs"]] == ["base", "head", "head", "base"]
    assert record["workloads"]["w"]["head"]["accuracy"] == canned["accuracy"]
    # Two real warm scans a side, each the median of 5 scans in a child.
    warm = record["warm_scan_s"]
    assert warm["pairs"] == 2
    assert all(len(warm["runs"][side]) == 2 for side in ab.SIDES)
    assert all(0.0 < t < 10.0 for side in ab.SIDES for t in warm["runs"][side])
