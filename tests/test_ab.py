"""Tests for tools/ab.py: the pairing and the summary, on canned runs."""

from __future__ import annotations

import importlib.util
import os
import pathlib
import subprocess

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

END_TO_END = [
    {"name": "wall_p50_s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
]


def _run(workload, pair, side, wall, ops, failed=0, correct=True):
    return {"workload": workload, "pair": pair, "seed": pair, "side": side,
            "correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"wall_p50_s": {"value": wall, "unit": "s"},
                        "ops_per_s": {"value": ops, "unit": "1/s"}}}


def test_pairs_alternate_which_side_runs_first():
    assert [ab.pair_order(i) for i in range(4)] == [
        ("base", "head"), ("head", "base"), ("base", "head"), ("head", "base")]


def test_summary_of_canned_runs():
    walls = {"base": [1.0, 2.0, 3.0, 4.0, 5.0], "head": [0.5, 2.0, 2.0, 5.0, 4.0]}
    ops = {"base": [10.0, 20.0, 30.0, 40.0, 50.0],
           "head": [11.0, 21.0, 29.0, 40.0, 60.0]}
    runs = [_run("w", i, side, walls[side][i], ops[side][i],
                 failed=int(side == "head" and i == 3))
            for i in range(5) for side in ab.pair_order(i)]
    runs += [_run("v", i, side, 1.0, 1.0, correct=side == "base")
             for i in range(2) for side in ab.SIDES]

    summary = ab.summarize(runs, END_TO_END)
    assert list(summary) == ["w", "v"]
    w = summary["w"]
    assert w["base"] == {"attempted": 50, "failed": 0, "broken_runs": 0}
    assert w["head"] == {"attempted": 50, "failed": 1, "broken_runs": 0}
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


def test_a_worse_median_beyond_its_bound_is_flagged():
    runs = [_run("w", i, side, 1.0 if side == "base" else 1.3, 1.0)
            for i in range(3) for side in ab.SIDES]
    wall = ab.summarize(runs, END_TO_END)["w"]["metrics"]["wall_p50_s"]
    assert wall["rel_worse"] == pytest.approx(0.3)
    assert not wall["within_bound"]
    assert (wall["head_wins"], wall["base_wins"]) == (0, 3)


def test_parent_is_head_until_the_change_is_committed(tmp_path, monkeypatch):
    env = {**os.environ, "GIT_AUTHOR_NAME": "a", "GIT_AUTHOR_EMAIL": "a@b",
           "GIT_COMMITTER_NAME": "a", "GIT_COMMITTER_EMAIL": "a@b"}

    def commit(*args):
        subprocess.run(["git", "commit", "-q", *args], cwd=tmp_path, env=env,
                       check=True)
        return ab.git("rev-parse", "HEAD").decode().strip()

    monkeypatch.setattr(ab, "ROOT", str(tmp_path))
    ab.git("init", "-q")
    (tmp_path / "f").write_text("1")
    ab.git("add", "f")
    first = commit("-m", "first")
    (tmp_path / "f").write_text("2")
    assert ab.parent() == (first, False)
    commit("-am", "second")
    (tmp_path / "untracked").write_text("")  # not part of the change
    assert ab.parent() == (first, True)
    commit("--allow-empty", "-m", "empty")
    with pytest.raises(SystemExit, match="identical to its parent"):
        ab.parent()
