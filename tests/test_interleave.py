"""tools/interleave.py: a tree timed against itself prints one line per workload and per run, a
worker times one tree's pass in its own interpreter, and the verdict on a pair of timing series."""

import importlib.util
import json
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO, "tools", "interleave.py")
SPEC = importlib.util.spec_from_file_location("interleave", TOOL)
interleave = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(interleave)


def test_a_tree_against_itself(tmp_path):
    # its own process, so the thread pins come before numpy loads, as in a real run
    done = subprocess.run([sys.executable, TOOL, REPO, REPO, "--rounds", "2",
                           "--workloads", "frac"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert done.returncode == 0 and done.stderr == ""
    wall = r"\d+\.\d{5} s \(quartiles \d+\.\d{5}-\d+\.\d{5}\)"
    # two rounds are too few for a verdict
    line = rf"parent {wall}, change {wall}, [+-]\d+\.\d%, change faster in [0-2] of 2 rounds, unresolved"
    faults = r", page faults a pass: parent \d+(\.5)?, change \d+(\.5)?"
    rss = r", peak RSS: parent \d+\.\d\d MB, change \d+\.\d\d MB, change lower in [0-2] of 2 rounds"
    # the workload's line with its page faults and peak RSS, one per run as workload/run, then
    # the set-up probe's, all in one format
    lines = [f"frac: {line}{faults}{rss}\n",
             *(f"{name}: {line}\n" for name in ["frac/pow2", "frac/pow3", "setup"])]
    assert re.fullmatch("".join(lines), done.stdout)
    # every report went to the tool's own temporary directory
    assert os.listdir(tmp_path) == []


def test_a_worker_imports_its_own_tree_and_prints_one_timed_pass(tmp_path):
    # a fresh interpreter per tree and round, two untimed passes and then the timed one: one
    # JSON line, the timed runs' walls and statuses, the pass's page faults and the peak RSS
    done = subprocess.run([sys.executable, "-c", interleave.WORKER, REPO, "frac", str(tmp_path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": ""},
                          timeout=300)
    assert done.returncode == 0 and done.stderr == ""
    result = json.loads(done.stdout)
    assert result["statuses"] == [0, 0] and len(result["walls"]) == 2
    assert all(wall > 0.0 for wall in result["walls"]) and result["faults"] >= 0
    # in MB, as perfbench's peak_rss_mb: an interpreter with numpy holds more than 10 MB
    assert 10.0 < result["peak_rss_mb"] < 1000.0
    assert sorted(os.listdir(tmp_path)) == ["pow2.csv", "pow2.json", "pow3.csv", "pow3.json"]


def test_a_worker_times_its_third_pass(tmp_path, monkeypatch, capsys):
    # every run twice untimed, as whole passes, then each run timed on its own
    passes = []

    def run_pass(cli, runs):
        passes.append([run.spec.name for run in runs])
        return 0.5, [0] * len(runs)

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(interleave.bench, "run_pass", run_pass)
    interleave.worker(REPO, "frac", str(tmp_path))
    assert passes == [["pow2", "pow3"], ["pow2", "pow3"], ["pow2"], ["pow3"]]
    result = json.loads(capsys.readouterr().out)
    assert result["walls"] == [0.5, 0.5] and result["statuses"] == [0, 0]


# a parent side with median 1.05 and quartiles 1.0125 and 1.0875 (IQR 0.075)
PARENT = [1.0, 1.0, 1.0, 1.05, 1.05, 1.05, 1.05, 1.1, 1.1, 1.1]


def test_a_wide_win_in_every_round_is_a_resolved_gain():
    assert interleave.verdict(PARENT, [p - 0.2 for p in PARENT]) == "gain resolved"


def test_a_wide_loss_in_every_round_is_a_resolved_loss():
    # the sides swap: the change's own spread (IQR 0.075) is the yardstick
    assert interleave.verdict(PARENT, [p + 0.2 for p in PARENT]) == "loss resolved"


def test_nine_wins_in_ten_suffice_and_eight_do_not():
    change = [p - 0.2 for p in PARENT]
    nine = change[:9] + [PARENT[9] + 0.5]
    assert interleave.verdict(PARENT, nine) == "gain resolved"
    # a tie counts for neither side
    eight = nine[:8] + [PARENT[8]] + nine[9:]
    assert interleave.verdict(PARENT, eight) == "unresolved"


def test_a_gap_inside_the_parents_spread_is_unresolved():
    # faster in every round, but the medians differ by 0.05 where the parent's IQR is 0.075
    assert interleave.verdict(PARENT, [p - 0.05 for p in PARENT]) == "unresolved"
    assert interleave.verdict(PARENT, PARENT) == "unresolved"


def test_fewer_than_ten_rounds_resolve_nothing():
    # a wide win or loss in every round reads unresolved over 2 or 9 rounds, resolved over 10
    for rounds in (2, 9):
        parent = PARENT[:rounds]
        assert interleave.verdict(parent, [p - 0.2 for p in parent]) == "unresolved"
        assert interleave.verdict(parent, [p + 0.2 for p in parent]) == "unresolved"
    assert interleave.verdict(PARENT, [p - 0.2 for p in PARENT]) == "gain resolved"
    assert interleave.verdict(PARENT, [p + 0.2 for p in PARENT]) == "loss resolved"
