"""tools/interleave.py: a tree timed against itself prints one line per workload and per run, and
its verdict on a pair of timing series."""

import importlib.util
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
                           "--workloads", "moments-chart"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert done.returncode == 0 and done.stderr == ""
    wall = r"\d+\.\d{5} s \(quartiles \d+\.\d{5}-\d+\.\d{5}\)"
    line = (rf"parent {wall}, change {wall}, [+-]\d+\.\d%, change faster in [0-2] of 2 rounds, "
            r"(gain resolved|loss resolved|unresolved)\n")
    # the workload's line, one per run as workload/run, then the set-up probe's, all in one format
    names = ["moments-chart", "moments-chart/voronovskaya", "moments-chart/half-plane",
             "moments-chart/kernel-dump", "setup"]
    assert re.fullmatch("".join(f"{name}: {line}" for name in names), done.stdout)
    # every report went to the tool's own temporary directory
    assert os.listdir(tmp_path) == []


def test_a_tree_loaded_again_under_one_name_is_loaded_afresh():
    # a second tree under an earlier name must not get the first tree's cached submodules
    first = interleave.load_cli(REPO, "tanhqi_reloaded")
    second = interleave.load_cli(REPO, "tanhqi_reloaded")
    assert second is not first and second.__name__ == "tanhqi_reloaded.cli"


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
