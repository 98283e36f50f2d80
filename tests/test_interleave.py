"""tools/interleave.py: a tree timed against itself prints one line per workload."""

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
    assert re.fullmatch(rf"moments-chart: parent {wall}, change {wall}, [+-]\d+\.\d%, "
                        r"change faster in [0-2] of 2 rounds\n", done.stdout)
    # every report went to the tool's own temporary directory
    assert os.listdir(tmp_path) == []


def test_a_tree_loaded_again_under_one_name_is_loaded_afresh():
    # a second tree under an earlier name must not get the first tree's cached submodules
    first = interleave.load_cli(REPO, "tanhqi_reloaded")
    second = interleave.load_cli(REPO, "tanhqi_reloaded")
    assert second is not first and second.__name__ == "tanhqi_reloaded.cli"
