"""tools/interleave.py: a tree timed against itself prints one line per workload."""

import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO, "tools", "interleave.py")


def test_a_tree_against_itself(tmp_path):
    # its own process, so the thread pins come before numpy loads, as in a real run
    done = subprocess.run([sys.executable, TOOL, REPO, REPO, "--rounds", "2",
                           "--workloads", "moments-chart"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert done.returncode == 0 and done.stderr == ""
    assert re.fullmatch(r"moments-chart: parent \d+\.\d{5} s, change \d+\.\d{5} s, [+-]\d+\.\d%, "
                        r"change faster in [0-2] of 2 rounds\n", done.stdout)
    # every report went to the tool's own temporary directory
    assert os.listdir(tmp_path) == []
