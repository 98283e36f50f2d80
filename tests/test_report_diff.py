"""tools/report_diff.py: a tree's reports match its own, and a changed byte is flagged."""

import importlib.util
import os
import shutil

from tanhqi import cli

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location("report_diff",
                                              os.path.join(REPO, "tools", "report_diff.py"))
report_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(report_diff)


def test_a_tree_against_itself_differs_nowhere(capsys, monkeypatch):
    # the tool pins BLAS and OpenMP in the environment; each pin is restored afterwards
    for key, value in report_diff.bench.THREAD_PINS.items():
        monkeypatch.setenv(key, value)
    # moments-chart's three runs write a CSV and a JSON each; every JSON echoes its own out path
    assert report_diff.main([REPO, REPO, "--seeds", "0", "--workloads", "moments-chart"]) == 0
    assert capsys.readouterr().out == "6 files, 0 differ\n"


def test_one_changed_byte_is_flagged(tmp_path):
    first, copy = tmp_path / "first", tmp_path / "copy"
    report_diff.render(cli, ["moments-chart"], [0], str(first))
    shutil.copytree(first, copy)
    report = copy / "moments-chart" / "0" / "voronovskaya.csv"
    data = bytearray(report.read_bytes())
    data[-2] ^= 1  # a digit of the last value
    report.write_bytes(bytes(data))
    assert report_diff.differing(str(first), str(copy)) == (6, ["moments-chart/0/voronovskaya.csv"])
    (copy / "moments-chart" / "0" / "half-plane.json").unlink()
    assert report_diff.differing(str(first), str(copy)) == (
        6, ["moments-chart/0/half-plane.json", "moments-chart/0/voronovskaya.csv"])
