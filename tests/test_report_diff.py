"""tools/report_diff.py: a tree's reports match its own, and a changed byte is flagged."""

import importlib.util
import os
import shutil

import pytest

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
    name = "moments-chart/0/voronovskaya.csv"
    report = copy / name
    original = report.read_bytes()

    def flipped(at):
        # the report with byte at flipped, a digit of the last value; (old, new) last value
        data = bytearray(original)
        data[at] ^= 1
        report.write_bytes(bytes(data))
        return (float(original.split(b",")[-1]), float(data.split(b",")[-1]))

    a, b = flipped(-2)  # the exponent's last digit: 3.26e-14 to 3.26e-15
    assert a == pytest.approx(10.0 * b, rel=1e-15)
    assert report_diff.differing(str(first), str(copy)) == (6, [name])
    # the bound is that one value's move; %.17g's 17th digit can flip within one double, so the
    # 16th digit makes the smallest move sure to show: one unit in it, a few ulps
    for at in (-2, original.rindex(b"e") - 2):
        a, b = flipped(at)
        assert report_diff.difference(str(first), str(copy), name) == (
            f"max abs diff {abs(a - b):.3g}, max rel diff {abs(a - b) / max(abs(a), abs(b)):.3g}")
    assert 0.0 < abs(a - b) <= 1e-15 * abs(a)
    # a row fewer changes the table's shape
    report.write_bytes(b"".join(original.splitlines(keepends=True)[:-1]))
    assert report_diff.difference(str(first), str(copy), name) == "structure differs"
    (copy / "moments-chart" / "0" / "half-plane.json").unlink()
    assert report_diff.differing(str(first), str(copy)) == (
        6, ["moments-chart/0/half-plane.json", name])
    assert report_diff.difference(str(first), str(copy), "moments-chart/0/half-plane.json") == (
        "missing from one tree")
