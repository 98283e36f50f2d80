"""tools/report_diff.py: a tree's reports match its own, and a changed byte is flagged."""

import importlib.util
import json
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


def test_a_tree_loaded_again_under_one_name_is_loaded_afresh():
    # a second tree under an earlier name must not get the first tree's cached submodules
    first = report_diff.load_cli(REPO, "tanhqi_reloaded")
    second = report_diff.load_cli(REPO, "tanhqi_reloaded")
    assert second is not first and second.__name__ == "tanhqi_reloaded.cli"


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    # moments-chart's seed-0 reports, rendered once; a test edits its own copy
    first = tmp_path_factory.mktemp("rendered") / "first"
    report_diff.render(cli, ["moments-chart"], [0], str(first))
    return first


def test_one_changed_byte_is_flagged(rendered, tmp_path):
    first, copy = rendered, tmp_path / "copy"
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
    # the bound is that one value's move.  The exponent flip moves the value by 2.9e-14, past the
    # gate's ATOL of 1e-14; a flip of the last mantissa digit of its shortest repr text moves it
    # by one unit in that digit (3.257011183177947e-14 to ...946e-14), a few ulps, and does not
    # either way the one column that moved is named by its header, the table's last
    column = original.split(b"\n", 1)[0].decode().split(",")[-1]
    for at, verdict in ((-2, "outside"), (original.rindex(b"e") - 1, "within")):
        a, b = flipped(at)
        assert report_diff.difference(str(first), str(copy), name) == (
            f"max abs diff {abs(a - b):.3g}, max rel diff {abs(a - b) / max(abs(a), abs(b)):.3g}, "
            f"{verdict} the gate tolerance; columns moved: {column}")
    assert 0.0 < abs(a - b) <= 1e-15 * abs(a)
    # a row fewer changes the table's shape: the dropped row's four cells are named, and the
    # numbers both tables hold did not move
    lines = original.splitlines(keepends=True)
    report.write_bytes(b"".join(lines[:-1]))
    last = len(lines) - 1
    assert report_diff.difference(str(first), str(copy), name) == (
        f"structure differs; only in parent: {last}/0, {last}/1, {last}/2 and 1 more; "
        "max abs diff 0, max rel diff 0 over the shared numbers")
    (copy / "moments-chart" / "0" / "half-plane.json").unlink()
    assert report_diff.differing(str(first), str(copy)) == (
        6, ["moments-chart/0/half-plane.json", name])
    assert report_diff.difference(str(first), str(copy), "moments-chart/0/half-plane.json") == (
        "missing from one tree")


def test_an_added_key_still_shows_which_numbers_moved(rendered, tmp_path):
    # a copied report with one key added and one number changed: the added key's path is named,
    # and the largest difference is taken over the numbers both trees hold
    name = "moments-chart/0/voronovskaya.json"
    copy = tmp_path / "copy"
    shutil.copytree(rendered, copy)
    reports = json.loads((copy / name).read_text())
    reports[2]["added"] = 1.0
    old = reports[4]["fitted_slope"]
    reports[4]["fitted_slope"] = new = old + 0.5
    (copy / name).write_text(json.dumps(reports, sort_keys=True, indent=2) + "\n")
    assert report_diff.differing(str(rendered), str(copy)) == (6, [name])
    assert report_diff.difference(str(rendered), str(copy), name) == (
        f"structure differs; only in change: 2/added; max abs diff 0.5, "
        f"max rel diff {0.5 / max(abs(old), abs(new)):.3g} over the shared numbers")
    # a position that holds a number in one tree only is named as such
    for root, value in (("a", 1.0), ("b", "text")):
        (tmp_path / root).mkdir()
        (tmp_path / root / "r.json").write_text(json.dumps({"k": value, "n": 2.0}))
    assert report_diff.difference(str(tmp_path / "a"), str(tmp_path / "b"), "r.json") == (
        "structure differs; a number in one tree only: k; "
        "max abs diff 0, max rel diff 0 over the shared numbers")


def test_csv_cells_are_read_against_the_gate_tolerance(tmp_path):
    # |change - parent| <= RTOL |parent| + ATOL, cell by cell, with the parent as the scale
    assert (report_diff.gate.RTOL, report_diff.gate.ATOL) == (1e-9, 1e-14)

    def verdict(parent, change, name="rows.csv"):
        for root, row in (("a", parent), ("b", change)):
            (tmp_path / root).mkdir(exist_ok=True)
            text = json.dumps(row) if name.endswith(".json") else f"n,err\n{row[0]!r},{row[1]!r}"
            (tmp_path / root / name).write_text(text + "\n")
        return report_diff.difference(str(tmp_path / "a"), str(tmp_path / "b"), name)

    assert verdict([64.0, 1.0], [64.0, 1.0 + 9e-10]).endswith(", within the gate tolerance; "
                                                               "columns moved: err")
    assert verdict([64.0, 1.0], [64.0, 1.0 + 2e-9]).endswith(", outside the gate tolerance; "
                                                              "columns moved: err")
    assert verdict([64.0, 0.0], [64.0, 9e-15]).endswith(", within the gate tolerance; "
                                                        "columns moved: err")
    assert verdict([64.0, 0.0], [64.0, 2e-14]).endswith(", outside the gate tolerance; "
                                                        "columns moved: err")
    # a JSON report is not read against the gate, which compares table rows
    assert verdict([64.0, 0.0], [64.0, 2e-14], "rows.json").endswith("max rel diff 1")


def test_a_text_only_change_reads_same_numbers(tmp_path):
    # the same doubles as %.17g and as repr: other bytes, the same numbers; a zero's sign is not
    # a text change
    values = [0.1, 1 / 3, 3.257011183177947e-14, -0.0, 5e-324, 1e308, float("nan")]
    for root, text in (("a", "%.17g".__mod__), ("b", repr)):
        (tmp_path / root).mkdir()
        (tmp_path / root / "rows.csv").write_text(
            "n,err\n" + "".join(f"{n},{text(v)}\n" for n, v in enumerate(values)))
    assert report_diff.differing(str(tmp_path / "a"), str(tmp_path / "b")) == (1, ["rows.csv"])
    assert report_diff.difference(str(tmp_path / "a"), str(tmp_path / "b"), "rows.csv") == (
        "same numbers, text differs")
    (tmp_path / "b" / "rows.csv").write_text("n,err\n0,0.0\n")
    (tmp_path / "a" / "rows.csv").write_text("n,err\n0,-0.0\n")
    assert report_diff.difference(str(tmp_path / "a"), str(tmp_path / "b"), "rows.csv") == (
        "max abs diff 0, max rel diff 0, within the gate tolerance; columns moved: err")


def test_a_csv_names_each_column_that_moved(tmp_path):
    # columns by the parent's header, in table order, each once however many of its rows moved;
    # a column whose numbers are all the same doubles is not named, and one past the header
    # goes by its index
    for root, rows in (("a", ["n,psi,err,w", "1,0.5,1e-3,2", "2,0.25,1e-4,2,7"]),
                       ("b", ["n,psi,err,w", "1,0.5,2e-3,2", "2,0.3,3e-4,2,8"])):
        (tmp_path / root).mkdir()
        (tmp_path / root / "t.csv").write_text("\n".join(rows) + "\n")
    assert report_diff.difference(str(tmp_path / "a"), str(tmp_path / "b"), "t.csv").endswith(
        ", outside the gate tolerance; columns moved: psi, err, 4")
