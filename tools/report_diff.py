#!/usr/bin/env python3
"""Byte-compare every benchmark report of two source trees.

Run from the repository root:

    python3 tools/report_diff.py PARENT_TREE CHANGE_TREE [--seeds 0,7,21] [--workloads ...]

Every run of ``perfbench/workloads.py`` (this checkout's copy, imported
read-only) is made for each seed and workload, once per tree, in this one
process: each tree's ``src/tanhqi`` is loaded under its own package name
(``load_cli``; no report's bytes depend on the allocator state the two
trees share, unlike their times), with BLAS and OpenMP pinned to one thread
before either tree loads numpy, and ``perfbench/run.py``'s ``run_pass``
drives its ``cli.main``.  Each CSV/JSON report is then compared byte for
byte, with the echoed ``"out"`` path masked, as it names the tree's own
output directory.  Each differing (or missing) file is printed with how
it differs (``difference``): the largest absolute and relative
difference over the numbers at matching positions (CSV cells, JSON
leaves), so a summation-order change can state its bound, "same numbers,
text differs" when only the numbers' text moved, or "structure differs"
when the shapes or keys differ; that names the first few positions found
in one tree only (or holding a number in one tree only) and still gives
the largest differences over the numbers both trees share, so an added
key shows what else moved.  A differing CSV also says
whether every cell lies within ``perfbench/gate.py``'s reference
tolerance, ``RTOL * |parent| + ATOL`` (``gate`` is imported read-only,
as ``run`` is), and names the columns, by the parent's header, whose
numbers moved.  Then ``N files, M differ``;
the exit status is 1 on any difference, 2 when a run does not exit 0,
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import importlib.util
import io
import json
import math
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import gate  # noqa: E402  (stdlib-only at import, like run and workloads)
import run as bench  # noqa: E402
import workloads  # noqa: E402

SIDES = ("parent", "change")
SEEDS = (0, 7, 21)
# the CLI echo of the output path, as the JSON writer spells the key
OUT_ECHO = re.compile(rb'"out": "(?:[^"\\]|\\.)*"')


def load_cli(tree: str, name: str):
    """tree/src/tanhqi imported as the package ``name``, after any earlier one of that name and
    its submodules; its cli module."""
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    package = os.path.join(os.path.abspath(tree), "src", "tanhqi")
    spec = importlib.util.spec_from_file_location(name, os.path.join(package, "__init__.py"),
                                                  submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def render(cli, names, seeds, out_root: str) -> None:
    """Write every report of the workloads at the seeds under out_root/<workload>/<seed>/ through
    cli.main; a run that does not exit 0 is a RuntimeError."""
    for name in names:
        for seed in seeds:
            out_dir = os.path.join(out_root, name, str(seed))
            os.makedirs(out_dir)
            runs = workloads.build(name, seed, out_dir)
            _, statuses = bench.run_pass(cli, runs)
            for run, status in zip(runs, statuses):
                if status:
                    raise RuntimeError(f"exit {status}: {list(run.argv)}")


def _reports(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files}


def _masked(path: str) -> bytes:
    with open(path, "rb") as fh:
        return OUT_ECHO.sub(b'"out": "<out>"', fh.read())


def differing(root_a: str, root_b: str) -> tuple[int, list[str]]:
    """(files under either root, sorted paths that differ or exist under one root only)."""
    names = _reports(root_a) | _reports(root_b)
    diff = [name for name in sorted(names)
            if not (os.path.isfile(os.path.join(root_a, name))
                    and os.path.isfile(os.path.join(root_b, name))
                    and _masked(os.path.join(root_a, name)) == _masked(os.path.join(root_b, name)))]
    return len(names), diff


def _leaves(value, path=()):
    # a JSON value's leaves by key path; an empty list or dict is a leaf of its own
    if isinstance(value, (dict, list)) and value:
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(item, (*path, key))
    else:
        yield path, value


def _values(path: str) -> dict:
    # the report's values by position: a CSV's cells by (row, column), each a float where it
    # reads as one, or a JSON's leaves by key path
    text = _masked(path).decode("utf-8")
    if not path.endswith(".csv"):
        return dict(_leaves(json.loads(text)))
    cells = {}
    for i, row in enumerate(csv.reader(io.StringIO(text))):
        for j, cell in enumerate(row):
            try:
                cells[i, j] = float(cell)
            except ValueError:
                cells[i, j] = cell
    return cells


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _gap(a, b) -> tuple[float, float]:
    # (absolute, relative) difference of two numbers: inf where they differ and one is not finite
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    gap = abs(a - b)
    if not math.isfinite(gap):
        return math.inf, math.inf
    return gap, gap / max(abs(a), abs(b))


def _same(a, b) -> bool:
    # the same double: equal, with one sign where both are zero, or both nan
    if a == b:
        return a != 0 or math.copysign(1, a) == math.copysign(1, b)
    return math.isnan(a) and math.isnan(b)


def _paths(keys, shown: int = 3) -> str:
    # the first positions as slash-joined key paths (a CSV's as row/column), and how many more
    text = ", ".join("/".join(map(str, key)) for key in keys[:shown])
    return text + (f" and {len(keys) - shown} more" if len(keys) > shown else "")


def _largest(gaps: dict) -> str:
    return (f"max abs diff {max((g for g, _ in gaps.values()), default=0.0):.3g}, "
            f"max rel diff {max((r for _, r in gaps.values()), default=0.0):.3g}")


def difference(root_a: str, root_b: str, name: str) -> str:
    """How report name differs between the roots (root_a the parent's, root_b the change's):
    "missing from one tree"; "structure differs" when its positions or the kinds of value at them
    differ, naming the first few positions only in the parent, only in the change, and whose
    value is a number in one tree only, then the largest absolute and relative difference over
    the numbers both share; "text differs" when a value that is no number does; "same numbers,
    text differs" when every number is the same double; else the largest absolute and relative
    difference over its numbers and, for a CSV, whether every cell of root_b lies within the
    gate's tolerance of root_a's and which columns hold a number that moved."""
    paths = [os.path.join(root, name) for root in (root_a, root_b)]
    if not all(map(os.path.isfile, paths)):
        return "missing from one tree"
    a, b = map(_values, paths)
    gaps = {k: _gap(a[k], b[k]) for k in a if k in b and _is_number(a[k]) and _is_number(b[k])}
    moved = [(f"only in {SIDES[0]}", [k for k in a if k not in b]),
             (f"only in {SIDES[1]}", [k for k in b if k not in a]),
             ("a number in one tree only",
              [k for k in a if k in b and _is_number(a[k]) != _is_number(b[k])])]
    if any(keys for _, keys in moved):
        listed = "; ".join(f"{label}: {_paths(keys)}" for label, keys in moved if keys)
        return f"structure differs; {listed}; {_largest(gaps)} over the shared numbers"
    if any(a[k] != b[k] for k in a if not _is_number(a[k])):
        return "text differs"
    if all(_same(a[k], b[k]) for k in a if _is_number(a[k])):
        return "same numbers, text differs"
    text = _largest(gaps)
    if not name.endswith(".csv"):
        return text
    within = all(g <= gate.RTOL * abs(a[k]) + gate.ATOL for k, (g, _) in gaps.items())
    # the parent's header row names a column; one without a header cell goes by its index
    cols = sorted({k[1] for k in gaps if not _same(a[k], b[k])})
    columns = ", ".join(str(a[0, j] if isinstance(a.get((0, j)), str) else j) for j in cols)
    verdict = "within" if within else "outside"
    return f"{text}, {verdict} the gate tolerance; columns moved: {columns}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="source tree whose src/ holds the reference tanhqi")
    p.add_argument("change", help="source tree whose src/ holds the changed tanhqi")
    p.add_argument("--seeds", default=",".join(map(str, SEEDS)),
                   help="comma-separated benchmark seeds (default 0,7,21)")
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS),
                   help="comma-separated workload names (default: all)")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        p.error(f"unknown workloads: {', '.join(unknown)}")
    os.environ.update(bench.THREAD_PINS)  # before either tree imports numpy
    clis = [load_cli(tree, f"tanhqi_{side}")
            for tree, side in zip((args.parent, args.change), SIDES)]
    with tempfile.TemporaryDirectory(prefix="report-diff-") as tmp:
        roots = [os.path.join(tmp, side) for side in SIDES]
        for tree, cli, root in zip((args.parent, args.change), clis, roots):
            try:
                render(cli, names, seeds, root)
            except RuntimeError as exc:
                print(f"{tree}: {exc}", file=sys.stderr)
                return 2
        files, diff = differing(*roots)
        for name in diff:
            print(f"{name}: {difference(*roots, name)}")
    print(f"{files} files, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
