#!/usr/bin/env python3
"""Byte-compare every benchmark report of two source trees.

Run from the repository root:

    python3 tools/report_diff.py PARENT_TREE CHANGE_TREE [--seeds 0,7,21] [--workloads ...]

Every run of ``perfbench/workloads.py`` (this checkout's copy, imported
read-only) is made for each seed and workload, once per tree, all of a
tree's runs in one subprocess that imports ``tanhqi`` from ``<tree>/src``
with BLAS and OpenMP pinned to one thread.  Each CSV/JSON report is then
compared byte for byte, with the echoed ``"out"`` path masked, as it names
the tree's own output directory.  Each differing (or missing) file is
printed, then ``N files, M differ``; the exit status is 1 on any
difference, 2 when a run does not exit 0, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import run as bench  # noqa: E402  (stdlib-only at import, like workloads)
import workloads  # noqa: E402

SEEDS = (0, 7, 21)
# the CLI echo of the output path, as the JSON writer spells the key
OUT_ECHO = re.compile(rb'"out": "(?:[^"\\]|\\.)*"')
# one child per tree: each argv in turn through tanhqi.cli.main, stopping at the first failure
CHILD = (
    "import json, sys\n"
    "from tanhqi import cli\n"
    "for argv in json.load(sys.stdin):\n"
    "    status = cli.main(argv)\n"
    "    if status:\n"
    "        sys.exit(f'exit {status}: {argv}')\n"
)


def render(tree: str, names, seeds, out_root: str) -> None:
    """Write every report of the workloads at the seeds under out_root/<workload>/<seed>/, with
    tanhqi from tree/src; a run that does not exit 0 is a RuntimeError."""
    argvs = []
    for name in names:
        for seed in seeds:
            out_dir = os.path.join(out_root, name, str(seed))
            os.makedirs(out_dir)
            argvs += [list(run.argv) for run in workloads.build(name, seed, out_dir)]
    env = {**os.environ, **bench.THREAD_PINS,
           "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")}
    done = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(argvs), text=True,
                          capture_output=True, env=env, cwd=out_root)
    if done.returncode:
        raise RuntimeError(f"{tree}: {done.stderr.strip()}")


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
    with tempfile.TemporaryDirectory(prefix="report-diff-") as tmp:
        roots = [os.path.join(tmp, side) for side in ("parent", "change")]
        try:
            for tree, root in zip((args.parent, args.change), roots):
                render(tree, names, seeds, root)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        files, diff = differing(*roots)
    for name in diff:
        print(name)
    print(f"{files} files, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
