#!/usr/bin/env python3
"""Time two source trees' benchmark passes, interleaved in one process.

Run from the repository root:

    python3 tools/interleave.py PARENT_TREE CHANGE_TREE [--rounds 40] [--workloads ...]

Each tree's ``src/tanhqi`` is loaded under its own package name in this
one process, with BLAS and OpenMP pinned to one thread before numpy loads.
A round runs one whole pass of each workload's command lines
(``perfbench/workloads.py``, this checkout's copy, imported read-only, at
seed 0) through each tree's ``cli.main``, then the set-up probe once per
tree (``perfbench/run.py``'s ``probe``, a fresh interpreter that imports
the tree's tanhqi and builds a kernel: the benchmark's ``setup_s``), the
tree that goes first alternating from round to round, after one untimed
warm-up round.  Each run is timed on its own, and a pass's time is the
sum of its runs'.  Host load then moves both trees' times alike, where
separate benchmark runs spread wider than a 1% effect.  The two trees
share this process's allocator, though: one tree's large frees can raise
glibc's mmap threshold for the other, so a gain read here still needs
``perfbench/run.py`` pairs, one process per tree.  For each workload,
then for each of its runs as "workload/run" (say "sweep-1d/basic-wide"),
and last for the set-up as "setup", it prints both trees' median wall time
with its quartiles, the change of the median against the parent in %, the
rounds in which the change was the faster, and a verdict (``verdict``):
"gain resolved" when the change was the faster in at least nine tenths of
the rounds and its median is below the parent's by more than the parent's
interquartile spread, "loss resolved" when the same holds with the two
sides swapped, and "unresolved" otherwise.  At least two rounds are timed,
so the spread is defined.  The exit status is 2 when a run does not exit
0, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import run as bench  # noqa: E402  (stdlib-only at import, like workloads)
import workloads  # noqa: E402

SIDES = ("parent", "change")


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


def verdict(parent, change) -> str:
    """"gain resolved", "loss resolved" or "unresolved" for two sides' pass times, paired by round.

    A side's gain over the other is resolved when its pass was the faster in at least nine
    tenths of the rounds (a tie counts for neither side) and its median is below the other's by
    more than the other's interquartile spread."""
    def resolved(base, other):
        q1, median, q3 = statistics.quantiles(base, n=4, method="inclusive")
        wins = sum(o < b for b, o in zip(base, other))
        return 10 * wins >= 9 * len(base) and median - statistics.median(other) > q3 - q1

    if resolved(parent, change):
        return "gain resolved"
    return "loss resolved" if resolved(change, parent) else "unresolved"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="source tree whose src/ holds the reference tanhqi")
    p.add_argument("change", help="source tree whose src/ holds the changed tanhqi")
    p.add_argument("--rounds", type=int, default=40, help="timed rounds (default 40)")
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS),
                   help="comma-separated workload names (default: all)")
    args = p.parse_args(argv)
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        p.error(f"unknown workloads: {', '.join(unknown)}")
    if args.rounds < 2:
        p.error("--rounds must be at least 2")
    os.environ.update(bench.THREAD_PINS)  # before either tree imports numpy
    trees = (args.parent, args.change)
    clis = [load_cli(tree, f"tanhqi_{side}") for tree, side in zip(trees, SIDES)]
    walls = {key: ([], []) for name in names
             for key in [name, *(f"{name}/{spec.name}" for spec in workloads.WORKLOADS[name])]}
    walls["setup"] = ([], [])
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        runs = {(name, side): workloads.build(name, 0, os.path.join(tmp, SIDES[side], name))
                for name in names for side in range(2)}
        for path in {os.path.dirname(run.out) for group in runs.values() for run in group}:
            os.makedirs(path)
        for round_ in range(args.rounds + 1):
            order = (0, 1) if round_ % 2 else (1, 0)
            for name in names:
                for side in order:
                    timed = []
                    for run in runs[name, side]:
                        wall, (status,) = bench.run_pass(clis[side], [run])
                        if status:
                            print(f"{SIDES[side]}: {name} exited non-zero: {run.argv}",
                                  file=sys.stderr)
                            return 2
                        timed.append(wall)
                    if round_:  # round 0 warms both trees up
                        walls[name][side].append(sum(timed))
                        for run, wall in zip(runs[name, side], timed):
                            walls[f"{name}/{run.spec.name}"][side].append(wall)
            for side in order:
                wall = bench.probe(bench.PROBE, os.path.join(trees[side], "src"))
                if round_:
                    walls["setup"][side].append(wall)
    for name, (parent, change) in walls.items():
        (a1, a, a3), (b1, b, b3) = (statistics.quantiles(w, n=4, method="inclusive")
                                    for w in (parent, change))
        wins = sum(c < p for p, c in zip(parent, change))
        print(f"{name}: parent {a:.5f} s (quartiles {a1:.5f}-{a3:.5f}), "
              f"change {b:.5f} s (quartiles {b1:.5f}-{b3:.5f}), {100.0 * (b / a - 1.0):+.1f}%, "
              f"change faster in {wins} of {len(change)} rounds, {verdict(parent, change)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
