#!/usr/bin/env python3
"""Time two source trees' benchmark passes, interleaved, each in its own fresh interpreter.

Run from the repository root:

    python3 tools/interleave.py PARENT_TREE CHANGE_TREE [--rounds 40] [--workloads ...]

BLAS and OpenMP are pinned to one thread before numpy loads, as in
``perfbench/run.py``.  A round times each workload's command lines
(``perfbench/workloads.py``, this checkout's copy, at seed 0) once per
tree, each tree in a fresh worker interpreter that imports that tree's
``src/tanhqi`` alone, as one ``perfbench/run.py`` process does: the
worker runs WARM_PASSES (two) untimed passes through ``cli.main``, then
the timed pass, each run timed on its own, and prints those walls and the
timed pass's minor page faults (``ru_minflt``).  So neither tree's
allocator state, such as glibc's mmap threshold, reaches the other's
timing, and the timed pass is past the page faults a second pass can
still take.  Then the round runs the set-up probe once per tree
(``perfbench/run.py``'s ``probe``, a fresh interpreter that imports the
tree's tanhqi and builds a kernel: the benchmark's ``setup_s``), after
one untimed probe per tree.
The tree that goes first alternates from round to round.  A pass's time
is the sum of its runs'.  Host load then moves both trees' times alike,
where separate benchmark runs spread wider than a 1% effect.  For each
workload, then for each of its runs as "workload/run" (say
"sweep-1d/basic-wide"), and last for the set-up as "setup", it prints
both trees' median wall time with its quartiles, the change of the median
against the parent in %, the rounds in which the change was the faster,
and a verdict (``verdict``): "gain resolved" when the change was the
faster in at least nine tenths of the rounds and its median is below the
parent's by more than the parent's interquartile spread, "loss resolved"
when the same holds with the two sides swapped, and "unresolved"
otherwise, and always under MIN_VERDICT_ROUNDS (ten) rounds.  A
workload's line ends with each tree's median minor page faults in a
timed pass.  At least two rounds are timed, so the spread is
defined.  The exit status is 2 when a run or a worker does not exit 0,
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import run as bench  # noqa: E402  (stdlib-only at import, like workloads)
import workloads  # noqa: E402

SIDES = ("parent", "change")
# untimed passes a worker runs before its timed one: after one, a pass still faulted in fresh pages
WARM_PASSES = 2
# fewer rounds resolve nothing: nine tenths of two rounds is both, and the claim rule takes ten pairs
MIN_VERDICT_ROUNDS = 10
# a worker interpreter: tools/ on the path, then worker(tree, workload, out_dir)
WORKER = (
    "import sys\n"
    f"sys.path.insert(0, {HERE!r})\n"
    "import interleave\n"
    "interleave.worker(*sys.argv[1:])\n"
)


def worker(tree: str, name: str, out_dir: str) -> None:
    """In a fresh interpreter: tree's tanhqi runs workload name's passes, writing under out_dir,
    WARM_PASSES untimed, then one timed run by run; prints one JSON line with the timed runs'
    walls and exit statuses and the timed pass's minor page faults."""
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    from tanhqi import cli

    runs = workloads.build(name, 0, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    for _ in range(WARM_PASSES):
        bench.run_pass(cli, runs)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    timed = [bench.run_pass(cli, [run]) for run in runs]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(json.dumps({"walls": [wall for wall, _ in timed],
                      "statuses": [status for _, (status,) in timed], "faults": faults}))


def verdict(parent, change) -> str:
    """"gain resolved", "loss resolved" or "unresolved" for two sides' pass times, paired by round.

    A side's gain over the other is resolved when its pass was the faster in at least nine
    tenths of the rounds (a tie counts for neither side) and its median is below the other's by
    more than the other's interquartile spread; under MIN_VERDICT_ROUNDS rounds nothing is."""
    def resolved(base, other):
        q1, median, q3 = statistics.quantiles(base, n=4, method="inclusive")
        wins = sum(o < b for b, o in zip(base, other))
        return 10 * wins >= 9 * len(base) and median - statistics.median(other) > q3 - q1

    if len(parent) < MIN_VERDICT_ROUNDS:
        return "unresolved"
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
    os.environ.update(bench.THREAD_PINS)  # before any worker or probe imports numpy
    trees = (args.parent, args.change)
    walls = {key: ([], []) for name in names
             for key in [name, *(f"{name}/{spec.name}" for spec in workloads.WORKLOADS[name])]}
    walls["setup"] = ([], [])
    faults = {name: ([], []) for name in names}
    for tree in trees:  # may compile bytecode, as run.py's first probe
        bench.probe(bench.PROBE, os.path.join(tree, "src"))
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        for round_ in range(1, args.rounds + 1):
            order = (0, 1) if round_ % 2 else (1, 0)
            for name in names:
                for side in order:
                    done = subprocess.run(
                        [sys.executable, "-c", WORKER, trees[side], name,
                         os.path.join(tmp, SIDES[side], name)],
                        capture_output=True, text=True, timeout=600)
                    if done.returncode:
                        print(f"{SIDES[side]}: {name} worker exited {done.returncode}: "
                              f"{done.stderr.strip()}", file=sys.stderr)
                        return 2
                    result = json.loads(done.stdout.splitlines()[-1])
                    for spec, wall, status in zip(workloads.WORKLOADS[name], result["walls"],
                                                  result["statuses"]):
                        if status:
                            print(f"{SIDES[side]}: {name}/{spec.name} exited non-zero: {status}",
                                  file=sys.stderr)
                            return 2
                        walls[f"{name}/{spec.name}"][side].append(wall)
                    walls[name][side].append(sum(result["walls"]))
                    faults[name][side].append(result["faults"])
            for side in order:
                src = os.path.join(trees[side], "src")
                walls["setup"][side].append(bench.probe(bench.PROBE, src))
    for name, (parent, change) in walls.items():
        (a1, a, a3), (b1, b, b3) = (statistics.quantiles(w, n=4, method="inclusive")
                                    for w in (parent, change))
        wins = sum(c < p for p, c in zip(parent, change))
        print(f"{name}: parent {a:.5f} s (quartiles {a1:.5f}-{a3:.5f}), "
              f"change {b:.5f} s (quartiles {b1:.5f}-{b3:.5f}), {100.0 * (b / a - 1.0):+.1f}%, "
              f"change faster in {wins} of {len(change)} rounds, {verdict(parent, change)}"
              + (f", page faults a pass: parent {statistics.median(faults[name][0]):g}, "
                 f"change {statistics.median(faults[name][1]):g}" if name in faults else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
