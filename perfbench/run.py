#!/usr/bin/env python3
"""Benchmark of the tanhqi CLI: end-to-end timings and per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-1d --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 36 --trace 0

A workload (see workloads.py) is a fixed list of ``tanhqi`` command lines,
driven in this one process through ``tanhqi.cli.main(argv)``.  One pass runs
them all back to back; passes repeat until ``--seconds`` is spent, and every
pass's reports are checked by gate.py.  Reports go to a temporary directory
inside the checkout that is removed at the end.

``--trace 0`` prints the end-to-end metrics: the median pass wall time and
the evaluation rate, the median set-up time of several fresh interpreters
(``import tanhqi`` plus one DensityKernel), both scaled to the reference
host speed (see REF_PROBE), and this process's peak resident memory.  ``--trace 1`` alternates untraced and
traced passes and prints per-layer metrics from the spans tracer.py records
(calls and elements per pass, median self time), plus the traced/untraced
wall-time ratio; the last traced pass's spans are written to
``.perfbench-out/<workload>.spans.jsonl``.

The process is single-threaded: BLAS and OpenMP are pinned to one thread
before numpy loads.  Its only child processes are two git queries for
provenance and the probes, two after each pass; each runs alone.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import gate  # noqa: E402  (stdlib-only, like workloads)
import workloads  # noqa: E402

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
MIN_PROBES = 7
SPAN_DIR = ".perfbench-out"

# fresh-interpreter set-up: prints the monotonic clock once the kernel exists
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import tanhqi\n"
    "tanhqi.DensityKernel(tanhqi.ActivationParams(0.5, 1.0))\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)

# Host-speed reference: a fresh interpreter that imports numpy and the stdlib
# modules tanhqi uses, but not tanhqi.  On a shared host the speed of this
# process drifts by up to ~1.7x over minutes; the probe drifts with it (its
# time tracks the pass times far better than an in-process numpy loop, which
# stays in L1 cache), so end-to-end times are reported at the probe's speed
# on the host the benchmark was defined on (2-vCPU Xeon at 2.1 GHz, Python
# 3.11.7, numpy 2.4.6), where it takes REF_PROBE_S.
REF_PROBE = (
    "import time\n"
    "import argparse, dataclasses, itertools, json, math\n"
    "import numpy\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)
REF_PROBE_S = 0.12

# per-layer metrics: span name -> statistics reported for it
LAYER_STATS = {
    "activation.h_eval": ("calls", "elems", "self_s"),
    "kernel.lattice_window": ("calls",),
    "kernel.psi_eval": ("calls", "elems", "self_s"),
    "kernel.moment": ("calls", "self_s"),
    "presets.value": ("calls", "elems", "self_s"),
    "presets.derivative": ("calls", "self_s"),
    "operators.apply_basic": ("calls", "self_s"),
    "operators.apply_kantorovich": ("calls", "self_s"),
    "operators.leggauss": ("calls", "self_s"),
    "operators.apply_fractional": ("calls", "self_s"),
    "operators.voronovskaya_correction": ("calls", "self_s"),
    "fractional.rl_derivative": ("calls", "self_s", "l1_points"),
    "fractional.gamma_fn": ("calls", "self_s"),
    "manifold.operator_on_chart": ("calls", "self_s"),
    "analysis.sup_error": ("calls", "self_s"),
    "analysis.grid_points": ("self_s",),
    "analysis.rate_fit": ("self_s",),
    "cli.merge_config": ("self_s",),
    "cli.emit": ("self_s",),
}
UNITS = {"calls": "count", "elems": "count", "l1_points": "count", "self_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _git(root, *args):
    out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=60)
    return out.stdout.strip() if out.returncode == 0 else None


def git_state(root):
    if not os.path.isdir(os.path.join(root, ".git")) or shutil.which("git") is None:
        return {"git_sha": None, "git_dirty": None}
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {"git_sha": _git(root, "rev-parse", "HEAD"),
            "git_dirty": None if status is None else status != ""}


def probe(code, src):
    """Seconds from spawning a fresh interpreter running code to its printed clock."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout) - t0


def blas_version(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return None


def run_pass(cli, runs):
    """Run every CLI command once; (wall seconds, exit status per run)."""
    statuses = []
    t0 = time.perf_counter()
    for run in runs:
        try:
            statuses.append(cli.main(list(run.argv)))
        except (Exception, SystemExit) as exc:  # an escaped traceback is a failed run
            statuses.append(repr(exc))
    return time.perf_counter() - t0, statuses


class Tally:
    """Attempted and failed CLI runs, with the first few failure reasons."""

    def __init__(self, runs, reference):
        self.runs = runs
        self.reference = [reference.get(run.spec.name) for run in runs]
        self.attempted = self.failed = 0
        self.reasons = []

    def check(self, statuses):
        for run, status, ref in zip(self.runs, statuses, self.reference):
            problems = gate.check_run(run, status, ref)
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(f"{run.spec.name}: {'; '.join(problems)}")


def measure(cli, runs, tally, seconds, src):
    """Untraced passes until the time is spent.

    Returns the pass wall times, set-up probe times and reference probe
    times.  One probe of each kind follows each pass, so all three samples
    span the whole run and host-speed drift affects them alike.
    """
    probe(PROBE, src)  # may compile bytecode, which users do not pay on every run
    walls, setup, ref = [], [], []
    start = time.perf_counter()
    while True:
        wall, statuses = run_pass(cli, runs)
        walls.append(wall)
        tally.check(statuses)
        setup.append(probe(PROBE, src))
        ref.append(probe(REF_PROBE, src))
        if time.perf_counter() - start + wall > seconds:
            break
    while len(setup) < MIN_PROBES:
        setup.append(probe(PROBE, src))
        ref.append(probe(REF_PROBE, src))
    return walls, setup, ref


def report_bytes(runs):
    return sum(os.path.getsize(run.out + ext) for run in runs for ext in (".csv", ".json")
               if os.path.exists(run.out + ext))


def measure_traced(cli, runs, tally, seconds, span_path):
    """Alternate untraced and traced passes; per-layer metrics."""
    import tracer as tracing

    tracer = tracing.Tracer()
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    while True:
        wall, statuses = run_pass(cli, runs)
        plain.append(wall)
        tally.check(statuses)
        tracer.reset()
        with tracer.installed():
            wall, statuses = run_pass(cli, runs)
        traced.append(wall)
        tally.check(statuses)
        summaries.append(tracer.summary())
        if time.perf_counter() - start + plain[-1] + traced[-1] > seconds:
            break
    os.makedirs(os.path.dirname(span_path), exist_ok=True)
    tracer.write_spans(span_path)

    # counts repeat exactly from pass to pass; the tracer still holds the last one's
    last = summaries[-1]
    metrics = {}
    for name, stats in LAYER_STATS.items():
        for stat in stats:
            if stat == "self_s":
                value = statistics.median(s.get(name, {}).get("self_s", 0.0) for s in summaries)
            else:
                value = last.get(name, {}).get("calls" if stat == "calls" else "count", 0)
            metrics[f"{name}.{stat}"] = _metric(value, UNITS[stat])
    calls = last.get("fractional.rl_derivative", {}).get("calls", 0)
    metrics["fractional.rl_derivative.distinct_ratio"] = _metric(
        len(tracer.rl_keys) / calls if calls else 0.0, "ratio")
    averages = tracer.cell_averages
    metrics["operators.kantorovich.cell_ratio"] = _metric(
        len(tracer.cells) / averages if averages else 0.0, "ratio")
    metrics["cli.report_bytes"] = _metric(report_bytes(runs), "bytes")
    metrics["trace.overhead_ratio"] = _metric(
        statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics, {"untraced_passes": len(plain), "traced_passes": len(traced),
                     "spans_last_pass": len(tracer.spans), "span_file": span_path}


def run_workload(args, root, src):
    provenance = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, **git_state(root)}

    sys.path.insert(0, src)
    import numpy as np
    from tanhqi import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"perfbench: imported tanhqi from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    provenance.update({
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas_version(np),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
    })

    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        runs = workloads.build(args.workload, args.seed, tmp)
        # the reference rows hold only for the unshifted seed-0 boxes
        tally = Tally(runs, gate.load_reference()[args.workload] if args.seed == 0 else {})
        if args.trace:
            span_path = os.path.join(root, SPAN_DIR, f"{args.workload}.spans.jsonl")
            metrics, samples = measure_traced(cli, runs, tally, args.seconds, span_path)
        else:
            walls, setup, ref = measure(cli, runs, tally, args.seconds, src)
            evals = workloads.evals(args.workload)
            wall, start = statistics.median(walls), statistics.median(setup)
            speed = REF_PROBE_S / statistics.median(ref)  # > 1 when this host runs slow
            metrics = {
                "wall_s": _metric(wall * speed, "s"),
                "evals_per_s": _metric(evals / wall / speed, "1/s"),
                "setup_s": _metric(start * speed, "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            }
            samples = {"passes": len(walls), "setup_probes": len(setup),
                       "reference_probes": len(ref), "evals_per_pass": evals,
                       "cli_runs_per_pass": len(runs)}
            provenance["unscaled"] = {"wall_s": wall, "setup_s": start,
                                      "reference_probe_s": statistics.median(ref),
                                      "speed_factor": speed}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    provenance["samples"] = samples
    provenance["fail_ratio"] = tally.failed / tally.attempted
    provenance["failures"] = tally.reasons
    print("perfbench provenance " + json.dumps(provenance, sort_keys=True))
    print(f"perfbench {args.workload} seed {args.seed}:")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:<24.10g} {m['unit']}")
    print(f"  {'fail_ratio':44s} {provenance['fail_ratio']:<24.10g} share "
          f"({tally.failed} of {tally.attempted} CLI runs)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own fresh process, one after another; a combined table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=args.seconds * 3 + 300)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            return out.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tanhqi", "cli.py")):
        print("perfbench: no src/tanhqi under the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before numpy loads, here and in the probes
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, root, src)


if __name__ == "__main__":
    sys.exit(main())
