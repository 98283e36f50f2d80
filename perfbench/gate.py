"""Correctness gate for the benchmark's CLI runs, and its self-test.

A run passes when it exited 0, wrote a JSON report and a CSV table that
parse and agree, every row is finite, and the rows meet the run's check:

* ``rate1``: the fitted log-log slope lies in SLOPE_BAND (first order);
* ``decreasing``: sup errors strictly decrease in n (the pre-asymptotic
  W = 256 run, slope ~0.87);
* ``voronovskaya``: fitted slopes do not decrease in the order m;
* ``kernel-dump``: psi > 0 and |moment0 - 1| <= 4 * eps_trunc * W, the
  documented truncation bound on the partition of unity.

At seed 0 every row must also match the rows recorded in
``reference.json`` at commit 7bbdd2b: |value - ref| <= RTOL * |ref| +
ATOL.  A summation-order change moves an operator value by at most 1e-15
of itself, and no value these runs produce exceeds 1.5 in magnitude, so
an error or moment moves by at most ~1.5e-15 absolute.  ATOL = 1e-14
admits that with ~6x headroom, including rows that sit on the 1e-13
rounding floor (voronovskaya m = 4 at large n); RTOL = 1e-9 adds headroom
on large values.  A wrong kernel (q = 0.4 instead of 0.5) moves errors by
percent, far outside.

Usage (from the repository root):

    python3 perfbench/gate.py selftest   # shows the gate passes and trips
    python3 perfbench/gate.py record     # rewrites reference.json at seed 0

This module imports only the standard library at load time.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
RTOL = 1e-9
ATOL = 1e-14
SLOPE_BAND = (0.9, 1.1)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def parse_report(check: str, report):
    """(rows, slopes, kernel) of a JSON report, rows in CSV column order."""
    if check == "voronovskaya":
        rows = [[r["config"]["m"], *row] for r in report for row in r["rows"]]
        return rows, [r["fitted_slope"] for r in report], None
    if check == "kernel-dump":
        return report["rows"], [], report["kernel"]
    return report["rows"], [report["fitted_slope"]], None


def _read_csv(path: str) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _check_rate1(rows, slopes, kernel):
    lo, hi = SLOPE_BAND
    if slopes[0] is None or not lo <= slopes[0] <= hi:
        return [f"fitted slope {slopes[0]!r} outside [{lo}, {hi}]"]
    return []


def _check_decreasing(rows, slopes, kernel):
    sups = [r[1] for r in sorted(rows)]
    if any(b >= a for a, b in zip(sups, sups[1:])):
        return [f"sup errors do not decrease in n: {sups}"]
    return []


def _check_voronovskaya(rows, slopes, kernel):
    if any(s is None for s in slopes) or any(b < a for a, b in zip(slopes, slopes[1:])):
        return [f"fitted slopes decrease in m: {slopes}"]
    return []


def _check_kernel_dump(rows, slopes, kernel):
    problems = []
    if any(r[1] <= 0.0 for r in rows):
        problems.append("psi is not positive on every row")
    bound = 4.0 * kernel["eps_trunc"] * kernel["radius"]
    worst = max(abs(r[2] - 1.0) for r in rows)
    if worst > bound:
        problems.append(f"partition of unity off by {worst:.3e} > {bound:.3e}")
    return problems


CHECKS = {
    "rate1": _check_rate1,
    "decreasing": _check_decreasing,
    "voronovskaya": _check_voronovskaya,
    "kernel-dump": _check_kernel_dump,
}


def compare(rows, reference) -> list[str]:
    """Row-by-row match against reference rows within RTOL/ATOL."""
    if len(rows) != len(reference) or any(len(a) != len(b) for a, b in zip(rows, reference)):
        return [f"row shape differs from the reference ({len(rows)} vs {len(reference)} rows)"]
    worst = max(
        (abs(v - r) - RTOL * abs(r), i, v, r)
        for i, (row, ref) in enumerate(zip(rows, reference))
        for v, r in zip(row, ref)
    )
    if worst[0] > ATOL:
        _, i, v, r = worst
        return [f"row {i} value {v!r} differs from the reference {r!r}"]
    return []


def check_run(run, status, reference=None) -> list[str]:
    """Problems found with one run's outputs; empty when it passes."""
    if status != 0:
        return [f"exit status {status!r}"]
    try:
        with open(run.out + ".json", encoding="utf-8") as fh:
            rows, slopes, kernel = parse_report(run.spec.check, json.load(fh))
        csv_rows = _read_csv(run.out + ".csv")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable report: {exc!r}"]
    if not rows:
        return ["report has no rows"]
    if not all(math.isfinite(v) for row in rows for v in row):
        return ["report has non-finite values"]
    problems = []
    if csv_rows != [[float(v) for v in row] for row in rows]:
        problems.append("CSV rows differ from the JSON rows")
    problems += CHECKS[run.spec.check](rows, slopes, kernel)
    if reference is not None:
        problems += compare(rows, reference)
    return problems


# --- self-test and reference recording -------------------------------------


def _import_cli():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "tanhqi", "cli.py")):
        raise SystemExit("perfbench: run from the repository root (no src/tanhqi here)")
    sys.path.insert(0, src)
    from tanhqi import cli
    return cli


def _run(cli, run, extra=()):
    return cli.main([*run.argv, *extra])


class _FsumNumpy:
    """numpy with ``sum`` replaced by exactly rounded math.fsum."""

    def __init__(self, np):
        self._np = np

    def __getattr__(self, name):
        return getattr(self._np, name)

    def sum(self, a, *args, **kwargs):
        return math.fsum(self._np.ravel(a))


@contextlib.contextmanager
def _fsum_operators():
    from tanhqi import operators
    saved = operators.np
    operators.np = _FsumNumpy(saved)
    try:
        yield
    finally:
        operators.np = saved


def _rows(run):
    with open(run.out + ".json", encoding="utf-8") as fh:
        return parse_report(run.spec.check, json.load(fh))[0]


def selftest() -> int:
    """Show that the gate passes the seed-0 runs and trips on perturbed ones."""
    cli = _import_cli()
    ref = load_reference()
    results = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as tmp:
        basic, _, wide = workloads.build("sweep-1d", 0, tmp)
        expected_rows = ref["sweep-1d"]["basic"]

        def case(label, run, status, reference, want_pass):
            problems = check_run(run, status, reference)
            ok = (not problems) == want_pass
            results.append(ok)
            verdict = "passes" if not problems else "trips: " + "; ".join(problems)
            print(f"{'ok  ' if ok else 'FAIL'} {label}: gate {verdict}")

        case("seed-0 basic sweep vs reference", basic, _run(cli, basic), expected_rows, True)
        with _fsum_operators():
            status = _run(cli, basic)
        drift = max(abs(v - r) for a, b in zip(_rows(basic), expected_rows) for v, r in zip(a, b))
        case(f"fsum summation order (max drift {drift:.2e})", basic, status, expected_rows, True)
        case("--q 0.4 vs the q=0.5 reference", basic, _run(cli, basic, ("--q", "0.4")),
             expected_rows, False)
        _run(cli, basic)
        scaled = [[row[0], *(v * (1.0 + 1e-6) for v in row[1:])] for row in _rows(basic)]
        with open(basic.out + ".json", encoding="utf-8") as fh:
            report = json.load(fh)
        report["rows"] = scaled
        with open(basic.out + ".json", "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        case("errors scaled by 1 + 1e-6", basic, 0, expected_rows, False)
        # the W = 256 run has slope ~0.87: the rate1 band must reject it
        slow = workloads.Run(workloads.WORKLOADS["sweep-1d"][0], wide.argv, wide.out)
        case("slope band on the W=256 run", slow, _run(cli, wide), None, False)
    print("selftest", "passed" if all(results) else "FAILED")
    return 0 if all(results) else 1


def record() -> int:
    """Write reference.json from seed-0 runs of every workload."""
    cli = _import_cli()
    ref = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as tmp:
        for name in workloads.WORKLOADS:
            ref[name] = {}
            for run in workloads.build(name, 0, tmp):
                status = _run(cli, run)
                problems = check_run(run, status)
                if problems:
                    print(f"{name}/{run.spec.name}: {problems}", file=sys.stderr)
                    return 1
                ref[name][run.spec.name] = _rows(run)
    # one row per line keeps the file diffable
    text = ",\n".join(
        f"{json.dumps(name)}: {{\n"
        + ",\n".join(
            f" {json.dumps(run)}: [\n" + ",\n".join("  " + json.dumps(row) for row in rows) + "\n ]"
            for run, rows in runs.items()
        )
        + "\n}"
        for name, runs in ref.items()
    )
    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n" + text + "\n}\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    commands = {"selftest": selftest, "record": record}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        print("usage: python3 perfbench/gate.py selftest|record", file=sys.stderr)
        sys.exit(2)
    sys.exit(commands[sys.argv[1]]())
