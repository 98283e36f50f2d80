"""Benchmark workloads: the CLI runs each one makes, generated from a seed.

Every workload is a fixed list of ``tanhqi`` command lines.  The seed only
moves each evaluation box by an offset smaller than one grid cell (seed 0
gives no offset, so the seed-0 reference rows in ``reference.json`` stay
valid).  Offsets are non-negative, so the ``frac`` box and the half-plane
box stay strictly positive.  The program receives nothing but the argv.

This module is stdlib-only so the harness can import it before numpy
loads and the BLAS thread pins take effect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SWEEP_N = (16, 32, 64, 128, 256, 512, 1024, 2048)
KERNEL = ("--q", "0.5", "--trunc-eps", "1e-12")


@dataclass(frozen=True)
class RunSpec:
    """One CLI run: its flags apart from n, the box and the output, and its check."""

    name: str
    flags: tuple[str, ...]
    n: tuple[int, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    points: int
    check: str  # "rate1", "decreasing", "voronovskaya" or "kernel-dump"
    per_point: int = 1  # evaluations per point and n (m_max + 1 for voronovskaya)

    @property
    def evals(self) -> int:
        """Per-point evaluations the run completes (points x n values x per_point)."""
        return self.points ** len(self.lo) * len(self.n) * self.per_point


@dataclass(frozen=True)
class Run:
    """A RunSpec bound to a seed's box and an output directory."""

    spec: RunSpec
    argv: tuple[str, ...]
    out: str


def _converge(name, operator, alpha, check, extra=()):
    return RunSpec(
        name,
        ("converge", "--preset", "runge", "--operator", operator, "--alpha", alpha,
         *KERNEL, *extra),
        SWEEP_N, (0.0,), (1.0,), 1001, check,
    )


WORKLOADS: dict[str, tuple[RunSpec, ...]] = {
    # Per-point 1-D window sums: operators, kernel, activation, presets and
    # the analysis.sup_error loop.  Kantorovich adds cell quadrature; the
    # alpha = 1/16 run has a 16x wider window (W = 256, pre-asymptotic,
    # slope ~0.87), so a batched engine's speed/memory trade shows.
    # fractional and manifold stay idle.
    "sweep-1d": (
        _converge("basic", "basic", "1", "rate1"),
        _converge("kantorovich", "kantorovich", "1", "rate1", ("--quad-nodes", "5")),
        _converge("basic-wide", "basic", "0.0625", "decreasing"),
    ),
    # rl_derivative dominates (> 85%).  Step 1e-3 gives short L1 grids
    # (<= 1000 points, call-overhead bound), step 1e-4 long ones (<= 10000
    # points, arithmetic bound).  Kernel window work is under 5%.
    "frac": (
        RunSpec("pow2", ("frac", "--preset", "pow2", "--beta", "0.5", "--frac-step", "1e-3",
                         "--alpha", "1", *KERNEL),
                (64, 128, 256, 512, 1024, 2048), (0.2,), (1.0,), 101, "rate1"),
        RunSpec("pow3", ("frac", "--preset", "pow3", "--beta", "0.25", "--frac-step", "1e-4",
                         "--alpha", "1", *KERNEL),
                (64, 128, 256, 512), (0.2,), (1.0,), 51, "rate1"),
    ),
    # The same kernel windows used differently: moment powers and
    # multi-index derivatives, 2-D density-weighted renormalised sums, and
    # the largest report (kernel-dump).
    "moments-chart": (
        RunSpec("voronovskaya", ("voronovskaya", "--preset", "sin", "--m-max", "4", "--alpha", "1",
                                 *KERNEL),
                (16, 32, 64, 128, 256, 512), (0.0,), (1.0,), 201, "voronovskaya", per_point=5),
        RunSpec("half-plane", ("manifold", "--chart", "poincare-half-plane", "--preset", "sin-exp",
                               "--alpha", "1", *KERNEL),
                (32, 64, 128, 256), (-1.0, 1.0), (1.0, 2.0), 41, "rate1"),
        RunSpec("kernel-dump", ("kernel-dump", "--alpha", "1", *KERNEL),
                (64,), (0.0,), (1.0,), 1001, "kernel-dump"),
    ),
}


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def shifted_box(spec: RunSpec, rng: random.Random | None):
    """The spec's box moved by u * cell per axis, u in [0, 1); rng None means u = 0."""
    lo, hi = [], []
    for a, b in zip(spec.lo, spec.hi):
        shift = 0.0 if rng is None else rng.random() * (b - a) / spec.points
        lo.append(a + shift)
        hi.append(b + shift)
    return lo, hi


def build(workload: str, seed: int, out_dir: str) -> list[Run]:
    """The workload's runs for this seed, writing reports under out_dir."""
    rng = None if seed == 0 else random.Random(seed)
    runs = []
    for spec in WORKLOADS[workload]:
        lo, hi = shifted_box(spec, rng)
        out = f"{out_dir}/{spec.name}"
        # "--flag=value" keeps negative corners from parsing as flags
        argv = (*spec.flags, "--n", ",".join(str(n) for n in spec.n),
                f"--grid-lo={_floats(lo)}", f"--grid-hi={_floats(hi)}",
                "--grid-points", str(spec.points), "--out", out)
        runs.append(Run(spec, argv, out))
    return runs


def evals(workload: str) -> int:
    return sum(spec.evals for spec in WORKLOADS[workload])
