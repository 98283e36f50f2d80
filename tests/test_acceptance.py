"""End-to-end acceptance checks, one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines next to the test names.  Every check recomputes its quantities
from scratch at the tolerances stated in the assertions; nothing is
cached between criteria.
"""

import json
import math

import numpy as np

from tanhqi import (
    ActivationParams,
    DensityKernel,
    FracConfig,
    apply_basic_batch,
    apply_kantorovich_batch,
    axis_moments,
    chart_preset,
    convergence_sweep,
    fractional_sweep,
    function_preset,
    h_derivative,
    h_eval,
    operator_on_chart_batch,
    power_rule_oracle,
    residual_sweep,
    rl_derivative_batch,
)
from tanhqi import cli

Q_GRID = (0.1, 0.3, 0.5, 0.9)
ALPHA_GRID = (0.5, 1.0, 2.0)
N_SWEEP = (16, 32, 64, 128, 256, 512)
BOX01 = [(0.0, 1.0)]


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_partition_of_unity():
    worst = 0.0
    xs = np.linspace(0.0, 1.0, 101)
    for q in Q_GRID:
        for alpha in ALPHA_GRID:
            kernel = DensityKernel(ActivationParams(q, alpha), eps_trunc=1e-14)
            # the truncated partition sum is the zeroth moment at n = 1
            sums = axis_moments(kernel, xs, 1, 0)[:, 0]
            worst = max(worst, float(np.max(np.abs(sums - 1.0))))
    _verdict(1, worst <= 1e-12,
             f"max |sum_k psi(x-k) - 1| = {worst:.3e} <= 1e-12 over 12 (q, alpha) pairs, 101 points")


def test_criterion_2_derivative_oracle():
    step = 1e-5
    xs = np.linspace(-10.0, 10.0, 1000)
    worst = 0.0
    for q in Q_GRID:
        for alpha in ALPHA_GRID:
            p = ActivationParams(q, alpha)
            numeric = (
                -h_eval(p, xs + 2 * step)
                + 8.0 * h_eval(p, xs + step)
                - 8.0 * h_eval(p, xs - step)
                + h_eval(p, xs - 2 * step)
            ) / (12.0 * step)
            analytic = h_derivative(p, xs)
            rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
            worst = max(worst, float(rel.max()))
    _verdict(2, worst <= 1e-8,
             f"analytic slope (numerator 2*alpha*(1+q^2), the printed 1-q^2 variant fails "
             f"this oracle) vs 4th-order differences: worst rel {worst:.3e} <= 1e-8")


def test_criterion_3_operator_exactness():
    kernel = DensityKernel(ActivationParams(0.5, 1.0))
    one = function_preset("constant")
    lin = function_preset("linear")
    rng = np.random.default_rng(2024)
    xs = rng.uniform(-3.0, 3.0, size=50)
    pts = [xs]
    worst_const = 0.0
    worst_linear = 0.0
    for n in (16, 512):
        for vals in (apply_basic_batch(kernel, one, n, pts),
                     apply_kantorovich_batch(kernel, 5, one, n, pts)):
            worst_const = max(worst_const, float(np.max(np.abs(vals - 1.0))))
        gap = apply_basic_batch(kernel, lin, n, pts) - xs
        m1 = axis_moments(kernel, xs, n, 1)[:, 1]
        worst_linear = max(worst_linear, float(np.max(np.abs(gap - m1))))
    ok = worst_const <= 1e-12 and worst_linear <= 1e-12
    _verdict(3, ok,
             f"constants: max |A_n(1)-1|, |K_n(1)-1| = {worst_const:.3e} <= 1e-12; "
             f"linear moment identity gap = {worst_linear:.3e} <= 1e-12 (n in {{16, 512}}, 50 points)")


def test_criterion_4_basic_operator_rate():
    kernel = DensityKernel(ActivationParams(0.5, 1.0))
    report = convergence_sweep("basic", kernel, function_preset("sin"), N_SWEEP, BOX01, 101)()[0]
    slope, r2 = report.fitted_slope, report.r_squared
    ok = 0.9 <= slope <= 1.1 and r2 >= 0.99
    _verdict(4, ok,
             f"sin sweep n = 16..512: fitted slope {slope:.4f} in [0.9, 1.1], r^2 = {r2:.7f} >= 0.99")


def test_criterion_5_voronovskaya_residuals():
    kernel = DensityKernel(ActivationParams(0.5, 1.0))
    reps = residual_sweep(kernel, function_preset("sin"), BOX01, 101, N_SWEEP, 1)()
    gap = reps[1].fitted_slope - reps[0].fitted_slope
    lin = residual_sweep(kernel, function_preset("linear"), BOX01, 101, N_SWEEP, 1)()
    worst_lin = max(r.sup_error for r in lin[1].rows)
    ok = 0.7 <= gap <= 1.3 and worst_lin <= 1e-12
    _verdict(5, ok,
             f"sin slope(m=1) - slope(m=0) = {gap:.4f} in [0.7, 1.3]; "
             f"linear m=1 residual sup = {worst_lin:.3e} <= 1e-12")


def test_criterion_6_fractional_derivative():
    worst = 0.0
    for p in (0, 1, 2, 3):
        f = function_preset(f"pow{p}")
        for beta in (0.25, 0.5, 0.75):
            for x in (0.5, 1.0, 2.0):
                got = rl_derivative_batch(FracConfig(beta, 1e-3), f, [x])[0]
                want = power_rule_oracle(p, beta, x)
                worst = max(worst, abs(got - want) / abs(want))
    orders = []
    f2 = function_preset("pow2")
    for beta in (0.25, 0.5, 0.75):
        exact = power_rule_oracle(2, beta, 1.0)
        errs = [abs(rl_derivative_batch(FracConfig(beta, h), f2, [1.0])[0] - exact)
                for h in (2e-3, 1e-3, 5e-4)]
        rate = float(np.mean([math.log2(errs[i] / errs[i + 1]) for i in range(2)]))
        orders.append((beta, rate))
    order_ok = all(abs(rate - (2.0 - beta)) <= 0.2 * (2.0 - beta) for beta, rate in orders)
    ok = worst <= 5e-4 and order_ok
    order_txt = ", ".join(f"beta={b:g}: {r:.3f} (target {2 - b:g})" for b, r in orders)
    _verdict(6, ok,
             f"36-case power-rule matrix worst rel {worst:.3e} <= 5e-4; orders {order_txt}, "
             f"each within 20%")


def test_criterion_7_fractional_operator_rate():
    kernel = DensityKernel(ActivationParams(0.5, 1.0))
    report = fractional_sweep(kernel, function_preset("pow2"), 0.5, [(0.2, 1.0)], 9,
                              (64, 128, 256, 512))()[0]
    slope = report.fitted_slope
    echoed = report.claimed_exponent
    ok = slope >= 0.7 and "recorded, not asserted" in echoed
    _verdict(7, ok,
             f"sup |Q_n(t^2) - D^0.5 t^2| over [0.2, 1]: fitted slope {slope:.4f} >= 0.7; "
             f"advertised exponent echoed without assertion ({echoed.split(';')[0]})")


def test_criterion_8_manifold_uniform_convergence():
    kernel = DensityKernel(ActivationParams(0.5, 1.0))
    chart = chart_preset("poincare-half-plane")
    f = function_preset("sin-exp")
    xs = np.linspace(-1.0, 1.0, 9)
    ys = np.linspace(1.0, 2.0, 9)
    sups = []
    for n in (32, 64, 128, 256):
        got = operator_on_chart_batch(kernel, chart, f, n, [xs, ys])
        sups.append(float(np.max(np.abs(got - f.value(*np.ix_(xs, ys)).ravel()))))
    ratios = [float(sups[i] / sups[i + 1]) for i in range(3)]
    ok = min(ratios) >= 1.7
    _verdict(8, ok,
             f"half-plane box [-1,1]x[1,2], f = sin(x)exp(-y): sup errors {sups[0]:.3e} -> "
             f"{sups[-1]:.3e}, per-doubling ratios {[round(r, 3) for r in ratios]}, min >= 1.7")


def test_criterion_9_cli_determinism(tmp_path):
    args = ["converge", "--operator", "basic", "--preset", "sin"]
    out_a, out_b = tmp_path / "first", tmp_path / "second"
    status_a = cli.main(args + ["--out", str(out_a)])
    status_b = cli.main(args + ["--out", str(out_b)])
    csv_a = (tmp_path / "first.csv").read_bytes()
    csv_b = (tmp_path / "second.csv").read_bytes()
    json_a = json.loads((tmp_path / "first.json").read_text())
    json_b = json.loads((tmp_path / "second.json").read_text())
    ok = status_a == 0 and status_b == 0 and csv_a == csv_b and json_a["rows"] == json_b["rows"]
    _verdict(9, ok,
             f"two converge runs: exit ({status_a}, {status_b}), CSV byte-identical = {csv_a == csv_b} "
             f"({len(csv_a)} bytes)")
