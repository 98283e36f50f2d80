"""Evaluation grids, error sweeps, rate fits, and report serialization."""

import math

import numpy as np
import pytest

from tanhqi import (
    ActivationParams,
    ConvergenceReport,
    DensityKernel,
    Row,
    fractional_rate,
    function_preset,
    grid_points,
    operator_convergence,
    rate_fit,
    residual_orders,
    sup_error,
)
from tanhqi.analysis import ERROR_FLOOR, GRID_SHIFT, sweep

KERNEL = DensityKernel(ActivationParams(0.5, 1.0))
BOX01 = [(0.0, 1.0)]


class TestGridPoints:
    def test_shape_and_bounds(self):
        pts = grid_points([(0.0, 1.0), (-1.0, 2.0)], 7)
        assert pts.shape == (49, 2)
        assert np.all(pts[:, 0] > 0.0) and np.all(pts[:, 0] < 1.0)
        assert np.all(pts[:, 1] > -1.0) and np.all(pts[:, 1] < 2.0)

    def test_avoids_lattice_sites(self):
        # sweep n values never hit a sample exactly, so operator errors
        # are measured between sites rather than on them
        pts = grid_points(BOX01, 101)[:, 0]
        for n in (8, 16, 32, 64, 128, 256, 512):
            dist = np.abs(pts[:, None] * n - np.round(pts[:, None] * n))
            assert dist.min() > 1e-9

    def test_shift_constant(self):
        pts = grid_points(BOX01, 10)[:, 0]
        assert pts[0] == pytest.approx(GRID_SHIFT / 10.0, rel=1e-15)

    @pytest.mark.parametrize("box, points", [
        ([(0.0, math.inf)], 5),
        ([(-math.inf, 1.0)], 5),
        ([(0.0, 1.0), (math.nan, 1.0)], 5),
        (BOX01, 2.5),
        (BOX01, "5"),
    ])
    def test_non_finite_corners_and_fractional_counts_rejected(self, box, points):
        with pytest.raises(ValueError):
            grid_points(box, points)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            grid_points(BOX01, 0)
        with pytest.raises(ValueError):
            grid_points([(1.0, 1.0)], 5)


class TestSupError:
    def test_known_errors(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        sup, mean = sup_error(lambda p: p[:, 0] + 1.0, lambda p: p[:, 0], pts)
        assert sup == 1.0 and mean == 1.0

    def test_varying_errors(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        sup, mean = sup_error(lambda p: 2.0 * p[:, 0], lambda p: p[:, 0], pts)
        assert sup == 2.0
        assert mean == pytest.approx(1.0, rel=1e-15)

    def test_matches_fsum_mean(self):
        rng = np.random.default_rng(77)
        pts = rng.uniform(0.0, 1.0, size=(200, 1))
        sup, mean = sup_error(lambda p: np.array([math.sin(v) for v in p[:, 0]]),
                              lambda p: p[:, 0], pts)
        errs = [abs(math.sin(p[0]) - p[0]) for p in pts]
        assert sup == max(errs)
        assert mean == pytest.approx(math.fsum(errs) / len(errs), rel=1e-14)

    def test_failure_reports_offending_point(self):
        def bad(p):
            if (p[:, 0] > 0.5).any():
                raise ValueError("boom")
            return np.zeros(len(p))

        pts = np.array([[0.1], [0.9]])
        with pytest.raises(ValueError, match=r"boom \(at evaluation point \[0.9\]\)"):
            sup_error(bad, lambda p: np.zeros(len(p)), pts)

    def test_failure_with_multi_argument_exception(self):
        class TwoArgError(Exception):
            def __init__(self, what, where):
                super().__init__(f"{what} in {where}")

        def bad(p):
            raise TwoArgError("overflow", "cell 3")

        with pytest.raises(RuntimeError, match=r"overflow in cell 3 \(at evaluation point \[0.5\]\)") as info:
            sup_error(bad, lambda p: np.zeros(len(p)), np.array([[0.5]]))
        assert isinstance(info.value.__cause__, TwoArgError)

    def test_failure_of_whole_batch_only_propagates(self):
        # every single point succeeds, so the batch's own exception is re-raised
        def batch_only(p):
            if len(p) > 1:
                raise MemoryError("batch too large")
            return np.zeros(len(p))

        with pytest.raises(MemoryError, match="^batch too large$"):
            sup_error(batch_only, lambda p: np.zeros(len(p)), np.array([[0.1], [0.9]]))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sup_error(lambda p: np.zeros(len(p)), lambda p: np.zeros(len(p)), np.empty((0, 1)))


class TestSweep:
    def test_one_row_per_distinct_n_and_fit(self):
        seen = []

        def apply_for(n):
            seen.append(n)
            return lambda p: np.full(len(p), 3.0 / n)

        pts = grid_points(BOX01, 4)
        rep = sweep(apply_for, lambda p: np.zeros(len(p)), pts, (32, 8, 16, 8), {"k": 1}, "target")
        assert seen == [8, 16, 32]
        assert [r.n for r in rep.rows] == seen
        assert [r.sup_error for r in rep.rows] == [3.0 / n for n in seen]
        assert rep.fitted_slope == pytest.approx(1.0, abs=1e-12)
        assert rep.config == {"k": 1}
        assert rep.target_description == "target"
        assert rep.claimed_exponent is None and rep.excluded_rows == 0

    def test_floor_rows_counted_and_fit_skipped(self):
        pts = grid_points(BOX01, 3)
        zeros = lambda p: np.zeros(len(p))  # noqa: E731
        rep = sweep(lambda n: zeros, zeros, pts, (8, 16, 32), {}, "t", "n^-1")
        assert rep.excluded_rows == 3 and rep.fitted_slope is None
        assert "fit skipped" in rep.note
        assert rep.claimed_exponent == "n^-1"

    @pytest.mark.parametrize("n_sweep", [(), (0, 16), (-4,)])
    def test_non_positive_or_empty_sweep_rejected(self, n_sweep):
        with pytest.raises(ValueError, match="n sweep"):
            zeros = lambda p: np.zeros(len(p))  # noqa: E731
            sweep(lambda n: zeros, zeros, grid_points(BOX01, 3), n_sweep, {}, "t")


    def test_non_finite_error_names_n(self):
        pts = grid_points(BOX01, 3)
        apply_for = lambda n: lambda p: np.full(len(p), np.nan if n == 16 else 1.0)  # noqa: E731
        with pytest.raises(RuntimeError, match="error at n = 16 is not finite"):
            sweep(apply_for, lambda p: np.zeros(len(p)), pts, (8, 16, 32), {}, "t")


class TestRateFit:
    def test_recovers_exact_power_law(self):
        rows = [(n, 3.7 * n**-2.5) for n in (8, 16, 32, 64)]
        slope, intercept, r2 = rate_fit(rows)
        assert slope == pytest.approx(2.5, abs=1e-12)
        assert math.exp(intercept) == pytest.approx(3.7, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_slope_invariant_under_scaling(self):
        rows = [(n, 2.0 * n**-1.3) for n in (16, 32, 64, 128)]
        scaled = [(n, 100.0 * e) for n, e in rows]
        assert rate_fit(rows)[0] == pytest.approx(rate_fit(scaled)[0], abs=1e-12)

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            rate_fit([(16, 1e-2), (32, 5e-3)])

    def test_floor_drops_rows(self):
        rows = [(16, 1e-2), (32, 5e-3), (64, 2.5e-3), (128, 0.0)]
        slope, _, _ = rate_fit(rows, floor=1e-12)
        assert slope == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            rate_fit([(16, 1e-2), (32, 0.0), (64, 0.0), (128, 0.0)], floor=1e-12)


class TestReportSerialization:
    def test_round_trip_equality(self):
        rep = operator_convergence("basic", KERNEL, function_preset("sin"), (16, 32, 64), BOX01, 11)
        back = ConvergenceReport.from_json(rep.to_json())
        assert back == rep
        assert isinstance(back.rows, tuple)
        assert isinstance(back.rows[0], Row)

    def test_dict_rows_are_lists(self):
        rep = operator_convergence("basic", KERNEL, function_preset("sin"), (16, 32, 64), BOX01, 5)
        d = rep.to_dict()
        assert all(isinstance(r, list) for r in d["rows"])


class TestOperatorConvergence:
    def test_basic_sin_first_order(self):
        rep = operator_convergence("basic", KERNEL, function_preset("sin"), (16, 32, 64), BOX01, 21)
        assert rep.fitted_slope == pytest.approx(1.0, abs=0.1)
        assert rep.r_squared > 0.999
        assert rep.config["operator"] == "basic"
        assert rep.config["preset"] == "sin"
        assert [r.n for r in rep.rows] == [16, 32, 64]

    def test_sweep_sorted_and_deduplicated(self):
        rep = operator_convergence("basic", KERNEL, function_preset("sin"), (64, 16, 16, 32), BOX01, 5)
        assert [r.n for r in rep.rows] == [16, 32, 64]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            operator_convergence("fractional", KERNEL, function_preset("sin"), (16, 32, 64), BOX01, 5)


class TestResidualOrders:
    def test_sin_slopes_increase_by_one(self):
        reps = residual_orders(KERNEL, function_preset("sin"), BOX01, 21, (16, 32, 64), 2)
        slopes = [r.fitted_slope for r in reps]
        assert slopes[0] == pytest.approx(1.0, abs=0.1)
        assert slopes[1] == pytest.approx(2.0, abs=0.15)
        assert slopes[2] == pytest.approx(3.0, abs=0.2)
        assert slopes == sorted(slopes)

    def test_m_zero_is_uncorrected_error(self):
        reps = residual_orders(KERNEL, function_preset("sin"), BOX01, 11, (16, 32, 64), 0)
        rep = operator_convergence("basic", KERNEL, function_preset("sin"), (16, 32, 64), BOX01, 11)
        assert reps[0].rows == rep.rows

    def test_linear_first_order_hits_floor(self):
        # the correction removes the whole error of an affine target, so
        # every row lands at rounding level and the fit is skipped
        reps = residual_orders(KERNEL, function_preset("linear"), BOX01, 11, (16, 32, 64), 1)
        m1 = reps[1]
        assert all(r.sup_error <= ERROR_FLOOR for r in m1.rows)
        assert m1.fitted_slope is None
        assert m1.excluded_rows == 3
        assert "fit skipped" in m1.note

    def test_rough_target_slope_saturates(self):
        # |t - 1/2|^2.5 only supplies 2.5 derivatives, so the order-2
        # residual cannot reach the third-order rate of smooth targets
        reps = residual_orders(KERNEL, function_preset("abs25"), BOX01, 21, (16, 32, 64, 128), 2)
        assert 2.3 <= reps[2].fitted_slope <= 2.95

    def test_smoothness_cap(self):
        with pytest.raises(ValueError, match="smoothness"):
            residual_orders(KERNEL, function_preset("abs25"), BOX01, 11, (16, 32, 64), 3)

    def test_m_max_range(self):
        with pytest.raises(ValueError):
            residual_orders(KERNEL, function_preset("sin"), BOX01, 11, (16, 32, 64), 5)


class TestFractionalRate:
    def test_report_strings(self):
        rep = fractional_rate(KERNEL, function_preset("pow2"), 0.5, [(0.2, 1.0)], 5, (64, 128, 256), frac_step=2e-3)
        assert rep.target_description == "D^beta f (oracle)"
        assert "recorded, not asserted" in rep.claimed_exponent
        assert rep.fitted_slope == pytest.approx(1.0, abs=0.3)

    def test_non_monomial_rejected(self):
        with pytest.raises(ValueError, match="monomial"):
            fractional_rate(KERNEL, function_preset("sin"), 0.5, [(0.2, 1.0)], 5, (64, 128, 256))

    def test_box_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            fractional_rate(KERNEL, function_preset("pow2"), 0.5, [(-0.5, 1.0)], 5, (64, 128, 256))

    def test_oversized_l1_grid_rejected(self):
        # the farthest lattice node is 1 + 16/64 = 1.25, which needs 1.25e7 L1 points
        with pytest.raises(ValueError, match="L1 grid would need 12500000 points"):
            fractional_rate(KERNEL, function_preset("pow2"), 0.5, [(0.2, 1.0)], 5, (64, 128), frac_step=1e-7)

    def test_box_touching_origin_rejected(self):
        # every sample would be positive, but the box itself is not
        with pytest.raises(ValueError, match="positive"):
            fractional_rate(KERNEL, function_preset("pow2"), 0.5, [(0.0, 1.0)], 5, (64, 128, 256))
