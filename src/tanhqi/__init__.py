"""Quasi-interpolation operators on a parametrized hyperbolic-tangent kernel.

The package is organized in thin layers: ``activation`` defines the
two-parameter tanh-like function h, ``kernel`` turns it into a density
kernel with exact partition of unity, ``operators`` builds the basic,
Kantorovich, and fractional quasi-interpolants on truncated lattices,
``fractional`` supplies the Riemann-Liouville machinery, ``manifold``
adds chart-based metric weighting, and ``analysis`` runs convergence
sweeps.  Each experiment has one entry point, ``convergence_sweep``,
``residual_sweep``, ``fractional_sweep`` or ``chart_sweep``: it checks
the whole run and returns it bound, and a call runs it.  Every operator
is called as ``(kernel, <its own parameter, if any>, f, n, axes)``: it
takes a tensor grid as its per-axis coordinates and returns the grid's
values in C order; one point x is the axes [[x_1], .., [x_N]].
The ``tanhqi`` console script drives everything in batch mode.
"""

from .activation import ActivationParams, h_derivative, h_eval, h_limits
from .analysis import (
    ConvergenceReport,
    Row,
    chart_sweep,
    convergence_sweep,
    fractional_sweep,
    grid_axes,
    rate_fit,
    residual_sweep,
    sup_error,
)
from .fractional import FracConfig, gamma_fn, power_rule_oracle, rl_derivative_batch
from .kernel import (
    DensityKernel,
    axis_moments,
    multi_indices,
    normalization_constant,
    psi_eval,
    tail_mass,
    truncation_radius,
)
from .manifold import Chart, chart_preset, operator_on_chart_batch
from .operators import (
    apply_basic_batch,
    apply_fractional_batch,
    apply_kantorovich_batch,
    voronovskaya_corrections,
)
from .presets import FunctionPreset, function_preset, preset_names

__version__ = "0.1.0"

__all__ = [
    "ActivationParams",
    "Chart",
    "ConvergenceReport",
    "DensityKernel",
    "FracConfig",
    "FunctionPreset",
    "Row",
    "apply_basic_batch",
    "apply_fractional_batch",
    "apply_kantorovich_batch",
    "axis_moments",
    "chart_preset",
    "chart_sweep",
    "convergence_sweep",
    "fractional_sweep",
    "function_preset",
    "gamma_fn",
    "grid_axes",
    "h_derivative",
    "h_eval",
    "h_limits",
    "multi_indices",
    "normalization_constant",
    "operator_on_chart_batch",
    "power_rule_oracle",
    "preset_names",
    "psi_eval",
    "rate_fit",
    "residual_sweep",
    "rl_derivative_batch",
    "sup_error",
    "tail_mass",
    "truncation_radius",
    "voronovskaya_corrections",
]
