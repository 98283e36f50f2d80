"""Quasi-interpolation operators on a parametrized hyperbolic-tangent kernel.

The package is organized in thin layers: ``activation`` defines the
two-parameter tanh-like function h, ``kernel`` turns it into a density
kernel with exact partition of unity, ``operators`` builds the basic,
Kantorovich, and fractional quasi-interpolants on truncated lattices,
``fractional`` supplies the Riemann-Liouville machinery, ``manifold``
adds chart-based metric weighting, and ``analysis`` runs convergence
sweeps.  Every operator has a batched form (``*_batch``) that evaluates
a whole (P, N) point array; the one-point functions wrap it.  The
``tanhqi`` console script drives everything in batch mode.
"""

from .activation import ActivationParams, h_derivative, h_eval, h_limits
from .analysis import (
    ConvergenceReport,
    Row,
    fractional_rate,
    grid_points,
    operator_convergence,
    rate_fit,
    residual_orders,
    sup_error,
)
from .fractional import FracConfig, gamma_fn, power_rule_oracle, rl_derivative
from .kernel import (
    DensityKernel,
    MultiIndex,
    lattice_window,
    moment,
    multi_indices,
    normalization_constant,
    partition_sum,
    psi_eval,
    truncation_radius,
    z_eval,
)
from .manifold import (
    Chart,
    DiagnosticError,
    MetricKernel,
    chart_preset,
    operator_on_chart,
    operator_on_chart_batch,
    volume_normalize,
)
from .operators import (
    OperatorConfig,
    apply_basic,
    apply_basic_batch,
    apply_fractional,
    apply_fractional_batch,
    apply_kantorovich,
    apply_kantorovich_batch,
    voronovskaya_correction,
    voronovskaya_correction_batch,
)
from .presets import FunctionPreset, function_preset, preset_names

__version__ = "0.1.0"

__all__ = [
    "ActivationParams",
    "Chart",
    "ConvergenceReport",
    "DensityKernel",
    "DiagnosticError",
    "FracConfig",
    "FunctionPreset",
    "MetricKernel",
    "MultiIndex",
    "OperatorConfig",
    "Row",
    "apply_basic",
    "apply_basic_batch",
    "apply_fractional",
    "apply_fractional_batch",
    "apply_kantorovich",
    "apply_kantorovich_batch",
    "chart_preset",
    "fractional_rate",
    "function_preset",
    "gamma_fn",
    "grid_points",
    "h_derivative",
    "h_eval",
    "h_limits",
    "lattice_window",
    "moment",
    "multi_indices",
    "normalization_constant",
    "operator_convergence",
    "operator_on_chart",
    "operator_on_chart_batch",
    "partition_sum",
    "power_rule_oracle",
    "preset_names",
    "psi_eval",
    "rate_fit",
    "residual_orders",
    "rl_derivative",
    "sup_error",
    "truncation_radius",
    "voronovskaya_correction",
    "voronovskaya_correction_batch",
    "volume_normalize",
    "z_eval",
]
