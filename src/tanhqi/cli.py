"""Batch command-line runner for the kernel and operator experiments.

Subcommands
-----------
converge      error sweep of the basic or Kantorovich operator vs n
voronovskaya  residual sweeps for moment-correction orders 0..m_max
frac          fractional operator vs the D^beta power-rule oracle
kernel-dump   psi samples and discrete moments on a grid
manifold      metric-weighted operator on a chart vs the sampled f

Each run writes ``<out>.csv`` (the sweep table, 17 significant digits,
LF line endings) and ``<out>.json`` (the full report); ``--format json``
skips the CSV.  Runs are fully deterministic: identical configs produce
byte-identical files.

Exit status: 0 success, 2 invalid configuration (including a per-point
working set above kernel.MAX_POINT_WORK), 3 numerical diagnostic failure,
a non-finite error, or a run that could not complete (RuntimeError,
MemoryError), 4 I/O failure.  Errors are printed to stderr as a single
JSON line ``{"status": ..., "error": ...}``; runs execute with numpy's
floating-point warnings off, so nothing else reaches stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
from dataclasses import asdict, dataclass, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .activation import ActivationParams
from .analysis import (
    check_fractional,
    check_grid,
    check_m_max,
    check_sweep,
    fractional_rate,
    grid_points,
    operator_convergence,
    residual_orders,
    sweep,
)
from .fractional import FracConfig
from .kernel import DensityKernel, axis_moments, point_work, psi_eval
from .manifold import MetricKernel, chart_preset, operator_on_chart_batch
from .operators import OperatorConfig
from .presets import function_preset, preset_names

__all__ = ["main", "ExperimentConfig", "ConfigError"]


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration (exit status 2)."""


@dataclass
class ExperimentConfig:
    """Fully resolved parameters of one run; serializes to/from JSON."""

    command: str
    q: float = 0.5
    alpha: float = 1.0
    trunc_eps: float = 1e-12
    operator: str = "basic"
    preset: str | None = None
    chart: str = "poincare-half-plane"
    beta: float = 0.5
    quad_nodes: int = 5
    frac_step: float = 1e-3
    m_max: int = 2
    n_sweep: list[int] | None = None
    grid_lo: list[float] | None = None
    grid_hi: list[float] | None = None
    grid_points: int | None = None
    out: str | None = None
    fmt: str = "csv"

    def to_dict(self) -> dict:
        return asdict(self)

    def box(self):
        return list(zip(self.grid_lo, self.grid_hi))


_DEFAULTS = {
    "converge": dict(n_sweep=[16, 32, 64, 128, 256, 512], grid_lo=[0.0], grid_hi=[1.0],
                     grid_points=101, preset=None),
    "voronovskaya": dict(n_sweep=[16, 32, 64, 128, 256, 512], grid_lo=[0.0], grid_hi=[1.0],
                         grid_points=101, preset="sin"),
    "frac": dict(n_sweep=[64, 128, 256, 512], grid_lo=[0.2], grid_hi=[1.0],
                 grid_points=9, preset=None),
    "kernel-dump": dict(n_sweep=[8], grid_lo=[0.0], grid_hi=[1.0], grid_points=11,
                        preset=None),
    "manifold": dict(n_sweep=[32, 64, 128, 256], grid_lo=[-1.0, 1.0], grid_hi=[1.0, 2.0],
                     grid_points=9, preset="sin-exp"),
}

_REQUIRED_PRESET = ("converge", "frac")
# commands whose box has one axis per preset coordinate; the rest use one axis
_PRESET_AXES = ("converge", "manifold")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from None


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected a comma-separated float list, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    # one machine-readable line on stderr instead of usage + prose
    def error(self, message):
        print(json.dumps({"status": 2, "error": message}), file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tanhqi",
        description="Deterministic convergence experiments for tanh-kernel quasi-interpolation operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_common(p, grid_help):
        p.add_argument("--config", metavar="FILE",
                       help="JSON file with the same keys as the flags; flags override it")
        p.add_argument("--print-config", action="store_true",
                       help="echo the merged effective config as JSON and exit without running")
        p.add_argument("--q", type=float, help="kernel shape parameter, open interval (0, 1)")
        p.add_argument("--alpha", type=float, help="kernel slope parameter, > 0")
        p.add_argument("--trunc-eps", type=float, dest="trunc_eps",
                       help="lattice truncation tolerance, open interval (0, 1); default 1e-12")
        p.add_argument("--n", dest="n_sweep", type=_parse_int_list, metavar="N1,N2,...",
                       help="comma-separated lattice densities, each >= 1")
        p.add_argument("--grid-lo", dest="grid_lo", type=_parse_float_list, metavar="LO[,LO2]",
                       help=f"lower evaluation-grid corner{grid_help}")
        p.add_argument("--grid-hi", dest="grid_hi", type=_parse_float_list, metavar="HI[,HI2]",
                       help=f"upper evaluation-grid corner{grid_help}")
        p.add_argument("--grid-points", dest="grid_points", type=int,
                       help="evaluation points per axis, >= 1")
        p.add_argument("--out", help="output base name; writes <out>.csv and <out>.json")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       help="csv writes the table plus the JSON report; json skips the table")

    p = sub.add_parser("converge", help="operator error sweep over n",
                       description="Sweep |operator(f) - f| over n and fit the log-log rate. "
                                   "CSV columns: n,sup_error,mean_error.")
    add_common(p, " (one entry per preset coordinate)")
    p.add_argument("--operator", choices=("basic", "kantorovich"),
                   help="operator variant; default basic")
    p.add_argument("--preset", help=f"sampled function, one of: {', '.join(preset_names())}")
    p.add_argument("--quad-nodes", dest="quad_nodes", type=int,
                   help="Gauss-Legendre nodes per axis for Kantorovich cells, >= 2; default 5")

    p = sub.add_parser("voronovskaya", help="moment-correction residual sweeps",
                       description="Residuals after moment corrections of orders 0..m_max. "
                                   "CSV columns: m,n,sup_error,mean_error.")
    add_common(p, " (one axis)")
    p.add_argument("--preset", help="sampled function; default sin")
    p.add_argument("--m-max", dest="m_max", type=int,
                   help="highest correction order, 0..4 and at most the preset smoothness; default 2")

    p = sub.add_parser("frac", help="fractional operator vs the power-rule oracle",
                       description="Sweep |Q_n(f) - D^beta f| over n on a positive box; f must be "
                                   "a monomial preset. CSV columns: n,sup_error,mean_error.")
    add_common(p, " (one axis, strictly positive)")
    p.add_argument("--preset", help="monomial preset (pow0..pow3, constant, linear, quadratic, cubic)")
    p.add_argument("--beta", type=float, help="fractional order, open interval (0, 1); default 0.5")
    p.add_argument("--frac-step", dest="frac_step", type=float,
                   help="L1 scheme step bound, (0, 0.1]; default 1e-3")

    p = sub.add_parser("kernel-dump", help="psi samples and discrete moments",
                       description="Tabulate the kernel on the grid. CSV columns: x, psi (kernel value "
                                   "at x), moment0..moment3 (M_p(x, n) for p = 0..3), and "
                                   "n_times_moment1 (= n * M_1, constant across rows sharing frac(n x)). "
                                   "--n must hold exactly one value.")
    add_common(p, " (one axis)")

    p = sub.add_parser("manifold", help="metric-weighted operator on a chart",
                       description="Sweep |operator(f) - f| on a chart box. CSV columns: "
                                   "n,sup_error,mean_error.")
    add_common(p, " (one entry per chart axis)")
    p.add_argument("--chart", choices=("euclidean", "torus", "poincare-half-plane"),
                   help="chart preset; default poincare-half-plane")
    p.add_argument("--preset", help="sampled function matching the chart dimension; default sin-exp")

    return parser


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"config file {path!r} has unknown keys: {', '.join(unknown)}")
    hints = get_type_hints(ExperimentConfig)
    for key, value in data.items():
        # null leaves the default in place, as if the key were absent
        if value is not None and not _has_type(value, hints[key]):
            raise ConfigError(
                f"config file {path!r}: {key} must be {known[key]}, got {value!r}"
            )
    return data


def _has_type(value, tp) -> bool:
    """Whether a JSON value fits an ExperimentConfig annotation; a bool is no number."""
    if get_origin(tp) is types.UnionType:
        return any(_has_type(value, t) for t in get_args(tp))
    if get_origin(tp) is list:
        return isinstance(value, list) and all(_has_type(v, get_args(tp)[0]) for v in value)
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if tp is float else tp)


def merge_config(args: argparse.Namespace) -> ExperimentConfig:
    """Resolve one run's config: flags override the file, file overrides defaults."""
    command = args.command
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    if file_values.get("command", command) != command:
        raise ConfigError(
            f"config file is for command {file_values['command']!r}, invoked {command!r}"
        )
    cfg = ExperimentConfig(command=command)
    for key, value in _DEFAULTS[command].items():
        setattr(cfg, key, value)
    cfg.out = command
    for f in fields(ExperimentConfig):
        if f.name == "command":
            continue
        if f.name in file_values and file_values[f.name] is not None:
            setattr(cfg, f.name, file_values[f.name])
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            setattr(cfg, f.name, flag_value)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    """Apply the rules only the CLI has, then let the library check the rest.

    Range checks belong to the library objects and preconditions built
    here (kernel, fractional and operator configs, grid, correction
    order, fractional target); they raise the ValueError a run would,
    so --print-config rejects the same configs.
    """
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError(f"--format must be csv or json, got {cfg.fmt!r}")
    if not cfg.out:
        raise ConfigError("--out must not be empty")
    if cfg.preset is None and cfg.command in _REQUIRED_PRESET:
        raise ConfigError(f"missing required flag --preset for command {cfg.command!r}")
    if cfg.command == "kernel-dump" and len(cfg.n_sweep) != 1:
        raise ConfigError("--n must hold exactly one value for kernel-dump")
    if len(cfg.grid_lo) != len(cfg.grid_hi):
        raise ConfigError(
            f"--grid-lo has {len(cfg.grid_lo)} entries, --grid-hi has {len(cfg.grid_hi)}"
        )
    preset = None if cfg.preset is None else function_preset(cfg.preset)
    expected_axes = preset.dim if cfg.command in _PRESET_AXES else 1
    if len(cfg.grid_lo) != expected_axes:
        raise ConfigError(
            f"{cfg.command} needs {expected_axes} grid axis/axes, got {len(cfg.grid_lo)}"
        )
    kernel = _kernel_for(cfg)
    FracConfig(cfg.beta, cfg.frac_step)
    ns = check_sweep(cfg.n_sweep)
    for n in ns:
        OperatorConfig(cfg.operator, n, kernel, quad_nodes=cfg.quad_nodes)
    check_grid(cfg.box(), cfg.grid_points)
    check_m_max(cfg.m_max)
    kantorovich = cfg.command == "converge" and cfg.operator == "kantorovich"
    point_work(kernel, expected_axes, cfg.quad_nodes**expected_axes if kantorovich else 1)
    if cfg.command == "frac":
        check_fractional(preset, cfg.box(), kernel.radius, ns[0], cfg.frac_step)


def _format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(v) for v in row) + "\n")


def _write_json(path: str, payload: dict | list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _kernel_for(cfg: ExperimentConfig) -> DensityKernel:
    return DensityKernel(ActivationParams(cfg.q, cfg.alpha), eps_trunc=cfg.trunc_eps)


def _emit(cfg: ExperimentConfig, header, rows, payload) -> None:
    if cfg.fmt == "csv":
        _write_csv(cfg.out + ".csv", header, rows)
    _write_json(cfg.out + ".json", payload)


def run_converge(cfg: ExperimentConfig) -> None:
    report = operator_convergence(
        cfg.operator, _kernel_for(cfg), function_preset(cfg.preset),
        cfg.n_sweep, cfg.box(), cfg.grid_points, quad_nodes=cfg.quad_nodes,
    )
    report.config["cli"] = cfg.to_dict()
    _emit(cfg, ["n", "sup_error", "mean_error"], list(report.rows), report.to_dict())


def run_voronovskaya(cfg: ExperimentConfig) -> None:
    reports = residual_orders(
        _kernel_for(cfg), function_preset(cfg.preset), cfg.box(), cfg.grid_points,
        cfg.n_sweep, cfg.m_max,
    )
    rows = []
    for m, report in enumerate(reports):
        report.config["cli"] = cfg.to_dict()
        rows.extend((m, r.n, r.sup_error, r.mean_error) for r in report.rows)
    _emit(cfg, ["m", "n", "sup_error", "mean_error"], rows, [r.to_dict() for r in reports])


def run_frac(cfg: ExperimentConfig) -> None:
    report = fractional_rate(
        _kernel_for(cfg), function_preset(cfg.preset), cfg.beta,
        cfg.box(), cfg.grid_points, cfg.n_sweep, frac_step=cfg.frac_step,
    )
    report.config["cli"] = cfg.to_dict()
    _emit(cfg, ["n", "sup_error", "mean_error"], list(report.rows), report.to_dict())


def run_kernel_dump(cfg: ExperimentConfig) -> None:
    kernel = _kernel_for(cfg)
    n = cfg.n_sweep[0]
    xs = grid_points(cfg.box(), cfg.grid_points)[:, 0]
    moments = axis_moments(kernel, xs, n, 3)
    rows = np.column_stack([xs, psi_eval(kernel, xs), moments, n * moments[:, 1]]).tolist()
    payload = {
        "cli": cfg.to_dict(),
        "columns": ["x", "psi", "moment0", "moment1", "moment2", "moment3", "n_times_moment1"],
        "rows": rows,
        "kernel": {
            "q": cfg.q, "alpha": cfg.alpha, "eps_trunc": cfg.trunc_eps,
            "normalization": kernel.normalization, "radius": kernel.radius,
        },
    }
    _emit(cfg, payload["columns"], rows, payload)


def run_manifold(cfg: ExperimentConfig) -> None:
    preset = function_preset(cfg.preset)
    mk = MetricKernel(_kernel_for(cfg), chart_preset(cfg.chart, dim=preset.dim))
    report = sweep(
        lambda n: lambda p: operator_on_chart_batch(mk, preset, n, p),
        lambda p: preset.value(*p.T),
        grid_points(cfg.box(), cfg.grid_points),
        cfg.n_sweep,
        # chart weights are always renormalized ("discrete")
        {"cli": cfg.to_dict(), "chart": cfg.chart, "mode": "discrete"},
        f"{preset.name} on the {cfg.chart} chart (the sampled function itself)",
    )
    _emit(cfg, ["n", "sup_error", "mean_error"], list(report.rows), report.to_dict())


_RUNNERS = {
    "converge": run_converge,
    "voronovskaya": run_voronovskaya,
    "frac": run_frac,
    "kernel-dump": run_kernel_dump,
    "manifold": run_manifold,
}


def _fail(status: int, exc: Exception) -> int:
    print(json.dumps({"status": status, "error": str(exc)}), file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = merge_config(args)
        if args.print_config:
            print(json.dumps(cfg.to_dict(), sort_keys=True))
            return 0
        # overflow shows up as a non-finite error row (exit 3), not as a warning
        with np.errstate(all="ignore"):
            _RUNNERS[cfg.command](cfg)
        return 0
    except ValueError as exc:
        # ConfigError, and domain violations surfacing from the numeric layers
        return _fail(2, exc)
    except OSError as exc:
        return _fail(4, exc)
    except (RuntimeError, MemoryError) as exc:
        # DiagnosticError, and runs that could not complete
        return _fail(3, exc)


if __name__ == "__main__":
    sys.exit(main())
