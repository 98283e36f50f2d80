"""Batch command-line runner for the kernel and operator experiments.

Subcommands
-----------
converge      error sweep of the basic or Kantorovich operator vs n
voronovskaya  residual sweeps for moment-correction orders 0..m_max
frac          fractional operator vs the D^beta power-rule oracle
kernel-dump   psi samples and discrete moments on a grid
manifold      metric-weighted operator on a chart vs the sampled f

Each run writes ``<out>.csv`` (the sweep table, LF line endings) and
``<out>.json`` (the full report); ``--format json`` skips the CSV.  Runs
are fully deterministic: identical configs produce byte-identical files.
``_emit`` turns each table cell into text once (``_cells``): ``%d`` in an
integer column, else json's ``repr``, the shortest text that reads back
as the same double.  The JSON is ``json.dumps(report, sort_keys=True,
indent=2)``; only kernel-dump's float rows, json's largest payload, are
joined from those texts (``_float_rows``), with the bytes json writes at
that indent.  The argument parser is built once per process
(``build_parser`` is cached).

Each run is built once (``_build_run``) by its one ``analysis`` entry
point, after every check the run makes, the lattice checks (O(points x
len(n)) on a huge grid) included.  ``--print-config`` stops there;
``_run`` runs it and writes its table.

Exit status: 0 success, 2 invalid configuration (including an evaluation
grid, a lattice table or its Kantorovich cell samples above
kernel.MAX_POINT_WORK, a lattice sum above kernel.MAX_SUM_WORK, a centre
n x past kernel.MAX_CENTRE, frac's one L1 call, over the union of every
n's nodes, above fractional.MAX_L1_WORK points, or quad_nodes above
operators.MAX_QUAD_NODES), 3 a non-finite error or a
run that could not complete (any other exception), 4 I/O failure.
Errors are printed to stderr as a single JSON line
``{"status": ..., "error": ...}``; runs execute with numpy's
floating-point warnings off, so nothing else reaches stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import types
from dataclasses import asdict, dataclass, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .activation import ActivationParams
from .analysis import (
    CONVERGENCE_OPERATORS,
    chart_sweep,
    check_operator,
    convergence_sweep,
    fractional_sweep,
    kernel_table,
    residual_sweep,
)
from .fractional import FracConfig
from .kernel import DensityKernel
from .manifold import CHART_NAMES, chart_preset
from .operators import check_m_max, check_quad_nodes
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


def _list_type(kind, name: str):
    # an argparse type for comma-separated values of kind; argparse prints an ArgumentTypeError's
    # message, but replaces a ValueError's with "invalid parse value"
    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated {name} list, got {text!r}") from None

    return parse


class _Parser(argparse.ArgumentParser):
    # one machine-readable line on stderr instead of usage + prose
    def error(self, message):
        print(json.dumps({"status": 2, "error": message}), file=sys.stderr)
        raise SystemExit(2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args keeps no state between calls."""
    parser = _Parser(
        prog="tanhqi",
        description="Deterministic convergence experiments for tanh-kernel quasi-interpolation operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    ints, floats = _list_type(int, "integer"), _list_type(float, "float")

    def add_common(p, grid_help):
        p.add_argument("--config", metavar="FILE",
                       help="JSON file with the same keys as the flags; flags override it")
        p.add_argument("--print-config", action="store_true",
                       help="echo the merged effective config as JSON and exit without running")
        p.add_argument("--q", type=float, help="kernel shape parameter, half-open interval [0, 1)")
        p.add_argument("--alpha", type=float, help="kernel slope parameter, > 0")
        p.add_argument("--trunc-eps", type=float, dest="trunc_eps",
                       help="lattice truncation tolerance, open interval (0, 1); default 1e-12")
        p.add_argument("--n", dest="n_sweep", type=ints, metavar="N1,N2,...",
                       help="comma-separated lattice densities, each >= 1")
        p.add_argument("--grid-lo", dest="grid_lo", type=floats, metavar="LO[,LO2]",
                       help=f"lower evaluation-grid corner{grid_help}")
        p.add_argument("--grid-hi", dest="grid_hi", type=floats, metavar="HI[,HI2]",
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
    p.add_argument("--operator", choices=CONVERGENCE_OPERATORS,
                   help="operator variant; default basic")
    p.add_argument("--preset", help=f"sampled function, one of: {', '.join(preset_names())}")
    p.add_argument("--quad-nodes", dest="quad_nodes", type=int,
                   help="Gauss-Legendre nodes per axis for Kantorovich cells, >= 2; default 5")

    p = sub.add_parser("voronovskaya", help="moment-correction residual sweeps",
                       description="Residuals after moment corrections of orders 0..m_max. "
                                   "CSV columns: m,n,sup_error,mean_error.")
    add_common(p, " (one entry per preset coordinate)")
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
    p.add_argument("--chart", choices=CHART_NAMES,
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
    except RecursionError:
        raise ConfigError(f"config file {path!r} nests deeper than the JSON parser allows") from None
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
    """Whether a JSON value fits an ExperimentConfig annotation; a bool is no number, and an
    integer past float range is no float."""
    if get_origin(tp) is types.UnionType:
        return any(_has_type(value, t) for t in get_args(tp))
    if get_origin(tp) is list:
        return isinstance(value, list) and all(_has_type(v, get_args(tp)[0]) for v in value)
    if isinstance(value, bool):
        return False
    if tp is float and isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            return False
        return True
    return isinstance(value, tp)


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
    """The rules only the CLI has: the format and output name, the required preset and as
    many upper as lower corners.  ``_build_run`` makes the rest."""
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError(f"--format must be csv or json, got {cfg.fmt!r}")
    if not cfg.out:
        raise ConfigError("--out must not be empty")
    if cfg.preset is None and cfg.command in _REQUIRED_PRESET:
        raise ConfigError(f"missing required flag --preset for command {cfg.command!r}")
    if len(cfg.grid_lo) != len(cfg.grid_hi):
        raise ConfigError(
            f"--grid-lo has {len(cfg.grid_lo)} entries, --grid-hi has {len(cfg.grid_hi)}"
        )


def _cells(rows) -> list[tuple[str, ...]]:
    """Each cell's one text, row by row: %d in an integer column, else repr(float(v)), json's text
    and the shortest that reads back as the same double; a column's type is its first row's."""
    columns = [map("%d".__mod__, c) if isinstance(c[0], (int, np.integer))
               else map(float.__repr__, map(float, c)) for c in zip(*rows)]
    return list(zip(*columns)) or [()] * len(rows)  # rows without cells have no column


def _write_csv(path: str, header: list[str], rows) -> list[tuple[str, ...]]:
    """Write the table with LF line endings; returns its cells' texts (``_cells``)."""
    cells = _cells(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join([",".join(line) + "\n" for line in [header, *cells]]))
    return cells


def _float_rows(rows) -> str:
    """rows as json.dumps(..., indent=2) writes a top-level key's value, for a non-empty list of
    equally long, non-empty lists of floats or of their ``_cells`` texts: a float's str is json's
    float.__repr__, which holds an n only in nan and inf, made json's NaN and Infinity here."""
    text = "\n    ],\n    [\n      ".join([",\n      ".join(map(str, row)) for row in rows])
    return ("[\n    [\n      " + text + "\n    ]\n  ]").replace("nan", "NaN").replace("inf", "Infinity")


def _write_json(path: str, payload: dict | list, rows=None) -> None:
    """json.dumps(payload, sort_keys=True, indent=2); rows, when given, are the payload dict's
    "rows", written by ``_float_rows`` (at indent 2 only a top-level key starts a line with
    two spaces and a quote)."""
    text = json.dumps(payload if rows is None else {**payload, "rows": 0}, sort_keys=True, indent=2)
    if rows is not None:
        text = text.replace('\n  "rows": 0', '\n  "rows": ' + _float_rows(rows), 1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _emit(cfg: ExperimentConfig, header, rows, payload) -> None:
    if cfg.fmt == "csv":
        rows = _write_csv(cfg.out + ".csv", header, rows)  # each cell's text, made once
    # kernel-dump's table is also its report's "rows": json's largest payload, and all floats
    _write_json(cfg.out + ".json", payload, rows if cfg.command == "kernel-dump" else None)


def _build_run(cfg: ExperimentConfig):
    """The command's run after every check it makes before its first n, bound but not run; a
    call returns its reports (kernel-dump: its table).  The kernel comes first, then the keys
    the command ignores, which must hold values their own commands accept (FracConfig for
    every command, as frac checks it first), then the library entry point's own checks."""
    kernel = DensityKernel(ActivationParams(cfg.q, cfg.alpha), eps_trunc=cfg.trunc_eps)
    FracConfig(cfg.beta, cfg.frac_step)
    if cfg.command != "converge":
        check_operator(cfg.operator)
        check_quad_nodes(cfg.quad_nodes)
    if cfg.command != "voronovskaya":
        check_m_max(cfg.m_max)
    if cfg.command != "manifold":
        chart_preset(cfg.chart)
    f = None if cfg.preset is None else function_preset(cfg.preset)
    ns, box, points = cfg.n_sweep, list(zip(cfg.grid_lo, cfg.grid_hi)), cfg.grid_points
    if cfg.command == "converge":
        return convergence_sweep(cfg.operator, kernel, f, ns, box, points, cfg.quad_nodes)
    if cfg.command == "voronovskaya":
        return residual_sweep(kernel, f, box, points, ns, cfg.m_max)
    if cfg.command == "frac":
        return fractional_sweep(kernel, f, cfg.beta, box, points, ns, cfg.frac_step)
    if cfg.command == "manifold":
        return chart_sweep(kernel, cfg.chart, f, ns, box, points)
    return kernel_table(kernel, ns, box, points)


def _run(cfg: ExperimentConfig) -> None:
    """Run the command and write its table: one row per report row, voronovskaya's with its
    order m, or kernel-dump's rows; each report echoes the config."""
    result, echo = _build_run(cfg)(), cfg.to_dict()
    if cfg.command == "kernel-dump":
        payload = {"cli": echo, **result}
        _emit(cfg, payload["columns"], payload["rows"], payload)
        return
    for report in result:
        report.config["cli"] = echo
    if cfg.command == "voronovskaya":
        rows = [(m, *r) for m, report in enumerate(result) for r in report.rows]
        _emit(cfg, ["m", "n", "sup_error", "mean_error"], rows, [r.to_dict() for r in result])
    else:
        _emit(cfg, ["n", "sup_error", "mean_error"], list(result[0].rows), result[0].to_dict())


def _fail(status: int, exc: Exception | str) -> int:
    print(json.dumps({"status": status, "error": str(exc)}), file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # overflow becomes a non-finite error row (exit 3) or a rejected config (exit 2), not a warning
        with np.errstate(all="ignore"):
            cfg = merge_config(args)
            if args.print_config:
                _build_run(cfg)  # the run's checks, and nothing run
                print(json.dumps(cfg.to_dict(), sort_keys=True))
                return 0
            _run(cfg)
        return 0
    except ValueError as exc:
        # ConfigError, and domain violations surfacing from the numeric layers
        return _fail(2, exc)
    except OSError as exc:
        return _fail(4, exc)
    except (RuntimeError, MemoryError) as exc:
        # non-finite errors, and runs that could not complete
        return _fail(3, exc)
    except Exception as exc:
        # any other fault: no traceback reaches stderr, so the message names its type
        return _fail(3, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
