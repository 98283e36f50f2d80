"""One preflight per run: the library's sweep functions make every check, once."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanhqi import (
    ActivationParams,
    DensityKernel,
    FracConfig,
    FunctionPreset,
    analysis,
    cli,
    convergence_sweep,
    fractional,
    fractional_sweep,
    function_preset,
    kernel,
    manifold,
    operators,
    residual_sweep,
)

# each sweep command over k = 3 values of n
SWEEP_RUNS = [
    ["converge", "--preset", "sin", "--n", "16,32,64", "--grid-points", "11"],
    ["converge", "--preset", "sin", "--operator", "kantorovich", "--n", "16,32,64",
     "--grid-points", "11"],
    ["voronovskaya", "--n", "16,32,64", "--grid-points", "11"],
    ["frac", "--preset", "pow2", "--n", "64,128,256", "--grid-points", "5"],
    ["manifold", "--n", "32,64,128", "--grid-points", "5"],
]


@pytest.fixture
def calls(monkeypatch):
    """Counts of kernel.table_sites, lattice_sums and rl_derivative_batch calls, however they
    are reached: table_sites by its names in kernel (operators) and analysis (the sweep), and
    rl_derivative_batch by its names in operators (a standalone call) and analysis (the sweep's
    union table)."""
    counts = {"table_sites": 0, "lattice_sums": 0, "rl_derivative_batch": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    sites = counted("table_sites", kernel.table_sites)
    for module in (kernel, analysis):
        monkeypatch.setattr(module, "table_sites", sites)
    for module in (operators, manifold):
        monkeypatch.setattr(module, "lattice_sums", counted("lattice_sums", module.lattice_sums))
    l1 = counted("rl_derivative_batch", operators.rl_derivative_batch)
    for module in (operators, analysis):
        monkeypatch.setattr(module, "rl_derivative_batch", l1)
    return counts


@pytest.mark.parametrize("argv", SWEEP_RUNS, ids=lambda argv: " ".join(argv[:3]))
def test_a_run_builds_each_table_once(tmp_path, capsys, calls, argv):
    # k tables for the preflight, which the k lattice sums reuse; frac's k tables read D^beta f
    # from one L1 call over the distinct nodes of all three
    assert cli.main([*argv, "--out", str(tmp_path / "r")]) == 0
    assert capsys.readouterr().err == ""
    assert calls == {"table_sites": 3, "lattice_sums": 3,
                     "rl_derivative_batch": int(argv[0] == "frac")}


@pytest.mark.parametrize("argv", SWEEP_RUNS, ids=lambda argv: " ".join(argv[:3]))
def test_print_config_builds_each_table_once_and_sums_none(tmp_path, capsys, calls, argv):
    assert cli.main([*argv, "--out", str(tmp_path / "r"), "--print-config"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == argv[0]
    assert calls == {"table_sites": 3, "lattice_sums": 0, "rl_derivative_batch": 0}


def test_each_call_of_a_bound_fractional_sweep_makes_one_l1_call(calls):
    run = analysis.fractional_sweep(DensityKernel(ActivationParams(0.5, 1.0)),
                                    function_preset("pow2"), 0.5, [(0.2, 1.0)], 5, [64, 128, 256])
    assert calls["rl_derivative_batch"] == 0
    assert run() == run()
    assert calls["rl_derivative_batch"] == 2


def test_a_fractional_sweep_caps_every_n_s_l1_grids_at_bind_time(monkeypatch, calls):
    # the cap counts the grid points of the union of every n's nodes, the one call's own work
    f, ns, h = function_preset("pow2"), [64, 128, 256], 1e-3
    axes = analysis.grid_axes([(0.2, 1.0)], 5)
    nodes = [operators.fractional_nodes(f, n, kernel.table_sites(KERNEL, n, axes)[0]) for n in ns]
    union = np.unique(np.concatenate(nodes))
    work = int(np.ceil(union / h).sum()) + union.size
    assert work == fractional.l1_work(union, h)
    assert work < sum(int(np.ceil(x / h).sum()) + x.size for x in nodes)
    monkeypatch.setattr(fractional, "MAX_L1_WORK", work)
    fractional_sweep(KERNEL, f, 0.5, [(0.2, 1.0)], 5, ns, h)
    monkeypatch.setattr(fractional, "MAX_L1_WORK", work - 1)
    with pytest.raises(ValueError, match=f"the L1 grids would need {work} points in all"):
        fractional_sweep(KERNEL, f, 0.5, [(0.2, 1.0)], 5, ns, h)
    assert calls["rl_derivative_batch"] == 0


@settings(max_examples=30, deadline=None)
@given(ns=st.lists(st.integers(1, 300), min_size=1, max_size=4), lo=st.floats(1e-3, 2.0),
       width=st.floats(1e-3, 2.0), points=st.integers(1, 7), h=st.sampled_from([1e-2, 3e-3, 1e-3]))
def test_the_bind_time_l1_count_is_the_one_call_s_own(ns, lo, width, points, h):
    # the sweep counts L1 work once, at bind time, on the very nodes its run's one call tabulates
    counted, tabulated = [], []

    def count(xs, step):
        counted.append(fractional.l1_work(xs, step))
        return counted[-1]

    def tabulate(cfg, f, xs):
        tabulated.append(np.array(xs))
        return fractional.rl_derivative_batch(cfg, f, xs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "l1_work", count)
        patch.setattr(analysis, "rl_derivative_batch", tabulate)
        run = fractional_sweep(KERNEL, function_preset("pow2"), 0.5, [(lo, lo + width)], points,
                               ns, h)
        assert len(counted) == 1 and tabulated == []
        run()
    [nodes] = tabulated
    assert counted == [fractional.l1_work(nodes, h)]


def test_the_cli_leaves_the_lattice_checks_to_the_library():
    for name in ("sweep", "table_sites", "check_chart", "check_sweep", "grid_axes", "point_work",
                 "check_axes", "check_table_cells", "fractional_nodes",
                 "chart_coords"):
        assert not hasattr(cli, name)


# alpha = 1e-6 gives W = 2^23: one window holds 2^24 + 1 sites, past the work cap
WIDE = DensityKernel(ActivationParams(0.5, 1e-6))
KERNEL = DensityKernel(ActivationParams(0.5, 1.0))
WINDOW = "one kernel window holds"
AXES = "the evaluation grid needs "


@pytest.mark.parametrize("argv, library, prefix", [
    (["converge", "--preset", "sin", "--alpha", "1e-6", "--n", "16,32,64", "--grid-points", "11"],
     lambda: convergence_sweep("basic", WIDE, function_preset("sin"), [16, 32, 64],
                               [(0.0, 1.0)], 11), WINDOW),
    (["voronovskaya", "--alpha", "1e-6", "--n", "16,32,64", "--grid-points", "11"],
     lambda: residual_sweep(WIDE, function_preset("sin"), [(0.0, 1.0)], 11, [16, 32, 64], 2),
     WINDOW),
    (["frac", "--preset", "pow2", "--alpha", "1e-6", "--n", "64,128,256", "--grid-points", "5"],
     lambda: fractional_sweep(WIDE, function_preset("pow2"), 0.5, [(0.2, 1.0)], 5,
                              [64, 128, 256]), WINDOW),
    (["manifold", "--alpha", "1e-6", "--n", "32,64,128", "--grid-points", "5"],
     lambda: analysis.chart_sweep(WIDE, "poincare-half-plane", function_preset("sin-exp"),
                                  [32, 64, 128], [(-1.0, 1.0), (1.0, 2.0)], 5), WINDOW),
    (["kernel-dump", "--alpha", "1e-6", "--n", "8", "--grid-points", "11"],
     lambda: analysis.kernel_table(WIDE, [8], [(0.0, 1.0)], 11), WINDOW),
    # the box has the wrong number of axes: one for the two-dimensional sin-exp, two for frac
    (["converge", "--preset", "sin-exp", "--n", "16,32", "--grid-points", "5"],
     lambda: convergence_sweep("basic", KERNEL, function_preset("sin-exp"), [16, 32],
                               [(0.0, 1.0)], 5), AXES + "2 axis/axes"),
    (["voronovskaya", "--preset", "sin-exp", "--n", "16,32,64", "--grid-points", "5"],
     lambda: residual_sweep(KERNEL, function_preset("sin-exp"), [(0.0, 1.0)], 5, [16, 32, 64], 2),
     AXES + "2 axis/axes"),
    (["frac", "--preset", "pow2", "--grid-lo=0.2,0.2", "--grid-hi=1,1", "--n", "64,128",
      "--grid-points", "5"],
     lambda: fractional_sweep(KERNEL, function_preset("pow2"), 0.5, [(0.2, 1.0)] * 2, 5,
                              [64, 128]), AXES + "1 axis/axes"),
    (["kernel-dump", "--grid-lo=0,0", "--grid-hi=1,1", "--n", "8", "--grid-points", "5"],
     lambda: analysis.kernel_table(KERNEL, [8], [(0.0, 1.0)] * 2, 5), AXES + "1 axis/axes"),
    # W = 16384: 100000 points x 32769 window sites
    (["kernel-dump", "--alpha", "0.001", "--n", "16", "--grid-points", "100000"],
     lambda: analysis.kernel_table(DensityKernel(ActivationParams(0.5, 0.001)), [16],
                                   [(0.0, 1.0)], 100000), "a lattice sum needs 3276900000"),
], ids=["converge", "voronovskaya", "frac", "manifold", "kernel-dump", "converge-axes",
        "voronovskaya-axes", "frac-axes", "kernel-dump-axes", "kernel-dump-sum-work"])
def test_library_and_cli_reject_with_one_message(tmp_path, capsys, argv, library, prefix):
    assert WIDE.radius == 2.0**23
    status = cli.main([*argv, "--out", str(tmp_path / "r"), "--print-config"])
    assert status == 2
    message = json.loads(capsys.readouterr().err)["error"]
    assert message.startswith(prefix)
    with pytest.raises(ValueError) as exc:
        library()
    assert str(exc.value) == message


# alpha = 0.01 gives W = 2048: a 2-D window holds 4097^2 sites, past the cap, while the table
# around one point holds 4096^2, within it
WIDE_2D = DensityKernel(ActivationParams(0.5, 0.01))
SIN_EXP_BOX = [(0.0, 1.0), (1.0, 2.0)]


@pytest.mark.parametrize("operator, sweep", [
    (lambda: operators.apply_basic_batch(WIDE_2D, function_preset("sin-exp"), 1,
                                         [np.array([0.5]), np.array([1.5])]),
     lambda: convergence_sweep("basic", WIDE_2D, function_preset("sin-exp"), [1], SIN_EXP_BOX, 1)),
    (lambda: manifold.operator_on_chart_batch(WIDE_2D, manifold.chart_preset("euclidean", 2),
                                              function_preset("sin-exp"), 1,
                                              [np.array([0.5]), np.array([1.5])]),
     lambda: analysis.chart_sweep(WIDE_2D, "euclidean", function_preset("sin-exp"), [1],
                                  SIN_EXP_BOX, 1)),
    (lambda: operators.apply_basic_batch(WIDE, function_preset("sin"), 1, [np.array([0.5])]),
     lambda: convergence_sweep("basic", WIDE, function_preset("sin"), [1], [(0.0, 1.0)], 1)),
    (lambda: operators.apply_fractional_batch(WIDE, FracConfig(0.5), function_preset("pow2"), 1,
                                              [np.array([0.5])]),
     lambda: fractional_sweep(WIDE, function_preset("pow2"), 0.5, [(0.2, 1.0)], 1, [1])),
], ids=["basic-2d", "chart-2d", "basic-1d", "fractional"])
def test_operators_reject_a_wide_window_before_sampling_f(monkeypatch, operator, sweep):
    assert WIDE_2D.radius == 2048.0
    with pytest.raises(ValueError) as exc:
        sweep()
    message = str(exc.value)
    assert message.startswith(WINDOW)
    samples = []
    value = FunctionPreset.value

    def counted(f, *coords):
        samples.append(np.broadcast(*coords).size)
        return value(f, *coords)

    monkeypatch.setattr(FunctionPreset, "value", counted)
    with pytest.raises(ValueError) as exc:
        operator()
    assert str(exc.value) == message
    assert samples == []


@pytest.mark.parametrize("bind", [
    lambda: convergence_sweep("basic", KERNEL, function_preset("sin"), [16, 32, 64],
                              [(0.0, 1.0)], 11),
    lambda: residual_sweep(KERNEL, function_preset("sin"), [(0.0, 1.0)], 11, [16, 32, 64], 2),
], ids=["convergence", "residual"])
def test_each_call_of_a_bound_sweep_makes_its_own_configs(bind):
    run = bind()
    first, second = run(), run()
    for a, b in zip(first, second, strict=True):
        assert a.config == b.config
        assert a.config is not b.config
    first[0].config["cli"] = {"argv": []}
    assert "cli" not in second[0].config


# n = 65536 on [0, 1]: the 2000 points' windows reach 64000 table sites, x 4096 Gauss-Legendre
# nodes, 2.6e8 samples, though one window's cells (33 x 4096) and the grid pass their own checks
CELLS = ["converge", "--preset", "sin", "--operator", "kantorovich", "--quad-nodes", "4096",
         "--n", "65536", "--grid-points", "2000"]


@pytest.mark.parametrize("print_config", [False, True])
def test_kantorovich_table_cells_rejected_with_one_message(tmp_path, capsys, calls, print_config):
    status = cli.main([*CELLS, "--out", str(tmp_path / "r"),
                       *(["--print-config"] if print_config else [])])
    assert status == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = json.loads(captured.err)["error"]
    assert message.startswith("the cells of the lattice table need 262144000 quadrature samples "
                              "(> 16777216): 64000 sites, 4096^1 samples each")
    assert calls["lattice_sums"] == 0
    assert not (tmp_path / "r.json").exists()
    kern, sin = DensityKernel(ActivationParams(0.5, 1.0)), function_preset("sin")
    with pytest.raises(ValueError) as exc:
        convergence_sweep("kantorovich", kern, sin, [65536], [(0.0, 1.0)], 2000, quad_nodes=4096)()[0]
    assert str(exc.value) == message
    # the operator makes the same check on its own table, before any cell is sampled
    with pytest.raises(ValueError) as exc:
        operators.apply_kantorovich_batch(kern, 4096, sin, 65536, [np.linspace(0.0, 1.0, 2000)])
    assert str(exc.value).startswith("the cells of the lattice table need")



@pytest.mark.parametrize("chart, box, ns, message, tables", [
    ("nope", [(1.0, 0.0), (1.0, 2.0)], [0], "n sweep must contain positive integers", 0),
    ("nope", [(1.0, 0.0), (1.0, 2.0)], [32], "grid axis (1.0, 0.0) must be finite", 0),
    ("nope", [(-1.0, 1.0), (-2.0, -1.0)], [32], "unknown chart 'nope'", 0),
    # n = 8 would reach k_y <= 0 too, but the first point below y = 0 is named before any table
    ("poincare-half-plane", [(-1.0, 1.0), (-2.0, -1.0)], [8],
     "point [-0.998019801980198, -1.999009900990099] lies outside", 0),
    # the sweep checks n = 8 first and stops at its table; n = 64 alone passes (below)
    ("poincare-half-plane", [(-1.0, 1.0), (0.5, 2.0)], [64, 8],
     "lattice support exits the 'poincare-half-plane' chart domain on axis 1", 1),
], ids=["n-sweep", "grid", "chart", "points", "tables"])
def test_chart_sweep_checks_in_order(calls, chart, box, ns, message, tables):
    # n sweep, grid, chart, the grid's points, then each n's table: each case breaks its own
    # rule and every later one
    with pytest.raises(ValueError) as exc:
        analysis.chart_sweep(KERNEL, chart, function_preset("sin-exp"), ns, box, 5)
    assert str(exc.value).startswith(message)
    assert calls["table_sites"] == tables
    analysis.chart_sweep(KERNEL, "poincare-half-plane", function_preset("sin-exp"), [64],
                         [(-1.0, 1.0), (0.5, 2.0)], 5)


LIBRARY_SWEEPS = {
    "basic": lambda: convergence_sweep("basic", KERNEL, function_preset("sin"), [16, 32, 64],
                                       [(0.0, 1.0)], 11),
    "kantorovich": lambda: convergence_sweep("kantorovich", KERNEL, function_preset("sin"),
                                             [16, 32, 64], [(0.0, 1.0)], 11),
    "residual": lambda: residual_sweep(KERNEL, function_preset("sin"), [(0.0, 1.0)], 11,
                                       [16, 32, 64], 2),
    "fractional": lambda: fractional_sweep(KERNEL, function_preset("pow2"), 0.5, [(0.2, 1.0)], 5,
                                           [64, 128, 256]),
    "chart": lambda: analysis.chart_sweep(KERNEL, "poincare-half-plane", function_preset("sin-exp"),
                                          [32, 64, 128], [(-1.0, 1.0), (1.0, 2.0)], 5),
}


@pytest.mark.parametrize("name", LIBRARY_SWEEPS)
def test_a_library_sweep_builds_each_table_once(calls, name):
    # its checks build the k = 3 tables, and its lattice sums take them instead of their own
    run = LIBRARY_SWEEPS[name]()
    assert calls["table_sites"] == 3
    run()
    assert calls == {"table_sites": 3, "lattice_sums": 3,
                     "rl_derivative_batch": int(name == "fractional")}


@pytest.mark.parametrize("name", LIBRARY_SWEEPS)
def test_a_bound_sweep_called_twice_reports_alike_and_builds_no_further_table(calls, name):
    # every call measures again with the meshes its binding checked; fractional's rebuilds
    # its one D^beta f table
    run = LIBRARY_SWEEPS[name]()
    assert run() == run()
    assert calls == {"table_sites": 3, "lattice_sums": 6,
                     "rl_derivative_batch": 2 * int(name == "fractional")}


def edge_preset(dim):
    """cos(x) exp(-y..), which fails on any sample with x > 0.9."""
    def value(x, *rest):
        if np.any(np.asarray(x) > 0.9):
            raise ValueError("sampled past x = 0.9")
        return np.cos(x) * np.exp(-sum(rest))

    return FunctionPreset("edge", dim, float("inf"), value, lambda alpha, *coords: 0.0)


@pytest.mark.parametrize("box, bind", [
    ([(0.0, 1.0)], lambda f, box: convergence_sweep("basic", KERNEL, f, [256, 512], box, 11)),
    ([(0.0, 1.0), (1.0, 2.0)],
     lambda f, box: analysis.chart_sweep(KERNEL, "euclidean", f, [256, 512], box, 11)),
], ids=["convergence", "chart"])
def test_a_failing_point_is_located_with_its_own_sites(box, bind):
    # the grid's call fails on its table; each point alone then samples its own window only, so
    # the point named is the first in C order whose window, at n = 256 and W = 16, reaches a
    # site past 0.9: x_i = (i + 1/202)/11 with floor(256 x_i + 16) > 230.4, so i = 10.  Were a
    # point handed the grid's table, the first point would fail instead
    axes = analysis.grid_axes(box, 11)
    i = next(i for i, x in enumerate(axes[0]) if math.floor(256 * x + KERNEL.radius) > 0.9 * 256)
    assert i == 10
    point = [float(axes[0][i])] + [float(y[0]) for y in axes[1:]]
    with pytest.raises(ValueError) as exc:
        bind(edge_preset(len(box)), box)()
    assert str(exc.value) == f"sampled past x = 0.9 (at evaluation point {point})"
