"""One preflight per run: the library's sweep functions make every check, once."""

import json

import pytest

from tanhqi import (
    ActivationParams,
    DensityKernel,
    analysis,
    cli,
    fractional_rate,
    function_preset,
    kernel,
    manifold,
    operator_convergence,
    operators,
    residual_orders,
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
    """Counts of kernel.table_sites and lattice_sums calls, however they are reached."""
    counts = {"table_sites": 0, "lattice_sums": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(kernel, "table_sites", counted("table_sites", kernel.table_sites))
    for module in (operators, manifold):
        monkeypatch.setattr(module, "lattice_sums", counted("lattice_sums", module.lattice_sums))
    return counts


@pytest.mark.parametrize("argv", SWEEP_RUNS, ids=lambda argv: " ".join(argv[:3]))
def test_a_run_builds_each_table_twice(tmp_path, capsys, calls, argv):
    # k tables for the preflight, k for the lattice sums
    assert cli.main([*argv, "--out", str(tmp_path / "r")]) == 0
    assert capsys.readouterr().err == ""
    assert calls == {"table_sites": 6, "lattice_sums": 3}


@pytest.mark.parametrize("argv", SWEEP_RUNS, ids=lambda argv: " ".join(argv[:3]))
def test_print_config_builds_each_table_once_and_sums_none(tmp_path, capsys, calls, argv):
    assert cli.main([*argv, "--out", str(tmp_path / "r"), "--print-config"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == argv[0]
    assert calls == {"table_sites": 3, "lattice_sums": 0}


def test_the_cli_leaves_the_lattice_checks_to_the_library():
    for name in ("sweep", "check_tables", "check_chart", "check_fractional"):
        assert not hasattr(cli, name)


# alpha = 1e-6 gives W = 2^23: one window holds 2^24 + 1 sites, past the work cap
WIDE = DensityKernel(ActivationParams(0.5, 1e-6))


@pytest.mark.parametrize("argv, library", [
    (["converge", "--preset", "sin", "--n", "16,32,64", "--grid-points", "11"],
     lambda: operator_convergence("basic", WIDE, function_preset("sin"), [16, 32, 64],
                                  [(0.0, 1.0)], 11)),
    (["voronovskaya", "--n", "16,32,64", "--grid-points", "11"],
     lambda: residual_orders(WIDE, function_preset("sin"), [(0.0, 1.0)], 11, [16, 32, 64], 2)),
    (["frac", "--preset", "pow2", "--n", "64,128,256", "--grid-points", "5"],
     lambda: fractional_rate(WIDE, function_preset("pow2"), 0.5, [(0.2, 1.0)], 5, [64, 128, 256])),
    (["manifold", "--n", "32,64,128", "--grid-points", "5"],
     lambda: analysis.chart_sweep(WIDE, "poincare-half-plane", function_preset("sin-exp"),
                                  [32, 64, 128], [(-1.0, 1.0), (1.0, 2.0)], 5)),
], ids=["converge", "voronovskaya", "frac", "manifold"])
def test_library_and_cli_reject_with_one_message(tmp_path, capsys, argv, library):
    assert WIDE.radius == 2.0**23
    status = cli.main([*argv, "--alpha", "1e-6", "--out", str(tmp_path / "r"), "--print-config"])
    assert status == 2
    message = json.loads(capsys.readouterr().err)["error"]
    assert message.startswith("one kernel window holds")
    with pytest.raises(ValueError) as exc:
        library()
    assert str(exc.value) == message
