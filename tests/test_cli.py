"""Command-line interface: outputs, config merging, exit statuses."""

import contextlib
import enum
import io
import json
import os
import stat
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tanhqi
from tanhqi import (
    ActivationParams,
    DensityKernel,
    convergence_sweep,
    function_preset,
    tail_mass,
)
from tanhqi import cli, manifold


def run(argv, capsys):
    status = cli.main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def converge_args(out, extra=()):
    return ["converge", "--preset", "sin", "--n", "16,32,64", "--grid-points", "11",
            "--out", str(out), *extra]


class TestConverge:
    def test_writes_csv_and_json(self, tmp_path, capsys):
        out = tmp_path / "run"
        status, _, err = run(converge_args(out), capsys)
        assert status == 0 and err == ""
        assert (tmp_path / "run.csv").exists()
        assert (tmp_path / "run.json").exists()

    def test_csv_header_and_values_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(converge_args(out), capsys)[0] == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0] == "n,sup_error,mean_error"
        assert len(lines) == 4
        # the shortest repr text reproduces the doubles exactly
        kernel = DensityKernel(ActivationParams(0.5, 1.0))
        report = convergence_sweep(
            "basic", kernel, function_preset("sin"), (16, 32, 64), [(0.0, 1.0)], 11
        )()[0]
        for line, row in zip(lines[1:], report.rows):
            n_tok, sup_tok, mean_tok = line.split(",")
            assert int(n_tok) == row.n
            assert float(sup_tok) == row.sup_error
            assert float(mean_tok) == row.mean_error

    def test_lf_line_endings(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(converge_args(out), capsys)[0] == 0
        raw = (tmp_path / "run.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert b"\r" not in (tmp_path / "run.json").read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(converge_args(a), capsys)[0] == 0
        assert run(converge_args(b), capsys)[0] == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert json.loads((tmp_path / "a.json").read_text())["rows"] == \
            json.loads((tmp_path / "b.json").read_text())["rows"]

    def test_json_format_skips_csv(self, tmp_path, capsys):
        out = tmp_path / "run"
        status, _, _ = run(converge_args(out, ["--format", "json"]), capsys)
        assert status == 0
        assert not (tmp_path / "run.csv").exists()
        assert (tmp_path / "run.json").exists()

    def test_report_payload_structure(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(converge_args(out, ["--operator", "kantorovich"]), capsys)[0] == 0
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["config"]["operator"] == "kantorovich"
        assert payload["config"]["cli"]["command"] == "converge"
        assert len(payload["rows"]) == 3
        assert payload["fitted_slope"] is not None

    def test_two_dimensional_preset_takes_two_axes(self, tmp_path, capsys):
        out = tmp_path / "run"
        status, _, err = run(
            ["converge", "--preset", "sin-exp", "--grid-lo", "0,0", "--grid-hi", "1,1",
             "--grid-points", "9", "--n", "16,32,64,128", "--out", str(out)], capsys,
        )
        assert status == 0, err
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["config"]["box"] == [[0.0, 1.0], [0.0, 1.0]]
        sups = [r[1] for r in payload["rows"]]
        assert sups == sorted(sups, reverse=True)
        assert 0.9 <= payload["fitted_slope"] <= 1.1

    def test_box_axes_follow_preset_dimension(self, tmp_path, capsys):
        status, _, err = run(
            ["converge", "--preset", "sin-exp", "--out", str(tmp_path / "x")], capsys
        )
        assert status == 2
        assert "axis" in json.loads(err)["error"]

    def test_missing_preset_is_config_error(self, tmp_path, capsys):
        status, _, err = run(["converge", "--out", str(tmp_path / "x")], capsys)
        assert status == 2
        msg = json.loads(err.strip())
        assert msg["status"] == 2
        assert "preset" in msg["error"]


class TestPrintConfig:
    def test_echo_and_reingest(self, tmp_path, capsys):
        status, out_text, _ = run(converge_args(tmp_path / "x", ["--print-config"]), capsys)
        assert status == 0
        merged = json.loads(out_text)
        assert merged["command"] == "converge"
        assert merged["n_sweep"] == [16, 32, 64]
        # feeding the echoed config back reproduces it verbatim
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(out_text)
        status, again, _ = run(["converge", "--config", str(cfg_file), "--print-config"], capsys)
        assert status == 0
        assert again == out_text

    def test_flags_override_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"q": 0.3, "preset": "sin", "out": str(tmp_path / "x")}))
        status, out_text, _ = run(
            ["converge", "--config", str(cfg_file), "--q", "0.7", "--print-config"], capsys
        )
        assert status == 0
        merged = json.loads(out_text)
        assert merged["q"] == 0.7
        assert merged["preset"] == "sin"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"preset": "sin", "qq": 0.3}))
        status, _, err = run(["converge", "--config", str(cfg_file)], capsys)
        assert status == 2
        assert "unknown keys" in json.loads(err.strip())["error"]

    @pytest.mark.parametrize("values", [
        {"n_sweep": 5},
        {"q": "abc"},
        {"grid_lo": [0], "grid_hi": ["x"]},
        {"m_max": True},
        # integers past float range are no floats
        {"grid_lo": [0], "grid_hi": [10**400]},
        {"alpha": 10**400},
    ])
    @pytest.mark.parametrize("print_config", [False, True])
    def test_mistyped_config_value_rejected(self, tmp_path, capsys, values, print_config):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"preset": "sin", **values}))
        argv = ["converge", "--config", str(cfg_file), "--out", str(tmp_path / "x")]
        status, _, err = run(argv + ["--print-config"] * print_config, capsys)
        assert status == 2
        assert err.count("\n") == 1
        msg = json.loads(err)
        assert msg["status"] == 2
        assert list(values)[-1] in msg["error"]

    @pytest.mark.parametrize("print_config", [False, True])
    def test_config_nested_past_the_parser_rejected(self, tmp_path, capsys, print_config):
        # json.loads gives up with a RecursionError long before 100000 levels
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"grid_lo": ' + "[" * 100000 + "]" * 100000 + "}")
        argv = ["converge", "--preset", "sin", "--config", str(cfg_file),
                "--out", str(tmp_path / "x")]
        status, out, err = run(argv + ["--print-config"] * print_config, capsys)
        assert status == 2 and out == ""
        assert err.count("\n") == 1
        assert "nests deeper" in json.loads(err)["error"]

    @pytest.mark.parametrize("text, extra, message", [
        ("{not json", [], "is not valid JSON"),
        ("[1, 2]", [], "must hold a JSON object"),
        ('{"fmt": "xml"}', [], "--format must be csv or json, got 'xml'"),
        ("{}", ["--out", ""], "--out must not be empty"),
    ], ids=["not-json", "not-an-object", "format", "empty-out"])
    @pytest.mark.parametrize("print_config", [False, True])
    def test_unusable_config_rejected(self, tmp_path, capsys, text, extra, message, print_config):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        argv = ["converge", "--preset", "sin", "--config", str(cfg_file),
                "--out", str(tmp_path / "x"), *extra]
        status, out, err = run(argv + ["--print-config"] * print_config, capsys)
        assert status == 2 and out == ""
        assert err.count("\n") == 1
        assert message in json.loads(err)["error"]
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("command, preset", [("converge", "sin"), ("frac", "pow2")])
    @pytest.mark.parametrize("operator", ["fractional", "xyz"])
    @pytest.mark.parametrize("print_config", [False, True])
    def test_unknown_operator_rejected(self, tmp_path, capsys, command, preset, operator,
                                       print_config):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"operator": operator}))
        argv = [command, "--preset", preset, "--config", str(cfg_file),
                "--out", str(tmp_path / "x")]
        status, out, err = run(argv + ["--print-config"] * print_config, capsys)
        assert status == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == (
            f"operator must be one of basic, kantorovich, got {operator!r}")
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("command, preset", [
        ("converge", "sin"), ("voronovskaya", "sin"), ("frac", "pow2"), ("kernel-dump", None),
        ("manifold", "sin-exp")])
    @pytest.mark.parametrize("print_config", [False, True])
    def test_unknown_chart_rejected(self, tmp_path, capsys, command, preset, print_config):
        # only manifold uses the chart, but every command checks the name it echoes
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"chart": "bogus", "preset": preset}))
        argv = [command, "--config", str(cfg_file), "--out", str(tmp_path / "x")]
        status, out, err = run(argv + ["--print-config"] * print_config, capsys)
        assert status == 2 and out == ""
        assert err.count("\n") == 1
        assert "unknown chart 'bogus'" in json.loads(err)["error"]
        assert not (tmp_path / "x.json").exists()

    def test_chart_choices_are_the_manifold_presets(self):
        # one list of names for --chart and for chart_preset's message
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        chart = next(a for a in sub.choices["manifold"]._actions if a.dest == "chart")
        assert chart.choices == manifold.CHART_NAMES
        with pytest.raises(ValueError) as exc:
            manifold.chart_preset("bogus")
        assert str(exc.value) == ("unknown chart 'bogus'; known charts: "
                                  "euclidean, torus, poincare-half-plane")

    @pytest.mark.parametrize("n, message", [
        # the table is 4074 x 4074 sites, under 2^24; a bound of n (hi - lo) + 2W + 2 said 4097
        (4063, None),
        (4090, "the lattice table needs 4101 x 4101 sites (> 16777216)"),
    ])
    def test_print_config_checks_the_exact_table(self, tmp_path, capsys, n, message):
        argv = ["converge", "--preset", "sin-exp", "--grid-lo=0,0", "--grid-hi=1,1",
                "--grid-points", "200", "--n", str(n), "--out", str(tmp_path / "x"),
                "--print-config"]
        status, out, err = run(argv, capsys)
        if message is None:
            assert status == 0 and err == "" and json.loads(out)["n_sweep"] == [n]
        else:
            assert status == 2 and out == "" and message in json.loads(err)["error"]

    @pytest.mark.parametrize("print_config", [False, True])
    def test_lattice_sum_work_capped_before_the_run(self, tmp_path, capsys, print_config):
        # W = 14418: 100000 points x 28837 window sites, minutes of lattice sums at one n; the
        # kernel-dump moments sum the same windows
        for command in (["converge", "--preset", "sin", "--operator", "kantorovich"], ["kernel-dump"]):
            argv = [*command, "--alpha", "0.001", "--n", "16", "--grid-points", "100000",
                    "--out", str(tmp_path / "x"), *(["--print-config"] if print_config else [])]
            status, out, err = run(argv, capsys)
            assert status == 2 and out == ""
            assert ("a lattice sum needs 2883700000 multiply-adds (> 2147483648)"
                    in json.loads(err)["error"])
            assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("print_config", [False, True])
    def test_l1_work_capped_before_the_run(self, tmp_path, capsys, print_config):
        # about 34000 nodes of up to 10^6 L1 grid points each, hours of L1 sums
        argv = ["frac", "--preset", "pow2", "--beta", "0.5", "--frac-step", "1e-6", "--n", "65536",
                "--grid-points", "100000", "--grid-lo=0.5", "--grid-hi=1",
                "--out", str(tmp_path / "x"), *(["--print-config"] if print_config else [])]
        status, out, err = run(argv, capsys)
        assert status == 2 and out == ""
        assert ("the L1 grids would need 24599299182 points in all (> 2147483648)"
                in json.loads(err)["error"])
        assert not (tmp_path / "x.json").exists()

    def test_kernel_dump_caps_no_lattice_table(self, tmp_path, capsys):
        # W = 512: 17000 windows apart reach 17408000 sites in all, past the table cap, but the
        # moments build no table and pay 17000 x 1025 multiply-adds
        argv = ["kernel-dump", "--alpha", "0.03125", "--n", "40000000", "--grid-points", "17000",
                "--out", str(tmp_path / "x"), "--print-config"]
        status, out, err = run(argv, capsys)
        assert status == 0 and err == "" and json.loads(out)["n_sweep"] == [40000000]

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"command": "frac", "preset": "pow2"}))
        status, _, err = run(["converge", "--config", str(cfg_file)], capsys)
        assert status == 2
        assert "command" in json.loads(err.strip())["error"]


class TestValidation:
    def test_invalid_q(self, tmp_path, capsys):
        status, _, err = run(converge_args(tmp_path / "x", ["--q", "1.5"]), capsys)
        assert status == 2
        assert json.loads(err.strip())["status"] == 2

    def test_unknown_preset(self, tmp_path, capsys):
        status, _, err = run(
            ["converge", "--preset", "nope", "--out", str(tmp_path / "x")], capsys
        )
        assert status == 2
        assert "unknown preset" in json.loads(err.strip())["error"]

    def test_frac_rejects_non_monomial(self, tmp_path, capsys):
        status, _, err = run(
            ["frac", "--preset", "sin", "--out", str(tmp_path / "x")], capsys
        )
        assert status == 2
        assert "monomial" in json.loads(err.strip())["error"]

    def test_kernel_dump_needs_single_n(self, tmp_path, capsys):
        status, _, err = run(
            ["kernel-dump", "--n", "8,16", "--out", str(tmp_path / "x")], capsys
        )
        assert status == 2
        assert "exactly one" in json.loads(err.strip())["error"]

    @pytest.mark.parametrize("corner", ["--grid-hi=inf", "--grid-lo=-inf", "--grid-hi=nan"])
    def test_non_finite_box_rejected(self, tmp_path, capsys, corner):
        status, _, err = run(converge_args(tmp_path / "x", [corner]), capsys)
        assert status == 2
        assert err.count("\n") == 1
        assert "finite" in json.loads(err)["error"]

    @pytest.mark.parametrize("alpha", ["inf", "1e-300"])
    @pytest.mark.parametrize("print_config", [False, True])
    def test_unusable_alpha_rejected(self, tmp_path, capsys, alpha, print_config):
        extra = ["--alpha", alpha, *(["--print-config"] if print_config else [])]
        status, out, err = run(converge_args(tmp_path / "x", extra), capsys)
        assert status == 2 and out == ""
        assert err.count("\n") == 1
        assert "alpha" in json.loads(err)["error"]

    @pytest.mark.parametrize("print_config", [False, True])
    def test_oversized_point_work_rejected(self, tmp_path, capsys, print_config):
        # 100000 Gauss-Legendre nodes per axis, past the 4096 whose 4096 x 4096 matrix fits 2^24
        argv = ["converge", "--preset", "sin-exp", "--grid-lo", "0,0", "--grid-hi", "1,1",
                "--grid-points", "2", "--n", "16,32,64", "--operator", "kantorovich",
                "--quad-nodes", "100000", "--out", str(tmp_path / "x"),
                *(["--print-config"] if print_config else [])]
        status, out, err = run(argv, capsys)
        assert status == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"].startswith("quad_nodes = 100000 exceeds 4096")
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("command", ["kernel-dump", "converge"])
    @pytest.mark.parametrize("print_config", [False, True])
    def test_oversized_window_without_quadrature_rejected(self, tmp_path, capsys, command,
                                                         print_config):
        # alpha 1e-6 gives W = 14417498: one window spans 28834997 sites, and no run takes
        # quadrature
        argv = [command, "--alpha", "1e-6", "--out", str(tmp_path / "x"),
                *(["--preset", "sin"] if command == "converge" else []),
                *(["--print-config"] if print_config else [])]
        status, out, err = run(argv, capsys)
        assert status == 2 and out == ""
        error = json.loads(err)["error"]
        assert "one kernel window holds 28834997 lattice sites" in error
        assert "quad" not in error

    @pytest.mark.parametrize("print_config", [False, True])
    def test_oversized_l1_grid_rejected(self, tmp_path, capsys, print_config):
        # the farthest node, floor(64 x_max + W)/64 = 74/64, needs 115625000 L1 intervals at step
        # 1e-8, so one point more
        argv = ["frac", "--preset", "pow2", "--frac-step", "1e-8", "--out", str(tmp_path / "x"),
                *(["--print-config"] if print_config else [])]
        status, out, err = run(argv, capsys)
        assert status == 2 and out == ""
        assert err.count("\n") == 1
        assert "L1 grid would need 115625001 points" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv, message", [
        # 64 x 1e308 is far past 2^52, so the lattice centre check fails before any L1 grid
        (["frac", "--preset", "pow2", "--grid-lo", "0.2", "--grid-hi", "1e308"], "2^52"),
        # 1e308 - (-1e308) is inf, so the grid would be all inf
        (["converge", "--preset", "sin", "--grid-lo=-1e308", "--grid-hi", "1e308",
          "--grid-points", "3", "--n", "16,32,64"], "wider than the largest float"),
        # 1-D: 33 x 1e5 samples per point fit 2^24, but the rule would take 1e5 x 1e5 recurrence
        # steps a Newton sweep
        (["converge", "--preset", "sin", "--n", "16,32,64", "--grid-points", "3",
          "--operator", "kantorovich", "--quad-nodes", "100000"], "100000 x 100000"),
        # (10^10)^2 evaluation points; 10^8 would pass every other check in 1-D
        (["converge", "--preset", "sin-exp", "--grid-lo=0,0", "--grid-hi=1,1",
          "--grid-points", "10000000000"], "the evaluation grid needs 100000000000000000000 points"),
        (["converge", "--preset", "sin", "--grid-points", "100000000"],
         "the evaluation grid needs 100000000 points (> 16777216)"),
        # every lattice scales by n as a float
        (["manifold", "--n", f"16,{10**400}"], "within float range"),
    ], ids=["l1-overflow", "box-width", "leggauss", "grid-2d", "grid-1d", "n-past-float"])
    @pytest.mark.parametrize("print_config", [False, True])
    def test_unbounded_config_rejected_before_run(self, tmp_path, capsys, argv, message,
                                                  print_config):
        argv = [*argv, "--out", str(tmp_path / "x"), *(["--print-config"] if print_config else [])]
        status, out, err = run(argv, capsys)
        assert status == 2 and out == ""
        assert err.count("\n") == 1
        assert message in json.loads(err)["error"]
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("print_config", [False, True])
    def test_bad_float_token_exits_two(self, tmp_path, capsys, print_config):
        # a bad token of either list type names the flag and the list it expected
        for flag, value, message in [
            ("--grid-lo", "0,x", "expected a comma-separated float list, got '0,x'"),
            ("--n", "16,x", "expected a comma-separated integer list, got '16,x'"),
        ]:
            extra = [flag, value, *(["--print-config"] if print_config else [])]
            with pytest.raises(SystemExit) as exc:
                cli.main(converge_args(tmp_path / "x", extra))
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert json.loads(err)["error"] == f"argument {flag}: {message}"

    def test_unknown_flag_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["converge", "--bogus", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert json.loads(err.strip())["status"] == 2

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "COMMAND" in capsys.readouterr().out


class TestOtherCommands:
    def test_voronovskaya_m_column(self, tmp_path, capsys):
        out = tmp_path / "v"
        status, _, _ = run(
            ["voronovskaya", "--n", "16,32,64", "--grid-points", "7", "--m-max", "1",
             "--out", str(out)], capsys,
        )
        assert status == 0
        lines = (tmp_path / "v.csv").read_text().splitlines()
        assert lines[0] == "m,n,sup_error,mean_error"
        ms = [int(line.split(",")[0]) for line in lines[1:]]
        assert ms == [0, 0, 0, 1, 1, 1]
        payload = json.loads((tmp_path / "v.json").read_text())
        assert isinstance(payload, list) and len(payload) == 2
        assert payload[0]["config"]["m"] == 0

    def test_voronovskaya_two_dim_preset(self, tmp_path, capsys):
        out = tmp_path / "v2"
        status, _, err = run(
            ["voronovskaya", "--preset", "sin-exp", "--grid-lo=0,0", "--grid-hi=1,1",
             "--grid-points", "9", "--n", "16,32,64,128,256", "--m-max", "2", "--out", str(out)],
            capsys,
        )
        assert status == 0 and err == ""
        slopes = [r["fitted_slope"] for r in json.loads((tmp_path / "v2.json").read_text())]
        assert len(slopes) == 3 and slopes == sorted(slopes)

    def test_voronovskaya_box_follows_preset_dimension(self, tmp_path, capsys):
        # the default box has one axis, sin-exp needs two
        status, out, err = run(
            ["voronovskaya", "--preset", "sin-exp", "--out", str(tmp_path / "x"), "--print-config"],
            capsys,
        )
        assert status == 2 and out == ""
        assert json.loads(err)["error"] == "the evaluation grid needs 2 axis/axes, got 1"

    def test_voronovskaya_smoothness_cap_is_config_error(self, tmp_path, capsys):
        status, _, err = run(
            ["voronovskaya", "--preset", "abs25", "--m-max", "3", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert status == 2
        assert "smoothness" in json.loads(err.strip())["error"]

    def test_frac_runs(self, tmp_path, capsys):
        out = tmp_path / "f"
        status, _, _ = run(
            ["frac", "--preset", "pow2", "--n", "64,128,256", "--grid-points", "3",
             "--frac-step", "2e-3", "--out", str(out)], capsys,
        )
        assert status == 0
        payload = json.loads((tmp_path / "f.json").read_text())
        assert payload["target_description"] == "D^beta f (oracle)"
        assert "recorded, not asserted" in payload["claimed_exponent"]

    def test_kernel_dump_columns(self, tmp_path, capsys):
        out = tmp_path / "k"
        status, _, _ = run(
            ["kernel-dump", "--n", "8", "--grid-points", "5", "--out", str(out)], capsys
        )
        assert status == 0
        lines = (tmp_path / "k.csv").read_text().splitlines()
        assert lines[0] == "x,psi,moment0,moment1,moment2,moment3,n_times_moment1"
        assert len(lines) == 6
        for line in lines[1:]:
            vals = [float(t) for t in line.split(",")]
            assert vals[2] == pytest.approx(1.0, abs=1e-12)
            assert vals[6] == pytest.approx(8 * vals[3], rel=1e-12)
        payload = json.loads((tmp_path / "k.json").read_text())
        assert payload["kernel"]["radius"] == 16.0
        assert payload["kernel"]["normalization"] == pytest.approx(10.0 / 3.0, rel=1e-14)

    def test_kernel_dump_echoes_its_window_and_the_mass_it_neglects(self, tmp_path, capsys):
        # window_width is 2W + 1 and tail_mass the closed-form mass a window neglects at W, at
        # most eps; each row's partition sum (moment0) falls short of 1 by no more, plus its
        # rounding (the weights' 2 alpha (W + 2) + 22 ulp and the row sum's 27, below 1e-14)
        out = tmp_path / "k"
        status, _, _ = run(["kernel-dump", "--n", "8", "--grid-points", "5", "--trunc-eps", "1e-10",
                            "--out", str(out)], capsys)
        assert status == 0
        kernel = json.loads((tmp_path / "k.json").read_text())["kernel"]
        assert (kernel["radius"], kernel["window_width"]) == (13.0, 27)
        assert kernel["tail_mass"] == tail_mass(ActivationParams(0.5, 1.0), 13.0)
        assert kernel["tail_mass"] <= 1e-10 < tail_mass(ActivationParams(0.5, 1.0), 12.0)
        for line in (tmp_path / "k.csv").read_text().splitlines()[1:]:
            assert 1.0 - float(line.split(",")[2]) <= 1e-10 + 1e-14

    @pytest.mark.parametrize("command", [["kernel-dump", "--n", "4"], ["converge", "--preset", "sin"]])
    def test_huge_alpha_runs_on_the_limit_box(self, tmp_path, capsys, command):
        # e^(-2 alpha) underflows: psi is the box 1/2 on |x| < 1, W = 2
        out = tmp_path / "k"
        status, _, err = run([*command, "--alpha", "1e308", "--grid-points", "5", "--out", str(out)],
                             capsys)
        assert status == 0 and err == ""
        payload = json.loads((tmp_path / "k.json").read_text())
        if command[0] == "kernel-dump":
            assert payload["kernel"]["radius"] == 2.0
            assert payload["kernel"]["window_width"] == 5 and payload["kernel"]["tail_mass"] == 0.0
            # every x lies in (0, 1); moment0 is the partition sum
            assert all(row[1] == 0.5 and row[2] == 1.0 for row in payload["rows"])

    def test_kernel_dump_wide_kernel_keeps_its_mass(self, tmp_path, capsys):
        # the whole kernel lies below eps here; the window must still hold its mass
        out = tmp_path / "k"
        status, _, _ = run(
            ["kernel-dump", "--alpha", "1e-3", "--trunc-eps", "1e-3", "--grid-points", "3",
             "--out", str(out)], capsys,
        )
        assert status == 0
        payload = json.loads((tmp_path / "k.json").read_text())
        assert payload["kernel"]["radius"] == 4056.0
        assert payload["kernel"]["window_width"] == 8113 and payload["kernel"]["tail_mass"] <= 1e-3
        for row in payload["rows"]:
            assert 1.0 - row[2] <= 1e-3  # moment0 is the partition sum

    def test_manifold_runs_euclidean(self, tmp_path, capsys):
        out = tmp_path / "m"
        status, _, _ = run(
            ["manifold", "--chart", "euclidean", "--n", "16,32,64", "--grid-points", "3",
             "--grid-lo=-1,-1", "--grid-hi", "1,1", "--out", str(out)], capsys,
        )
        assert status == 0
        payload = json.loads((tmp_path / "m.json").read_text())
        assert payload["config"]["chart"] == "euclidean"
        sups = [r[1] for r in payload["rows"]]
        assert sups[-1] < sups[0]

    def test_manifold_axis_mismatch(self, tmp_path, capsys):
        status, _, err = run(
            ["manifold", "--grid-lo=-1", "--grid-hi", "1", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert status == 2
        assert "axis" in json.loads(err.strip())["error"]


class TestExitStatuses:
    def test_diagnostic_failure_maps_to_three(self, tmp_path, capsys, monkeypatch):
        def boom(cfg):
            raise RuntimeError("quadrature self-check failed")

        monkeypatch.setattr(cli, "_run", boom)
        status, _, err = run(converge_args(tmp_path / "x"), capsys)
        assert status == 3
        msg = json.loads(err.strip())
        assert msg["status"] == 3
        assert "self-check" in msg["error"]

    @pytest.mark.parametrize("error", [RuntimeError, MemoryError])
    def test_incomplete_run_maps_to_three(self, tmp_path, capsys, monkeypatch, error):
        def boom(cfg):
            raise error("could not complete the sweep")

        monkeypatch.setattr(cli, "_run", boom)
        status, _, err = run(converge_args(tmp_path / "x"), capsys)
        assert status == 3
        assert err.count("\n") == 1
        assert json.loads(err) == {"status": 3, "error": "could not complete the sweep"}

    def test_unexpected_exception_maps_to_three(self, tmp_path, capsys, monkeypatch):
        def boom(cfg):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "_run", boom)
        status, out, err = run(converge_args(tmp_path / "x"), capsys)
        assert status == 3 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {"status": 3, "error": "ZeroDivisionError: float division by zero"}

    def test_non_finite_error_maps_to_three(self, tmp_path, capsys):
        # exp overflows past t ~ 709.8, so the errors are inf - inf = nan
        argv = ["converge", "--preset", "exp", "--grid-lo", "700", "--grid-hi", "720",
                "--grid-points", "5", "--out", str(tmp_path / "x")]
        status, _, err = run(argv, capsys)
        assert status == 3
        assert err.count("\n") == 1
        assert "error at n = 16 is not finite" in json.loads(err)["error"]
        assert not (tmp_path / "x.json").exists()

    def test_unwritable_output_maps_to_four(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "run"
        status, _, err = run(converge_args(out), capsys)
        assert status == 4
        assert json.loads(err.strip())["status"] == 4

    def test_stderr_is_single_json_line(self, tmp_path, capsys):
        _, _, err = run(["converge", "--q", "2.0", "--preset", "sin",
                         "--out", str(tmp_path / "x")], capsys)
        assert err.count("\n") == 1
        json.loads(err.strip())


EXTREMES = ("inf", "nan", "-1", "0", "1e308", "-1e308", "1e-300", "100000")
COMMON_FLAGS = ("--q", "--alpha", "--trunc-eps", "--n", "--grid-lo", "--grid-hi", "--grid-points")
COMMAND_FLAGS = {
    "converge": ("--preset", "sin", ("--quad-nodes",)),
    "voronovskaya": (None, None, ("--m-max",)),
    "frac": ("--preset", "pow2", ("--beta", "--frac-step")),
    "kernel-dump": (None, None, ()),
    "manifold": (None, None, ()),
}


@st.composite
def extreme_argv(draw):
    """A subcommand with a random subset of its numeric flags set to extreme values."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    preset_flag, preset, own = COMMAND_FLAGS[command]
    argv = [command] + ([preset_flag, preset] if preset_flag else [])
    if command == "converge":
        argv += ["--operator", draw(st.sampled_from(["basic", "kantorovich"]))]
    flags = st.lists(st.sampled_from(COMMON_FLAGS + own), unique=True, min_size=1, max_size=3)
    for flag in draw(flags):
        # list flags take one or two entries, so box axis counts vary too
        values = draw(st.lists(st.sampled_from(EXTREMES), min_size=1, max_size=2))
        argv.append(f"{flag}={','.join(values)}")
    return argv


# values a run can complete with, mixed with EXTREMES; a trunc_eps of 1e-300 would
# widen 2-D windows past a million sites, so runs draw that value for no flag
RUN_VALUES = {"--q": ("0.5", "0.9"), "--alpha": ("0.25", "1", "4"), "--trunc-eps": ("1e-6",),
              "--grid-lo": ("-1", "0", "0.2"), "--grid-hi": ("1", "2"), "--quad-nodes": ("2", "9"),
              "--m-max": ("0", "4"), "--beta": ("0.3",), "--frac-step": ("1e-2",)}
RUN_EXTREMES = tuple(v for v in EXTREMES if v != "1e-300")


@st.composite
def bounded_run_argv(draw):
    """A subcommand run with some flags moderate or extreme, at most 5 grid points and n <= 64."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    preset_flag, preset, own = COMMAND_FLAGS[command]
    argv = [command] + ([preset_flag, preset] if preset_flag else [])
    if command == "converge":
        argv += ["--operator", draw(st.sampled_from(["basic", "kantorovich"]))]
    flags = [f for f in COMMON_FLAGS + own if f in RUN_VALUES]
    for flag in draw(st.lists(st.sampled_from(flags), unique=True, max_size=3)):
        values = st.sampled_from(RUN_VALUES[flag]) | st.sampled_from(RUN_EXTREMES)
        count = 2 if flag.startswith("--grid") else 1
        argv.append(f"{flag}={','.join(draw(st.lists(values, min_size=1, max_size=count)))}")
    ns = draw(st.lists(st.sampled_from(["1", "2", "16", "64"]), min_size=1, max_size=2)
              | st.sampled_from([["0"], ["-1", "16"]]))
    points = draw(st.integers(1, 5) | st.just(0))
    return argv + [f"--grid-points={points}", f"--n={','.join(ns)}"]


class TestFailureContract:
    @settings(deadline=None, max_examples=200)
    @given(argv=bounded_run_argv())
    @example(argv=["converge", "--preset", "sin", "--grid-lo=0", "--grid-hi=1e308",
                   "--grid-points=3", "--n=16"])
    @example(argv=["voronovskaya", "--preset", "abs25", "--m-max", "3"])
    @example(argv=["frac", "--preset", "pow0"])
    @example(argv=["manifold", "--preset", "sin", "--grid-lo=0.1", "--grid-hi=0.9"])
    @example(argv=["manifold", "--grid-lo=-1,-1", "--grid-hi=1,2"])
    @example(argv=["manifold", "--grid-lo=-1,0.01", "--grid-hi=1,2", "--n", "8,16,32"])
    def test_runs_exit_with_status_and_one_json_line(self, argv):
        def main(*extra):
            out, err = io.StringIO(), io.StringIO()
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    status = cli.main([*argv, "--out", os.path.join(tmp, "x"), *extra])
                except SystemExit as exc:  # argparse rejects the flag value
                    status = exc.code
            return status, err.getvalue()

        status, err = main()
        assert status in (0, 2, 3, 4)
        assert "Traceback" not in err
        if status:
            lines = err.splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["status"] == status
        else:
            assert err == ""
        if status == 2:
            # an invalid configuration is rejected before any run starts
            assert main("--print-config")[0] == 2


    @settings(deadline=None, max_examples=300)
    @given(argv=extreme_argv())
    @example(argv=["frac", "--preset", "pow2", "--grid-hi=1e308"])
    def test_print_config_exits_zero_or_two_with_one_json_line(self, argv):
        # --print-config validates everything a run would and then stops, so no
        # drawn config launches a sweep
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main([*argv, "--out", "x", "--print-config"])
            except SystemExit as exc:  # argparse rejects the flag value
                status = exc.code
        assert status in (0, 2)
        if status == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and out.getvalue() == ""
            assert json.loads(lines[0])["status"] == 2
        else:
            assert err.getvalue() == ""
            assert json.loads(out.getvalue())["command"] == argv[0]


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "run"
        # the package's own source root, absolute, so the subprocess imports
        # the code under test whatever the caller's cwd and PYTHONPATH
        src = os.path.dirname(os.path.dirname(os.path.abspath(tanhqi.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "tanhqi", "converge", "--preset", "sin",
             "--n", "16,32", "--grid-points", "3", "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("argv", [
        ["converge", "--preset", "sin"],
        ["converge", "--preset", "sin", "--operator", "kantorovich"],
        ["voronovskaya"],
        ["frac", "--preset", "pow2"],
        ["kernel-dump"],
        ["manifold"],
    ], ids=" ".join)
    def test_a_run_imports_no_numpy_submodule(self, tmp_path, argv):
        # each run in a fresh interpreter, at the command's defaults (converge and frac need a
        # preset): the modules the run adds to those `import tanhqi.cli` loaded.  argparse's
        # gettext imports locale; np.unique's first call imported numpy.ma (3 modules, about
        # 9 ms and 1.8 MiB), and Kantorovich's np.polynomial.legendre.leggauss numpy.polynomial
        # and 8 submodules
        probe = ("import json, sys\n"
                 "import tanhqi.cli\n"
                 "before = set(sys.modules)\n"
                 "status = tanhqi.cli.main(sys.argv[1:])\n"
                 "print(json.dumps([status, sorted(set(sys.modules) - before)]))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(tanhqi.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", probe, *argv, "--out", str(tmp_path / "run")],
                              capture_output=True, text=True, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        status, added = json.loads(proc.stdout)
        extra = [m for m in added if m not in ("locale", "_locale")]
        assert status == 0 and extra == []


def old_csv(header, rows):
    """A per-value CSV writer, the oracle: an integer's digits, a float's repr (json's text)."""
    def fmt(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))

    return (",".join(header) + "\n"
            + "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)).encode()


def old_json(payload):
    """json's encoder at the reports' settings, the oracle; TypeError where json rejects a value."""
    try:
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    except TypeError:
        return TypeError


def written(writer, *args):
    """The bytes writer(path, *args) leaves in a fresh file, or the type of what it raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report")
        try:
            writer(path, *args)
        except TypeError as exc:
            return type(exc)
        with open(path, "rb") as fh:
            return fh.read()


SPECIAL_FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e308, -1e308)
py_floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
any_floats = py_floats | py_floats.map(np.float64) | st.floats(width=32).map(np.float32)
any_ints = (st.integers() | st.integers(-2**63, 2**63 - 1).map(np.int64)
            | st.integers(0, 255).map(np.uint8) | st.booleans())


@st.composite
def tables(draw):
    """A header and rows whose columns each hold ints (Python, numpy, bool) or floats."""
    kinds = draw(st.lists(st.sampled_from([any_ints, any_floats]), max_size=5))
    rows = draw(st.lists(st.tuples(*(st.one_of(k) for k in kinds)), max_size=4))
    rows = draw(st.sampled_from([rows, [list(r) for r in rows]]))
    return [f"c{i}" for i in range(len(kinds))], rows


class Level(enum.IntEnum):
    LOW = -1
    HIGH = 7


@st.composite
def float_tables(draw):
    """Tables as kernel-dump's rows hold them: a non-empty list of equally long, non-empty lists
    of floats, of random width and length."""
    width = draw(st.integers(1, 8))
    return draw(st.lists(st.lists(py_floats, min_size=width, max_size=width), min_size=1,
                         max_size=6))


# text a writer must escape or must not take for a format: %, quotes, non-ASCII, controls
texts = st.text(max_size=8) | st.sampled_from(["%", "%r%%", '"q"', "\\", "é", "\u2028",
                                               "\x00\n\t\x7f", "nan inf"])
# leaves as reports hold them, plus numpy ints and bools, which json (and so both writers)
# rejects, and an IntEnum, which json writes as its value
json_leaves = (py_floats | py_floats.map(np.float64) | st.integers() | st.booleans() | st.none()
               | texts | st.lists(py_floats, max_size=6)
               | st.integers(-5, 5).map(np.int64) | st.booleans().map(np.bool_)
               | st.sampled_from(Level))
payloads = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(texts, inner, max_size=4)
                   | st.dictionaries(st.integers(-3, 3), inner, max_size=3)),
    max_leaves=24,
)
# residual_sweep's list of reports, one per correction order
report_dicts = st.fixed_dictionaries({
    "config": st.dictionaries(st.text(max_size=6), json_leaves, max_size=4),
    "rows": st.lists(st.tuples(st.integers(1, 2**20), py_floats, py_floats).map(list), max_size=4),
    "fitted_slope": st.none() | py_floats,
    "note": st.text(max_size=10),
})


# one small run of each command
COMMAND_RUNS = [
    ["converge", "--preset", "sin", "--n", "16,32,64", "--grid-points", "11"],
    ["voronovskaya", "--n", "16,32,64", "--grid-points", "11", "--m-max", "2"],
    ["frac", "--preset", "pow2", "--n", "64,128,256", "--grid-points", "5"],
    ["kernel-dump", "--grid-points", "101"],
    ["manifold", "--n", "32,64,128", "--grid-points", "5"],
]


class TestReportWriters:
    @settings(deadline=None, max_examples=300)
    @given(table=tables())
    @example(table=(["x", "y"], []))
    @example(table=(["m", "n", "e"], [(True, np.int64(-7), -0.0)]))
    @example(table=(["x"], [[v] for v in SPECIAL_FLOATS]))
    def test_csv_equals_the_per_value_writer(self, table):
        header, rows = table
        assert written(cli._write_csv, header, cli._cells(rows)) == old_csv(header, rows)

    @settings(deadline=None, max_examples=300)
    @given(payload=payloads | st.lists(report_dicts, max_size=3))
    @example(payload={"rows": [list(SPECIAL_FLOATS)], "empty": [], "none": {}})
    @example(payload=[np.float64(0.1), 1, True, None, [], {}])
    @example(payload={"n": [np.int64(3)]})
    @example(payload={"rows": [list(SPECIAL_FLOATS)] * 3, "%s": "%r \u00e9\x01\"", "l": Level.HIGH})
    def test_json_equals_the_json_encoder(self, payload):
        assert written(cli._write_json, payload) == old_json(payload)

    @settings(deadline=None, max_examples=300)
    @given(rows=float_tables(), rest=st.dictionaries(texts, json_leaves, max_size=4))
    @example(rows=[list(SPECIAL_FLOATS)] * 3, rest={"z": '\n  "rows": 0', "cli": {"out": "%r"}})
    @example(rows=[[0.5]], rest={})
    def test_float_rows_equal_the_json_encoder(self, rows, rest):
        # the table as json writes a top-level key's value at indent 2, in a report around it,
        # joined from its cells' texts
        cells = cli._cells(rows)
        assert cli._float_rows(cells) == json.dumps(rows, indent=2).replace("\n", "\n  ")
        payload = {**rest, "rows": rows}
        assert written(cli._write_json, payload, cells) == old_json(payload)

    @pytest.mark.parametrize("argv", COMMAND_RUNS, ids=lambda argv: argv[0])
    def test_each_command_writes_the_oracle_bytes(self, tmp_path, capsys, monkeypatch, argv):
        emitted = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda cfg, *table: emitted.append(table) or emit(cfg, *table))
        status, _, _ = run([*argv, "--out", str(tmp_path / "r")], capsys)
        assert status == 0
        (header, rows, payload), = emitted
        assert (tmp_path / "r.csv").read_bytes() == old_csv(header, rows)
        assert (tmp_path / "r.json").read_bytes() == old_json(payload)

    def test_kernel_dump_without_a_csv_writes_the_oracle_bytes(self, tmp_path, capsys, monkeypatch):
        # with --format json the float rows are still joined from their cells' texts, with no CSV
        emitted = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda cfg, *table: emitted.append(table) or emit(cfg, *table))
        status, _, _ = run(["kernel-dump", "--grid-points", "101", "--format", "json", "--out",
                            str(tmp_path / "r")], capsys)
        assert status == 0 and not (tmp_path / "r.csv").exists()
        (_, _, payload), = emitted
        assert (tmp_path / "r.json").read_bytes() == old_json(payload)

    @pytest.mark.parametrize("argv", COMMAND_RUNS, ids=lambda argv: argv[0])
    def test_csv_cells_read_as_the_json_rows(self, tmp_path, capsys, argv):
        # each CSV cell is the same double as the JSON row's value at its position (voronovskaya's
        # CSV rows are (m, *row of report m)); kernel-dump's CSV lines are its JSON rows' texts
        status, _, _ = run([*argv, "--out", str(tmp_path / "r")], capsys)
        assert status == 0
        lines = (tmp_path / "r.csv").read_text().splitlines()[1:]
        report = json.loads((tmp_path / "r.json").read_text(), parse_float=str)
        rows = ([[m, *row] for m, r in enumerate(report) for row in r["rows"]]
                if argv[0] == "voronovskaya" else report["rows"])
        assert ([[float(cell).hex() for cell in line.split(",")] for line in lines]
                == [[float(v).hex() for v in row] for row in rows])
        if argv[0] == "kernel-dump":
            assert lines == [",".join(row) for row in rows]


class TestInPlaceWrites:
    # reports are overwritten in place, with no truncating open: the bytes and the exit statuses
    # are those of a fresh open(path, "w")
    @pytest.mark.parametrize("argv", COMMAND_RUNS, ids=lambda argv: argv[0])
    def test_a_rerun_over_longer_reports_leaves_the_oracle_bytes(self, tmp_path, capsys,
                                                                 monkeypatch, argv):
        emitted = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda cfg, *table: emitted.append(table) or emit(cfg, *table))
        for suffix in (".csv", ".json"):
            (tmp_path / ("r" + suffix)).write_bytes(b"\xff" * 2**20)
        status, _, err = run([*argv, "--out", str(tmp_path / "r")], capsys)
        assert status == 0 and err == ""
        (header, rows, payload), = emitted
        assert (tmp_path / "r.csv").read_bytes() == old_csv(header, rows)
        assert (tmp_path / "r.json").read_bytes() == old_json(payload)

    def test_short_writes_are_resumed(self, monkeypatch):
        # each write takes at most 100 bytes; the file still holds every byte once
        payload = {"rows": [[0.1 * i, 1.0 / (i + 1)] for i in range(200)], "note": "\u00e9" * 50}
        write = os.write
        with monkeypatch.context() as m:
            m.setattr(cli.os, "write", lambda fd, data: write(fd, data[:100]))
            got = written(cli._write_json, payload)
        assert len(got) > 1000 and got == old_json(payload)

    def test_a_fresh_report_gets_the_mode_open_gives(self, tmp_path, capsys):
        mask = os.umask(0o027)
        try:
            with open(tmp_path / "ref", "w"):
                pass
            status, _, _ = run(converge_args(tmp_path / "r"), capsys)
        finally:
            os.umask(mask)
        assert status == 0
        want = stat.S_IMODE((tmp_path / "ref").stat().st_mode)
        assert want == 0o640
        for name in ("r.csv", "r.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_naming_a_directory_maps_to_four(self, tmp_path, capsys, fmt):
        (tmp_path / f"r.{fmt}").mkdir()
        status, out, err = run(converge_args(tmp_path / "r", ["--format", fmt]), capsys)
        assert status == 4 and out == ""
        assert err.count("\n") == 1 and json.loads(err)["status"] == 4
        assert (tmp_path / f"r.{fmt}").is_dir()


class TestParserReuse:
    def test_an_absent_flag_takes_its_default_again(self, tmp_path, capsys):
        argv = ["converge", "--preset", "sin", "--operator", "kantorovich", "--out",
                str(tmp_path / "x"), "--print-config"]
        status, out, _ = run([*argv, "--quad-nodes", "7"], capsys)
        assert status == 0 and json.loads(out)["quad_nodes"] == 7
        status, out, _ = run(argv, capsys)
        assert status == 0 and json.loads(out)["quad_nodes"] == 5

    def test_a_rejected_argv_leaves_the_next_run_clean(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["converge", "--preset", "sin", "--n", "16,x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["status"] == 2
        status, _, err = run(converge_args(tmp_path / "x"), capsys)
        assert status == 0 and err == ""

    def test_one_parser_parses_like_a_fresh_one(self):
        assert cli.build_parser() is cli.build_parser()
        for argv in (["converge", "--preset", "runge", "--operator", "kantorovich", "--quad-nodes", "3"],
                     ["voronovskaya", "--m-max", "3", "--grid-lo=-1", "--grid-hi=1"],
                     ["frac", "--preset", "pow2", "--beta", "0.3", "--format", "json"],
                     ["kernel-dump", "--n", "8", "--q", "0.25"],
                     ["manifold", "--chart", "torus", "--n", "16,32", "--print-config"]):
            fresh = cli.build_parser.__wrapped__()
            assert cli.build_parser().parse_args(argv) == fresh.parse_args(argv)
