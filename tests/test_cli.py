"""Command-line interface: outputs, config merging, exit statuses."""

import json
import os
import subprocess
import sys

import pytest

import tanhqi
from tanhqi import (
    ActivationParams,
    DensityKernel,
    DiagnosticError,
    function_preset,
    operator_convergence,
)
from tanhqi import cli


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
        # 17 significant digits reproduce the doubles exactly
        kernel = DensityKernel(ActivationParams(0.5, 1.0))
        report = operator_convergence(
            "basic", kernel, function_preset("sin"), (16, 32, 64), [(0.0, 1.0)], 11
        )
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
        # 33^2 window sites x 100000^2 quadrature nodes per point, far above 2^24
        argv = ["converge", "--preset", "sin-exp", "--grid-lo", "0,0", "--grid-hi", "1,1",
                "--grid-points", "2", "--n", "16,32,64", "--operator", "kantorovich",
                "--quad-nodes", "100000", "--out", str(tmp_path / "x"),
                *(["--print-config"] if print_config else [])]
        status, out, err = run(argv, capsys)
        assert status == 2 and out == ""
        assert err.count("\n") == 1
        assert "one evaluation point needs 10890000000000 samples" in json.loads(err)["error"]
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("print_config", [False, True])
    def test_oversized_l1_grid_rejected(self, tmp_path, capsys, print_config):
        # the farthest node, 1 + W/64 = 1.25, needs 1.25e8 L1 points at step 1e-8
        argv = ["frac", "--preset", "pow2", "--frac-step", "1e-8", "--out", str(tmp_path / "x"),
                *(["--print-config"] if print_config else [])]
        status, out, err = run(argv, capsys)
        assert status == 2 and out == ""
        assert err.count("\n") == 1
        assert "L1 grid would need 125000000 points" in json.loads(err)["error"]

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

    def test_kernel_dump_wide_kernel_keeps_its_mass(self, tmp_path, capsys):
        # the whole kernel lies below eps here; the window must still hold its mass
        out = tmp_path / "k"
        status, _, _ = run(
            ["kernel-dump", "--alpha", "1e-3", "--trunc-eps", "1e-3", "--grid-points", "3",
             "--out", str(out)], capsys,
        )
        assert status == 0
        payload = json.loads((tmp_path / "k.json").read_text())
        assert payload["kernel"]["radius"] == 2048.0
        for row in payload["rows"]:
            assert 1.0 - row[2] < 0.06  # moment0 is the partition sum

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
            raise DiagnosticError("quadrature self-check failed")

        monkeypatch.setitem(cli._RUNNERS, "converge", boom)
        status, _, err = run(converge_args(tmp_path / "x"), capsys)
        assert status == 3
        msg = json.loads(err.strip())
        assert msg["status"] == 3
        assert "self-check" in msg["error"]

    @pytest.mark.parametrize("error", [RuntimeError, MemoryError])
    def test_incomplete_run_maps_to_three(self, tmp_path, capsys, monkeypatch, error):
        def boom(cfg):
            raise error("could not complete the sweep")

        monkeypatch.setitem(cli._RUNNERS, "converge", boom)
        status, _, err = run(converge_args(tmp_path / "x"), capsys)
        assert status == 3
        assert err.count("\n") == 1
        assert json.loads(err) == {"status": 3, "error": "could not complete the sweep"}

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
