"""The benchmark's runs, gate and tracer still fit the CLI (perfbench/ is read, not changed)."""

import json
import os
import sys

import pytest

from tanhqi import ActivationParams, cli, truncation_radius

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_zero_runs_pass_the_gate(tmp_path, capsys, workload):
    reference = gate.load_reference()[workload]
    for run in workloads.build(workload, 0, str(tmp_path)):
        status = cli.main(list(run.argv))
        assert gate.check_run(run, status, reference.get(run.spec.name)) == [], run.spec.name
    assert capsys.readouterr().err == ""


def test_a_traced_pass_records_the_report_writer(tmp_path, capsys):
    spans = tracer.Tracer()
    with spans.installed():
        statuses = [cli.main(list(run.argv))
                    for run in workloads.build("moments-chart", 0, str(tmp_path))]
    assert statuses == [0, 0, 0]
    summary = spans.summary()
    assert summary["cli.emit"]["calls"] == 3
    assert summary["cli.merge_config"]["calls"] == 3
    # the tracer puts every wrapped function back
    assert cli._emit.__module__ == "tanhqi.cli" and not hasattr(cli._emit, "__wrapped__")


def test_every_run_takes_the_radius_its_claims_rest_on(tmp_path, capsys):
    # W = 16 for every alpha = 1 run, and 232 for basic-wide (alpha 1/16), where the smallest
    # power of two, 256, took 513 sites a window to the 465 that hold the mass within eps
    radii = {}
    for workload in sorted(workloads.WORKLOADS):
        for run in workloads.build(workload, 0, str(tmp_path)):
            assert cli.main([*run.argv, "--print-config"]) == 0
            cfg = json.loads(capsys.readouterr().out)
            params = ActivationParams(cfg["q"], cfg["alpha"])
            radii[workload, run.spec.name] = truncation_radius(params, cfg["trunc_eps"])
    want = {key: 232.0 if key == ("sweep-1d", "basic-wide") else 16.0 for key in radii}
    assert len(radii) == 8 and radii == want
