"""The benchmark's runs, gate and tracer still fit the CLI (perfbench/ is read, not changed)."""

import os
import sys

import pytest

from tanhqi import cli

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
