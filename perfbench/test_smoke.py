"""Smoke test of the benchmark at a tiny size.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import layers
import run

TINY = {
    "spikes_hier": {"horizon_hours": 8.0, "mcts_iterations": 8},
    "metro_hier": {"horizon_hours": 2.0, "mcts_iterations": 8},
    "failures_baseline": {"horizon_hours": 4.0},
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at 2 seeds, a few simulated hours and a tiny search."""
    shrunk = {name: replace(w, overrides={**w.overrides, **TINY[name]},
                            seed_cost_s=1.0, max_seeds=2)
              for name, w in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", shrunk)
    return shrunk


def result_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_declared_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    status = run.main(["--workload", workload, "--seed", "3", "--seconds", "3",
                       "--trace", str(trace)])
    line = result_line(capsys)
    assert status == 0 and line["correct"] and line["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_dropped_incident_record_counts_as_failed_seed(tiny, capsys, monkeypatch):
    harness = run.load_program()
    write = harness._write_incidents
    dropped = []

    def drop_one(path, records):
        if not dropped:
            dropped.append(path)
            records = records[1:]
        write(path, records)
    monkeypatch.setattr(harness, "_write_incidents", drop_one)
    status = run.main(["--workload", "failures_baseline", "--seed", "3",
                       "--seconds", "3", "--trace", "0"])
    out = capsys.readouterr().out
    line = json.loads(out.strip().splitlines()[-1])
    assert status == 1 and not line["correct"]
    assert (line["failed"], line["attempted"]) == (1, 2)
    assert "failed_frac 0.5 ratio" in out


def test_check_incidents_flags_a_wrong_response_time(tmp_path):
    path = tmp_path / "incidents_seed0.csv"
    path.write_text("incident_id,report_time_s,cell,dispatch_time_s,arrival_time_s,"
                    "response_time_s,agent_id,region_id\n"
                    "0,1.000,5,1.000,61.000,60.000,0,0\n"
                    "1,2.000,5,3.000,9.000,6.000,1,0\n")
    assert run.check_incidents(path, pending=0, chain_incidents=2) == [
        "incident 1: response_time_s 6.0 != arrival - report"]
    assert run.check_incidents(path, pending=1, chain_incidents=2)[0].startswith(
        "2 dispatched + 1 pending != 2")


def test_self_times_under_a_span_sum_to_no_more_than_its_duration(tiny):
    harness = run.load_program()
    w = tiny["spikes_hier"]
    cfg = run.workload_config(harness, w, [7])
    tracer = layers.Tracer()
    probe = layers.Probe(tracer)
    with layers.instrument(tracer, probe, lambda: None):
        harness.run_experiment(cfg, run.OUT / "smoke-spans", observer=probe.observer)
    children: dict[int, list] = {}
    for span in tracer.spans:
        children.setdefault(span.parent, []).append(span)

    def self_total(span):
        return (span.self_s + sum(agg[2] for agg in span.leaves.values())
                + sum(self_total(c) for c in children.get(span.id, ())))

    assert {s.name for s in tracer.spans} >= {
        "harness.run_experiment", "coordinator.run", "lowlevel.plan", "lowlevel.search"}
    for span in tracer.spans:
        assert self_total(span) <= span.duration + 1e-6
        assert self_total(span) == pytest.approx(span.duration, abs=1e-6)


def test_exits_nonzero_without_the_program(tmp_path):
    copy = tmp_path / "bare"
    (copy / "perfbench").mkdir(parents=True)
    (copy / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    for path in Path(run.__file__).parent.glob("*.py"):
        (copy / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "spikes_hier", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=copy, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode not in (0, 1) and proc.stdout == ""
