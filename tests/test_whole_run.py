"""Whole runs on random small scenarios: every mode, through run_experiment.

Each example writes a depot file, builds a ScenarioConfig (grid, depots,
fleet, regions, hotspots, spike and failure windows, planner effort) and
runs it twice with trajectory logs. Checked on every example: the
invariants of test_acceptance.InvariantObserver, a clock that never goes
backwards, dispatched plus pending incidents equal to the chain's, no
dispatch of an agent inside one of its failure windows, and byte-identical
result files from the second run.
"""

import csv
import os
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from hierdispatch import run_experiment
from hierdispatch.harness import ScenarioConfig, build_scenario

from test_acceptance import InvariantObserver


class ClockObserver(InvariantObserver):
    """InvariantObserver that also checks each run's clock is monotone."""

    def __init__(self):
        super().__init__()
        self.clock = {}

    def __call__(self, coord, state, kind):
        super().__call__(coord, state, kind)
        assert state.clock_ms >= self.clock.get(coord, 0), "clock went backwards"
        self.clock[coord] = state.clock_ms


@st.composite
def scenarios(draw):
    width, height = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    cells = draw(st.lists(st.integers(0, width * height - 1), unique=True,
                          min_size=2, max_size=6))
    capacities = [draw(st.integers(1, 2)) for _ in cells]
    depots = [(i, cell % width, cell // width, cap)
              for i, (cell, cap) in enumerate(zip(cells, capacities))]
    num_agents = draw(st.integers(1, min(6, sum(capacities))))
    num_regions = draw(st.integers(1, min(3, len(cells))))
    horizon = draw(st.integers(2, 6))
    hours = st.floats(0.0, horizon, allow_nan=False)
    hotspots = draw(st.lists(st.fixed_dictionaries({
        "gx": st.integers(0, width - 1), "gy": st.integers(0, height - 1),
        "rate_per_hour": st.floats(0.0, 2.0)}), max_size=3,
        unique_by=lambda h: (h["gx"], h["gy"])))
    base_rate = draw(st.sampled_from([0.0, 0.02, 0.1]) if any(
        h["rate_per_hour"] > 0 for h in hotspots) else st.sampled_from([0.02, 0.1]))
    spikes = []
    for _ in range(draw(st.integers(0, 2))):
        start = draw(hours)
        spike = {"start_hour": start,
                 "end_hour": start + draw(st.floats(0.1, 2.0)),
                 "multiplier": draw(st.floats(1.0, 5.0))}
        if draw(st.booleans()):
            spike["region"] = draw(st.integers(0, num_regions - 1))
        else:
            spike["cells"] = [[draw(st.integers(0, width - 1)),
                               draw(st.integers(0, height - 1))]]
        spikes.append(spike)
    failures, down_until = [], {}
    for start in sorted(draw(st.lists(hours, max_size=3))):
        agent_id = draw(st.integers(0, num_agents - 1))
        if start < down_until.get(agent_id, start):
            continue  # windows of one agent must not overlap
        duration = draw(st.floats(0.05, 3.0))
        failures.append({"agent_id": agent_id, "start_hour": start,
                         "duration_hours": duration})
        down_until[agent_id] = start + duration
    config = dict(
        grid_width=width, grid_height=height, num_agents=num_agents,
        num_regions=num_regions, horizon_hours=float(horizon),
        base_rate_per_hour=base_rate, hotspots=hotspots, spikes=spikes,
        failures=failures, seeds=[draw(st.integers(0, 1000))],
        mode=draw(st.sampled_from(["baseline", "lowlevel", "hierarchical"])),
        mcts_iterations=draw(st.integers(4, 8)), n_samples=draw(st.integers(1, 2)),
        max_joint_actions=draw(st.sampled_from([1, 10_000])))
    return depots, config


def read_bytes(directory, prefix):
    return {path.name: path.read_bytes()
            for path in sorted(pathlib.Path(directory).glob(prefix + "*"))}


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_whole_run_invariants(scenario):
    depots, config = scenario
    with tempfile.TemporaryDirectory() as tmp:
        depot_file = os.path.join(tmp, "depots.csv")
        with open(depot_file, "w") as f:
            f.write("depot_id,gx,gy,capacity\n")
            f.writelines(f"{i},{gx},{gy},{cap}\n" for i, gx, gy, cap in depots)
        cfg = ScenarioConfig(depot_file=depot_file, **config)
        windows = [(f.agent_id, f.start_ms, f.start_ms + f.duration_ms)
                   for f in build_scenario(cfg).failures]
        outputs = []
        for run in ("first", "second"):
            out = os.path.join(tmp, run)
            report = run_experiment(cfg, out, trace=True, observer=ClockObserver())
            for seed in cfg.seeds:
                per_seed = report.per_seed[seed]
                assert per_seed["n"] + per_seed["pending_at_end"] \
                    == per_seed["chain_incidents"]
                with open(os.path.join(out, f"incidents_seed{seed}.csv")) as f:
                    for row in csv.DictReader(f):
                        agent_id = int(row["agent_id"])
                        t_ms = round(float(row["dispatch_time_s"]) * 1000)
                        assert not any(a == agent_id and start <= t_ms < end
                                       for a, start, end in windows), \
                            f"agent {agent_id} dispatched at {t_ms} ms while failed"
            outputs.append((read_bytes(out, "incidents_seed"),
                            read_bytes(out, "trajectory_seed")))
        assert outputs[0] == outputs[1]
