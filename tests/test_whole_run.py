"""Whole runs on random small scenarios: every mode, through run_experiment.

Each example writes a depot file, builds a ScenarioConfig (grid, depots,
fleet, regions, hotspots, spike and failure windows, planner effort) and
runs it twice with trajectory logs. Checked on every example: the
invariants of test_acceptance.InvariantObserver, a clock that never goes
backwards, dispatched plus pending incidents equal to the chain's, no
dispatch of an agent inside one of its failure windows, and byte-identical
result files from the second run. A second property checks that a live
baseline run dispatches exactly as the search's replay of the same chain.
"""

import csv
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierdispatch import (Coordinator, DemandModel, FailureEvent, Incident,
                          IncidentChain, PolicyMode, lowlevel, run_experiment)
from hierdispatch.harness import ScenarioConfig, build_scenario

from conftest import build_world, fresh_state
from test_acceptance import InvariantObserver

HOUR_MS = 3_600_000
STEP_MS = 10 * 60_000  # failure edges and most report times fall on this grid


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
# two touching windows: the second opens as the first ends, with an
# incident waiting; it must wait until 2 h, not be dispatched at 1 h
@example(([(0, 0, 0, 1), (1, 1, 0, 1)], dict(
    grid_width=3, grid_height=3, num_agents=1, num_regions=1,
    horizon_hours=2.0, base_rate_per_hour=0.0,
    hotspots=[{"gx": 0, "gy": 0, "rate_per_hour": 1.0}], spikes=[],
    failures=[{"agent_id": 0, "start_hour": 0.0, "duration_hours": 1.0},
              {"agent_id": 0, "start_hour": 1.0, "duration_hours": 1.0}],
    seeds=[0], mode="baseline", mcts_iterations=4, n_samples=1,
    max_joint_actions=10_000)))
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


@st.composite
def replay_cases(draw):
    """(world, state, incidents, failures, horizon_ms): one region, agents
    waiting at their depots, at most one failure window per agent (a
    replayed agent holds one), and report times drawn from a 10-minute grid,
    the windows' starts and ends, and any millisecond."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    n_cells = width * height
    depot_cells = draw(st.lists(st.integers(0, n_cells - 1), min_size=1,
                                max_size=min(4, n_cells), unique=True))
    world = build_world(width, height, capacity=draw(st.integers(1, 2)),
                        depot_xy=tuple((c % width, c // width) for c in depot_cells))
    slots = [d.id for d in world.depots for _ in range(d.capacity)]
    homes = draw(st.permutations(slots))[:draw(st.integers(1, min(4, len(slots))))]
    state = fresh_state(world, homes)
    horizon_ms = draw(st.integers(1, 3)) * HOUR_MS
    steps = horizon_ms // STEP_MS
    failures = []
    for agent in state.agents:
        if draw(st.booleans()):
            start = draw(st.integers(0, steps))
            end = draw(st.integers(start + 1, steps + 2))
            failures.append(FailureEvent(agent.id, start * STEP_MS,
                                         (end - start) * STEP_MS))
    times = st.integers(0, steps).map(lambda k: k * STEP_MS) | st.integers(0, horizon_ms)
    edges = [t for f in failures for t in (f.start_ms, f.start_ms + f.duration_ms)]
    if edges:
        times |= st.sampled_from(edges)
    reports = sorted(draw(st.lists(times, max_size=8)))
    incidents = [Incident(i, draw(st.integers(0, n_cells - 1)), t,
                          draw(st.sampled_from([10, 20, 45])) * 60_000)
                 for i, t in enumerate(reports)]
    return world, state, incidents, failures, horizon_ms


def dispatches(records):
    return [(r.incident.id, r.agent_id, r.dispatch_ms, r.arrive_ms, r.response_s)
            for r in records]


@settings(max_examples=200, deadline=None)
@given(replay_cases())
def test_live_run_equals_search_replay(case):
    world, state, incidents, failures, horizon_ms = case
    replayed = state.clone()
    for f in failures:  # the replay knows every window from the start
        replayed.agent(f.agent_id).failure_window = (f.start_ms,
                                                     f.start_ms + f.duration_ms)
    coord = Coordinator(world, DemandModel(rates=np.ones(len(world.cells))),
                        PolicyMode.BASELINE_STATIC)
    live = coord.run(state, IncidentChain(incidents, horizon_ms), horizon_ms,
                     failures)
    records = []
    greedy = lowlevel.greedy_dispatch_pending

    def recorded(*args):
        recs = greedy(*args)
        records.extend(recs)
        return recs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lowlevel, "greedy_dispatch_pending", recorded)
        # the live loop handles events at horizon_ms itself; _play stops
        # before its end_ms, and the live run injects only earlier reports
        lowlevel._play(replayed, [i for i in incidents if i.report_time_ms < horizon_ms],
                       0, world, 1.0, 0, horizon_ms + 1, False)
    assert dispatches(records) == dispatches(live.records)
