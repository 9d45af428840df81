"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to see them).

The end-to-end criteria (5-7) run the synthetic default city shipped in
configs/; planner effort there is scaled for CI wall-clock budgets, and
every knob remains a config override. Full-scale hyper-parameters live
in configs/metro30_preset.yaml.
"""

import copy
import json
import math
import os

import numpy as np
import pytest

from hierdispatch import (MCTSParams, QueueParams, allocate,
                          joint_action_count, load_config, mcts_search,
                          mean_wait, run_experiment)
from hierdispatch.highlevel import _wait, total_expected_wait
from hierdispatch.simulator import depot_occupancy

from conftest import build_world
from oracles import best_allocation, simulate_mmc_mean_wait
from test_lowlevel import (bandit_world, chain, expectimax_value, incident,
                           region_state)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def ok(criterion, detail):
    print(f"\n[ACCEPTANCE] criterion {criterion}: PASS — {detail}")


# ----------------------------------------------------------------------
# criterion 1: decision-complexity figures
def test_criterion_1_complexity_figures():
    central = joint_action_count(30, 20)
    assert central == math.factorial(30) // math.factorial(10)
    assert abs(central - 7.31e25) / 7.31e25 < 1e-3
    per_region = joint_action_count(6, 4)
    assert per_region == 360
    assert per_region * 5 == 1800
    ok(1, f"P(30,20)={central:.4e} (within 0.1% of 7.31e25), "
          f"P(6,4)=360, 5 regions -> 1800 joint actions")


# ----------------------------------------------------------------------
# criterion 2: Erlang-C vs brute-force FIFO simulation
def test_criterion_2_erlang_c_oracle():
    worst = 0.0
    for c in (1, 2, 5):
        for rho in (0.3, 0.6, 0.9):
            mu = 1.0
            lam = rho * c * mu
            analytic = mean_wait(QueueParams(lam, mu, c))
            simulated = simulate_mmc_mean_wait(lam, mu, c,
                                               n_arrivals=1_000_000,
                                               seed=20240809)
            rel = abs(simulated - analytic) / analytic
            assert rel < 0.03, (c, rho, rel)
            worst = max(worst, rel)
    ok(2, f"9 (rho, c) configurations over 1e6 arrivals, "
          f"worst relative error {worst:.2%} < 3%")


# ----------------------------------------------------------------------
# criterion 3: allocator feasibility and optimality gap
def test_criterion_3_allocator_quality():
    rng = np.random.default_rng(99)
    gaps = []
    for _ in range(50):
        k = int(rng.integers(1, 5))
        total = int(rng.integers(k, 9))
        eta = float(rng.uniform(1.5, 4.0))
        rates = {r: float(rng.uniform(0.2, eta * 0.9)) for r in range(k)}
        out = allocate(rates, total, eta=eta)
        assert sum(out.counts.values()) == total
        assert all(x >= 0 for x in out.counts.values())
        greedy_val = total_expected_wait(rates, out.counts, eta)
        _vec, best_val = best_allocation(rates, total, eta, _wait)
        if math.isinf(best_val) or best_val == 0:
            continue
        gaps.append((greedy_val - best_val) / best_val)
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap <= 0.10
    ok(3, f"50 random instances feasible; mean optimality gap "
          f"{mean_gap:.2%} (max {max(gaps):.2%}) over {len(gaps)} stable "
          f"instances, threshold 10%")


# ----------------------------------------------------------------------
# criterion 4: MCTS correctness
def test_criterion_4a_visit_conservation():
    world = build_world(depot_xy=((0, 0), (4, 0), (9, 0)))
    rs = region_state(world, [0, 2])
    c = chain(incident(0, 2, 600_000), incident(1, 8, 2_400_000),
              incident(2, 1, 4_200_000))
    checked = 0
    for iters in (50, 200, 500):
        res = mcts_search(rs, c, world, MCTSParams(iterations=iters))
        assert res.root.visits == iters

        def walk(node):
            child_sum = sum(ch.visits for ch in node.children.values())
            assert node.visits >= child_sum
            ends = node.visits - child_sum
            for ch in node.children.values():
                ends += walk(ch)
            return ends

        assert walk(res.root) == iters
        checked += 1
    ok("4a", f"visit-count conservation on {checked} trees "
             f"(root visits == iterations, endpoint sum == iterations)")


def test_criterion_4b_bandit_selection():
    world, rs, c = bandit_world()
    res = mcts_search(rs, c, world, MCTSParams(iterations=200))
    visits = {a: n.visits for a, n in res.root.children.items()}
    rate = (visits[((0, 0),)] - 1) / (200 - 2)  # staying is the better arm
    assert rate >= 0.95
    ok("4b", f"two-armed toy: better arm took {rate:.1%} of post-burn-in "
             f"selections (>= 95%) within 200 iterations")


def test_criterion_4c_expectimax_agreement():
    fixtures = [((1, 12), (8, 55), (8, 95)),
                ((8, 15), (1, 60), (2, 100)),
                ((4, 10), (0, 50), (9, 90))]
    world = build_world(depot_xy=((0, 0), (4, 0), (9, 0)))
    for cells_times in fixtures:
        rs = region_state(world, [1])
        incidents = [incident(i, cell, t * 60_000)
                     for i, (cell, t) in enumerate(cells_times)]
        params = MCTSParams(iterations=4000)
        res = mcts_search(rs, chain(*incidents), world, params)
        oracle = expectimax_value(rs, incidents, world, params)
        got = min(res.scores, key=res.scores.get)
        want = min(oracle, key=lambda a: (oracle[a], a))
        assert got == want, (cells_times, got, want)
    ok("4c", f"{len(fixtures)} instances (3 root actions, 3 incidents): "
             f"recommendation equals exhaustive expectimax")


# ----------------------------------------------------------------------
# invariant observer shared by the end-to-end criteria
class InvariantObserver:
    def __init__(self):
        self.last = {}
        self.events = 0

    def __call__(self, coord, state, kind):
        self.events += 1
        world = coord.world
        speed_mps = world.travel.speed_mph / 3600.0
        # key by the coordinator object itself: holding the reference keeps
        # ids from being recycled across per-seed runs
        seen = self.last.setdefault(coord, {})
        for agent in state.agents:
            if agent.id in seen:
                t0, p0 = seen[agent.id]
                moved = math.dist(p0, agent.position)
                budget = speed_mps * (state.clock_ms - t0) / 1000.0
                assert moved <= budget + 1e-6, \
                    f"teleport: agent {agent.id} moved {moved:.4f} mi in " \
                    f"{(state.clock_ms - t0) / 1000:.1f} s"
            seen[agent.id] = (state.clock_ms, agent.position)
        for depot in world.depots:
            assert depot_occupancy(state, depot.id) <= depot.capacity, \
                f"depot {depot.id} over capacity"
        if state.pending:
            assert not state.idle_agents(), \
                "idle agent while incidents queue (greedy dominance)"


def _load(name, **overrides):
    cfg = load_config(os.path.join(CONFIG_DIR, name))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def stationary_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("stationary")
    observer = InvariantObserver()
    reports = {}
    for mode in ("baseline", "lowlevel"):
        cfg = _load("synthetic_default.yaml", mode=mode)
        reports[mode] = run_experiment(cfg, out / mode, observer=observer)
    return reports, observer


@pytest.fixture(scope="module")
def nonstationary_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("nonstationary")
    observer = InvariantObserver()
    reports = {}
    for mode in ("baseline", "lowlevel", "hierarchical"):
        cfg = _load("synthetic_nonstationary.yaml", mode=mode)
        reports[mode] = run_experiment(cfg, out / mode, observer=observer)
    return reports, observer


@pytest.fixture(scope="module")
def failure_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("failures")
    observer = InvariantObserver()
    base = load_config(os.path.join(CONFIG_DIR, "synthetic_failures.yaml"))
    reports = {}
    for n_fail in (1, 2, 3):
        for mode in ("baseline", "hierarchical"):
            cfg = copy.deepcopy(base)
            cfg.failures = base.failures[:n_fail]
            cfg.mode = mode
            cfg.validate()
            reports[(n_fail, mode)] = run_experiment(
                cfg, out / f"{mode}{n_fail}", observer=observer)
    return reports, observer


# criterion 5: stationary test bed, directional
@pytest.mark.slow
def test_criterion_5_stationary_directional(stationary_runs):
    reports, _obs = stationary_runs
    base, low = reports["baseline"], reports["lowlevel"]
    assert len(base.per_seed) >= 5
    assert base.count >= 500
    assert low.mean <= base.mean
    q3_base = base.quartiles()[2]
    q3_low = low.quartiles()[2]
    assert q3_low <= q3_base
    ok(5, f"pooled {base.count} incidents over {len(base.per_seed)} seeds: "
          f"mean {low.mean:.1f}s <= {base.mean:.1f}s, "
          f"Q3 {q3_low:.1f}s <= {q3_base:.1f}s")


# criterion 6: non-stationary test bed, mode ordering
@pytest.mark.slow
def test_criterion_6_nonstationary_ordering(nonstationary_runs):
    reports, _obs = nonstationary_runs
    means = {m: reports[m].mean for m in ("baseline", "lowlevel", "hierarchical")}
    assert means["hierarchical"] <= means["lowlevel"] <= means["baseline"]
    ok(6, "pooled means ordered hierarchical "
          f"({means['hierarchical']:.1f}s) <= lowlevel "
          f"({means['lowlevel']:.1f}s) <= baseline ({means['baseline']:.1f}s)")


# criterion 7: failure robustness
@pytest.mark.slow
def test_criterion_7_failure_robustness(failure_runs):
    reports, _obs = failure_runs
    deltas = []
    for n_fail in (1, 2, 3):
        base = reports[(n_fail, "baseline")]
        hier = reports[(n_fail, "hierarchical")]
        assert hier.mean <= base.mean, f"{n_fail} failures"
        deltas.append(base.mean - hier.mean)
    asym = reports[(3, "hierarchical")]
    assert asym.transfers >= 1
    ok(7, f"hierarchical <= baseline for 1/2/3 simultaneous failures "
          f"(gains {', '.join(f'{d:.1f}s' for d in deltas)}); "
          f"{asym.transfers} cross-region transfers on the "
          f"region-wide-outage fixture")


# criterion 8: determinism of output files
@pytest.mark.slow
def test_criterion_8_determinism(tmp_path):
    cfg = _load("synthetic_default.yaml", mode="lowlevel", seeds=[1, 2])
    run_experiment(copy.deepcopy(cfg), tmp_path / "a")
    run_experiment(copy.deepcopy(cfg), tmp_path / "b")
    for seed in (1, 2):
        fa = (tmp_path / "a" / f"incidents_seed{seed}.csv").read_bytes()
        fb = (tmp_path / "b" / f"incidents_seed{seed}.csv").read_bytes()
        assert fa == fb
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    # planner_mean_s is wall-clock measurement; everything else must match
    for rep in (ra, rb):
        rep["summary"].pop("planner_mean_s")
    assert ra == rb
    ok(8, "re-run with identical config and seeds: incident files "
          "byte-identical; reports identical apart from the wall-clock "
          "planner-timing field")


# criterion 9: simulator invariants on every criterion 5-7 trajectory
@pytest.mark.slow
def test_criterion_9_trajectory_invariants(stationary_runs, nonstationary_runs,
                                           failure_runs):
    total_events = 0
    for _reports, observer in (stationary_runs, nonstationary_runs,
                               failure_runs):
        assert observer.events > 0
        total_events += observer.events
    ok(9, f"no-teleportation, depot-capacity, and greedy-dominance checks "
          f"held at {total_events} event boundaries across criteria 5-7")
