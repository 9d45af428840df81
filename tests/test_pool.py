"""The tree pool: a decision's search trees run on the caller and forked
helper processes, and the plan is the one the caller alone would make.

Helpers claim trees from a shared counter, so which process runs which
tree changes from run to run; every test here asserts what must not
depend on it.
"""

import copy
import multiprocessing
import os
import pickle
import signal
import threading
import time
from contextlib import contextmanager

import numpy as np
import oracles
import pytest
from hypothesis import given, settings

from hierdispatch import (Coordinator, DemandModel, IncidentChain, MCTSParams,
                          PlannerConfig, PolicyMode, load_config, run_experiment)
from hierdispatch import coordinator, lowlevel
from hierdispatch.lowlevel import TreePool, helper_count, plan_region_allocations

from conftest import build_world, fresh_state, joint_actions
from test_plan_reference import incident, reference, tiny_plans

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
HOUR_MS = 3_600_000
BOUND_S = 60


@contextmanager
def deadline(seconds):
    """Fail, instead of hanging, when the block outlasts seconds."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@contextmanager
def pool_for(world, model, helpers=1):
    pool = TreePool(world, model, helpers)
    try:
        yield pool
    finally:
        pool.close()


@settings(max_examples=50, deadline=None)
@given(case=tiny_plans())
def test_pool_plan_equals_in_process_plan(case):
    state, world, model, params, n_samples, seed = case
    alone = plan_region_allocations(state, TreePool(world, model, 0), params, n_samples, seed)
    with pool_for(world, model) as pool:
        pooled = plan_region_allocations(state, pool, params, n_samples, seed)
    assert {r: p.action for r, p in pooled.items()} == \
        {r: p.action for r, p in alone.items()}
    assert {r: p.scores for r, p in pooled.items()} == \
        {r: p.scores for r, p in alone.items()}


def test_plans_of_two_models_on_one_world_equal_reference():
    # a pool keeps each region's restricted model for its whole life; a
    # second model on the same world must get its own, not the first's
    world = build_world(depot_xy=((0, 0), (3, 0), (6, 0), (9, 0)), k=2)
    state = fresh_state(world, [0, 1, 3])
    params = MCTSParams(iterations=8)
    left = np.array([3.0] * 5 + [0.0] * 5)
    for model in (DemandModel(rates=left), DemandModel(rates=left[::-1])):
        expected = reference(oracles.plan_region_allocations, state, world,
                             model, params, 3, 5)
        alone = plan_region_allocations(state, TreePool(world, model, 0), params, 3, 5)
        with pool_for(world, model) as pool:
            pooled = plan_region_allocations(state, pool, params, 3, 5)
        for plans in (alone, pooled):
            assert {r: p.action for r, p in plans.items()} == \
                {r: p.action for r, p in expected.items()}
        assert {r: p.scores for r, p in pooled.items()} == \
            {r: p.scores for r, p in alone.items()}


def test_lone_action_region_decided_by_pool_tasks(monkeypatch):
    # one idle agent and one depot: its one action comes from the region's
    # n_samples tasks in the pool, as any region's scores do
    world = build_world(depot_xy=((0, 0),))
    state = fresh_state(world, [0], clock_ms=HOUR_MS)
    model = DemandModel(rates=np.full(10, 0.5))
    received = []
    run = TreePool.run

    def spied(self, tasks, *args):
        received.append([(rs.region, i, lone) for rs, i, lone in tasks])
        return run(self, tasks, *args)
    monkeypatch.setattr(TreePool, "run", spied)
    plans = []
    for helpers in (0, 1):
        with pool_for(world, model, helpers) as pool:
            plans.append(plan_region_allocations(state, pool,
                                                 MCTSParams(iterations=8), 4, 0)[0])
    stay = ((0, 0),)
    assert received == [[(0, i, stay) for i in range(4)]] * 2
    assert plans[0].action == plans[1].action == stay
    assert plans[0].scores == plans[1].scores
    assert set(plans[0].scores) == {stay}


@pytest.mark.parametrize("depots, homes", [(((0, 0), (4, 0), (9, 0)), [0, 1]),
                                           (((0, 0),), [0])])
def test_reply_pickles_only_builtins(depots, homes):
    # a helper's reply crosses a pipe pickled; a searched region's scores
    # and a lone-action region's name no class of the package. The plan's
    # action and score keys, and a tree's score keys, are assignment tuples
    # of (int, int) pairs, so no wrapper type comes back on either path
    world = build_world(depot_xy=depots)
    model = DemandModel(rates=np.full(10, 2.0))
    state = fresh_state(world, homes)
    rs = lowlevel.decompose(state, 0, world)
    params = MCTSParams(iterations=8)
    [lone] = joint_actions(rs.state, rs.slots, 2) if len(depots) == 1 else [None]
    scores = TreePool(world, model, 0)._search(rs, 0, lone, 0, params)
    assert scores
    assert set(scores) <= set(joint_actions(rs.state, rs.slots))
    assert b"hierdispatch" not in pickle.dumps(scores)
    plan = plan_region_allocations(state, TreePool(world, model, 0), params, 2, 0)[0]
    chain = IncidentChain([incident(0, 5, 60_000)], params.horizon_ms)
    tree_scores = lowlevel.mcts_search(rs, chain, world, params).scores
    assert plan.scores and tree_scores
    for assignment in (plan.action, *plan.scores, *tree_scores):
        assert type(assignment) is tuple
        assert all(type(pair) is tuple and [type(x) for x in pair] == [int, int]
                   for pair in assignment), assignment


@pytest.fixture
def starts(monkeypatch):
    """The number of helpers of each pool that forked any."""
    calls = []
    init = TreePool.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self._workers:
            calls.append(len(self._workers))
    monkeypatch.setattr(TreePool, "__init__", counted)
    return calls


def test_failed_fork_stops_the_helpers_already_forked(monkeypatch):
    forked = []
    start = multiprocessing.get_context("fork").Process.start

    def second_fails(self):
        if forked:
            raise OSError("fork failed")
        forked.append(self)
        start(self)
    monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start",
                        second_fails)
    with deadline(BOUND_S), pytest.raises(OSError, match="fork failed"):
        TreePool(build_world(), DemandModel(rates=np.ones(10)), 2)
    assert len(forked) == 1 and forked[0].exitcode is not None
    assert multiprocessing.active_children() == []


def files_with_and_without_a_helper(tmp_path, monkeypatch, cfg):
    """The incident files and trajectory logs of cfg's seeds, run with no
    helper and with one helper, by helper count."""
    outputs = {}
    for helpers in (0, 1):
        monkeypatch.setattr(coordinator, "helper_count", lambda _n, h=helpers: h)
        run_experiment(copy.deepcopy(cfg), tmp_path / str(helpers), trace=True)
        outputs[helpers] = {name: (tmp_path / str(helpers) / name).read_bytes()
                            for seed in cfg.seeds for name in (
                                f"incidents_seed{seed}.csv", f"trajectory_seed{seed}.log")}
    return outputs


def test_incident_files_identical_with_and_without_a_helper(tmp_path, monkeypatch,
                                                            starts):
    cfg = load_config(os.path.join(CONFIG_DIR, "synthetic_nonstationary.yaml"))
    cfg.seeds, cfg.horizon_hours = [1, 2], 8.0
    cfg.validate()
    outputs = files_with_and_without_a_helper(tmp_path, monkeypatch, cfg)
    assert starts == [1, 1]  # one fork per seed's run, none without helpers
    assert outputs[1] == outputs[0]


def test_metro_files_identical_with_and_without_a_helper(tmp_path, monkeypatch,
                                                         starts):
    # the golden capped-root run of test_harness.py: roots of P(14, 6)
    # joint actions, of which 128 iterations list 128
    cfg = load_config(os.path.join(CONFIG_DIR, "metro30_preset.yaml"))
    cfg.seeds, cfg.horizon_hours = [1], 4.0
    cfg.mcts_iterations, cfg.n_samples = 128, 2
    cfg.validate()
    outputs = files_with_and_without_a_helper(tmp_path, monkeypatch, cfg)
    assert starts == [1]
    assert outputs[1] == outputs[0]


def busy_region():
    """One region, three depots, two idle agents, incidents in every
    chain: a decision with n_samples trees."""
    world = build_world(depot_xy=((0, 0), (4, 0), (9, 0)))
    return world, fresh_state(world, [0, 2]), DemandModel(rates=np.full(10, 2.0))


def search_in_helpers(monkeypatch, in_helper):
    """mcts_search that calls in_helper() in helper processes and is slow
    in the caller, so that the helper surely takes a tree."""
    caller = os.getpid()
    search = lowlevel.mcts_search

    def patched(*args, **kwargs):
        if os.getpid() != caller:
            in_helper()
        else:
            time.sleep(0.2)
        return search(*args, **kwargs)
    monkeypatch.setattr(lowlevel, "mcts_search", patched)


class Boom(Exception):
    pass


def test_tree_error_in_helper_raised_in_caller(monkeypatch):
    world, state, model = busy_region()

    def fail():
        raise Boom("tree failed")
    search_in_helpers(monkeypatch, fail)
    with deadline(BOUND_S), pool_for(world, model) as pool:
        with pytest.raises(Boom, match="tree failed") as info:
            plan_region_allocations(state, pool, MCTSParams(iterations=4),
                                    n_samples=4, seed=0)
        assert "in fail" in str(info.value.__cause__)  # the helper's traceback
        assert multiprocessing.active_children() == []


class TwoArgs(Exception):
    def __init__(self, what, code):
        super().__init__(f"{what} ({code})")


def test_error_that_cannot_be_unpickled_still_raised(monkeypatch):
    world, state, model = busy_region()

    def fail():
        raise TwoArgs("tree failed", 7)
    search_in_helpers(monkeypatch, fail)
    with deadline(BOUND_S), pool_for(world, model) as pool:
        with pytest.raises(RuntimeError, match=r"TwoArgs: tree failed \(7\)"):
            plan_region_allocations(state, pool, MCTSParams(iterations=4),
                                    n_samples=4, seed=0)


def test_killed_helper_raises_in_caller(monkeypatch):
    world, state, model = busy_region()
    search_in_helpers(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with deadline(BOUND_S), pool_for(world, model) as pool:
        with pytest.raises(RuntimeError, match=f"exit code -{signal.SIGKILL}"):
            plan_region_allocations(state, pool, MCTSParams(iterations=4),
                                    n_samples=4, seed=0)
        assert multiprocessing.active_children() == []


def test_pool_reused_across_decisions(starts):
    world, state, model = busy_region()
    with pool_for(world, model) as pool:
        for seed in range(3):
            alone = plan_region_allocations(state, TreePool(world, model, 0),
                                            MCTSParams(iterations=8), 3, seed)
            pooled = plan_region_allocations(state, pool, MCTSParams(iterations=8), 3, seed)
            assert pooled[0].scores == alone[0].scores
    assert starts == [1]


def test_no_fork_while_another_thread_runs(starts):
    world, state, model = busy_region()
    alone = plan_region_allocations(state, TreePool(world, model, 0),
                                    MCTSParams(iterations=8), 3, 0)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(BOUND_S,))
    thread.start()
    try:
        with pool_for(world, model) as pool:
            pooled = plan_region_allocations(state, pool, MCTSParams(iterations=8), 3, 0)
    finally:
        release.set()
        thread.join(BOUND_S)
    assert starts == []
    assert pooled[0].scores == alone[0].scores


def test_helper_count_bounded_by_cores_and_trees(monkeypatch):
    monkeypatch.setattr(lowlevel.os, "sched_getaffinity", lambda _pid: {0, 1, 2, 3})
    assert [helper_count(n) for n in (1, 2, 3, 4, 50)] == [0, 1, 2, 3, 3]
    monkeypatch.setattr(lowlevel.os, "sched_getaffinity", lambda _pid: {0})
    assert helper_count(50) == 0
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(lowlevel.os, "sched_getaffinity", lambda _pid: {0, 1})
    assert helper_count(50) == 0


def planned_run(mode, n_samples=3):
    world, state, model = busy_region()
    coord = Coordinator(world, model, mode,
                        planner=PlannerConfig(mcts=MCTSParams(iterations=8),
                                              n_samples=n_samples))
    chain = IncidentChain([incident(i, 3 + i % 4, (i + 1) * 20 * 60_000)
                           for i in range(6)], 4 * HOUR_MS)
    return coord, state, chain


class TestCoordinatorOwnsPool:
    @pytest.fixture(autouse=True)
    def four_cores(self, monkeypatch):
        monkeypatch.setattr(lowlevel.os, "sched_getaffinity", lambda _pid: {0, 1, 2, 3})

    def test_no_helper_outlives_a_run(self, starts):
        coord, state, chain = planned_run(PolicyMode.LOW_LEVEL_ONLY)
        seen = []
        coord.run(state, chain, 4 * HOUR_MS,
                  observer=lambda *_: seen.append(len(multiprocessing.active_children())))
        assert starts == [2]  # min(4 cores, 3 trees x 1 region) - 1
        assert max(seen) == 2
        assert multiprocessing.active_children() == []
        assert coord._pool is None

    def test_no_helper_outlives_a_failed_run(self, monkeypatch, starts):
        coord, state, chain = planned_run(PolicyMode.HIERARCHICAL)
        search = lowlevel.mcts_search
        calls = []

        def fail_later(*args, **kwargs):
            calls.append(1)
            if len(calls) > 3:
                raise Boom("late")
            return search(*args, **kwargs)
        monkeypatch.setattr(lowlevel, "mcts_search", fail_later)
        with deadline(BOUND_S), pytest.raises(Boom):
            coord.run(state, chain, 4 * HOUR_MS)
        assert starts
        assert multiprocessing.active_children() == []

    def test_baseline_starts_no_helper(self, starts):
        coord, state, chain = planned_run(PolicyMode.BASELINE_STATIC)
        coord.run(state, chain, 4 * HOUR_MS)
        assert starts == []

    def test_one_tree_per_decision_starts_no_helper(self, starts):
        coord, state, chain = planned_run(PolicyMode.LOW_LEVEL_ONLY, n_samples=1)
        coord.run(state, chain, 4 * HOUR_MS)
        assert starts == []
