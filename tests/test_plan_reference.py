"""The planner against its always-search reference.

plan_region_allocations shares one root action set among a region's
trees, decides single-action regions without a search, scores each
terminal leaf once, and lists only the first max(2, iterations) joint
actions of a node. oracles.py keeps the loop that searches every region,
the _evaluate that replays every leaf and a _joint_choices that lists
every action; on random tiny worlds every region's action and every
tree's scores must be equal with ==.
"""

import dataclasses

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierdispatch import (Agent, AgentStatus, DemandModel, Depot, Incident,
                          IncidentChain, MCTSParams, ServiceLaw, SpikeWindow,
                          SystemState, TravelModel, World, make_grid,
                          partition_regions, plan_region_allocations)
from hierdispatch import lowlevel
from hierdispatch.lowlevel import _joint_choices, _Tree, decompose, mcts_search

from conftest import build_world, fresh_state

HOUR_MS = 3_600_000


def incident(inc_id, cell, report_ms, service_ms=20 * 60_000):
    return Incident(id=inc_id, cell=cell, report_time_ms=report_ms,
                    service_duration_ms=service_ms)


@st.composite
def tiny_plans(draw):
    """(state, world, model, params, n_samples, seed) for one decision.

    Besides random worlds, three shapes force a single feasible action:
    one idle agent whose slot is the only free one, two idle agents at
    one 2-slot depot, and two idle agents at one 1-slot depot (the pass ()).
    """
    # random worlds half of the time: they have the most to cover
    shape = draw(st.sampled_from(["random"] * 3
                                 + ["one_free_slot", "shared_depot", "pass"]))
    cells = make_grid(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    n_cells = len(cells)
    cell = st.integers(0, n_cells - 1)
    if shape in ("shared_depot", "pass"):
        depots = [Depot(id=0, cell=draw(cell),
                        capacity=2 if shape == "shared_depot" else 1)]
    else:
        depot_cells = draw(st.lists(cell, min_size=1, max_size=min(4, n_cells),
                                    unique=True))
        depots = [Depot(id=i, cell=c,
                        capacity=draw(st.integers(1, 2)) if shape == "random" else 1)
                  for i, c in enumerate(depot_cells)]
    k = draw(st.integers(1, min(2, len(depots))))
    world = World(cells=cells, depots=depots,
                  travel=TravelModel(draw(st.sampled_from([17.0, 30.0]))),
                  partition=partition_regions(cells, np.ones(n_cells), depots, k, 0))
    slots = [d.id for d in depots for _ in range(d.capacity)]
    if shape == "random":
        homes = draw(st.permutations(slots))[:draw(st.integers(1, min(4, len(slots))))]
        kinds = [draw(st.sampled_from(["idle", "idle", "busy", "failed"])) for _ in homes]
    elif shape == "one_free_slot":  # every other slot is held by a busy agent
        homes = draw(st.permutations(slots))
        kinds = ["idle"] + [draw(st.sampled_from(["busy", "failed"])) for _ in homes[1:]]
    else:
        homes, kinds = [0, 0], ["idle", "idle"]
    clock = draw(st.integers(0, HOUR_MS))
    agents = []
    for i, (depot_id, kind) in enumerate(zip(homes, kinds)):
        pos = world.depot_pos(depot_id)
        agent = Agent(id=i, position=pos, destination=pos,
                      status=AgentStatus.WAITING,
                      region=world.region_of_cell(world.depot(depot_id).cell),
                      depot=depot_id)
        if kind == "busy":
            agent.status = AgentStatus.SERVICING
            agent.incident = incident(100 + i, world.depot(depot_id).cell, clock)
            agent.busy_until = clock + draw(st.integers(1, HOUR_MS))
        elif kind == "failed":
            agent.failure_window = (clock, clock + draw(st.integers(1, HOUR_MS)))
        elif draw(st.booleans()):  # idle now, failing during the search
            start = clock + draw(st.integers(1, HOUR_MS))
            agent.failure_window = (start, start + draw(st.integers(1, HOUR_MS)))
        agents.append(agent)
    pending = [incident(200 + j, draw(cell), clock - draw(st.integers(0, 60_000)))
               for j in range(draw(st.integers(0, 2)))]
    rates = np.array([draw(st.sampled_from([0.0, 0.0, 0.3, 1.0, 3.0]))
                      for _ in range(n_cells)])
    spikes = []
    if draw(st.booleans()):
        start = clock + draw(st.integers(-HOUR_MS, HOUR_MS))
        spikes.append(SpikeWindow(
            cells=frozenset(draw(st.lists(cell, min_size=1, unique=True))),
            start_ms=start, end_ms=start + draw(st.integers(1, 2 * HOUR_MS)),
            multiplier=draw(st.sampled_from([1.0, 2.5, 6.0]))))
    model = DemandModel(rates=rates, spikes=spikes,
                        service=ServiceLaw(draw(st.sampled_from(["fixed", "exponential"]))))
    # iterations below and above the root's joint count (1 to 1,680 here)
    params = MCTSParams(iterations=draw(st.sampled_from([1, 2, 3, 5, 8, 40])),
                        discount=draw(st.sampled_from([0.99995, 0.999])),
                        horizon_ms=draw(st.sampled_from([HOUR_MS // 2, HOUR_MS, 2 * HOUR_MS])))
    return (SystemState(clock, pending, agents), world, model, params,
            draw(st.integers(1, 4)), draw(st.integers(0, 1000)))


def reference(fn, *args):
    """fn run with the old _Tree._evaluate, which replays every leaf, and
    with every joint action listed at every node."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Tree, "_evaluate", oracles.tree_evaluate)
        mp.setattr(lowlevel, "_joint_choices", oracles.joint_choices)
        return fn(*args)


def region_chains(state, world, model, params, seed):
    """(region state, chain) for each region with idle agents."""
    for region in world.partition.regions():
        rs = decompose(state, region, world)
        if rs.state.idle_agents():
            yield rs, lowlevel.sample_chain(
                model.restrict(world.partition.cells_of(region)),
                params.horizon_ms, seed, start_ms=state.clock_ms)


@settings(max_examples=300, deadline=None)
@given(case=tiny_plans())
def test_plans_and_scores_equal_reference(case):
    state, world, model, params, n_samples, seed = case
    plans = plan_region_allocations(state, world, model, params, n_samples, seed)
    expected = reference(oracles.plan_region_allocations, state, world, model,
                         params, n_samples, seed)
    assert {r: p.action for r, p in plans.items()} == \
        {r: p.action for r, p in expected.items()}
    for rs, chain in region_chains(state, world, model, params, seed):
        want = reference(mcts_search, rs, chain, world, params).scores
        assert mcts_search(rs, chain, world, params).scores == want
        # the planner's path: one root action set shared by the region's trees
        choices = _joint_choices(rs, max(2, params.iterations))
        for _tree in range(2):
            got = mcts_search(rs, chain, world, params, root_choices=choices)
            assert got.scores == want


@settings(max_examples=200, deadline=None)
@given(case=tiny_plans())
def test_capped_scores_equal_full_list_scores(case):
    # a node lists max(2, iterations) joint actions: no fewer than the tree
    # can expand, so the scores are those of a search over every action;
    # iterations run from 1 to one past the root's joint count (up to 64)
    state, world, model, params, _n_samples, seed = case
    for rs, chain in region_chains(state, world, model, params, seed):
        count = len(oracles.enumerate_actions(rs))
        for iterations in {1, 2, count - 1, count, count + 1} & set(range(1, 65)):
            params = dataclasses.replace(params, iterations=iterations)
            capped = mcts_search(rs, chain, world, params)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lowlevel, "_joint_choices", oracles.joint_choices)
                full = mcts_search(rs, chain, world, params)
            assert capped.scores == full.scores


def single_action_region():
    """One region, one depot, one idle agent: the only action is to stay."""
    world = build_world(depot_xy=((0, 0),))
    return world, fresh_state(world, [0], clock_ms=HOUR_MS)


class TestSingleActionRegion:
    def _plan(self, monkeypatch, chains, params=MCTSParams(iterations=8),
              n_samples=4):
        world, state = single_action_region()
        sampled, searched = [], []

        def fake_sample(_model, _horizon, seed_seq, **_kwargs):
            _region, i = seed_seq.spawn_key
            sampled.append(i)
            return chains[i]

        def counted_search(*args, **kwargs):
            searched.append(1)
            return mcts_search(*args, **kwargs)
        monkeypatch.setattr(lowlevel, "sample_chain", fake_sample)
        monkeypatch.setattr(lowlevel, "mcts_search", counted_search)
        model = DemandModel(rates=np.full(10, 0.5))
        action = plan_region_allocations(state, world, model, params,
                                         n_samples=n_samples, seed=0)[0].action
        return action, sorted(sampled), len(searched)

    def test_every_chain_sampled_once_without_a_tree(self, monkeypatch):
        # the one action is decided by each chain's task: no early stop
        # at the first chain with an incident, and no tree is searched
        horizon = MCTSParams().horizon_ms
        empty = IncidentChain([], horizon)
        late = IncidentChain([incident(0, 3, HOUR_MS + horizon + 5)], horizon)
        inside = IncidentChain([incident(0, 3, HOUR_MS + 10)], horizon)
        action, sampled, searched = self._plan(
            monkeypatch, [empty, late, inside, inside])
        assert action == ((0, 0),)
        assert (sampled, searched) == ([0, 1, 2, 3], 0)

    def test_window_end_is_outside(self, monkeypatch):
        # the 1 ms collision push can land an incident exactly on
        # clock + horizon; the tree's window leaves it out, and so does
        # the skip
        world, state = single_action_region()
        horizon = MCTSParams().horizon_ms
        edge = IncidentChain([incident(0, 3, HOUR_MS + horizon)], horizon)
        rs = decompose(state, 0, world)
        assert _Tree(rs, edge, world, MCTSParams()).root.terminal
        action, sampled, searched = self._plan(monkeypatch, [edge] * 4)
        assert action is None
        assert (sampled, searched) == ([0, 1, 2, 3], 0)

    def test_zero_iterations_still_raise(self, monkeypatch):
        inside = IncidentChain([incident(0, 3, HOUR_MS + 10)], 2 * HOUR_MS)
        with pytest.raises(ValueError, match="iterations"):
            self._plan(monkeypatch, [inside] * 4, params=MCTSParams(iterations=0))
        with pytest.raises(ValueError, match="n_samples"):
            self._plan(monkeypatch, [inside] * 4, n_samples=0)


def search_nodes(node):
    yield node
    for child in node.children.values():
        yield from search_nodes(child)


def test_lone_action_kept_when_a_deeper_node_is_capped(monkeypatch):
    # the idle agent's slot is the only free one, but both busy agents are
    # free after 1 ms: the next epoch has 6 joint actions, and 2 iterations
    # list 2 of them; the root still lists its one joint action, which is
    # the answer, so the planner needs no tree
    world = build_world(depot_xy=((0, 0), (4, 0), (9, 0)))
    state = fresh_state(world, [0, 1, 2])
    for agent in state.agents[1:]:
        agent.status = AgentStatus.SERVICING
        agent.incident = incident(9, world.depot(agent.depot).cell, 0)
        agent.busy_until = 1
    model = DemandModel(rates=np.full(10, 2.0))
    params = MCTSParams(iterations=2)
    stay = ((0, 0),)

    rs = decompose(state, 0, world)
    chain = IncidentChain([incident(0, 3, 10), incident(1, 7, HOUR_MS)],
                          params.horizon_ms)
    result = mcts_search(rs, chain, world, params)
    [child] = result.root.children.values()
    assert len(child.children) + len(child.untried) == 2
    assert list(result.scores) == [stay]

    searched = []
    search = lowlevel.mcts_search
    monkeypatch.setattr(lowlevel, "mcts_search",
                        lambda *a, **k: searched.append(1) or search(*a, **k))
    for iterations in (1, 2):
        params = MCTSParams(iterations=iterations)
        action = plan_region_allocations(state, world, model, params, 2, 0)[0].action
        assert searched == []
        assert action == stay
        assert action == reference(oracles.plan_region_allocations, state, world,
                                   model, params, 2, 0)[0].action
    # one idle agent and three free depots: one iteration still lists two
    # actions, so the region is searched, each tree scoring the first
    alone, params = fresh_state(world, [0]), MCTSParams(iterations=1)
    plan = plan_region_allocations(alone, world, model, params, 2, 0)[0]
    assert len(searched) == 2
    assert plan.scores == reference(oracles.plan_region_allocations, alone, world,
                                    model, params, 2, 0)[0].scores


def terminal_nodes(node):
    return [n for n in search_nodes(node) if n.terminal]


def test_terminal_leaf_is_played_once(monkeypatch, line_world):
    # one agent, two incidents 1 s apart: after the second arrives the
    # chain is exhausted with the second incident still queued
    chain = IncidentChain([incident(0, 5, 1000), incident(1, 6, 2000)], 2 * HOUR_MS)
    tree = _Tree(lowlevel.RegionState(0, fresh_state(line_world, [0]),
                                      line_world.depots),
                 chain, line_world, MCTSParams(iterations=30))
    tree.run(30)
    leaves = terminal_nodes(tree.root)
    assert any(leaf.state.pending for leaf in leaves)
    plays, clones = [], []
    play, clone = lowlevel._play, SystemState.clone
    monkeypatch.setattr(lowlevel, "_play",
                        lambda *a, **k: plays.append(1) or play(*a, **k))
    monkeypatch.setattr(SystemState, "clone",
                        lambda self: clones.append(1) or clone(self))
    for leaf in leaves:
        leaf.tail = None
        del plays[:], clones[:]
        totals = {tree._evaluate(leaf) for _ in range(3)}
        calls = 1 if leaf.state.pending else 0
        assert (len(plays), len(clones)) == (calls, calls)
        assert totals == {oracles.tree_evaluate(tree, leaf)}
