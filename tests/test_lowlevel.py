import gc
import math

import numpy as np
import oracles
import pytest

from hierdispatch import (DemandModel, Incident, IncidentChain, MCTSParams,
                          SystemState, joint_action_count, mcts_search,
                          plan_region_allocations)
from hierdispatch import lowlevel
from hierdispatch.lowlevel import (RegionState, SearchNode, _play, _Tree,
                                   apply_allocation, decompose)
from hierdispatch.simulator import AgentStatus
from hierdispatch.units import MS_PER_HOUR, MS_PER_MINUTE

from conftest import build_world, fresh_state, joint_actions, waiting_agent


def incident(inc_id, cell, report_ms, service_ms=20 * MS_PER_MINUTE):
    return Incident(id=inc_id, cell=cell, report_time_ms=report_ms,
                    service_duration_ms=service_ms)


def region_state(world, depot_ids, clock_ms=0):
    state = fresh_state(world, depot_ids, clock_ms=clock_ms)
    return RegionState(region=0, state=state, depots=world.depots)


def chain(*incidents, horizon_ms=2 * MS_PER_HOUR):
    return IncidentChain(incidents=list(incidents), horizon_ms=horizon_ms)


def playout(rs, c, end_ms, alpha, world):
    """Default-policy cost of chain c from rs's clock to end_ms: greedy
    dispatch, no redistribution, discounted from the clock."""
    return _play(rs.state.clone(), c.incidents, 0, world, alpha,
                 rs.state.clock_ms, end_ms, False)[0]


class TestUCB:
    """The in-tree selection, _Tree._select, on a hand-built root."""

    def _select(self, line_world, uct_c, children, cost_lo=0.0, cost_hi=10.0):
        """The key _select picks among children, given as
        key -> (visits, total cost); every child has been visited."""
        tree = _Tree(region_state(line_world, [0]), chain(), line_world,
                     MCTSParams(uct_c=uct_c))
        tree.cost_lo, tree.cost_hi = cost_lo, cost_hi
        root = tree.root
        for key, (visits, cost) in children.items():
            child = SearchNode(state=None, chain_pos=0, cost_from_root=0.0)
            child.visits = visits
            child.utility_sum = -cost
            root.children[key] = child
            root.visits += visits
        picked = tree._select(root)
        return next(key for key, child in root.children.items() if child is picked)

    def test_c_zero_is_pure_exploitation(self, line_world):
        # mean costs 5 and 2: the cheaper child wins despite more visits
        assert self._select(line_world, 0.0,
                            {"a": (2, 10.0), "b": (5, 10.0)}) == "b"

    def test_equal_means_prefer_less_visited(self, line_world):
        assert self._select(line_world, 1.44,
                            {"a": (6, 18.0), "b": (2, 6.0)}) == "b"

    def test_flat_cost_bounds_ignore_means(self, line_world):
        # cost_hi == cost_lo: every exploit term is 0.5, so at c=0 all
        # children tie and the first one is kept, although "b" is cheaper
        assert self._select(line_world, 0.0, {"a": (2, 10.0), "b": (5, 5.0)},
                            cost_lo=3.0, cost_hi=3.0) == "a"


class TestEnumerateActions:
    """The root actions _joint_choices lists, as assignment tuples."""

    def test_count_matches_permutations(self, line_world):
        # 1 idle agent, 2 unit depots -> P(2,1) = 2 actions
        rs = region_state(line_world, [0])
        assert len(joint_actions(rs)) == joint_action_count(2, 1) == 2

    def test_city_scale_counts(self):
        assert joint_action_count(6, 4) == 360
        assert joint_action_count(30, 20) == math.perm(30, 20)

    def test_three_depots_two_agents(self):
        world = build_world(depot_xy=((0, 0), (4, 0), (9, 0)))
        rs = region_state(world, [0, 1])
        actions = joint_actions(rs)
        assert len(actions) == joint_action_count(3, 2) == 6
        assert ((0, 0), (1, 1)) in actions  # the current assignment

    def test_busy_agents_reserve_slots(self, line_world):
        rs = region_state(line_world, [0, 1])
        agent = rs.state.agents[1]
        inc = incident(0, cell=5, report_ms=0)
        rs.state.pending.append(inc)
        from hierdispatch.simulator import dispatch
        dispatch(rs.state, 1, inc, line_world)
        # agent 1 responding: only agent 0 is reallocatable, and depot 1
        # stays reserved for agent 1's return
        assert joint_actions(rs) == [((0, 0),)]

    def test_no_idle_yields_pass(self, line_world):
        rs = region_state(line_world, [0])
        rs.state.agents[0].failure_window = (0, 10)
        assert joint_actions(rs) == [()]  # the pass

    def test_capacity_two_allows_sharing(self):
        world = build_world(depot_xy=((0, 0), (9, 0)), capacity=2)
        rs = region_state(world, [0, 1])
        actions = joint_actions(rs)
        # 4 slots, 2 agents, slots are per depot: 2*2 choices minus nothing
        assert ((0, 0), (1, 0)) in actions  # both at depot 0
        assert len(actions) == 4

    def test_reserved_slot_beside_shared_depot(self):
        # busy agents 0 and 1 keep depot 0's two slots; depot 1's two
        # slots give the idle agents 2 and 3 one action, "both at 1"
        world = build_world(depot_xy=((0, 0), (9, 0)), capacity=2)
        rs = region_state(world, [0, 0, 1, 1])
        for agent in rs.state.agents[:2]:
            agent.status = AgentStatus.SERVICING
            agent.busy_until = 10 ** 9
        assert joint_actions(rs) == [((2, 1), (3, 1))]

    def test_city_scale_region_lists_only_cap(self):
        # P(30, 20) ~ 7e25 joint actions come out lazily, cap of them
        world = build_world(width=30, depot_xy=tuple((x, 0) for x in range(30)))
        actions = joint_actions(region_state(world, list(range(20))), cap=50)
        assert len(actions) == 50
        assert actions[0] == tuple((i, i) for i in range(20))
        assert actions[1] == tuple((i, i) for i in range(19)) + ((19, 20),)
        # one 20-slot depot: one tuple, not 20! orders of its slots
        world = build_world(depot_xy=((0, 0),), capacity=20)
        assert joint_actions(region_state(world, [0] * 20), cap=50) == \
            [tuple((i, 0) for i in range(20))]
        # two 20-slot depots: 2**20 tuples, from "all at depot 0" on
        world = build_world(depot_xy=((0, 0), (9, 0)), capacity=20)
        first = tuple((i, 0) for i in range(20))
        assert joint_actions(region_state(world, [0] * 20), cap=3) == [
            first, first[:19] + ((19, 1),), first[:18] + ((18, 1), (19, 0))]


class TestApplyAllocation:
    """apply_allocation on inputs no planner produces; the reference
    Hypothesis test covers the rest."""

    def test_agent_named_twice_frees_its_first_depot(self):
        world = build_world(depot_xy=((0, 0), (4, 0), (9, 0)))
        for assignment, depots in ((((0, 1), (0, 2), (1, 1)), [2, 1]),
                                   (((0, 1), (0, 1)), [1, 2])):
            state = fresh_state(world, [0, 2])
            ref = state.clone()
            apply_allocation(state, assignment, world)
            oracles.apply_allocation(ref, assignment, world)
            assert state == ref
            assert [a.depot for a in state.agents] == depots

    def test_unknown_agent_raises_after_freeing_every_known_one(self):
        world = build_world(depot_xy=((0, 0), (4, 0), (9, 0)))
        state = fresh_state(world, [0, 1])
        with pytest.raises(KeyError):
            apply_allocation(state, ((0, 2), (7, 0), (1, 0)), world)
        assert [a.depot for a in state.agents] == [2, -1]


class TestRollout:
    def test_empty_chain_zero(self, line_world):
        rs = region_state(line_world, [0])
        cost = playout(rs, chain(), 2 * MS_PER_HOUR, 0.99995, line_world)
        assert cost == 0.0

    def test_single_incident_five_miles(self, line_world):
        rs = region_state(line_world, [0])
        c = chain(incident(0, cell=5, report_ms=0))
        cost = playout(rs, c, 2 * MS_PER_HOUR, 0.99995, line_world)
        assert cost == pytest.approx(600.0)

    def test_discounted_contribution(self, line_world):
        rs = region_state(line_world, [0])
        c = chain(incident(0, cell=5, report_ms=3600_000),
                  horizon_ms=2 * MS_PER_HOUR)
        cost = playout(rs, c, 2 * MS_PER_HOUR, 0.99995, line_world)
        assert cost == pytest.approx(600.0 * 0.99995 ** 3600, rel=1e-9)

    def test_queued_incident_costed_when_agent_frees(self, line_world):
        # two incidents back to back against one agent: the second waits
        rs = region_state(line_world, [0])
        c = chain(incident(0, cell=0, report_ms=0, service_ms=600_000),
                  incident(1, cell=0, report_ms=60_000, service_ms=600_000))
        cost = playout(rs, c, 2 * MS_PER_HOUR, 1.0, line_world)
        # first: response 0; second: dispatched at 600000 when service ends,
        # queue delay 540 s, travel 0
        assert cost == pytest.approx(540.0)

    def test_horizon_truncates(self, line_world):
        rs = region_state(line_world, [0])
        c = chain(incident(0, cell=5, report_ms=MS_PER_HOUR))
        cost = playout(rs, c, MS_PER_HOUR // 2, 1.0, line_world)
        assert cost == 0.0


def bandit_world(b_cell=9):
    world = build_world(depot_xy=((0, 0), (b_cell, 0)))
    rs = region_state(world, [0])
    # one incident at depot A's cell, late enough for a B-bound agent to
    # have arrived: staying scores 0, moving scores the return trip
    c = chain(incident(0, cell=0, report_ms=20 * MS_PER_MINUTE))
    return world, rs, c


class TestMCTSSearch:
    def test_no_idle_agents_empty_map(self, line_world):
        rs = region_state(line_world, [0])
        rs.state.agents[0].status = AgentStatus.SERVICING
        rs.state.agents[0].busy_until = 10 ** 9
        res = mcts_search(rs, chain(incident(0, 1, 1000)), line_world,
                          MCTSParams(iterations=10))
        assert res.scores == {}

    def test_empty_chain_empty_map(self, line_world):
        rs = region_state(line_world, [0])
        res = mcts_search(rs, chain(), line_world, MCTSParams(iterations=10))
        assert res.scores == {}

    def test_stay_near_demand_scores_better(self, line_world):
        world, rs, c = bandit_world()
        params = MCTSParams(iterations=1000)
        res = mcts_search(rs, c, world, params)
        assert res.scores[((0, 0),)] < res.scores[((0, 1),)]  # stay, move
        # oracle: evaluate both root actions under the deterministic rollout
        for action, score in res.scores.items():
            s = rs.state.clone()
            apply_allocation(s, action, world)
            cost, _, _ = _play(s, c.incidents, 0, world, params.discount,
                               rs.state.clock_ms,
                               rs.state.clock_ms + params.horizon_ms, False)
            assert score == pytest.approx(cost)

    def test_two_armed_bandit_selection_rate(self):
        world, rs, c = bandit_world()
        res = mcts_search(rs, c, world, MCTSParams(iterations=200))
        visits = {a: n.visits for a, n in res.root.children.items()}
        # burn-in: one forced visit per arm; then >= 95% go to staying
        assert visits[((0, 0),)] - 1 >= 0.95 * (200 - 2)

    def test_visit_count_conservation(self):
        world = build_world(depot_xy=((0, 0), (4, 0), (9, 0)))
        rs = region_state(world, [0, 2])
        c = chain(incident(0, 2, 10 * MS_PER_MINUTE),
                  incident(1, 8, 40 * MS_PER_MINUTE),
                  incident(2, 1, 70 * MS_PER_MINUTE))
        res = mcts_search(rs, c, world, MCTSParams(iterations=500))
        assert res.root.visits == 500

        def check(node):
            child_total = sum(ch.visits for ch in node.children.values())
            assert node.visits >= child_total
            endpoints = node.visits - child_total
            total_endpoints = endpoints
            for ch in node.children.values():
                total_endpoints += check(ch)
            return total_endpoints

        assert check(res.root) == 500

    def test_root_expands_actions_in_enumeration_order(self):
        # 2 idle agents, 5 unit depots: 20 root actions
        world = build_world(depot_xy=tuple((x, 0) for x in (0, 2, 4, 6, 9)))
        rs = region_state(world, [0, 3])
        c = chain(incident(0, 5, 10 * MS_PER_MINUTE),
                  incident(1, 1, 50 * MS_PER_MINUTE))
        actions = joint_actions(rs)
        assert len(actions) == 20
        # 7 iterations list only the first 7, all of which they expand
        res = mcts_search(rs, c, world, MCTSParams(iterations=7))
        assert list(res.root.children) == actions[:7]
        assert not res.root.untried
        res = mcts_search(rs, c, world, MCTSParams(iterations=60))
        assert list(res.root.children) == actions
        assert not res.root.untried

    def test_deterministic(self):
        world, rs, c = bandit_world()
        a = mcts_search(rs, c, world, MCTSParams(iterations=300))
        b = mcts_search(rs, c, world, MCTSParams(iterations=300))
        assert a.scores == b.scores

    def test_selection_invariant_to_cost_scale(self):
        # same toy at two distances: arm costs {0, c} and {0, 5c}; the
        # normalized exploitation term makes the searches identical
        _, rs1, c1 = bandit_world(b_cell=1)
        world1 = build_world(depot_xy=((0, 0), (1, 0)))
        res1 = mcts_search(rs1, c1, world1, MCTSParams(iterations=200))
        world2, rs2, c2 = bandit_world(b_cell=5)
        res2 = mcts_search(rs2, c2, world2, MCTSParams(iterations=200))
        v1 = sorted(n.visits for n in res1.root.children.values())
        v2 = sorted(n.visits for n in res2.root.children.values())
        assert v1 == v2
        best1 = min(res1.scores, key=res1.scores.get)
        best2 = min(res2.scores, key=res2.scores.get)
        assert best1 == best2 == ((0, 0),)

    def test_finished_tree_leaves_no_garbage(self):
        # nodes link only to their children: dropping the result frees the
        # whole tree by reference counting, and the cyclic collector, run
        # with automatic collection off, finds nothing left
        world = build_world(depot_xy=((0, 0), (4, 0), (9, 0)))
        rs = region_state(world, [0, 2])
        c = chain(*(incident(i, (3 * i) % 10, (i + 1) * 10 * MS_PER_MINUTE)
                    for i in range(6)))

        def depth(node):
            return 1 + max(map(depth, node.children.values()), default=0)
        gc.collect()
        gc.disable()
        try:
            res = mcts_search(rs, c, world, MCTSParams(iterations=200))
            assert depth(res.root) >= 4
            del res
            assert gc.collect() == 0
        finally:
            gc.enable()


def expectimax_value(rs, incidents, world, params):
    """Exhaustive min over allocation actions at every incident epoch."""
    end_ms = rs.state.clock_ms + params.horizon_ms
    t0 = rs.state.clock_ms

    def value(state, pos):
        view = RegionState(rs.region, state, rs.depots)
        best = math.inf
        for action in joint_actions(view):
            s = state.clone()
            apply_allocation(s, action, world)
            cost, new_pos, done = _play(s, incidents, pos, world,
                                        params.discount, t0, end_ms, True)
            v = cost if done else cost + value(s, new_pos)
            best = min(best, v)
        return best

    def q_root(action):
        s = rs.state.clone()
        apply_allocation(s, action, world)
        cost, new_pos, done = _play(s, incidents, 0, world, params.discount,
                                    t0, end_ms, True)
        return cost if done else cost + value(s, new_pos)

    return {a: q_root(a) for a in joint_actions(rs)}


class TestExpectimaxAgreement:
    @pytest.mark.parametrize("cells_times", [
        ((1, 12), (8, 55), (8, 95)),
        ((8, 15), (1, 60), (2, 100)),
        ((4, 10), (0, 50), (9, 90)),
    ])
    def test_recommendation_matches_exhaustive(self, cells_times):
        world = build_world(depot_xy=((0, 0), (4, 0), (9, 0)))
        rs = region_state(world, [1])
        incidents = [incident(i, cell, t * MS_PER_MINUTE)
                     for i, (cell, t) in enumerate(cells_times)]
        params = MCTSParams(iterations=4000)
        res = mcts_search(rs, chain(*incidents), world, params)
        oracle = expectimax_value(rs, incidents, world, params)
        assert min(res.scores, key=res.scores.get) == \
               min(oracle, key=lambda a: (oracle[a], a))


class TestPlanRegionAllocations:
    def test_demand_magnet_recommended_across_seeds(self, line_world):
        # all demand sits on depot 0's cell at utilization 0.5: the idle
        # agent should be parked there whatever the sampling seed
        rates = np.zeros(10)
        rates[0] = 1.5
        model = DemandModel(rates=rates)
        params = MCTSParams(iterations=60)
        for seed in range(5):
            state = SystemState(clock_ms=0, pending=[],
                                agents=[waiting_agent(line_world, 0, 1)])
            plans = plan_region_allocations(state, line_world, model, params,
                                            n_samples=6, seed=seed)
            assert plans[0].action == ((0, 0),), seed

    def test_monte_carlo_oracle_agrees(self, line_world):
        # enumerate both actions and estimate expected cost over many
        # sampled chains: depot 0 must dominate
        rates = np.zeros(10)
        rates[0] = 1.5
        model = DemandModel(rates=rates)
        params = MCTSParams(iterations=60)
        totals = {0: 0.0, 1: 0.0}
        n = 10_000
        for i in range(n):
            c = __import__("hierdispatch").demand.sample_chain(
                model, params.horizon_ms, np.random.SeedSequence((123, i)))
            for depot in (0, 1):
                state = SystemState(clock_ms=0, pending=[],
                                    agents=[waiting_agent(line_world, 0, 1)])
                apply_allocation(state, ((0, depot),), line_world)
                rs = RegionState(0, state, line_world.depots)
                totals[depot] += playout(rs, c, params.horizon_ms, params.discount,
                                         line_world)
        assert totals[0] / n < totals[1] / n

    def test_zero_rates_keep_current(self, line_world):
        model = DemandModel(rates=np.zeros(10))
        state = fresh_state(line_world, [0])
        plans = plan_region_allocations(state, line_world, model,
                                        MCTSParams(iterations=20),
                                        n_samples=3, seed=0)
        assert plans[0].action is None

    def test_no_idle_agents_no_action(self, line_world):
        model = DemandModel(rates=np.full(10, 0.5))
        state = fresh_state(line_world, [0])
        state.agents[0].status = AgentStatus.SERVICING
        state.agents[0].busy_until = 10 ** 10
        plans = plan_region_allocations(state, line_world, model,
                                        MCTSParams(iterations=20),
                                        n_samples=2, seed=0)
        assert plans[0].action is None

    def test_single_sample_reduces_to_single_tree(self, line_world):
        rates = np.zeros(10)
        rates[0] = 3.0
        model = DemandModel(rates=rates)
        params = MCTSParams(iterations=50)
        state = fresh_state(line_world, [1])
        state.agents[0].id = 0
        plans = plan_region_allocations(state, line_world, model, params,
                                        n_samples=1, seed=3)
        for scores in plans[0].scores.values():
            assert len(scores) == 1

    def test_ties_go_to_less_travel_then_smaller_assignment(self, monkeypatch):
        # depots at cells 0, 4 and 8; the agent waits at depot 1 (cell 4),
        # so moving to depot 0 or 2 is 4 miles and staying is 0
        world = build_world(depot_xy=((0, 0), (4, 0), (8, 0)))
        to_0, stay, to_2 = (((0, d),) for d in range(3))
        model = DemandModel(rates=np.full(10, 0.5))

        def plan(scores):
            def fake_search(*_args, **_kwargs):
                return lowlevel.MCTSResult(scores=dict(scores), root=None,
                                           iterations=1)
            monkeypatch.setattr(lowlevel, "mcts_search", fake_search)
            state = fresh_state(world, [1])
            return plan_region_allocations(state, world, model,
                                           MCTSParams(iterations=1),
                                           n_samples=2, seed=0)[0].action

        # lowest mean wins whatever the travel
        assert plan({stay: 3.0, to_0: 2.0, to_2: 5.0}) == to_0
        # equal means: less travel wins over the smaller assignment
        assert plan({to_0: 3.0, stay: 3.0, to_2: 5.0}) == stay
        # equal means and travel: the smaller assignment wins
        assert plan({to_2: 3.0, to_0: 3.0, stay: 4.0}) == to_0

    def test_plan_mean_is_arithmetic(self, monkeypatch):
        # each tree's score is kept in RegionPlan.scores, and the plan picks
        # by their arithmetic mean: staying scores 1, 2, 6 (mean 3, median
        # 2, min 1) and moving 3.5, 3.5, 1.5 (mean 2.83, median 3.5, min 1.5)
        world = build_world(depot_xy=((0, 0), (4, 0), (8, 0)))
        stay, move = ((0, 1),), ((0, 2),)
        per_tree = iter([{stay: 1.0, move: 3.5}, {stay: 2.0, move: 3.5},
                         {stay: 6.0, move: 1.5}])
        monkeypatch.setattr(lowlevel, "mcts_search", lambda *_a, **_k:
                            lowlevel.MCTSResult(next(per_tree), None, 1))
        [plan] = plan_region_allocations(fresh_state(world, [1]), world,
                                         DemandModel(rates=np.full(10, 0.5)),
                                         MCTSParams(iterations=1), n_samples=3,
                                         seed=0).values()
        assert plan.scores == {stay: [1.0, 2.0, 6.0], move: [3.5, 3.5, 1.5]}
        assert plan.action == move

    def test_capped_root_feasible_and_deterministic(self):
        # 2 agents, 3 depots: 6 joint actions, of which 4 iterations list 4
        world = build_world(depot_xy=((0, 0), (4, 0), (9, 0)))
        rates = np.zeros(10)
        rates[2] = 3.0
        model = DemandModel(rates=rates)
        params = MCTSParams(iterations=4)

        def plan_once():
            state = fresh_state(world, [0, 1])
            return plan_region_allocations(state, world, model, params,
                                           n_samples=3, seed=1)

        plans = plan_once()
        action = plans[0].action
        assert action in joint_actions(region_state(world, [0, 1]))[:4]
        assert sorted(a for a, _d in action) == [0, 1]
        depots = [d for _a, d in action]
        assert len(set(depots)) == 2  # capacity respected
        again = plan_once()
        assert again[0].action == action


class TestDecompose:
    def test_projection_filters_by_region(self):
        world = build_world(width=10, depot_xy=((0, 0), (9, 0)), k=2,
                            weights=np.concatenate([np.full(5, 2.0),
                                                    np.full(5, 2.0)]))
        state = fresh_state(world, [0, 1])
        left_region = world.region_of_cell(0)
        right_region = world.region_of_cell(9)
        state.pending.append(incident(0, cell=0, report_ms=0))
        state.pending.append(incident(1, cell=9, report_ms=1))
        rs = decompose(state, left_region, world)
        assert [a.region for a in rs.state.agents] == [left_region]
        assert [i.cell for i in rs.state.pending] == [0]
        assert {d.id for d in rs.depots} == set(
            world.partition.region_depots[left_region])
        rs2 = decompose(state, right_region, world)
        assert [i.cell for i in rs2.state.pending] == [9]
