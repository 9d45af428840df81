import math

import numpy as np
import pytest

from hierdispatch import (AllocationAction, DemandModel, Incident,
                          IncidentChain, MCTSParams, SystemState,
                          enumerate_actions, joint_action_count, mcts_search,
                          plan_region_allocations, rollout)
from hierdispatch.lowlevel import (PASS, RegionState, SearchNode, _play, _Tree,
                                   apply_allocation, decompose)
from hierdispatch.simulator import AgentStatus
from hierdispatch.units import MS_PER_HOUR, MS_PER_MINUTE

from conftest import build_world, fresh_state, waiting_agent


def incident(inc_id, cell, report_ms, service_ms=20 * MS_PER_MINUTE):
    return Incident(id=inc_id, cell=cell, report_time_ms=report_ms,
                    service_duration_ms=service_ms)


def region_state(world, depot_ids, clock_ms=0):
    state = fresh_state(world, depot_ids, clock_ms=clock_ms)
    return RegionState(region=0, state=state, depots=world.depots)


def chain(*incidents, horizon_ms=2 * MS_PER_HOUR):
    return IncidentChain(incidents=list(incidents), horizon_ms=horizon_ms)


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
            child = SearchNode(state=None, chain_pos=0, cost_from_root=0.0,
                               parent=root, inbound=key)
            child.visits = visits
            child.utility_sum = -cost
            root.children[key] = child
            root.visits += visits
        return tree._select(root).inbound

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
    def test_count_matches_permutations(self, line_world):
        # 1 idle agent, 2 unit depots -> P(2,1) = 2 actions
        rs = region_state(line_world, [0])
        assert len(enumerate_actions(rs)) == joint_action_count(2, 1) == 2

    def test_city_scale_counts(self):
        assert joint_action_count(6, 4) == 360
        assert joint_action_count(30, 20) == math.perm(30, 20)

    def test_three_depots_two_agents(self):
        world = build_world(depot_xy=((0, 0), (4, 0), (9, 0)))
        rs = region_state(world, [0, 1])
        actions = enumerate_actions(rs)
        assert len(actions) == joint_action_count(3, 2) == 6
        current = AllocationAction(((0, 0), (1, 1)))
        assert current in actions

    def test_busy_agents_reserve_slots(self, line_world):
        rs = region_state(line_world, [0, 1])
        agent = rs.state.agents[1]
        inc = incident(0, cell=5, report_ms=0)
        rs.state.pending.append(inc)
        from hierdispatch.simulator import dispatch
        dispatch(rs.state, 1, inc, line_world)
        # agent 1 responding: only agent 0 is reallocatable, and depot 1
        # stays reserved for agent 1's return
        actions = enumerate_actions(rs)
        assert actions == [AllocationAction(((0, 0),))]

    def test_no_idle_yields_pass(self, line_world):
        rs = region_state(line_world, [0])
        rs.state.agents[0].failure_window = (0, 10)
        assert enumerate_actions(rs) == [PASS]

    def test_capacity_two_allows_sharing(self):
        world = build_world(depot_xy=((0, 0), (9, 0)), capacity=2)
        rs = region_state(world, [0, 1])
        actions = enumerate_actions(rs)
        # 4 slots, 2 agents, slots are per depot: 2*2 choices minus nothing
        both_at_0 = AllocationAction(((0, 0), (1, 0)))
        assert both_at_0 in actions
        assert len(actions) == 4

    def test_over_limit_returns_none(self):
        world = build_world(depot_xy=tuple((x, 0) for x in range(8)), width=10)
        rs = region_state(world, list(range(6)))
        assert enumerate_actions(rs, max_joint=100) is None


class TestRollout:
    def test_empty_chain_zero(self, line_world):
        rs = region_state(line_world, [0])
        cost = rollout(rs, chain(), 2 * MS_PER_HOUR, 0.99995, line_world)
        assert cost == 0.0

    def test_single_incident_five_miles(self, line_world):
        rs = region_state(line_world, [0])
        c = chain(incident(0, cell=5, report_ms=0))
        cost = rollout(rs, c, 2 * MS_PER_HOUR, 0.99995, line_world)
        assert cost == pytest.approx(600.0)

    def test_discounted_contribution(self, line_world):
        rs = region_state(line_world, [0])
        c = chain(incident(0, cell=5, report_ms=3600_000),
                  horizon_ms=2 * MS_PER_HOUR)
        cost = rollout(rs, c, 2 * MS_PER_HOUR, 0.99995, line_world)
        assert cost == pytest.approx(600.0 * 0.99995 ** 3600, rel=1e-9)

    def test_queued_incident_costed_when_agent_frees(self, line_world):
        # two incidents back to back against one agent: the second waits
        rs = region_state(line_world, [0])
        c = chain(incident(0, cell=0, report_ms=0, service_ms=600_000),
                  incident(1, cell=0, report_ms=60_000, service_ms=600_000))
        cost = rollout(rs, c, 2 * MS_PER_HOUR, 1.0, line_world)
        # first: response 0; second: dispatched at 600000 when service ends,
        # queue delay 540 s, travel 0
        assert cost == pytest.approx(540.0)

    def test_horizon_truncates(self, line_world):
        rs = region_state(line_world, [0])
        c = chain(incident(0, cell=5, report_ms=MS_PER_HOUR))
        cost = rollout(rs, c, MS_PER_HOUR // 2, 1.0, line_world)
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
        stay = AllocationAction(((0, 0),))
        move = AllocationAction(((0, 1),))
        assert res.scores[stay] < res.scores[move]
        # oracle: evaluate both root actions under the deterministic rollout
        for action, score in res.scores.items():
            s = rs.state.clone()
            apply_allocation(s, action.assignment, world)
            cost, _, _ = _play(s, c.incidents, 0, world, params.discount,
                               rs.state.clock_ms,
                               rs.state.clock_ms + params.horizon_ms, False)
            assert score == pytest.approx(cost)

    def test_two_armed_bandit_selection_rate(self):
        world, rs, c = bandit_world()
        res = mcts_search(rs, c, world, MCTSParams(iterations=200))
        stay = AllocationAction(((0, 0),))
        visits = {a: n.visits for a, n in res.root.children.items()}
        # burn-in: one forced visit per arm; then >= 95% go to the best arm
        assert visits[stay] - 1 >= 0.95 * (200 - 2)

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
        assert best1 == best2 == AllocationAction(((0, 0),))


def expectimax_value(rs, incidents, world, params):
    """Exhaustive min over allocation actions at every incident epoch."""
    end_ms = rs.state.clock_ms + params.horizon_ms
    t0 = rs.state.clock_ms

    def value(state, pos):
        view = RegionState(rs.region, state, rs.depots)
        actions = enumerate_actions(view, params.max_joint_actions)
        best = math.inf
        for action in actions:
            s = state.clone()
            apply_allocation(s, action.assignment, world)
            cost, new_pos, done = _play(s, incidents, pos, world,
                                        params.discount, t0, end_ms, True)
            v = cost if done else cost + value(s, new_pos)
            best = min(best, v)
        return best

    def q_root(action):
        s = rs.state.clone()
        apply_allocation(s, action.assignment, world)
        cost, new_pos, done = _play(s, incidents, 0, world, params.discount,
                                    t0, end_ms, True)
        return cost if done else cost + value(s, new_pos)

    root_actions = enumerate_actions(rs, params.max_joint_actions)
    return {a: q_root(a) for a in root_actions}


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
               min(oracle, key=lambda a: (oracle[a], a.assignment))


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
            assert plans[0].action == AllocationAction(((0, 0),)), seed

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
                totals[depot] += rollout(rs, c, params.horizon_ms, params.discount,
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
        for scores in plans[0].score_map.scores.values():
            assert len(scores) == 1

    def test_score_map_mean_is_arithmetic(self):
        from hierdispatch import ActionScoreMap
        m = ActionScoreMap()
        a = AllocationAction(((0, 0),))
        for v in (1.0, 2.0, 6.0):
            m.add(a, v)
        assert m.means()[a] == pytest.approx(3.0)

    def test_search_trace_dump(self, tmp_path, line_world):
        rates = np.zeros(10)
        rates[0] = 1.5
        model = DemandModel(rates=rates)
        state = fresh_state(line_world, [1])
        plan_region_allocations(state, line_world, model,
                                MCTSParams(iterations=20), n_samples=2,
                                seed=0, trace_dir=str(tmp_path))
        traces = sorted(tmp_path.glob("search_region0_chain*.csv"))
        assert len(traces) == 2
        lines = traces[0].read_text().splitlines()
        assert lines[0] == "iteration,action,score"
        first = lines[1].split(",")
        assert first[0] == "0"
        float(first[2])  # score column parses

    def test_decomposed_mode_feasible_and_deterministic(self):
        world = build_world(depot_xy=((0, 0), (4, 0), (9, 0)))
        rates = np.zeros(10)
        rates[2] = 3.0
        model = DemandModel(rates=rates)
        params = MCTSParams(iterations=80, max_joint_actions=2)

        def plan_once():
            state = fresh_state(world, [0, 1])
            return plan_region_allocations(state, world, model, params,
                                           n_samples=3, seed=1)

        plans = plan_once()
        action = plans[0].action
        assert action is not None
        assert sorted(a for a, _d in action.assignment) == [0, 1]
        depots = [d for _a, d in action.assignment]
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
