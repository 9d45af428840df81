import math

import numpy as np
import pytest

from hierdispatch import (Agent, AgentBusy, AgentStatus, DepotFull, Incident,
                          UnknownIncident, UnknownRegion, advance,
                          assign_depot, assign_region, dispatch,
                          greedy_dispatch_pending)
from hierdispatch.simulator import depot_occupancy

from conftest import build_world, fresh_state, waiting_agent


def incident(inc_id, cell, report_ms=0, service_ms=1_200_000):
    return Incident(id=inc_id, cell=cell, report_time_ms=report_ms,
                    service_duration_ms=service_ms)


class TestAdvance:
    def test_identity(self, line_world):
        state = fresh_state(line_world, [0])
        before = state.agents[0].position
        advance(state, 0, line_world)
        assert state.clock_ms == 0
        assert state.agents[0].position == before

    def test_in_transit_arrival_exact(self, line_world):
        # depot 0 at x=0.5, depot 1 at x=9.5; send agent 2 miles along
        state = fresh_state(line_world, [0])
        # move agent 0 from depot 0 toward depot 1: 9 miles, but check at 2mi
        assign_depot(state, 0, 1, line_world)
        agent = state.agents[0]
        assert agent.status is AgentStatus.IN_TRANSIT
        advance(state, 240_000, line_world)  # 4 min at 30 mph = 2 miles
        assert agent.position[0] == pytest.approx(2.5)

    def test_arrival_flips_to_waiting(self, line_world):
        state = fresh_state(line_world, [0])
        assign_depot(state, 0, 1, line_world)
        travel_ms = state.agents[0].arrive_ms
        advance(state, travel_ms, line_world)
        agent = state.agents[0]
        assert agent.status is AgentStatus.WAITING
        assert agent.position == line_world.depot_pos(1)

    def test_respond_service_return_cycle(self, line_world):
        # agent responds, arrives, services 1200 s, then heads home
        state = fresh_state(line_world, [0])
        inc = incident(0, cell=5, service_ms=1_200_000)  # x=5.5, 5 miles
        state.pending.append(inc)
        dispatch(state, 0, inc, line_world)
        agent = state.agents[0]
        arrive = agent.arrive_ms
        assert arrive == 600_000
        advance(state, arrive, line_world)
        assert agent.status is AgentStatus.SERVICING
        assert agent.busy_until == arrive + 1_200_000
        advance(state, arrive + 1_200_000 + 1, line_world)
        assert agent.status is AgentStatus.IN_TRANSIT
        assert agent.destination == line_world.depot_pos(0)

    def test_multi_transition_in_one_advance(self, line_world):
        # jump far past service completion: agent must be back home waiting
        state = fresh_state(line_world, [0])
        inc = incident(0, cell=1, service_ms=60_000)
        state.pending.append(inc)
        dispatch(state, 0, inc, line_world)
        advance(state, 3 * 3_600_000, line_world)
        agent = state.agents[0]
        assert agent.status is AgentStatus.WAITING
        assert agent.position == line_world.depot_pos(0)

    def test_backwards_rejected(self, line_world):
        state = fresh_state(line_world, [0], clock_ms=10)
        with pytest.raises(ValueError):
            advance(state, 5, line_world)


class TestDispatch:
    def test_colocated_zero_response(self, line_world):
        state = fresh_state(line_world, [0])
        inc = incident(0, cell=0, report_ms=0)
        state.pending.append(inc)
        rt = dispatch(state, 0, inc, line_world)
        assert rt == 0.0
        assert state.pending == []

    def test_queue_delay_plus_travel(self, line_world):
        # agent 5 miles away, incident reported 60 s ago -> 660 s
        state = fresh_state(line_world, [0], clock_ms=60_000)
        inc = incident(0, cell=5, report_ms=0)
        state.pending.append(inc)
        rt = dispatch(state, 0, inc, line_world)
        assert rt == pytest.approx(660.0)

    def test_busy_agent_rejected(self, line_world):
        state = fresh_state(line_world, [0])
        inc = incident(0, cell=3)
        state.pending.append(inc)
        dispatch(state, 0, inc, line_world)
        other = incident(1, cell=4)
        state.pending.append(other)
        with pytest.raises(AgentBusy):
            dispatch(state, 0, other, line_world)

    def test_unknown_incident(self, line_world):
        state = fresh_state(line_world, [0])
        with pytest.raises(UnknownIncident):
            dispatch(state, 0, incident(5, cell=2), line_world)

    def test_divert_in_transit_from_interpolated_position(self, line_world):
        state = fresh_state(line_world, [0])
        assign_depot(state, 0, 1, line_world)
        advance(state, 240_000, line_world)  # now at x=2.5
        inc = incident(0, cell=2, report_ms=240_000)  # x=2.5: co-located
        state.pending.append(inc)
        rt = dispatch(state, 0, inc, line_world)
        assert rt == 0.0


class TestAssignDepot:
    def test_same_depot_noop(self, line_world):
        state = fresh_state(line_world, [0])
        assign_depot(state, 0, 0, line_world)
        agent = state.agents[0]
        assert agent.status is AgentStatus.WAITING
        assert agent.position == line_world.depot_pos(0)

    def test_move_three_miles(self):
        world = build_world(depot_xy=((0, 0), (3, 0)))
        state = fresh_state(world, [0])
        assign_depot(state, 0, 1, world)
        agent = state.agents[0]
        assert agent.status is AgentStatus.IN_TRANSIT
        assert agent.arrive_ms == 360_000

    def test_capacity_one_full(self, line_world):
        state = fresh_state(line_world, [0, 1])
        with pytest.raises(DepotFull):
            assign_depot(state, 1, 0, line_world)

    def test_busy_agent_rejected(self, line_world):
        state = fresh_state(line_world, [0])
        inc = incident(0, cell=4)
        state.pending.append(inc)
        dispatch(state, 0, inc, line_world)
        with pytest.raises(AgentBusy):
            assign_depot(state, 0, 1, line_world)

    def test_capacity_two(self):
        world = build_world(depot_xy=((0, 0), (5, 0)), capacity=2)
        state = fresh_state(world, [0, 1])
        assign_depot(state, 1, 0, world)  # joins agent 0 at depot 0
        assert depot_occupancy(state, 0) == 2
        extra = waiting_agent(world, 2, 1)
        state.agents.append(extra)
        with pytest.raises(DepotFull):
            assign_depot(state, 2, 0, world)


class TestAssignRegion:
    def test_unknown_region(self, line_world):
        state = fresh_state(line_world, [0])
        with pytest.raises(UnknownRegion):
            assign_region(state, 0, 5, line_world)

    def test_updates_region_only(self):
        world = build_world(depot_xy=((0, 0), (9, 0)), k=2)
        state = fresh_state(world, [0])
        old_depot = state.agents[0].depot
        assign_region(state, 0, 1, world)
        assert state.agents[0].region == 1
        assert state.agents[0].depot == old_depot


class TestGreedyQueue:
    def test_fifo_and_nearest(self, line_world):
        state = fresh_state(line_world, [0, 1])
        first = incident(0, cell=8, report_ms=0)
        second = incident(1, cell=1, report_ms=1)
        state.pending.extend([first, second])
        recs = greedy_dispatch_pending(state, line_world)
        # FIFO: incident 0 first, nearest agent is 1 (depot at x=9.5)
        assert [r.incident.id for r in recs] == [0, 1]
        assert recs[0].agent_id == 1
        assert recs[1].agent_id == 0

    def test_tie_broken_by_agent_id(self):
        world = build_world(depot_xy=((0, 0), (4, 0)))
        state = fresh_state(world, [0, 1])
        inc = incident(0, cell=2, report_ms=0)  # x=2.5: equidistant
        state.pending.append(inc)
        recs = greedy_dispatch_pending(state, world)
        assert recs[0].agent_id == 0

    def test_stops_when_no_one_free(self, line_world):
        state = fresh_state(line_world, [0])
        state.pending.extend([incident(0, cell=2), incident(1, cell=3)])
        recs = greedy_dispatch_pending(state, line_world)
        assert len(recs) == 1
        assert len(state.pending) == 1

    def test_failed_agents_excluded(self, line_world):
        state = fresh_state(line_world, [0, 1])
        state.agents[0].failure_window = (0, 1_000_000)
        inc = incident(0, cell=0, report_ms=0)  # at failed agent's feet
        state.pending.append(inc)
        recs = greedy_dispatch_pending(state, line_world)
        assert recs[0].agent_id == 1


class TestInvariants:
    def test_no_teleportation_random_walk(self):
        world = build_world(width=12, depot_xy=((0, 0), (6, 0), (11, 0)))
        state = fresh_state(world, [0, 1, 2])
        rng = np.random.default_rng(17)
        last = {a.id: (state.clock_ms, a.position) for a in state.agents}
        speed_mps = world.travel.speed_mph / 3600.0
        next_id = 0
        for _ in range(300):
            dt = int(rng.integers(1, 400_000))
            advance(state, state.clock_ms + dt, world)
            for a in state.agents:
                t0, p0 = last[a.id]
                moved = math.dist(p0, a.position)
                assert moved <= speed_mps * (state.clock_ms - t0) / 1000 + 1e-9
                last[a.id] = (state.clock_ms, a.position)
            roll = rng.random()
            if roll < 0.4:
                inc = incident(next_id, int(rng.integers(0, 12)), state.clock_ms)
                next_id += 1
                state.pending.append(inc)
                greedy_dispatch_pending(state, world)
            elif roll < 0.6:
                idle = state.idle_agents()
                if idle:
                    agent = idle[int(rng.integers(len(idle)))]
                    depot = world.depots[int(rng.integers(3))]
                    others = depot_occupancy(state, depot.id) - (agent.depot == depot.id)
                    if others < depot.capacity:
                        assign_depot(state, agent.id, depot.id, world)

    def test_agent_count_conserved_and_replay_identical(self):
        world = build_world(width=12, depot_xy=((0, 0), (11, 0)))

        def trajectory():
            state = fresh_state(world, [0, 1])
            snaps = []
            incs = [incident(i, cell=(3 * i) % 12, report_ms=i * 500_000)
                    for i in range(6)]
            for inc in incs:
                advance(state, inc.report_time_ms, world)
                state.pending.append(inc)
                greedy_dispatch_pending(state, world)
                snaps.append((state.clock_ms,
                              tuple((a.id, a.position, a.status) for a in state.agents)))
            return snaps

        assert trajectory() == trajectory()
