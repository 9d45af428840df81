"""The simulator and the search replay against their reference loop.

Random tiny worlds (1-6 agents, random depots, capacities, failure
windows, chains and horizons) are driven through the same sequence of
operations twice: once with the package's functions and once with the
plain reference versions in oracles.py. Every return value, dispatch
record and agent field must be equal with ==; no tolerance is allowed,
because the search's scores and the incident files depend on each bit.
"""

from dataclasses import fields

import oracles
from hypothesis import given, settings
from hypothesis import strategies as st

from hierdispatch import (Agent, AgentStatus, Depot, Incident, SystemState,
                          TravelModel, World, make_grid)
from hierdispatch.lowlevel import (RegionState, _next_dispatch_event, _play,
                                   apply_allocation)
from hierdispatch.simulator import (advance, assign_depot, dispatch,
                                    greedy_dispatch_pending)

from conftest import joint_actions

HOUR_MS = 3_600_000


@st.composite
def tiny_worlds(draw):
    """(world, state, incidents, end_ms) with every agent waiting at a depot."""
    width = draw(st.integers(1, 6))
    height = draw(st.integers(1, 3))
    cells = make_grid(width, height, draw(st.sampled_from([0.5, 1.0, 1.7])))
    depot_cells = draw(st.lists(st.integers(0, len(cells) - 1), min_size=1,
                                max_size=min(4, len(cells)), unique=True))
    depots = [Depot(id=i, cell=c, capacity=draw(st.integers(1, 2)))
              for i, c in enumerate(depot_cells)]
    world = World(cells=cells, depots=depots,
                  travel=TravelModel(draw(st.sampled_from([17.0, 30.0, 55.5]))))
    slots = [d.id for d in depots for _ in range(d.capacity)]
    n_agents = draw(st.integers(1, min(6, len(slots))))
    homes = draw(st.permutations(slots))[:n_agents]
    agents = []
    for i, depot_id in enumerate(homes):
        pos = world.depot_pos(depot_id)
        agent = Agent(id=i, position=pos, destination=pos,
                      status=AgentStatus.WAITING, region=0, depot=depot_id)
        if draw(st.booleans()):
            start = draw(st.integers(0, 3 * HOUR_MS))
            agent.failure_window = (start, start + draw(st.integers(1, 2 * HOUR_MS)))
        agents.append(agent)
    times = sorted(draw(st.lists(st.integers(0, 3 * HOUR_MS), max_size=14)))
    incidents = [Incident(id=i, cell=draw(st.integers(0, len(cells) - 1)),
                          report_time_ms=t,
                          service_duration_ms=draw(st.integers(1, HOUR_MS)))
                 for i, t in enumerate(times)]
    end_ms = draw(st.integers(0, 4 * HOUR_MS))
    return world, SystemState(0, [], agents), incidents, end_ms


def outcome(fn, *args):
    """fn's return value, or the type of what it raised. A returned state
    reads as None: each side returns its own copy."""
    try:
        value = fn(*args)
    except Exception as exc:  # compared by type against the reference
        return type(exc)
    return None if isinstance(value, SystemState) else value


def greedy_dispatch_as_dicts(state, world):
    """greedy_dispatch_pending with its records in the reference's dict
    form, one key per DispatchRecord field."""
    return [{f.name: getattr(rec, f.name) for f in fields(rec)}
            for rec in greedy_dispatch_pending(state, world)]


def next_change_ms(state):
    """The earliest arrival or service end among the agents, if any."""
    times = [t for a in state.agents for t in (a.arrive_ms, a.busy_until)
             if t is not None and t >= state.clock_ms]
    return min(times, default=None)


def free_ms(agent, clock_ms):
    """When a busy agent frees up; the clock for a free one."""
    if agent.busy_until is not None:
        return agent.busy_until
    if agent.incident is not None:
        return agent.arrive_ms + agent.incident.service_duration_ms
    return clock_ms


operations = st.lists(st.tuples(
    st.sampled_from(["play", "advance", "assign", "apply", "dispatch", "report",
                     "fail"]),
    st.integers(0, 2 * HOUR_MS)), max_size=10)


@settings(max_examples=400, deadline=None)
@given(case=tiny_worlds(), ops=operations, stop_after_incident=st.booleans(),
       alpha=st.sampled_from([0.99995, 0.999, 0.9, 1.0]), t0_ms=st.integers(0, HOUR_MS))
def test_replay_equals_reference_loop(case, ops, stop_after_incident, alpha, t0_ms):
    world, start, incidents, end_ms = case
    new, ref = start.clone(), start.clone()
    pos = 0

    def both(fn, reference, *args):
        got = outcome(fn, new, *args)
        assert got == outcome(reference, ref, *args)
        return got

    for op, x in ops:
        if op == "play":
            got = both(_play, oracles._play, incidents, pos, world, alpha, t0_ms,
                       end_ms, stop_after_incident)
            if isinstance(got, tuple):
                pos = got[1]
        elif op == "advance":
            exact = next_change_ms(new) if x % 3 == 0 else None
            to_ms = new.clock_ms + x if exact is None else exact
            both(advance, oracles.advance, to_ms, world)
        elif op == "assign":
            depot_id = world.depots[x // 7 % len(world.depots)].id
            both(assign_depot, oracles.assign_depot, x % len(new.agents),
                 depot_id, world)
        elif op == "apply":
            moved = [a.id for a in new.agents if x >> a.id & 1]
            assignment = tuple(
                (agent_id, world.depots[(x >> (6 + 2 * i)) % len(world.depots)].id)
                for i, agent_id in enumerate(moved))
            both(apply_allocation, oracles.apply_allocation, assignment, world)
        elif op == "dispatch" and new.pending:
            incident = new.pending[x % len(new.pending)]
            both(dispatch, oracles.dispatch, x % len(new.agents), incident, world)
        elif op == "fail":  # a window that opens as the agent frees up, or now
            agent_id = x % len(new.agents)
            start_ms = free_ms(new.agents[agent_id], new.clock_ms)
            window = (start_ms, start_ms + 1 + x // 4)
            new.agents[agent_id].failure_window = window
            ref.agents[agent_id].failure_window = window
        elif op == "report" and pos < len(incidents):
            new.pending.append(incidents[pos])
            ref.pending.append(incidents[pos])
            pos += 1
            both(greedy_dispatch_as_dicts, oracles.greedy_dispatch_pending, world)
        assert _next_dispatch_event(new) == oracles._next_dispatch_event(ref)
        assert new == ref  # clock, queue, and every field of every agent
    both(_play, oracles._play, incidents, pos, world, alpha, t0_ms, end_ms, False)
    assert new == ref


@settings(max_examples=300, deadline=None)
@given(case=tiny_worlds(), busy=st.integers(0, 63),
       cap=st.sampled_from([1, 2, 5, 30, 10_000]))
def test_joint_actions_equal_reference(case, busy, cap):
    # the capped list is the reference's prefix, depots of 2 slots included
    world, state, _incidents, _end_ms = case
    for agent in state.agents:  # busy agents keep their depot slot
        if busy >> agent.id & 1:
            agent.status = AgentStatus.SERVICING
    rs = RegionState(0, state, world.depots)
    assert joint_actions(rs, cap) == oracles.enumerate_actions(rs)[:cap]
