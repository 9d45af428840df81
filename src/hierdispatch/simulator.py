"""Discrete-event engine for agents and the pending-incident queue.

State only changes at event times; between them agents move in straight
lines at constant speed. advance() replays each agent's internal
transitions (arrive at scene, finish service, head home, reach depot) up
to the target time, so callers may jump the clock to any future event.

The clock is integer milliseconds. Travel durations round up to the next
tick, which keeps effective speeds at or below nominal. Travel and its
rounding are computed inline, equal bit for bit to TravelModel.travel_time
and units.ceil_ms, which define them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import ceil, hypot

from .demand import Incident
from .spatial import Position, World


class AgentBusy(Exception):
    pass


class UnknownIncident(Exception):
    pass


class DepotFull(Exception):
    pass


class UnknownRegion(Exception):
    pass


class AgentStatus(Enum):
    WAITING = "waiting"
    IN_TRANSIT = "in_transit"
    RESPONDING = "responding"
    SERVICING = "servicing"


# An Enum member lookup such as AgentStatus.WAITING costs ~170 ns on
# CPython 3.11, a global read ~6 ns; the hot loops compare against these.
_WAITING = AgentStatus.WAITING
_IN_TRANSIT = AgentStatus.IN_TRANSIT
_RESPONDING = AgentStatus.RESPONDING
_SERVICING = AgentStatus.SERVICING


@dataclass(slots=True)
class Agent:
    id: int
    position: Position
    destination: Position
    status: AgentStatus
    region: int
    depot: int
    busy_until: int | None = None      # servicing only
    incident: Incident | None = None   # incident being responded to / serviced
    move_from: Position | None = None  # current straight-line segment
    move_started_ms: int | None = None
    arrive_ms: int | None = None
    failure_window: tuple[int, int] | None = None  # undispatchable in [a, b)

    def clone(self) -> "Agent":
        return Agent(self.id, self.position, self.destination, self.status,
                     self.region, self.depot, self.busy_until, self.incident,
                     self.move_from, self.move_started_ms, self.arrive_ms,
                     self.failure_window)

    def is_failed(self, t_ms: int) -> bool:
        return (self.failure_window is not None
                and self.failure_window[0] <= t_ms < self.failure_window[1])

    def is_dispatchable(self, t_ms: int) -> bool:
        """Free for a new dispatch: waiting or in transit, and not failed."""
        return ((self.status is _WAITING or self.status is _IN_TRANSIT)
                and not self.is_failed(t_ms))


@dataclass(slots=True)
class DispatchRecord:
    """One dispatch: the agent sent, when, and the response time it gives.

    Not frozen: the search builds one per replayed dispatch, and a frozen
    slots dataclass costs ~4x as much to construct (timeit, CPython 3.11).
    """

    incident: Incident
    agent_id: int
    dispatch_ms: int
    arrive_ms: int
    response_s: float


@dataclass(slots=True)
class SystemState:
    clock_ms: int
    pending: list[Incident]  # FIFO by report time
    agents: list[Agent]

    def clone(self) -> "SystemState":
        return SystemState(self.clock_ms, list(self.pending),
                           list(map(Agent.clone, self.agents)))

    def agent(self, agent_id: int) -> Agent:
        for a in self.agents:
            if a.id == agent_id:
                return a
        raise KeyError(f"no agent {agent_id}")

    def idle_agents(self) -> list[Agent]:
        return [a for a in self.agents if a.is_dispatchable(self.clock_ms)]


def _begin_move(agent: Agent, t_ms: int, dest: Position, travel_s: float) -> None:
    agent.move_from = agent.position
    agent.move_started_ms = t_ms
    agent.destination = dest
    agent.arrive_ms = t_ms + ceil(travel_s * 1000 - 1e-9)  # units.ceil_ms, inline


def advance(state: SystemState, to_ms: int, world: World) -> SystemState:
    """Move the clock forward, updating every agent in place."""
    if to_ms < state.clock_ms:
        raise ValueError(f"cannot advance backwards ({state.clock_ms} -> {to_ms})")
    if to_ms == state.clock_ms:
        return state
    for agent in state.agents:  # replay its transitions up to to_ms
        status = agent.status
        while status is not _WAITING:
            if status is _SERVICING:
                if agent.busy_until > to_ms:
                    break
                t = agent.busy_until
                agent.busy_until = None
                agent.incident = None
                status = agent.status = _IN_TRANSIT
                home, pos = world.depot_pos(agent.depot), agent.position
                _begin_move(agent, t, home, hypot(home[0] - pos[0], home[1] - pos[1])
                            / world.travel.speed_mph * 3600.0)
            elif agent.arrive_ms <= to_ms:  # moving: responding or in_transit
                agent.position = agent.destination
                if status is _RESPONDING:
                    status = agent.status = _SERVICING
                    agent.busy_until = agent.arrive_ms + agent.incident.service_duration_ms
                else:
                    status = agent.status = _WAITING
                agent.arrive_ms = None
            else:  # still on its way: interpolate along the segment
                frac = (to_ms - agent.move_started_ms) / (agent.arrive_ms - agent.move_started_ms)
                frm, dest = agent.move_from, agent.destination
                agent.position = (frm[0] + frac * (dest[0] - frm[0]),
                                  frm[1] + frac * (dest[1] - frm[1]))
                break
    state.clock_ms = to_ms
    return state


def _send(state: SystemState, agent: Agent, incident: Incident,
          dest: Position, travel_s: float) -> float:
    """Start agent's response to incident at dest, travel_s away; returns
    the response time in seconds."""
    clock = state.clock_ms
    agent.status = _RESPONDING
    agent.incident = incident
    _begin_move(agent, clock, dest, travel_s)
    return (clock - incident.report_time_ms + (agent.arrive_ms - clock)) / 1000.0


def dispatch(state: SystemState, agent_id: int, incident: Incident,
             world: World) -> float:
    """Send an agent to a pending incident; returns response time in seconds.

    Response time = queue delay (report to now) + travel, with travel
    rounded up to the millisecond tick.
    """
    agent = state.agent(agent_id)
    if agent.status is _RESPONDING or agent.status is _SERVICING:
        raise AgentBusy(f"agent {agent_id} is {agent.status.value}")
    try:
        state.pending.remove(incident)
    except ValueError:
        raise UnknownIncident(f"incident {incident.id} is not pending") from None
    dest = world.cell_pos(incident.cell)
    return _send(state, agent, incident, dest,
                 world.travel.travel_time(agent.position, dest))


def depot_occupancy(state: SystemState, depot_id: int) -> int:
    """Agents assigned to a depot; busy agents keep their slot reserved."""
    return sum(1 for a in state.agents if a.depot == depot_id)


def assign_depot(state: SystemState, agent_id: int, depot_id: int,
                 world: World) -> SystemState:
    """Reassign an idle agent's home depot and send it on its way."""
    agent, occupied = None, 0
    for a in state.agents:  # one pass: find the agent, count the depot
        if a.id == agent_id:
            agent = a
        elif a.depot == depot_id:
            occupied += 1
    if agent is None:
        raise KeyError(f"no agent {agent_id}")
    if agent.status is _RESPONDING or agent.status is _SERVICING:
        raise AgentBusy(f"agent {agent_id} is {agent.status.value}")
    depot = world.depot(depot_id)
    if occupied >= depot.capacity:
        raise DepotFull(f"depot {depot_id} is at capacity {depot.capacity}")
    agent.depot = depot_id
    dest = world.depot_pos(depot_id)
    if agent.position == dest:
        agent.status = _WAITING
        agent.destination = dest
        agent.arrive_ms = None
    else:
        agent.status = _IN_TRANSIT
        pos = agent.position
        _begin_move(agent, state.clock_ms, dest, hypot(dest[0] - pos[0], dest[1] - pos[1])
                    / world.travel.speed_mph * 3600.0)
    return state


def assign_region(state: SystemState, agent_id: int, region: int,
                  world: World) -> SystemState:
    """Reassign an agent's region; the depot move is a separate decision."""
    if world.partition is None or region not in world.partition.region_depots:
        raise UnknownRegion(f"region {region} does not exist")
    state.agent(agent_id).region = region
    return state


def greedy_dispatch_pending(state: SystemState,
                            world: World) -> list[DispatchRecord]:
    """Dispatch the nearest free agent to each queued incident (FIFO).

    Runs until the queue is empty or no agent is dispatchable; ties in
    travel time go to the lowest agent id. Returns one DispatchRecord per
    dispatch, in dispatch order.
    """
    records = []
    pending = state.pending
    clock = state.clock_ms
    speed = world.travel.speed_mph
    while pending:
        incident = pending[0]
        target = world.cell_pos(incident.cell)
        tx, ty = target
        best = None
        for a in state.agents:  # dispatchable: free, and not failed now
            if a.status is not _WAITING and a.status is not _IN_TRANSIT:
                continue
            window = a.failure_window
            if window is not None and window[0] <= clock < window[1]:
                continue
            pos = a.position
            t = hypot(tx - pos[0], ty - pos[1]) / speed * 3600.0
            if best is None or t < best_t or (t == best_t and a.id < best.id):
                best, best_t = a, t
        if best is None:
            break
        del pending[0]
        response_s = _send(state, best, incident, target, best_t)
        records.append(DispatchRecord(incident, best.id, clock,
                                      best.arrive_ms, response_s))
    return records
