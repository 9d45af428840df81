"""Independent reference implementations used to check analytic code.

These deliberately avoid the package's own simulator and queueing
formulas so that each check has two routes to the same number. The
reference replay loop at the end is the simulator's earlier, plainer
form of the same functions.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from hierdispatch.demand import Incident, IncidentChain, _segments
from hierdispatch.lowlevel import (RegionPlan, SearchNode, _travel, decompose,
                                   mcts_search, sample_chain)
from hierdispatch.queueing import QueueParams, _check_stable
from hierdispatch.simulator import (AgentBusy, AgentStatus, DepotFull,
                                    UnknownIncident)
from hierdispatch.units import MS_PER_HOUR, ceil_ms


def simulate_mmc_mean_wait(lam, mu, c, n_arrivals, seed, warmup=50_000):
    """Brute-force single-FIFO-queue M/M/c simulation; mean wait in hours.

    Plain arrival-by-arrival replay: each customer takes the earliest-free
    server after queueing FIFO.
    """
    rng = np.random.default_rng(seed)
    total = n_arrivals + warmup
    arrivals = np.cumsum(rng.exponential(1.0 / lam, total))
    services = rng.exponential(1.0 / mu, total)
    free = [0.0] * c
    heapq.heapify(free)
    waited = 0.0
    for i in range(total):
        t = arrivals[i]
        earliest = heapq.heappop(free)
        start = t if earliest <= t else earliest
        if i >= warmup:
            waited += start - t
        heapq.heappush(free, start + services[i])
    return waited / n_arrivals


# -- reference Erlang-C ----------------------------------------------------
# queueing's p0, wait_probability and mean_wait before they moved to one
# running sum and the Erlang-B recursion, kept verbatim: exact factorials
# up to c = 20 and log space above. test_queueing.py checks the package's
# values against these to a relative 1e-9, and the allocator's counts
# with these patched in.

_LOG_SPACE_C = 20


def p0(q: QueueParams) -> float:
    """Probability of an empty system, in (0, 1]."""
    _check_stable(q)
    if q.lam == 0:
        return 1.0
    a = q.lam / q.mu
    if q.c <= _LOG_SPACE_C:
        total = sum(a ** m / math.factorial(m) for m in range(q.c))
        total += a ** q.c / (math.factorial(q.c) * (1 - q.rho))
        return 1.0 / total
    log_a = math.log(a)
    terms = [m * log_a - math.lgamma(m + 1) for m in range(q.c)]
    terms.append(q.c * log_a - math.lgamma(q.c + 1) - math.log(1 - q.rho))
    peak = max(terms)
    return math.exp(-(peak + math.log(sum(math.exp(t - peak) for t in terms))))


def wait_probability(q: QueueParams) -> float:
    """Erlang-C probability that an arrival has to queue."""
    _check_stable(q)
    if q.lam == 0:
        return 0.0
    a = q.lam / q.mu
    if q.c <= _LOG_SPACE_C:
        numer = a ** q.c / (math.factorial(q.c) * (1 - q.rho))
    else:
        numer = math.exp(q.c * math.log(a) - math.lgamma(q.c + 1) - math.log(1 - q.rho))
    return numer * p0(q)


def mean_wait(q: QueueParams) -> float:
    """Mean queueing delay Wq in hours; strictly decreasing in c."""
    _check_stable(q)
    if q.lam == 0:
        return 0.0
    return wait_probability(q) / (q.c * q.mu - q.lam)


def enumerate_allocations(k, total):
    """All non-negative integer k-vectors summing to total."""
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in enumerate_allocations(k - 1, total - first):
            yield (first,) + rest


def best_allocation(rates, total, eta, wait_fn):
    """Exhaustive optimum of the region-allocation objective.

    wait_fn(rate, eta, x) -> expected wait (inf when unstable). Returns
    (best_vector, best_value); value can be inf when no stable vector
    exists.
    """
    regions = sorted(rates)
    best_vec, best_val = None, float("inf")
    for vec in enumerate_allocations(len(regions), total):
        val = sum(wait_fn(rates[r], eta, x) for r, x in zip(regions, vec))
        if val < best_val:
            best_vec, best_val = dict(zip(regions, vec)), val
    return best_vec, best_val


def brute_force_two_partitions(points, weights):
    """Minimal weighted within-cluster variance over all 2-partitions."""
    n = len(points)
    best, best_cost = None, float("inf")
    for mask in range(1, 2 ** n - 1):
        groups = ([i for i in range(n) if mask & (1 << i)],
                  [i for i in range(n) if not mask & (1 << i)])
        cost = 0.0
        for grp in groups:
            w = np.array([weights[i] for i in grp])
            pts = np.array([points[i] for i in grp])
            center = np.average(pts, axis=0, weights=w)
            cost += float(np.sum(w * np.sum((pts - center) ** 2, axis=1)))
        if cost < best_cost:
            best, best_cost = groups, cost
    return best, best_cost


# -- reference replay loop ---------------------------------------------
# The simulator's and the search's replay functions as they were before
# their per-call overhead was cut, kept verbatim (plain loops, method
# calls, list.remove). The property tests in test_replay_reference.py
# check the package's versions against these with ==.

def _begin_move(agent: Agent, t_ms: int, dest: Position, world: World) -> None:
    agent.move_from = agent.position
    agent.move_started_ms = t_ms
    agent.destination = dest
    agent.arrive_ms = t_ms + ceil_ms(world.travel.travel_time(agent.position, dest))


def _step_agent(agent: Agent, to_ms: int, world: World) -> None:
    """Replay one agent's internal transitions up to to_ms."""
    while True:
        if agent.status is AgentStatus.WAITING:
            return
        if agent.status is AgentStatus.SERVICING:
            if agent.busy_until > to_ms:
                return
            t = agent.busy_until
            agent.busy_until = None
            agent.incident = None
            agent.status = AgentStatus.IN_TRANSIT
            _begin_move(agent, t, world.depot_pos(agent.depot), world)
            continue
        # moving: responding or in_transit
        if agent.arrive_ms <= to_ms:
            agent.position = agent.destination
            if agent.status is AgentStatus.RESPONDING:
                agent.status = AgentStatus.SERVICING
                agent.busy_until = agent.arrive_ms + agent.incident.service_duration_ms
                agent.arrive_ms = None
                continue
            agent.status = AgentStatus.WAITING
            agent.arrive_ms = None
            return
        frac = (to_ms - agent.move_started_ms) / (agent.arrive_ms - agent.move_started_ms)
        agent.position = (agent.move_from[0] + frac * (agent.destination[0] - agent.move_from[0]),
                          agent.move_from[1] + frac * (agent.destination[1] - agent.move_from[1]))
        return


def advance(state: SystemState, to_ms: int, world: World) -> SystemState:
    """Move the clock forward, updating every agent in place."""
    if to_ms < state.clock_ms:
        raise ValueError(f"cannot advance backwards ({state.clock_ms} -> {to_ms})")
    if to_ms == state.clock_ms:
        return state
    for agent in state.agents:
        _step_agent(agent, to_ms, world)
    state.clock_ms = to_ms
    return state


def dispatch(state: SystemState, agent_id: int, incident: Incident,
             world: World) -> float:
    """Send an agent to a pending incident; returns response time in seconds.

    Response time = queue delay (report to now) + travel, with travel
    rounded up to the millisecond tick.
    """
    agent = state.agent(agent_id)
    if agent.status in (AgentStatus.RESPONDING, AgentStatus.SERVICING):
        raise AgentBusy(f"agent {agent_id} is {agent.status.value}")
    try:
        state.pending.remove(incident)
    except ValueError:
        raise UnknownIncident(f"incident {incident.id} is not pending") from None
    agent.status = AgentStatus.RESPONDING
    agent.incident = incident
    _begin_move(agent, state.clock_ms, world.cell_pos(incident.cell), world)
    return (state.clock_ms - incident.report_time_ms
            + (agent.arrive_ms - state.clock_ms)) / 1000.0


def depot_occupancy(state: SystemState, depot_id: int,
                    exclude_agent: int | None = None) -> int:
    """Agents assigned to a depot; busy agents keep their slot reserved."""
    return sum(1 for a in state.agents
               if a.depot == depot_id and a.id != exclude_agent)


def assign_depot(state: SystemState, agent_id: int, depot_id: int,
                 world: World) -> SystemState:
    """Reassign an idle agent's home depot and send it on its way."""
    agent = state.agent(agent_id)
    if agent.status in (AgentStatus.RESPONDING, AgentStatus.SERVICING):
        raise AgentBusy(f"agent {agent_id} is {agent.status.value}")
    depot = world.depot(depot_id)
    if depot_occupancy(state, depot_id, exclude_agent=agent_id) >= depot.capacity:
        raise DepotFull(f"depot {depot_id} is at capacity {depot.capacity}")
    agent.depot = depot_id
    dest = world.depot_pos(depot_id)
    if agent.position == dest:
        agent.status = AgentStatus.WAITING
        agent.destination = dest
        agent.arrive_ms = None
    else:
        agent.status = AgentStatus.IN_TRANSIT
        _begin_move(agent, state.clock_ms, dest, world)
    return state



def greedy_dispatch_pending(state: SystemState, world: World) -> list[dict]:
    """Dispatch the nearest free agent to each queued incident (FIFO).

    Runs until the queue is empty or no agent is dispatchable; ties in
    travel time go to the lowest agent id. Returns one record per
    dispatch: incident, agent_id, dispatch_ms, arrive_ms, response_s.
    """
    records = []
    while state.pending:
        incident = state.pending[0]
        candidates = [a for a in state.agents if a.is_dispatchable(state.clock_ms)]
        if not candidates:
            break
        target = world.cell_pos(incident.cell)
        best = min(candidates,
                   key=lambda a: (world.travel.travel_time(a.position, target), a.id))
        response_s = dispatch(state, best.id, incident, world)
        records.append({"incident": incident, "agent_id": best.id,
                        "dispatch_ms": state.clock_ms,
                        "arrive_ms": best.arrive_ms, "response_s": response_s})
    return records


def enumerate_actions(rs: RegionState):
    """All feasible joint allocations for the region's idle agents.

    Returns a list of assignment tuples ((agent_id, depot_id), ...), in
    lexicographic order of their depot ids; [()], the pass alone, when
    there is nothing to decide. Agents that are not idle keep their slot.
    """
    idle = sorted(rs.state.idle_agents(), key=lambda a: a.id)
    if not idle:
        return [()]
    slots = {d.id: d.capacity for d in rs.depots}
    for a in rs.state.agents:
        if a.id not in {b.id for b in idle} and a.depot in slots:
            slots[a.depot] = max(0, slots[a.depot] - 1)
    if sum(slots.values()) < len(idle):
        return [()]  # no feasible reshuffle; leave assignments alone
    actions: list[tuple] = []
    depot_ids = sorted(slots)
    chosen: list[tuple[int, int]] = []

    def dfs(i):
        if i == len(idle):
            actions.append(tuple(chosen))
            return
        for d in depot_ids:
            if slots[d] > 0:
                slots[d] -= 1
                chosen.append((idle[i].id, d))
                dfs(i + 1)
                chosen.pop()
                slots[d] += 1

    dfs(0)
    return actions


def joint_choices(rs: RegionState, _cap: int):
    """lowlevel._joint_choices without its cap: every action of
    enumerate_actions, as (agent ids, depot tuples)."""
    actions = enumerate_actions(rs)
    ids = tuple(agent_id for agent_id, _depot in actions[0])
    return ids, [tuple(depot for _agent, depot in action) for action in actions]


def apply_allocation(state: SystemState, assignment, world: World) -> None:
    """Apply a joint assignment atomically (no transient capacity clashes)."""
    ids = [agent_id for agent_id, _ in assignment]
    for agent_id in ids:
        state.agent(agent_id).depot = -1
    for agent_id, depot_id in assignment:
        assign_depot(state, agent_id, depot_id, world)


def _free_time(agent, candidate_ms: int) -> int:
    """When the agent next becomes dispatchable, at or after candidate_ms."""
    if agent.failure_window is not None:
        start, end = agent.failure_window
        if start <= candidate_ms < end:
            return end
    return candidate_ms


def _next_dispatch_event(state: SystemState) -> int | None:
    """Earliest future time a busy or failed agent could take the queue."""
    best = None
    for a in state.agents:
        if a.status is AgentStatus.RESPONDING:
            t = _free_time(a, a.arrive_ms + a.incident.service_duration_ms)
        elif a.status is AgentStatus.SERVICING:
            t = _free_time(a, a.busy_until)
        elif a.is_failed(state.clock_ms):
            t = a.failure_window[1]
        else:
            continue
        if t > state.clock_ms and (best is None or t < best):
            best = t
    return best


def _play(state: SystemState, incidents: list[Incident], pos: int, world: World,
          alpha: float, t0_ms: int, end_ms: int, stop_after_incident: bool):
    """Replay incident arrivals and queue dispatches under greedy policy.

    Accumulates the discounted response-time cost of every dispatch that
    happens before end_ms. Stops after processing one incident when
    stop_after_incident is set; otherwise runs to the horizon. Returns
    (cost, next_pos, done) where done means the chain is exhausted.
    """
    cost = 0.0
    while True:
        next_inc = incidents[pos].report_time_ms if pos < len(incidents) else None
        t_free = _next_dispatch_event(state) if state.pending else None
        times = [t for t in (next_inc, t_free) if t is not None and t < end_ms]
        if not times:
            advance(state, end_ms, world)
            return cost, pos, pos >= len(incidents)
        t = min(times)
        advance(state, t, world)
        injected = False
        if next_inc == t:
            state.pending.append(incidents[pos])
            pos += 1
            injected = True
        for rec in greedy_dispatch_pending(state, world):
            t_h = (rec["dispatch_ms"] - t0_ms) / 1000.0
            cost += alpha ** t_h * rec["response_s"]
        if injected and stop_after_incident:
            return cost, pos, pos >= len(incidents)


# -- reference planner loop ----------------------------------------------
# The planner before it shared one root action set per region, skipped the
# search of single-action regions and scored terminal leaves once, kept
# verbatim: plan_region_allocations always searches, and tree_evaluate
# (the old _Tree._evaluate) replays every leaf from a fresh clone, through
# the reference _play above. The property test in test_plan_reference.py
# patches tree_evaluate into _Tree and joint_choices, which lists every
# joint action, into lowlevel, and checks the package's plans and scores
# against these with ==.

def plan_region_allocations(state: SystemState, world: World, model: DemandModel,
                            params: MCTSParams, n_samples: int, seed,
                            regions=None) -> dict[int, RegionPlan]:
    """Root-parallel planning for every region: sample n chains per region,
    run one search tree per chain, average the per-action scores, and pick
    the cheapest action.

    Chains are region-restricted: demand comes only from the region's own
    cells. seed is an int or tuple of ints (SeedSequence entropy); the
    per-chain streams are derived from it, so the whole plan is
    reproducible. Ties on mean score prefer the action with the least
    added travel, then the lexicographically smallest assignment. Regions
    with no idle agents get action None.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if regions is None:
        regions = world.partition.regions()
    plans: dict[int, RegionPlan] = {}
    for region in sorted(regions):
        rs = decompose(state, region, world)
        plan = RegionPlan(region=region, action=None)
        plans[region] = plan
        if not rs.state.idle_agents():
            continue
        restricted = model.restrict(world.partition.cells_of(region))
        for i in range(n_samples):
            chain_seed = np.random.SeedSequence(entropy=seed,
                                                spawn_key=(region, i))
            chain = sample_chain(restricted, params.horizon_ms, chain_seed,
                                 start_ms=state.clock_ms)
            result = mcts_search(rs, chain, world, params)
            for action, score in result.scores.items():
                plan.scores.setdefault(action, []).append(score)
        means = {a: sum(v) / len(v) for a, v in plan.scores.items()}
        if not means:
            continue
        # the (mean, travel, assignment) minimum; travel only for the tied
        best = min(means.values())
        positions = {a.id: a.position for a in rs.state.agents}
        plan.action = min((a for a in means if means[a] == best),
                          key=lambda a: (_travel(a, positions, world), a))
    return plans


def tree_evaluate(self, node: SearchNode) -> float:
    """Total trajectory cost from the root through this node's playout."""
    tail, _pos, _done = _play(node.state.clone(), self.incidents, node.chain_pos, self.world,
                              self.params.discount, self.t0, self.end_ms,
                              stop_after_incident=False)
    return node.cost_from_root + tail


# -- reference chain sampler ---------------------------------------------
# demand.sample_chain before cells outside every spike window skipped
# _segments, kept verbatim: every positive-rate cell goes through
# _segments and rate_at. test_demand.py checks the package's chains
# against it with ==.

def sample_chain_by_segments(model: DemandModel, horizon_ms: int, seed,
                             start_ms: int = 0) -> IncidentChain:
    """Sample one incident chain over [start_ms, start_ms + horizon_ms).

    Each cell is an independent (piecewise-constant) Poisson process:
    per segment the event count is Poisson(rate * duration) and the event
    times are uniform. Identical (model, horizon, seed) inputs reproduce
    the chain exactly. Coincident timestamps are pushed apart by 1 ms,
    preserving generation order.
    """
    if horizon_ms <= 0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    end_ms = start_ms + horizon_ms
    raw: list[tuple[int, int]] = []  # (time_ms, cell)
    # cells with a positive rate (NaN kept, as `rate <= 0` is False), as ints
    for cell in np.flatnonzero(~(model.rates <= 0)).tolist():
        for a, b, rate in _segments(model, cell, start_ms, end_ms):
            mean = rate * (b - a) / MS_PER_HOUR
            n = rng.poisson(mean)
            if n == 0:
                continue
            times = np.sort(rng.integers(a, b, size=n))
            raw.extend((int(t), cell) for t in times)

    raw.sort(key=lambda tc: tc[0])
    incidents = []
    prev = -1
    for i, (t, cell) in enumerate(raw):
        if t <= prev:
            t = prev + 1
        prev = t
        incidents.append(Incident(id=i, cell=cell, report_time_ms=t,
                                  service_duration_ms=model.service.sample(rng)))
    return IncidentChain(incidents=incidents, horizon_ms=horizon_ms)
