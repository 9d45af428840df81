"""Per-region depot allocation via Monte-Carlo tree search.

A region's sub-problem: choose a depot for every idle agent, knowing
dispatch itself is mandated (nearest free agent). One search tree is
built per sampled incident chain; since the chain fixes every arrival,
each tree searches a deterministic environment, and uncertainty is
handled by root parallelization: per-action scores are averaged across
trees and the cheapest action wins.

Tree layout: nodes are decision epochs, which occur at incident events.
An edge applies a joint allocation action, then replays the simulator to
the next incident (greedy dispatch included) and charges the discounted
response times along the way. Leaf evaluation rolls out the rest of the
chain under the default policy: greedy dispatch, no redistribution.

Scores are discounted response-time costs (seconds), so lower is better;
node utilities are stored negated so UCB keeps its usual argmax form.
Selection normalizes the exploitation term to [0, 1] with the tree's
running cost bounds, which makes the exploration constant scale-free.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import getitem

import numpy as np

from .demand import DemandModel, Incident, IncidentChain, sample_chain
from .simulator import (_RESPONDING, _SERVICING, SystemState, advance,
                        assign_depot, greedy_dispatch_pending)
from .spatial import Depot, World
from .units import MS_PER_HOUR


@dataclass(frozen=True)
class AllocationAction:
    """Joint depot assignment for a region's idle agents."""

    assignment: tuple[tuple[int, int], ...]  # (agent_id, depot_id), agent-sorted

    def __str__(self):
        if not self.assignment:
            return "pass"
        return ";".join(f"a{a}->d{d}" for a, d in self.assignment)

    def travel_distance(self, state: SystemState, world: World) -> float:
        total = 0.0
        for agent_id, depot_id in self.assignment:
            pos = state.agent(agent_id).position
            dest = world.depot_pos(depot_id)
            total += math.hypot(dest[0] - pos[0], dest[1] - pos[1])
        return total


PASS = AllocationAction(())


@dataclass
class RegionState:
    """Projection of the full system onto one region."""

    region: int
    state: SystemState
    depots: list[Depot]


def decompose(state: SystemState, region: int, world: World) -> RegionState:
    """Extract a region's agents, depots, and pending incidents."""
    agents = [a.clone() for a in state.agents if a.region == region]
    pending = [i for i in state.pending
               if world.partition.cell_to_region[i.cell] == region]
    return RegionState(region=region,
                       state=SystemState(state.clock_ms, pending, agents),
                       depots=world.depots_in(region))


def joint_action_count(num_depots: int, num_agents: int) -> int:
    """Distinct agent-to-depot injections with unit depot capacities."""
    if num_agents > num_depots:
        return 0
    return math.perm(num_depots, num_agents)


def _free_slots(rs: RegionState, idle_ids: set[int]) -> dict[int, int]:
    """Depot slots available to the agents being reallocated.

    Agents outside the idle set (busy or failed) keep their slot reserved.
    """
    slots = {d.id: d.capacity for d in sorted(rs.depots, key=lambda d: d.id)}
    for a in rs.state.agents:
        if a.id not in idle_ids and a.depot in slots:
            slots[a.depot] = max(0, slots[a.depot] - 1)
    return slots


def enumerate_actions(rs: RegionState, max_joint: int = 10_000):
    """All feasible joint allocations for the region's idle agents.

    Returns a list of AllocationAction, or None when the joint count would
    exceed max_joint (callers then decompose the decision per agent).
    Returns [PASS] when there is nothing to decide.
    """
    idle = sorted(rs.state.idle_agents(), key=lambda a: a.id)
    if not idle:
        return [PASS]
    slots = _free_slots(rs, {a.id for a in idle})
    free = sum(slots.values())
    if free < len(idle):
        return [PASS]  # no feasible reshuffle; leave assignments alone
    bound = 1
    for i in range(len(idle)):
        bound *= free - i
        if bound > max_joint:
            return None
    # k-permutations of the free slots come out in lexicographic order of
    # depot ids; a depot with several free slots repeats a tuple, kept once.
    # Every action shares one (agent_id, depot_id) pair object per choice.
    pairs = [{d: (a.id, d) for d in slots} for a in idle]
    slot_list = [d for d in sorted(slots) for _ in range(slots[d])]
    return [AllocationAction(tuple(map(getitem, pairs, depots)))
            for depots in dict.fromkeys(itertools.permutations(slot_list, len(idle)))]


def apply_allocation(state: SystemState, assignment, world: World) -> None:
    """Apply a joint assignment atomically (no transient capacity clashes)."""
    ids = {agent_id for agent_id, _ in assignment}
    for agent in state.agents:
        if agent.id in ids:
            agent.depot = -1
    for agent_id, depot_id in assignment:
        assign_depot(state, agent_id, depot_id, world)


def _next_dispatch_event(state: SystemState) -> int | None:
    """Earliest future time a busy or failed agent could take the queue."""
    clock = state.clock_ms
    best = None
    for a in state.agents:
        status = a.status
        window = a.failure_window
        if status is _RESPONDING or status is _SERVICING:
            t = (a.arrive_ms + a.incident.service_duration_ms
                 if status is _RESPONDING else a.busy_until)
            if window is not None and window[0] <= t < window[1]:
                t = window[1]  # free, but failed until the window ends
        elif window is not None and window[0] <= clock < window[1]:
            t = window[1]
        else:
            continue
        if t > clock and (best is None or t < best):
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
    n = len(incidents)
    pending = state.pending
    while True:
        # the next event before end_ms: an arrival, or an agent freeing
        # up for a waiting incident; end_ms itself when there is none
        t = end_ms
        if pos < n and incidents[pos].report_time_ms < t:
            t = incidents[pos].report_time_ms
        if pending:
            t_free = _next_dispatch_event(state)
            if t_free is not None and t_free < t:
                t = t_free
        advance(state, t, world)
        if t == end_ms:
            return cost, pos, pos >= n
        injected = pos < n and incidents[pos].report_time_ms == t
        if injected:
            pending.append(incidents[pos])
            pos += 1
        for rec in greedy_dispatch_pending(state, world):
            t_h = (rec.dispatch_ms - t0_ms) / 1000.0
            cost += alpha ** t_h * rec.response_s
        if injected and stop_after_incident:
            return cost, pos, pos >= n


def rollout(rs: RegionState, chain_tail: IncidentChain, horizon_ms: int,
            alpha: float, world: World, origin_ms: int | None = None) -> float:
    """Default-policy playout: greedy dispatch, no redistribution.

    horizon_ms is an absolute cutoff; origin_ms anchors the discount
    exponent (defaults to the state's clock).
    """
    if horizon_ms < rs.state.clock_ms:
        raise ValueError("horizon precedes the state clock")
    t0 = rs.state.clock_ms if origin_ms is None else origin_ms
    state = rs.state.clone()
    incidents = [i for i in chain_tail.incidents if i.report_time_ms >= state.clock_ms]
    cost, _pos, _done = _play(state, incidents, 0, world, alpha, t0, horizon_ms,
                              stop_after_incident=False)
    return cost


class SearchNode:
    """One decision epoch (or one per-agent assignment level) in the tree."""

    __slots__ = ("state", "chain_pos", "cost_from_root", "visits", "utility_sum",
                 "children", "untried", "parent", "terminal", "to_assign",
                 "partial", "inbound")

    def __init__(self, state, chain_pos, cost_from_root, parent=None,
                 terminal=False, to_assign=None, partial=(), inbound=None):
        self.state = state
        self.chain_pos = chain_pos
        self.cost_from_root = cost_from_root
        self.visits = 0
        self.utility_sum = 0.0
        self.children: dict = {}
        self.untried = None  # filled lazily on first expansion visit
        self.parent = parent
        self.terminal = terminal
        self.to_assign = to_assign  # set on per-agent decomposition levels
        self.partial = partial
        self.inbound = inbound  # action key on the edge from the parent

    @property
    def mean_cost(self) -> float:
        return -(self.utility_sum / self.visits if self.visits else 0.0)


@dataclass
class MCTSParams:
    iterations: int = 1000
    uct_c: float = 1.44
    discount: float = 0.99995
    horizon_ms: int = 2 * MS_PER_HOUR
    max_joint_actions: int = 10_000


@dataclass
class MCTSResult:
    scores: dict[AllocationAction, float]  # mean discounted cost per root action
    root: SearchNode
    iterations: int
    decomposed: bool = False


@dataclass
class ActionScoreMap:
    """Per-action scores across sampled chains (one entry per tree)."""

    scores: dict[AllocationAction, list[float]] = field(default_factory=dict)

    def add(self, action: AllocationAction, score: float) -> None:
        self.scores.setdefault(action, []).append(score)

    def means(self) -> dict[AllocationAction, float]:
        return {a: sum(v) / len(v) for a, v in self.scores.items()}


class _Tree:
    def __init__(self, rs: RegionState, chain: IncidentChain, world: World,
                 params: MCTSParams):
        self.world = world
        self.params = params
        self.t0 = rs.state.clock_ms
        self.end_ms = self.t0 + params.horizon_ms
        self.region = rs.region
        self.depots = rs.depots
        self.incidents = [i for i in chain.incidents
                          if self.t0 <= i.report_time_ms < self.end_ms]
        self.root = SearchNode(rs.state.clone(), 0, 0.0,
                               terminal=not self.incidents)
        self.cost_lo = math.inf
        self.cost_hi = -math.inf
        self.decomposed = False

    def _region_view(self, state: SystemState) -> RegionState:
        return RegionState(self.region, state, self.depots)

    def _init_actions(self, node: SearchNode) -> None:
        if node.to_assign is not None:
            i = len(node.partial)
            idle_ids = set(node.to_assign)
            slots = _free_slots(self._region_view(node.state), idle_ids)
            for _aid, d in node.partial:
                slots[d] -= 1
            node.untried = [(node.to_assign[i], d)
                            for d in sorted(slots) if slots[d] > 0]
            return
        actions = enumerate_actions(self._region_view(node.state),
                                    self.params.max_joint_actions)
        if actions is None:
            self.decomposed = True
            idle = sorted(a.id for a in node.state.idle_agents())
            node.to_assign = tuple(idle)
            self._init_actions(node)
        else:
            node.untried = actions

    def _make_epoch_child(self, node: SearchNode, key, assignment) -> SearchNode:
        state = node.state.clone()
        apply_allocation(state, assignment, self.world)
        cost, pos, done = _play(state, self.incidents, node.chain_pos, self.world,
                                self.params.discount, self.t0, self.end_ms,
                                stop_after_incident=True)
        child = SearchNode(state, pos, node.cost_from_root + cost,
                           parent=node, terminal=done, inbound=key)
        node.children[key] = child
        return child

    def _expand(self, node: SearchNode) -> SearchNode:
        action = node.untried.pop(0)
        if node.to_assign is None:
            return self._make_epoch_child(node, action, action.assignment)
        partial = node.partial + (action,)
        if len(partial) == len(node.to_assign):
            return self._make_epoch_child(node, action, partial)
        child = SearchNode(node.state, node.chain_pos, node.cost_from_root,
                           parent=node, to_assign=node.to_assign, partial=partial,
                           inbound=action)
        node.children[action] = child
        return child

    def _select(self, node: SearchNode) -> SearchNode:
        # exploit is the child's mean cost (-utility_sum / visits; every
        # child has been visited) mapped to [0, 1] by the cost bounds
        log_n = math.log(node.visits)
        hi = self.cost_hi
        span = hi - self.cost_lo
        c = self.params.uct_c
        sqrt = math.sqrt
        best, best_score = None, -math.inf
        for child in node.children.values():
            visits = child.visits
            exploit = 0.5 if span <= 0 else (hi + child.utility_sum / visits) / span
            score = exploit + c * sqrt(log_n / visits)
            if score > best_score:
                best, best_score = child, score
        return best

    def _complete_partial(self, node: SearchNode) -> tuple:
        """Default-policy completion of a partial assignment: remaining
        agents keep their depot when its slot is still free, otherwise they
        take the first free one."""
        slots = _free_slots(self._region_view(node.state), set(node.to_assign))
        for _aid, d in node.partial:
            slots[d] -= 1
        pairs = list(node.partial)
        for agent_id in node.to_assign[len(node.partial):]:
            current = node.state.agent(agent_id).depot
            if slots.get(current, 0) > 0:
                depot = current
            else:
                depot = next(d for d in sorted(slots) if slots[d] > 0)
            slots[depot] -= 1
            pairs.append((agent_id, depot))
        return tuple(pairs)

    def _evaluate(self, node: SearchNode) -> float:
        """Total trajectory cost from the root through this node's playout."""
        state = node.state.clone()
        if node.to_assign is not None:
            apply_allocation(state, self._complete_partial(node), self.world)
        tail, _pos, _done = _play(state, self.incidents, node.chain_pos, self.world,
                                  self.params.discount, self.t0, self.end_ms,
                                  stop_after_incident=False)
        return node.cost_from_root + tail

    def run(self, iterations: int, trace=None) -> None:
        for it in range(iterations):
            node = self.root
            while True:
                if node.terminal and node.to_assign is None:
                    break
                if node.untried is None:
                    self._init_actions(node)
                if node.untried:
                    node = self._expand(node)
                    break
                if not node.children:
                    break
                node = self._select(node)
            total = self._evaluate(node)
            self.cost_lo = min(self.cost_lo, total)
            self.cost_hi = max(self.cost_hi, total)
            if trace is not None:
                top = node
                while top.parent is not None and top.parent is not self.root:
                    top = top.parent
                trace.write(f"{it},{top.inbound},{total:.6f}\n")
            while node is not None:
                node.visits += 1
                node.utility_sum -= total
                node = node.parent

    def best_descent(self) -> AllocationAction:
        """Complete assignment along best mean-cost children (decomposed mode).

        Levels the search never reached fall back to the first depot with a
        free slot, mirroring the expansion order.
        """
        pairs: list[tuple[int, int]] = []
        node = self.root
        while node.to_assign is not None and node.children:
            key, child = min(node.children.items(),
                             key=lambda kv: (kv[1].mean_cost, kv[0]))
            pairs.append(key)
            node = child
            if len(pairs) == len(self.root.to_assign):
                break
        if self.root.to_assign and len(pairs) < len(self.root.to_assign):
            probe = SearchNode(self.root.state, self.root.chain_pos, 0.0,
                               to_assign=self.root.to_assign,
                               partial=tuple(pairs))
            return AllocationAction(self._complete_partial(probe))
        return AllocationAction(tuple(pairs))


def mcts_search(rs: RegionState, chain: IncidentChain, world: World,
                params: MCTSParams, trace=None) -> MCTSResult:
    """Score the region's root allocation actions against one chain.

    The environment is deterministic given the chain, so the search
    itself is deterministic. Regions with no idle agents need no decision
    and yield an empty score map.
    """
    if params.iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not rs.state.idle_agents():
        return MCTSResult(scores={}, root=SearchNode(rs.state.clone(), 0, 0.0),
                          iterations=0)
    tree = _Tree(rs, chain, world, params)
    if tree.root.terminal:
        # empty chain: every allocation scores alike, nothing to search
        return MCTSResult(scores={}, root=tree.root, iterations=0)
    tree.run(params.iterations, trace=trace)
    if tree.decomposed:
        action = tree.best_descent()
        score = min((c.mean_cost for c in tree.root.children.values()),
                    default=0.0)
        return MCTSResult(scores={action: score}, root=tree.root,
                          iterations=params.iterations, decomposed=True)
    scores = {a: child.mean_cost for a, child in tree.root.children.items()}
    return MCTSResult(scores=scores, root=tree.root, iterations=params.iterations)


@dataclass
class RegionPlan:
    region: int
    action: AllocationAction | None  # None: keep current assignment
    score_map: ActionScoreMap = field(default_factory=ActionScoreMap)


def plan_region_allocations(state: SystemState, world: World, model: DemandModel,
                            params: MCTSParams, n_samples: int, seed,
                            regions=None, trace_dir=None) -> dict[int, RegionPlan]:
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
            trace = None
            if trace_dir is not None:
                trace = open(f"{trace_dir}/search_region{region}_chain{i}.csv", "w")
                trace.write("iteration,action,score\n")
            try:
                result = mcts_search(rs, chain, world, params, trace=trace)
            finally:
                if trace is not None:
                    trace.close()
            for action, score in result.scores.items():
                plan.score_map.add(action, score)
        means = plan.score_map.means()
        if not means:
            continue
        plan.action = min(means, key=lambda a: (means[a],
                                                a.travel_distance(rs.state, world),
                                                a.assignment))
    return plans
