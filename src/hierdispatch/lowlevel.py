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

A node's actions are the joint depot assignments of its idle agents,
expanded in lexicographic order of their depot tuples. A tree adds at
most one child per iteration, so a node lists only the first
max(2, iterations) of them, made lazily: a region of any size costs no
more than that, and the search is what it would be over the full list.

Scores are discounted response-time costs (seconds), so lower is better;
node utilities are stored negated so UCB keeps its usual argmax form.
Selection normalizes the exploitation term to [0, 1] with the tree's
running cost bounds, which makes the exploration constant scale-free.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass, field

import numpy as np

from .demand import DemandModel, Incident, IncidentChain, sample_chain
from .simulator import (_RESPONDING, _SERVICING, SystemState, advance,
                        assign_depot, greedy_dispatch_pending)
from .spatial import Depot, World
from .units import MS_PER_HOUR


def _travel(assignment, positions: dict, world: World) -> float:
    """Miles of the assignment's moves, summed in its order; positions by agent id."""
    total = 0.0
    for agent_id, depot_id in assignment:
        pos = positions[agent_id]
        dest = world.depot_pos(depot_id)
        total += math.hypot(dest[0] - pos[0], dest[1] - pos[1])
    return total


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
    return math.perm(num_depots, num_agents)


def _depot_tuples(slots: dict[int, int], k: int):
    """The distinct k-tuples of depot ids that fit slots (free slots by
    depot id, ids increasing), lazily and in lexicographic order. While a
    depot has two free slots it branches on the first depot, so that no
    tuple is made twice; then itertools.permutations makes the rest."""
    free = [d for d in slots if slots[d]]
    if k == 0 or all(slots[d] == 1 for d in free):
        return itertools.permutations(free, k)

    def branches():
        for d in free:
            slots[d] -= 1
            for rest in _depot_tuples(slots, k - 1):
                yield (d,) + rest
            slots[d] += 1
    return branches()


def _joint_choices(rs: RegionState, cap: int):
    """The region's first cap joint allocations as (agent ids, depot
    tuples): action i is the assignment tuple(zip(ids, depot_tuples[i])) of
    (agent id, depot id) pairs, agent-sorted. The depot tuples are the
    distinct ones in lexicographic order of depot ids, made lazily, so a
    region of any size costs at most cap of them. ((), [()]), the pass ()
    alone, when there is nothing to decide."""
    idle = sorted(a.id for a in rs.state.idle_agents())
    slots = {d.id: d.capacity for d in sorted(rs.depots, key=lambda d: d.id)}
    for a in rs.state.agents:  # busy and failed agents keep their slot
        if a.depot in slots and a.id not in idle:
            slots[a.depot] = max(0, slots[a.depot] - 1)
    if not idle or sum(slots.values()) < len(idle):
        return (), [()]  # nothing to reshuffle; leave assignments alone
    return tuple(idle), list(itertools.islice(_depot_tuples(slots, len(idle)), cap))


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


class SearchNode:
    """One decision epoch in the tree. Nodes link only to their children: a
    dropped tree holds no reference cycle, so reference counting frees it
    at once."""

    __slots__ = ("state", "chain_pos", "cost_from_root", "visits", "utility_sum",
                 "children", "untried", "terminal", "idle_ids", "tail")

    def __init__(self, state, chain_pos, cost_from_root, terminal=False):
        self.state = state
        self.chain_pos = chain_pos
        self.cost_from_root = cost_from_root
        self.visits = 0
        self.utility_sum = 0.0
        self.children: dict = {}
        # filled lazily on first expansion visit: depot tuples of the
        # joint actions for idle_ids
        self.untried = None
        self.idle_ids = ()
        self.terminal = terminal
        self.tail = None  # playout cost of a terminal node, once known


@dataclass
class MCTSParams:
    iterations: int = 1000
    uct_c: float = 1.44
    discount: float = 0.99995
    horizon_ms: int = 2 * MS_PER_HOUR

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class MCTSResult:
    """A tree's scores. decomposed is always False, as every tree searches
    joint actions; it stays only because perfbench/layers.py reads it."""

    scores: dict[tuple, float]  # mean discounted cost per root assignment
    root: SearchNode
    iterations: int
    decomposed = False  # a class constant, not a field


def _in_window(chain: IncidentChain, t0_ms: int, horizon_ms: int) -> list[Incident]:
    """The chain's incidents reported in [t0, t0 + horizon)."""
    end_ms = t0_ms + horizon_ms
    return [i for i in chain.incidents if t0_ms <= i.report_time_ms < end_ms]


class _Tree:
    def __init__(self, rs: RegionState, chain: IncidentChain, world: World,
                 params: MCTSParams, root_choices=...):
        self.world = world
        self.params = params
        self.t0 = rs.state.clock_ms
        self.end_ms = self.t0 + params.horizon_ms
        self.region = rs.region
        self.depots = rs.depots
        self.incidents = _in_window(chain, self.t0, params.horizon_ms)
        self.root = SearchNode(rs.state.clone(), 0, 0.0,
                               terminal=not self.incidents)
        self.cost_lo = math.inf
        self.cost_hi = -math.inf
        if root_choices is not ...:  # a copy: _expand pops, sibling trees share
            self.root.idle_ids = root_choices[0]
            self.root.untried = list(root_choices[1])

    def _expand(self, node: SearchNode) -> SearchNode:
        action = tuple(zip(node.idle_ids, node.untried.pop(0)))
        state = node.state.clone()
        apply_allocation(state, action, self.world)
        cost, pos, done = _play(state, self.incidents, node.chain_pos, self.world,
                                self.params.discount, self.t0, self.end_ms,
                                stop_after_incident=True)
        child = SearchNode(state, pos, node.cost_from_root + cost, terminal=done)
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

    def _evaluate(self, node: SearchNode) -> float:
        """Total trajectory cost from the root through this node's playout.

        A terminal node's state never changes, so its playout runs once;
        with nothing pending it costs 0.0, which is what _play gives.
        """
        if node.terminal:
            if node.tail is None:
                node.tail = 0.0
                if node.state.pending:
                    node.tail = _play(node.state.clone(), self.incidents,
                                      node.chain_pos, self.world,
                                      self.params.discount, self.t0, self.end_ms,
                                      stop_after_incident=False)[0]
            return node.cost_from_root + node.tail
        tail, _pos, _done = _play(node.state.clone(), self.incidents, node.chain_pos,
                                  self.world, self.params.discount, self.t0,
                                  self.end_ms, stop_after_incident=False)
        return node.cost_from_root + tail

    def run(self, iterations: int) -> None:
        for _ in range(iterations):
            node = self.root
            path = [node]
            while not node.terminal:
                if node.untried is None:  # a node's actions, once it is reached
                    view = RegionState(self.region, node.state, self.depots)
                    node.idle_ids, node.untried = _joint_choices(
                        view, max(2, self.params.iterations))
                if node.untried:
                    node = self._expand(node)
                    path.append(node)
                    break
                node = self._select(node)
                path.append(node)
            total = self._evaluate(node)
            self.cost_lo = min(self.cost_lo, total)
            self.cost_hi = max(self.cost_hi, total)
            for node in path:
                node.visits += 1
                node.utility_sum -= total


def mcts_search(rs: RegionState, chain: IncidentChain, world: World,
                params: MCTSParams, root_choices=...) -> MCTSResult:
    """Score the region's root allocation actions against one chain,
    keyed by assignment tuple ((agent id, depot id), ...), () the pass.

    The environment is deterministic given the chain, so the search
    itself is deterministic. Regions with no idle agents need no decision
    and yield an empty score map. Every node lists the first
    max(2, params.iterations) of its joint actions, all that the tree's
    iterations can expand (see the module docstring); root_choices, when
    given, is that list for rs, shared by the region's trees; otherwise
    the tree works it out itself.
    """
    if not rs.state.idle_agents():
        return MCTSResult(scores={}, root=SearchNode(rs.state.clone(), 0, 0.0),
                          iterations=0)
    tree = _Tree(rs, chain, world, params, root_choices)
    if tree.root.terminal:
        # empty chain: every allocation scores alike, nothing to search
        return MCTSResult(scores={}, root=tree.root, iterations=0)
    tree.run(params.iterations)
    # mean cost per root action; every expanded child has been visited
    scores = {a: -child.utility_sum / child.visits
              for a, child in tree.root.children.items()}
    return MCTSResult(scores=scores, root=tree.root, iterations=params.iterations)


def _claims(counter, order: list[int]):
    """Task indices in order, each taken by the process whose turn on the
    shared counter it is, until the counter passes the end."""
    while True:
        with counter.get_lock():
            k = counter.value
            counter.value = k + 1
        if k >= len(order):
            return
        yield order[k]


def _helper(conn, counter, pool: TreePool, inherited) -> None:
    """A helper's loop: take a decision's (region state, sample index)
    list, claim and run trees, send back (index, scores) pairs or the
    exception a tree raised."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles ^C
    for other in inherited:  # so a dead caller reads as EOF here
        other.close()
    while True:
        try:
            tasks, order, params, seed = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        # root choices are worked out here, once per region: cheaper than
        # pickling them (up to params.iterations depot tuples)
        choices = {}
        try:
            reply = ("ok", [(k, pool._search(*tasks[k], seed, params, choices))
                            for k in _claims(counter, order)])
        except Exception as exc:  # noqa: BLE001 - re-raised by the caller
            tb = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # noqa: BLE001 - it cannot travel as it is
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            reply = ("error", exc, tb)
        conn.send(reply)


def helper_count(max_tasks: int) -> int:
    """Helpers worth forking for decisions of at most max_tasks trees: one
    fewer than the usable cores, 0 where the fork start method is missing."""
    # imported here: runs without a planner never need it, and importing
    # it adds ~0.7 MB to their peak RSS
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return 0
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return max(0, min(cores, max_tasks) - 1)


class TreePool:
    """Runs a decision's search trees on the caller and forked helpers.

    Root parallelisation: every tree is independent. A task is (region
    state, sample index), and the process that claims it does all of its
    work (see _search): it samples that chain and scores it, deciding a
    region with a single feasible action without a tree. The caller and
    each helper take task indices from one shared counter until it passes
    the end, and results are placed by index, so what a decision returns
    does not depend on which process ran a task. A pool serves one world
    and one demand model, restricted to each region once; the helpers fork
    when the pool is made and inherit both, so only the tasks are pickled.
    Replies hold builtins only: scores keyed by assignment tuple. A process
    that has other threads forks none and runs every task itself.
    """

    def __init__(self, world: World, model: DemandModel, helpers: int):
        self.world = world
        self.model = model
        self.restricted = {r: model.restrict(world.partition.cells_of(r))
                           for r in world.partition.regions()}
        self._workers: list = []  # (process, connection)
        if helpers < 1 or threading.active_count() > 1:
            return  # forking a process that has threads is unsafe
        import multiprocessing  # see helper_count
        ctx = multiprocessing.get_context("fork")
        self._next = ctx.Value("i", 0)
        try:
            for _ in range(helpers):
                mine, theirs = ctx.Pipe()
                inherited = [conn for _proc, conn in self._workers] + [mine]
                proc = ctx.Process(target=_helper, daemon=True,
                                   args=(theirs, self._next, self, inherited))
                proc.start()
                theirs.close()  # so a dead helper reads as EOF here
                self._workers.append((proc, mine))
        except BaseException:
            self.close()
            raise

    def _search(self, rs: RegionState, i: int, seed, params: MCTSParams,
                choices: dict) -> dict:
        """The scores of the tree on rs's chain i, as mcts_search gives them,
        the chain sampled here from the region's restricted model; {} when
        no incident of the chain falls in [clock, clock + horizon), as every
        action would score alike. choices holds root choices by region,
        worked out on first use and shared by the region's trees. A root
        with one depot tuple (the pass () included) scores {that
        assignment: 0.0} without a tree: the region has no other action,
        so that 0.0 is never compared with another score.
        """
        t0 = rs.state.clock_ms
        key = np.random.SeedSequence(entropy=seed, spawn_key=(rs.region, i))
        chain = sample_chain(self.restricted[rs.region], params.horizon_ms, key,
                             start_ms=t0)
        if not _in_window(chain, t0, params.horizon_ms):
            return {}
        if rs.region not in choices:
            choices[rs.region] = _joint_choices(rs, max(2, params.iterations))
        root = choices[rs.region]
        if len(root[1]) == 1:
            return {tuple(zip(root[0], root[1][0])): 0.0}
        return mcts_search(rs, chain, self.world, params, root_choices=root).scores

    def run(self, tasks, params: MCTSParams, seed) -> list:
        """Each (region state, sample index) task's scores, in task order;
        seed is the decision's chain seed (see plan_region_allocations)."""
        choices = {}  # this process's root choices by region
        if not self._workers or len(tasks) < 2:
            return [self._search(*task, seed, params, choices) for task in tasks]
        try:
            self._next.value = 0  # helpers wait on their pipe: no one claims
            # the costliest trees first (the region's rate x its agents
            # predicts a tree's time), so that no process ends on a long one
            order = sorted(range(len(tasks)), key=lambda k: -float(
                self.restricted[tasks[k][0].region].rates.sum())
                * len(tasks[k][0].state.agents))
            payload = pickle.dumps((tasks, order, params, seed),
                                   pickle.HIGHEST_PROTOCOL)
            for _proc, conn in self._workers:
                conn.send_bytes(payload)
            results = [None] * len(tasks)
            for k in _claims(self._next, order):
                results[k] = self._search(*tasks[k], seed, params, choices)
            for proc, conn in self._workers:
                try:
                    reply = conn.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(f"search helper {proc.pid} died with "
                                       f"exit code {proc.exitcode}") from None
                if reply[0] == "error":
                    _tag, exc, tb = reply
                    raise exc from RuntimeError(f"in search helper {proc.pid}:\n{tb}")
                for k, scores in reply[1]:
                    results[k] = scores
            return results
        except BaseException:
            self.close()  # helpers may be mid-tree
            raise

    def close(self) -> None:
        """Stop every helper; later runs take place in this process."""
        workers, self._workers = self._workers, []
        for proc, conn in workers:
            conn.close()
            proc.kill()
            proc.join()


@dataclass
class RegionPlan:
    region: int
    action: tuple | None  # the chosen assignment; None: keep the current one
    scores: dict[tuple, list[float]] = field(default_factory=dict)  # one per tree


def plan_region_allocations(state: SystemState, world: World, model: DemandModel,
                            params: MCTSParams, n_samples: int, seed,
                            regions=None, pool: TreePool | None = None
                            ) -> dict[int, RegionPlan]:
    """Root-parallel planning for every region: sample n chains per region,
    run one search tree per chain, average the per-action scores, and pick
    the cheapest action.

    Chains are region-restricted: demand comes only from the region's own
    cells. seed is an int or tuple of ints (SeedSequence entropy); the
    per-chain streams are derived from it, so the whole plan is
    reproducible. Ties on mean score prefer the action with the least
    added travel, then the lexicographically smallest assignment. Actions
    are assignment tuples, as mcts_search keys them: a plan's action is
    one, and its scores map each to the score of every tree that scored
    it. Regions with no idle agents get action None.

    Every region with idle agents becomes n_samples (region state, sample
    index) tasks, and TreePool._search does each task's work: it samples
    the chain, skips a chain with no incident inside the horizon, and
    decides a region with a single feasible action without a tree. A
    region none of whose chains has such an incident gets action None.

    The trees run through pool when one is given (made for this world and
    model), in this process otherwise; the plan is the same either way.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if pool is None:
        pool = TreePool(world, model, 0)
    elif pool.world is not world:
        raise ValueError("the pool was made for another world")
    elif pool.model is not model:
        raise ValueError("the pool was made for another model")
    if regions is None:
        regions = world.partition.regions()
    plans: dict[int, RegionPlan] = {}
    tasks = []
    for region in sorted(regions):
        rs = decompose(state, region, world)
        plans[region] = RegionPlan(region=region, action=None)
        if not rs.state.idle_agents():
            continue
        tasks.extend((rs, i) for i in range(n_samples))
    for (rs, _i), scores in zip(tasks, pool.run(tasks, params, seed)):
        plan_scores = plans[rs.region].scores
        for assignment, score in scores.items():
            plan_scores.setdefault(assignment, []).append(score)
    for rs in {rs.region: rs for rs, _i in tasks}.values():
        plan = plans[rs.region]
        if not plan.scores:
            continue
        means = {a: sum(v) / len(v) for a, v in plan.scores.items()}
        # the (mean, travel, assignment) minimum; travel only for the tied
        best = min(means.values())
        positions = {a.id: a.position for a in rs.state.agents}
        plan.action = min((a for a in means if means[a] == best),
                          key=lambda a: (_travel(a, positions, world), a))
    return plans
