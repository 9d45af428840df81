"""Decision coordinator: the single owner of the live system state.

Runs the evaluation event loop: injects incidents, enforces greedy
dispatch of the nearest free agent, triggers the planners, and handles
responder failures. Planner policy by mode (the config's `mode`):

* baseline      - never re-allocates after initialization.
* lowlevel      - per-region depot search after every incident and on
                  staleness (60 min without planning by default).
* hierarchical  - low-level plus the inter-region allocator (its μ is
                  the model's ServiceLaw.rate_per_hour), run on failures,
                  recoveries, staleness, and whenever a region's
                  effective utilization crosses a threshold.

An agent that fails mid-response finishes its current incident; the
failure window only blocks new dispatches and excludes it from
allocation during [start, start + duration), its first millisecond
included: EventKind orders the events of one millisecond, failures
first. A region's low-level plan is an assignment tuple ((agent id,
depot id), ...), applied as it is; the pass () and None change nothing.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass, field
from enum import Enum, IntEnum

from .demand import DemandModel, IncidentChain, region_rates_at
from .highlevel import _utilization, allocate
from .lowlevel import (MCTSParams, TreePool, apply_allocation, helper_count,
                       plan_region_allocations)
from .simulator import (DispatchRecord, SystemState, advance, assign_depot,
                        assign_region, depot_occupancy,
                        greedy_dispatch_pending)
from .spatial import World
from .units import MS_PER_HOUR, MS_PER_MINUTE


class PolicyMode(Enum):
    """Planner policy; the values are the config's mode names."""

    BASELINE_STATIC = "baseline"
    LOW_LEVEL_ONLY = "lowlevel"
    HIERARCHICAL = "hierarchical"


class EventKind(IntEnum):
    """Event kinds; the integer value is the tie-break priority at equal
    timestamps. A failure comes first, so its window blocks the agent
    for its whole first millisecond, as Agent.is_failed reads it; then
    freed and recovered agents become dispatchable before a simultaneous
    incident is handled; planning settles last."""

    AGENT_FAILURE = 0
    AGENT_AVAILABLE = 1
    AGENT_RECOVERY = 2
    INCIDENT_OCCURRENCE = 3
    PLANNING_STEP = 4


# An Enum member lookup such as EventKind.PLANNING_STEP costs ~178 ns on
# CPython 3.11, a global read a few ns; the event loop compares these.
_AVAILABLE = EventKind.AGENT_AVAILABLE
_RECOVERY = EventKind.AGENT_RECOVERY
_INCIDENT = EventKind.INCIDENT_OCCURRENCE
_FAILURE = EventKind.AGENT_FAILURE
_PLANNING = EventKind.PLANNING_STEP
_GC_GEN0 = 50_000  # the collector's generation-0 threshold while a run plans


@dataclass(frozen=True)
class FailureEvent:
    agent_id: int
    start_ms: int
    duration_ms: int = 8 * MS_PER_HOUR

    def __post_init__(self):
        if self.duration_ms <= 0:
            raise ValueError("failure duration must be positive")


@dataclass
class PlannerConfig:
    mcts: MCTSParams = field(default_factory=MCTSParams)
    n_samples: int = 50
    replan_interval_ms: int = 60 * MS_PER_MINUTE

    def __post_init__(self):
        if self.replan_interval_ms < 1:
            raise ValueError("replan_interval_ms must be >= 1")


@dataclass
class Transfer:
    agent_id: int
    from_region: int
    to_region: int
    depot_id: int
    time_ms: int


@dataclass
class RunResult:
    records: list[DispatchRecord]
    planner_seconds: list[float]
    transfers: list[Transfer]
    pending_at_end: int


def apply_region_rebalance(state: SystemState, old_x: dict, new_x: dict,
                           world: World) -> list[Transfer]:
    """Move idle agents from over- to under-allocated regions.

    Each transfer picks the (agent, destination) pair minimizing travel to
    the destination region's nearest open depot. Regions lacking idle
    agents simply contribute fewer transfers; the shortfall is deferred.
    """
    if sum(old_x.values()) != sum(new_x.values()):
        raise ValueError("rebalance must conserve the number of agents")
    give = {r: old_x[r] - new_x[r] for r in old_x if old_x[r] > new_x[r]}
    take = {r: new_x[r] - old_x[r] for r in new_x if new_x[r] > old_x[r]}
    transfers: list[Transfer] = []
    while take:
        movers = [a for a in state.idle_agents() if give.get(a.region, 0) > 0]
        depots = [(r_to, d.id) for r_to in take for d in world.depots_in(r_to)
                  if depot_occupancy(state, d.id) < d.capacity]
        best = min(((world.travel.travel_time(a.position, world.depot_pos(d)),
                     a.id, r_to, d, a.region) for a in movers for r_to, d in depots),
                   default=None)
        if best is None:
            break  # no idle agent can move now; defer the rest
        _t, agent_id, r_to, depot_id, r_from = best
        assign_region(state, agent_id, r_to, world)
        assign_depot(state, agent_id, depot_id, world)
        transfers.append(Transfer(agent_id, r_from, r_to, depot_id, state.clock_ms))
        give[r_from] -= 1
        take[r_to] -= 1
        if take[r_to] == 0:
            del take[r_to]
    return transfers


class Coordinator:
    """Owns one simulation run; planners receive copies and return plans."""

    def __init__(self, world: World, model: DemandModel, mode: PolicyMode,
                 planner: PlannerConfig | None = None, seed: int = 0,
                 trace=None):
        self.world = world
        self.model = model
        self.mode = mode
        self.planner = planner or PlannerConfig()
        self.seed = seed
        self.trace = trace
        self._decision_index = 0
        self._pool = None  # set while run() plans
        self._rates = {}  # spike phase -> region rates (see _region_rates)
        self._eta = model.service.rate_per_hour  # the top level's μ

    # -- event helpers -------------------------------------------------
    def _push(self, heap, time_ms, kind, payload_id, payload=None):
        # orders by (time, kind priority, payload id); seq is unique, so
        # the payload itself is never compared
        heapq.heappush(heap, (time_ms, kind, payload_id, next(self._seq), payload))

    def _log(self, time_ms, kind, agent_id="", incident_id="", detail=""):
        if self.trace is not None:
            self.trace.write(f"{time_ms / 1000:.3f},{kind.name.lower()},"
                             f"{agent_id},{incident_id},{detail}\n")

    def _record_dispatches(self, recs, result, heap):
        result.records.extend(recs)
        for rec in recs:
            self._push(heap, rec.arrive_ms + rec.incident.service_duration_ms,
                       _AVAILABLE, rec.agent_id)
            if self.trace is not None:  # skip formatting when nothing logs
                self._log(rec.dispatch_ms, _INCIDENT, rec.agent_id,
                          rec.incident.id, f"dispatched rt={rec.response_s:.3f}")

    # -- planning ------------------------------------------------------
    def _available(self, state: SystemState):
        """Per region: (agents not failed, slots not held by a failed one)."""
        counts = {r: 0 for r in self.world.partition.regions()}
        caps = dict(self.world.partition.region_slots)
        for a in state.agents:
            if a.is_failed(state.clock_ms):
                caps[a.region] -= 1
            else:
                counts[a.region] += 1
        return counts, caps

    def _region_rates(self, t_ms: int) -> dict[int, float]:
        """region_rates_at(model, partition, t_ms), once per spike phase:
        they depend on t_ms only through which spike windows contain it."""
        phase = tuple(w.start_ms <= t_ms < w.end_ms for w in self.model.spikes)
        if phase not in self._rates:
            self._rates[phase] = region_rates_at(self.model, self.world.partition, t_ms)
        return self._rates[phase]

    def _instability(self, state: SystemState) -> bool:
        counts, _caps = self._available(state)
        return any(_utilization(rate, self._eta, counts[r]) >= 1
                   for r, rate in self._region_rates(state.clock_ms).items())

    def _run_high_level(self, state: SystemState, result: RunResult) -> None:
        counts, caps = self._available(state)
        total = sum(counts.values())
        if total < 1:
            return
        alloc = allocate(self._region_rates(state.clock_ms), total, self._eta, caps=caps)
        if alloc.counts != counts:
            moved = apply_region_rebalance(state, counts, alloc.counts, self.world)
            result.transfers.extend(moved)
            for tr in moved:
                self._log(tr.time_ms, _PLANNING, tr.agent_id, "",
                          f"transfer r{tr.from_region}->r{tr.to_region} d{tr.depot_id}")

    def _run_low_level(self, state: SystemState) -> None:
        plans = plan_region_allocations(
            state, self._pool, self.planner.mcts, n_samples=self.planner.n_samples,
            seed=(self.seed, self._decision_index))
        for region in sorted(plans):
            if plans[region].action:
                apply_allocation(state, plans[region].action, self.world)

    def maybe_replan(self, state: SystemState, trigger: str,
                     result: RunResult) -> bool:
        """Invoke planners according to the policy mode; returns True if a
        planning decision was made.

        Low-level triggers: each incident, staleness. High-level triggers
        (hierarchical mode): failures, recoveries, staleness, and region
        instability, the last checked on every trigger.
        """
        if self.mode is PolicyMode.BASELINE_STATIC:
            return False
        low = trigger in ("incident", "staleness")
        high = (self.mode is PolicyMode.HIERARCHICAL
                and (trigger in ("failure", "recovery", "staleness")
                     or self._instability(state)))
        if not (low or high):
            return False
        started = time.perf_counter()
        self._decision_index += 1
        if high:
            self._run_high_level(state, result)
        self._run_low_level(state)
        result.planner_seconds.append(time.perf_counter() - started)
        return True

    # -- main loop -----------------------------------------------------
    def run(self, state: SystemState, chain: IncidentChain, horizon_ms: int,
            failures=(), observer=None) -> RunResult:
        """Drive the simulation to the horizon; returns dispatch metrics.

        observer(coordinator, state, kind) is called after each processed
        event, once the coordinator has finished acting on it.

        With a planner, the run owns a lowlevel.TreePool. A decision's
        search trees also run in its helper processes, one fewer than the
        usable cores (see lowlevel.helper_count); they fork when this
        starts and are stopped before it returns or raises. Before the fork,
        a planning run raises the collector's generation-0 threshold to
        _GC_GEN0 (not a higher one, or 0) and restores the caller's when it
        ends: search state clones would trigger passes that free nothing.
        """
        thresholds = gc.get_threshold()
        planning = self.mode is not PolicyMode.BASELINE_STATIC
        try:
            if planning:
                if 0 < thresholds[0] < _GC_GEN0:
                    gc.set_threshold(_GC_GEN0, *thresholds[1:])
                self._pool = TreePool(self.world, self.model, helper_count(
                    self.planner.n_samples * len(self.world.partition.regions())))
            return self._run(state, chain, horizon_ms, failures, observer)
        finally:
            if self._pool is not None:
                self._pool.close()
                self._pool = None
            if planning:
                gc.set_threshold(*thresholds)

    def _run(self, state, chain, horizon_ms, failures, observer) -> RunResult:
        result = RunResult(records=[], planner_seconds=[], transfers=[],
                           pending_at_end=0)
        self._seq = iter(range(10 ** 12))
        heap: list = []
        for inc in chain.incidents:
            if inc.report_time_ms < horizon_ms:
                self._push(heap, inc.report_time_ms,
                           _INCIDENT, inc.id, inc)
        for f in failures:
            self._push(heap, f.start_ms, _FAILURE, f.agent_id, f)
            self._push(heap, f.start_ms + f.duration_ms,
                       _RECOVERY, f.agent_id, f)
        self._push(heap, state.clock_ms + self.planner.replan_interval_ms,
                   _PLANNING, 0)
        last_plan_ms = state.clock_ms

        while heap:
            time_ms, kind, payload_id, _seq, payload = heapq.heappop(heap)
            if time_ms > horizon_ms:
                break
            advance(state, time_ms, self.world)
            planned = False

            if kind is _INCIDENT:
                state.pending.append(payload)
                self._log(time_ms, kind, "", payload.id, "reported")
                self._record_dispatches(
                    greedy_dispatch_pending(state, self.world), result, heap)
                planned = self.maybe_replan(state, "incident", result)
            elif kind is _AVAILABLE:
                self._log(time_ms, kind, payload_id)
                self._record_dispatches(
                    greedy_dispatch_pending(state, self.world), result, heap)
                # not a low-level trigger, but instability may surface here
                planned = self.maybe_replan(state, "availability", result)
            elif kind is _FAILURE:
                agent = state.agent(payload.agent_id)
                agent.failure_window = (payload.start_ms,
                                        payload.start_ms + payload.duration_ms)
                self._log(time_ms, kind, payload.agent_id, "",
                          f"down for {payload.duration_ms // 1000}s")
                planned = self.maybe_replan(state, "failure", result)
            elif kind is _RECOVERY:
                self._log(time_ms, kind, payload.agent_id, "", "recovered")
                self._record_dispatches(
                    greedy_dispatch_pending(state, self.world), result, heap)
                planned = self.maybe_replan(state, "recovery", result)
            elif kind is _PLANNING:
                if time_ms - last_plan_ms >= self.planner.replan_interval_ms:
                    self._log(time_ms, kind, "", "", "staleness")
                    planned = self.maybe_replan(state, "staleness", result)
                next_ms = time_ms + self.planner.replan_interval_ms
                if next_ms <= horizon_ms:
                    self._push(heap, next_ms, _PLANNING, 0)

            if planned:
                last_plan_ms = time_ms
            if observer is not None:
                observer(self, state, kind)

        advance(state, horizon_ms, self.world)
        result.pending_at_end = len(state.pending)
        return result
