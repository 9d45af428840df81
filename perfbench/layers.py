"""Per-layer tracing of hierdispatch, recorded from outside the package.

`instrument(tracer, probe)` swaps the public functions of each hierdispatch
module for timing wrappers and puts the originals back on exit; nothing
inside `src/` changes. Two kinds of wrapper exist:

* a *span* is recorded once per call (name, start, end, parent span, and
  the trace id of the seed being simulated);
* a *leaf* is a hot call. It is not recorded per call: its count, time
  and self time are added to the nearest enclosing span, so memory stays
  bounded however many calls a run makes.

A frame's self time is its duration minus the time covered by its child
frames, so the self times under a span add up to that span's duration.

Simulator calls are split by caller by patching the names each caller
module imported: `.search` wraps the names in `hierdispatch.lowlevel`,
`.live` the names in `hierdispatch.coordinator`.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "parent", "trace", "start", "end", "child_s",
                 "leaves", "owner")

    def __init__(self, id, name, parent, trace, start):
        self.id = id
        self.name = name
        self.parent = parent
        self.trace = trace
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.leaves: dict[str, list] = {}  # name -> [calls, s, self_s]
        self.owner = self

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "trace": self.trace, "start": self.start, "end": self.end,
                "self_s": self.self_s, "leaves": self.leaves}


class _LeafFrame:
    __slots__ = ("child_s", "owner")

    def __init__(self, owner):
        self.child_s = 0.0
        self.owner = owner


class Tracer:
    """Spans, leaf aggregates and plain counters of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.trace_id = None
        self._stack = [Span(-1, "root", None, None, 0.0)]

    def span(self, name, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = Span(len(spans), name, parent.owner.id, self.trace_id, clock())
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                parent.child_s += span.end - span.start
        return wrapper

    def leaf(self, name, fn):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = _LeafFrame(parent.owner)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                parent.child_s += took
                agg = frame.owner.leaves.get(name)
                if agg is None:
                    frame.owner.leaves[name] = [1, took, took - frame.child_s]
                else:
                    agg[0] += 1
                    agg[1] += took
                    agg[2] += took - frame.child_s
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def totals(self) -> dict[str, list]:
        """name -> [calls, s, self_s] over every span and leaf."""
        out: dict[str, list] = {}
        for span in self.spans:
            row = out.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.duration
            row[2] += span.self_s
            for name, (calls, s, self_s) in span.leaves.items():
                row = out.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += s
                row[2] += self_s
        return out


class _RunStats:
    """Queue and plan-gap statistics of one Coordinator.run, in sim ms."""

    def __init__(self, start_ms):
        self.last_ms = start_ms
        self.last_pending = 0
        self.plans = [start_ms]


class Probe:
    """Counters that need the program's values, not only its timing.

    Fed by the observer hook of `run_experiment`, by the result of
    `maybe_replan`, and by the result of each search tree.
    """

    def __init__(self, tracer: Tracer):
        self.counts = tracer.counts
        self.max_pending = 0
        self.max_plan_gap_ms = 0
        self.queue_wait_ms = 0
        self.root_actions: list[int] = []
        self._run: _RunStats | None = None

    def begin_run(self, start_ms):
        self._run = _RunStats(start_ms)

    def end_run(self, horizon_ms, pending_at_end):
        run = self._run
        self.queue_wait_ms += run.last_pending * (horizon_ms - run.last_ms)
        gaps = zip(run.plans, run.plans[1:] + [horizon_ms])
        self.max_plan_gap_ms = max(self.max_plan_gap_ms,
                                   max(b - a for a, b in gaps))
        self.counts["coordinator.pending_at_end"] += pending_at_end

    def observer(self, _coordinator, state, _kind):
        run = self._run
        self.counts["coordinator.events"] += 1
        self.queue_wait_ms += run.last_pending * (state.clock_ms - run.last_ms)
        run.last_ms = state.clock_ms
        run.last_pending = len(state.pending)
        self.max_pending = max(self.max_pending, run.last_pending)

    def decision(self, trigger, clock_ms, moved):
        self.counts["coordinator.decisions"] += 1
        self.counts[f"coordinator.decisions.{trigger}"] += 1
        self.counts["lowlevel.changed"] += moved
        self._run.plans.append(clock_ms)

    def tree(self, result):
        self.counts["lowlevel.search.trees"] += 1
        self.counts["lowlevel.search.iterations"] += result.iterations
        if result.scores:
            self.counts["lowlevel.search.useful"] += 1
            self.root_actions.append(len(result.root.children)
                                     + len(result.root.untried or ()))
        self.counts["lowlevel.search.decomposed"] += result.decomposed


def _placement(state):
    return [(a.region, a.depot) for a in state.agents]


@contextmanager
def instrument(tracer: Tracer, probe: Probe, sample_speed):
    """Patch hierdispatch's public functions with tracing wrappers.

    sample_speed() is called before each maybe_replan, inside a leaf of
    its own, so that the host-speed samples add to no layer's self time.
    """
    from hierdispatch import (coordinator, demand, harness, lowlevel,
                              queueing, simulator, spatial)
    saved = []

    def patch(owner, attr, wrapped):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    counts = tracer.counts
    leaf, span = tracer.leaf, tracer.span

    patch(harness, "build_scenario", span("harness.build_scenario", harness.build_scenario))
    patch(harness, "partition_regions", leaf("spatial.partition_regions", harness.partition_regions))
    patch(harness, "chain_for_seed", leaf("harness.chain_for_seed", harness.chain_for_seed))
    patch(spatial.TravelModel, "travel_time",
          tracer.counted("spatial.travel_time.calls", spatial.TravelModel.travel_time))
    patch(simulator.SystemState, "clone", leaf("simulator.clone", simulator.SystemState.clone))
    patch(demand.DemandModel, "restrict", leaf("demand.restrict", demand.DemandModel.restrict))
    patch(queueing, "mean_wait", leaf("queueing.mean_wait", queueing.mean_wait))

    assign_depot = leaf("simulator.assign_depot", simulator.assign_depot)
    for caller, side in ((lowlevel, "search"), (coordinator, "live")):
        patch(caller, "advance", leaf(f"simulator.advance.{side}", simulator.advance))
        patch(caller, "assign_depot", assign_depot)
    patch(lowlevel, "greedy_dispatch_pending",
          leaf("simulator.greedy_dispatch.search", simulator.greedy_dispatch_pending))
    live_dispatch = leaf("simulator.greedy_dispatch.live", simulator.greedy_dispatch_pending)

    def greedy_dispatch_live(state, world):
        records = live_dispatch(state, world)
        counts["simulator.dispatches.live"] += len(records)
        return records
    patch(coordinator, "greedy_dispatch_pending", greedy_dispatch_live)

    patch(lowlevel, "apply_allocation", leaf("lowlevel.apply.search", lowlevel.apply_allocation))
    patch(coordinator, "apply_allocation", leaf("lowlevel.apply.live", lowlevel.apply_allocation))
    patch(coordinator, "plan_region_allocations",
          span("lowlevel.plan", lowlevel.plan_region_allocations))
    search = span("lowlevel.search", lowlevel.mcts_search)

    def mcts_search(*args, **kwargs):
        result = search(*args, **kwargs)
        probe.tree(result)
        return result
    patch(lowlevel, "mcts_search", mcts_search)

    sample = leaf("demand.sample_chain.plan", lowlevel.sample_chain)

    def sample_chain(*args, **kwargs):
        chain = sample(*args, **kwargs)
        counts["demand.sample_chain.plan.incidents"] += len(chain.incidents)
        return chain
    patch(lowlevel, "sample_chain", sample_chain)

    patch(coordinator, "region_rates_at", leaf("demand.region_rates_at", coordinator.region_rates_at))
    patch(coordinator, "allocate", leaf("highlevel.allocate", coordinator.allocate))
    rebalance = leaf("coordinator.rebalance", coordinator.apply_region_rebalance)

    def apply_region_rebalance(*args, **kwargs):
        moved = rebalance(*args, **kwargs)
        counts["coordinator.transfers"] += len(moved)
        return moved
    patch(coordinator, "apply_region_rebalance", apply_region_rebalance)

    replan = leaf("coordinator.replan", coordinator.Coordinator.maybe_replan)
    sample_speed = leaf("perfbench.sample_speed", sample_speed)

    def maybe_replan(self, state, trigger, result):
        sample_speed()
        before = _placement(state)
        decided = replan(self, state, trigger, result)
        if decided:
            probe.decision(trigger, state.clock_ms, _placement(state) != before)
        return decided
    patch(coordinator.Coordinator, "maybe_replan", maybe_replan)

    run = span("coordinator.run", coordinator.Coordinator.run)

    def coordinator_run(self, state, chain, horizon_ms, *args, **kwargs):
        tracer.trace_id = self.seed
        probe.begin_run(state.clock_ms)
        result = run(self, state, chain, horizon_ms, *args, **kwargs)
        probe.end_run(horizon_ms, result.pending_at_end)
        return result
    patch(coordinator.Coordinator, "run", coordinator_run)

    patch(harness, "run_experiment", span("harness.run_experiment", harness.run_experiment))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, probe: Probe) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_secs(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    m: dict[str, float] = {}
    for name in ("simulator.advance.search", "simulator.greedy_dispatch.search",
                 "simulator.clone", "simulator.assign_depot",
                 "simulator.advance.live", "simulator.greedy_dispatch.live",
                 "demand.sample_chain.plan", "demand.restrict",
                 "harness.chain_for_seed", "demand.region_rates_at",
                 "queueing.mean_wait", "highlevel.allocate",
                 "coordinator.rebalance", "lowlevel.apply.live",
                 "lowlevel.apply.search", "lowlevel.plan"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
    m["simulator.dispatches.live"] = counts["simulator.dispatches.live"]
    m["spatial.travel_time.calls"] = counts["spatial.travel_time.calls"]
    m["spatial.partition_regions.s"] = secs("spatial.partition_regions")
    m["demand.sample_chain.plan.incidents"] = counts["demand.sample_chain.plan.incidents"]
    m["coordinator.transfers"] = counts["coordinator.transfers"]
    m["lowlevel.plan.self_s"] = self_secs("lowlevel.plan")

    trees = counts["lowlevel.search.trees"]
    m["lowlevel.search.trees"] = trees
    m["lowlevel.search.s"] = secs("lowlevel.search")
    m["lowlevel.search.self_s"] = self_secs("lowlevel.search")
    m["lowlevel.search.iterations"] = counts["lowlevel.search.iterations"]
    m["lowlevel.search.useful_frac"] = _ratio(counts["lowlevel.search.useful"], trees)
    m["lowlevel.search.decomposed_frac"] = _ratio(counts["lowlevel.search.decomposed"], trees)
    m["lowlevel.search.root_actions_mean"] = (
        statistics.fmean(probe.root_actions) if probe.root_actions else 0.0)

    decisions = counts["coordinator.decisions"]
    replans = calls("coordinator.replan")
    m["lowlevel.changed_frac"] = _ratio(counts["lowlevel.changed"], decisions)
    m["coordinator.run.s"] = secs("coordinator.run")
    m["coordinator.run.self_s"] = self_secs("coordinator.run")
    m["coordinator.events"] = counts["coordinator.events"]
    m["coordinator.replan.calls"] = replans
    m["coordinator.decisions"] = decisions
    m["coordinator.decide_frac"] = _ratio(decisions, replans)
    for trigger in ("incident", "availability", "staleness", "failure", "recovery"):
        m[f"coordinator.decisions.{trigger}"] = counts[f"coordinator.decisions.{trigger}"]
    m["coordinator.max_pending"] = probe.max_pending
    m["coordinator.pending_at_end"] = counts["coordinator.pending_at_end"]
    dispatched_or_left = counts["simulator.dispatches.live"] + counts["coordinator.pending_at_end"]
    m["coordinator.queue_wait_s"] = _ratio(probe.queue_wait_ms / 1000.0, dispatched_or_left)
    m["coordinator.max_plan_gap_s"] = probe.max_plan_gap_ms / 1000.0

    host = secs("harness.run_experiment")
    m["harness.build_scenario.s"] = secs("harness.build_scenario")
    m["harness.write.s"] = self_secs("harness.run_experiment")
    m["lowlevel.search.share"] = _ratio(m["lowlevel.search.s"], host)
    m["demand.share"] = _ratio(m["demand.sample_chain.plan.s"] + m["demand.restrict.s"], host)
    return m
