import gc
import io

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierdispatch import (Agent, Coordinator, DemandModel, Depot, FailureEvent,
                          Incident, IncidentChain, MCTSParams, PlannerConfig,
                          PolicyMode, ServiceLaw, SystemState, TravelModel, World,
                          allocate, apply_region_rebalance, make_grid,
                          partition_regions)
from hierdispatch import coordinator, lowlevel
from hierdispatch.coordinator import EventKind
from hierdispatch.simulator import AgentStatus, dispatch
from hierdispatch.units import MS_PER_HOUR, MS_PER_MINUTE

from conftest import build_world, fresh_state, waiting_agent


def incident(inc_id, cell, report_ms, service_ms=20 * MS_PER_MINUTE):
    return Incident(id=inc_id, cell=cell, report_time_ms=report_ms,
                    service_duration_ms=service_ms)


def chain(*incidents, horizon_ms=4 * MS_PER_HOUR):
    return IncidentChain(incidents=list(incidents), horizon_ms=horizon_ms)


def two_region_world():
    return build_world(width=10, depot_xy=((0, 0), (2, 0), (7, 0), (9, 0)), k=2)


def small_planner(**kwargs):
    return PlannerConfig(mcts=MCTSParams(iterations=kwargs.pop("iterations", 8)),
                         n_samples=kwargs.pop("n_samples", 1), **kwargs)


def make_coord(world, mode=PolicyMode.BASELINE_STATIC, rates=None, **kwargs):
    if rates is None:
        rates = np.full(len(world.cells), 0.05)
    model = DemandModel(rates=np.asarray(rates, dtype=float))
    return Coordinator(world, model, mode, planner=small_planner(), **kwargs)


class TestGreedyDispatch:
    def test_nearest_idle_dispatched(self, line_world):
        coord = make_coord(line_world)
        state = fresh_state(line_world, [0, 1])  # x=0.5 and x=9.5
        c = chain(incident(0, cell=3, report_ms=1000))
        result = coord.run(state, c, horizon_ms=MS_PER_HOUR)
        assert [r.agent_id for r in result.records] == [0]

    def test_tie_goes_to_lower_id(self):
        world = build_world(depot_xy=((0, 0), (4, 0)))
        coord = make_coord(world)
        state = fresh_state(world, [0, 1])
        c = chain(incident(0, cell=2, report_ms=0))
        result = coord.run(state, c, horizon_ms=MS_PER_HOUR)
        assert result.records[0].agent_id == 0

    def test_queued_until_agent_frees(self, line_world):
        coord = make_coord(line_world)
        state = fresh_state(line_world, [0])
        first = incident(0, cell=0, report_ms=0, service_ms=20 * MS_PER_MINUTE)
        second = incident(1, cell=0, report_ms=60_000)
        result = coord.run(state, chain(first, second), horizon_ms=2 * MS_PER_HOUR)
        assert len(result.records) == 2
        rec = result.records[1]
        assert rec.dispatch_ms == 20 * MS_PER_MINUTE  # when service ends
        assert rec.response_s == pytest.approx(20 * 60 - 60)

    def test_conservation(self, line_world):
        coord = make_coord(line_world)
        state = fresh_state(line_world, [0, 1])
        incs = [incident(i, cell=(7 * i) % 10, report_ms=i * 7 * MS_PER_MINUTE)
                for i in range(12)]
        result = coord.run(state, chain(*incs), horizon_ms=2 * MS_PER_HOUR)
        ids = [r.incident.id for r in result.records]
        assert len(ids) == len(set(ids))
        assert len(ids) + result.pending_at_end == len(incs)


class TestBaselineMode:
    def test_never_plans(self, line_world):
        coord = make_coord(line_world)
        state = fresh_state(line_world, [0, 1])
        incs = [incident(i, cell=i, report_ms=i * 30 * MS_PER_MINUTE)
                for i in range(6)]
        result = coord.run(state, chain(*incs), horizon_ms=4 * MS_PER_HOUR)
        assert result.planner_seconds == []
        assert result.transfers == []

    def test_invariant_to_planner_parameters(self, line_world):
        incs = [incident(i, cell=(3 * i) % 10, report_ms=i * 11 * MS_PER_MINUTE)
                for i in range(8)]

        def run_with(iterations, n_samples):
            model = DemandModel(rates=np.full(10, 0.05))
            coord = Coordinator(line_world, model, PolicyMode.BASELINE_STATIC,
                                planner=PlannerConfig(
                                    mcts=MCTSParams(iterations=iterations),
                                    n_samples=n_samples))
            state = fresh_state(line_world, [0, 1])
            result = coord.run(state, chain(*incs), horizon_ms=4 * MS_PER_HOUR)
            return [(r.incident.id, r.agent_id, r.response_s)
                    for r in result.records]

        assert run_with(5, 1) == run_with(500, 20)


class TestStaleness:
    def test_fires_once_in_61_minutes(self, line_world):
        model = DemandModel(rates=np.full(10, 0.05))
        coord = Coordinator(line_world, model, PolicyMode.LOW_LEVEL_ONLY,
                            planner=small_planner())
        state = fresh_state(line_world, [0, 1])
        result = coord.run(state, chain(), horizon_ms=61 * MS_PER_MINUTE)
        assert len(result.planner_seconds) == 1

    def test_no_incident_no_early_replan(self, line_world):
        model = DemandModel(rates=np.full(10, 0.05))
        coord = Coordinator(line_world, model, PolicyMode.LOW_LEVEL_ONLY,
                            planner=small_planner())
        state = fresh_state(line_world, [0, 1])
        result = coord.run(state, chain(), horizon_ms=59 * MS_PER_MINUTE)
        assert result.planner_seconds == []

    @pytest.mark.parametrize("interval_ms", [0, -1])
    def test_interval_below_1_ms_rejected(self, interval_ms):
        # the run would push its planning tick at one millisecond forever
        with pytest.raises(ValueError, match="replan_interval_ms must be >= 1"):
            PlannerConfig(replan_interval_ms=interval_ms)


class TestFailures:
    def test_mid_response_failure_completes_incident(self, line_world):
        coord = make_coord(line_world)
        state = fresh_state(line_world, [0])
        inc = incident(0, cell=5, report_ms=0)  # arrive at 600 s
        fail = FailureEvent(agent_id=0, start_ms=60_000,
                            duration_ms=2 * MS_PER_HOUR)
        result = coord.run(state, chain(inc), horizon_ms=4 * MS_PER_HOUR,
                           failures=[fail])
        assert len(result.records) == 1  # still served

    def test_failed_agent_not_dispatched_until_recovery(self, line_world):
        coord = make_coord(line_world)
        state = fresh_state(line_world, [0])
        fail = FailureEvent(agent_id=0, start_ms=0, duration_ms=MS_PER_HOUR)
        inc = incident(0, cell=0, report_ms=10 * MS_PER_MINUTE)
        result = coord.run(state, chain(inc), horizon_ms=4 * MS_PER_HOUR,
                           failures=[fail])
        assert len(result.records) == 1
        assert result.records[0].dispatch_ms == MS_PER_HOUR  # at recovery
        assert result.records[0].response_s == pytest.approx(50 * 60)


class TestEventOrder:
    """Ties at one millisecond are settled by event kind."""

    def test_failure_before_incident_at_same_ms(self, line_world):
        # the failure window opens before the report is handled, so the
        # window blocks its first millisecond too: the incident waits it out
        coord = make_coord(line_world)
        state = fresh_state(line_world, [0])
        inc = incident(0, cell=5, report_ms=10 * MS_PER_MINUTE)
        fail = FailureEvent(agent_id=0, start_ms=10 * MS_PER_MINUTE,
                            duration_ms=MS_PER_HOUR)
        result = coord.run(state, chain(inc), horizon_ms=4 * MS_PER_HOUR,
                           failures=[fail])
        [rec] = result.records
        assert (rec.agent_id, rec.dispatch_ms) == (0, 70 * MS_PER_MINUTE)
        # the hour-long window, then five miles at 30 mph
        assert rec.response_s == pytest.approx(3600.0 + 600.0)
        agent = state.agent(0)  # served and back home: nothing outstanding
        assert agent.status is AgentStatus.WAITING and agent.incident is None

    def test_available_logged_before_report_at_same_ms(self, line_world):
        trace = io.StringIO()
        coord = make_coord(line_world, trace=trace)
        state = fresh_state(line_world, [0])
        first = incident(0, cell=0, report_ms=0, service_ms=20 * MS_PER_MINUTE)
        second = incident(1, cell=0, report_ms=20 * MS_PER_MINUTE)
        coord.run(state, chain(first, second), horizon_ms=MS_PER_HOUR)
        at_free = [line for line in trace.getvalue().splitlines()
                   if line.startswith("1200.000,")]
        assert at_free == ["1200.000,agent_available,0,,",
                           "1200.000,incident_occurrence,,1,reported",
                           "1200.000,incident_occurrence,0,1,dispatched rt=0.000"]


class TestRebalance:
    def test_transfer_minimizes_travel(self):
        world = two_region_world()
        state = fresh_state(world, [0, 2, 3])  # one left, two right
        left = world.partition.cell_to_region[0]
        right = world.partition.cell_to_region[9]
        old = {left: 1, right: 2}
        new = {left: 2, right: 1}
        moved = apply_region_rebalance(state, old, new, world)
        assert len(moved) == 1
        # agent at depot 2 (x=7.5) is closer to the left region's open
        # depot (id 1, x=2.5) than the agent at depot 3
        assert moved[0].agent_id == 1
        assert moved[0].depot_id == 1
        agent = state.agent(1)
        assert agent.region == left
        assert agent.status is AgentStatus.IN_TRANSIT

    def test_busy_agents_defer_transfers(self):
        world = two_region_world()
        state = fresh_state(world, [0, 2, 3])
        right = world.partition.cell_to_region[9]
        left = world.partition.cell_to_region[0]
        for agent_id in (1, 2):
            inc = incident(agent_id, cell=8, report_ms=0)
            state.pending.append(inc)
            dispatch(state, agent_id, inc, world)
        moved = apply_region_rebalance(state, {left: 1, right: 2},
                                       {left: 3, right: 0}, world)
        assert moved == []  # nobody idle on the right; deferred

    def test_conservation_required(self):
        world = two_region_world()
        state = fresh_state(world, [0, 2])
        with pytest.raises(ValueError):
            apply_region_rebalance(state, {0: 1, 1: 1}, {0: 2, 1: 1}, world)


@st.composite
def rebalances(draw):
    """(state, old counts, new counts, world): 1-3 regions, depots of
    capacity 1-2, agents idle (at home or on the way), busy or failed,
    and new counts that move up to every agent."""
    cells = make_grid(draw(st.integers(2, 6)), draw(st.integers(1, 3)))
    depot_cells = draw(st.lists(st.integers(0, len(cells) - 1), min_size=2,
                                max_size=min(6, len(cells)), unique=True))
    depots = [Depot(id=i, cell=c, capacity=draw(st.integers(1, 2)))
              for i, c in enumerate(depot_cells)]
    k = draw(st.integers(1, min(3, len(depots))))
    world = World(cells=cells, depots=depots, travel=TravelModel(30.0),
                  partition=partition_regions(cells, np.ones(len(cells)), depots, k, 0))
    slots = [d.id for d in depots for _ in range(d.capacity)]
    homes = draw(st.permutations(slots))[:draw(st.integers(1, len(slots)))]
    clock = 60_000
    agents = []
    for i, home in enumerate(homes):
        pos = world.depot_pos(home)
        agent = Agent(id=i, position=pos, destination=pos, status=AgentStatus.WAITING,
                      region=world.partition.cell_to_region[depots[home].cell], depot=home)
        kind = draw(st.sampled_from(["idle", "idle", "moving", "busy", "failed"]))
        if kind == "moving":  # on its way home from elsewhere
            agent.status = AgentStatus.IN_TRANSIT
            agent.position = world.cell_pos(draw(st.integers(0, len(cells) - 1)))
        elif kind == "busy":
            agent.status = AgentStatus.SERVICING
            agent.incident = incident(100 + i, depots[home].cell, clock)
            agent.busy_until = 2 * clock
        elif kind == "failed":
            agent.failure_window = (0, 2 * clock)
        agents.append(agent)
    regions = world.partition.regions()
    old = {r: sum(a.region == r for a in agents) for r in regions}
    targets = [draw(st.sampled_from(regions)) for _ in agents]
    new = {r: targets.count(r) for r in regions}
    return SystemState(clock, [], agents), old, new, world


@settings(max_examples=300, deadline=None)
@given(case=rebalances())
def test_rebalance_equals_reference(case):
    # the movers and open depots are listed once per transfer, and the
    # transfer is the same minimum of (travel, agent, region, depot, region)
    state, old, new, world = case
    ref_state = state.clone()
    moved = apply_region_rebalance(state, old, new, world)
    assert moved == oracles.apply_region_rebalance(ref_state, old, new, world)
    assert state.agents == ref_state.agents


class TestHierarchicalTriggers:
    def test_failure_pulls_agent_across_regions(self):
        # region 0 needs two agents for its rate; when one fails there,
        # the high level moves one over from the quiet region (the fleet
        # has depot slack, so the parked failed vehicle blocks nothing)
        world = build_world(width=10,
                            depot_xy=((0, 0), (1, 0), (3, 0), (7, 0), (9, 0)),
                            k=2)
        left = world.partition.cell_to_region[0]
        right = world.partition.cell_to_region[9]
        rates = np.zeros(10)
        for c in world.partition.cells_of(left):
            rates[c] = 5.0 / len(world.partition.cells_of(left))
        for c in world.partition.cells_of(right):
            rates[c] = 1.0 / len(world.partition.cells_of(right))
        model = DemandModel(rates=rates)
        coord = Coordinator(world, model, PolicyMode.HIERARCHICAL,
                            planner=small_planner())
        left_depots = [d.id for d in world.depots_in(left)]
        right_depots = [d.id for d in world.depots_in(right)]
        state = SystemState(clock_ms=0, pending=[], agents=[
            waiting_agent(world, 0, left_depots[0]),
            waiting_agent(world, 1, left_depots[1]),
            waiting_agent(world, 2, right_depots[0]),
            waiting_agent(world, 3, right_depots[1]),
        ])
        fail = FailureEvent(agent_id=0, start_ms=60_000,
                            duration_ms=8 * MS_PER_HOUR)
        result = coord.run(state, chain(), horizon_ms=2 * MS_PER_HOUR,
                           failures=[fail])
        cross = [t for t in result.transfers
                 if t.from_region == right and t.to_region == left]
        assert cross, "expected a transfer into the failed region"
        # the allocation after the transfer matches re-running the
        # high-level policy on the reduced fleet
        counts = {left: 0, right: 0}
        for a in state.agents:
            if not a.is_failed(state.clock_ms):
                counts[a.region] += 1
        expected = allocate({left: 5.0, right: 1.0}, 3, eta=3.0)
        assert counts == expected.counts

    def test_top_level_serves_at_the_service_laws_rate(self, monkeypatch):
        # a 30-minute service is 2 per agent-hour; the default planner
        # settings hold no rate of their own to plan the top level at
        world = two_region_world()
        model = DemandModel(rates=np.full(len(world.cells), 0.05),
                            service=ServiceLaw(mean_ms=30 * MS_PER_MINUTE))
        etas = []

        def spy(rates, total_agents, eta, caps=None):
            etas.append(eta)
            return allocate(rates, total_agents, eta, caps=caps)

        monkeypatch.setattr(coordinator, "allocate", spy)
        coord = Coordinator(world, model, PolicyMode.HIERARCHICAL,
                            planner=PlannerConfig())
        result = coord.run(fresh_state(world, [0, 1, 2, 3]), chain(),
                           horizon_ms=2 * MS_PER_MINUTE,
                           failures=[FailureEvent(agent_id=0, start_ms=60_000)])
        assert len(result.planner_seconds) == 1  # the failure's decision
        assert etas == [2.0]

    def test_baseline_ignores_failures_for_planning(self):
        world = two_region_world()
        coord = make_coord(world)
        state = fresh_state(world, [0, 1, 2, 3])
        fail = FailureEvent(agent_id=0, start_ms=60_000)
        result = coord.run(state, chain(), horizon_ms=2 * MS_PER_HOUR,
                           failures=[fail])
        assert result.transfers == []


class TestDominanceInvariant:
    def test_no_idle_agent_with_nonempty_queue(self, line_world):
        model = DemandModel(rates=np.full(10, 0.05))
        coord = Coordinator(line_world, model, PolicyMode.LOW_LEVEL_ONLY,
                            planner=small_planner())
        state = fresh_state(line_world, [0, 1])
        rng = np.random.default_rng(4)
        incs = [incident(i, int(rng.integers(0, 10)),
                         int(rng.integers(0, 3 * MS_PER_HOUR)))
                for i in range(25)]
        incs.sort(key=lambda i: i.report_time_ms)
        incs = [Incident(id=n, cell=i.cell, report_time_ms=i.report_time_ms,
                         service_duration_ms=i.service_duration_ms)
                for n, i in enumerate(incs)]

        def observer(coord, state, kind):
            if state.pending:
                assert not state.idle_agents(), \
                    f"idle agent with pending queue at {state.clock_ms}"

        result = coord.run(state, chain(*incs), horizon_ms=4 * MS_PER_HOUR,
                           observer=observer)
        assert result.records


@pytest.fixture
def caller_gc():
    """The caller's collector settings, put back after the test."""
    saved = gc.get_threshold(), gc.isenabled()
    yield
    gc.set_threshold(*saved[0])
    (gc.enable if saved[1] else gc.disable)()


def gc_run(mode, observer=None):
    """A short two-region run in mode, with two trees per decision so
    that a helper forks where there is a second core."""
    world = two_region_world()
    model = DemandModel(rates=np.full(len(world.cells), 0.05))
    coord = Coordinator(world, model, mode, planner=small_planner(n_samples=2))
    state = fresh_state(world, [0, 2])
    incs = [incident(i, cell=(3 * i) % 10, report_ms=i * 11 * MS_PER_MINUTE)
            for i in range(4)]
    return coord.run(state, chain(*incs), horizon_ms=MS_PER_HOUR,
                     observer=observer)


class TestCollectorSettings:
    """A planning run raises the collector's generation-0 threshold while
    it plans and leaves the process's settings as it found them."""

    @pytest.mark.parametrize("mode", list(PolicyMode))
    def test_settings_restored_after_run(self, caller_gc, mode):
        gc.set_threshold(700, 11, 12)
        seen = []
        gc_run(mode, lambda _c, _s, _k: seen.append(gc.get_threshold()))
        assert (gc.get_threshold(), gc.isenabled()) == ((700, 11, 12), True)
        during = ((700, 11, 12) if mode is PolicyMode.BASELINE_STATIC
                  else (coordinator._GC_GEN0, 11, 12))
        assert set(seen) == {during}

    @pytest.mark.parametrize("mode", list(PolicyMode))
    def test_settings_restored_after_raise(self, caller_gc, mode):
        gc.set_threshold(700, 11, 12)

        def fail(_coord, _state, kind):
            if kind is EventKind.INCIDENT_OCCURRENCE:  # after its decision
                raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed"):
            gc_run(mode, fail)
        assert (gc.get_threshold(), gc.isenabled()) == ((700, 11, 12), True)

    @pytest.mark.parametrize("gen0", [0, coordinator._GC_GEN0 + 1])
    def test_off_or_higher_threshold_untouched(self, caller_gc, gen0):
        gc.set_threshold(gen0, 11, 12)
        gc.disable()
        seen = []
        gc_run(PolicyMode.HIERARCHICAL,
               lambda _c, _s, _k: seen.append(gc.get_threshold()))
        assert set(seen) == {(gen0, 11, 12)}
        assert (gc.get_threshold(), gc.isenabled()) == ((gen0, 11, 12), False)

    def test_helpers_fork_under_raised_threshold(self, caller_gc, monkeypatch):
        gc.set_threshold(700, 11, 12)
        built = []
        init = lowlevel.TreePool.__init__

        def recording_init(pool, *args, **kwargs):
            built.append(gc.get_threshold())
            init(pool, *args, **kwargs)

        monkeypatch.setattr(lowlevel.TreePool, "__init__", recording_init)
        gc_run(PolicyMode.LOW_LEVEL_ONLY)
        assert built == [(coordinator._GC_GEN0, 11, 12)]
