"""Scenario configuration, experiment orchestration, and result files.

A scenario is a YAML file naming the grid, depots, demand surface, fleet,
policy mode, test bed, and planner hyper-parameters. Every run writes

* incidents_seed<k>.csv - one row per dispatched incident,
* summary.csv           - pooled distribution statistics,
* report.json           - machine-readable report incl. chain fingerprints.

Seeds fully determine the incident chains and planner sampling, so two
runs of the same config and seed produce identical incident files; the
planner_mean_s column in summary.csv is wall-clock time and is the one
field excluded from byte-for-byte comparisons.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime

import numpy as np
import yaml

from .coordinator import (Coordinator, FailureEvent, PlannerConfig,
                          PolicyMode)
from .demand import DemandModel, ServiceLaw, SpikeWindow, fit_rates, sample_chain
from .highlevel import allocate_for_partition
from .lowlevel import MCTSParams
from .simulator import Agent, AgentStatus, SystemState
from .spatial import (Depot, RegionPartition, TravelModel, World, make_grid,
                      partition_regions)
from .units import MS_PER_HOUR, MS_PER_MINUTE, hours_to_ms, seconds_to_ms


class ConfigError(ValueError):
    pass


class ChainMismatch(ValueError):
    """compare() was given reports produced from different evaluation chains."""


_TEST_BEDS = ("stationary", "nonstationary", "failures")


@dataclass
class ScenarioConfig:
    grid_width: int
    grid_height: int
    depot_file: str
    cell_size_miles: float = 1.0
    num_agents: int = 26
    num_regions: int = 5
    mode: str = "baseline"
    test_bed: str = "stationary"
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    horizon_hours: float = 24.0
    partition_seed: int = 0
    # demand surface: uniform base plus optional hotspots, or a history file
    base_rate_per_hour: float = 0.0
    hotspots: list[dict] = field(default_factory=list)
    history_file: str | None = None
    history_horizon_hours: float | None = None
    service_minutes: float = 20.0
    service_law: str = "fixed"
    spikes: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    failure_file: str | None = None
    # planner hyper-parameters
    mcts_iterations: int = 1000
    uct_c: float = 1.44
    discount: float = 0.99995
    n_samples: int = 50
    replan_minutes: float = 60.0
    speed_mph: float = 30.0
    planning_horizon_hours: float = 2.0
    max_joint_actions: int = 10_000

    def validate(self) -> None:
        def need(cond, name, msg):
            if not cond:
                raise ConfigError(f"{name}: {msg}")
        def number(t, kind=numbers.Real):  # of type t; a bool is no number here
            return issubclass(t, kind) and t is not bool
        for f in fields(self):  # types first: the checks below compare
            value = getattr(self, f.name)
            if f.type == "int" and not number(type(value), numbers.Integral):
                raise ConfigError(f"{f.name}: must be an integer, not {value!r}")
            if (f.type.startswith("float") and not number(type(value))
                    and not (value is None and "None" in f.type)):
                raise ConfigError(f"{f.name}: must be a number, not {value!r}")
            # compared, not math.isfinite(): float() of a huge int overflows
            if (f.type.startswith("float") and value is not None
                    and not -math.inf < value < math.inf):
                raise ConfigError(f"{f.name}: must be finite, not {value!r}")
        need(isinstance(self.seeds, list)  # each type once: seeds can be many
             and all(number(t, numbers.Integral) for t in set(map(type, self.seeds))),
             "seeds", "must be a list of integers")
        need(self.grid_width >= 1, "grid_width", "must be >= 1")
        need(self.grid_height >= 1, "grid_height", "must be >= 1")
        need(self.cell_size_miles > 0, "cell_size_miles", "must be positive")
        need(bool(self.depot_file), "depot_file", "is required")
        need(self.num_agents >= 1, "num_agents", "must be >= 1")
        need(self.num_regions >= 1, "num_regions", "must be >= 1")
        modes = sorted(m.value for m in PolicyMode)
        need(self.mode in modes, "mode", f"must be one of {modes}")
        need(self.test_bed in _TEST_BEDS, "test_bed",
             f"must be one of {_TEST_BEDS}")
        need(len(self.seeds) >= 1, "seeds", "need at least one seed")
        need(self.horizon_hours > 0, "horizon_hours", "must be positive")
        need(self.base_rate_per_hour >= 0, "base_rate_per_hour", "must be >= 0")
        has_demand = (self.base_rate_per_hour > 0 or self.hotspots
                      or self.history_file)
        need(has_demand, "base_rate_per_hour",
             "no demand: set base_rate_per_hour, hotspots, or history_file")
        if self.history_file:
            need(self.history_horizon_hours is not None, "history_horizon_hours",
                 "required with history_file")
        if self.history_horizon_hours is not None:
            need(self.history_horizon_hours > 0, "history_horizon_hours",
                 "must be positive")
        need(self.service_minutes > 0, "service_minutes", "must be positive")
        need(self.service_law in ("fixed", "exponential"), "service_law",
             "must be 'fixed' or 'exponential'")
        if self.test_bed == "nonstationary":
            need(bool(self.spikes), "spikes",
                 "nonstationary test bed requires spike windows")
        if self.test_bed == "failures":
            need(bool(self.failures) or self.failure_file, "failures",
                 "failures test bed requires a failure list or failure_file")
        for i, spike in enumerate(self.spikes):
            _check_spike(self, f"spikes[{i}]", spike)
        for i, hotspot in enumerate(self.hotspots):
            _check_hotspot(self, f"hotspots[{i}]", hotspot)
        for i, failure in enumerate(self.failures):
            _check_failure(f"failures[{i}]", failure)
        need(self.mcts_iterations >= 1, "mcts_iterations", "must be >= 1")
        need(self.n_samples >= 1, "n_samples", "must be >= 1")
        need(self.max_joint_actions >= 1, "max_joint_actions", "must be >= 1")
        need(0 < self.discount <= 1, "discount", "must be in (0, 1]")
        need(self.uct_c >= 0, "uct_c", "must be >= 0")
        need(self.replan_minutes > 0, "replan_minutes", "must be positive")
        need(self.speed_mph > 0, "speed_mph", "must be positive")
        need(self.planning_horizon_hours > 0, "planning_horizon_hours",
             "must be positive")
        for key in ("horizon_hours", "planning_horizon_hours"):
            # event times are int64 ms, up to the clock plus the planning window
            need(getattr(self, key) * MS_PER_HOUR < 2**62, key,
                 "must be below 2**62 ms")

    @property
    def eta_per_hour(self) -> float:
        return 60.0 / self.service_minutes


def _check_spike(cfg: ScenarioConfig, name: str, s):
    """The spike's (start_ms, end_ms, multiplier, region, cells); a
    ConfigError naming it unless it has its keys, finite hours with start <
    end, a finite multiplier >= 1, and a region or (gx, gy) cells that
    exist."""
    try:
        start = hours_to_ms(float(s["start_hour"]))
        end = hours_to_ms(float(s["end_hour"]))
        mult = float(s["multiplier"])
        region = int(s["region"]) if "region" in s else None
        cells = ([] if region is not None
                 else [(int(gx), int(gy)) for gx, gy in s["cells"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: needs finite start_hour, end_hour, multiplier "
                          "and 'region' or 'cells'") from exc
    if start >= end:
        raise ConfigError(f"{name}: start_hour must be before end_hour")
    if not 1 <= mult < math.inf:
        raise ConfigError(f"{name}: multiplier must be finite and >= 1")
    if region is not None and region not in range(cfg.num_regions):
        raise ConfigError(f"{name}: region {region} is not in "
                          f"range(num_regions={cfg.num_regions})")
    for gx, gy in cells:
        if not (0 <= gx < cfg.grid_width and 0 <= gy < cfg.grid_height):
            raise ConfigError(f"{name}: cell ({gx},{gy}) outside grid")
    return start, end, mult, region, cells


def _check_hotspot(cfg: ScenarioConfig, name: str, h):
    """The hotspot's (gx, gy, rate_per_hour); a ConfigError naming it
    unless gx, gy lie inside the grid and rate_per_hour is a finite number
    >= 0."""
    try:
        gx, gy, rate = int(h["gx"]), int(h["gy"]), float(h["rate_per_hour"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: needs gx, gy, rate_per_hour") from exc
    if not (0 <= gx < cfg.grid_width and 0 <= gy < cfg.grid_height):
        raise ConfigError(f"{name}: cell ({gx},{gy}) outside grid")
    if not 0 <= rate < math.inf:
        raise ConfigError(f"{name}: rate_per_hour must be finite and >= 0")
    return gx, gy, rate


def _check_failure(name: str, f) -> FailureEvent:
    """The failure's event; a ConfigError naming it unless it has agent_id,
    a finite start_hour, and a finite duration_hours of at least one
    millisecond."""
    try:
        agent_id = int(f["agent_id"])
        start_ms = hours_to_ms(float(f["start_hour"]))
        duration_ms = hours_to_ms(float(f.get("duration_hours", 8.0)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: needs agent_id, finite start_hour "
                          "and duration_hours") from exc
    if duration_ms <= 0:
        raise ConfigError(f"{name}: duration_hours must be positive")
    return FailureEvent(agent_id, start_ms, duration_ms)


def load_config(path) -> ScenarioConfig:
    with open(path) as f:
        raw = yaml.safe_load(f) or {}
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping")
    known = {f for f in ScenarioConfig.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in ("grid_width", "grid_height", "depot_file")
               if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {missing}")
    cfg = ScenarioConfig(**raw)
    cfg.validate()
    cfg._base_dir = os.path.dirname(os.path.abspath(path))
    return cfg


def _resolve(cfg: ScenarioConfig, path: str) -> str:
    base = getattr(cfg, "_base_dir", ".")
    return path if os.path.isabs(path) else os.path.join(base, path)


@dataclass
class Scenario:
    """A fully constructed problem instance ready to run."""

    config: ScenarioConfig
    world: World
    model: DemandModel
    failures: list[FailureEvent]
    horizon_ms: int


def _build_rates(cfg: ScenarioConfig, num_cells: int, width: int) -> np.ndarray:
    """Per-cell rates; a ConfigError unless some cell's rate is positive
    (a later hotspot on a cell replaces an earlier one's rate)."""
    if cfg.history_file:
        history = load_history(_resolve(cfg, cfg.history_file), width,
                               cfg.grid_height)
        rates = fit_rates(history, cfg.history_horizon_hours, num_cells).rates
    else:
        rates = np.full(num_cells, float(cfg.base_rate_per_hour))
        for i, h in enumerate(cfg.hotspots):
            gx, gy, rate = _check_hotspot(cfg, f"hotspots[{i}]", h)
            rates[gy * width + gx] = rate
    if not rates.sum() > 0:
        raise ConfigError(f"{'history_file' if cfg.history_file else 'hotspots'}: "
                          "no demand, every cell's rate is 0")
    return rates


def _build_spikes(cfg: ScenarioConfig, partition: RegionPartition,
                  width: int) -> list[SpikeWindow]:
    """The config's spike windows."""
    spikes = []
    for i, s in enumerate(cfg.spikes):
        start_ms, end_ms, mult, region, cells = _check_spike(cfg, f"spikes[{i}]", s)
        if region is not None:
            ids = frozenset(c for c, r in partition.cell_to_region.items()
                            if r == region)
        else:
            ids = frozenset(gy * width + gx for gx, gy in cells)
        spikes.append(SpikeWindow(cells=ids, start_ms=start_ms, end_ms=end_ms,
                                  multiplier=mult))
    return spikes


def _build_failures(cfg: ScenarioConfig) -> list[FailureEvent]:
    """The failure events of the config and of its failure file."""
    failures = [_check_failure(f"failures[{i}]", f)
                for i, f in enumerate(cfg.failures)]
    if cfg.failure_file:
        failures.extend(load_failure_schedule(_resolve(cfg, cfg.failure_file)))
    return sorted(failures, key=lambda f: (f.start_ms, f.agent_id))


def _rows(path, what: str, columns: tuple[str, ...]):
    """A reader per row of a CSV file that has the given columns.

    read(key, parse, need, ok) returns parse(row[key]) if it raises no
    TypeError, ValueError or OverflowError and ok accepts it; otherwise it
    raises a ConfigError naming the file, the row (counted from 1 after
    the header), the key, and what the value must be (need).
    """
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or not set(columns).issubset(reader.fieldnames):
            raise ConfigError(f"{what} file {path}: expected columns {sorted(columns)}")
        for n, row in enumerate(reader, start=1):
            def read(key, parse, need, ok=lambda _value: True):
                try:
                    value = parse(row[key])
                    if ok(value):
                        return value
                except (TypeError, ValueError, OverflowError):
                    pass
                raise ConfigError(f"{what} file {path} row {n}: {key} "
                                  f"{row[key]!r} must be {need}")
            yield read


def _cell(read, width: int, height: int) -> int:
    """The row-major id of a row's gx, gy cell on a width x height grid."""
    gx = read("gx", int, f"an integer in range({width})", range(width).__contains__)
    gy = read("gy", int, f"an integer in range({height})", range(height).__contains__)
    return gy * width + gx


def load_depot_file(path, width: int, height: int) -> list[Depot]:
    """Read depot_id,gx,gy,capacity rows into depots on a width x height
    grid. A bad row raises a ConfigError naming the file, the row and the
    key (see _rows)."""
    depots: dict[int, Depot] = {}
    for read in _rows(path, "depot", ("depot_id", "gx", "gy", "capacity")):
        depot_id = read("depot_id", int, "an integer no earlier row has",
                        lambda i: i not in depots)
        cell = _cell(read, width, height)
        capacity = read("capacity", int, "an integer >= 1", lambda c: c >= 1)
        depots[depot_id] = Depot(id=depot_id, cell=cell, capacity=capacity)
    return list(depots.values())


def load_history(path, width: int, height: int) -> list[tuple[int, int]]:
    """Read incident_id,timestamp_iso8601,gx,gy rows into (cell, ms) pairs,
    timestamps measured from the earliest record. A bad row raises a
    ConfigError naming the file, the row and the key (see _rows); so does
    a UTC offset where row 1 has none, or the reverse (no order exists)."""
    rows, aware = [], None  # aware: row 1's timestamp has a UTC offset
    for read in _rows(path, "history", ("incident_id", "timestamp_iso8601", "gx", "gy")):
        ts = read("timestamp_iso8601", datetime.fromisoformat, "an ISO 8601 "
                  "time, with a UTC offset if and only if row 1 has one",
                  lambda t: aware in (None, t.utcoffset() is not None))
        aware = ts.utcoffset() is not None
        rows.append((ts, _cell(read, width, height)))
    t0 = min((ts for ts, _cell_id in rows), default=None)
    return [(cell, seconds_to_ms((ts - t0).total_seconds())) for ts, cell in rows]


def load_failure_schedule(path) -> list[FailureEvent]:
    """Read agent_id,start_time_s,duration_s rows. A bad row raises a
    ConfigError naming the file, the row and the key (see _rows)."""
    def ms(seconds):
        return seconds_to_ms(float(seconds))
    return [FailureEvent(read("agent_id", int, "an integer"),
                         read("start_time_s", ms, "a number"),
                         read("duration_s", ms, "a number of seconds that "
                              "rounds to 1 ms or more", lambda d: d > 0))
            for read in _rows(path, "failure",
                              ("agent_id", "start_time_s", "duration_s"))]


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    cfg.validate()
    cells = make_grid(cfg.grid_width, cfg.grid_height, cfg.cell_size_miles)
    depots = load_depot_file(_resolve(cfg, cfg.depot_file), cfg.grid_width,
                             cfg.grid_height)
    if cfg.num_agents > sum(d.capacity for d in depots):
        raise ConfigError("num_agents: exceeds total depot capacity")
    if cfg.num_regions > len(depots):
        raise ConfigError(f"num_regions: {cfg.num_regions} exceeds the "
                          f"{len(depots)} depots (every region needs one)")
    rates = _build_rates(cfg, len(cells), cfg.grid_width)
    partition = partition_regions(cells, rates, depots, cfg.num_regions,
                                  cfg.partition_seed)
    spikes = _build_spikes(cfg, partition, cfg.grid_width)
    service = ServiceLaw(kind=cfg.service_law,
                         mean_ms=int(round(cfg.service_minutes * MS_PER_MINUTE)))
    model = DemandModel(rates=rates, spikes=spikes, service=service)
    world = World(cells=cells, depots=depots,
                  travel=TravelModel(speed_mph=cfg.speed_mph),
                  partition=partition)
    failures = _build_failures(cfg)
    down_until: dict[int, int] = {}  # failures are sorted by start
    for f in failures:
        if not (0 <= f.agent_id < cfg.num_agents):
            raise ConfigError(f"failures: agent_id {f.agent_id} is not in "
                              f"the fleet (num_agents={cfg.num_agents})")
        if f.start_ms < down_until.get(f.agent_id, f.start_ms):
            raise ConfigError(f"failures: agent_id {f.agent_id} has overlapping "
                              f"windows (one starts at {f.start_ms / 1000:g} s, "
                              f"before the previous one ends)")
        down_until[f.agent_id] = f.start_ms + f.duration_ms
    return Scenario(config=cfg, world=world, model=model, failures=failures,
                    horizon_ms=hours_to_ms(cfg.horizon_hours))


def initial_state(scenario: Scenario) -> SystemState:
    """Seed the fleet: high-level allocation over regions, then fill each
    region's depots in decreasing order of their cell's incident rate.

    Every mode starts from this same placement, so differences between
    policies come from re-allocation behavior alone.
    """
    cfg = scenario.config
    world = scenario.world
    alloc = allocate_for_partition(world.partition, cfg.num_agents,
                                   eta=cfg.eta_per_hour)
    agents = []
    next_id = 0
    for region in world.partition.regions():
        depots = sorted(world.depots_in(region),
                        key=lambda d: (-scenario.model.rates[d.cell], d.id))
        slots = [d for d in depots for _ in range(d.capacity)]
        for i in range(alloc.counts[region]):
            depot = slots[i]
            pos = world.depot_pos(depot.id)
            agents.append(Agent(id=next_id, position=pos, destination=pos,
                                status=AgentStatus.WAITING, region=region,
                                depot=depot.id))
            next_id += 1
    return SystemState(clock_ms=0, pending=[], agents=agents)


def chain_for_seed(scenario: Scenario, seed: int):
    """The evaluation chain for a seed; independent of the policy mode."""
    ss = np.random.SeedSequence(entropy=(int(seed), 0))
    return sample_chain(scenario.model, scenario.horizon_ms, ss)


def chain_fingerprint(chain) -> str:
    h = hashlib.sha256()
    for inc in chain.incidents:
        h.update(f"{inc.id},{inc.report_time_ms},{inc.cell},"
                 f"{inc.service_duration_ms};".encode())
    return h.hexdigest()[:16]


@dataclass
class MetricsReport:
    mode: str
    response_times_s: list[float]
    planner_seconds: list[float]
    chain_fingerprints: dict[int, str]
    per_seed: dict[int, dict]
    transfers: int = 0
    pending_at_end: int = 0

    @property
    def count(self) -> int:
        return len(self.response_times_s)

    @property
    def mean(self) -> float:
        return float(np.mean(self.response_times_s)) if self.response_times_s else 0.0

    def quartiles(self) -> tuple[float, float, float]:
        if not self.response_times_s:
            return 0.0, 0.0, 0.0
        q1, q2, q3 = np.percentile(self.response_times_s, [25, 50, 75],
                                   method="linear")
        return float(q1), float(q2), float(q3)

    @property
    def planner_mean_s(self) -> float:
        return float(np.mean(self.planner_seconds)) if self.planner_seconds else 0.0

    def summary_dict(self) -> dict:
        q1, _q2, q3 = self.quartiles()
        return {"mode": self.mode, "mean_rt_s": self.mean, "q1": q1, "q3": q3,
                "iqr": q3 - q1, "n": self.count,
                "planner_mean_s": self.planner_mean_s}


def _write_incidents(path, records) -> None:
    """One row per (DispatchRecord, region id) pair, in the given order."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["incident_id", "report_time_s", "cell",
                         "dispatch_time_s", "arrival_time_s",
                         "response_time_s", "agent_id", "region_id"])
        for r, region in records:
            inc = r.incident
            writer.writerow([inc.id, f"{inc.report_time_ms / 1000:.3f}", inc.cell,
                             f"{r.dispatch_ms / 1000:.3f}",
                             f"{r.arrive_ms / 1000:.3f}",
                             f"{r.response_s:.3f}", r.agent_id, region])


def run_experiment(cfg: ScenarioConfig, out_dir, trace: bool = False,
                   observer=None) -> MetricsReport:
    """Run a scenario over all its seeds and write the result files.

    observer(coordinator, state, kind), when given, is invoked after every
    processed event; it is meant for invariant checking and monitoring.
    """
    scenario = build_scenario(cfg)
    os.makedirs(out_dir, exist_ok=True)
    mode = PolicyMode(cfg.mode)
    planner = PlannerConfig(
        mcts=MCTSParams(iterations=cfg.mcts_iterations, uct_c=cfg.uct_c,
                        discount=cfg.discount,
                        horizon_ms=hours_to_ms(cfg.planning_horizon_hours),
                        max_joint_actions=cfg.max_joint_actions),
        n_samples=cfg.n_samples,
        replan_interval_ms=int(round(cfg.replan_minutes * MS_PER_MINUTE)),
        eta_per_hour=cfg.eta_per_hour)

    all_rt: list[float] = []
    planner_seconds: list[float] = []
    fingerprints: dict[int, str] = {}
    per_seed: dict[int, dict] = {}
    transfers = 0
    pending = 0
    region_of = scenario.world.partition.cell_to_region
    placement = initial_state(scenario)  # the same for every seed
    for seed in cfg.seeds:
        chain = chain_for_seed(scenario, seed)
        fingerprints[seed] = chain_fingerprint(chain)
        state = placement.clone()
        trace_file = None
        if trace:
            trace_file = open(os.path.join(out_dir, f"trajectory_seed{seed}.log"), "w")
            trace_file.write("time_s,kind,agent_id,incident_id,detail\n")
        coord = Coordinator(scenario.world, scenario.model, mode,
                            planner=planner, seed=seed, trace=trace_file)
        try:
            result = coord.run(state, chain, scenario.horizon_ms,
                               failures=scenario.failures, observer=observer)
        finally:
            if trace_file is not None:
                trace_file.close()
        records = sorted(result.records,
                         key=lambda r: (r.incident.report_time_ms, r.incident.id))
        _write_incidents(os.path.join(out_dir, f"incidents_seed{seed}.csv"),
                         [(r, region_of[r.incident.cell]) for r in records])
        rts = [r.response_s for r in records]
        all_rt.extend(rts)
        planner_seconds.extend(result.planner_seconds)
        transfers += len(result.transfers)
        pending += result.pending_at_end
        per_seed[seed] = {
            "n": len(rts),
            "mean_rt_s": float(np.mean(rts)) if rts else 0.0,
            "chain_incidents": len(chain.incidents),
            "pending_at_end": result.pending_at_end,
            "transfers": len(result.transfers),
        }

    report = MetricsReport(mode=cfg.mode, response_times_s=all_rt,
                           planner_seconds=planner_seconds,
                           chain_fingerprints=fingerprints, per_seed=per_seed,
                           transfers=transfers, pending_at_end=pending)
    _write_summary(os.path.join(out_dir, "summary.csv"), report)
    _write_report_json(os.path.join(out_dir, "report.json"), cfg, report)
    return report


def _write_summary(path, report: MetricsReport) -> None:
    row = report.summary_dict()
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["mode", "mean_rt_s", "q1", "q3", "iqr", "n",
                         "planner_mean_s"])
        writer.writerow([row["mode"], f"{row['mean_rt_s']:.3f}",
                         f"{row['q1']:.3f}", f"{row['q3']:.3f}",
                         f"{row['iqr']:.3f}", row["n"],
                         f"{row['planner_mean_s']:.6f}"])


def _write_report_json(path, cfg: ScenarioConfig, report: MetricsReport) -> None:
    payload = {
        "mode": cfg.mode,
        "config": {k: v for k, v in asdict(cfg).items()},
        "chain_fingerprints": {str(k): v for k, v in report.chain_fingerprints.items()},
        "summary": report.summary_dict(),
        "per_seed": {str(k): v for k, v in report.per_seed.items()},
        "transfers": report.transfers,
        "pending_at_end": report.pending_at_end,
        "planner_decisions": len(report.planner_seconds),
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def compare(report_paths, out_path=None) -> list[dict]:
    """One row per report: response times pooled over all its seeds, not
    paired by seed; the first report is the reference for the delta
    columns. Raises ChainMismatch when the reports' chains differ.
    """
    if len(report_paths) < 2:
        raise ValueError("need at least two reports to compare")
    loaded = []
    for p in report_paths:
        with open(p) as f:
            loaded.append(json.load(f))
    reference = loaded[0]["chain_fingerprints"]
    for rep, path in zip(loaded[1:], list(report_paths)[1:]):
        if rep["chain_fingerprints"] != reference:
            raise ChainMismatch(f"{path} was produced from different chains")
    base = loaded[0]["summary"]
    rows = []
    for rep in loaded:
        s = rep["summary"]
        rows.append({
            "mode": s["mode"], "n": s["n"],
            "mean_rt_s": round(s["mean_rt_s"], 3),
            "q1": round(s["q1"], 3), "q3": round(s["q3"], 3),
            "iqr": round(s["iqr"], 3),
            "planner_mean_s": round(s["planner_mean_s"], 6),
            "delta_mean_s": round(s["mean_rt_s"] - base["mean_rt_s"], 3),
            "delta_q3_s": round(s["q3"] - base["q3"], 3),
        })
    if out_path is not None:
        with open(out_path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return rows
