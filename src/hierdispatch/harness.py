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
import os
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from .coordinator import (Coordinator, FailureEvent, PlannerConfig,
                          PolicyMode)
from .demand import DemandModel, ServiceLaw, SpikeWindow, fit_rates, load_history, sample_chain
from .highlevel import allocate_for_partition
from .lowlevel import MCTSParams
from .simulator import Agent, AgentStatus, SystemState
from .spatial import (RegionPartition, TravelModel, World, load_depots,
                      make_grid, partition_regions, resolve_depots)
from .units import MS_PER_MINUTE, hours_to_ms, seconds_to_ms


class ConfigError(ValueError):
    pass


class ChainMismatch(Exception):
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
        has_demand = (self.base_rate_per_hour > 0 or self.hotspots
                      or self.history_file)
        need(has_demand, "base_rate_per_hour",
             "no demand: set base_rate_per_hour, hotspots, or history_file")
        need(self.service_minutes > 0, "service_minutes", "must be positive")
        need(self.service_law in ("fixed", "exponential"), "service_law",
             "must be 'fixed' or 'exponential'")
        if self.test_bed == "nonstationary":
            need(bool(self.spikes), "spikes",
                 "nonstationary test bed requires spike windows")
        if self.test_bed == "failures":
            need(bool(self.failures) or self.failure_file, "failures",
                 "failures test bed requires a failure list or failure_file")
        need(self.mcts_iterations >= 1, "mcts_iterations", "must be >= 1")
        need(self.n_samples >= 1, "n_samples", "must be >= 1")
        need(0 < self.discount <= 1, "discount", "must be in (0, 1]")
        need(self.replan_minutes > 0, "replan_minutes", "must be positive")
        need(self.speed_mph > 0, "speed_mph", "must be positive")
        need(self.planning_horizon_hours > 0, "planning_horizon_hours",
             "must be positive")

    @property
    def eta_per_hour(self) -> float:
        return 60.0 / self.service_minutes


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
    if cfg.history_file:
        horizon = cfg.history_horizon_hours
        if not horizon:
            raise ConfigError("history_horizon_hours: required with history_file")
        history = load_history(_resolve(cfg, cfg.history_file), width,
                               cfg.grid_height)
        return fit_rates(history, horizon, num_cells).rates
    rates = np.full(num_cells, float(cfg.base_rate_per_hour))
    for i, h in enumerate(cfg.hotspots):
        try:
            gx, gy, rate = int(h["gx"]), int(h["gy"]), float(h["rate_per_hour"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"hotspots[{i}]: needs gx, gy, rate_per_hour") from exc
        if not (0 <= gx < width and 0 <= gy < cfg.grid_height):
            raise ConfigError(f"hotspots[{i}]: cell ({gx},{gy}) outside grid")
        rates[gy * width + gx] = rate
    return rates


def _build_spikes(cfg: ScenarioConfig, partition: RegionPartition,
                  width: int) -> list[SpikeWindow]:
    spikes = []
    for i, s in enumerate(cfg.spikes):
        try:
            start = hours_to_ms(float(s["start_hour"]))
            end = hours_to_ms(float(s["end_hour"]))
            mult = float(s["multiplier"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(
                f"spikes[{i}]: needs start_hour, end_hour, multiplier") from exc
        if "region" in s:
            cells = frozenset(c for c, r in partition.cell_to_region.items()
                              if r == int(s["region"]))
        elif "cells" in s:
            cells = frozenset(int(gy) * width + int(gx) for gx, gy in s["cells"])
        else:
            raise ConfigError(f"spikes[{i}]: needs 'region' or 'cells'")
        spikes.append(SpikeWindow(cells=cells, start_ms=start, end_ms=end,
                                  multiplier=mult))
    return spikes


def _build_failures(cfg: ScenarioConfig) -> list[FailureEvent]:
    failures = []
    for i, f in enumerate(cfg.failures):
        try:
            failures.append(FailureEvent(
                agent_id=int(f["agent_id"]),
                start_ms=hours_to_ms(float(f["start_hour"])),
                duration_ms=hours_to_ms(float(f.get("duration_hours", 8.0)))))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"failures[{i}]: needs agent_id, start_hour") from exc
    if cfg.failure_file:
        failures.extend(load_failure_schedule(_resolve(cfg, cfg.failure_file)))
    return sorted(failures, key=lambda f: (f.start_ms, f.agent_id))


def load_failure_schedule(path) -> list[FailureEvent]:
    """Read agent_id,start_time_s,duration_s rows."""
    out = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        required = {"agent_id", "start_time_s", "duration_s"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"failure file {path}: expected columns {sorted(required)}")
        for row in reader:
            out.append(FailureEvent(agent_id=int(row["agent_id"]),
                                    start_ms=seconds_to_ms(float(row["start_time_s"])),
                                    duration_ms=seconds_to_ms(float(row["duration_s"]))))
    return out


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    cfg.validate()
    cells = make_grid(cfg.grid_width, cfg.grid_height, cfg.cell_size_miles)
    depots = resolve_depots(load_depots(_resolve(cfg, cfg.depot_file)),
                            cfg.grid_width, cfg.grid_height)
    if cfg.num_agents > sum(d.capacity for d in depots):
        raise ConfigError("num_agents: exceeds total depot capacity")
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
    for seed in cfg.seeds:
        chain = chain_for_seed(scenario, seed)
        fingerprints[seed] = chain_fingerprint(chain)
        state = initial_state(scenario)
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
    """Paired comparison of runs over identical evaluation chains.

    Raises ChainMismatch when the reports' chains differ. The first
    report is the reference for the delta columns.
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
