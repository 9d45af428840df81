"""Scenario configuration, experiment orchestration, and result files.

A scenario is a YAML file naming the grid, depots, demand surface, fleet,
policy mode, and planner hyper-parameters. Every run writes

* incidents_seed<k>.csv - one row per dispatched incident,
* summary.csv           - pooled distribution statistics,
* report.json           - machine-readable report incl. chain fingerprints.

Seeds fully determine the incident chains and planner sampling, so two
runs of the same config and seed produce identical incident files; the
planner_mean_s column in summary.csv is wall-clock time and is the one
field excluded from byte-for-byte comparisons.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import itertools
import json
import math
import numbers
import os
import pathlib
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import datetime

import numpy as np
import yaml

from .coordinator import (Coordinator, FailureEvent, PlannerConfig,
                          PolicyMode)
from .demand import (SERVICE_LAWS, DemandModel, ServiceLaw, SpikeWindow,
                     fit_rates, sample_chain)
from .highlevel import allocate
from .lowlevel import MCTSParams
from .simulator import Agent, AgentStatus, SystemState
from .spatial import (Depot, RegionPartition, TravelModel, World, make_grid,
                      partition_regions)
from .units import (MS_PER_HOUR, MS_PER_MINUTE, MS_PER_SECOND, hours_to_ms,
                    seconds_to_ms)


class ConfigError(ValueError):
    pass


class ChainMismatch(ValueError):
    """compare() was given reports produced from different evaluation chains."""


@functools.cache  # an abc's issubclass() is slow, and few types occur
def _numeric(t, kind=numbers.Real) -> bool:  # a bool is no number here
    return issubclass(t, kind) and t is not bool


# Rules: (test, what a value must be); comparisons, not math.isfinite(),
# as float() of a huge int overflows
_POSITIVE = (lambda v: 0 < v < math.inf, "positive and finite")
_AT_LEAST_0 = (lambda v: 0 <= v < math.inf, "finite and >= 0")
_AT_LEAST_1 = (lambda v: 1 <= v < math.inf, "finite and >= 1")
_LIST = (lambda v: isinstance(v, list), "a list")
_PATH = (lambda v: v and isinstance(v, str), "a file path")
_SEEDS = (lambda v: isinstance(v, list) and v != []  # each type once
          and all(_numeric(t, numbers.Integral) for t in set(map(type, v)))
          and min(v) >= 0, "a non-empty list of integers >= 0")
_PAIRS = (lambda v: all(isinstance(c, list) and len(c) == 2 for c in v),
          "a list of [gx, gy] pairs")
# A grid's most cells: build_scenario makes a Cell, a region entry and k-means rows
# per cell (10**6, k=5: ~13 s and ~550 MB on one core; metro has 900)
_MAX_CELLS = 10**6


def _ms(ms_per_unit: int, least: int):
    """The rule of a time (least 0) or duration (least 1) in units of
    ms_per_unit ms; event times are int64 ms, up to the clock plus the
    planning window."""
    return (lambda v: least - 0.5 < v * ms_per_unit < 2**62,
            f"at least {least} ms once rounded to the ms, and below 2**62 ms")


def _one_of(choices):
    return (lambda v: v in choices, f"one of {choices}")


# the numbers an int or a float key holds, and their word in an error
_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number")}


def _reader(where: str, record, typed: bool):
    """read(key, kind, rule): kind(record[key]) if that raises no TypeError,
    ValueError or OverflowError and rule's test accepts it, else a ConfigError
    "<where>: <key> <value> must be <need>". record is a CSV row of text or,
    typed, a config entry, whose int and float keys take YAML numbers of that
    kind only (see _numeric)."""
    def read(key, kind, rule):
        raw = record[key]
        number, word = _KINDS.get(kind.__name__, (object, ""))
        try:
            if not typed or _numeric(type(raw), number):
                value = kind(raw)
                if rule[0](value):
                    return value
        except (TypeError, ValueError, OverflowError):
            pass
        raise ConfigError(f"{where}: {key} {raw!r} must be "
                          f"{word}{', ' if word else ''}{rule[1]}")
    return read


def _entry(name: str, record, keys, **defaults):
    """A reader (see _reader) for the config entry called name; a ConfigError
    naming it unless it is a mapping with each of keys and no key outside
    keys and defaults, the optional keys and their values."""
    if not isinstance(record, dict):
        raise ConfigError(f"{name}: must be a mapping, not {record!r}")
    for key in record:
        if key not in keys and key not in defaults:
            raise ConfigError(f"{name}: {key} is not one of its keys "
                              f"{[*keys, *defaults]}")
    for key in keys:
        if key not in record:
            raise ConfigError(f"{name}: {key} is missing")
    return _reader(name, {**defaults, **record}, typed=True)


def _cell(read, width: int, height: int) -> int:
    """The row-major id of a record's gx, gy cell on a width x height grid."""
    gx = read("gx", int, (range(width).__contains__, f"in range({width})"))
    gy = read("gy", int, (range(height).__contains__, f"in range({height})"))
    return gy * width + gx


def _read_hotspot(cfg: ScenarioConfig, name: str, h):
    """The hotspot's (cell id, rate_per_hour)."""
    read = _entry(name, h, ("gx", "gy", "rate_per_hour"))
    return (_cell(read, cfg.grid_width, cfg.grid_height),
            read("rate_per_hour", float, _AT_LEAST_0))


def _read_spike(cfg: ScenarioConfig, name: str, s):
    """The spike's (start_ms, end_ms, multiplier, region, cell ids): region
    None and its cells' ids, or its region and []."""
    read = _entry(name, s, ("start_hour", "end_hour", "multiplier"),
                  region=None, cells=None)
    if ("region" in s) == ("cells" in s):
        raise ConfigError(f"{name}: exactly one of region and cells must be set")
    start_ms = hours_to_ms(read("start_hour", float, _ms(MS_PER_HOUR, 0)))
    end_ms = hours_to_ms(read("end_hour", float, (
        lambda h: hours_to_ms(h) > start_ms, "after start_hour, in whole ms")))
    mult = read("multiplier", float, _AT_LEAST_1)
    if "region" in s:
        n = cfg.num_regions
        return start_ms, end_ms, mult, read("region", int, (
            range(n).__contains__, f"in range(num_regions={n})")), []
    return start_ms, end_ms, mult, None, [
        _cell(_reader(f"{name}: cells[{j}]", dict(zip(("gx", "gy"), c)), typed=True),
              cfg.grid_width, cfg.grid_height)
        for j, c in enumerate(read("cells", list, _PAIRS))]


def _read_failure(name: str, f) -> FailureEvent:
    """The failure's event; duration_hours is 8 unless the entry sets it."""
    read = _entry(name, f, ("agent_id", "start_hour"), duration_hours=8.0)
    return FailureEvent(read("agent_id", int, _AT_LEAST_0),
                        hours_to_ms(read("start_hour", float, _ms(MS_PER_HOUR, 0))),
                        hours_to_ms(read("duration_hours", float, _ms(MS_PER_HOUR, 1))))


def _check_failures(cfg: ScenarioConfig, named) -> None:
    """A ConfigError naming the failure, of named's (name, FailureEvent)
    pairs, whose agent is not in the fleet or that starts before another
    window of its agent ends."""
    down_until: dict[int, int] = {}
    for name, f in sorted(named, key=lambda nf: (nf[1].start_ms, nf[1].agent_id)):
        if not 0 <= f.agent_id < cfg.num_agents:
            raise ConfigError(f"{name}: agent_id {f.agent_id} is not in the fleet "
                              f"(num_agents={cfg.num_agents})")
        if f.start_ms < down_until.get(f.agent_id, f.start_ms):
            raise ConfigError(f"{name}: agent_id {f.agent_id} has overlapping "
                              f"windows (one starts at {f.start_ms / 1000:g} s, "
                              "before the previous one ends)")
        down_until[f.agent_id] = f.start_ms + f.duration_ms


def _key(rule, default=MISSING, *, default_factory=MISSING):
    """A field validate() checks with rule."""
    return field(default=default, default_factory=default_factory,
                 metadata={"rule": rule})


@dataclass
class ScenarioConfig:
    """A scenario's keys. validate() checks each in turn, its type and then
    its field's rules (see _key), and then the rules across keys."""

    grid_width: int = _key(_AT_LEAST_1)
    grid_height: int = _key(_AT_LEAST_1)
    depot_file: str = _key(_PATH)
    cell_size_miles: float = _key(_POSITIVE, 1.0)
    num_agents: int = _key(_AT_LEAST_1, 26)
    num_regions: int = _key(_AT_LEAST_1, 5)
    mode: str = _key(_one_of(sorted(m.value for m in PolicyMode)), "baseline")
    seeds: list[int] = _key(_SEEDS, default_factory=lambda: [0, 1, 2, 3, 4])
    horizon_hours: float = _key(_ms(MS_PER_HOUR, 1), 24.0)
    partition_seed: int = _key(_AT_LEAST_0, 0)
    # demand surface: uniform base plus optional hotspots, or a history file
    base_rate_per_hour: float = _key(_AT_LEAST_0, 0.0)
    hotspots: list[dict] = _key(_LIST, default_factory=list)
    history_file: str | None = _key(_PATH, None)
    history_horizon_hours: float | None = _key(_POSITIVE, None)
    service_minutes: float = _key(_ms(MS_PER_MINUTE, 1), 20.0)
    service_law: str = _key(_one_of(SERVICE_LAWS), "fixed")
    spikes: list[dict] = _key(_LIST, default_factory=list)
    failures: list[dict] = _key(_LIST, default_factory=list)
    failure_file: str | None = _key(_PATH, None)
    # planner hyper-parameters
    mcts_iterations: int = _key(_AT_LEAST_1, 1000)
    uct_c: float = _key(_AT_LEAST_0, 1.44)
    discount: float = _key((lambda v: 0 < v <= 1, "in (0, 1]"), 0.99995)
    n_samples: int = _key(_AT_LEAST_1, 50)
    replan_minutes: float = _key(_ms(MS_PER_MINUTE, 1), 60.0)
    speed_mph: float = _key(_POSITIVE, 30.0)
    planning_horizon_hours: float = _key(_ms(MS_PER_HOUR, 1), 2.0)

    def validate(self):
        """Check the keys; return the hotspots' (cell id, rate) pairs, the spikes'
        tuples (see _read_spike) and the failures' (name, FailureEvent) pairs."""
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.type.endswith("None"):
                continue
            number, word = _KINDS.get(f.type.removesuffix(" | None"), (None, ""))
            if word and not _numeric(type(value), number):
                raise ConfigError(f"{f.name}: must be {word}, not {value!r}")
            ok, need = f.metadata["rule"]
            if not ok(value):
                raise ConfigError(f"{f.name}: must be {need}")
        if self.grid_width * self.grid_height > _MAX_CELLS:
            raise ConfigError(f"grid_width, grid_height: more than {_MAX_CELLS:.0e} cells")
        diag = math.hypot(self.grid_width, self.grid_height) * self.cell_size_miles
        if not (diag * diag < math.inf and diag / self.speed_mph * 3.6e6 < 2**62):
            raise ConfigError("cell_size_miles, speed_mph: a trip across the grid must have "
                              "a finite squared length and take below 2**62 ms")
        hotspots = [_read_hotspot(self, f"hotspots[{i}]", h)
                    for i, h in enumerate(self.hotspots)]
        spikes = [_read_spike(self, f"spikes[{i}]", s)
                  for i, s in enumerate(self.spikes)]
        failures = [(f"failures[{i}]", _read_failure(f"failures[{i}]", f))
                    for i, f in enumerate(self.failures)]
        if not (self.base_rate_per_hour > 0 or self.hotspots or self.history_file):
            raise ConfigError("base_rate_per_hour: no demand: set "
                              "base_rate_per_hour, hotspots, or history_file")
        _check_failures(self, failures)
        if self.history_file and self.history_horizon_hours is None:
            raise ConfigError("history_horizon_hours: required with history_file")
        return hotspots, spikes, failures


class _Loader(yaml.SafeLoader):
    """safe_load's loader, with two more errors at the node: a mapping that
    repeats one of its own keys (merge keys are not its own), and an
    integer too long for int()."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _value in node.value if isinstance(node, yaml.MappingNode) else ():
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            try:
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"repeated key {key!r}", key_node.start_mark)
            except TypeError:  # unhashable: PyYAML's own error follows
                continue
            seen.add(key)
        return super().construct_mapping(node, deep)

    def construct_yaml_int(self, node):
        try:
            return super().construct_yaml_int(node)
        except ValueError as exc:
            raise yaml.constructor.ConstructorError(None, None, str(exc),
                                                    node.start_mark) from None


_Loader.add_constructor("tag:yaml.org,2002:int", _Loader.construct_yaml_int)


def load_config(path) -> ScenarioConfig:
    with open(path) as f:
        try:
            raw = yaml.load(f, Loader=_Loader) or {}
        except yaml.YAMLError as exc:  # its own text spans several lines
            mark = getattr(exc, "problem_mark", None)
            where = f" line {mark.line + 1} column {mark.column + 1}" if mark else ""
            why = getattr(exc, "problem", None) or " ".join(str(exc).split())
            raise ConfigError(f"config file {path}{where}: not valid YAML ({why})")
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping")
    keys = fields(ScenarioConfig)
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [f.name for f in keys if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
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


def _build_rates(cfg: ScenarioConfig, num_cells: int, hotspots) -> np.ndarray:
    """Per-cell rates; a ConfigError unless some cell's rate is positive
    (a later hotspot on a cell replaces an earlier one's rate)."""
    if cfg.history_file:
        path = _resolve(cfg, cfg.history_file)
        history = load_history(path, cfg.grid_width, cfg.grid_height)
        if not history:
            raise ConfigError(f"history_file: {path} holds no incident records")
        last_ms = max(ms for _cell, ms in history)
        if last_ms > hours_to_ms(cfg.history_horizon_hours):
            raise ConfigError(f"history_horizon_hours: {cfg.history_horizon_hours:g} h "
                              f"is shorter than the history, whose last record "
                              f"comes {last_ms / MS_PER_HOUR:g} h after its first")
        rates = fit_rates(history, cfg.history_horizon_hours, num_cells).rates
    else:
        rates = np.full(num_cells, float(cfg.base_rate_per_hour))
        for cell, rate in hotspots:
            rates[cell] = rate
    if not rates.sum() > 0:
        raise ConfigError(f"{'history_file' if cfg.history_file else 'hotspots'}: "
                          "no demand, every cell's rate is 0")
    return rates


def _build_spikes(spikes, partition: RegionPartition) -> list[SpikeWindow]:
    """The windows of the spikes validate() read."""
    return [SpikeWindow(cells=frozenset(cells if region is None
                                        else partition.cells_of(region)),
                        start_ms=start_ms, end_ms=end_ms, multiplier=mult)
            for start_ms, end_ms, mult, region, cells in spikes]


# A chain's expected incidents must stay within this: each takes a few hundred
# bytes of Python objects (1e8: tens of GB), a real city sees ~1e5 a year (the
# paper's Nashville), and numpy's limits (a Poisson mean of ~9.2e18) lie far above.
_MAX_CHAIN_INCIDENTS = 1e8


def _check_demand(cfg: ScenarioConfig, rates: np.ndarray, spikes, hotspots) -> None:
    """A ConfigError unless the rates' sum times the largest product of
    multipliers whose windows overlap times the longer horizon, a bound on
    a chain's expected incident count, is within _MAX_CHAIN_INCIDENTS; it
    names the key with the largest value behind those factors."""
    peak = max((math.prod(w.multiplier for w in spikes
                          if w.start_ms <= s.start_ms < w.end_ms) for s in spikes),
               default=1.0)
    hours = max(cfg.horizon_hours, cfg.planning_horizon_hours)
    bound = float(rates.sum()) * peak * hours
    if bound <= _MAX_CHAIN_INCIDENTS:
        return
    values = {"horizon_hours": cfg.horizon_hours,
              "planning_horizon_hours": cfg.planning_horizon_hours,
              **{f"spikes[{i}]": w.multiplier for i, w in enumerate(spikes)}}
    if cfg.history_file:  # its rates are counts over history_horizon_hours
        values["history_horizon_hours"] = float(rates.sum())
    else:
        values["base_rate_per_hour"] = cfg.base_rate_per_hour * len(rates)
        values.update((f"hotspots[{i}]", rate) for i, (_, rate) in enumerate(hotspots))
    raise ConfigError(f"{max(values, key=values.get)}: a chain may hold {bound:.3g} "
                      f"incidents, more than {_MAX_CHAIN_INCIDENTS:.0e}")


def _build_failures(cfg: ScenarioConfig, named) -> list[FailureEvent]:
    """The failure events of named, the inline failures validate() read,
    and of the failure file, sorted by start and checked together (see
    _check_failures)."""
    if cfg.failure_file:
        path = _resolve(cfg, cfg.failure_file)
        named += [(f"failure file {path} row {n}", f)
                  for n, f in enumerate(load_failure_schedule(path), start=1)]
    _check_failures(cfg, named)
    return sorted((f for _name, f in named),
                  key=lambda f: (f.start_ms, f.agent_id))


def _rows(path, what: str, columns: tuple[str, ...]):
    """A reader (see _reader) per row of a CSV file that has the given
    columns; its errors name the file and the row, counted from 1 after
    the header."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or not set(columns).issubset(reader.fieldnames):
            raise ConfigError(f"{what} file {path}: expected columns {sorted(columns)}")
        for n, row in enumerate(reader, start=1):
            yield _reader(f"{what} file {path} row {n}", row, typed=False)


def load_depot_file(path, width: int, height: int) -> list[Depot]:
    """Read depot_id,gx,gy,capacity rows into depots on a width x height
    grid. A bad row raises a ConfigError naming the file, the row and the
    key (see _rows)."""
    depots: dict[int, Depot] = {}
    for read in _rows(path, "depot", ("depot_id", "gx", "gy", "capacity")):
        depot_id = read("depot_id", int, (lambda i: i not in depots,
                                          "one no earlier row has"))
        cell = _cell(read, width, height)
        depots[depot_id] = Depot(id=depot_id, cell=cell,
                                 capacity=read("capacity", int, _AT_LEAST_1))
    return list(depots.values())


def load_history(path, width: int, height: int) -> list[tuple[int, int]]:
    """Read incident_id,timestamp_iso8601,gx,gy rows into (cell, ms) pairs,
    timestamps measured from the earliest record. A bad row raises a
    ConfigError naming the file, the row and the key (see _rows); so does
    a UTC offset where row 1 has none, or the reverse (no order exists)."""
    rows, aware = [], None  # aware: row 1's timestamp has a UTC offset
    for read in _rows(path, "history", ("incident_id", "timestamp_iso8601", "gx", "gy")):
        ts = read("timestamp_iso8601", datetime.fromisoformat, (
            lambda t: aware in (None, t.utcoffset() is not None),
            "an ISO 8601 time, with a UTC offset if and only if row 1 has one"))
        aware = ts.utcoffset() is not None
        rows.append((ts, _cell(read, width, height)))
    t0 = min((ts for ts, _ in rows), default=None)
    return [(cell, seconds_to_ms((ts - t0).total_seconds())) for ts, cell in rows]


def load_failure_schedule(path) -> list[FailureEvent]:
    """Read agent_id,start_time_s,duration_s rows. A bad row raises a
    ConfigError naming the file, the row and the key (see _rows)."""
    start, duration = _ms(MS_PER_SECOND, 0), _ms(MS_PER_SECOND, 1)
    return [FailureEvent(read("agent_id", int, _AT_LEAST_0),
                         seconds_to_ms(read("start_time_s", float, start)),
                         seconds_to_ms(read("duration_s", float, duration)))
            for read in _rows(path, "failure",
                              ("agent_id", "start_time_s", "duration_s"))]


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    hotspots, spikes, failures = cfg.validate()
    cells = make_grid(cfg.grid_width, cfg.grid_height, cfg.cell_size_miles)
    depots = load_depot_file(_resolve(cfg, cfg.depot_file), cfg.grid_width,
                             cfg.grid_height)
    if cfg.num_agents > sum(d.capacity for d in depots):
        raise ConfigError("num_agents: exceeds total depot capacity")
    if cfg.num_regions > len(depots):
        raise ConfigError(f"num_regions: {cfg.num_regions} exceeds the "
                          f"{len(depots)} depots (every region needs one)")
    rates = _build_rates(cfg, len(cells), hotspots)
    partition = partition_regions(cells, rates, depots, cfg.num_regions,
                                  cfg.partition_seed)
    spikes = _build_spikes(spikes, partition)
    _check_demand(cfg, rates, spikes, hotspots)
    service = ServiceLaw(kind=cfg.service_law,
                         mean_ms=int(round(cfg.service_minutes * MS_PER_MINUTE)))
    model = DemandModel(rates=rates, spikes=spikes, service=service)
    world = World(cells=cells, depots=depots,
                  travel=TravelModel(speed_mph=cfg.speed_mph),
                  partition=partition)
    return Scenario(config=cfg, world=world, model=model,
                    failures=_build_failures(cfg, failures),
                    horizon_ms=hours_to_ms(cfg.horizon_hours))


def initial_state(scenario: Scenario) -> SystemState:
    """Seed the fleet: high-level allocation over regions, then fill each
    region's depots in decreasing order of their cell's incident rate.

    Every mode starts from this same placement, so differences between
    policies come from re-allocation behavior alone.
    """
    world, part = scenario.world, scenario.world.partition
    alloc = allocate(part.region_rate, scenario.config.num_agents,
                     scenario.model.service.rate_per_hour, caps=part.region_slots)
    agents = []
    for region in part.regions():
        depots = sorted(world.depots_in(region),
                        key=lambda d: (-scenario.model.rates[d.cell], d.id))
        slots = (d for d in depots for _ in range(d.capacity))
        for depot in itertools.islice(slots, alloc.counts[region]):
            pos = world.depot_pos(depot.id)
            agents.append(Agent(id=len(agents), position=pos, destination=pos,
                                status=AgentStatus.WAITING, region=region,
                                depot=depot.id))
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
                        horizon_ms=hours_to_ms(cfg.planning_horizon_hours)),
        n_samples=cfg.n_samples,
        replan_interval_ms=int(round(cfg.replan_minutes * MS_PER_MINUTE)))

    all_rt: list[float] = []
    planner_seconds: list[float] = []
    fingerprints: dict[int, str] = {}
    per_seed: dict[int, dict] = {}
    region_of = scenario.world.partition.cell_to_region
    placement = initial_state(scenario)  # the same for every seed
    for seed in cfg.seeds:
        chain = chain_for_seed(scenario, seed)
        fingerprints[seed] = chain_fingerprint(chain)
        state = placement.clone()
        with (open(os.path.join(out_dir, f"trajectory_seed{seed}.log"), "w")
              if trace else contextlib.nullcontext()) as trace_file:
            if trace_file:
                trace_file.write("time_s,kind,agent_id,incident_id,detail\n")
            coord = Coordinator(scenario.world, scenario.model, mode,
                                planner=planner, seed=seed, trace=trace_file)
            result = coord.run(state, chain, scenario.horizon_ms,
                               failures=scenario.failures, observer=observer)
        records = sorted(result.records,
                         key=lambda r: (r.incident.report_time_ms, r.incident.id))
        _write_incidents(os.path.join(out_dir, f"incidents_seed{seed}.csv"),
                         [(r, region_of[r.incident.cell]) for r in records])
        rts = [r.response_s for r in records]
        all_rt.extend(rts)
        planner_seconds.extend(result.planner_seconds)
        per_seed[seed] = {"n": len(rts), "chain_incidents": len(chain.incidents),
                          "mean_rt_s": float(np.mean(rts)) if rts else 0.0,
                          "pending_at_end": result.pending_at_end,
                          "transfers": len(result.transfers)}

    report = MetricsReport(mode=cfg.mode, response_times_s=all_rt,
                           planner_seconds=planner_seconds,
                           chain_fingerprints=fingerprints, per_seed=per_seed,
                           transfers=sum(p["transfers"] for p in per_seed.values()),
                           pending_at_end=sum(p["pending_at_end"]
                                              for p in per_seed.values()))
    _write_summary(os.path.join(out_dir, "summary.csv"), report)
    _write_report_json(os.path.join(out_dir, "report.json"), cfg, report)
    return report


def _write_summary(path, report: MetricsReport) -> None:
    row = report.summary_dict()  # its keys are the header
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(row)
        writer.writerow([f"{v:.6f}" if k == "planner_mean_s" else f"{v:.3f}"
                         if isinstance(v, float) else v for k, v in row.items()])


def _write_report_json(path, cfg: ScenarioConfig, report: MetricsReport) -> None:
    payload = {
        "mode": cfg.mode,
        "config": asdict(cfg),
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
    loaded = [json.loads(pathlib.Path(p).read_text()) for p in report_paths]
    reference = loaded[0]["chain_fingerprints"]
    for rep, path in zip(loaded[1:], list(report_paths)[1:]):
        if rep["chain_fingerprints"] != reference:
            raise ChainMismatch(f"{path} was produced from different chains")
    base = loaded[0]["summary"]
    rows = []
    for rep in loaded:
        s = rep["summary"]
        rows.append({"mode": s["mode"], "n": s["n"],
                     **{k: round(s[k], 3) for k in ("mean_rt_s", "q1", "q3", "iqr")},
                     "planner_mean_s": round(s["planner_mean_s"], 6),
                     "delta_mean_s": round(s["mean_rt_s"] - base["mean_rt_s"], 3),
                     "delta_q3_s": round(s["q3"] - base["q3"], 3)})
    if out_path is not None:
        with open(out_path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return rows
