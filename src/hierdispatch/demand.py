"""Poisson incident models: fitting from history and chain sampling.

Rates are events/hour per cell. Spike windows multiply the rates of the
cells they target inside [start, end); sampling treats the resulting rate
as piecewise constant, which is exact for step rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .units import MS_PER_HOUR, MS_PER_MINUTE

SERVICE_LAWS = ("fixed", "exponential")  # the kinds of ServiceLaw


class EmptyHistory(Exception):
    """No incident records and no explicit rates supplied."""


@dataclass(frozen=True)
class SpikeWindow:
    cells: frozenset[int]
    start_ms: int
    end_ms: int
    multiplier: float

    def __post_init__(self):
        if self.start_ms >= self.end_ms:
            raise ValueError("spike window must have start < end")
        if self.multiplier < 1:
            raise ValueError("spike multiplier must be >= 1")

    def active(self, cell: int, t_ms: int) -> bool:
        return cell in self.cells and self.start_ms <= t_ms < self.end_ms


@dataclass(frozen=True)
class ServiceLaw:
    """Service-duration law: deterministic by default, exponential optional."""

    kind: str = "fixed"  # one of SERVICE_LAWS
    mean_ms: int = 20 * MS_PER_MINUTE

    def __post_init__(self):
        if self.kind not in SERVICE_LAWS:
            raise ValueError(f"unknown service law {self.kind!r}")
        if self.mean_ms <= 0:
            raise ValueError("mean service duration must be positive")

    @property
    def rate_per_hour(self) -> float:  # services per agent-hour: the top level's μ
        return MS_PER_HOUR / self.mean_ms

    def sample(self, rng: np.random.Generator) -> int:
        if self.kind == "fixed":
            return self.mean_ms
        return max(1, int(round(rng.exponential(self.mean_ms))))


@dataclass(frozen=True)
class Incident:
    id: int
    cell: int
    report_time_ms: int
    service_duration_ms: int


@dataclass
class IncidentChain:
    incidents: list[Incident]
    horizon_ms: int

    def __len__(self):
        return len(self.incidents)


@dataclass
class DemandModel:
    rates: np.ndarray  # events/hour, indexed by cell id
    spikes: list[SpikeWindow] = field(default_factory=list)
    service: ServiceLaw = ServiceLaw()

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=float)
        if (self.rates < 0).any():
            raise ValueError("cell rates must be non-negative")

    def rate_at(self, cell: int, t_ms: int) -> float:
        """Effective rate of one cell at a point in time (events/hour)."""
        rate = float(self.rates[cell])
        for w in self.spikes:
            if w.active(cell, t_ms):
                rate *= w.multiplier
        return rate

    def restrict(self, cells) -> "DemandModel":
        """Zero out every cell outside the given set; used per region."""
        keep = set(cells)
        rates = np.where([c in keep for c in range(len(self.rates))], self.rates, 0.0)
        spikes = []
        for w in self.spikes:
            inter = w.cells & keep
            if inter:
                spikes.append(replace(w, cells=frozenset(inter)))
        return DemandModel(rates=rates, spikes=spikes, service=self.service)


def fit_rates(history, horizon_hours: float, num_cells: int) -> DemandModel:
    """Empirical-mean Poisson fit: rate = count(cell) / horizon_hours.

    history: iterable of (cell_id, timestamp) pairs; the timestamps are not
    read, so the caller checks that the records span at most horizon_hours
    (harness.build_scenario does).
    """
    if horizon_hours <= 0:
        raise ValueError("horizon_hours must be positive")
    counts = np.zeros(num_cells)
    n = 0
    for cell, _t in history:
        counts[int(cell)] += 1
        n += 1
    if n == 0:
        raise EmptyHistory("no incident records; supply rates directly")
    return DemandModel(rates=counts / horizon_hours)


def _segments(model: DemandModel, cell: int, start_ms: int, end_ms: int):
    """Constant-rate segments of one cell over [start, end)."""
    cuts = {start_ms, end_ms}
    for w in model.spikes:
        if cell in w.cells:
            cuts.add(min(max(w.start_ms, start_ms), end_ms))
            cuts.add(min(max(w.end_ms, start_ms), end_ms))
    edges = sorted(cuts)
    for a, b in zip(edges, edges[1:]):
        if b > a:
            yield a, b, model.rate_at(cell, a)


def sample_chain(model: DemandModel, horizon_ms: int, seed,
                 start_ms: int = 0) -> IncidentChain:
    """Sample one incident chain over [start_ms, start_ms + horizon_ms).

    Each cell is an independent (piecewise-constant) Poisson process:
    per segment the event count is Poisson(rate * duration) and the event
    times are uniform. Identical (model, horizon, seed) inputs reproduce
    the chain exactly. Coincident timestamps are pushed apart by 1 ms,
    preserving generation order; the chain ends before the first incident
    that a push moves to the window's end or later.

    A cell outside every spike window is one segment: its mean comes from
    one array expression (the same IEEE operations as per cell), and a
    lone event's time from a scalar draw, the number a size-1 draw gives.
    The Poisson draws stay scalar and in cell order, so the generator's
    stream, and the chain, is the one per-segment sampling gives.
    """
    if horizon_ms <= 0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    poisson, integers = rng.poisson, rng.integers
    end_ms = start_ms + horizon_ms
    raw: list[tuple[int, int]] = []  # (time_ms, cell)
    spiked = set().union(*(w.cells for w in model.spikes))
    # cells with a positive rate (NaN kept, as `rate <= 0` is False)
    cells = np.flatnonzero(~(model.rates <= 0))
    means = (model.rates[cells] * horizon_ms / MS_PER_HOUR).tolist()
    for cell, mean in zip(cells.tolist(), means):
        if cell not in spiked:
            n = poisson(mean)
            if n == 1:  # ~4x cheaper than size=1
                raw.append((int(integers(start_ms, end_ms)), cell))
            elif n:
                raw.extend((t, cell) for t in
                           np.sort(integers(start_ms, end_ms, size=n)).tolist())
            continue
        for a, b, rate in _segments(model, cell, start_ms, end_ms):
            n = poisson(rate * (b - a) / MS_PER_HOUR)
            if n:
                raw.extend((t, cell) for t in np.sort(integers(a, b, size=n)).tolist())

    raw.sort(key=lambda tc: tc[0])
    incidents = []
    prev = -1
    for i, (t, cell) in enumerate(raw):
        prev = t = max(t, prev + 1)
        if t >= end_ms:
            break  # pushed out of the window, as is every later one
        incidents.append(Incident(id=i, cell=cell, report_time_ms=t,
                                  service_duration_ms=model.service.sample(rng)))
    return IncidentChain(incidents=incidents, horizon_ms=horizon_ms)


def region_rates_at(model: DemandModel, partition, t_ms: int) -> dict[int, float]:
    """Per-region effective arrival rates (events/hour) at time t."""
    rates = {r: 0.0 for r in partition.regions()}
    for cell, region in partition.cell_to_region.items():
        rates[region] += model.rate_at(cell, t_ms)
    return rates
