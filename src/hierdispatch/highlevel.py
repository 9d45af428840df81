"""Greedy distribution of agents across regions (two-phase heuristic).

Phase 1 walks regions in order of decreasing arrival rate, adding agents
until each region's aggregate service rate covers its arrival rate.
Phase 2 spends any surplus one agent at a time on the region with the
largest marginal waiting-time reduction J = w(x) - w(x+1); regions that
are still unstable get priority, worst utilization first. A region is an
M/M/c queue whose μ (eta) is the rate the simulator and the search
rollouts serve at: 1 / the run's mean service, ServiceLaw.rate_per_hour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .queueing import QueueParams, mean_wait_or_inf


@dataclass
class Allocation:
    """Per-region agent counts plus stability diagnostics."""

    counts: dict[int, int]
    unstable: set[int] = field(default_factory=set)
    starved: bool = False


def _wait(rate: float, eta: float, x: int) -> float:
    if rate <= 0:
        return 0.0
    if x == 0:
        return math.inf
    return mean_wait_or_inf(QueueParams(lam=rate, mu=eta, c=x))


def _utilization(rate: float, eta: float, x: int) -> float:
    if rate <= 0:
        return 0.0
    if x == 0:
        return math.inf
    return rate / (eta * x)


def allocate(rates: Mapping[int, float], total_agents: int, eta: float,
             caps: Mapping[int, int] | None = None) -> Allocation:
    """Distribute total_agents across regions given arrival rates.

    rates: region id -> events/hour. eta: μ, services per agent-hour
    (ServiceLaw.rate_per_hour). caps: optional per-region maximum (e.g.
    depot slots). The result always satisfies sum(x) == total_agents and
    x >= 0; regions left with utilization >= 1 are flagged unstable, and
    starved marks budgets too small to seed every region.
    """
    if total_agents < 1:
        raise ValueError("total_agents must be >= 1")
    if eta <= 0:
        raise ValueError("eta must be positive")
    regions = sorted(rates)
    cap = {r: math.inf if caps is None else caps.get(r, 0) for r in regions}
    if sum(cap.values()) < total_agents:
        raise ValueError("total_agents exceeds the sum of region caps")
    x = {r: 0 for r in regions}

    # Phase 1: seed regions in order of decreasing arrival rate until each
    # one's service capacity covers its arrivals.
    assigned = 0
    order = sorted(regions, key=lambda r: (-rates[r], r))
    for r in order:
        while assigned < total_agents and x[r] < cap[r]:
            x[r] += 1
            assigned += 1
            if eta * x[r] >= rates[r]:
                break
        if assigned >= total_agents:
            break

    # Phase 2: spend the surplus on the largest marginal benefit.
    while assigned < total_agents:
        open_regions = [r for r in regions if x[r] < cap[r]]
        unstable = [r for r in open_regions if _utilization(rates[r], eta, x[r]) >= 1]
        if unstable:
            best = max(unstable, key=lambda r: (_utilization(rates[r], eta, x[r]), -r))
        else:
            gains = {r: _wait(rates[r], eta, x[r]) - _wait(rates[r], eta, x[r] + 1)
                     for r in open_regions}
            best = max(open_regions, key=lambda r: (gains[r], -r))
        x[best] += 1
        assigned += 1

    unstable = {r for r in regions
                if rates[r] > 0 and _utilization(rates[r], eta, x[r]) >= 1}
    starved = any(x[r] == 0 for r in regions)
    return Allocation(counts=x, unstable=unstable, starved=starved)


def total_expected_wait(rates: Mapping[int, float], counts: Mapping[int, int],
                        eta: float) -> float:
    """Objective value sum_j w_j(x_j) in hours (inf if any region unstable)."""
    return sum(_wait(rates[r], eta, counts[r]) for r in rates)
