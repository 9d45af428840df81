"""M/M/c waiting-time analytics used by the inter-region allocator.

Standard Erlang-C expressions: P0 is the empty-system probability and
mean_wait the expected queueing delay Wq (hours).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class Unstable(Exception):
    """Utilization rho = lambda / (c * mu) is >= 1; waits are unbounded."""


@dataclass(frozen=True)
class QueueParams:
    lam: float  # arrivals/hour
    mu: float   # service completions/hour per server
    c: int      # server count

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.c < 1:
            raise ValueError("c must be >= 1")

    @property
    def rho(self) -> float:
        return self.lam / (self.c * self.mu)


def _check_stable(q: QueueParams) -> None:
    if q.rho >= 1:
        raise Unstable(f"rho={q.rho:.3f} >= 1 for lam={q.lam}, mu={q.mu}, c={q.c}")


def p0(q: QueueParams) -> float:
    """Probability of an empty system, in [0, 1]: 0.0 once the running
    sum of a^m/m! overflows to inf."""
    _check_stable(q)
    a = q.lam / q.mu
    total, term = 0.0, 1.0  # term = a^m / m!
    for m in range(q.c):
        total += term
        term *= a / (m + 1)
    return 1.0 / (total + term / (1 - q.rho))


def wait_probability(q: QueueParams) -> float:
    """Erlang-C probability that an arrival has to queue, by the Erlang-B
    recursion B_k = a B_{k-1} / (k + a B_{k-1}) from B_0 = 1, which stays
    in [0, 1] for every c: C = B_c / (1 - rho (1 - B_c))."""
    _check_stable(q)
    a = q.lam / q.mu
    b = 1.0
    for k in range(1, q.c + 1):
        b = a * b / (k + a * b)
    return b / (1 - q.rho * (1 - b))


def mean_wait(q: QueueParams) -> float:
    """Mean queueing delay Wq in hours; strictly decreasing in c."""
    return wait_probability(q) / (q.c * q.mu - q.lam)


def mean_wait_or_inf(q: QueueParams) -> float:
    """mean_wait with an infinite sentinel instead of Unstable."""
    try:
        return mean_wait(q)
    except Unstable:
        return math.inf
