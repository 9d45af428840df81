import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierdispatch import QueueParams, Unstable, mean_wait, p0, wait_probability
from hierdispatch import highlevel
from hierdispatch.highlevel import allocate
from hierdispatch.queueing import mean_wait_or_inf

import oracles
from oracles import simulate_mmc_mean_wait


class TestP0:
    def test_empty_system(self):
        assert p0(QueueParams(lam=0.0, mu=1.0, c=3)) == 1.0

    def test_two_server_half_load(self):
        # direct evaluation of the finite sum: 1/[1 + 1 + 1/(2*0.5)] = 1/3
        assert p0(QueueParams(lam=1.0, mu=1.0, c=2)) == pytest.approx(1 / 3)

    def test_mm1_closed_form(self):
        # M/M/1: P0 = 1 - rho
        assert p0(QueueParams(lam=0.5, mu=1.0, c=1)) == pytest.approx(0.5)

    def test_in_unit_interval(self):
        for lam, mu, c in [(0.3, 1, 1), (2, 3, 1), (4, 1, 5), (9, 2, 5)]:
            v = p0(QueueParams(lam, mu, c))
            assert 0 < v <= 1

    def test_unstable_raises(self):
        with pytest.raises(Unstable):
            p0(QueueParams(lam=2.0, mu=1.0, c=2))
        with pytest.raises(Unstable):
            mean_wait(QueueParams(lam=2.0, mu=1.0, c=2))


class TestMeanWait:
    def test_zero_arrivals(self):
        assert mean_wait(QueueParams(lam=0.0, mu=2.0, c=1)) == 0.0

    def test_mm1_closed_form(self):
        # Wq = lam / (mu (mu - lam)) = 2/3 h
        assert mean_wait(QueueParams(lam=2.0, mu=3.0, c=1)) == pytest.approx(2 / 3)

    def test_two_server_plugin(self):
        assert mean_wait(QueueParams(lam=1.0, mu=1.0, c=2)) == pytest.approx(1 / 3)

    def test_mm1_reduction_grid(self):
        for lam, mu in [(0.2, 1.0), (1.5, 2.0), (5.0, 7.0)]:
            expected = lam / (mu * (mu - lam))
            assert mean_wait(QueueParams(lam, mu, 1)) == pytest.approx(expected)

    def test_monotone_in_servers(self):
        lam, mu = 4.0, 1.0
        waits = [mean_wait(QueueParams(lam, mu, c)) for c in range(5, 12)]
        assert all(a > b for a, b in zip(waits, waits[1:]))

    def test_log_space_continuity(self):
        # the waits at c = 20 and 21 and at a large c, where factorials
        # overflow, must be ordered and finite
        lam, mu = 15.0, 1.0
        direct = mean_wait(QueueParams(lam, mu, 20))
        probe = QueueParams(lam, mu, 21)
        assert mean_wait(probe) < direct
        big = mean_wait(QueueParams(lam=135.0, mu=1.0, c=150))
        assert 0 < big < math.inf

    def test_inf_sentinel(self):
        assert mean_wait_or_inf(QueueParams(lam=3.0, mu=1.0, c=2)) == math.inf


class TestBruteForceOracle:
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("c", [1, 2, 5])
    def test_matches_event_simulation(self, rho, c):
        mu = 1.0
        lam = rho * c * mu
        analytic = mean_wait(QueueParams(lam, mu, c))
        simulated = simulate_mmc_mean_wait(lam, mu, c, n_arrivals=200_000, seed=42)
        assert simulated == pytest.approx(analytic, rel=0.05)

    def test_wait_probability_erlang_c(self):
        # Erlang-C at lam=1, mu=1, c=2: C = (1/ (2*0.5)) * P0 = 1/3
        assert wait_probability(QueueParams(1.0, 1.0, 2)) == pytest.approx(1 / 3)


def reference_wait_or_inf(q):
    # a load that underflows to 0.0 (a subnormal rate) is the reference's
    # own lam == 0 case; its log-space branch would take log(0.0)
    if q.lam / q.mu == 0.0:
        return 0.0
    try:
        return oracles.mean_wait(q)
    except Unstable:
        return math.inf


queues = st.builds(lambda c, mu, rho: QueueParams(rho * c * mu, mu, c),
                   st.integers(1, 30), st.floats(0.05, 20.0),
                   st.floats(0.0, 0.999))


class TestReference:
    """The running sum and the Erlang-B recursion against the factorial
    and log-space expressions they replaced (oracles.py)."""

    @settings(max_examples=300, deadline=None)
    @given(queues)
    def test_matches_reference(self, q):
        assert mean_wait(q) == pytest.approx(oracles.mean_wait(q), rel=1e-9, abs=0)
        assert p0(q) == pytest.approx(oracles.p0(q), rel=1e-9, abs=0)

    @settings(max_examples=200, deadline=None)
    @given(rates=st.lists(st.one_of(st.sampled_from([0.0, 1.5, 4.0, 9.0]),
                                    st.floats(0.0, 40.0)),
                          min_size=1, max_size=5),
           total=st.integers(1, 40), eta=st.floats(0.5, 6.0),
           caps=st.none() | st.lists(st.integers(1, 15), min_size=5, max_size=5))
    @example(rates=[5e-324], total=21, eta=2.0, caps=None)
    def test_allocator_counts_match_reference(self, rates, total, eta, caps):
        rates = dict(enumerate(rates))
        if caps is not None:
            caps = dict(zip(rates, caps))
            total = min(total, sum(caps.values()))
        got = allocate(rates, total, eta=eta, caps=caps)
        with mock.patch.object(highlevel, "mean_wait_or_inf", reference_wait_or_inf):
            want = allocate(rates, total, eta=eta, caps=caps)
        assert got == want

    def test_many_servers_finite(self):
        # both overflowed (OverflowError) before the Erlang-B recursion;
        # exact is Wq at 90% load from rational arithmetic
        a, c = Fraction(720), 800
        total, term = Fraction(0), Fraction(1)
        for m in range(c):
            total += term
            term = term * a / (m + 1)
        last = term / (1 - a / c)
        exact = last / (total + last) / (c - a)
        assert mean_wait(QueueParams(720.0, 1.0, c)) == pytest.approx(
            float(exact), rel=1e-9, abs=0)
        counts = allocate({0: 2400.0, 1: 1.0}, 900, eta=3.0).counts
        assert sum(counts.values()) == 900 and counts[0] * 3.0 > 2400.0
