import math

import numpy as np
import pytest

from hierdispatch import QueueParams, allocate, mean_wait
from hierdispatch.highlevel import _wait, total_expected_wait
from hierdispatch.spatial import Depot, make_grid, partition_regions

from oracles import best_allocation


class TestAllocate:
    def test_single_region_gets_everything(self):
        out = allocate({0: 2.5}, total_agents=6, eta=3.0)
        assert out.counts == {0: 6}

    def test_phase1_then_marginal_surplus(self):
        # phase 1 with eta=2: region 0 (rate 3) needs 2, region 1 (rate 1)
        # needs 1; the surplus agent goes to the larger waiting-time drop
        out = allocate({0: 3.0, 1: 1.0}, total_agents=4, eta=2.0)
        j0 = (mean_wait(QueueParams(3, 2, 2)) - mean_wait(QueueParams(3, 2, 3)))
        j1 = (mean_wait(QueueParams(1, 2, 1)) - mean_wait(QueueParams(1, 2, 2)))
        assert j0 > j1  # oracle for the argmax step
        assert out.counts == {0: 3, 1: 1}
        assert not out.unstable

    def test_budget_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            total = int(rng.integers(1, 9))
            rates = {r: float(rng.uniform(0.1, 3.0)) for r in range(k)}
            out = allocate(rates, total, eta=float(rng.uniform(1.0, 4.0)))
            assert sum(out.counts.values()) == total
            assert all(x >= 0 for x in out.counts.values())

    def test_phase1_scale_invariance(self):
        rates = {0: 3.0, 1: 1.0, 2: 0.4}
        a = allocate(rates, 6, eta=2.0)
        b = allocate({r: 10 * v for r, v in rates.items()}, 6, eta=20.0)
        assert a.counts == b.counts

    def test_phase1_pours_into_hottest_until_covered(self):
        # budget exhausts while covering region 0, so region 1 gets nothing
        out = allocate({0: 9.0, 1: 8.0}, total_agents=2, eta=3.0)
        assert out.counts == {0: 2, 1: 0}
        assert out.unstable == {0, 1}
        assert out.starved

    def test_surplus_restores_stability_first(self):
        # region 0 covered at exactly utilization 1; the surplus agent must
        # go there before any marginal-benefit comparison
        out = allocate({0: 6.0, 1: 1.0}, total_agents=4, eta=3.0)
        assert out.counts == {0: 3, 1: 1}
        assert not out.unstable

    def test_starved_budget(self):
        out = allocate({0: 1.0, 1: 1.0, 2: 1.0}, total_agents=2, eta=3.0)
        assert out.starved
        assert sum(out.counts.values()) == 2

    def test_caps_respected(self):
        out = allocate({0: 5.0, 1: 0.5}, total_agents=4, eta=3.0,
                       caps={0: 2, 1: 2})
        assert out.counts == {0: 2, 1: 2}
        with pytest.raises(ValueError):
            allocate({0: 5.0}, total_agents=4, eta=3.0, caps={0: 3})

    def test_validation(self):
        with pytest.raises(ValueError):
            allocate({0: 1.0}, total_agents=0, eta=3.0)
        with pytest.raises(ValueError):
            allocate({0: 1.0}, total_agents=1, eta=0.0)


class TestOptimalityGap:
    def test_gap_small_on_random_instances(self):
        rng = np.random.default_rng(99)
        gaps = []
        for _ in range(50):
            k = int(rng.integers(1, 5))
            total = int(rng.integers(k, 9))
            eta = float(rng.uniform(1.5, 4.0))
            rates = {r: float(rng.uniform(0.2, eta * 0.9)) for r in range(k)}
            out = allocate(rates, total, eta=eta)
            assert sum(out.counts.values()) == total
            greedy_val = total_expected_wait(rates, out.counts, eta)
            _best, best_val = best_allocation(rates, total, eta, _wait)
            if math.isinf(best_val) or math.isinf(greedy_val):
                continue
            if best_val == 0:
                assert greedy_val == 0
                continue
            gaps.append((greedy_val - best_val) / best_val)
        assert gaps, "expected some stable instances"
        mean_gap = sum(gaps) / len(gaps)
        print(f"\nmean optimality gap over {len(gaps)} stable instances: "
              f"{mean_gap:.2%} (max {max(gaps):.2%})")
        assert mean_gap <= 0.10


class TestPartitionAllocation:
    def test_capped_by_depot_slots(self):
        cells = make_grid(6, 1)
        weights = np.array([5.0, 0.1, 0.1, 0.1, 0.1, 0.2])
        depots = [Depot(id=0, cell=0), Depot(id=1, cell=5), Depot(id=2, cell=4)]
        part = partition_regions(cells, weights, depots, k=2, seed=0)
        out = allocate(part.region_rate, total_agents=3, eta=3.0,
                       caps=part.region_slots)
        for r, x in out.counts.items():
            assert x <= part.region_slots[r]
        assert sum(out.counts.values()) == 3
