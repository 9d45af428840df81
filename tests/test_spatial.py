import numpy as np
import pytest

from hierdispatch import Depot, TravelModel, make_grid, partition_regions
from hierdispatch.harness import ConfigError, load_depot_file

from oracles import brute_force_two_partitions


class TestTravelModel:
    def test_three_four_five(self):
        m = TravelModel(speed_mph=30.0)
        assert m.travel_time((0, 0), (3, 4)) == pytest.approx(600.0)

    def test_identity(self):
        m = TravelModel()
        assert m.travel_time((2.5, 1.0), (2.5, 1.0)) == 0.0

    def test_one_mile(self):
        m = TravelModel(speed_mph=30.0)
        assert m.travel_time((0, 0), (1, 0)) == pytest.approx(120.0)

    def test_symmetry_and_triangle(self):
        m = TravelModel(speed_mph=17.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b, c = (tuple(rng.uniform(-5, 5, 2)) for _ in range(3))
            assert m.travel_time(a, b) == pytest.approx(m.travel_time(b, a))
            assert m.travel_time(a, c) <= m.travel_time(a, b) + m.travel_time(b, c) + 1e-9

    def test_bad_speed(self):
        with pytest.raises(ValueError):
            TravelModel(speed_mph=0.0)


class TestGrid:
    def test_ids_dense_row_major(self):
        cells = make_grid(4, 3, 1.0)
        assert [c.id for c in cells] == list(range(12))
        assert cells[5].gx == 1 and cells[5].gy == 1

    def test_centroid_formula(self):
        cells = make_grid(3, 2, cell_size_miles=2.0)
        assert cells[0].centroid == (1.0, 1.0)
        assert cells[4].centroid == (3.0, 3.0)


def _two_cluster_instance():
    # two well-separated 2-cell clusters on a 10x1 strip
    cells = make_grid(10, 1)
    weights = np.zeros(10)
    weights[[0, 1, 8, 9]] = 1.0
    depots = [Depot(id=0, cell=0), Depot(id=1, cell=9)]
    return cells, weights, depots


class TestPartition:
    def test_single_region(self):
        cells = make_grid(5, 5)
        depots = [Depot(id=0, cell=12)]
        part = partition_regions(cells, np.ones(25), depots, k=1, seed=3)
        assert set(part.cell_to_region.values()) == {0}
        assert part.region_depots[0] == (0,)

    def test_two_clusters_match_bruteforce(self):
        cells, weights, depots = _two_cluster_instance()
        part = partition_regions(cells, weights, depots, k=2, seed=0)
        groups, _ = brute_force_two_partitions(
            [cells[i].centroid for i in (0, 1, 8, 9)], [1, 1, 1, 1])
        # brute force over the weighted cells puts {0,1} and {8,9} together
        assert sorted(map(sorted, groups)) == [[0, 1], [2, 3]]
        assert part.cell_to_region[0] == part.cell_to_region[1]
        assert part.cell_to_region[8] == part.cell_to_region[9]
        assert part.cell_to_region[0] != part.cell_to_region[9]

    def test_totality_and_rate_sums(self):
        cells = make_grid(8, 8)
        rng = np.random.default_rng(11)
        weights = rng.uniform(0, 2, 64)
        depots = [Depot(id=i, cell=c) for i, c in enumerate([3, 20, 45, 60])]
        part = partition_regions(cells, weights, depots, k=3, seed=1)
        assert sorted(part.cell_to_region) == list(range(64))
        assert sum(len(part.cells_of(r)) for r in part.regions()) == 64
        assert sum(part.region_rate.values()) == pytest.approx(weights.sum())
        for r in part.regions():
            assert len(part.region_depots[r]) >= 1

    def test_determinism(self):
        cells = make_grid(8, 8)
        rng = np.random.default_rng(2)
        weights = rng.uniform(0, 2, 64)
        depots = [Depot(id=i, cell=c) for i, c in enumerate([3, 20, 45, 60])]
        a = partition_regions(cells, weights, depots, k=3, seed=7)
        b = partition_regions(cells, weights, depots, k=3, seed=7)
        assert a == b

    def test_depotless_region_repair(self):
        # all depots clustered left; weights force a right-hand region
        cells = make_grid(10, 1)
        weights = np.zeros(10)
        weights[[0, 1, 9]] = [5.0, 5.0, 5.0]
        depots = [Depot(id=0, cell=0), Depot(id=1, cell=1)]
        part = partition_regions(cells, weights, depots, k=2, seed=0)
        for r in part.regions():
            assert len(part.region_depots[r]) >= 1

    def test_preconditions(self):
        cells = make_grid(4, 1)
        depots = [Depot(id=0, cell=0)]
        with pytest.raises(ValueError):
            partition_regions(cells, np.ones(4), depots, k=2, seed=0)
        with pytest.raises(ValueError):
            partition_regions(cells, np.zeros(4), depots, k=1, seed=0)

    def test_experiment_region_counts_accepted(self):
        cells = make_grid(10, 10)
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.1, 1.0, 100)
        depots = [Depot(id=i, cell=int(c))
                  for i, c in enumerate(rng.choice(100, size=9, replace=False))]
        for k in (5, 6, 7):
            part = partition_regions(cells, weights, depots, k=k, seed=4)
            assert part.k == k
            assert len(part.regions()) == k


class TestDepotFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "depots.csv"
        path.write_text("depot_id,gx,gy,capacity\n0,2,3,1\n1,5,0,2\n")
        depots = load_depot_file(path, width=6, height=4)
        assert depots[0].cell == 3 * 6 + 2
        assert depots[1].capacity == 2

    def test_missing_column(self, tmp_path):
        path = tmp_path / "depots.csv"
        path.write_text("depot_id,gx,gy\n0,2,3\n")
        with pytest.raises(ConfigError, match="expected columns"):
            load_depot_file(path, width=6, height=4)

    def test_out_of_grid(self, tmp_path):
        path = tmp_path / "depots.csv"
        path.write_text("depot_id,gx,gy,capacity\n0,9,0,1\n")
        with pytest.raises(ConfigError, match=r"row 1: gx '9'"):
            load_depot_file(path, width=6, height=4)
