"""Grid world, depots, travel model, and region partitioning.

The service area is a rectangular grid of equally sized square cells.
Depots sit inside cells and hold idle responders up to a fixed capacity.
Regions are clusters of cells produced by a weighted k-means over cell
centroids; every depot belongs to the region of its containing cell.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

Position = tuple[float, float]


class InfeasiblePartition(Exception):
    """Raised when a region cannot be given at least one depot."""


@dataclass(frozen=True)
class Cell:
    """One grid cell; ids are dense and row-major (id = gy * width + gx)."""

    id: int
    gx: int
    gy: int
    centroid: Position


@dataclass(frozen=True)
class Depot:
    id: int
    cell: int
    capacity: int = 1

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"depot {self.id}: capacity must be >= 1")


@dataclass(frozen=True)
class TravelModel:
    """Straight-line router at constant speed."""

    speed_mph: float = 30.0

    def __post_init__(self):
        if self.speed_mph <= 0:
            raise ValueError("speed must be positive")

    def travel_time(self, frm: Position, to: Position) -> float:
        """Travel duration in seconds between two positions (miles)."""
        dist = math.hypot(to[0] - frm[0], to[1] - frm[1])
        return dist / self.speed_mph * 3600.0


def make_grid(width: int, height: int, cell_size_miles: float = 1.0) -> list[Cell]:
    """Build the dense cell list for a width x height grid."""
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    cells = []
    for gy in range(height):
        for gx in range(width):
            cid = gy * width + gx
            centroid = ((gx + 0.5) * cell_size_miles, (gy + 0.5) * cell_size_miles)
            cells.append(Cell(cid, gx, gy, centroid))
    return cells


@dataclass
class RegionPartition:
    """Assignment of cells and depots to k regions.

    region_rate holds the per-region sums of the weights that were passed
    to :func:`partition_regions`; pass rates in events/hour to make these
    aggregate arrival rates.
    """

    k: int
    cell_to_region: dict[int, int]
    region_depots: dict[int, tuple[int, ...]]
    region_rate: dict[int, float]
    region_slots: dict[int, int] = field(default_factory=dict)

    def regions(self) -> list[int]:
        return sorted(self.region_depots)

    def cells_of(self, region: int) -> list[int]:
        return sorted(c for c, r in self.cell_to_region.items() if r == region)


def _weighted_kmeans(points: np.ndarray, weights: np.ndarray, k: int,
                     seed: int, max_iter: int = 100) -> np.ndarray:
    """Lloyd iterations with farthest-point seeding; returns cell labels.

    The first center is drawn weight-proportionally from the given seed;
    the rest maximize weighted squared distance to the nearest chosen
    center. Ties in assignment go to the lowest region id.
    """
    n = len(points)
    rng = np.random.default_rng(seed)
    probs = weights / weights.sum()
    centers = np.empty((k, 2))
    first = rng.choice(n, p=probs)
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        idx = int(np.argmax(weights * d2))  # argmax takes the lowest index on ties
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))

    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        dists = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dists, axis=1)  # lowest region id on ties
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            w = weights[mask]
            if w.sum() > 0:
                centers[j] = np.average(points[mask], axis=0, weights=w)
            elif mask.any():
                centers[j] = points[mask].mean(axis=0)
            else:
                # empty cluster: reseat at the worst-served cell
                dmin = np.min(np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1)
                centers[j] = points[int(np.argmax(weights * dmin))]
    return labels


def partition_regions(cells: list[Cell], weights, depots: list[Depot],
                      k: int, seed: int) -> RegionPartition:
    """Cluster cells into k regions and attach depots.

    weights: per-cell historical incident counts or rates, indexed by cell
    id. region_rate sums these values per region. Regions that end up with
    no depot steal the cell of the nearest depot whose home region keeps
    at least one; if that is impossible an InfeasiblePartition is raised.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(depots):
        raise ValueError(f"k={k} exceeds number of depots ({len(depots)})")
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(cells):
        raise ValueError("weights must have one entry per cell")
    if weights.sum() <= 0:
        raise ValueError("total weight must be positive")

    points = np.array([c.centroid for c in cells])
    labels = _weighted_kmeans(points, weights, k, seed)
    cell_to_region = {c.id: int(labels[i]) for i, c in enumerate(cells)}

    # depot-less region repair: move the nearest movable depot's cell over
    def depots_by_region():
        out: dict[int, list[Depot]] = {r: [] for r in range(k)}
        for d in depots:
            out[cell_to_region[d.cell]].append(d)
        return out

    by_region = depots_by_region()
    empty = sorted(r for r, ds in by_region.items() if not ds)
    while empty:
        r = empty[0]
        members = [c for c in cells if cell_to_region[c.id] == r]
        cx = float(np.mean([c.centroid[0] for c in members])) if members else 0.0
        cy = float(np.mean([c.centroid[1] for c in members])) if members else 0.0
        movable = [d for d in depots
                   if len(by_region[cell_to_region[d.cell]]) >= 2]
        if not movable:
            raise InfeasiblePartition(f"region {r} has no depot and none can move")
        best = min(movable, key=lambda d: (math.hypot(cells[d.cell].centroid[0] - cx,
                                                      cells[d.cell].centroid[1] - cy), d.id))
        cell_to_region[best.cell] = r
        by_region = depots_by_region()
        empty = sorted(r for r, ds in by_region.items() if not ds)

    region_depots = {r: tuple(sorted(d.id for d in ds)) for r, ds in by_region.items()}
    region_slots = {r: sum(d.capacity for d in ds) for r, ds in by_region.items()}
    region_rate = {r: 0.0 for r in range(k)}
    for c in cells:
        region_rate[cell_to_region[c.id]] += float(weights[c.id])
    return RegionPartition(k=k, cell_to_region=cell_to_region,
                           region_depots=region_depots, region_rate=region_rate,
                           region_slots=region_slots)


def load_depots(path) -> list[Depot]:
    """Read a depot table: depot_id,gx,gy,capacity (gx,gy resolved later).

    Returns depots with cell left as a (gx, gy) pair encoded by the caller;
    use :func:`resolve_depots` to bind them to a grid.
    """
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        required = {"depot_id", "gx", "gy", "capacity"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"depot file {path}: expected columns {sorted(required)}")
        for row in reader:
            rows.append((int(row["depot_id"]), int(row["gx"]), int(row["gy"]),
                         int(row["capacity"])))
    return rows


def resolve_depots(rows, width: int, height: int) -> list[Depot]:
    """Bind (depot_id, gx, gy, capacity) rows to row-major cell ids."""
    depots = []
    seen = set()
    for depot_id, gx, gy, capacity in rows:
        if not (0 <= gx < width and 0 <= gy < height):
            raise ValueError(f"depot {depot_id}: cell ({gx},{gy}) outside grid")
        if depot_id in seen:
            raise ValueError(f"duplicate depot id {depot_id}")
        seen.add(depot_id)
        depots.append(Depot(id=depot_id, cell=gy * width + gx, capacity=capacity))
    return depots


@dataclass
class World:
    """Static problem instance shared by the simulator and planners."""

    cells: list[Cell]
    depots: list[Depot]
    travel: TravelModel
    partition: RegionPartition | None = None

    def __post_init__(self):
        self._depot_by_id = {d.id: d for d in self.depots}

    def cell_pos(self, cell_id: int) -> Position:
        return self.cells[cell_id].centroid

    def depot(self, depot_id: int) -> Depot:
        return self._depot_by_id[depot_id]

    def depot_pos(self, depot_id: int) -> Position:
        return self.cells[self._depot_by_id[depot_id].cell].centroid

    def depots_in(self, region: int) -> list[Depot]:
        assert self.partition is not None
        return [self._depot_by_id[i] for i in self.partition.region_depots[region]]

    def region_of_cell(self, cell_id: int) -> int:
        assert self.partition is not None
        return self.partition.cell_to_region[cell_id]
