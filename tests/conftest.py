import multiprocessing
import threading

import numpy as np
import pytest

from hierdispatch import (Agent, AgentStatus, Depot, SystemState, TravelModel,
                          World, make_grid, partition_regions)
from hierdispatch.lowlevel import _joint_choices


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves an extra thread alive: while one runs, every
    later tree pool would fork no helper and run in one process."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"{len(leaked)} thread(s) still alive: {leaked}")


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail a test that leaves a child process (a search helper) alive."""
    yield
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.kill()
        proc.join()
    if leaked:
        pytest.fail(f"{len(leaked)} child process(es) still alive: {leaked}")


def build_world(width=10, height=1, depot_xy=((0, 0), (9, 0)), k=1,
                weights=None, capacity=1, speed=30.0, seed=0):
    """Small grid world with depots at the given (gx, gy) cells."""
    cells = make_grid(width, height)
    depots = [Depot(id=i, cell=gy * width + gx, capacity=capacity)
              for i, (gx, gy) in enumerate(depot_xy)]
    if weights is None:
        weights = np.ones(len(cells))
    part = partition_regions(cells, weights, depots, k, seed)
    return World(cells=cells, depots=depots, travel=TravelModel(speed),
                 partition=part)


def waiting_agent(world, agent_id, depot_id, region=None):
    pos = world.depot_pos(depot_id)
    if region is None:
        region = world.region_of_cell(world.depot(depot_id).cell)
    return Agent(id=agent_id, position=pos, destination=pos,
                 status=AgentStatus.WAITING, region=region, depot=depot_id)


def joint_actions(rs, cap=10_000):
    """The assignment tuples _joint_choices(rs, cap) describes, in its
    order."""
    ids, depot_tuples = _joint_choices(rs, cap)
    return [tuple(zip(ids, depots)) for depots in depot_tuples]


def fresh_state(world, depot_ids, clock_ms=0):
    agents = [waiting_agent(world, i, d) for i, d in enumerate(depot_ids)]
    return SystemState(clock_ms=clock_ms, pending=[], agents=agents)


@pytest.fixture
def line_world():
    """1x10 corridor, depots at both ends, one region."""
    return build_world()
