"""Hierarchical planner for spatio-temporal responder allocation.

Splits a city-scale allocation problem into regions: an M/M/c-based
planner balances the fleet across regions, per-region Monte-Carlo tree
search picks depot assignments, and a discrete-event simulator evaluates
the resulting dispatch performance on synthetic incident streams.
"""

from .coordinator import (Coordinator, FailureEvent, PlannerConfig, PolicyMode,
                          apply_region_rebalance)
from .demand import (DemandModel, EmptyHistory, Incident, IncidentChain,
                     ServiceLaw, SpikeWindow, fit_rates, region_rates_at,
                     sample_chain)
from .harness import (ChainMismatch, MetricsReport, ScenarioConfig,
                      build_scenario, compare, initial_state, load_config,
                      run_experiment)
from .highlevel import Allocation, allocate
from .lowlevel import (MCTSParams, MCTSResult, RegionState, TreePool, decompose,
                       joint_action_count, mcts_search, plan_region_allocations)
from .queueing import QueueParams, Unstable, mean_wait, p0, wait_probability
from .simulator import (Agent, AgentBusy, AgentStatus, DepotFull, SystemState,
                        UnknownIncident, UnknownRegion, advance, assign_depot,
                        assign_region, dispatch, greedy_dispatch_pending)
from .spatial import (Cell, Depot, InfeasiblePartition, RegionPartition,
                      TravelModel, World, make_grid, partition_regions)

__version__ = "0.1.0"
