"""Inside one region's allocation search: sampled chains, per-chain tree
scores, root-parallel averaging, and the recommended depot assignment.

Run from the repository root:  python3 demos/04_region_search.py
"""

import numpy as np

from hierdispatch import (MCTSParams, TreePool, build_scenario, decompose,
                          initial_state, load_config, mcts_search,
                          plan_region_allocations, sample_chain)

scenario = build_scenario(load_config("configs/synthetic_default.yaml"))
world = scenario.world
state = initial_state(scenario)
region = 2  # southern region: 3 agents, 4 depots



def fmt(assignment):
    """An assignment tuple ((agent, depot), ...) as a0->d1;a2->d3, () as pass."""
    return ";".join(f"a{a}->d{d}" for a, d in assignment) or "pass"


rs = decompose(state, region, world)
idle = rs.state.idle_agents()
print(f"=== region {region} ===")
print(f"agents: {[a.id for a in rs.state.agents]}, "
      f"idle: {[a.id for a in idle]}, "
      f"depots: {[d.id for d in rs.depots]}")

# each tree searches one sampled chain of future incidents
params = MCTSParams(iterations=200)
restricted = scenario.model.restrict(world.partition.cells_of(region))
print("\nper-chain tree scores (discounted response-time cost, lower is "
      "better); one tree per chain:")
maps = {}
for i in range(4):
    chain = sample_chain(restricted, params.horizon_ms,
                         np.random.SeedSequence(entropy=42, spawn_key=(region, i)),
                         start_ms=state.clock_ms)
    result = mcts_search(rs, chain, world, params)
    if not result.scores:  # empty chain: nothing to plan against
        print(f"  chain {i} ({len(chain):2d} incidents): no incidents, "
              f"any allocation scores alike")
        continue
    best = min(result.scores, key=result.scores.get)
    print(f"  chain {i} ({len(chain):2d} incidents): best {fmt(best)} "
          f"at {result.scores[best]:8.1f}")
    for action, score in result.scores.items():
        maps.setdefault(action, []).append(score)

print("\nroot-parallel averages over the 4 chains (top five actions):")
means = sorted((float(np.mean(v)), a) for a, v in maps.items())
for mean, action in means[:5]:
    print(f"  {fmt(action):22s} {mean:8.1f}")

# the planner runs its trees through a pool; 0 helpers: all in this process
pool = TreePool(world, scenario.model, 0)
plans = plan_region_allocations(state, pool, params, n_samples=4, seed=42,
                                regions=[region])
action = plans[region].action
print(f"\nplanner recommendation for region {region}: "
      f"{'keep' if action is None else fmt(action)}")
print("(agents repositioned toward the hotspots' depots; ties prefer the "
      "least added travel)")
