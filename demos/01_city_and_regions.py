"""Build the synthetic city, partition it into regions, and look at the
decision-space reduction that regional decomposition buys.

Run from the repository root:  python3 demos/01_city_and_regions.py
"""

from hierdispatch import allocate, build_scenario, joint_action_count, load_config

scenario = build_scenario(load_config("configs/synthetic_default.yaml"))
world = scenario.world
part = world.partition

print("=== synthetic default city ===")
print(f"grid: 10x10 miles, {len(world.depots)} depots, "
      f"{scenario.config.num_agents} responders, k={part.k} regions\n")

print("region map (row gy=9 at the top; * marks a depot):")
depot_cells = {d.cell for d in world.depots}
for gy in range(9, -1, -1):
    row = []
    for gx in range(10):
        cell = gy * 10 + gx
        mark = "*" if cell in depot_cells else " "
        row.append(f"{part.cell_to_region[cell]}{mark}")
    print("   " + " ".join(row))

print("\nper-region demand and infrastructure:")
for r in part.regions():
    print(f"  region {r}: rate {part.region_rate[r]:.2f}/h, "
          f"depots {list(part.region_depots[r])}, "
          f"slots {part.region_slots[r]}")

# The reason for the hierarchy: joint allocation actions explode with
# fleet size. A 30-depot, 20-responder city has P(30,20) assignments;
# five regional sub-problems of 6 depots and 4 responders have 360 each.
print("\n=== decision-space sizes ===")
print(f"centralized, 30 depots / 20 agents : {joint_action_count(30, 20):.3e}")
print(f"one region,   6 depots /  4 agents : {joint_action_count(6, 4)}")
print(f"5 regions combined                 : {5 * joint_action_count(6, 4)}")

print("\nthis city's per-region action counts (all agents idle):")
alloc = allocate(part.region_rate, scenario.config.num_agents,
                 scenario.model.service.rate_per_hour, caps=part.region_slots)
for r in part.regions():
    n_depots = len(part.region_depots[r])
    n_agents = alloc.counts[r]
    print(f"  region {r}: P({n_depots},{n_agents}) = "
          f"{joint_action_count(n_depots, n_agents)}")
