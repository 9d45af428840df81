"""End-to-end comparison of the three dispatch policies on the synthetic
city's non-stationary test bed (one seed, scaled-down planner effort, so
it finishes in about half a minute).

Run from the repository root:  python3 demos/05_policy_comparison.py
"""

import copy
import tempfile
import time
from pathlib import Path

from hierdispatch import load_config, run_experiment

cfg = load_config("configs/synthetic_nonstationary.yaml")
cfg.seeds = [1]

rows = []
with tempfile.TemporaryDirectory(prefix="hierdispatch_demo_") as out:
    for mode in ("baseline", "lowlevel", "hierarchical"):
        c = copy.deepcopy(cfg)
        c.mode = mode
        started = time.perf_counter()
        report = run_experiment(c, Path(out) / mode)
        q1, _q2, q3 = report.quartiles()
        rows.append((mode, report.count, report.mean, q1, q3,
                     report.transfers, time.perf_counter() - started))

print(f"\nresults over {rows[0][1]} incidents "
      f"(4x spikes hit region 0 at 06:00 and region 2 at 14:00):\n")
print(f"{'policy':14s} {'mean rt':>9s} {'Q1':>8s} {'Q3':>8s} "
      f"{'transfers':>9s} {'wall':>7s}")
for mode, _n, mean, q1, q3, transfers, wall in rows:
    print(f"{mode:14s} {mean:8.1f}s {q1:7.1f}s {q3:7.1f}s "
          f"{transfers:9d} {wall:6.1f}s")

base = rows[0][2]
print("\nimprovement over the static baseline:")
for mode, _n, mean, *_ in rows[1:]:
    print(f"  {mode}: {base - mean:+.1f} s mean response time")
print("\nthe same comparison via the CLI, keeping the output files:")
print("  hierdispatch run --config configs/synthetic_nonstationary.yaml "
      "--mode baseline --out out/base")
print("  hierdispatch compare out/base/report.json out/hier/report.json")
