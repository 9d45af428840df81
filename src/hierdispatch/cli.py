"""Command-line front end: run experiments, compare reports, dump partitions."""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .coordinator import PolicyMode
from .harness import build_scenario, compare, load_config, run_experiment


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seeds = [args.seed]
    if args.mode is not None:
        cfg.mode = args.mode
    report = run_experiment(cfg, args.out, trace=args.trace)
    s = report.summary_dict()
    print(f"mode={s['mode']} n={s['n']} mean_rt_s={s['mean_rt_s']:.3f} "
          f"q1={s['q1']:.3f} q3={s['q3']:.3f} iqr={s['iqr']:.3f} "
          f"planner_mean_s={s['planner_mean_s']:.3f}")
    print(f"outputs written to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    out_path = os.path.join(args.out, "comparison.csv") if args.out else None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    rows = compare(args.reports, out_path)
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return 0


def _cmd_partition(args) -> int:
    cfg = load_config(args.config)
    scenario = build_scenario(cfg)
    part = scenario.world.partition
    writer = csv.writer(sys.stdout)
    writer.writerow(["cell_id", "gx", "gy", "region"])
    for cell in scenario.world.cells:
        writer.writerow([cell.id, cell.gx, cell.gy,
                         part.cell_to_region[cell.id]])
    for r in part.regions():
        print(f"# region {r}: rate={part.region_rate[r]:.3f}/h "
              f"depots={list(part.region_depots[r])} "
              f"slots={part.region_slots[r]}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hierdispatch",
        description="Hierarchical responder-allocation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's seed list with one seed")
    p_run.add_argument("--mode", choices=[m.value for m in PolicyMode],
                       default=None, help="override the config's policy mode")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--trace", action="store_true",
                       help="write per-event trajectory logs")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare run reports")
    p_cmp.add_argument("--out", default=None, help="directory for comparison.csv")
    p_cmp.add_argument("reports", nargs="+", help="report.json files")
    p_cmp.set_defaults(func=_cmd_compare)

    p_part = sub.add_parser("partition", help="dump the region partition")
    p_part.add_argument("--config", required=True)
    p_part.set_defaults(func=_cmd_partition)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad config or report, missing file
        print(f"hierdispatch: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
