#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarise every metric.

    python3 perfbench/repeat.py --workloads spikes_hier metro_hier \\
        --seeds 1-10 --sets 2 --seconds 40 --out summary.json

Each (set, workload, seed) is one run of run.py, one after another. For
each workload, set and metric the summary gives the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance between
the quartiles as a share of the median. With two sets it also gives how
much the second set's median is worse than the first's, as a share of the
first, and whether every seed gave the same outputs in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)  # needs two values or more
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def worse_share(first: float, second: float, better: str) -> float | None:
    if not first:
        return None
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="an inclusive range such as 1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    runs: dict = {}
    status = 0
    for index in range(args.sets):
        for workload in args.workloads:
            for seed in args.seeds:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True, check=False)
                status = status or proc.returncode
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                saved = json.loads((ROOT / ".perfbench_out" / workload /
                                    f"seed{seed}-trace{args.trace}" /
                                    "result.json").read_text())
                runs.setdefault(workload, []).append({"set": index, "seed": seed,
                                                      "line": line, "result": saved})
                print(f"set {index} {workload} seed {seed} correct {line['correct']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
                      flush=True)

    summary: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload, rows in runs.items():
        sets = [[r for r in rows if r["set"] == i] for i in range(args.sets)]
        entry: dict = {"sets": []}
        for rows_of_set in sets:
            metrics = {name: summarise([r["line"]["metrics"][name]["value"]
                                        for r in rows_of_set if r["line"]["correct"]])
                       for name in declared}
            entry["sets"].append({
                "metrics": metrics,
                "outputs_sha256": {r["seed"]: r["result"].get("outputs_sha256")
                                   for r in rows_of_set},
                "mean_rt_s": {r["seed"]: r["result"].get("mean_rt_s") for r in rows_of_set},
                "rt_p90_s": {r["seed"]: r["result"].get("rt_p90_s") for r in rows_of_set},
                "all_correct": all(r["line"]["correct"] for r in rows_of_set)})
        if args.sets >= 2:
            first, second = entry["sets"][0], entry["sets"][1]
            entry["second_median_worse_by"] = {
                name: worse_share(first["metrics"][name]["median"],
                                  second["metrics"][name]["median"], m["better"])
                for name, m in declared.items()}
            entry["outputs_identical_across_sets"] = all(
                s["outputs_sha256"] == first["outputs_sha256"]
                and s["mean_rt_s"] == first["mean_rt_s"]
                and s["rt_p90_s"] == first["rt_p90_s"] for s in entry["sets"][1:])
        entry["provenance"] = rows[0]["result"]["provenance"]
        summary["workloads"][workload] = entry

        for i, s in enumerate(entry["sets"]):
            for name, m in declared.items():
                row = s["metrics"][name]
                spread = "n/a" if row["spread"] is None else f"{row['spread']:.3f}"
                bound = m.get("bound")
                print(f"{workload} set {i} {name}: median {row['median']:.6g} "
                      f"{m['unit']}, spread {spread}" + (f" (bound {bound})" if bound else ""))
        if args.sets >= 2:
            print(f"{workload}: outputs identical across sets: "
                  f"{entry['outputs_identical_across_sets']}")
            for name, share in entry["second_median_worse_by"].items():
                if share is not None:
                    print(f"{workload} {name}: second median worse by {share:+.3f}")

    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
