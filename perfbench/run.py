#!/usr/bin/env python3
"""Benchmark of the hierdispatch simulator and planner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spikes_hier --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each workload is a scenario config run through the public
`harness.run_experiment` entry point, in this one process, with no
threads. The evaluation seeds are derived from `--seed` and passed in as
the config's `seeds`; the program sees only the config.

A run simulates its distinct seeds in one call, then repeats that call
while another repeat fits in `--seconds`. A repeat must give
byte-identical incident files. The number of distinct seeds follows from
`--seconds` and the workload's cost per seed on a slow reference host,
never from how fast the host is, so the simulated metrics of a run
repeat exactly; repeats re-run the same seeds, so their number changes
no metric's meaning.

With `--trace 0` the last line printed holds the end-to-end metrics.
With `--trace 1` it holds the per-layer metrics (see layers.py), taken
from a traced repeat of an untraced call over the same seeds; the two
calls must give identical incident files. Metric
names and units are read from BENCHMARK.json. A seed whose run raises or
fails an output check counts as failed; the run then prints
`"correct": false` and exits with code 1. A checkout without the program
makes it exit with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_BLOCKS = 20
SETUP_BLOCK = 5
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    config: str
    mode: str
    seed_cost_s: float  # host seconds one seed takes on a slow reference host
    max_seeds: int      # distinct evaluation seeds per run, at most
    overrides: dict = field(default_factory=dict)


# Why these three: see BENCHMARK.json and README.md in this directory.
WORKLOADS = {
    "spikes_hier": Workload("synthetic_nonstationary.yaml", "hierarchical",
                            seed_cost_s=12.0, max_seeds=64),
    "metro_hier": Workload("metro30_preset.yaml", "hierarchical",
                           seed_cost_s=12.0, max_seeds=64,
                           overrides={"mcts_iterations": 128, "n_samples": 2}),
    "failures_baseline": Workload("synthetic_failures.yaml", "baseline",
                                  seed_cost_s=0.01, max_seeds=200),
}


class MissingProgram(Exception):
    pass


def load_program():
    """Import hierdispatch from this checkout's src/, and from nowhere else."""
    package = ROOT / "src" / "hierdispatch"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no hierdispatch package under {package}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import hierdispatch
    if Path(hierdispatch.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"hierdispatch was imported from {hierdispatch.__file__}")
    from hierdispatch import harness
    return harness


def evaluation_seeds(w: Workload, seed: int, seconds: float, trace: bool):
    budget = seconds / w.seed_cost_s  # seed runs that fit in the time
    if trace:  # an untraced and a slower traced call over the same seeds
        budget /= 2.5
    n = max(1, min(w.max_seeds, math.floor(budget)))
    return [seed * SEED_STRIDE + i for i in range(n)]


def workload_config(harness, w: Workload, seeds, mode=None):
    cfg = harness.load_config(ROOT / "configs" / w.config)
    for key, value in w.overrides.items():
        setattr(cfg, key, value)
    cfg.mode = mode or w.mode
    cfg.seeds = list(seeds)
    cfg.validate()
    return cfg


def measure_setup(harness, cfg) -> float:
    """Seconds of build_scenario + initial_state at reference speed: the
    median over blocks of SETUP_BLOCK calls, the host speed sampled
    before each block."""
    speed = Speedometer(interval=0.0)
    times = []
    for _ in range(SETUP_BLOCKS + 1):
        speed.tick()
        start = time.perf_counter()
        for _ in range(SETUP_BLOCK):
            harness.initial_state(harness.build_scenario(cfg))
        took = (time.perf_counter() - start) / SETUP_BLOCK
        times.append(took / speed.factor())
    return statistics.median(times[1:])  # the first block pays for warm-up


@contextmanager
def decision_timer(mode: str, samples: array, speed: Speedometer):
    """Time each decision the coordinator makes, at reference speed.

    With a planner, a decision is a call to Coordinator.maybe_replan that
    returned True. In baseline mode no planner runs, and the decision is
    the dispatch: a live greedy_dispatch_pending call that dispatched.
    The host speed is sampled between decisions, never inside one.
    """
    from hierdispatch import coordinator
    clock = time.perf_counter
    if mode == "baseline":
        owner, attr = coordinator, "greedy_dispatch_pending"
        dispatch = coordinator.greedy_dispatch_pending

        def timed(state, world):
            speed.tick()
            start = clock()
            records = dispatch(state, world)
            if records:
                samples.append((clock() - start) / speed.factor())
            return records
    else:
        owner, attr = coordinator.Coordinator, "maybe_replan"
        replan = coordinator.Coordinator.maybe_replan

        def timed(self, state, trigger, result):
            speed.tick()
            start = clock()
            decided = replan(self, state, trigger, result)
            if decided:
                samples.append((clock() - start) / speed.factor())
            return decided
    original = getattr(owner, attr)
    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def check_incidents(path: Path, pending: int, chain_incidents: int) -> list[str]:
    """Problems with one incidents file; an empty list means it passed."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    problems = []
    if len({row["incident_id"] for row in rows}) != len(rows):
        problems.append("an incident was dispatched twice")
    if len(rows) + pending != chain_incidents:
        problems.append(f"{len(rows)} dispatched + {pending} pending != "
                        f"{chain_incidents} chain incidents")
    for row in rows:
        rep, disp, arr, resp = (float(row[k]) for k in (
            "report_time_s", "dispatch_time_s", "arrival_time_s", "response_time_s"))
        if not rep <= disp <= arr:
            problems.append(f"incident {row['incident_id']}: report <= dispatch "
                            f"<= arrival does not hold")
            break
        if abs(resp - (arr - rep)) > 0.0005 + 1e-9:  # half the file's last digit
            problems.append(f"incident {row['incident_id']}: response_time_s "
                            f"{resp} != arrival - report")
            break
    return problems


class OutputCheck:
    """Checks every call's outputs against the config's own chains."""

    def __init__(self, harness, cfg):
        self.harness = harness
        self.scenario = harness.build_scenario(cfg)
        self.digests: dict[int, str] = {}
        self.failed: dict[int, list[str]] = {}

    def fail(self, seed, problem):
        self.failed.setdefault(seed, []).append(problem)

    def check_call(self, out_dir: Path, seeds) -> None:
        for seed in seeds:
            try:
                self._check_seed(out_dir, seed)
            except (OSError, KeyError, ValueError) as exc:
                self.fail(seed, f"unreadable output: {exc!r}")

    def _check_seed(self, out_dir: Path, seed: int) -> None:
        path = out_dir / f"incidents_seed{seed}.csv"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if seed in self.digests:
            if digest != self.digests[seed]:
                self.fail(seed, "a repeat run gave a different incidents file")
            return
        self.digests[seed] = digest
        report = json.loads((out_dir / "report.json").read_text())
        chain = self.harness.chain_for_seed(self.scenario, seed)
        if report["chain_fingerprints"][str(seed)] != self.harness.chain_fingerprint(chain):
            self.fail(seed, "chain fingerprint differs from the config's chain")
        pending = report["per_seed"][str(seed)]["pending_at_end"]
        for problem in check_incidents(path, pending, len(chain.incidents)):
            self.fail(seed, problem)


def git_sha():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None  # not a git checkout
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hierdispatch").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": git_sha(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def p90(values) -> float:
    return float(np.percentile(values, 90, method="linear"))


def incidents_of(report) -> int:
    return sum(v["chain_incidents"] for v in report.per_seed.values())


def run_workload(name: str, w: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    harness = load_program()
    out = OUT / name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    seeds = evaluation_seeds(w, seed, seconds, trace)
    cfg = workload_config(harness, w, seeds)
    setup_s = None if trace else measure_setup(harness, cfg)
    check = OutputCheck(harness, cfg)
    samples = array("d")  # seconds of each decision, at reference speed
    speed = Speedometer()

    def call(index, batch, tracer=None, probe=None):
        """One run_experiment call, checked; its report and its seconds at
        reference speed."""
        call_dir = out / f"call{index}"
        hook = (layers.instrument(tracer, probe, speed.tick) if tracer
                else decision_timer(w.mode, samples, speed))
        speed.begin()
        converted = speed.reference_s
        try:
            with hook:
                report = harness.run_experiment(
                    workload_config(harness, w, batch), call_dir,
                    observer=probe.observer if probe else None)
        except Exception as exc:  # a seed whose run raised is a failed seed
            traceback.print_exc()
            for s in batch:
                check.fail(s, f"run raised {exc!r}")
            return None, 0.0
        speed.end()
        took = speed.reference_s - converted
        check.check_call(call_dir, batch)
        if index > 0:
            shutil.rmtree(call_dir)
        return report, took

    started = time.perf_counter()
    first, took = call(0, seeds)
    last = time.perf_counter() - started  # host seconds of the last call
    # repeats do the same work, so memory is taken before they add samples
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    incidents, ref_s = (incidents_of(first), took) if first else (0, 0.0)
    if trace:
        tracer = layers.Tracer()
        probe = layers.Probe(tracer)
        traced, traced_s = call(1, seeds, tracer, probe)
    else:  # repeat the same seeds while another repeat fits the time
        index = 1
        while first is not None and time.perf_counter() + last <= started + seconds:
            before = time.perf_counter()
            report, took = call(index, seeds)
            last = time.perf_counter() - before
            if report is None:
                break
            incidents += incidents_of(report)
            ref_s += took
            index += 1

    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "seeds": seeds, "attempted": len(seeds),
              "failed": len(check.failed),
              "failed_frac": len(check.failed) / len(seeds),
              "problems": {str(s): p for s, p in check.failed.items()},
              "incidents_sha256": {str(s): check.digests[s] for s in seeds
                                   if s in check.digests},
              "provenance": provenance()}
    if check.failed:
        return result
    result["outputs_sha256"] = hashlib.sha256(
        "".join(check.digests[s] for s in seeds).encode()).hexdigest()
    result["chain_fingerprints"] = {str(k): v for k, v in
                                    first.chain_fingerprints.items()}
    rts = first.response_times_s
    result["mean_rt_s"] = statistics.fmean(rts)
    result["rt_p90_s"] = p90(rts)

    if trace:
        layer = layers.layer_metrics(tracer, probe)
        layer["trace.overhead_frac"] = 1.0 - (incidents_of(traced) / traced_s) / (
            incidents / ref_s)
        with open(out / "spans.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span.as_dict()) + "\n")
        result["metrics"] = layer
        result["workload_check"] = workload_check(name, layer)
        return result

    if w.mode == "baseline":
        base = rts
    else:  # the static baseline policy on the same chains
        base = harness.run_experiment(
            workload_config(harness, w, seeds, mode="baseline"),
            out / "reference_baseline").response_times_s
    result["decision_samples"] = len(samples)
    result["calls"] = index
    result["host_speed_factor"] = speed.mean_factor()
    result["metrics"] = {
        "setup_s": setup_s,
        "incidents_per_s": incidents / ref_s,
        "decision_p50_ms": float(np.median(samples)) * 1000.0,
        "decision_p90_ms": p90(samples) * 1000.0,
        "peak_rss_mb": peak_rss_mb,
        "mean_rt_ratio": statistics.fmean(rts) / statistics.fmean(base),
        "rt_p90_ratio": p90(rts) / p90(base),
    }
    return result


def workload_check(name: str, m: dict) -> dict:
    """Whether the workload still stresses the layers it was chosen for."""
    if name == "spikes_hier":
        ok = m["lowlevel.search.share"] >= 0.9 and m["coordinator.transfers"] > 0
        what = (f"search share {m['lowlevel.search.share']:.3f} >= 0.9 and "
                f"transfers {m['coordinator.transfers']} > 0")
    elif name == "metro_hier":
        ok = m["lowlevel.search.decomposed_frac"] > 0
        what = (f"decomposed_frac {m['lowlevel.search.decomposed_frac']:.3f} > 0 "
                f"(its demand share {m['demand.share']:.3f} is compared with "
                f"spikes_hier's by --workload all)")
    else:
        ok = m["lowlevel.plan.calls"] == 0 and m["coordinator.max_pending"] > 1
        what = (f"planner calls {m['lowlevel.plan.calls']} == 0 and "
                f"max_pending {m['coordinator.max_pending']} > 1")
    return {"ok": ok, "what": what}


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def emit(result: dict) -> dict:
    """Print the human-readable lines; return the result line."""
    trace = bool(result["trace"])
    print(f"workload {result['workload']} seed {result['seed']} "
          f"seeds {len(result['seeds'])} trace {result['trace']}")
    for s, problems in result["problems"].items():
        for problem in problems:
            print(f"FAILED seed {s}: {problem}")
    print(f"failed_frac {result['failed_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} seeds)")
    metrics = {}
    if "metrics" in result:
        for spec in declared_metrics(trace):
            value = result["metrics"][spec["name"]]
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"{spec['name']} {value:.6g} {spec['unit']}")
        print(f"mean_rt_s {result['mean_rt_s']:.6g} s (simulated)")
        print(f"rt_p90_s {result['rt_p90_s']:.6g} s (simulated)")
        if trace:
            check = result["workload_check"]
            print(f"workload check {'ok' if check['ok'] else 'NOT MET'}: {check['what']}")
        else:
            print(f"decision samples {result['decision_samples']}, "
                  f"{result['decision_samples'] // 10} beyond p90")
            print(f"host speed factor {result['host_speed_factor']:.4g}: host times "
                  f"above are at reference speed (see speed.py)")
        print(f"outputs_sha256 {result['outputs_sha256']}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Run every workload, each in its own process, one after another."""
    status, shares = 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=False)
        status = status or proc.returncode
        saved = OUT / name / f"seed{args.seed}-trace{args.trace}" / "result.json"
        if args.trace and proc.returncode == 0:
            shares[name] = json.loads(saved.read_text())["metrics"]["demand.share"]
    if {"metro_hier", "spikes_hier"} <= shares.keys():
        ok = shares["metro_hier"] > shares["spikes_hier"]
        print(f"cross-workload check {'ok' if ok else 'NOT MET'}: demand share "
              f"metro_hier {shares['metro_hier']:.3f} > spikes_hier "
              f"{shares['spikes_hier']:.3f}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, WORKLOADS[args.workload],
                              args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    line = emit(result)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
