"""Closed-loop suite benchmark for drivebench (see README.md here).

Drives the program only through ``drivebench.cli.run_benchmark``, the entry
point behind ``bench run``, and prints one JSON result as its last line.

    python3 perfbench/run.py --workload hybrid-construction --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from checks import check_round
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

FAMILIES = ("construction", "accident", "jaywalker", "nudge", "overtake",
            "lane_change_ltd", "lane_change_mtd", "lane_change_htd")


@dataclass(frozen=True)
class Workload:
    planner: str
    jobs: int
    picks: tuple   # (family, position in the family) in the master-seed suite


# One round is one run_benchmark call over the picked scenarios; a whole
# family per round (40-240 s) would not fit the run length.
WORKLOADS = {
    # one straight and one curved cone row, no traffic
    "hybrid-construction": Workload("hybrid-scripted", 1,
                                    (("construction", 0), ("construction", 3))),
    # three per family; construction 3 keeps the IDM curvature fault
    "idm-suite-j2": Workload("idm", 2, tuple((f, i) for f in FAMILIES
                                             for i in (1, 2, 3))),
}

# Functions that some workload never calls report self time as a share of
# run_benchmark, so no value is a time that reads 0 on every run.
PER_LAYER = [
    ("scenarios.generate_benchmark_suite.total_s", "s"),
    ("cli.run_benchmark.self_s", "s"),
    ("scenarios.save_scenario.total_s", "s"),
    ("simulation.run_closed_loop.calls", "count"),
    ("simulation.run_closed_loop.self_s", "s"),
    ("simulation.run_closed_loop.scenario_s.p50", "s"),
    ("simulation.build_observation.self_s", "s"),
    ("simulation.track_trajectory.self_s", "s"),
    ("simulation.SimTrace.to_json.total_s", "s"),
    ("simulation.trace_bytes", "bytes"),
    ("planners.plan_with_fallback.calls", "count"),
    ("planners.fallback_brake_trajectory.calls", "count"),
    ("planners.IdmPlanner.plan.self_s", "s"),
    ("planners.nearest_lead.calls", "count"),
    ("planners.nearest_lead.self_s", "s"),
    ("planners.SamplingPlanner.evaluate.calls", "count"),
    ("planners.SamplingPlanner.evaluate.self_pct", "%"),
    ("planners.lateral_profile.calls", "count"),
    ("planners.lateral_profile.self_pct", "%"),
    ("planners.enumerate_behaviors.calls", "count"),
    ("planners.enumerate_behaviors.self_pct", "%"),
    ("llm.ScriptedSelector.select.self_pct", "%"),
    ("agents.step_vehicle_agent.calls", "count"),
    ("agents.step_vehicle_agent.self_pct", "%"),
    ("agents.select_lead.self_pct", "%"),
    ("geometry.Polyline.project.calls", "count"),
    ("geometry.Polyline.project.self_s", "s"),
    ("geometry.Polyline.project_extended.calls", "count"),
    ("geometry.Polyline.project_extended.self_s", "s"),
    ("geometry.Polyline.interpolate_many.self_s", "s"),
    ("geometry.boxes_collide_batch.pairs", "count"),
    ("geometry.boxes_collide_batch.hits", "count"),
    ("geometry.boxes_collide_batch.hit_ratio", "ratio"),
    ("geometry.boxes_collide_batch.self_pct", "%"),
    ("geometry.points_in_any_polygon.points", "count"),
    ("geometry.points_in_any_polygon.self_pct", "%"),
    ("geometry.boxes_collide.calls", "count"),
    ("metrics.reference_progress.total_s", "s"),
    ("metrics.score_scenario.total_s", "s"),
    ("metrics.ttc_metric.self_s", "s"),
    ("metrics.drivable_area_metric.self_s", "s"),
    ("trace.ticks_per_s", "ticks/s"),
    ("trace.untraced_ticks_per_s", "ticks/s"),
    ("trace.overhead_pct", "%"),
]
COUNTS = {"simulation.trace_bytes": "trace_bytes",
          "geometry.boxes_collide_batch.pairs": "pairs",
          "geometry.boxes_collide_batch.hits": "hits",
          "geometry.points_in_any_polygon.points": "points"}

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import drivebench.cli; "
    "from drivebench.scenarios import generate_benchmark_suite; "
    "generate_benchmark_suite(int(sys.argv[2])); print('ready', flush=True)")


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    ticks: int
    fallbacks: int
    failed_scenarios: int
    digest: str
    problems: dict


def import_program():
    """Import drivebench from this checkout's sources, never from elsewhere."""
    if not (SRC / "drivebench" / "__init__.py").is_file():
        sys.exit(f"perfbench: no drivebench sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import drivebench.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: drivebench imported from {cli.__file__}")
    return cli


def measure_setup(master_seed: int) -> float:
    """Seconds from process start until drivebench is imported and the suite
    is generated, in a fresh interpreter."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC),
                           str(master_seed)], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up process failed")
    return elapsed


def count_fallbacks(counter) -> None:
    """Count brake fallbacks, pool workers included: forked workers inherit
    the wrapper and the shared counter."""
    import drivebench.planners.base as base
    original = base.fallback_brake_trajectory

    def counted(obs):
        with counter.get_lock():
            counter.value += 1
        return original(obs)

    base.fallback_brake_trajectory = counted


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_round(cli, planner: str, master_seed: int, jobs: int, counter,
              out: Path) -> Round:
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()   # start every round from the same collector state
    counter.value = 0
    cfg = cli.RunConfig(planner=planner, master_seed=master_seed, jobs=jobs,
                        out_dir=str(out))
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        cli.run_benchmark(cfg)
    except Exception:
        wall = time.perf_counter() - start
        print(traceback.format_exc(), file=sys.stderr)
        return Round(wall, cpu_seconds() - cpu0, 0, 0, 0, "",
                     {"round": ["run_benchmark raised"]})
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    check = check_round(out, planner)
    failed = check.scenarios if "round" in check.problems else len(check.problems)
    return Round(wall, cpu, check.ticks, counter.value, failed, check.digest,
                 check.problems)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(tracer, rounds: int, untraced_tps: float, traced_tps: float,
                  generate_s: float) -> dict:
    per = defaultdict(lambda: [0, 0, 0], tracer.stats)
    run_ns = per["cli.run_benchmark"][1]
    counts = dict(tracer.counts)
    values = {}
    for name, _unit in PER_LAYER:
        func, _, field = name.rpartition(".")
        calls, total_ns, self_ns = per[func]
        if name in COUNTS:
            values[name] = counts.get(COUNTS[name], 0) / rounds
        elif field == "calls":
            values[name] = calls / rounds
        elif field == "total_s":
            values[name] = total_ns / 1e9 / rounds
        elif field == "self_s":
            values[name] = self_ns / 1e9 / rounds
        elif field == "self_pct":
            values[name] = 100.0 * self_ns / run_ns
    pairs = counts.get("pairs", 0)
    values.update({
        "scenarios.generate_benchmark_suite.total_s": generate_s,
        "simulation.run_closed_loop.scenario_s.p50":
            statistics.median(tracer.scenario_ns or [0]) / 1e9,
        "geometry.boxes_collide_batch.hit_ratio":
            counts.get("hits", 0) / pairs if pairs else 0.0,
        "trace.ticks_per_s": traced_tps,
        "trace.untraced_ticks_per_s": untraced_tps,
        "trace.overhead_pct": 100.0 * (untraced_tps / traced_tps - 1.0),
    })
    units = dict(PER_LAYER)
    return {k: {"value": values[k], "unit": units[k]} for k, _ in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 master_seed: int) -> int:
    cli = import_program()
    import drivebench.scenarios as scenarios
    if multiprocessing.get_start_method() != "fork":
        sys.exit("perfbench: counting fallbacks in pool workers needs fork")
    wl = WORKLOADS[name]
    out = OUT / name
    out.mkdir(parents=True, exist_ok=True)

    setup = [] if traced else [measure_setup(master_seed)
                               for _ in range(SETUP_REPEATS)]
    tracer = Tracer()
    if traced:
        tracer.install()
    suite = scenarios.generate_benchmark_suite(master_seed)
    generate_s = tracer.stats["scenarios.generate_benchmark_suite"][1] / 1e9
    tracer.remove()
    by_family = defaultdict(list)
    for spec in suite:
        by_family[spec.type.value].append(spec)
    picked = [by_family[f][i] for f, i in wl.picks]
    # the seed orders the scenarios (and so the work handed to each worker);
    # their content is the master-seed suite, so figures compare across runs
    random.Random(seed).shuffle(picked)

    def picked_suite(suite_seed):
        if suite_seed != master_seed:
            raise ValueError("unexpected suite seed")
        return list(picked)

    cli.generate_benchmark_suite = picked_suite   # looked up by run_benchmark
    counter = multiprocessing.Value("q", 0)
    count_fallbacks(counter)

    rounds: list[Round] = []
    reference: list[Round] = []
    if traced:
        if wl.jobs > 1:
            reference.append(run_round(cli, wl.planner, master_seed, wl.jobs,
                                       counter, out / "round"))
        reference.append(run_round(cli, wl.planner, master_seed, 1, counter,
                                   out / "round"))
        tracer.reset()
        tracer.install()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(cli, wl.planner, master_seed,
                                1 if traced else wl.jobs, counter, out / "round"))
    tracer.remove()

    every = reference + rounds
    digests = {r.digest for r in every}
    fallbacks = {r.fallbacks for r in every}
    problems = {k: v for r in every for k, v in r.problems.items()}
    ticks = len(picked) * 150
    correct = (not problems and len(digests) == 1 and len(fallbacks) == 1
               and all(r.ticks == ticks for r in every))
    attempted = ticks * len(rounds)
    # a round whose output is incomplete counts all its scenarios and ticks
    # as failed
    whole = [r.ticks == ticks for r in rounds]
    failed = sum(r.fallbacks if ok else ticks for r, ok in zip(rounds, whole))
    failed_scenarios = sum(r.failed_scenarios if ok else len(picked)
                           for r, ok in zip(rounds, whole))

    import numpy
    import scipy
    record = {
        "workload": name, "planner": wl.planner, "jobs": wl.jobs,
        "traced": traced, "seed": seed, "master_seed": master_seed,
        "scenarios": [f"{s.type.value}:{s.seed}" for s in picked],
        "rounds": len(rounds), "round_wall_s": [r.wall_s for r in rounds],
        "trace_digest": sorted(digests), "fallbacks_per_round": sorted(fallbacks),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_sha": git_sha(), "problems": problems,
    }
    tps = statistics.median(ticks / r.wall_s for r in rounds)
    if traced:
        untraced_tps = ticks / reference[-1].wall_s
        metrics = layer_metrics(tracer, len(rounds), untraced_tps, tps, generate_s)
        tracer.write(out / "spans.json", len(rounds))
    else:
        rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ticks_per_s": {"value": tps, "unit": "ticks/s"},
            "cpu_ms_per_tick": {"value": statistics.median(
                1000.0 * r.cpu_s / ticks for r in rounds), "unit": "ms"},
            "peak_rss_mb": {"value": rss / 1024.0, "unit": "MB"},
        }
    (out / "run.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"# {name}: planner {wl.planner}, jobs {wl.jobs}, "
          f"{len(rounds)} rounds of {len(picked)} scenarios"
          + (" (traced, serial)" if traced else ""))
    print(f"# scenarios: attempted {len(picked) * len(rounds)}, "
          f"failed {failed_scenarios}")
    print(f"# planning ticks: attempted {attempted}, failed {failed}")
    for key, m in metrics.items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, master_seed: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   name, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--master-seed", str(master_seed)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            summary.append((name, trace, result))
    print("\nworkload             trace  correct  attempted  failed")
    for name, trace, result in summary:
        if result is None:
            print(f"{name:20s} {trace:5d}  error")
            continue
        print(f"{name:20s} {trace:5d}  {str(result['correct']):7s}  "
              f"{result['attempted']:9d}  {result['failed']:6d}")
    ok = all(r is not None and r["correct"] for _, _, r in summary)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="orders each round's scenarios")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure whole rounds until this much has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--master-seed", type=int, default=2024,
                        help="suite seed the scenarios come from")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.master_seed)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.master_seed)


if __name__ == "__main__":
    sys.exit(main())
