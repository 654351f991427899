"""Command-line benchmark runner: suite generation, (parallel) scenario
execution, report emission, and SVG rendering.

    bench run --planner sampler --suite-seed 2024 --jobs 4 --out results/
    bench render --scenario s.json --trace t.json --out scene.svg
    bench compare results_a/report.json results_b/report.json --out cmp.md
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .metrics import (
    ScenarioScore,
    SuiteReport,
    compare_reports,
    reference_progresses,
    report_to_markdown,
    score_scenario,
    scores_to_csv,
    suite_report,
)
from .planners import PLANNER_NAMES, make_planner
from .render import render_svg
from .scenarios import (
    ScenarioSpec,
    ScenarioType,
    generate_benchmark_suite,
    load_scenario,
    save_scenario,
)
from .simulation import SimTrace, run_closed_loop


@dataclass
class RunConfig:
    planner: str
    master_seed: int = 2024
    types: Optional[list[str]] = None
    jobs: int = 1
    out_dir: str = "bench_out"

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("parallelism must be >= 1")
        # a bad planner name fails here, before any scenario
        make_planner(self.planner)


def _select_scenarios(cfg: RunConfig) -> list[tuple[int, ScenarioSpec]]:
    suite = generate_benchmark_suite(cfg.master_seed)
    wanted = None
    if cfg.types:
        wanted = {ScenarioType(t.strip().lower()) for t in cfg.types}
    return [(i, spec) for i, spec in enumerate(suite)
            if wanted is None or spec.type in wanted]


def _run_one(args) -> tuple[int, ScenarioScore, str, Counter]:
    """Worker: simulate one scenario, score it against its reference
    progress and write its trace, scenario and LLM-audit files under the
    run directory. Top-level so process pools can pickle it. Returns the
    score, the SHA-256 of the trace file's bytes and the scenario's count of
    each event kind; no file content goes back to the caller."""
    index, stem, spec, planner_name, ref, out = args
    planner = make_planner(planner_name)
    trace = run_closed_loop(spec, planner)
    score = score_scenario(trace, spec, ref_progress=ref)
    data = trace.to_json().encode()
    (out / "traces" / f"{stem}.json").write_bytes(data)
    save_scenario(spec, out / "scenarios" / f"{stem}.json")
    llm = [e for e in trace.events if e.get("kind") == "llm_query"]
    if llm:
        (out / "llm").mkdir(exist_ok=True)
        (out / "llm" / f"{stem}.json").write_text(
            json.dumps(llm, sort_keys=True, indent=1), encoding="utf-8")
    kinds = Counter(e.get("kind") for e in trace.events)
    return index, score, hashlib.sha256(data).hexdigest(), kinds


def run_benchmark(cfg: RunConfig) -> SuiteReport:
    """Execute the selected scenarios (concurrently up to cfg.jobs; each
    worker writes its scenario's files), then write the per-scenario CSV,
    the trace hashes and the suite report; return the report."""
    selected = _select_scenarios(cfg)
    out = Path(cfg.out_dir)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    (out / "scenarios").mkdir(parents=True, exist_ok=True)
    stems = {i: f"{i:03d}_{spec.type.value}" for i, spec in selected}

    results: dict[int, tuple[ScenarioScore, str]] = {}
    kinds: Counter = Counter()
    with (ProcessPoolExecutor(max_workers=cfg.jobs) if cfg.jobs > 1
          else nullcontext()) as pool:
        map_fn = map if pool is None else pool.map
        # one reference drive per distinct input, before any scenario task
        refs = reference_progresses([spec for _, spec in selected], map_fn)
        tasks = [(i, stems[i], spec, cfg.planner, ref, out)
                 for (i, spec), ref in zip(selected, refs)]
        for index, score, digest, counts in map_fn(_run_one, tasks):
            results[index] = (score, digest)
            kinds.update(counts)

    scores = [results[i][0] for i, _ in selected]
    hash_lines = [f"{stems[i]} {results[i][1]}" for i, _ in selected]

    report = suite_report(scores)
    (out / "scores.csv").write_text(scores_to_csv(scores), encoding="utf-8")
    (out / "trace_hashes.txt").write_text("\n".join(hash_lines) + "\n",
                                          encoding="utf-8")
    (out / "report.md").write_text(report_to_markdown(report, cfg.planner),
                                   encoding="utf-8")
    (out / "report.json").write_text(json.dumps({
        "planner": cfg.planner,
        "overall": report.overall,
        "per_type": report.per_type,
        "drivable_sub": report.drivable_sub,
        "goal_sub": report.goal_sub,
        "no_collision_sub": report.no_collision_sub,
        "n_scenarios": report.n_scenarios,
        "planner_fallbacks": kinds["planner_fallback"],
        "selector_failures": kinds["selector_failure"],
    }, sort_keys=True, indent=1), encoding="utf-8")
    return report


def _report_from_json(path: str) -> tuple[str, SuiteReport]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    report = SuiteReport(
        per_type=data["per_type"], overall=data["overall"],
        drivable_sub=data["drivable_sub"], goal_sub=data["goal_sub"],
        no_collision_sub=data["no_collision_sub"],
        n_scenarios=data["n_scenarios"])
    return data["planner"], report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Closed-loop long-tail driving benchmark runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute benchmark scenarios")
    run_p.add_argument("--planner", required=True, choices=PLANNER_NAMES)
    run_p.add_argument("--suite-seed", type=int, default=2024)
    run_p.add_argument("--types", type=str, default=None,
                       help="comma-separated scenario families")
    run_p.add_argument("--jobs", type=int, default=1)
    run_p.add_argument("--out", type=str, default="bench_out")

    render_p = sub.add_parser("render", help="render a scenario or trace to SVG")
    render_p.add_argument("--scenario", required=True)
    render_p.add_argument("--trace", default=None)
    render_p.add_argument("--tick", type=int, default=None)
    render_p.add_argument("--out", required=True)

    cmp_p = sub.add_parser("compare", help="merge reports into a leaderboard")
    cmp_p.add_argument("reports", nargs="+")
    cmp_p.add_argument("--out", required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        cfg = RunConfig(
            planner=args.planner,
            master_seed=args.suite_seed,
            types=args.types.split(",") if args.types else None,
            jobs=args.jobs,
            out_dir=args.out,
        )
        report = run_benchmark(cfg)
        print(report_to_markdown(report, cfg.planner))
        return 0
    if args.command == "render":
        spec = load_scenario(args.scenario)
        trace = SimTrace.load(args.trace) if args.trace else None
        svg = render_svg(spec, trace=trace, tick=args.tick)
        Path(args.out).write_text(svg, encoding="utf-8")
        print(f"wrote {args.out}")
        return 0
    if args.command == "compare":
        named = [_report_from_json(p) for p in args.reports]
        markdown = compare_reports(named)
        Path(args.out).write_text(markdown, encoding="utf-8")
        print(markdown)
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
