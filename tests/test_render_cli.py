import argparse
import hashlib
import json
import pickle
import xml.etree.ElementTree as ET
from collections import defaultdict

import pytest

import drivebench.cli as cli
import drivebench.metrics as metrics
import drivebench.llm as llm
from drivebench.cli import RunConfig, build_parser, main, run_benchmark
from drivebench.planners import IdmPlanner
from drivebench.render import render_svg
from drivebench.scenarios import ScenarioType, generate_benchmark_suite
from drivebench.simulation import run_closed_loop
from test_planners import FailingPlanner


@pytest.fixture(scope="module")
def small_suite():
    return generate_benchmark_suite(99)


class TestRenderSvg:
    def test_construction_has_red_cones(self, small_suite):
        spec = next(s for s in small_suite if s.type is ScenarioType.CONSTRUCTION)
        svg = render_svg(spec)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        cones = [el for el in root.iter()
                 if el.get("class") == "cone"]
        assert len(cones) >= 4
        assert all(c.get("fill") == "#d62728" for c in cones)

    def test_ego_is_orange(self, small_suite):
        svg = render_svg(small_suite[0])
        root = ET.fromstring(svg)
        ego = [el for el in root.iter() if el.get("class") == "ego"]
        assert len(ego) == 1
        assert ego[0].get("fill") == "#ff8c00"

    def test_route_purple_and_agents_blue(self, small_suite):
        spec = next(s for s in small_suite
                    if s.type is ScenarioType.LANE_CHANGE_HTD)
        svg = render_svg(spec)
        root = ET.fromstring(svg)
        route = [el for el in root.iter() if el.get("class") == "route"]
        assert route and route[0].get("stroke") == "#7d3c98"
        agents = [el for el in root.iter() if el.get("class") == "agent"]
        assert len(agents) == len(spec.agents)
        assert all(a.get("fill") == "#2e86c1" for a in agents)

    def test_trace_render_shows_paths(self, small_suite):
        spec = next(s for s in small_suite if s.type is ScenarioType.JAYWALKER)
        trace = run_closed_loop(spec, IdmPlanner())
        svg = render_svg(spec, trace=trace, tick=100)
        root = ET.fromstring(svg)
        classes = {el.get("class") for el in root.iter()}
        assert "past-path" in classes
        assert "planned-trajectory" in classes
        peds = [el for el in root.iter() if el.get("class") == "pedestrian"]
        assert peds and all(p.get("fill") == "#28a745" for p in peds)

    def test_every_family_renders_valid_svg(self, small_suite):
        seen = set()
        for spec in small_suite:
            if spec.type in seen:
                continue
            seen.add(spec.type)
            ET.fromstring(render_svg(spec))
        assert len(seen) == 8


class TestRunConfig:
    def test_unknown_planner_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(planner="teleport")

    def test_parallelism_bound(self):
        with pytest.raises(ValueError):
            RunConfig(planner="idm", jobs=0)


class TestCliRun:
    def test_filtered_run_produces_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(["run", "--planner", "idm", "--suite-seed", "99",
                     "--types", "nudge", "--jobs", "1",
                     "--out", str(out)])
        assert code == 0
        assert (out / "scores.csv").exists()
        assert (out / "report.md").exists()
        assert len(list((out / "traces").glob("*.json"))) == 10
        report = json.loads((out / "report.json").read_text())
        assert report["planner"] == "idm"
        assert report["n_scenarios"] == 10
        assert report["planner_fallbacks"] == report["selector_failures"] == 0

    def test_same_config_identical_csv_bytes(self, tmp_path):
        args = dict(planner="idm", master_seed=5, types=["jaywalker"], jobs=1)
        r1 = run_benchmark(RunConfig(out_dir=str(tmp_path / "a"), **args))
        r2 = run_benchmark(RunConfig(out_dir=str(tmp_path / "b"), **args))
        csv_a = (tmp_path / "a" / "scores.csv").read_bytes()
        csv_b = (tmp_path / "b" / "scores.csv").read_bytes()
        assert csv_a == csv_b
        hashes_a = (tmp_path / "a" / "trace_hashes.txt").read_bytes()
        hashes_b = (tmp_path / "b" / "trace_hashes.txt").read_bytes()
        assert hashes_a == hashes_b

    def test_render_subcommand(self, tmp_path):
        out = tmp_path / "run"
        main(["run", "--planner", "idm", "--suite-seed", "99",
              "--types", "construction", "--out", str(out)])
        scenario = sorted((out / "scenarios").glob("*.json"))[0]
        trace = sorted((out / "traces").glob("*.json"))[0]
        svg_path = tmp_path / "scene.svg"
        code = main(["render", "--scenario", str(scenario), "--trace",
                     str(trace), "--tick", "50", "--out", str(svg_path)])
        assert code == 0
        ET.fromstring(svg_path.read_text())

    def test_compare_subcommand(self, tmp_path):
        out = tmp_path / "run"
        main(["run", "--planner", "idm", "--suite-seed", "99",
              "--types", "nudge", "--out", str(out)])
        cmp_path = tmp_path / "cmp.md"
        code = main(["compare", str(out / "report.json"),
                     str(out / "report.json"), "--out", str(cmp_path)])
        assert code == 0
        rows = [l for l in cmp_path.read_text().strip().splitlines()
                if l.startswith("| ")]
        assert len(rows) == 3  # header + 2 rows

    def test_compare_needs_a_report(self, tmp_path, capsys):
        cmp_path = tmp_path / "cmp.md"
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--out", str(cmp_path)])
        assert exc.value.code == 2
        assert "reports" in capsys.readouterr().err
        assert not cmp_path.exists()


def test_cli_surface():
    """Every option of every subcommand; a new one needs an edit here."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {name: {s for action in sub._actions
                      for s in action.option_strings} - {"-h", "--help"}
               for name, sub in subparsers.choices.items()}
    assert options == {
        "run": {"--planner", "--suite-seed", "--types", "--jobs", "--out"},
        "render": {"--scenario", "--trace", "--tick", "--out"},
        "compare": {"--out"},
    }


@pytest.fixture
def three_scenarios(monkeypatch):
    """run_benchmark sees three seed-2024 scenarios, two of which share a
    reference drive, and starts from an empty reference memo."""
    by_key = defaultdict(list)
    for spec in generate_benchmark_suite(2024):
        by_key[metrics.reference_key(spec)].append(spec)
    pair = next(specs for specs in by_key.values() if len(specs) >= 2)[:2]
    single = next(specs for specs in by_key.values() if len(specs) == 1)
    monkeypatch.setattr(cli, "generate_benchmark_suite",
                        lambda seed: pair + single)
    monkeypatch.setattr(metrics, "_REFERENCE_PROGRESS", {})


class TestReferenceDrives:
    def test_one_drive_per_distinct_input(self, three_scenarios, tmp_path,
                                          monkeypatch):
        drives, mapped = [], []
        drive, reference = metrics.run_closed_loop, metrics.reference_progress
        monkeypatch.setattr(metrics, "run_closed_loop",
                            lambda *args: drives.append(args) or drive(*args))
        # what run_benchmark maps over the workers, when it has several
        monkeypatch.setattr(metrics, "reference_progress",
                            lambda spec: mapped.append(spec) or reference(spec))
        run_benchmark(RunConfig(planner="idm", out_dir=str(tmp_path / "a")))
        assert len(drives) == len(mapped) == 2
        run_benchmark(RunConfig(planner="idm", out_dir=str(tmp_path / "b")))
        assert len(drives) == len(mapped) == 2
        assert (tmp_path / "a" / "scores.csv").read_bytes() == \
            (tmp_path / "b" / "scores.csv").read_bytes()

    def test_pool_drives_match_serial(self, three_scenarios, tmp_path,
                                      monkeypatch):
        run_benchmark(RunConfig(planner="idm", out_dir=str(tmp_path / "j1")))
        serial = dict(metrics._REFERENCE_PROGRESS)
        monkeypatch.setattr(metrics, "_REFERENCE_PROGRESS", {})
        run_benchmark(RunConfig(planner="idm", jobs=2,
                                out_dir=str(tmp_path / "j2")))
        # the pool's drives are memoised in this process
        assert metrics._REFERENCE_PROGRESS == serial and len(serial) == 2
        serial_files = run_files(tmp_path / "j1")
        assert serial_files == run_files(tmp_path / "j2")
        assert len(serial_files) == 4 + 2 * 3   # run-level + per-scenario


def run_files(out):
    """Every file under a run directory: relative path -> bytes."""
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


class TestWorkerWrites:
    """_run_one writes its scenario's files where it runs and sends back
    only the score, the trace digest and the event counts."""

    def test_result_is_small(self, tmp_path):
        htd = [s for s in generate_benchmark_suite(2024)
               if s.type is ScenarioType.LANE_CHANGE_HTD]
        spec = max(htd, key=lambda s: len(s.agents))
        for sub in ("traces", "scenarios"):
            (tmp_path / sub).mkdir()
        result = cli._run_one((7, "007_lane_change_htd", spec, "idm",
                               metrics.reference_progress(spec), tmp_path))
        assert len(pickle.dumps(result)) < 2048
        data = (tmp_path / "traces" / "007_lane_change_htd.json").read_bytes()
        assert len(data) > 1_000_000
        assert result[0] == 7
        assert result[2] == hashlib.sha256(data).hexdigest()
        assert (tmp_path / "scenarios" / "007_lane_change_htd.json").is_file()

    def test_llm_audit_same_from_pool(self, tmp_path, monkeypatch):
        spec = next(s for s in generate_benchmark_suite(2024)
                    if s.type is ScenarioType.CONSTRUCTION)
        monkeypatch.setattr(cli, "generate_benchmark_suite", lambda seed: [spec])
        # a fixed responder; fork carries the patch into the pool's workers
        monkeypatch.setattr(llm, "llm_call",
                            lambda prompt, cfg: f"{len(prompt.perception_context)}"
                                                " characters seen\nfollow_lane")
        for jobs in (1, 2):
            run_benchmark(RunConfig(planner="hybrid-llm", jobs=jobs,
                                    out_dir=str(tmp_path / f"j{jobs}")))
        audit = (tmp_path / "j1" / "llm" / "000_construction.json").read_bytes()
        assert audit == \
            (tmp_path / "j2" / "llm" / "000_construction.json").read_bytes()
        queries = json.loads(audit)
        assert len(queries) == 15
        assert all(q["response"].endswith("follow_lane") for q in queries)
        assert run_files(tmp_path / "j1") == run_files(tmp_path / "j2")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_scenario_writes_no_run_files(self, jobs, three_scenarios,
                                                 tmp_path, monkeypatch):
        first, failing, _ = cli.generate_benchmark_suite(2024)
        drive = cli.run_closed_loop

        def drive_or_fail(spec, planner):
            if (spec.type, spec.seed) == (failing.type, failing.seed):
                raise RuntimeError("scenario 1 failed")
            return drive(spec, planner)

        monkeypatch.setattr(cli, "run_closed_loop", drive_or_fail)
        with pytest.raises(RuntimeError, match="scenario 1 failed"):
            run_benchmark(RunConfig(planner="idm", jobs=jobs,
                                    out_dir=str(tmp_path)))
        written = set(run_files(tmp_path))
        assert written.isdisjoint({"scores.csv", "trace_hashes.txt",
                                   "report.md", "report.json"})
        # the scenario that finished first keeps its files
        assert f"traces/000_{first.type.value}.json" in written
        assert not any(name.startswith(("traces/001_", "scenarios/001_"))
                       for name in written)


def test_report_counts_planner_fallbacks(tmp_path, monkeypatch):
    spec = generate_benchmark_suite(2024)[0]
    monkeypatch.setattr(cli, "generate_benchmark_suite", lambda seed: [spec])
    monkeypatch.setattr(cli, "make_planner", lambda name: FailingPlanner())
    run_benchmark(RunConfig(planner="idm", out_dir=str(tmp_path)))
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["planner_fallbacks"] == 150   # every tick
    assert report["selector_failures"] == 0
