"""Acceptance gate: every top-level criterion as one test, each printing a
PASS/FAIL line (run with -s or -v to see them). The heavy fixtures execute
whole benchmark subsets and are shared module-wide."""

import math
import platform
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import boxes_overlap_sampled, sat_margin
from drivebench.agents import IdmParams, VEHICLE_LENGTH, idm_acceleration
from drivebench.cli import RunConfig, run_benchmark
from drivebench.geometry import OrientedBox, Polyline, Pose2D, boxes_collide
from drivebench.llm import ScriptedSelector
from drivebench.metrics import (
    MetricConfig,
    aggregate_score,
    score_scenario,
)
from drivebench.planners import HybridBehaviorPlanner, SamplingPlanner
from drivebench.scenarios import (
    LANE_CHANGE_TYPES,
    PedestrianSpec,
    ScenarioType,
    base_scenario,
    build_base_map,
    generate_benchmark_suite,
)
from drivebench.simulation import (
    EgoState,
    SimConfig,
    kinematic_bicycle_step,
    run_closed_loop,
    track_trajectory,
)
from test_planners import random_observation, sampling_oracle_select
from test_simulation import fit_circle

SEED = 2024
GOLDEN_DIR = Path(__file__).parent / "golden"


def note(criterion: int, ok: bool, message: str):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {criterion}: {message}"


@pytest.fixture(scope="module")
def suite():
    return generate_benchmark_suite(SEED)


def _run_subset(tmp_path_factory, name, planner, types, jobs=1, params=None):
    out = tmp_path_factory.mktemp(name)
    cfg = RunConfig(planner=planner, master_seed=SEED, types=types, jobs=jobs,
                    out_dir=str(out), planner_params=params or {})
    t0 = time.perf_counter()
    report = run_benchmark(cfg)
    elapsed = time.perf_counter() - t0
    csv = (out / "scores.csv").read_text()
    hashes = (out / "trace_hashes.txt").read_text()
    return report, csv, hashes, elapsed, out


@pytest.fixture(scope="module")
def idm_obstacle_run(tmp_path_factory):
    return _run_subset(tmp_path_factory, "idm_obs", "idm",
                       ["construction", "accident", "overtake"])


@pytest.fixture(scope="module")
def idm_lc_run(tmp_path_factory):
    return _run_subset(tmp_path_factory, "idm_lc", "idm",
                       ["lane_change_ltd", "lane_change_mtd", "lane_change_htd"])


@pytest.fixture(scope="module")
def mobil_lc_run(tmp_path_factory):
    return _run_subset(tmp_path_factory, "mobil_lc", "mobil",
                       ["lane_change_ltd", "lane_change_mtd", "lane_change_htd"])


@pytest.fixture(scope="module")
def sampler_nudge_run(tmp_path_factory):
    return _run_subset(tmp_path_factory, "sam_nudge", "sampler", ["nudge"])


def _golden_lines(name):
    lines = (GOLDEN_DIR / name).read_text().splitlines()
    recorded = next(line[2:] for line in lines if line.startswith("# python"))
    return recorded, [line for line in lines
                      if line and not line.startswith("#")]


def check_golden(planner, run):
    """Compare a seed-2024 run's trace_hashes.txt and scores.csv with the
    committed goldens of that planner; every scenario of the run must
    match. Score rows are keyed by scenario name, because the CSV's index
    column counts within the run's subset."""
    _report, csv, hashes, _elapsed, _out = run
    digests = [line.split() for line in hashes.splitlines()]
    names = [name for name, _digest in digests]
    versions = f"this run on python {platform.python_version()} numpy {np.__version__}"

    recorded, lines = _golden_lines(f"{planner}.txt")
    golden = dict(line.split() for line in lines)
    mismatched = [name for name, digest in digests if golden.get(name) != digest]
    assert not mismatched, (
        f"{planner} traces differ from tests/golden/{planner}.txt on "
        f"{', '.join(mismatched)}; goldens recorded with {recorded}, "
        f"{versions}")

    recorded, lines = _golden_lines(f"{planner}-scores.csv")
    golden = dict(line.split(",", 1) for line in lines[1:])
    rows = [line.split(",", 1)[1] for line in csv.splitlines()[1:]]
    assert len(rows) == len(names)
    mismatched = [f"{name} ({golden.get(name)} != {row})"
                  for name, row in zip(names, rows) if golden.get(name) != row]
    assert not mismatched, (
        f"{planner} scores differ from tests/golden/{planner}-scores.csv on "
        f"{'; '.join(mismatched)}; goldens recorded with {recorded}, "
        f"{versions}")


def _csv_rows(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestCriterion01SuiteShape:
    def test_criterion_01_suite_shape(self):
        t0 = time.perf_counter()
        suite = generate_benchmark_suite(SEED)
        elapsed = time.perf_counter() - t0
        counts = {t: sum(s.type is t for s in suite) for t in ScenarioType}
        splits_ok = True
        for stype in LANE_CHANGE_TYPES:
            modes = []
            for s in suite:
                if s.type is not stype:
                    continue
                tags = {a.policy for a in s.agents}
                modes.append("mixed" if len(tags) > 1 else tags.pop())
            splits_ok &= (modes.count("conservative"), modes.count("assertive"),
                          modes.count("mixed")) == (3, 3, 4)
        ok = (len(suite) == 80 and all(c == 10 for c in counts.values())
              and splits_ok and elapsed < 5.0)
        note(1, ok, f"80 scenarios, 10 per family, 3/3/4 splits, "
                    f"generated in {elapsed:.2f} s")


class TestCriterion02BlockedLaneGate:
    def test_criterion_02_idm_zero_on_blocked_families(self, idm_obstacle_run):
        report, csv, _hashes, elapsed, _out = idm_obstacle_run
        rows = _csv_rows(csv)
        all_zero = all(float(r["final"]) == 0.0 for r in rows)
        gate_is_min_progress = all(float(r["min_progress"]) == 0.0 for r in rows)
        ok = (len(rows) == 30 and all_zero and gate_is_min_progress
              and elapsed < 60.0)
        note(2, ok, f"IDM scored 0 on all 30 blocked-lane scenarios via the "
                    f"minimal-progress gate in {elapsed:.1f} s")


class TestCriterion03LaneChangeGates:
    def test_criterion_03_goal_and_collision_subscores(self, idm_lc_run,
                                                       mobil_lc_run):
        idm_report = idm_lc_run[0]
        mobil_report = mobil_lc_run[0]
        ok = (idm_report.goal_sub == 0.0
              and idm_report.no_collision_sub == 1.0
              and mobil_report.goal_sub > 0.0)
        note(3, ok, f"IDM Goal={idm_report.goal_sub * 100:.0f} "
                    f"No-Col={idm_report.no_collision_sub * 100:.0f}; "
                    f"IDM+MOBIL Goal={mobil_report.goal_sub * 100:.0f}")
        check_golden("idm", idm_lc_run)
        check_golden("mobil", mobil_lc_run)


class TestCriterion04NudgeCompetence:
    def test_criterion_04_sampler_passes_nudges(self, sampler_nudge_run):
        _report, csv, _h, _t, _o = sampler_nudge_run
        rows = _csv_rows(csv)
        passed = sum(float(r["min_progress"]) == 1.0 for r in rows)
        ok = passed >= 7
        note(4, ok, f"sampling planner passed {passed}/10 nudge scenarios")


class TestCriterion05EvaluationWindow:
    def test_criterion_05_short_window_reacts_late(self):
        g = build_base_map("straight_multilane", lanes=1, length=400.0)
        spec = base_scenario(ScenarioType.JAYWALKER, g, "lane0", ego_s=20.0,
                             ego_speed=13.9, seed=5)
        # conflict first reachable about 2.5 s ahead; two walkers from both
        # sides close every lateral escape, so stopping is the only answer
        ped1 = PedestrianSpec(path=Polyline([[58.0, -2.55], [58.0, 2.55]]),
                              trigger_distance=100.0, walk_speed=0.6,
                              lane="lane0")
        ped2 = PedestrianSpec(path=Polyline([[58.5, 2.55], [58.5, -2.55]]),
                              trigger_distance=100.0, walk_speed=0.6,
                              lane="lane0")
        spec = replace(spec, pedestrians=(ped1, ped2))
        spec.validate()

        stats = {}
        for window in (2.0, 4.0):
            trace = run_closed_loop(spec, SamplingPlanner(eval_horizon=window))
            ego = trace.ego_series()
            collisions = [e for e in trace.events if e["kind"] == "collision"]
            braking = np.nonzero(ego["accel"] < -2.0)[0]
            t_brake = float(ego["t"][braking[0]]) if len(braking) else math.inf
            stats[window] = {
                "collisions": len(collisions),
                "t_brake": t_brake,
                "min_speed": float(ego["speed"].min()),
            }
        short, long_ = stats[2.0], stats[4.0]
        short_fails = (short["collisions"] > 0
                       or short["t_brake"] >= long_["t_brake"] + 0.3)
        long_ok = long_["collisions"] == 0 and long_["min_speed"] < 1.5
        ok = short_fails and long_ok
        note(5, ok, f"2.0 s window brakes at t={short['t_brake']:.1f} "
                    f"({short['collisions']} collisions); 4.0 s window brakes "
                    f"at t={long_['t_brake']:.1f}, min speed "
                    f"{long_['min_speed']:.2f} m/s, collision-free")


class TestCriterion06HybridBeatsBase:
    def test_criterion_06_hybrid_over_obstacles(self, suite, tmp_path_factory):
        overtake0 = next(s for s in suite if s.type is ScenarioType.OVERTAKE
                         and not s.agents)
        trace = run_closed_loop(overtake0,
                                HybridBehaviorPlanner(ScriptedSelector()))
        score = score_scenario(trace, overtake0)
        overtake_ok = score.min_progress == 1.0

        hybrid = _run_subset(tmp_path_factory, "hyb_ca", "hybrid-scripted",
                             ["construction", "accident"])
        base = _run_subset(tmp_path_factory, "sam_ca", "sampler",
                           ["construction", "accident"])
        h_per, b_per = hybrid[0].per_type, base[0].per_type
        ordering_ok = (h_per["construction"] > b_per["construction"]
                       and h_per["accident"] > b_per["accident"])
        ok = overtake_ok and ordering_ok
        note(6, ok, f"hybrid passes the clear overtake (gate "
                    f"{score.min_progress:.0f}); Constr. "
                    f"{h_per['construction']:.2f} > {b_per['construction']:.2f}, "
                    f"Acc. {h_per['accident']:.2f} > {b_per['accident']:.2f}")
        check_golden("hybrid-scripted", hybrid)
        check_golden("sampler", base)


class TestCriterion07MetricInvariants:
    def test_criterion_07_aggregation(self):
        cfg = MetricConfig()
        rng = np.random.default_rng(17)
        worst = 0.0
        zero_rule_ok = True
        for _ in range(20):
            comp = {k: float(rng.uniform(0, 1)) for k in
                    ("progress", "ttc", "speed_compliance", "comfort",
                     "lane_change_completion")}
            mult = {k: float(rng.choice([0.0, 0.5, 1.0])) for k in
                    ("collision", "drivable", "direction", "stationary",
                     "min_progress")}
            stype = (ScenarioType.LANE_CHANGE_MTD if rng.random() < 0.5
                     else ScenarioType.CONSTRUCTION)
            score = aggregate_score(comp, mult, cfg, stype)
            if stype in LANE_CHANGE_TYPES:
                avg = (5 * comp["progress"] + 5 * comp["ttc"]
                       + 4 * comp["speed_compliance"] + 2 * comp["comfort"]
                       + 5 * comp["lane_change_completion"]) / 21.0
            else:
                avg = (5 * comp["progress"] + 5 * comp["ttc"]
                       + 4 * comp["speed_compliance"]
                       + 2 * comp["comfort"]) / 16.0
            expected = avg
            for v in mult.values():
                expected *= v
            worst = max(worst, abs(score.final - expected))
            if any(v == 0.0 for v in mult.values()) and score.final != 0.0:
                zero_rule_ok = False
        # direction exemption
        from drivebench.metrics import driving_direction_metric
        from test_metrics import synthetic_trace, cruise_states
        g = build_base_map("two_way", lanes=1, length=450.0)
        spec = base_scenario(ScenarioType.OVERTAKE, g, "lane0", 20.0, 10.0, 1)
        fwd = cruise_states(n=100)
        back = [(fwd[-1][0] - 10.0 * (k / 50.0), 0.0, 0.0, 1.0)
                for k in range(1, 52)]
        trace = synthetic_trace(fwd + back)
        exempt_ok = (
            driving_direction_metric(trace, spec, ScenarioType.OVERTAKE) == 1.0
            and driving_direction_metric(trace, spec, ScenarioType.ACCIDENT) == 1.0
            and driving_direction_metric(trace, spec,
                                         ScenarioType.LANE_CHANGE_LTD) == 0.0)
        ok = worst < 1e-12 and zero_rule_ok and exempt_ok
        note(7, ok, f"aggregation error {worst:.2e}, zero-multiplier rule and "
                    f"direction exemption hold")


class TestCriterion08OracleEquivalence:
    def test_criterion_08a_collision_oracle(self):
        rng = np.random.default_rng(123)
        bad = 0
        for _ in range(10_000):
            a = OrientedBox(
                Pose2D(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
                       float(rng.uniform(-math.pi, math.pi))),
                float(rng.uniform(1.0, 5.2)), float(rng.uniform(0.8, 2.5)))
            b = OrientedBox(
                Pose2D(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
                       float(rng.uniform(-math.pi, math.pi))),
                float(rng.uniform(1.0, 5.2)), float(rng.uniform(0.8, 2.5)))
            if boxes_collide(a, b) != boxes_overlap_sampled(a, b):
                if abs(sat_margin(a, b)) > 1e-3:
                    bad += 1
        note(8, bad == 0,
             f"separating-axis test vs point-sampling oracle: {bad} "
             f"disagreements beyond the 1e-3 m tangency band over 10^4 pairs")

    def test_criterion_08b_sampler_argmin(self):
        rng = np.random.default_rng(31)
        planner = SamplingPlanner()
        mismatches = 0
        for _ in range(100):
            obs = random_observation(rng)
            _, fast = planner.evaluate(obs)
            if fast != sampling_oracle_select(planner, obs):
                mismatches += 1
        note(8, mismatches == 0,
             f"sampling-planner selection equals the exhaustive 30-candidate "
             f"argmin on 100 random observations ({mismatches} mismatches)")


class TestCriterion09Numerics:
    def test_criterion_09_numerical_checks(self):
        # two-car steady-state gap
        p = IdmParams(v0=15.0)
        lead_v = 4.5
        s_f, v_f = 0.0, 12.0
        s_l = 60.0
        dt = 0.1
        for _ in range(900):  # 90 s
            gap = s_l - s_f - VEHICLE_LENGTH
            a = idm_acceleration(v_f, lead_v, max(gap, 0.01), p)
            v_f = max(0.0, v_f + a * dt)
            s_f += v_f * dt
            s_l += lead_v * dt
        gap = s_l - s_f - VEHICLE_LENGTH
        expected_gap = p.s0 + v_f * p.T
        gap_ok = abs(gap - expected_gap) / expected_gap < 0.01

        # turning radius
        cfg = SimConfig()
        steer = 0.3
        expected_r = cfg.wheelbase / math.tan(steer)
        s = EgoState(pose=Pose2D(0.0, 0.0, 0.0), speed=10.0)
        xs, ys = [], []
        n = int(2 * math.pi * expected_r / 10.0 / 0.01) + 10
        for _ in range(n):
            s = kinematic_bicycle_step(s, steer, 0.0, cfg, 0.01)
            xs.append(s.pose.x)
            ys.append(s.pose.y)
        _, _, r = fit_circle(np.array(xs), np.array(ys))
        radius_ok = abs(r - expected_r) / expected_r < 0.01

        # dt-halving convergence
        def simulate(h, total=5.0):
            st = EgoState(pose=Pose2D(0.0, 0.0, 0.0), speed=8.0)
            for k in range(int(round(total / h))):
                t = k * h
                st = kinematic_bicycle_step(
                    st, 0.2 * math.sin(0.5 * t), 0.8 * math.cos(0.4 * t),
                    cfg, h)
            return np.array([st.pose.x, st.pose.y])

        e1 = np.linalg.norm(simulate(0.1) - simulate(0.05))
        e2 = np.linalg.norm(simulate(0.05) - simulate(0.025))
        ratio = e1 / e2
        ratio_ok = 1.8 <= ratio <= 2.2

        # straight-tracking cross-track after settling
        from drivebench.planners import Trajectory
        n = 81
        t_arr = np.arange(n) * 0.1
        traj = Trajectory(t_arr, 10.0 * t_arr, np.zeros(n), np.zeros(n),
                          np.full(n, 10.0))
        ego = EgoState(pose=Pose2D(0.0, 1.0, 0.0), speed=10.0)
        ys = []
        for _ in range(70):
            steer_cmd, accel_cmd = track_trajectory(traj, ego, cfg)
            ego = kinematic_bicycle_step(ego, steer_cmd, accel_cmd, cfg, 0.1)
            ys.append(abs(ego.pose.y))
        cross_ok = max(ys[40:]) < 0.1

        ok = gap_ok and radius_ok and ratio_ok and cross_ok
        note(9, ok, f"steady gap {gap:.2f} vs {expected_gap:.2f} m; turning "
                    f"radius {r:.2f} vs {expected_r:.2f} m; convergence ratio "
                    f"{ratio:.2f}; settled cross-track {max(ys[40:]):.3f} m")


class TestCriterion10Determinism:
    def test_criterion_10_full_suite(self, tmp_path_factory):
        serial = _run_subset(tmp_path_factory, "full_serial", "idm", None,
                             jobs=1)
        parallel = _run_subset(tmp_path_factory, "full_par", "idm", None,
                               jobs=8)
        identical = serial[1] == parallel[1] and serial[2] == parallel[2]
        full_run_ok = (len(list((serial[4] / "traces").glob("*.json"))) == 80
                       and serial[0].goal_sub == 0.0)

        sampler = _run_subset(tmp_path_factory, "full_sampler", "sampler",
                              None, jobs=8)
        within_budget = sampler[3] < 300.0
        ok = identical and within_budget and full_run_ok
        note(10, ok, f"serial vs 8-way-parallel IDM suites byte-identical: "
                     f"{identical}; full sampling-planner suite in "
                     f"{sampler[3]:.0f} s (< 300 s)")
        check_golden("idm", serial)
        check_golden("sampler", sampler)


class TestCriterion11LlmFree:
    def test_criterion_11_no_network_needed(self, suite, monkeypatch):
        import json
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        monkeypatch.delenv("LLM_ENDPOINT", raising=False)
        monkeypatch.delenv("LLM_API_KEY", raising=False)

        # hybrid planning with the scripted oracle, fully offline
        spec = next(s for s in suite if s.type is ScenarioType.CONSTRUCTION)
        trace = run_closed_loop(spec, HybridBehaviorPlanner(ScriptedSelector()))
        scripted_ok = len(trace.snapshots) == 151

        # the LLM-backed planners run against a loopback mock endpoint
        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                n = int(self.headers.get("Content-Length", 0))
                self.rfile.read(n)
                pts = ", ".join(f"({2.0 * (i + 1):.1f}, 0.0)"
                                for i in range(16))
                payload = json.dumps({"choices": [{"message": {
                    "role": "assistant",
                    "content": f"I keep the lane. {pts}\nfollow_lane"}}]})
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.end_headers()
                self.wfile.write(payload.encode())

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        endpoint = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
        try:
            from drivebench.llm import ClientConfig, LlmBehaviorSelector, llm_call
            from drivebench.planners import WaypointsLlmPlanner, enumerate_behaviors
            from test_planners import make_obs, empty_road_spec

            cfg = ClientConfig(endpoint=endpoint, model="mock", timeout=5.0)
            obs = make_obs(empty_road_spec(lanes=1))
            selector = LlmBehaviorSelector(cfg)
            resp = selector.select(obs, enumerate_behaviors(obs))
            behavior_ok = resp.chosen_label == "follow_lane"
            traj = WaypointsLlmPlanner(lambda p: llm_call(p, cfg)).plan(obs)
            waypoints_ok = float(traj.x[-1] - traj.x[0]) > 10.0
        finally:
            server.shutdown()
        ok = scripted_ok and behavior_ok and waypoints_ok
        note(11, ok, "scripted-oracle hybrid run, mock-endpoint behavior "
                     "selection and waypoint planning all succeed offline")
