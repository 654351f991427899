import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from drivebench.agents import VEHICLE_LENGTH, VEHICLE_WIDTH
from drivebench.geometry import boxes_collide_batch
from drivebench.metrics import (
    MetricConfig,
    ScenarioScore,
    aggregate_score,
    collision_metric,
    comfort_metric,
    compare_reports,
    driving_direction_metric,
    drivable_area_metric,
    lane_change_completion,
    min_progress_multiplier,
    progress_metric,
    reference_progress,
    report_to_markdown,
    scores_to_csv,
    speed_limit_metric,
    stationary_metric,
    suite_report,
    ttc_metric,
)
from drivebench.planners import IdmPlanner
from drivebench.scenarios import (
    ScenarioType,
    augment_goal_for_lane_changes,
    base_scenario,
    build_base_map,
    generate_benchmark_suite,
    place_construction_zone,
    place_parked_vehicle,
)
from drivebench.simulation import SimTrace, TickSnapshot, run_closed_loop
from test_planners import empty_road_spec

CFG = MetricConfig()


def synthetic_trace(ego_states, agents_fn=None, peds_fn=None, dt=0.1,
                    scenario_type="construction", events=None):
    """Hand-built trace: ego_states is a list of (x, y, heading, speed) or
    dicts; agents_fn/peds_fn map tick index to actor dict lists."""
    trace = SimTrace(scenario_type=scenario_type, seed=0, dt=dt,
                     duration=dt * (len(ego_states) - 1))
    for k, e in enumerate(ego_states):
        if not isinstance(e, dict):
            x, y, h, v = e
            e = {"x": x, "y": y, "heading": h, "speed": v, "accel": 0.0,
                 "steering": 0.0}
        trace.snapshots.append(TickSnapshot(
            t=k * dt, ego=e,
            agents=agents_fn(k) if agents_fn else [],
            pedestrians=peds_fn(k) if peds_fn else [],
            plan=[]))
    trace.events = events or []
    return trace


def cruise_states(n=151, speed=10.0, y=0.0, dt=0.1, x0=20.0):
    return [(x0 + speed * k * dt, y, 0.0, speed) for k in range(n)]


class TestCollisionMetric:
    def test_no_contacts(self):
        trace = synthetic_trace(cruise_states())
        mult, events = collision_metric(trace)
        assert mult == 1.0 and events == []

    def test_at_fault_zeroes(self):
        trace = synthetic_trace(cruise_states(), events=[
            {"kind": "collision", "time": 3.0, "partner": "obstacle0:cone",
             "at_fault": True}])
        assert collision_metric(trace)[0] == 0.0

    def test_struck_from_behind_keeps_one(self):
        trace = synthetic_trace(cruise_states(), events=[
            {"kind": "collision", "time": 3.0, "partner": "agent0",
             "at_fault": False}])
        mult, events = collision_metric(trace)
        assert mult == 1.0
        assert len(events) == 1  # still logged


class TestDrivableMetric:
    def spec(self):
        return empty_road_spec(lanes=1)

    def test_on_road(self):
        assert drivable_area_metric(synthetic_trace(cruise_states()),
                                    self.spec(), CFG) == 1.0

    def test_half_off_road_one_tick(self):
        states = cruise_states()
        states[70] = (90.0, 2.95, 0.0, 10.0)  # straddling the area edge
        assert drivable_area_metric(synthetic_trace(states), self.spec(),
                                    CFG) == 0.0

    def test_grazing_three_percent(self):
        # area edge at y = 2.95 for the 1-lane map; overhang of 3% of the
        #  width: fraction outside = 0.03 <= threshold 0.05
        y = 2.95 - 1.85 / 2.0 + 0.03 * 1.85
        states = cruise_states()
        states[70] = (90.0, y, 0.0, 10.0)
        assert drivable_area_metric(synthetic_trace(states), self.spec(),
                                    CFG) == 1.0


class TestDirectionMetric:
    def wrong_way_states(self, meters):
        # drive forward, then roll backwards by the given distance
        fwd = cruise_states(n=100)
        back = [(fwd[-1][0] - meters * (k / 50.0), 0.0, 0.0, 1.0)
                for k in range(1, 51)]
        return fwd + back

    def test_clean_run(self):
        spec = empty_road_spec(lanes=1)
        trace = synthetic_trace(cruise_states())
        assert driving_direction_metric(trace, spec,
                                        ScenarioType.LANE_CHANGE_LTD, CFG) == 1.0

    def test_ten_meters_wrong_way_zeroes(self):
        spec = empty_road_spec(lanes=1)
        trace = synthetic_trace(self.wrong_way_states(10.0))
        assert driving_direction_metric(trace, spec,
                                        ScenarioType.LANE_CHANGE_LTD, CFG) == 0.0

    def test_three_meters_wrong_way_halves(self):
        spec = empty_road_spec(lanes=1)
        trace = synthetic_trace(self.wrong_way_states(3.0))
        assert driving_direction_metric(trace, spec,
                                        ScenarioType.LANE_CHANGE_LTD, CFG) == 0.5

    def test_overtake_exemption(self):
        spec = empty_road_spec(lanes=1)
        trace = synthetic_trace(self.wrong_way_states(20.0))
        assert driving_direction_metric(trace, spec,
                                        ScenarioType.OVERTAKE, CFG) == 1.0
        assert driving_direction_metric(trace, spec,
                                        ScenarioType.ACCIDENT, CFG) == 1.0


class TestStationaryMetric:
    def test_stuck_on_empty_road(self):
        states = [(50.0, 0.0, 0.0, 0.0)] * 151  # 15 s standstill
        spec = empty_road_spec(lanes=1)
        trace = synthetic_trace(states)
        assert stationary_metric(trace, spec, CFG) == 0.0

    def test_justified_by_crossing_pedestrian(self):
        spec = empty_road_spec(lanes=1)
        states = [(50.0, 0.0, 0.0, 0.0)] * 151

        def peds(k):
            return [{"x": 58.0, "y": 0.0, "vx": 0.0, "vy": 1.2,
                     "phase": "crossing"}]

        trace = synthetic_trace(states, peds_fn=peds)
        assert stationary_metric(trace, spec, CFG) == 1.0

    def test_never_stopped(self):
        spec = empty_road_spec(lanes=1)
        assert stationary_metric(synthetic_trace(cruise_states()), spec,
                                 CFG) == 1.0

    def test_justified_by_blocking_obstacle(self):
        g = build_base_map("straight_multilane", lanes=2, length=450.0)
        spec = base_scenario(ScenarioType.CONSTRUCTION, g, "lane0", 20.0,
                             10.0, 1)
        spec = place_construction_zone(spec, start_s=60.0, zone_length=14.0)
        # stopped 5 m before the first cone for the whole run
        states = [(53.0, 0.0, 0.0, 0.0)] * 151
        trace = synthetic_trace(states)
        assert stationary_metric(trace, spec, CFG) == 1.0


class TestTtcMetric:
    def test_empty_road(self):
        spec = empty_road_spec(lanes=1)
        trace = synthetic_trace(cruise_states())
        assert ttc_metric(trace, spec, CFG) == 1.0

    def test_tailgating_fraction(self):
        spec = empty_road_spec(lanes=1)
        n = 151
        k_viol = 30

        def agents(k):
            # stopped lead half a second ahead for the first k_viol ticks,
            # far away otherwise
            gap = 5.0 if k < k_viol else 300.0
            x = 20.0 + gap + VEHICLE_LENGTH
            return [{"lane": "lane0", "s": x, "speed": 0.0, "x": x, "y": 0.0,
                     "heading": 0.0, "length": 4.6, "width": 1.85,
                     "policy": "conservative"}]

        states = [(20.0, 0.0, 0.0, 10.0)] * n
        trace = synthetic_trace(states, agents_fn=agents)
        expected = 1.0 - k_viol / n
        assert ttc_metric(trace, spec, CFG) == pytest.approx(expected)

    def test_parallel_traffic_no_convergence(self):
        spec = empty_road_spec(lanes=2)

        def agents(k):
            x = 20.0 + 10.0 * k * 0.1
            return [{"lane": "lane1", "s": x, "speed": 10.0, "x": x, "y": 3.5,
                     "heading": 0.0, "length": 4.6, "width": 1.85,
                     "policy": "conservative"}]

        trace = synthetic_trace(cruise_states(), agents_fn=agents)
        assert ttc_metric(trace, spec, CFG) == 1.0


def reference_ttc_metric(trace, spec, cfg):
    """Reference: ttc_metric before the shared projector, with one
    prefilter and collision check per entity kind."""
    from drivebench.metrics import _entity_series

    T = len(trace.snapshots)
    ego = trace.ego_series()
    ent = _entity_series(trace)
    O = len(spec.obstacles)
    ox = np.array([o.box.center.x for o in spec.obstacles])
    oy = np.array([o.box.center.y for o in spec.obstacles])
    oh = np.array([o.box.center.heading for o in spec.obstacles])
    ol = np.array([o.box.length for o in spec.obstacles])
    ow = np.array([o.box.width for o in spec.obstacles])
    n_u = int(math.ceil(cfg.ttc_threshold / 0.1))
    u = np.minimum(np.arange(1, n_u + 1) * 0.1, cfg.ttc_threshold)
    U = len(u)
    evx = ego["speed"] * np.cos(ego["heading"])
    evy = ego["speed"] * np.sin(ego["heading"])
    ex = ego["x"][:, None] + evx[:, None] * u[None, :]
    ey = ego["y"][:, None] + evy[:, None] * u[None, :]
    eh = ego["heading"]
    r_ego = math.hypot(VEHICLE_LENGTH, VEHICLE_WIDTH) / 2.0
    violating = np.zeros(T, dtype=bool)

    def check(qx, qy, qh, ql, qw):
        if qx.shape[-1] == 0:
            return
        radius = np.hypot(ql, qw) / 2.0
        dist2 = (ex[:, :, None] - qx) ** 2 + (ey[:, :, None] - qy) ** 2
        ti, ui, ni = np.nonzero(dist2 <= (r_ego + radius[None, None, :]) ** 2)
        if not len(ti):
            return
        qh_full = np.broadcast_to(qh, (T, len(ql))) if qh.ndim <= 1 else qh
        hits = boxes_collide_batch(
            ex[ti, ui], ey[ti, ui], eh[ti],
            np.full(len(ti), VEHICLE_LENGTH), np.full(len(ti), VEHICLE_WIDTH),
            qx[ti, ui, ni], qy[ti, ui, ni], qh_full[ti, ni], ql[ni], qw[ni])
        violating[np.unique(ti[hits])] = True

    if ent["ax"].shape[1]:
        avx = ent["av"] * np.cos(ent["ah"])
        avy = ent["av"] * np.sin(ent["ah"])
        check(ent["ax"][:, None, :] + avx[:, None, :] * u[None, :, None],
              ent["ay"][:, None, :] + avy[:, None, :] * u[None, :, None],
              ent["ah"], ent["al"], ent["aw"])
    if O:
        check(np.broadcast_to(ox[None, None, :], (T, U, O)),
              np.broadcast_to(oy[None, None, :], (T, U, O)), oh, ol, ow)
    if ent["px"].shape[1]:
        P = ent["px"].shape[1]
        check(ent["px"][:, None, :] + ent["pvx"][:, None, :] * u[None, :, None],
              ent["py"][:, None, :] + ent["pvy"][:, None, :] * u[None, :, None],
              np.zeros((T, P)), np.full(P, 0.6), np.full(P, 0.6))
    return float(1.0 - violating.mean())


class TestTtcReference:
    """ttc_metric over geometry.ttc_violations equals the per-kind loop it
    replaced exactly: on closed-loop idm traces of an empty road (no
    entities), a construction zone (obstacles only), a jaywalker scene (a
    stopped bus and a pedestrian who waits, then crosses), an overtake with
    traffic and a dense lane-change scene, and on copies of each trace with
    the ego moved next to an agent, obstacle or pedestrian at every tick."""

    def test_equals_reference_on_perturbed_traces(self):
        suite = generate_benchmark_suite(2024)
        specs = [empty_road_spec(lanes=1)] + [suite[i] for i in (0, 20, 41, 70)]
        rng = np.random.default_rng(5)
        phases = set()
        moved_scores = []
        for spec in specs:
            trace = run_closed_loop(spec, IdmPlanner())
            assert ttc_metric(trace, spec, CFG) == \
                reference_ttc_metric(trace, spec, CFG), spec.type
            phases |= {p["phase"] for snap in trace.snapshots
                       for p in snap.pedestrians}
            for _ in range(3):
                moved = copy.deepcopy(trace)
                for snap in moved.snapshots:
                    others = ([(a["x"], a["y"]) for a in snap.agents]
                              + [(o.box.center.x, o.box.center.y)
                                 for o in spec.obstacles]
                              + [(p["x"], p["y"]) for p in snap.pedestrians])
                    if not others:
                        continue
                    x, y = others[int(rng.integers(len(others)))]
                    snap.ego.update(x=x + float(rng.uniform(-8.0, 8.0)),
                                    y=y + float(rng.uniform(-3.0, 3.0)),
                                    heading=float(rng.uniform(-0.5, 0.5)),
                                    speed=float(rng.uniform(0.0, 12.0)))
                score = ttc_metric(moved, spec, CFG)
                assert score == reference_ttc_metric(moved, spec, CFG), \
                    spec.type
                moved_scores.append(score)
        assert {"waiting", "crossing"} <= phases
        assert min(moved_scores) < 0.5


class TestComfortMetric:
    def test_constant_speed(self):
        assert comfort_metric(synthetic_trace(cruise_states()), CFG) == 1.0

    def test_moderate_braking_passes(self):
        # brake at -3 m/s^2 (within the longitudinal bound -4.05)
        states = []
        v, x = 12.0, 20.0
        for k in range(151):
            states.append((x, 0.0, 0.0, v))
            v = max(0.0, v - 3.0 * 0.1) if k > 60 else v
            x += v * 0.1
        assert comfort_metric(synthetic_trace(states), CFG) == 1.0

    def test_violent_jerk_fails(self):
        # alternate full braking and full acceleration: smoothed jerk far
        # beyond the bound
        states = []
        v, x = 12.0, 20.0
        for k in range(151):
            states.append((x, 0.0, 0.0, v))
            a = -8.0 if (k // 10) % 2 == 0 else 4.0
            v = max(0.0, v + a * 0.1)
            x += v * 0.1
        assert comfort_metric(synthetic_trace(states), CFG) == 0.0


class TestSpeedMetric:
    def test_never_speeding(self):
        spec = empty_road_spec(lanes=1)
        assert speed_limit_metric(synthetic_trace(cruise_states(speed=12.0)),
                                  spec) == 1.0

    def test_ten_percent_over_whole_run(self):
        spec = empty_road_spec(lanes=1)  # limit 13.9
        v = 13.9 * 1.1
        trace = synthetic_trace(cruise_states(speed=v))
        assert speed_limit_metric(trace, spec) == pytest.approx(0.9, abs=1e-9)

    def test_stationary(self):
        spec = empty_road_spec(lanes=1)
        trace = synthetic_trace([(50.0, 0.0, 0.0, 0.0)] * 151)
        assert speed_limit_metric(trace, spec) == 1.0


class TestProgressMetric:
    def test_reference_run_scores_one(self):
        spec = empty_road_spec(lanes=1)
        trace = run_closed_loop(replace(spec, agents=(), obstacles=(),
                                        pedestrians=()), IdmPlanner())
        assert progress_metric(trace, spec) == pytest.approx(1.0, abs=1e-6)

    def test_stationary_scores_zero(self):
        spec = empty_road_spec(lanes=1)
        trace = synthetic_trace([(40.0, 0.0, 0.0, 0.0)] * 151)
        assert progress_metric(trace, spec, ref_progress=150.0) == 0.0

    def test_half_reference(self):
        spec = empty_road_spec(lanes=1)
        ref = reference_progress(spec)
        states = [(40.0 + (ref / 2.0) * (k / 150.0), 0.0, 0.0, 5.0)
                  for k in range(151)]
        trace = synthetic_trace(states)
        assert progress_metric(trace, spec, ref_progress=ref) == \
            pytest.approx(0.5, abs=1e-6)


class TestLaneChangeCompletion:
    def spec_with_changes(self, n=3):
        g = build_base_map("straight_multilane", lanes=4, length=450.0)
        spec = base_scenario(ScenarioType.LANE_CHANGE_LTD, g, "lane0", 40.0,
                             10.0, 1)
        return augment_goal_for_lane_changes(spec, n)

    def lane_holding_states(self, ys):
        """One tick per entry; y decides the occupied lane."""
        return [(40.0 + k * 1.0, y, 0.0, 10.0) for k, y in enumerate(ys)]

    def test_one_of_three(self):
        spec = self.spec_with_changes(3)
        ys = [0.0] * 40 + [3.5] * 40 + [0.0] * 40  # holds lane1 for 4 s
        trace = synthetic_trace(self.lane_holding_states(ys))
        assert lane_change_completion(trace, spec) == pytest.approx(1.0 / 3.0)

    def test_all_three(self):
        spec = self.spec_with_changes(3)
        ys = [0.0] * 20 + [3.5] * 20 + [7.0] * 20 + [10.5] * 40
        trace = synthetic_trace(self.lane_holding_states(ys))
        assert lane_change_completion(trace, spec) == 1.0

    def test_brief_touch_does_not_count(self):
        spec = self.spec_with_changes(1)
        ys = [0.0] * 60 + [3.5] * 5 + [0.0] * 60  # only 0.5 s in the target
        trace = synthetic_trace(self.lane_holding_states(ys))
        assert lane_change_completion(trace, spec) == 0.0

    def test_no_required_changes_vacuous_one(self):
        spec = self.spec_with_changes(0)
        trace = synthetic_trace(self.lane_holding_states([0.0] * 100))
        assert lane_change_completion(trace, spec) == 1.0


class TestMinProgress:
    def test_stuck_before_cones(self):
        g = build_base_map("straight_multilane", lanes=2, length=450.0)
        spec = base_scenario(ScenarioType.CONSTRUCTION, g, "lane0", 20.0,
                             10.0, 1)
        spec = place_construction_zone(spec, start_s=60.0, zone_length=14.0)
        states = [(53.0, 0.0, 0.0, 0.0)] * 151
        assert min_progress_multiplier(synthetic_trace(states), spec, CFG) == 0.0

    def test_passed_obstacle(self):
        g = build_base_map("two_way", lanes=1, length=450.0)
        spec = base_scenario(ScenarioType.OVERTAKE, g, "lane0", 20.0, 10.0, 1)
        spec = place_parked_vehicle(spec, "overtake", at_s=80.0)
        states = cruise_states(n=151, x0=20.0)  # reaches x = 170
        assert min_progress_multiplier(synthetic_trace(states), spec, CFG) == 1.0

    def test_no_obstacle_vacuous_one(self):
        spec = empty_road_spec(lanes=2)
        states = [(40.0, 0.0, 0.0, 0.0)] * 151
        assert min_progress_multiplier(synthetic_trace(states), spec, CFG) == 1.0


class TestAggregation:
    def comp(self, progress=1.0, ttc=1.0, speed=1.0, comfort=1.0, lcc=1.0):
        return {"progress": progress, "ttc": ttc, "speed_compliance": speed,
                "comfort": comfort, "lane_change_completion": lcc}

    def mult(self, **overrides):
        m = {"collision": 1.0, "drivable": 1.0, "direction": 1.0,
             "stationary": 1.0, "min_progress": 1.0}
        m.update(overrides)
        return m

    def test_any_zero_multiplier_zeroes_final(self):
        for gate in ("collision", "drivable", "direction", "stationary",
                     "min_progress"):
            score = aggregate_score(self.comp(), self.mult(**{gate: 0.0}),
                                    CFG, ScenarioType.NUDGE)
            assert score.final == 0.0

    def test_perfect_run(self):
        score = aggregate_score(self.comp(), self.mult(), CFG,
                                ScenarioType.NUDGE)
        assert score.final == 1.0

    def test_hand_computed_weighted_average(self):
        # components (1, 1, 1, 0) with weights (5, 5, 4, 2) -> 14/16
        score = aggregate_score(self.comp(comfort=0.0), self.mult(), CFG,
                                ScenarioType.NUDGE)
        assert score.final == pytest.approx(14.0 / 16.0, abs=1e-12)

    def test_lane_change_weight_only_for_lane_change_types(self):
        comp = self.comp(lcc=0.0)
        plain = aggregate_score(comp, self.mult(), CFG, ScenarioType.NUDGE)
        lc = aggregate_score(comp, self.mult(), CFG,
                             ScenarioType.LANE_CHANGE_MTD)
        assert plain.final == 1.0
        assert lc.final == pytest.approx(16.0 / 21.0, abs=1e-12)

    def test_direction_multiplier_half(self):
        score = aggregate_score(self.comp(), self.mult(direction=0.5), CFG,
                                ScenarioType.LANE_CHANGE_LTD)
        assert score.final == pytest.approx(0.5)

    def test_random_vectors_match_hand_computation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = {k: float(rng.uniform(0, 1)) for k in
                 ("progress", "ttc", "speed_compliance", "comfort",
                  "lane_change_completion")}
            m = {k: float(rng.choice([0.0, 0.5, 1.0])) for k in
                 ("collision", "drivable", "direction", "stationary",
                  "min_progress")}
            stype = ScenarioType.LANE_CHANGE_HTD if rng.random() < 0.5 \
                else ScenarioType.ACCIDENT
            score = aggregate_score(c, m, CFG, stype)
            if stype is ScenarioType.LANE_CHANGE_HTD:
                avg = (5 * c["progress"] + 5 * c["ttc"] +
                       4 * c["speed_compliance"] + 2 * c["comfort"] +
                       5 * c["lane_change_completion"]) / 21.0
            else:
                avg = (5 * c["progress"] + 5 * c["ttc"] +
                       4 * c["speed_compliance"] + 2 * c["comfort"]) / 16.0
            expected = avg
            for v in m.values():
                expected *= v
            assert abs(score.final - expected) < 1e-12


def make_score(stype, final=1.0, lcc=1.0, collision=1.0, drivable=1.0):
    return ScenarioScore(
        scenario_type=stype.value, progress=1.0, ttc=1.0, speed_compliance=1.0,
        comfort=1.0, lane_change_completion=lcc, collision=collision,
        drivable=drivable, direction=1.0, stationary=1.0, min_progress=1.0,
        final=final)


class TestSuiteReport:
    def test_all_zero(self):
        scores = [make_score(t, final=0.0) for t in ScenarioType for _ in range(2)]
        report = suite_report(scores)
        assert report.overall == 0.0

    def test_single_type_perfect(self):
        scores = [make_score(ScenarioType.NUDGE, final=1.0)] * 3
        report = suite_report(scores)
        assert report.per_type["nudge"] == 1.0
        assert report.overall == 1.0

    def test_goal_counts_only_full_completion(self):
        scores = [
            make_score(ScenarioType.LANE_CHANGE_LTD, lcc=1.0),
            make_score(ScenarioType.LANE_CHANGE_LTD, lcc=2.0 / 3.0),
            make_score(ScenarioType.LANE_CHANGE_MTD, lcc=0.0),
            make_score(ScenarioType.NUDGE, lcc=1.0),  # not a lane-change type
        ]
        report = suite_report(scores)
        assert report.goal_sub == pytest.approx(1.0 / 3.0)

    def test_sub_scores_over_lane_change_only(self):
        scores = [
            make_score(ScenarioType.LANE_CHANGE_HTD, collision=0.0, drivable=0.0),
            make_score(ScenarioType.NUDGE, collision=0.0, drivable=0.0),
            make_score(ScenarioType.LANE_CHANGE_LTD),
        ]
        report = suite_report(scores)
        assert report.no_collision_sub == pytest.approx(0.5)
        assert report.drivable_sub == pytest.approx(0.5)

    def test_markdown_layout(self):
        scores = [make_score(t) for t in ScenarioType]
        report = suite_report(scores)
        md = report_to_markdown(report, "idm")
        lines = md.strip().splitlines()
        assert lines[0].startswith("| Method | Overall | Constr. | Acc. |")
        assert lines[2].startswith("| idm | 100 |")

    def test_compare_reports_rows(self):
        scores = [make_score(t) for t in ScenarioType]
        r = suite_report(scores)
        md = compare_reports([("a", r), ("b", r)])
        rows = [l for l in md.strip().splitlines() if l.startswith("| ")]
        assert len(rows) == 3  # header + 2 planners
        empty = compare_reports([])
        assert len(empty.strip().splitlines()) == 2  # header only

    def test_csv_deterministic(self):
        scores = [make_score(t, final=0.375) for t in ScenarioType]
        assert scores_to_csv(scores) == scores_to_csv(scores)
        header = scores_to_csv(scores).splitlines()[0]
        assert header.split(",")[0] == "index"


class TestExemptionProperty:
    def test_identical_traces_differ_only_in_direction(self):
        # a trace with wrong-way travel scored under two scenario types
        g = build_base_map("two_way", lanes=1, length=450.0)
        spec_o = base_scenario(ScenarioType.OVERTAKE, g, "lane0", 20.0, 10.0, 1)
        spec_l = replace(spec_o, type=ScenarioType.LANE_CHANGE_LTD)
        fwd = cruise_states(n=100)
        back = [(fwd[-1][0] - 10.0 * (k / 50.0), 0.0, 0.0, 1.0)
                for k in range(1, 52)]
        trace = synthetic_trace(fwd + back)
        d_o = driving_direction_metric(trace, spec_o, spec_o.type, CFG)
        d_l = driving_direction_metric(trace, spec_l, spec_l.type, CFG)
        assert d_o == 1.0 and d_l == 0.0
        # every other metric is identical across the two scenario types
        assert ttc_metric(trace, spec_o, CFG) == ttc_metric(trace, spec_l, CFG)
        assert comfort_metric(trace, CFG) == comfort_metric(trace, CFG)
        assert speed_limit_metric(trace, spec_o) == speed_limit_metric(trace, spec_l)
        assert stationary_metric(trace, spec_o, CFG) == \
            stationary_metric(trace, spec_l, CFG)
