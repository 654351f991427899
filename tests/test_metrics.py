import functools
import math
import operator
from dataclasses import replace

import numpy as np
import pytest

import drivebench.metrics as metrics
from drivebench.agents import (
    SWEPT_BAND_HALF_WIDTH,
    VEHICLE_LENGTH,
    VEHICLE_WIDTH,
)
from drivebench.geometry import (
    LaneGraph,
    OrientedBox,
    Polyline,
    Pose2D,
    boxes_collide_batch,
    fraction_outside_drivable,
    lane_changes_required,
    points_in_polygon,
)
from drivebench.metrics import (
    _clearly_inside,
    _stop_justified,
    _wrong_way_distance,
    ScenarioScore,
    aggregate_score,
    collision_metric,
    comfort_metric,
    compare_reports,
    driving_direction_metric,
    drivable_area_metric,
    ego_track,
    lane_change_completion,
    min_progress_multiplier,
    progress_metric,
    reference_key,
    reference_progress,
    report_to_markdown,
    route_progress,
    score_scenario,
    scores_to_csv,
    speed_limit_metric,
    stationary_metric,
    suite_report,
    ttc_metric,
)
from drivebench.planners import IdmPlanner
from drivebench.scenarios import (
    LANE_WIDTH,
    ObstacleTable,
    ScenarioType,
    augment_goal_for_lane_changes,
    base_scenario,
    build_base_map,
    generate_benchmark_suite,
    place_construction_zone,
    place_parked_vehicle,
    scenario_from_dict,
    scenario_to_dict,
)
from drivebench.simulation import SimTrace, run_closed_loop
from conftest import (agent_dicts, ego_track_oracle, pedestrian_dict,
                      trace_series_oracle, traffic_of)
from test_agents import random_traffic
from test_planners import empty_road_spec

def v1_trace(snapshots, dt=0.1, scenario_type="construction", events=()):
    """The trace of v1 snapshot dicts, through SimTrace.from_dict."""
    return SimTrace.from_dict({
        "version": "v1", "scenario_type": scenario_type, "seed": 0, "dt": dt,
        "duration": dt * (len(snapshots) - 1), "snapshots": snapshots,
        "events": list(events)})


def synthetic_trace(ego_states, agents_fn=None, peds_fn=None, dt=0.1,
                    scenario_type="construction", events=()):
    """Hand-built trace: ego_states is a list of (x, y, heading, speed);
    agents_fn/peds_fn map tick index to actor dict lists."""
    return v1_trace([{
        "t": k * dt,
        "ego": {"x": x, "y": y, "heading": h, "speed": v, "accel": 0.0,
                "steering": 0.0},
        "agents": agents_fn(k) if agents_fn else [],
        "pedestrians": peds_fn(k) if peds_fn else [],
        "plan": []} for k, (x, y, h, v) in enumerate(ego_states)],
        dt, scenario_type, events)


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
                                    self.spec()) == 1.0

    def test_half_off_road_one_tick(self):
        states = cruise_states()
        states[70] = (90.0, 2.95, 0.0, 10.0)  # straddling the area edge
        assert drivable_area_metric(synthetic_trace(states),
                                    self.spec()) == 0.0

    def test_grazing_three_percent(self):
        # area edge at y = 2.95 for the 1-lane map; overhang of 3% of the
        #  width: fraction outside = 0.03 <= threshold 0.05
        y = 2.95 - 1.85 / 2.0 + 0.03 * 1.85
        states = cruise_states()
        states[70] = (90.0, y, 0.0, 10.0)
        assert drivable_area_metric(synthetic_trace(states),
                                    self.spec()) == 1.0


def clearly_inside_one(box, polys):
    """Reference: the per-snapshot prefilter of drivable_area_metric before
    it ran over all centers of a trace at once."""
    c = np.array([[box.center.x, box.center.y]])
    radius = math.hypot(box.length, box.width) / 2.0
    for poly in polys:
        if not points_in_polygon(c, poly)[0]:
            continue
        d = np.roll(poly, -1, axis=0) - poly
        seg_len2 = np.maximum((d ** 2).sum(axis=1), 1e-12)
        rel = c[0] - poly
        t = np.clip((rel * d).sum(axis=1) / seg_len2, 0, 1)
        foot = poly + t[:, None] * d
        if np.hypot(*(c[0] - foot).T).min() > radius:
            return True
    return False


def drivable_area_scan(trace, spec):
    polys = spec.graph.drivable_area
    for snap in trace.to_dict()["snapshots"]:
        e = snap["ego"]
        box = OrientedBox(Pose2D(e["x"], e["y"], e["heading"]),
                          VEHICLE_LENGTH, VEHICLE_WIDTH)
        if clearly_inside_one(box, polys):
            continue
        if fraction_outside_drivable(box, polys) > metrics.DRIVABLE_THRESHOLD:
            return 0.0
    return 1.0


class TestDrivableReference:
    @pytest.mark.parametrize("kind", ["straight_multilane", "curved"])
    def test_matches_per_snapshot_scan(self, kind):
        """Ego centers across the whole road and its edges (and NaN): the
        batched prefilter picks exactly the snapshots the per-snapshot one
        did, and the metric agrees on traces that leave the road at a
        random tick or never."""
        rng = np.random.default_rng(5)
        g = build_base_map(kind, lanes=2, length=280.0)
        spec = replace(empty_road_spec(), graph=g)
        line = g.lane("lane0").centerline
        radius = math.hypot(VEHICLE_LENGTH, VEHICLE_WIDTH) / 2.0
        for trial in range(20):
            n = 151
            s = np.sort(rng.uniform(0.0, line.length, n))
            d = rng.uniform(-1.0, 4.5, n)
            off = int(rng.integers(0, 2 * n))
            if off < n:
                d[off] = rng.choice([-4.0, 8.0])
            poses = [Pose2D(*line.place(si, di)) for si, di in zip(s, d)]
            states = [(p.x, p.y, p.heading, 5.0) for p in poses]
            if trial == 0:
                states[3] = (math.nan, math.nan, 0.0, 5.0)
            trace = synthetic_trace(states)
            centers = np.array([st[:2] for st in states])
            expected = [clearly_inside_one(OrientedBox(
                Pose2D(*st[:3]), VEHICLE_LENGTH, VEHICLE_WIDTH),
                g.drivable_area) for st in states]
            got = _clearly_inside(centers, radius, g.drivable_area)
            assert got.tolist() == expected
            assert 0 < sum(expected) < n
            assert drivable_area_metric(trace, spec) == \
                drivable_area_scan(trace, spec)


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
        assert driving_direction_metric(trace, spec, ego_track(trace, spec),
                                        ScenarioType.LANE_CHANGE_LTD) == 1.0

    def test_ten_meters_wrong_way_zeroes(self):
        spec = empty_road_spec(lanes=1)
        trace = synthetic_trace(self.wrong_way_states(10.0))
        assert driving_direction_metric(trace, spec, ego_track(trace, spec),
                                        ScenarioType.LANE_CHANGE_LTD) == 0.0

    def test_three_meters_wrong_way_halves(self):
        spec = empty_road_spec(lanes=1)
        trace = synthetic_trace(self.wrong_way_states(3.0))
        assert driving_direction_metric(trace, spec, ego_track(trace, spec),
                                        ScenarioType.LANE_CHANGE_LTD) == 0.5

    def test_overtake_exemption(self):
        spec = empty_road_spec(lanes=1)
        trace = synthetic_trace(self.wrong_way_states(20.0))
        track = ego_track(trace, spec)
        assert driving_direction_metric(trace, spec, track,
                                        ScenarioType.OVERTAKE) == 1.0
        assert driving_direction_metric(trace, spec, track,
                                        ScenarioType.ACCIDENT) == 1.0


def stationary(trace, spec):
    return stationary_metric(trace, spec, ego_track(trace, spec),
                             ObstacleTable(spec.graph,
                                           spec.obstacles).blocking_spans)


class TestStationaryMetric:
    def test_stuck_on_empty_road(self):
        states = [(50.0, 0.0, 0.0, 0.0)] * 151  # 15 s standstill
        spec = empty_road_spec(lanes=1)
        trace = synthetic_trace(states)
        assert stationary(trace, spec) == 0.0

    def test_justified_by_crossing_pedestrian(self):
        spec = empty_road_spec(lanes=1)
        states = [(50.0, 0.0, 0.0, 0.0)] * 151

        def peds(k):
            return [{"x": 58.0, "y": 0.0, "vx": 0.0, "vy": 1.2,
                     "phase": "crossing"}]

        trace = synthetic_trace(states, peds_fn=peds)
        assert stationary(trace, spec) == 1.0

    def test_never_stopped(self):
        spec = empty_road_spec(lanes=1)
        assert stationary(synthetic_trace(cruise_states()), spec) == 1.0

    def test_justified_by_blocking_obstacle(self):
        g = build_base_map("straight_multilane", lanes=2, length=450.0)
        spec = base_scenario(ScenarioType.CONSTRUCTION, g, "lane0", 20.0,
                             10.0, 1)
        spec = place_construction_zone(spec, start_s=60.0, zone_length=14.0)
        # stopped 5 m before the first cone for the whole run
        states = [(53.0, 0.0, 0.0, 0.0)] * 151
        trace = synthetic_trace(states)
        assert stationary(trace, spec) == 1.0


def stop_justified_scan(snap, spec, spans):
    """Reference: the stationary gate's own scan before it shared the
    lane-keeper rule with traffic."""
    ego = snap["ego"]
    pos = (ego["x"], ego["y"])
    lane_id = spec.graph.nearest_lane(pos)
    lane = spec.graph.lane(lane_id)
    f = lane.centerline.project(pos)
    front = f.s + VEHICLE_LENGTH / 2.0
    horizon = metrics.STATIONARY_JUSTIFY_DISTANCE
    for near, _far in spans.get(lane_id, ()):
        if front <= near <= front + horizon:
            return True
    for a in snap["agents"]:
        if a["lane"] != lane_id:
            continue
        rear = a["s"] - a["length"] / 2.0
        if front <= rear <= front + horizon:
            return True
    for p in snap["pedestrians"]:
        if p["phase"] != "crossing":
            continue
        fp = lane.centerline.project((p["x"], p["y"]))
        if abs(fp.d) <= SWEPT_BAND_HALF_WIDTH + 0.3 and \
                front <= fp.s <= front + horizon:
            return True
    return False


class TestStopJustifiedReference:
    def test_matches_scan_on_random_traffic(self, monkeypatch):
        """Random worlds of tests/test_agents.py (straight and curved, 1-3
        lanes), the ego anywhere in them, two horizons, spans put just
        inside, on and just outside both ends of the closed window, and
        crossing pedestrians within 0.3 m of either end."""
        rng = np.random.default_rng(11)
        outcomes = []
        for _ in range(300):
            world, ego_box, _speed = random_traffic(rng)
            if ego_box is None:
                continue
            spec = replace(empty_road_spec(), graph=world.graph)
            horizon = float(rng.choice([10.0, 40.0]))
            monkeypatch.setattr(metrics, "STATIONARY_JUSTIFY_DISTANCE", horizon)
            pos = (ego_box.center.x, ego_box.center.y)
            lane_id = world.graph.nearest_lane(pos)
            ego_s = world.graph.lane(lane_id).centerline.project(pos).s
            front = ego_s + VEHICLE_LENGTH / 2.0
            spans = {k: list(v) for k, v in world.lane_blockers.items()}
            edge = float(rng.choice([front, front + horizon]))
            near = float(rng.choice([edge, np.nextafter(edge, -np.inf),
                                     np.nextafter(edge, np.inf)]))
            if rng.random() < 0.5:
                spans.setdefault(lane_id, []).append((near, near + 3.0))
            peds = [pedestrian_dict(p) for p in world.pedestrians]
            if rng.random() < 0.5:     # crossing within 0.3 m of an end
                line = world.graph.lane(lane_id).centerline
                s = edge + float(rng.uniform(-0.3, 0.3))
                if 0.0 <= s <= line.length:
                    p = Pose2D(*line.place(s, float(rng.uniform(-1.0, 1.0))))
                    peds.append({"x": p.x, "y": p.y, "vx": 0.0, "vy": 1.5,
                                 "phase": "crossing"})
            snap = {"t": 0.0, "ego": {"x": pos[0], "y": pos[1], "heading": 0.0,
                                      "speed": 0.0, "accel": 0.0,
                                      "steering": 0.0},
                    "agents": agent_dicts(traffic_of(world.agents)),
                    "pedestrians": peds, "plan": []}
            got = _stop_justified(v1_trace([snap]), 0, spec, lane_id, ego_s,
                                  spans)
            assert got == stop_justified_scan(snap, spec, spans)
            outcomes.append(got)
        assert 50 < sum(outcomes) < len(outcomes) - 50


class TestTtcMetric:
    def test_empty_road(self):
        spec = empty_road_spec(lanes=1)
        trace = synthetic_trace(cruise_states())
        assert ttc_metric(trace, spec) == 1.0

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
        assert ttc_metric(trace, spec) == pytest.approx(expected)

    def test_parallel_traffic_no_convergence(self):
        spec = empty_road_spec(lanes=2)

        def agents(k):
            x = 20.0 + 10.0 * k * 0.1
            return [{"lane": "lane1", "s": x, "speed": 10.0, "x": x, "y": 3.5,
                     "heading": 0.0, "length": 4.6, "width": 1.85,
                     "policy": "conservative"}]

        trace = synthetic_trace(cruise_states(), agents_fn=agents)
        assert ttc_metric(trace, spec) == 1.0


def reference_ttc_metric(trace, spec):
    """Reference: ttc_metric before the shared projector, with one
    prefilter and collision check per entity kind."""
    ego, ent = trace_series_oracle(trace)
    T = len(ego["t"])
    O = len(spec.obstacles)
    ox = np.array([o.box.center.x for o in spec.obstacles])
    oy = np.array([o.box.center.y for o in spec.obstacles])
    oh = np.array([o.box.center.heading for o in spec.obstacles])
    ol = np.array([o.box.length for o in spec.obstacles])
    ow = np.array([o.box.width for o in spec.obstacles])
    n_u = int(math.ceil(metrics.TTC_THRESHOLD / 0.1))
    u = np.minimum(np.arange(1, n_u + 1) * 0.1, metrics.TTC_THRESHOLD)
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
    """ttc_metric over geometry.projected_contacts equals the per-kind loop it
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
            assert ttc_metric(trace, spec) == \
                reference_ttc_metric(trace, spec), spec.type
            phases |= set(trace.pedestrians["phase"].ravel().tolist())
            for _ in range(3):
                moved = trace.to_dict()
                for snap in moved["snapshots"]:
                    others = ([(a["x"], a["y"]) for a in snap["agents"]]
                              + [(o.box.center.x, o.box.center.y)
                                 for o in spec.obstacles]
                              + [(p["x"], p["y"]) for p in snap["pedestrians"]])
                    if not others:
                        continue
                    x, y = others[int(rng.integers(len(others)))]
                    snap["ego"].update(x=x + float(rng.uniform(-8.0, 8.0)),
                                       y=y + float(rng.uniform(-3.0, 3.0)),
                                       heading=float(rng.uniform(-0.5, 0.5)),
                                       speed=float(rng.uniform(0.0, 12.0)))
                moved = SimTrace.from_dict(moved)
                score = ttc_metric(moved, spec)
                assert score == reference_ttc_metric(moved, spec), spec.type
                moved_scores.append(score)
        assert {"waiting", "crossing"} <= phases
        assert min(moved_scores) < 0.5


class TestComfortMetric:
    def test_constant_speed(self):
        assert comfort_metric(synthetic_trace(cruise_states())) == 1.0

    def test_moderate_braking_passes(self):
        # brake at -3 m/s^2 (within the longitudinal bound -4.05)
        states = []
        v, x = 12.0, 20.0
        for k in range(151):
            states.append((x, 0.0, 0.0, v))
            v = max(0.0, v - 3.0 * 0.1) if k > 60 else v
            x += v * 0.1
        assert comfort_metric(synthetic_trace(states)) == 1.0

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
        assert comfort_metric(synthetic_trace(states)) == 0.0


def speed_compliance(trace, spec):
    return speed_limit_metric(trace, spec, ego_track(trace, spec))


class TestSpeedMetric:
    def test_never_speeding(self):
        spec = empty_road_spec(lanes=1)
        assert speed_compliance(synthetic_trace(cruise_states(speed=12.0)),
                                spec) == 1.0

    def test_ten_percent_over_whole_run(self):
        spec = empty_road_spec(lanes=1)  # limit 13.9
        v = 13.9 * 1.1
        trace = synthetic_trace(cruise_states(speed=v))
        assert speed_compliance(trace, spec) == pytest.approx(0.9, abs=1e-9)

    def test_stationary(self):
        spec = empty_road_spec(lanes=1)
        trace = synthetic_trace([(50.0, 0.0, 0.0, 0.0)] * 151)
        assert speed_compliance(trace, spec) == 1.0


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


# entries of scenario_to_dict that the reference drive reads, each with a
# change to it
DRIVE_INPUT_CHANGES = [
    (("map", "lanes", 0, "centerline", 0, 1), lambda v: v + 1e-3),
    (("map", "lanes", 0, "width"), lambda v: v - 0.01),
    (("map", "lanes", 0, "speed_limit"), lambda v: v + 0.1),
    (("map", "lanes", 0, "successors"), lambda v: ["oncoming0"]),
    (("map", "drivable_area", 0, 0, 0), lambda v: v - 1e-3),
    (("route", "lanes"), lambda v: ["oncoming0"]),
    (("route", "goal", 0), lambda v: v + 1.0),
    (("ego", "pose", 0), lambda v: v + 1e-3),
    (("ego", "speed"), lambda v: v + 0.1),
    (("duration",), lambda v: v + 0.1),
]


def changed(spec, path, change):
    """spec with change applied to the scenario_to_dict entry at path."""
    data = scenario_to_dict(spec)
    *parents, last = path
    node = functools.reduce(operator.getitem, parents, data)
    node[last] = change(node[last])
    return scenario_from_dict(data)


class TestReferenceMemo:
    @pytest.fixture(scope="class")
    def suite(self):
        return generate_benchmark_suite(2024)

    def test_key_ignores_what_the_drive_strips(self, suite):
        # jaywalker 20: a pedestrian and an obstacle; overtake 41: 7 agents
        for spec in (suite[20], suite[41]):
            key = reference_key(spec)
            variants = [
                replace(spec, agents=(), pedestrians=(), obstacles=()),
                replace(spec, agents=spec.agents[1:]),
                replace(spec, pedestrians=spec.pedestrians[1:]),
                replace(spec, obstacles=()),
                replace(spec, type=ScenarioType.NUDGE),
                replace(spec, seed=spec.seed + 1),
            ]
            assert [reference_key(v) for v in variants] == [key] * 6

    def test_key_follows_every_input_of_the_drive(self, suite):
        spec = suite[41]   # lanes lane0 and oncoming0, no successors
        key = reference_key(spec)
        assert reference_key(changed(spec, ("seed",), lambda v: v)) == key
        keys = {reference_key(changed(spec, path, change))
                for path, change in DRIVE_INPUT_CHANGES}
        assert len(keys) == len(DRIVE_INPUT_CHANGES) and key not in keys

    def test_memoised_value_is_a_fresh_drive(self, suite, monkeypatch):
        spec = suite[20]
        stripped = replace(spec, agents=(), pedestrians=(), obstacles=())
        fresh = route_progress(run_closed_loop(stripped, IdmPlanner()),
                               stripped)
        drives = []
        monkeypatch.setattr(metrics, "_REFERENCE_PROGRESS", {})
        monkeypatch.setattr(metrics, "run_closed_loop",
                            lambda *args: drives.append(args) or
                            run_closed_loop(*args))
        assert reference_progress(spec) == fresh
        assert reference_progress(replace(spec, seed=7)) == fresh
        assert len(drives) == 1
        assert metrics._REFERENCE_PROGRESS == {reference_key(spec): fresh}


def completion(trace, spec):
    return lane_change_completion(trace, spec, ego_track(trace, spec))


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
        assert completion(trace, spec) == pytest.approx(1.0 / 3.0)

    def test_all_three(self):
        spec = self.spec_with_changes(3)
        ys = [0.0] * 20 + [3.5] * 20 + [7.0] * 20 + [10.5] * 40
        trace = synthetic_trace(self.lane_holding_states(ys))
        assert completion(trace, spec) == 1.0

    def test_brief_touch_does_not_count(self):
        spec = self.spec_with_changes(1)
        ys = [0.0] * 60 + [3.5] * 5 + [0.0] * 60  # only 0.5 s in the target
        trace = synthetic_trace(self.lane_holding_states(ys))
        assert completion(trace, spec) == 0.0

    def test_no_required_changes_vacuous_one(self):
        spec = self.spec_with_changes(0)
        trace = synthetic_trace(self.lane_holding_states([0.0] * 100))
        assert completion(trace, spec) == 1.0


def speed_limit_scan(trace, spec):
    """Reference: speed_limit_metric before the per-trace EgoTrack, with a
    nearest_lane query per snapshot."""
    over = 0.0
    limit_integral = 0.0
    for snap in trace.to_dict()["snapshots"]:
        ego = snap["ego"]
        lane = spec.graph.nearest_lane((ego["x"], ego["y"]))
        limit = spec.graph.lane(lane).speed_limit
        over += max(0.0, ego["speed"] - limit) * trace.dt
        limit_integral += limit * trace.dt
    if limit_integral <= 0:
        return 1.0
    return max(0.0, 1.0 - over / limit_integral)


def wrong_way_scan(trace, spec):
    """Reference: _wrong_way_distance before the per-trace EgoTrack, with a
    nearest_lane query and a projection onto that lane per moving step."""
    total = 0.0
    prev = None
    for snap in trace.to_dict()["snapshots"]:
        e = snap["ego"]
        pos = (e["x"], e["y"])
        if prev is not None:
            dx = pos[0] - prev[0]
            dy = pos[1] - prev[1]
            if dx * dx + dy * dy > 1e-12:
                lane = spec.graph.nearest_lane(pos)
                line = spec.graph.lane(lane).centerline
                f = line.project(pos)
                tangent = line.tangent_at(f.s)
                along = dx * math.cos(tangent) + dy * math.sin(tangent)
                if along < 0:
                    total += -along
        prev = pos
    return total


def lane_change_scan(trace, spec):
    """Reference: lane_change_completion before the per-trace EgoTrack, with
    its own argmin over the route lanes per snapshot."""
    required = lane_changes_required(spec.route, spec.graph)
    if required == 0:
        return 1.0
    seq = spec.route.lane_sequence
    lines = [spec.graph.lane(lid).centerline for lid in seq]
    idx_series = []
    for snap in trace.to_dict()["snapshots"]:
        pos = (snap["ego"]["x"], snap["ego"]["y"])
        ds = [abs(line.project(pos).d) for line in lines]
        idx_series.append(int(np.argmin(ds)))
    idx_series = np.asarray(idx_series)
    hold_ticks = max(int(round(1.0 / trace.dt)), 1)
    completed = 0
    for level in range(1, required + 1):
        ok = idx_series >= level
        run = 0
        sustained = False
        for v in ok:
            run = run + 1 if v else 0
            if run >= hold_ticks:
                sustained = True
                break
        if sustained:
            completed += 1
    return completed / required


def with_lane_limits(spec):
    """The spec with a different speed limit on every lane, so that the
    speed metric sees which lane was picked."""
    segments = [replace(spec.graph.lane(lane_id), speed_limit=8.0 + 2.0 * i)
                for i, lane_id in enumerate(sorted(spec.graph.segments))]
    return replace(spec, graph=LaneGraph(segments, spec.graph.drivable_area))


def ego_perturbations(trace, spec, rng):
    """Copies of the trace with the ego, at random speeds, moved onto
    another lane (held for 1.5 s at a time, sometimes exactly on a midline),
    driven in reverse, and put past either end of a lane."""
    graph = spec.graph
    ids = sorted(graph.segments)

    def respeed(data):
        for snap in data["snapshots"]:
            snap["ego"]["speed"] = float(rng.uniform(0.0, 20.0))
        return SimTrace.from_dict(data)

    def put(snap, lane_id, s, d):
        x, y, heading = graph.lane(lane_id).centerline.place(s, d)
        snap["ego"].update(x=x, y=y, heading=heading)

    onto = trace.to_dict()
    for k, snap in enumerate(onto["snapshots"]):
        if k % 15 == 0:
            lane_id = ids[int(rng.integers(len(ids)))]
            d = float(rng.choice([rng.uniform(-1.5, 1.5), LANE_WIDTH / 2.0,
                                  -LANE_WIDTH / 2.0]))
        line = graph.lane(lane_id).centerline
        pos = (snap["ego"]["x"], snap["ego"]["y"])
        put(snap, lane_id, line.project(pos).s, d)

    reverse = trace.to_dict()
    snaps = reverse["snapshots"]
    for snap, ego in zip(snaps, [s["ego"] for s in snaps][::-1]):
        snap["ego"] = ego

    past_end = trace.to_dict()
    for snap in past_end["snapshots"]:
        lane_id = ids[int(rng.integers(len(ids)))]
        length = graph.lane(lane_id).centerline.length
        beyond = float(rng.uniform(0.0, 40.0))
        s = length + beyond if rng.random() < 0.5 else -beyond
        put(snap, lane_id, s, float(rng.uniform(-2.0, 2.0)))

    return [respeed(t) for t in (onto, reverse, past_end)]


class TestEgoTrackReference:
    """The metrics that read an EgoTrack equal their per-snapshot loops
    exactly, and the track's lane is nearest_lane's, on closed-loop idm
    traces of a curved construction zone, an overtake with oncoming traffic
    and a 4-lane lane change, and on perturbed copies of each."""

    def test_equals_reference_on_perturbed_traces(self):
        suite = generate_benchmark_suite(2024)
        rng = np.random.default_rng(3)
        wrong_way, speed, lcc = [], [], []
        for i in (3, 45, 52):
            trace = run_closed_loop(suite[i], IdmPlanner())
            spec = with_lane_limits(suite[i])
            for t in [trace] + ego_perturbations(trace, spec, rng):
                track = ego_track(t, spec)
                for pos, lane, s in zip(zip(t.ego["x"].tolist(),
                                            t.ego["y"].tolist()),
                                        track.lane, track.s):
                    assert lane == spec.graph.nearest_lane(pos)
                    assert s == spec.graph.lane(lane).centerline.project(pos).s
                assert len(track.lane) == len(t.t)
                speed.append(speed_limit_metric(t, spec, track))
                assert speed[-1] == speed_limit_scan(t, spec), spec.type
                wrong_way.append(_wrong_way_distance(t, spec, track))
                assert wrong_way[-1] == wrong_way_scan(t, spec), spec.type
                lcc.append(lane_change_completion(t, spec, track))
                assert lcc[-1] == lane_change_scan(t, spec), spec.type
        assert min(speed) < 1.0 and 0.0 < max(wrong_way)
        assert {0.0, 1.0} < set(lcc)


class TestScoringProjections:
    def test_one_projection_per_lane_per_snapshot(self, monkeypatch):
        """score_scenario projects the ego once onto each lane for each
        snapshot (ego_track: one project_many of all T snapshots per lane)
        and twice onto the route spine (route_progress: 2 calls, through
        project_extended). Nothing else projects here: ref_progress is
        given, so no reference drive runs; without obstacles there are no
        blocking spans, so min_progress_multiplier returns before its spine
        lookup; without pedestrians the stationary gate projects nothing."""
        spec = generate_benchmark_suite(2024)[52]
        assert not spec.obstacles and not spec.pedestrians
        trace = run_closed_loop(spec, IdmPlanner())
        calls, batches = [], []
        project, project_many = Polyline.project, Polyline.project_many

        def counted(self, point):
            calls.append(point)
            return project(self, point)

        def counted_many(self, points, extended=False):
            batches.append(len(points))
            return project_many(self, points, extended)

        monkeypatch.setattr(Polyline, "project", counted)
        monkeypatch.setattr(Polyline, "project_many", counted_many)
        score_scenario(trace, spec, ref_progress=100.0)
        T, L = len(trace.t), len(spec.graph.segments)
        assert (T, L) == (151, 4)
        assert batches == [T] * L
        assert len(calls) == 2

    def test_ego_track_equals_per_snapshot_loop(self):
        """ego_track equals the former per-snapshot loop of scalar projects
        (conftest.py): lanes, arc positions and route indices, bit for bit,
        on closed-loop idm traces of every family and on perturbed copies
        with NaN and far-off ego positions."""
        suite = generate_benchmark_suite(2024)
        rng = np.random.default_rng(13)
        for i in range(0, 80, 7):
            spec = replace(suite[i], duration=3.0)
            trace = run_closed_loop(spec, IdmPlanner())
            odd = trace.to_dict()
            snaps = odd["snapshots"]
            for snap in snaps[::5]:
                snap["ego"]["x"] += float(rng.uniform(-300.0, 300.0))
            snaps[3]["ego"]["y"] = math.nan
            snaps[4]["ego"]["x"] = math.nan
            odd = SimTrace.from_dict(odd)
            for t in (trace, odd):
                track = ego_track(t, spec)
                lane, s, route_index = ego_track_oracle(t, spec)
                assert track.lane == lane
                assert np.array(track.s).tobytes() == np.array(s).tobytes()
                assert all(type(v) is float for v in track.s)
                assert route_index.dtype == track.route_index.dtype
                assert np.array_equal(track.route_index, route_index)


def min_progress(trace, spec):
    return min_progress_multiplier(
        trace, spec, ObstacleTable(spec.graph, spec.obstacles).blocking_spans)


class TestMinProgress:
    def test_stuck_before_cones(self):
        g = build_base_map("straight_multilane", lanes=2, length=450.0)
        spec = base_scenario(ScenarioType.CONSTRUCTION, g, "lane0", 20.0,
                             10.0, 1)
        spec = place_construction_zone(spec, start_s=60.0, zone_length=14.0)
        states = [(53.0, 0.0, 0.0, 0.0)] * 151
        assert min_progress(synthetic_trace(states), spec) == 0.0

    def test_passed_obstacle(self):
        g = build_base_map("two_way", lanes=1, length=450.0)
        spec = base_scenario(ScenarioType.OVERTAKE, g, "lane0", 20.0, 10.0, 1)
        spec = place_parked_vehicle(spec, "overtake", at_s=80.0)
        states = cruise_states(n=151, x0=20.0)  # reaches x = 170
        assert min_progress(synthetic_trace(states), spec) == 1.0

    def test_no_obstacle_vacuous_one(self):
        spec = empty_road_spec(lanes=2)
        states = [(40.0, 0.0, 0.0, 0.0)] * 151
        assert min_progress(synthetic_trace(states), spec) == 1.0


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
                                    ScenarioType.NUDGE)
            assert score.final == 0.0

    def test_perfect_run(self):
        score = aggregate_score(self.comp(), self.mult(), ScenarioType.NUDGE)
        assert score.final == 1.0

    def test_hand_computed_weighted_average(self):
        # components (1, 1, 1, 0) with weights (5, 5, 4, 2) -> 14/16
        score = aggregate_score(self.comp(comfort=0.0), self.mult(),
                                ScenarioType.NUDGE)
        assert score.final == pytest.approx(14.0 / 16.0, abs=1e-12)

    def test_lane_change_weight_only_for_lane_change_types(self):
        comp = self.comp(lcc=0.0)
        plain = aggregate_score(comp, self.mult(), ScenarioType.NUDGE)
        lc = aggregate_score(comp, self.mult(), ScenarioType.LANE_CHANGE_MTD)
        assert plain.final == 1.0
        assert lc.final == pytest.approx(16.0 / 21.0, abs=1e-12)

    def test_direction_multiplier_half(self):
        score = aggregate_score(self.comp(), self.mult(direction=0.5),
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
            score = aggregate_score(c, m, stype)
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
        d_o = driving_direction_metric(trace, spec_o, ego_track(trace, spec_o),
                                       spec_o.type)
        d_l = driving_direction_metric(trace, spec_l, ego_track(trace, spec_l),
                                       spec_l.type)
        assert d_o == 1.0 and d_l == 0.0
        # every other metric is identical across the two scenario types
        assert ttc_metric(trace, spec_o) == ttc_metric(trace, spec_l)
        assert comfort_metric(trace) == comfort_metric(trace)
        assert speed_compliance(trace, spec_o) == speed_compliance(trace, spec_l)
        assert stationary(trace, spec_o) == stationary(trace, spec_l)
