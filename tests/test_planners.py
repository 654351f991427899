import math
import struct
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivebench.agents import VEHICLE_LENGTH, VEHICLE_WIDTH
from drivebench.geometry import OrientedBox, Polyline, Pose2D
from drivebench.llm import ScriptedSelector
from drivebench.planners import (
    BehaviorOption,
    HybridBehaviorPlanner,
    IdmMobilPlanner,
    IdmPlanner,
    SamplingPlanner,
    Trajectory,
    WaypointsLlmPlanner,
    enumerate_behaviors,
    fallback_brake_trajectory,
    make_planner,
    mobil_decide,
    plan_with_fallback,
)
from drivebench.planners.sampling import (
    COMFORT_WEIGHT,
    EVAL_HORIZON,
    OFFSET_WEIGHT,
    PROGRESS_WEIGHT,
    TTC_THRESHOLD,
    TTC_WEIGHT,
)
from drivebench.scenarios import (
    ObstacleSpec,
    ObstacleTable,
    ScenarioType,
    base_scenario,
    build_base_map,
    place_parked_vehicle,
)
from drivebench.simulation import (
    WorldState,
    EgoState,
    build_observation,
    run_closed_loop,
)
from conftest import (AgentObs, agent_obs, blocking_spans_oracle,
                      box_extent_oracle, boxes_collide_oracle, make_agent,
                      sampler_evaluate_oracle, sampler_rollout_oracle,
                      stop_profile_oracle, traffic_of, trajectories_equal)


def make_obs(spec, ego_pose=None, ego_speed=None, agents=(), pedestrians=(),
             t=0.0):
    ego = EgoState(pose=ego_pose or spec.ego.pose,
                   speed=spec.ego.speed if ego_speed is None else ego_speed)
    world = WorldState(ego=ego, agents=traffic_of(agents),
                       pedestrians=list(pedestrians))
    return build_observation(world, spec,
                             ObstacleTable(spec.graph, spec.obstacles), t)


def empty_road_spec(lanes=2, kind="straight_multilane"):
    g = build_base_map(kind, lanes=lanes, length=450.0)
    return base_scenario(ScenarioType.LANE_CHANGE_LTD, g, "lane0", 40.0, 10.0, 1)


class TestIdmPlanner:
    def test_empty_road_centerline_at_limit(self):
        spec = empty_road_spec()
        obs = make_obs(spec, ego_speed=13.9)
        traj = IdmPlanner().plan(obs)
        assert np.allclose(traj.y, 0.0, atol=1e-9)
        assert np.allclose(traj.speed, 13.9, atol=1e-6)

    def test_never_leaves_start_lane_on_lane_change_route(self):
        spec = empty_road_spec(lanes=3)
        from drivebench.scenarios import augment_goal_for_lane_changes
        spec = augment_goal_for_lane_changes(spec, 2)
        obs = make_obs(spec)
        traj = IdmPlanner().plan(obs)
        assert np.all(np.abs(traj.y) < 0.01)

    def test_stops_before_blocking_obstacle(self):
        spec = empty_road_spec(lanes=1)
        lane = spec.graph.lane("lane0")
        pose = lane.centerline.interpolate_frenet(90.0, 0.0)
        box = OrientedBox(pose, 4.6, 3.4)  # full-width block
        spec = replace(spec, obstacles=(ObstacleSpec("parked_vehicle", box, "lane0"),))
        obs = make_obs(spec, ego_speed=10.0)
        traj = IdmPlanner().plan(obs)
        final_x = traj.x[-1]
        # approaches standstill asymptotically within the 8 s horizon
        assert traj.speed[-1] < 0.8
        assert np.all(np.diff(traj.speed) <= 1e-9)
        # stays at least (s0 - 0.5) before the near edge of the obstacle
        assert final_x + VEHICLE_LENGTH / 2.0 <= (90.0 - 2.3) - (4.0 - 0.5)

    def test_converges_to_slow_lead(self):
        spec = empty_road_spec(lanes=1)
        lead = make_agent(spec.graph, "lane0", 75.0, 5.0)
        obs = make_obs(spec, ego_speed=12.0,
                       agents=[lead])
        traj = IdmPlanner().plan(obs)
        # approaches the lead speed from above within the horizon
        assert traj.speed[-1] == pytest.approx(5.0, abs=1.0)
        assert np.all(np.diff(traj.speed) <= 1e-9)
        assert traj.speed[-1] >= 5.0 - 0.2

    def test_deterministic(self):
        spec = empty_road_spec()
        obs = make_obs(spec)
        a = IdmPlanner().plan(obs)
        b = IdmPlanner().plan(obs)
        assert trajectories_equal(a, b)

    def test_within_time_budget(self):
        spec = empty_road_spec(lanes=3)
        agents = [make_agent(spec.graph, "lane1", 60.0 + 12 * i, 8.0)
                  for i in range(10)]
        obs = make_obs(spec, agents=agents)
        planner = IdmPlanner()
        planner.plan(obs)  # warm up
        t0 = time.perf_counter()
        planner.plan(obs)
        assert time.perf_counter() - t0 < 0.1


def array_idm_rollout(v_start, gap0, v_lead, v0):
    """Reference: idm_acceleration stepped by hand, as idm_rollout's former
    loop did on numpy arrays; gap0 None is free flow."""
    from drivebench.agents import idm_acceleration
    from drivebench.planners.base import N_SAMPLES, STEP

    s = np.zeros(N_SAMPLES)
    v = np.zeros(N_SAMPLES)
    v[0] = max(0.0, v_start)
    if gap0 is not None:
        gap0, v_lead = max(gap0, 0.01), max(v_lead, 0.0)
    for k in range(1, N_SAMPLES):
        if gap0 is None:
            a = idm_acceleration(v[k - 1], None, None, v0)
        else:
            gap = gap0 + v_lead * (k - 1) * STEP - s[k - 1]
            a = idm_acceleration(v[k - 1], v_lead, max(gap, 0.01), v0)
        v[k] = max(0.0, v[k - 1] + a * STEP)
        s[k] = s[k - 1] + v[k] * STEP
    return s, v


class TestIdmRollout:
    def test_equals_array_loop(self):
        """idm_rollout gives the bits of idm_acceleration stepped by hand:
        from standstill, -0.0, negative and random speeds (float and
        np.float64), in free flow (a gap of inf against the reference's
        idm_acceleration without a lead), against gaps below the 0.01 m
        clamp, ordinary and huge, and against leads backing up, at rest
        and faster than v0."""
        from drivebench.planners.idm_planner import idm_rollout

        rng = np.random.default_rng(37)
        for trial in range(400):
            v0 = float(rng.uniform(1.0, 30.0))
            v_start = (0.0, -0.0, -float(rng.uniform(0.0, 5.0)),
                       float(rng.uniform(0.0, 35.0)),
                       np.float64(rng.uniform(0.0, 35.0)))[trial % 5]
            gap0 = (None, float(rng.uniform(0.0, 0.01)), 0.01,
                    float(rng.uniform(0.01, 80.0)), 1e6)[(trial // 5) % 5]
            v_lead = (0.0, float(rng.uniform(0.0, v0)),
                      float(rng.uniform(v0, 2.0 * v0)),
                      -float(rng.uniform(0.0, 3.0)))[trial % 4]
            s, v = idm_rollout(v_start, math.inf if gap0 is None else gap0,
                               v_lead, v0)
            want_s, want_v = array_idm_rollout(v_start, gap0, v_lead, v0)
            assert s.dtype == v.dtype == np.float64
            assert s.tobytes() == want_s.tobytes(), trial
            assert v.tobytes() == want_v.tobytes(), trial


class FailingPlanner:
    name = "boom"

    def plan(self, obs):
        raise RuntimeError("forced test failure")


class TestPlanContract:
    def test_fallback_on_internal_error(self):
        spec = empty_road_spec()
        obs = make_obs(spec, ego_speed=10.0, t=2.5)
        events = []
        traj = plan_with_fallback(FailingPlanner(), obs, events)
        assert traj.speed[0] == pytest.approx(10.0)
        assert traj.speed[-1] == 0.0
        assert events == [{"kind": "planner_fallback", "time": 2.5,
                           "error": "RuntimeError",
                           "message": "forced test failure"}]

    def test_fallback_brakes_along_lane(self):
        spec = empty_road_spec()
        obs = make_obs(spec, ego_speed=12.0)
        traj = fallback_brake_trajectory(obs)
        assert np.all(np.diff(traj.speed) <= 1e-9)
        assert np.allclose(traj.y, obs.ego_box.center.y, atol=1e-6)

    def test_creep_across_curved_vertex_is_valid(self):
        from drivebench.planners.base import STEP, Trajectory, path_headings

        # millimeter steps decaying to a stop across a 0.017 rad vertex, as
        # on the curved construction map
        turn = 0.017
        line = Polyline([[0.0, 0.0], [10.0, 0.0],
                         [10.0 + 10.0 * math.cos(turn), 10.0 * math.sin(turn)]])
        steps = 0.004 * 0.8 ** np.arange(80)
        s = 10.0 - 0.006 + np.concatenate(([0.0], np.cumsum(steps)))
        speed = np.concatenate((steps / STEP, [0.0]))
        x, y, tangent = line.interpolate_many(s, np.zeros_like(s))
        heading = path_headings(x[None], y[None], tangent[None])[0]
        traj = Trajectory(np.arange(len(s)) * STEP, x, y, heading, speed)
        assert np.all(np.abs(traj.heading) <= turn)


class TestPathHeadings:
    def test_equals_libm_atan2_in_every_quadrant(self):
        """path_headings equals a math.atan2 loop bit for bit on paths whose
        steps point in every direction, with stalled steps carrying the last
        moving heading and rows that start stalled keeping the tangent.
        numpy's arctan2 loops differ from libm in the last bit on many such
        steps, though on none near an axis."""
        from drivebench.planners.base import path_headings

        rng = np.random.default_rng(29)
        x = np.cumsum(rng.uniform(-5.0, 5.0, (64, 40)), axis=1)
        y = np.cumsum(rng.uniform(-5.0, 5.0, (64, 40)), axis=1)
        stall = rng.random((64, 39)) < 0.1
        stall[:8, :5] = True
        for r, k in zip(*np.nonzero(stall)):
            x[r, k + 1:] -= x[r, k + 1] - x[r, k]
            y[r, k + 1:] -= y[r, k + 1] - y[r, k]
        tangent = rng.uniform(-math.pi, math.pi, (64, 40))
        want = np.empty_like(x)
        for r in range(64):
            last = None
            for k in range(39):
                dx, dy = x[r, k + 1] - x[r, k], y[r, k + 1] - y[r, k]
                if np.hypot(dx, dy) > 1e-6:
                    last = math.atan2(dy, dx)
                want[r, k] = tangent[r, k] if last is None else last
            want[r, 39] = tangent[r, 39] if last is None else last
        dx, dy = np.diff(x, axis=1), np.diff(y, axis=1)
        quadrants = {(bool(a > 0), bool(b > 0)) for a, b in
                     zip(dx[~stall], dy[~stall])}
        assert len(quadrants) == 4 and (want[:8, 0] == tangent[:8, 0]).all()
        got = path_headings(x, y, tangent, guard=False)
        assert got.tobytes() == want.tobytes()


def sample_at(traj, t):
    """Scalar linear interpolation of (x, y, speed) at time t (clamped): the
    reference for Trajectory.sample."""
    t = min(max(t, 0.0), float(traj.t[-1]))
    i = int(np.searchsorted(traj.t, t, side="right")) - 1
    i = min(max(i, 0), len(traj.t) - 2)
    w = (t - traj.t[i]) / (traj.t[i + 1] - traj.t[i])
    return (float(traj.x[i] + w * (traj.x[i + 1] - traj.x[i])),
            float(traj.y[i] + w * (traj.y[i + 1] - traj.y[i])),
            float(traj.speed[i] + w * (traj.speed[i + 1] - traj.speed[i])))


def clip_sample(traj, ts):
    """Reference: Trajectory.sample's former np.clip form."""
    ts = np.clip(ts, 0.0, traj.t[-1])
    i = np.clip(np.searchsorted(traj.t, ts, side="right") - 1,
                0, len(traj.t) - 2)
    w = (ts - traj.t[i]) / (traj.t[i + 1] - traj.t[i])
    return tuple(a[i] + w * (a[i + 1] - a[i])
                 for a in (traj.x, traj.y, traj.speed))


class TestTrajectorySample:
    def test_equals_scalar_interpolation(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 90))
            t = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.3, n - 1))))
            traj = Trajectory(t, rng.uniform(-100, 100, n),
                              rng.uniform(-100, 100, n), np.zeros(n),
                              rng.uniform(0, 20, n))
            ts = np.concatenate((t, rng.uniform(-1.0, t[-1] + 1.0, 40),
                                 [-5.0, t[-1] + 5.0]))
            x, y, v = traj.sample(ts)
            assert [tuple(r) for r in np.column_stack((x, y, v)).tolist()] \
                == [sample_at(traj, float(u)) for u in ts]
            assert tuple(float(a) for a in traj.sample(0.1)) \
                == sample_at(traj, 0.1)

    def test_equals_clip_form(self):
        """Bounding with np.minimum/np.maximum gives np.clip's bits, on
        -0.0, infinities and NaN too, for arrays and scalars."""
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 90))
            t = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.3, n - 1))))
            traj = Trajectory(t, rng.uniform(-100, 100, n),
                              rng.uniform(-100, 100, n), np.zeros(n),
                              rng.uniform(0, 20, n))
            ts = np.concatenate((
                t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf),
                rng.uniform(-1.0, t[-1] + 1.0, 40),
                [-0.0, -5.0, t[-1] + 5.0, np.inf, -np.inf, np.nan]))
            for got, want in zip(traj.sample(ts), clip_sample(traj, ts)):
                assert got.tobytes() == want.tobytes()
            for u in (0.1, -0.0, float(t[-1]), np.nan):
                for got, want in zip(traj.sample(u), clip_sample(traj, u)):
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestTrajectoryChecks:
    @pytest.mark.parametrize("overrides, message", [
        ({"t": [0.1, 0.2, 0.3, 0.4]}, "t must strictly increase"),
        ({"t": [0.0, 0.1, 0.1, 0.2]}, "t must strictly increase"),
        ({"t": [0.0, 0.2, 0.1, 0.3]}, "t must strictly increase"),
        ({"t": [np.nan, 0.1, 0.2, 0.3]}, "t must strictly increase"),
        ({"speed": [1.0, -0.1, 1.0, 1.0]}, "speeds must be finite"),
        ({"speed": [1.0, np.nan, 1.0, 1.0]}, "speeds must be finite"),
        ({"speed": [1.0, np.inf, 1.0, 1.0]}, "speeds must be finite"),
        ({"x": [0.0, np.nan, 0.2, 0.3]}, "positions must be finite"),
        ({"y": [0.0, 0.0, np.inf, 0.0]}, "positions must be finite"),
        ({"heading": [0.0, 0.0, 1.0, 1.0]}, "curvature 10.000 exceeds"),
        ({"x": [0.0, 0.1, 0.2]}, "share one length"),
        ({k: [0.0] for k in ("t", "x", "y", "heading", "speed")},
         "needs at least 2 samples"),
    ])
    def test_invalid_input_raises(self, overrides, message):
        args = {"t": [0.0, 0.1, 0.2, 0.3], "x": [0.0, 0.1, 0.2, 0.3],
                "y": [0.0] * 4, "heading": [0.0] * 4, "speed": [1.0] * 4}
        Trajectory(**args)
        with pytest.raises(ValueError, match=message):
            Trajectory(**{**args, **overrides})

    def test_slice_differences_equal_np_diff(self):
        """Trajectory and path_headings take differences as a[1:] - a[:-1]
        (1-D) and a[:, 1:] - a[:, :-1] (axis 1), which give np.diff's bits
        on random rows and on rows with NaN, infinities and -0.0."""
        rng = np.random.default_rng(47)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, -1e308])
        for _ in range(200):
            a = rng.uniform(-1e3, 1e3, (int(rng.integers(1, 6)),
                                        int(rng.integers(2, 90))))
            mask = rng.random(a.shape) < 0.1
            a[mask] = rng.choice(special, int(mask.sum()))
            with np.errstate(invalid="ignore", over="ignore"):
                assert (a[:, 1:] - a[:, :-1]).tobytes() \
                    == np.diff(a, axis=1).tobytes()
                assert (a[0, 1:] - a[0, :-1]).tobytes() \
                    == np.diff(a[0]).tobytes()


class TestMobilDecide:
    def make_spec(self, lanes=2):
        return empty_road_spec(lanes=lanes)

    def test_symmetric_scene_stays(self):
        spec = self.make_spec(lanes=3)
        from drivebench.scenarios import augment_goal_for_lane_changes
        # route stays on the middle lane: no goal-side bias
        g = spec.graph
        spec = base_scenario(ScenarioType.LANE_CHANGE_LTD, g, "lane1", 40.0,
                             10.0, 1)
        agents = [make_agent(g, lane, 80.0, 8.0)
                  for lane in ("lane0", "lane1", "lane2")]
        obs = make_obs(spec, agents=agents)
        assert mobil_decide(obs) is None

    def test_escape_from_stopped_lead(self):
        spec = self.make_spec()
        blocker = make_agent(spec.graph, "lane0", 40.0 + 2.3 + 20.0 + 2.3, 0.0)
        obs = make_obs(spec, ego_speed=10.0, agents=[blocker])
        assert mobil_decide(obs) == "lane1"

    def test_safety_veto(self):
        spec = self.make_spec()
        blocker = make_agent(spec.graph, "lane0", 40.0 + 25.0, 0.0)
        follower = make_agent(spec.graph, "lane1", 40.0 - 7.0, 13.5)
        obs = make_obs(spec, ego_speed=10.0, agents=[blocker, follower])
        # imposed braking on the fast close follower exceeds b_safe = 4
        assert mobil_decide(obs) is None

    def test_mirror_symmetry(self):
        # scene on a 3-lane road, route to the left vs the mirrored route to
        # the right: the decision must mirror
        g = build_base_map("straight_multilane", lanes=3, length=450.0)
        spec_l = base_scenario(ScenarioType.LANE_CHANGE_LTD, g, "lane1",
                               40.0, 10.0, 1, goal_lane="lane2")
        spec_r = base_scenario(ScenarioType.LANE_CHANGE_LTD, g, "lane1",
                               40.0, 10.0, 1, goal_lane="lane0")
        blocker_args = dict(s=40.0 + 24.0, speed=0.0)
        blocker = make_agent(g, "lane1", **blocker_args)
        obs_l = make_obs(spec_l, agents=[blocker])
        obs_r = make_obs(spec_r, agents=[blocker])
        assert mobil_decide(obs_l) == "lane2"
        assert mobil_decide(obs_r) == "lane0"

    def test_two_tick_abort(self):
        spec = self.make_spec()
        blocker = make_agent(spec.graph, "lane0", 40.0 + 25.0, 0.0)
        obs1 = make_obs(spec, ego_speed=10.0, agents=[blocker])
        assert mobil_decide(obs1) == "lane1"
        # next tick a fast vehicle appears close behind on the target lane
        follower = make_agent(spec.graph, "lane1", 40.0 - 6.0, 13.9)
        obs2 = make_obs(spec, ego_speed=10.0, agents=[blocker, follower], t=0.1)
        assert mobil_decide(obs2) is None

    def test_plan_equals_idm_when_no_decision(self):
        spec = self.make_spec(lanes=1)
        obs = make_obs(spec)
        a = IdmMobilPlanner().plan(obs)
        b = IdmPlanner().plan(obs)
        assert trajectories_equal(a, b)

    def test_approved_change_targets_neighbor_centerline(self):
        spec = self.make_spec()
        blocker = make_agent(spec.graph, "lane0", 40.0 + 25.0, 0.0)
        obs = make_obs(spec, ego_speed=10.0, agents=[blocker])
        traj = IdmMobilPlanner().plan(obs)
        # final sample converges onto the left neighbor centerline (y=3.5)
        assert abs(traj.y[-1] - 3.5) < 0.2


# ---------------------------------------------------------------------------
# sampling planner


def sampling_oracle_select(planner: SamplingPlanner, obs, behavior=None):
    """Transparent reimplementation of feasibility, cost, and tie-breaks
    over the planner's candidate set, using only scalar library primitives.
    The candidates' window arrays are those of the exhaustive oracle, which
    builds them for all 30."""
    from drivebench.geometry import points_in_polygon

    cands = sampler_evaluate_oracle(planner, obs, behavior)[0]
    behavior = behavior or planner.default_behavior(obs)
    lane = obs.graph.lane(behavior.centerline)
    limit = lane.speed_limit
    K = min(int(round(EVAL_HORIZON / 0.1)), 80)

    entities = []
    for a in agent_obs(obs.agents):
        entities.append((a.box.center.x, a.box.center.y,
                         a.speed * math.cos(a.box.center.heading),
                         a.speed * math.sin(a.box.center.heading),
                         a.box.center.heading, a.box.length, a.box.width))
    for o in obs.obstacles:
        entities.append((o.box.center.x, o.box.center.y, 0.0, 0.0,
                         o.box.center.heading, o.box.length, o.box.width))
    for p in obs.pedestrians:
        h = math.atan2(p.velocity[1], p.velocity[0]) if p.crossing else 0.0
        entities.append((p.position[0], p.position[1], p.velocity[0],
                         p.velocity[1], h, 0.6, 0.6))

    results = []
    for c in cands:
        collided = False
        off_area = False
        for k in range(1, K + 1):
            t = k * 0.1
            ego_box = OrientedBox(Pose2D(c.x[k], c.y[k], c.heading[k]),
                                  VEHICLE_LENGTH, VEHICLE_WIDTH)
            lat_speed = abs(c.d[k] - c.d[k - 1]) / 0.1
            for (ex, ey, evx, evy, eh, el, ew) in entities:
                other = OrientedBox(Pose2D(ex + evx * t, ey + evy * t, eh),
                                    el, ew)
                if boxes_collide_oracle(ego_box, other):
                    rel_x = ((other.center.x - ego_box.center.x)
                             * math.cos(c.heading[k])
                             + (other.center.y - ego_box.center.y)
                             * math.sin(c.heading[k]))
                    if not (rel_x < 0.0 and lat_speed < 0.3):
                        collided = True
            pts = np.vstack([ego_box.corners(),
                             [[ego_box.center.x, ego_box.center.y]]])
            inside = np.zeros(len(pts), dtype=bool)
            for poly in obs.graph.drivable_area:
                inside |= points_in_polygon(pts, poly)
            if not inside.all():
                off_area = True
        # TTC violations
        n_u = int(math.ceil(TTC_THRESHOLD / 0.1))
        u_grid = [min((j + 1) * 0.1, TTC_THRESHOLD) for j in range(n_u)]
        viol = 0
        for k in range(1, K + 1):
            t = k * 0.1
            vx = c.v[k] * math.cos(c.heading[k])
            vy = c.v[k] * math.sin(c.heading[k])
            hit = False
            for u in u_grid:
                ego_box = OrientedBox(
                    Pose2D(c.x[k] + vx * u, c.y[k] + vy * u, c.heading[k]),
                    VEHICLE_LENGTH, VEHICLE_WIDTH)
                for (ex, ey, evx, evy, eh, el, ew) in entities:
                    other = OrientedBox(
                        Pose2D(ex + evx * (t + u), ey + evy * (t + u), eh),
                        el, ew)
                    if boxes_collide_oracle(ego_box, other):
                        hit = True
            viol += hit
        ttc_frac = viol / K
        progress = c.s[-1] - c.s[0]
        prog_norm = progress / (limit * 8.0)
        accel = np.abs(np.diff(c.v[: K + 1])) / 0.1
        comfort = accel.mean() / 4.0
        cost = (TTC_WEIGHT * ttc_frac + OFFSET_WEIGHT * abs(c.delta)
                + COMFORT_WEIGHT * comfort - PROGRESS_WEIGHT * prog_norm)
        results.append((not (collided or off_area), cost, progress))

    feasible = [i for i, r in enumerate(results) if r[0]]
    if not feasible:
        return next(i for i, c in enumerate(cands)
                    if c.fraction is None and c.delta == 0.0)
    return min(feasible, key=lambda i: (
        results[i][1], abs(cands[i].target_offset), -results[i][2], i))


def random_observation(rng, lanes=2):
    g = build_base_map("straight_multilane", lanes=lanes, length=450.0)
    spec = base_scenario(ScenarioType.LANE_CHANGE_LTD, g, "lane0",
                         float(rng.uniform(30, 60)), float(rng.uniform(4, 13)), 1)
    agents = []
    for _ in range(int(rng.integers(0, 3))):
        lane = f"lane{int(rng.integers(0, lanes))}"
        agents.append(make_agent(g, lane, float(rng.uniform(70, 200)),
                                 float(rng.uniform(0, 12))))
    obstacles = ()
    if rng.random() < 0.5:
        lane = spec.graph.lane("lane0")
        e = float(rng.uniform(0.6, 1.4))
        d_center = -lane.width / 2.0 + e - VEHICLE_WIDTH / 2.0
        pose = lane.centerline.interpolate_frenet(float(rng.uniform(80, 150)),
                                                  d_center)
        obstacles = (ObstacleSpec("parked_vehicle",
                                  OrientedBox(pose, 4.6, 1.85), "lane0"),)
    peds = []
    if rng.random() < 0.3:
        from drivebench.agents import PedestrianState
        x_cross = float(rng.uniform(70, 120))
        path = Polyline([[x_cross, -2.6], [x_cross, 2.6]])
        peds.append(PedestrianState(
            path=path, walk_speed=1.2, trigger_distance=50.0, lane="lane0",
            phase="crossing", dist_along=float(rng.uniform(0.2, 3.0))))
    spec = replace(spec, obstacles=obstacles)
    return make_obs(spec, ego_speed=float(rng.uniform(4, 13)), agents=agents,
                    pedestrians=peds)


# ---------------------------------------------------------------------------
# corridor lead query


def scalar_nearest_lead(obs, lane_id, from_s, path_offset=lambda s: 0.0):
    """Reference: the per-entity loop idm and mobil used before the lane
    scene existed, as (near-edge s, speed along the lane) or None."""
    from drivebench.agents import SWEPT_BAND_HALF_WIDTH as half_band
    from drivebench.geometry import wrap_angle

    line = obs.graph.lane(lane_id).centerline
    best = None

    def consider(s_near, speed):
        nonlocal best
        if s_near > from_s and (best is None or s_near < best[0]):
            best = (s_near, speed)

    for agent in agent_obs(obs.agents):
        f = line.project_extended((agent.box.center.x, agent.box.center.y))
        lat = abs(f.d - path_offset(f.s))
        rel = wrap_angle(agent.box.center.heading
                         - line.tangent_at(min(max(f.s, 0.0), line.length)))
        half_len = (abs(math.cos(rel)) * agent.box.length
                    + abs(math.sin(rel)) * agent.box.width) / 2.0
        if lat <= half_band + agent.box.width / 2.0 - 0.15:
            consider(f.s - half_len, agent.speed * math.cos(rel))
    for o in obs.obstacles:
        fs = [line.project_extended(c) for c in o.box.corners()]
        d_lo, d_hi = min(f.d for f in fs), max(f.d for f in fs)
        s_lo = min(f.s for f in fs)
        mid_s = min(max(0.5 * (s_lo + max(f.s for f in fs)), 0.0), line.length)
        off = path_offset(mid_s)
        if d_lo - 0.05 <= off + half_band and d_hi + 0.05 >= off - half_band:
            consider(s_lo, 0.0)
    for ped in obs.pedestrians:
        if not ped.crossing:
            continue
        f = line.project_extended(ped.position)
        if abs(f.d - path_offset(f.s)) <= half_band + 0.3:
            consider(f.s - 0.3, 0.0)
    return best


def sampler_lead_oracle(obs, lane_id, target, d0, slope0, s0, span, front0):
    """Reference: the sampler's former per-candidate lead search along one
    offset path, with its own entity packing, as (s, speed) or None."""
    from drivebench.planners.sampling import lateral_profile

    line = obs.graph.lane(lane_id).centerline
    obstacles = []
    for o in obs.obstacles:
        fs = [line.project_extended(c) for c in o.box.corners()]
        obstacles.append((min(f.s for f in fs), max(f.s for f in fs),
                          min(f.d for f in fs), max(f.d for f in fs)))
    agents = []
    for a in agent_obs(obs.agents):
        fa = line.project_extended((a.box.center.x, a.box.center.y))
        h_rel = a.box.center.heading - line.tangent_at(
            min(max(fa.s, 0.0), line.length))
        half_len = (abs(math.cos(h_rel)) * a.box.length
                    + abs(math.sin(h_rel)) * a.box.width) / 2.0
        agents.append((fa.s, fa.d, half_len, a.speed * math.cos(h_rel),
                       a.box.width))
    peds = []
    for p in obs.pedestrians:
        fp = line.project_extended(p.position)
        peds.append((fp.s, fp.d, p.crossing))
    best = None

    def path_d(s):
        rel = np.array([max(s - s0, 0.0)])
        return float(lateral_profile(d0, slope0, np.array([target]),
                                     rel, span)[0, 0])

    def consider(s_near, speed):
        nonlocal best
        if s_near > front0 and (best is None or s_near < best[0]):
            best = (s_near, speed)

    half = VEHICLE_WIDTH / 2.0 + 0.25
    for s_lo, s_hi, d_lo, d_hi in obstacles:
        off = path_d(0.5 * (s_lo + s_hi))
        if d_lo - 0.05 <= off + half and d_hi + 0.05 >= off - half:
            consider(s_lo, 0.0)
    for s_a, d_a, half_len, speed_along, width in agents:
        off = path_d(s_a)
        if abs(d_a - off) <= (VEHICLE_WIDTH + width) / 2.0 + 0.1:
            consider(s_a - half_len, speed_along)
    for s_p, d_p, crossing in peds:
        if crossing and abs(d_p - path_d(s_p)) <= half + 0.3:
            consider(s_p - 0.3, 0.0)
    return best


class TestNearestLead:
    """The lane-scene query equals both loops it replaced, exactly.

    The two loops differed in three ways, each neutral on the seed-2024
    suite (the golden trace hashes did not change when they were merged)
    and absent from these scenes:
    - the agent heading relative to the lane was wrapped into (-pi, pi] for
      idm and mobil but not for the sampler;
    - idm and mobil clamped an obstacle's mid-s to the lane before asking
      for the path offset there, a no-op at zero offset;
    - the sampler visited obstacles before agents, which decides only
      between entities with exactly equal near-edge s.
    The agent tolerances (W + w)/2 + 0.1 and
    SWEPT_BAND_HALF_WIDTH + w/2 - 0.15 are bit-equal for w = 1.85 m, the
    only agent width in the suite.
    """

    @staticmethod
    def _leads(lead_s, lead_v):
        return [None if math.isinf(s) else (s, v)
                for s, v in zip(lead_s.tolist(), lead_v.tolist())]

    def test_equals_reference_loops(self):
        from drivebench.planners.base import lane_scene, nearest_lead
        from drivebench.planners.sampling import OFFSET_DELTAS, lateral_profile

        rng = np.random.default_rng(41)
        found = 0
        for trial in range(60):
            lanes = 2 + trial % 2
            obs = random_observation(rng, lanes=lanes)
            for k in range(lanes):
                lane_id = f"lane{k}"
                line = obs.graph.lane(lane_id).centerline
                scene = lane_scene(obs, lane_id)
                f = scene.ego
                front = f.s + VEHICLE_LENGTH / 2.0
                want = scalar_nearest_lead(obs, lane_id, front)
                assert self._leads(*nearest_lead(scene, front)) == [want]
                found += want is not None
                slope0 = float(np.clip(math.tan(
                    obs.ego_box.center.heading - line.tangent_at(f.s)),
                    -0.6, 0.6))
                span = max(2.0 * max(obs.ego_speed, 0.1), 10.0)
                for base in (0.0, 1.6, -2.3):
                    offsets = base + np.asarray(OFFSET_DELTAS)
                    got = nearest_lead(scene, front, lambda s: lateral_profile(
                        f.d, slope0, offsets, np.maximum(s - f.s, 0.0), span))
                    want = [sampler_lead_oracle(obs, lane_id, t, f.d, slope0,
                                                f.s, span, front)
                            for t in offsets]
                    assert self._leads(*got) == want, (trial, lane_id, base)
        assert found >= 30


class TestLaneSceneMemo:
    """lane_scene builds one scene per observation and lane."""

    @staticmethod
    def _values(scene):
        return [scene.ego] + [getattr(scene, f.name).tolist()
                              for f in fields(scene) if f.name != "ego"]

    def test_same_scene_per_lane(self):
        from drivebench.planners.base import lane_scene

        obs = random_observation(np.random.default_rng(3))
        assert lane_scene(obs, "lane0") is lane_scene(obs, "lane0")
        assert lane_scene(obs, "lane1") is not lane_scene(obs, "lane0")

    def test_replaced_observation_projects_anew(self):
        from drivebench.planners.base import Observation, lane_scene

        rng = np.random.default_rng(5)
        for _ in range(10):
            obs = random_observation(rng)
            stale = lane_scene(obs, "lane0")
            ego = obs.ego_box.center
            extra = AgentObs(OrientedBox(Pose2D(ego.x + 15.0, ego.y, 0.1),
                                         4.6, 1.85), 3.0, "lane0")
            moved = replace(obs, agents=traffic_of(agent_obs(obs.agents)
                                                   + [extra]))
            scene = lane_scene(moved, "lane0")
            fresh = lane_scene(Observation(**{
                f.name: getattr(moved, f.name)
                for f in fields(Observation) if f.init}), "lane0")
            assert scene is not stale
            assert self._values(scene) == self._values(fresh)
            assert self._values(scene) != self._values(stale)

    def test_replaced_ego_starts_an_empty_frame(self):
        """The ego frame is a derived memo like the scenes: replacing the
        ego box starts an empty frame at the new center, an Observation
        built from the fields starts empty, and lane_scene fills the frame
        with the clamped projection its ego point extends."""
        from drivebench.planners.base import Observation, lane_scene

        rng = np.random.default_rng(8)
        for _ in range(10):
            obs = random_observation(rng)
            assert obs.ego_lane in obs.frame
            lane_scene(obs, "lane1")
            assert set(obs.frame) == {obs.ego_lane, "lane1"}
            c = obs.ego_box.center
            point = (c.x + float(rng.uniform(-30.0, 30.0)),
                     c.y + float(rng.uniform(-4.0, 4.0)))
            moved = replace(obs, ego_box=OrientedBox(
                Pose2D(*point, c.heading), 4.6, 1.85))
            assert not moved.frame and moved.frame.point == point
            assert not Observation(**{f.name: getattr(obs, f.name)
                                      for f in fields(Observation) if f.init}
                                   ).frame
            line = obs.graph.lane("lane1").centerline
            assert lane_scene(moved, "lane1").ego == line.project_extended(point)
            assert moved.frame == {"lane1": line.project(point)}
            assert obs.frame["lane1"] == line.project((c.x, c.y))


def lane_scene_scalar(obs, lane_id):
    """Reference: lane_scene's former per-entity loop, one scalar
    project_extended for the ego, each agent and each crossing pedestrian,
    as the scene's values."""
    from drivebench.agents import SWEPT_BAND_HALF_WIDTH
    from drivebench.geometry import wrap_angle

    line = obs.graph.lane(lane_id).centerline
    agents = []
    for agent in agent_obs(obs.agents):
        f = line.project_extended((agent.box.center.x, agent.box.center.y))
        rel = wrap_angle(agent.box.center.heading - line.tangent_at(f.s))
        along = (abs(math.cos(rel)) * agent.box.length
                 + abs(math.sin(rel)) * agent.box.width) / 2.0
        agents.append((f.s, f.d, agent.box.length / 2.0, f.s - along,
                       agent.speed * math.cos(rel),
                       SWEPT_BAND_HALF_WIDTH + agent.box.width / 2.0 - 0.15))
    peds = [line.project_extended(p.position)
            for p in obs.pedestrians if p.crossing]
    ego = line.project_extended((obs.ego_box.center.x, obs.ego_box.center.y))
    columns = np.array(agents, dtype=float).reshape(-1, 6).T
    ped_columns = np.array([(f.s, f.d) for f in peds], float).reshape(-1, 2).T
    return [ego] + [c.tobytes() for c in columns] \
        + [c.tobytes() for c in ped_columns]


class TestLaneSceneProjection:
    def test_equals_scalar_projections(self):
        """lane_scene, batched from PROJECT_MANY_MIN points on, equals the
        former per-entity scalar projections bit for bit: 0 to 14 agents
        anywhere on or off the road, before the lanes' start and past their
        end, with waiting and crossing pedestrians."""
        from drivebench.planners.base import (
            PROJECT_MANY_MIN,
            PedestrianObs,
            lane_scene,
        )

        rng = np.random.default_rng(41)
        sizes = set()
        for _ in range(150):
            obs = random_observation(rng)
            agents = tuple(AgentObs(OrientedBox(Pose2D(
                float(rng.uniform(-40.0, 490.0)), float(rng.uniform(-6.0, 10.0)),
                float(rng.uniform(-math.pi, math.pi))), 4.6, 1.85),
                float(rng.uniform(0.0, 14.0)), "lane0")
                for _ in range(int(rng.integers(0, 15))))
            peds = tuple(PedestrianObs(
                (float(rng.uniform(-20.0, 470.0)), float(rng.uniform(-3.0, 6.0))),
                (0.0, 1.2), bool(rng.random() < 0.6))
                for _ in range(int(rng.integers(0, 3))))
            obs = replace(obs, agents=traffic_of(agents), pedestrians=peds)
            sizes.add(1 + len(agents) + sum(p.crossing for p in peds))
            for lane_id in ("lane0", "lane1"):
                scene = lane_scene(obs, lane_id)
                got = [scene.ego] + [
                    getattr(scene, f.name).tobytes() for f in fields(scene)
                    if f.name.startswith("agent_")] + [
                    scene.ped_s.tobytes(), scene.ped_d.tobytes()]
                assert got == lane_scene_scalar(obs, lane_id)
        assert min(sizes) < PROJECT_MANY_MIN <= max(sizes)


# ---------------------------------------------------------------------------
# sampler contact and TTC queries


def reference_feasibility(obs, world, x, y, heading, d, K):
    """Reference: the sampler's at-fault contact loop and drivable-area
    check before the shared contact query, with their own circumcircle
    prefilter and corner arithmetic, as (collided, off_area)."""
    from drivebench.geometry import boxes_collide_batch, points_in_any_polygon
    from drivebench.planners.sampling import LANE_KEEP_LAT_SPEED

    C = x.shape[0]
    collided = np.zeros(C, dtype=bool)
    ex, ey, evx, evy, eh, el, ew = world
    er = np.hypot(el, ew) / 2.0
    t = (np.arange(1, K + 1)) * 0.1
    gx, gy, gh = x[:, 1:K + 1], y[:, 1:K + 1], heading[:, 1:K + 1]
    lat_speed = np.abs(np.diff(d[:, :K + 1], axis=1)) / 0.1
    if len(ex):
        fx = ex[None, :] + evx[None, :] * t[:, None]
        fy = ey[None, :] + evy[None, :] * t[:, None]
        dist2 = (gx[:, :, None] - fx[None, :, :]) ** 2 \
            + (gy[:, :, None] - fy[None, :, :]) ** 2
        r_ego = math.hypot(VEHICLE_LENGTH, VEHICLE_WIDTH) / 2.0
        ci, ki, ei = np.nonzero(dist2 <= (r_ego + er[None, None, :]) ** 2)
        if len(ci):
            hits = boxes_collide_batch(
                gx[ci, ki], gy[ci, ki], gh[ci, ki],
                np.full(len(ci), VEHICLE_LENGTH),
                np.full(len(ci), VEHICLE_WIDTH),
                fx[ki, ei], fy[ki, ei], eh[ei], el[ei], ew[ei])
            hc, hk, he = ci[hits], ki[hits], ei[hits]
            rel_x = (fx[hk, he] - gx[hc, hk]) * np.cos(gh[hc, hk]) \
                + (fy[hk, he] - gy[hc, hk]) * np.sin(gh[hc, hk])
            struck_from_behind = (rel_x < 0.0) & \
                (lat_speed[hc, hk] < LANE_KEEP_LAT_SPEED)
            collided[np.unique(hc[~struck_from_behind])] = True
    c, s_ = np.cos(gh), np.sin(gh)
    hl, hw = VEHICLE_LENGTH / 2.0, VEHICLE_WIDTH / 2.0
    offs = [(hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw), (0.0, 0.0)]
    pts = np.stack([
        np.stack([gx + c * ox - s_ * oy, gy + s_ * ox + c * oy], axis=-1)
        for ox, oy in offs], axis=2)
    inside = points_in_any_polygon(pts.reshape(-1, 2), obs.graph.drivable_area)
    return collided, ~inside.reshape(C, K, len(offs)).all(axis=(1, 2))


def reference_ttc_fractions(world, x, y, heading, v, K, threshold):
    """Reference: the sampler's TTC term before the shared projector."""
    from drivebench.geometry import boxes_collide_batch

    C = x.shape[0]
    ex, ey, evx, evy, eh, el, ew = world
    if not len(ex):
        return np.zeros(C)
    er = np.hypot(el, ew) / 2.0
    n_u = int(math.ceil(threshold / 0.1))
    u = np.minimum(np.arange(1, n_u + 1) * 0.1, threshold)
    t = (np.arange(1, K + 1)) * 0.1
    gx, gy = x[:, 1:K + 1], y[:, 1:K + 1]
    gh, gv = heading[:, 1:K + 1], v[:, 1:K + 1]
    px = gx[:, :, None] + (gv * np.cos(gh))[:, :, None] * u[None, None, :]
    py = gy[:, :, None] + (gv * np.sin(gh))[:, :, None] * u[None, None, :]
    base_x = ex[None, :] + evx[None, :] * t[:, None]
    base_y = ey[None, :] + evy[None, :] * t[:, None]
    qx = base_x[:, None, :] + evx[None, None, :] * u[None, :, None]
    qy = base_y[:, None, :] + evy[None, None, :] * u[None, :, None]
    dist2 = (px[:, :, :, None] - qx[None, :, :, :]) ** 2 \
        + (py[:, :, :, None] - qy[None, :, :, :]) ** 2
    r_ego = math.hypot(VEHICLE_LENGTH, VEHICLE_WIDTH) / 2.0
    ci, ki, ui, ei = np.nonzero(dist2 <= (r_ego + er[None, None, None, :]) ** 2)
    viol = np.zeros((C, K), dtype=bool)
    if len(ci):
        hits = boxes_collide_batch(
            px[ci, ki, ui], py[ci, ki, ui], gh[ci, ki],
            np.full(len(ci), VEHICLE_LENGTH), np.full(len(ci), VEHICLE_WIDTH),
            qx[ki, ui, ei], qy[ki, ui, ei], eh[ei], el[ei], ew[ei])
        np.logical_or.at(viol, (ci[hits], ki[hits]), True)
    return viol.mean(axis=1)


def crowded_observation(rng, n_agents, n_obstacles, n_waiting, n_crossing):
    """A random_observation scene whose entities are replaced by the given
    numbers of agents, parked vehicles and waiting and crossing pedestrians,
    all placed in the few metres around and ahead of the ego."""
    from drivebench.planners.base import PedestrianObs

    obs = random_observation(rng)
    ego = obs.ego_box.center

    def near():
        return (ego.x + float(rng.uniform(-6.0, 20.0)),
                ego.y + float(rng.uniform(-3.5, 3.5)))

    def box():
        return OrientedBox(Pose2D(*near(), float(rng.uniform(-0.6, 0.6))),
                           4.6, 1.85)

    agents = tuple(AgentObs(box(), float(rng.uniform(0.0, 12.0)), "lane0")
                   for _ in range(n_agents))
    obstacles = tuple(ObstacleSpec("parked_vehicle", box(), "lane0")
                      for _ in range(n_obstacles))
    peds = tuple(PedestrianObs(near(), (0.0, 0.0), False)
                 for _ in range(n_waiting))
    peds += tuple(PedestrianObs(near(), (float(rng.uniform(-0.5, 0.5)),
                                         float(rng.choice([-1.2, 1.2]))), True)
                  for _ in range(n_crossing))
    return replace(obs, agents=traffic_of(agents), obstacles=obstacles,
                   pedestrians=peds,
                   obstacle_table=ObstacleTable(obs.graph, obstacles))


class TestEgoContacts:
    """The sampler's contact and TTC terms, now answered by
    geometry.box_contacts and geometry.ttc_violations, equal the loops they
    replaced exactly: on random_observation scenes and on crowded scenes
    with no entities, obstacles only, waiting or crossing pedestrians only,
    and everything at once."""

    def test_equals_reference_loops(self):
        planner = SamplingPlanner()
        K = 20
        rng = np.random.default_rng(23)
        scenes = [random_observation(rng, lanes=2 + k % 2) for k in range(20)]
        for counts in [(0, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0),
                       (0, 0, 0, 3), (3, 2, 2, 2)] * 6:
            scenes.append(crowded_observation(rng, *counts))
        n_collided = n_ttc = 0
        for i, obs in enumerate(scenes):
            cands = sampler_evaluate_oracle(planner, obs)[0]
            x, y, heading, v, d = (np.stack([getattr(c, name) for c in cands])
                                   for name in ("x", "y", "heading", "v", "d"))
            world = planner._world_entities(obs)
            collided, off_area = planner._feasibility(obs, world, x, y,
                                                      heading, d, K)
            want_collided, want_off_area = reference_feasibility(
                obs, world, x, y, heading, d, K)
            assert np.array_equal(collided, want_collided), i
            assert np.array_equal(off_area, want_off_area), i
            ttc = planner._ttc_fractions(world, x, y, heading, v, K)
            want_ttc = reference_ttc_fractions(world, x, y, heading, v, K,
                                               TTC_THRESHOLD)
            assert np.array_equal(ttc, want_ttc), i
            n_collided += int(want_collided.any())
            n_ttc += int(want_ttc.any())
        assert n_collided >= 15 and n_ttc >= 15


# ---------------------------------------------------------------------------
# sampler hot path: the obstacle table, the IDM rollout, the window cut


def per_tick_obstacle_extents(obs, lane_id):
    """Reference: lane_scene's former per-tick loop, box_extent of every
    perceived obstacle, as (4, n) columns s_lo, s_hi, d_lo, d_hi."""
    line = obs.graph.lane(lane_id).centerline
    return np.array([box_extent_oracle(line, o.box) for o in obs.obstacles],
                    dtype=float).reshape(-1, 4).T


class TestObstacleTable:
    def test_lane_scene_equals_per_tick_loop(self):
        """On random scenes whose obstacles lie before the lanes' start,
        past their end and beyond the perception radius, lane_scene's
        obstacle columns equal the per-tick box_extent loop bit for bit,
        on every lane and at every ego position, with one table shared by
        the scenario's observations."""
        from drivebench.planners.base import lane_scene

        rng = np.random.default_rng(43)
        n_partial = n_before = n_past = 0
        for trial in range(30):
            lanes = 2 + trial % 2
            kind = ("straight_multilane", "curved")[trial % 3 == 0]
            g = build_base_map(kind, lanes=lanes, length=200.0)
            spec = base_scenario(ScenarioType.LANE_CHANGE_LTD, g, "lane0",
                                 30.0, 10.0, 1)
            line = g.lane("lane0").centerline
            obstacles = []
            for _ in range(int(rng.integers(3, 12))):
                s = float(rng.uniform(-40.0, line.length + 40.0))
                pose = line.interpolate_frenet(
                    min(max(s, 0.0), line.length),
                    float(rng.uniform(-2.0, 3.5 * lanes)))
                if not 0.0 <= s <= line.length:  # along the end tangent
                    h = pose.heading
                    over = s - min(max(s, 0.0), line.length)
                    pose = Pose2D(pose.x + over * math.cos(h),
                                  pose.y + over * math.sin(h), h)
                pose = Pose2D(pose.x, pose.y,
                              pose.heading + float(rng.uniform(-1.0, 1.0)))
                obstacles.append(ObstacleSpec("cone", OrientedBox(
                    pose, float(rng.uniform(0.3, 5.0)),
                    float(rng.uniform(0.3, 2.5))), "lane0"))
            spec = replace(spec, obstacles=tuple(obstacles))
            table = ObstacleTable(spec.graph, spec.obstacles)
            for ego_s in rng.uniform(0.0, line.length, 3):
                world = WorldState(ego=EgoState(
                    pose=line.interpolate_frenet(float(ego_s), 0.0),
                    speed=10.0), agents=traffic_of([]), pedestrians=[])
                obs = build_observation(world, spec, table, 0.0)
                n_partial += 0 < len(obs.obstacles) < len(obstacles)
                for k in range(lanes):
                    scene = lane_scene(obs, f"lane{k}")
                    got = np.array([scene.obstacle_near_s, scene.obstacle_far_s,
                                    scene.obstacle_d_lo, scene.obstacle_d_hi])
                    want = per_tick_obstacle_extents(obs, f"lane{k}")
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (trial, k)
                    n_before += bool((want[1] < 0.0).any())
                    n_past += bool((want[0] > line.length).any())
        assert n_partial >= 20 and n_before >= 10 and n_past >= 10

    def test_lane_scene_hashes_no_obstacle(self, monkeypatch):
        """A construction scene's lane scenes look their 12 cones up
        without one ObstacleSpec.__hash__ call, and read the columns of
        the former lookup, a dict keyed by the ObstacleSpec itself."""
        from drivebench.planners.base import lane_scene
        from drivebench.scenarios import generate_benchmark_suite

        spec = generate_benchmark_suite(2024)[0]
        table = ObstacleTable(spec.graph, spec.obstacles)
        obs = build_observation(WorldState(
            ego=EgoState(pose=spec.ego.pose, speed=spec.ego.speed),
            agents=traffic_of([]), pedestrians=[]), spec, table, 0.0)
        assert len(obs.obstacles) == 12
        row = {o: i for i, o in enumerate(spec.obstacles)}
        want = {lane_id: table.extents(lane_id, spec.obstacles)[
            :, [row[o] for o in obs.obstacles]]
            for lane_id in spec.graph.segments}
        hashed = []
        obstacle_hash = ObstacleSpec.__hash__
        monkeypatch.setattr(ObstacleSpec, "__hash__",
                            lambda o: hashed.append(o) or obstacle_hash(o))
        for lane_id in spec.graph.segments:
            scene = lane_scene(obs, lane_id)
            got = np.array([scene.obstacle_near_s, scene.obstacle_far_s,
                            scene.obstacle_d_lo, scene.obstacle_d_hi])
            assert got.tobytes() == want[lane_id].tobytes(), lane_id
        assert not hashed
        {obs.obstacles[0]: 0}  # the patch does count a hash
        assert len(hashed) == 1

    def test_unknown_obstacle_is_an_error(self):
        from drivebench.planners.base import lane_scene

        obs = crowded_observation(np.random.default_rng(7), 0, 2, 0, 0)
        foreign = replace(obs, obstacles=obs.obstacles[:1] + (ObstacleSpec(
            "cone", OrientedBox(Pose2D(1.0, 2.0, 0.0), 0.4, 0.4), "lane0"),))
        with pytest.raises(KeyError):
            lane_scene(foreign, "lane0")

    @staticmethod
    def assert_equals_former_loops(spec):
        """blocking_spans and every lane's extents equal the two former
        corner loops exactly, float types and signs of zero included."""
        table = ObstacleTable(spec.graph, spec.obstacles)
        assert (repr(sorted(table.blocking_spans.items()))
                == repr(sorted(blocking_spans_oracle(spec).items())))
        for lane_id in spec.graph.segments:
            line = spec.graph.lane(lane_id).centerline
            want = np.array([box_extent_oracle(line, o.box)
                             for o in spec.obstacles]).reshape(-1, 4).T
            got = table.extents(lane_id, spec.obstacles)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), lane_id
            assert table.extents(lane_id, spec.obstacles[::-1]).tobytes() \
                == want[:, ::-1].tobytes()

    def test_equals_former_loops_on_suite(self):
        """On every lane of all 80 seed-2024 scenarios."""
        from drivebench.scenarios import generate_benchmark_suite

        suite = generate_benchmark_suite(2024)
        for spec in suite:
            self.assert_equals_former_loops(spec)
        assert sum(len(spec.obstacles) for spec in suite) > 0
        # no suite corner lies past a lane end, so move two cones of the
        # first construction scenario onto lane0's start and its end
        spec = suite[0]
        line = spec.graph.lane("lane0").centerline
        moved = [replace(o, box=OrientedBox(pose, o.box.length, o.box.width))
                 for o, pose in zip(spec.obstacles, (
                     line.interpolate_frenet(0.0, 0.0),
                     line.interpolate_frenet(line.length, 0.0)))]
        spec = replace(spec, obstacles=tuple(moved) + spec.obstacles[2:])
        self.assert_equals_former_loops(spec)
        extents = ObstacleTable(spec.graph, spec.obstacles).extents(
            "lane0", moved)
        assert extents[0, 0] < 0.0 and extents[1, 1] > line.length
        for o, row in zip(moved, extents.T):
            assert tuple(row) != line.box_extents(o.box)[0]

    SPAN_SPECS = {kind: base_scenario(
        ScenarioType.LANE_CHANGE_LTD,
        build_base_map(kind, lanes=2, length=200.0), "lane0", 30.0, 10.0, 1)
        for kind in ("straight_multilane", "curved")}

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(sorted(SPAN_SPECS)),
           lane_id=st.sampled_from(["lane0", "lane1"]),
           where=st.sampled_from(["before", "past", "straddle_start",
                                  "straddle_end", "inside"]),
           along=st.floats(0.5, 25.0), d=st.floats(-6.0, 6.0),
           turn=st.floats(-1.5, 1.5), length=st.floats(0.3, 12.0),
           width=st.floats(0.3, 3.0))
    def test_equals_former_loops_past_the_ends(self, kind, lane_id, where,
                                               along, d, turn, length,
                                               width):
        """On drawn boxes on straight and curved lanes: wholly before the
        start, wholly past the end, straddling either end and inside,
        where the clamped and extended rows differ."""
        spec = self.SPAN_SPECS[kind]
        line = spec.graph.lane(lane_id).centerline
        reach = math.hypot(length, width) / 2.0
        s = {"before": -reach - along, "past": line.length + reach + along,
             "straddle_start": along % reach, "inside": line.length / 2.0,
             "straddle_end": line.length - along % reach}[where]
        base = line.interpolate_frenet(min(max(s, 0.0), line.length), d)
        over = s - min(max(s, 0.0), line.length)
        h = base.heading
        pose = Pose2D(base.x + over * math.cos(h), base.y + over * math.sin(h),
                      h + turn)
        box = OrientedBox(pose, length, width)
        spec = replace(spec, obstacles=(ObstacleSpec("cone", box, lane_id),))
        self.assert_equals_former_loops(spec)
        clamped, extended = line.box_extents(box)
        if where in ("before", "past"):
            assert clamped != extended
            assert 0.0 <= clamped[0] <= clamped[1] <= line.length
            assert extended[1] < 0.0 or extended[0] > line.length


class TestRollout:
    @staticmethod
    def oracle(v_now, gap0, lead_v, cap):
        """sampler_rollout_oracle on the per-offset leads, clamped and
        repeated per candidate as evaluate once did."""
        from drivebench.planners.sampling import SPEED_FRACTIONS

        n_profiles = len(SPEED_FRACTIONS) + 1
        fractions = np.tile(list(SPEED_FRACTIONS) + [np.nan], len(gap0))
        return sampler_rollout_oracle(
            v_now, np.repeat(np.maximum(gap0, 0.01), n_profiles),
            np.repeat(np.maximum(0.0, lead_v), n_profiles), fractions,
            np.isnan(fractions), cap)

    def test_equals_reference_loop(self):
        """The distinct-row rollout equals the former array rollout bit for
        bit: with leads on some, all or none of the offsets, shared or
        distinct, at gaps below 0.01 m, leads backing up, cap 0 and the
        full-stop rows, from standstill, -0.0 and from speed."""
        from drivebench.planners.sampling import OFFSET_DELTAS, rollouts

        rng = np.random.default_rng(29)
        n = len(OFFSET_DELTAS)
        for trial in range(200):
            v_now = (0.0, -0.0, float(rng.uniform(0.0, 20.0)),
                     float(rng.uniform(0.0, 20.0)))[trial % 4]
            cap = (0.0, float(rng.uniform(1.0, 20.0)))[trial % 5 != 0]
            leads = rng.random(n) < (0.0, 0.5, 1.0)[trial % 3]
            gap0 = np.where(leads, rng.uniform(0.01, 60.0, n), np.inf)
            lead_v = np.where(leads, rng.uniform(-2.0, 15.0, n), 0.0)
            if trial % 7 == 0:
                gap0[leads] = rng.uniform(-1.0, 0.01, leads.sum())
            if trial % 2:  # one lead shared by every offset that has one
                gap0[leads], lead_v[leads] = gap0[leads][:1], lead_v[leads][:1]
            s, v = rollouts(v_now, gap0, lead_v, cap)
            want_s, want_v = self.oracle(v_now, gap0, lead_v, cap)
            assert s.shape == v.shape == want_s.shape
            assert s.tobytes() == want_s.tobytes(), trial
            assert v.tobytes() == want_v.tobytes(), trial

    def test_stop_profile_equals_former_loop(self):
        """The full stop fills its rest once there, with the former loop's
        bits: from rest, -0.0, negative and NaN speeds, from speeds that
        reach 0 exactly on a sample, and from speeds that never stop."""
        from drivebench.planners.base import STEP
        from drivebench.planners.sampling import STOP_DECEL, _stop_profile

        rng = np.random.default_rng(37)
        speeds = ([0.0, -0.0, -1.0, math.nan, 1e-300, math.inf, 40.0]
                  + [k * STOP_DECEL * STEP for k in range(40)]
                  + rng.uniform(0.0, 30.0, 500).tolist())
        for v_now in speeds:
            got, want = _stop_profile(v_now), stop_profile_oracle(v_now)
            assert all(type(x) is float for row in got for x in row)
            assert ([np.array(r).tobytes() for r in got]
                    == [np.array(r).tobytes() for r in want]), v_now

    def test_equals_reference_loop_on_scenes(self, monkeypatch):
        """On random scenes the rollout of every evaluate call equals the
        former array rollout over all 30 candidates: scenes whose offsets
        all see one lead, see none, and see different leads."""
        from drivebench.planners import sampling
        from drivebench.planners.base import N_SAMPLES

        rollouts, calls = sampling.rollouts, []

        def recorded(*args):
            calls.append((args, rollouts(*args)))
            return calls[-1][1]

        monkeypatch.setattr(sampling, "rollouts", recorded)
        rng = np.random.default_rng(31)
        kinds = set()
        for _ in range(60):
            SamplingPlanner().evaluate(random_observation(rng))
        for (v_now, gap0, lead_v, cap), (s, v) in calls:
            want_s, want_v = self.oracle(v_now, gap0, lead_v, cap)
            assert s.shape == (30, N_SAMPLES)
            assert s.tobytes() == want_s.tobytes()
            assert v.tobytes() == want_v.tobytes()
            finite = np.isfinite(gap0)
            kinds.add("none" if not finite.any() else
                      "one" if len(set(zip(gap0, lead_v))) == 1 else "mixed")
        assert kinds == {"none", "one", "mixed"}


@st.composite
def stalled_turning_paths(draw):
    """(x, y, tangent) rows of 3..30 samples whose steps stall (zero or
    sub-micrometre), creep by a millimetre or move up to 3 m, each with a
    heading change of up to about pi: steps that trip path_headings'
    curvature guard, stalls it fills forward, and fully stalled rows."""
    n = draw(st.integers(3, 30))
    step = st.one_of(st.sampled_from([0.0, 1e-7, 1e-3, 0.05]),
                     st.floats(0.0, 3.0))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()) and draw(st.booleans()):
            lengths = np.zeros(n - 1)
        else:
            lengths = np.array(draw(st.lists(step, min_size=n - 1,
                                             max_size=n - 1)))
        turns = np.array(draw(st.lists(st.floats(-3.2, 3.2),
                                       min_size=n - 1, max_size=n - 1)))
        h = draw(st.floats(-math.pi, math.pi)) + np.cumsum(turns)
        x = np.concatenate(([0.0], np.cumsum(lengths * np.cos(h))))
        y = np.concatenate(([0.0], np.cumsum(lengths * np.sin(h))))
        rows.append((x, y))
    x = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    tangent = np.array(draw(st.lists(st.floats(-math.pi, math.pi),
                                     min_size=x.size, max_size=x.size))
                       ).reshape(x.shape)
    return x, y, tangent


class TestPathHeadingsWindow:
    @settings(max_examples=300, deadline=None)
    @given(paths=stalled_turning_paths(), data=st.data())
    def test_prefix_stable(self, paths, data):
        """The first K + 1 columns of path_headings on a K + 2 sample
        window equal those of the full computation."""
        from drivebench.planners.base import path_headings

        x, y, tangent = paths
        K = data.draw(st.integers(1, x.shape[1] - 2))
        full = path_headings(x, y, tangent)
        window = path_headings(x[:, :K + 2], y[:, :K + 2], tangent[:, :K + 2])
        assert window[:, :K + 1].tobytes() == full[:, :K + 1].tobytes()


def reference_world_entities(obs):
    """Reference: the sampler's former entity packing, seven arrays."""
    px, py, vx, vy, hh, ll, ww = [], [], [], [], [], [], []
    for a in agent_obs(obs.agents):
        px.append(a.box.center.x)
        py.append(a.box.center.y)
        vx.append(a.speed * math.cos(a.box.center.heading))
        vy.append(a.speed * math.sin(a.box.center.heading))
        hh.append(a.box.center.heading)
        ll.append(a.box.length)
        ww.append(a.box.width)
    for o in obs.obstacles:
        px.append(o.box.center.x)
        py.append(o.box.center.y)
        vx.append(0.0)
        vy.append(0.0)
        hh.append(o.box.center.heading)
        ll.append(o.box.length)
        ww.append(o.box.width)
    for p in obs.pedestrians:
        px.append(p.position[0])
        py.append(p.position[1])
        vx.append(p.velocity[0])
        vy.append(p.velocity[1])
        hh.append(math.atan2(p.velocity[1], p.velocity[0])
                  if p.crossing else 0.0)
        ll.append(0.6)
        ww.append(0.6)
    return [np.asarray(v, dtype=float) for v in (px, py, vx, vy, hh, ll, ww)]


def full_array_evaluate(planner, obs, behavior):
    """Reference: SamplingPlanner.evaluate before the window cut. It builds
    all N_SAMPLES samples of every candidate's path, integrates with
    sampler_rollout_oracle and packs entities with reference_world_entities.
    Returns the selected index, its Trajectory and the candidates' full
    (C, N_SAMPLES) arrays by name."""
    from drivebench.geometry import wrap_angle
    from drivebench.planners.base import (N_SAMPLES, STEP, lane_scene,
                                          nearest_lead, path_headings)
    from drivebench.planners.sampling import (OFFSET_DELTAS, SPEED_FRACTIONS,
                                              Candidate, lateral_profile)

    lane = obs.graph.lane(behavior.centerline)
    line, limit = lane.centerline, lane.speed_limit
    cap = (min(limit, behavior.target_speed_cap)
           if behavior.target_speed_cap > 0 else 0.0)
    scene = lane_scene(obs, behavior.centerline)
    s0, d0 = scene.ego.s, scene.ego.d
    v_now = obs.ego_speed
    tangent0 = line.tangent_at(min(max(s0, 0.0), line.length))
    slope0 = float(np.clip(math.tan(
        wrap_angle(obs.ego_box.center.heading - tangent0)), -0.6, 0.6))
    n_profiles = len(SPEED_FRACTIONS) + 1
    deltas = np.repeat(OFFSET_DELTAS, n_profiles)
    fractions = np.tile(list(SPEED_FRACTIONS) + [np.nan], len(OFFSET_DELTAS))
    stop_mask = np.isnan(fractions)
    offsets = behavior.lateral_offset + np.asarray(OFFSET_DELTAS)
    targets = np.repeat(offsets, n_profiles)
    span = max(2.0 * max(v_now, 0.1), 10.0)
    front0 = s0 + VEHICLE_LENGTH / 2.0
    lead_s, lead_v = nearest_lead(scene, front0, lambda s: lateral_profile(
        d0, slope0, offsets, np.maximum(s - s0, 0.0), span))
    gap0 = np.repeat(np.maximum(lead_s - front0, 0.01), n_profiles)
    v_lead = np.repeat(np.maximum(0.0, lead_v), n_profiles)
    s_rel, v = sampler_rollout_oracle(v_now, gap0, v_lead, fractions,
                                      stop_mask, cap)
    d = lateral_profile(d0, slope0, targets, s_rel, span)
    s_abs = s0 + s_rel
    x, y, tangent = line.interpolate_many(s_abs, d)
    heading = path_headings(x, y, tangent)
    K = min(int(round(EVAL_HORIZON / STEP)), N_SAMPLES - 1)
    world = reference_world_entities(obs)
    collided, off_area = planner._feasibility(obs, world, x, y, heading, d, K)
    ttc_frac = planner._ttc_fractions(world, x, y, heading, v, K)
    progress = s_rel[:, -1].copy()
    prog_norm = progress / max(limit * (N_SAMPLES - 1) * STEP, 1e-6)
    comfort = (np.abs(np.diff(v[:, : K + 1], axis=1)) / STEP).mean(axis=1) / 4.0
    cost = (TTC_WEIGHT * ttc_frac + OFFSET_WEIGHT * np.abs(deltas)
            + COMFORT_WEIGHT * comfort - PROGRESS_WEIGHT * prog_norm)
    cands = [Candidate(
        delta=float(deltas[ci]),
        fraction=None if stop_mask[ci] else float(fractions[ci]),
        target_offset=float(targets[ci]), s=s_abs[ci], d=d[ci], v=v[ci],
        x=x[ci], y=y[ci], heading=heading[ci],
        feasible=not (collided[ci] or off_area[ci]),
        progress=float(progress[ci]), comfort=float(comfort[ci]),
        cost=float(cost[ci]))
        for ci in range(len(deltas))]
    best = SamplingPlanner.select_index(cands)
    traj = Trajectory(np.arange(N_SAMPLES) * STEP, x[best], y[best],
                      heading[best], v[best])
    return best, traj, dict(s=s_abs, v=v, d=d, x=x, y=y, heading=heading)


def sampler_behavior(obs, label, offset=0.0):
    """One of the behaviours the hybrid planner hands the sampler on
    random_observation's lanes: follow lane0, merge into lane1, overtake
    at the given offset, or stop (a speed cap of 0)."""
    limit = obs.graph.lane("lane0").speed_limit
    return {
        "follow_lane": BehaviorOption("follow_lane", "lane0", 0.0, limit),
        "merge_left": BehaviorOption("merge_left", "lane1", 0.0, limit),
        "overtake_obstacle": BehaviorOption("overtake_obstacle", "lane0",
                                            offset, limit),
        "stop_and_wait": BehaviorOption("stop_and_wait", "lane0", 0.0,
                                        0.0)}[label]


class TestSamplerWindow:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), lanes=st.integers(2, 3),
           label=st.sampled_from(["follow_lane", "merge_left",
                                  "overtake_obstacle", "stop_and_wait"]),
           offset=st.sampled_from([-2.3, -0.6, 1.6]))
    def test_plan_equals_full_array_row(self, seed, lanes, label, offset):
        """On random observations and behaviours, the selected plan is a
        valid 8 s Trajectory equal to the selected row of the full-array
        evaluate. The window arrays of every candidate the planner checked,
        and of all 30 in the exhaustive oracle, are the first K + 1 samples
        of its full row; every candidate's s and v are the full rows."""
        from drivebench.planners.base import N_SAMPLES

        obs = random_observation(np.random.default_rng(seed), lanes=lanes)
        behavior = sampler_behavior(obs, label, offset)
        planner = SamplingPlanner()
        cands, best, traj = planner.evaluate(obs, behavior)
        want_best, want_traj, rows = full_array_evaluate(planner, obs,
                                                         behavior)
        for got, want in zip(planner._world_entities(obs),
                             reference_world_entities(obs)):
            assert got.tobytes() == want.tobytes()
        assert best == want_best
        assert len(traj.t) == N_SAMPLES and trajectories_equal(traj, want_traj)
        Trajectory(traj.t, traj.x, traj.y, traj.heading, traj.speed)
        assert trajectories_equal(planner.plan(obs, behavior), traj)
        checked = [i for i, c in enumerate(cands) if c.checked]
        oracle = sampler_evaluate_oracle(planner, obs, behavior)[0]
        K = len(oracle[0].x) - 1
        assert K == 20
        for name, full in rows.items():
            want = full if name in ("s", "v") else full[:, :K + 1]
            got = np.stack([getattr(c, name) for c in oracle])
            assert got.tobytes() == want.tobytes(), name
            live = range(len(cands)) if name in ("s", "v") else checked
            got = np.stack([getattr(cands[i], name) for i in live])
            assert got.tobytes() == want[list(live)].tobytes(), name


def all_infeasible_observation():
    """One lane blocked by a 3.4 m wide parked vehicle centred 8 m ahead of
    the ego: every candidate collides or leaves the area."""
    spec = empty_road_spec(lanes=1)
    lane = spec.graph.lane("lane0")
    pose = lane.centerline.interpolate_frenet(48.0, 0.0)
    spec = replace(spec, obstacles=(
        ObstacleSpec("parked_vehicle", OrientedBox(pose, 4.6, 3.4), "lane0"),))
    return make_obs(spec, ego_speed=10.0)


class TestSamplingPlanner:
    def test_empty_road_full_speed_zero_offset(self):
        spec = empty_road_spec(lanes=1)
        obs = make_obs(spec, ego_speed=10.0)
        planner = SamplingPlanner()
        cands, best, _ = planner.evaluate(obs)
        chosen = cands[best]
        assert chosen.delta == 0.0
        assert chosen.fraction == 1.0

    def test_nudge_prefers_positive_offset(self):
        g = build_base_map("straight_multilane", lanes=1, length=450.0)
        spec = base_scenario(ScenarioType.NUDGE, g, "lane0", 30.0, 10.0, 1)
        spec = place_parked_vehicle(spec, "nudge", at_s=95.0, encroachment=1.4)
        ego_pose = g.lane("lane0").centerline.interpolate_frenet(65.0, 0.0)
        obs = make_obs(spec, ego_pose=ego_pose, ego_speed=10.0)
        cands, best, _ = SamplingPlanner().evaluate(obs)
        chosen = cands[best]
        assert chosen.delta in (0.5, 1.0)

    def test_crossing_pedestrian_forces_slowdown(self):
        from drivebench.agents import PedestrianState
        spec = empty_road_spec(lanes=1)
        # crossing pedestrian reaching the lane in about 1.5 s at ego speed
        path = Polyline([[55.0, -2.6], [55.0, 2.6]])
        ped = PedestrianState(path=path, walk_speed=1.2, trigger_distance=50.0,
                              lane="lane0", phase="crossing", dist_along=1.2)
        obs = make_obs(spec, ego_speed=10.0, pedestrians=[ped])
        cands, best, _ = SamplingPlanner().evaluate(obs)
        chosen = cands[best]
        assert chosen.fraction is None or chosen.fraction <= 0.4

    def test_all_infeasible_full_stop_at_zero_delta(self):
        obs = all_infeasible_observation()
        cands, best, _ = SamplingPlanner().evaluate(obs)
        chosen = cands[best]
        assert all(c.checked for c in cands)
        assert not any(c.feasible for c in cands)
        assert chosen.delta == 0.0 and chosen.fraction is None

    def test_candidate_count_is_thirty(self):
        spec = empty_road_spec()
        obs = make_obs(spec)
        cands, _, _ = SamplingPlanner().evaluate(obs)
        assert len(cands) == 30
        deltas = {c.delta for c in cands}
        assert deltas == {-1.0, -0.5, 0.0, 0.5, 1.0}

    def test_deterministic(self):
        spec = empty_road_spec()
        agents = [make_agent(spec.graph, "lane0", 90.0, 6.0)]
        obs = make_obs(spec, agents=agents)
        planner = SamplingPlanner()
        assert trajectories_equal(planner.plan(obs), planner.plan(obs))

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(11)
        planner = SamplingPlanner()
        agree = 0
        for trial in range(25):
            obs = random_observation(rng)
            _, fast, _ = planner.evaluate(obs)
            slow = sampling_oracle_select(planner, obs)
            assert fast == slow, f"trial {trial}: fast={fast} oracle={slow}"
            agree += 1
        assert agree == 25

    def test_never_selects_at_fault_candidate_when_feasible_exists(self):
        rng = np.random.default_rng(23)
        planner = SamplingPlanner()
        for _ in range(40):
            obs = random_observation(rng)
            _, best, _ = planner.evaluate(obs)
            cands = sampler_evaluate_oracle(planner, obs)[0]
            if any(c.feasible for c in cands):
                assert cands[best].feasible

    def test_within_time_budget(self):
        spec = empty_road_spec(lanes=2)
        agents = [make_agent(spec.graph, "lane1", 60.0 + 10 * i, 7.0)
                  for i in range(12)]
        obs = make_obs(spec, agents=agents)
        planner = SamplingPlanner()
        planner.plan(obs)
        t0 = time.perf_counter()
        planner.plan(obs)
        assert time.perf_counter() - t0 < 0.1


# ---------------------------------------------------------------------------
# the certified evaluation against the exhaustive one


def same_bits(a, b) -> bool:
    """Whether two Candidate or Trajectory field values are equal bit for
    bit: arrays in dtype, shape and bytes, floats in their bytes, the rest
    in type and value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


def assert_matches_oracle(planner, obs, behavior, result) -> int:
    """Check one evaluate result against the exhaustive oracle: the same
    index and trajectory bit for bit; every checked candidate equal to the
    oracle's in every field; every unchecked one with the oracle's cheap
    terms, the oracle's cost at a TTC fraction of 0 as its cost (its bound,
    at most its exact cost), no safety terms, and a bound key above the
    chosen key. Returns how many candidates were checked (1 or all) and
    the index of the least-bound candidate, the one checked first."""
    from drivebench.planners.sampling import Candidate

    cands, best, traj = result
    want, want_best, want_traj, bound = sampler_evaluate_oracle(
        planner, obs, behavior)
    assert best == want_best
    for name in ("t", "x", "y", "heading", "speed"):
        assert same_bits(getattr(traj, name), getattr(want_traj, name)), name
    assert len(cands) == len(want) == len(bound)

    def key(c, i):
        return c.cost, abs(c.target_offset), -c.progress, i

    cheap = ("delta", "fraction", "target_offset", "s", "v", "progress",
             "comfort")
    every = [f.name for f in fields(Candidate)]
    for i, (c, w) in enumerate(zip(cands, want)):
        for name in every if c.checked else cheap:
            assert same_bits(getattr(c, name), getattr(w, name)), (i, name)
        if not c.checked:
            assert same_bits(c.cost, float(bound[i])), i
            assert c.cost <= w.cost and key(c, i) > key(cands[best], best), i
            assert all(getattr(c, name) is None for name in (
                "d", "x", "y", "heading", "feasible", "collided", "off_area"))
            assert math.isnan(c.ttc_fraction)
    n_checked = sum(c.checked for c in cands)
    assert n_checked in (1, len(cands)) and cands[best].checked
    first = min(range(len(want)), key=lambda i: (
        bound[i], abs(want[i].target_offset), -want[i].progress, i))
    assert cands[first].checked
    return n_checked, first


def random_behavior_scenes(seed, n):
    """n scenes with a behaviour each: random_observation scenes on 2 or 3
    lanes with a behaviour drawn from those sampler_behavior offers, and
    crowded_observation scenes, whose entities close to the ego make TTC
    violations common, with the default behaviour."""
    rng = np.random.default_rng(seed)
    labels = ["follow_lane", "merge_left", "overtake_obstacle",
              "stop_and_wait"]
    for trial in range(n):
        if trial % 3 == 2:
            yield crowded_observation(rng, *rng.integers(0, 4, 4)), None
            continue
        obs = random_observation(rng, lanes=2 + trial % 2)
        yield obs, sampler_behavior(obs, labels[trial % 4],
                                    float(rng.choice([-2.3, -0.6, 1.6])))


class TestCertifiedEvaluate:
    """SamplingPlanner.evaluate checks candidates only until its choice is
    certified; conftest's sampler_evaluate_oracle checks all 30."""

    @pytest.mark.parametrize("name", ["sampler", "hybrid-scripted"])
    def test_every_tick_of_suite_scenarios(self, monkeypatch, name):
        """At every tick of construction 0 and 3 and of the first scenario
        of every other family; both the certified first check and the
        second batch occur."""
        from drivebench.planners import sampling
        from drivebench.scenarios import generate_benchmark_suite

        evaluate = sampling.SamplingPlanner.evaluate
        n_checked, failures = [], []

        def compared(planner, obs, behavior=None):
            result = evaluate(planner, obs, behavior)
            try:
                n_checked.append(assert_matches_oracle(planner, obs, behavior,
                                                       result)[0])
            except AssertionError as e:  # plan_with_fallback would brake
                failures.append(f"t={obs.time}: {e!r}")
            return result

        monkeypatch.setattr(sampling.SamplingPlanner, "evaluate", compared)
        # every tick plans: a world at rest is not replayed
        monkeypatch.setattr(sampling.SamplingPlanner, "memoryless", False)
        suite = generate_benchmark_suite(2024)
        specs = [suite[0], suite[3]] + suite[10::10]
        assert len({spec.type for spec in specs}) == len(ScenarioType)
        for spec in specs:
            trace = run_closed_loop(spec, make_planner(name))
            assert not [e for e in trace.events
                        if e["kind"] == "planner_fallback"], spec.seed
        assert not failures, failures[:3]
        assert len(n_checked) == 150 * len(specs)
        assert n_checked.count(1) > 0.9 * len(n_checked)
        assert n_checked.count(30) > 0

    def test_random_scenes(self):
        planner = SamplingPlanner()
        n_checked = [assert_matches_oracle(planner, obs, behavior,
                                           planner.evaluate(obs, behavior))[0]
                     for obs, behavior in random_behavior_scenes(47, 90)]
        assert n_checked.count(1) >= 40 and n_checked.count(30) >= 10

    def test_infeasible_least_bound_forces_second_batch(self):
        """On one lane, an overtaking offset of 2.4 m puts the least-bound
        candidate (the behaviour's own offset at full speed) off the
        drivable area: all 30 are checked, and a feasible one is chosen."""
        obs = make_obs(empty_road_spec(lanes=1), ego_speed=10.0)
        behavior = BehaviorOption("overtake_obstacle", "lane0", 2.4, 13.9)
        planner = SamplingPlanner()
        cands, best, traj = planner.evaluate(obs, behavior)
        n_checked, first = assert_matches_oracle(planner, obs, behavior,
                                                 (cands, best, traj))
        assert n_checked == 30
        assert cands[first].off_area and not cands[first].feasible
        assert cands[best].feasible and best != first

    def test_all_infeasible_checks_all(self):
        obs = all_infeasible_observation()
        planner = SamplingPlanner()
        result = planner.evaluate(obs)
        assert assert_matches_oracle(planner, obs, None, result)[0] == 30
        cands, best, _ = result
        assert not any(c.feasible for c in cands)
        assert cands[best].fraction is None and cands[best].delta == 0.0

    def test_ttc_weight_zero(self, monkeypatch):
        """With TTC_WEIGHT 0, every cost equals its bound, so the least
        bound candidate is certified by the tie-breaks whenever it is
        feasible."""
        from drivebench.planners import sampling

        monkeypatch.setattr(sampling, "TTC_WEIGHT", 0.0)
        planner = SamplingPlanner()
        n_ttc = 0
        for obs, behavior in random_behavior_scenes(53, 45):
            cands, best, traj = planner.evaluate(obs, behavior)
            n_checked, first = assert_matches_oracle(planner, obs, behavior,
                                                     (cands, best, traj))
            want, _, _, bound = sampler_evaluate_oracle(planner, obs, behavior)
            assert all(same_bits(w.cost, float(b))
                       for w, b in zip(want, bound))
            assert (n_checked == 1) == cands[first].feasible
            n_ttc += any(w.ttc_fraction > 0 for w in want)
        assert n_ttc >= 5

    def test_tie_breaks_alone(self, monkeypatch):
        """With every cost weight 0, every cost and bound is 0, so the
        absolute target offset, the progress and the index alone order the
        candidates; a stop behaviour (speed cap 0) gives the five speed
        profiles of each offset one rollout, so they tie up to the index."""
        from drivebench.planners import sampling

        for weight in ("TTC_WEIGHT", "OFFSET_WEIGHT", "COMFORT_WEIGHT",
                       "PROGRESS_WEIGHT"):
            monkeypatch.setattr(sampling, weight, 0.0)
        planner = SamplingPlanner()
        rng = np.random.default_rng(59)
        n_checked = []
        for trial in range(20):
            obs = random_observation(rng)
            behavior = sampler_behavior(
                obs, ("stop_and_wait", "overtake_obstacle")[trial % 2], -0.6)
            n_checked.append(assert_matches_oracle(
                planner, obs, behavior, planner.evaluate(obs, behavior))[0])
        assert n_checked.count(1) >= 10


# ---------------------------------------------------------------------------
# behavior enumeration + hybrid


class TestEnumerateBehaviors:
    def test_rightmost_of_two_lanes(self):
        spec = empty_road_spec(lanes=2)
        obs = make_obs(spec)
        labels = [o.label for o in enumerate_behaviors(obs)]
        assert labels == ["follow_lane", "merge_left", "stop_and_wait"]

    def test_clear_lane_offers_no_overtake(self):
        spec = empty_road_spec(lanes=1)
        obs = make_obs(spec)
        labels = {o.label for o in enumerate_behaviors(obs)}
        assert "overtake_obstacle" not in labels

    def test_blocked_two_way_lane_offers_wide_overtake(self):
        g = build_base_map("two_way", lanes=1, length=450.0)
        spec = base_scenario(ScenarioType.OVERTAKE, g, "lane0", 30.0, 10.0, 1)
        spec = place_parked_vehicle(spec, "overtake", at_s=80.0)
        obs = make_obs(spec)
        over = [o for o in enumerate_behaviors(obs) if o.label == "overtake_obstacle"]
        assert len(over) == 1
        assert abs(over[0].lateral_offset) > 3.5 / 2.0
        assert over[0].obstacle_far_s is not None

    def test_option_invariants(self):
        with pytest.raises(ValueError):
            BehaviorOption("overtake_obstacle", "lane0", 0.0, 10.0)
        with pytest.raises(ValueError):
            BehaviorOption("stop_and_wait", "lane0", 0.0, 5.0)
        with pytest.raises(ValueError):
            BehaviorOption("wander", "lane0", 0.0, 5.0)


class CountingSelector:
    def __init__(self, label="follow_lane"):
        self.label = label
        self.calls = 0

    def select(self, obs, options):
        self.calls += 1
        from drivebench.llm import SelectorResponse
        return SelectorResponse(self.label)


class ExplodingSelector:
    def select(self, obs, options):
        raise RuntimeError("no llm here")


class TestHybridPlanner:
    def test_one_query_per_second(self):
        spec = empty_road_spec()
        selector = CountingSelector()
        planner = HybridBehaviorPlanner(selector)
        for k in range(10):
            planner.plan(make_obs(spec, t=k * 0.1))
        assert selector.calls == 1
        assert planner.query_count == 1

    def test_query_count_equals_ceil_duration(self):
        spec = empty_road_spec()
        selector = CountingSelector()
        planner = HybridBehaviorPlanner(selector)
        t, dt = 0.0, 0.1
        while t < 15.0 - 1e-9:
            planner.plan(make_obs(spec, t=t))
            t += dt
        assert planner.query_count == 15

    def test_query_count_independent_of_tick_rate(self):
        spec = empty_road_spec()
        for dt in (0.1, 0.2, 0.5):
            selector = CountingSelector()
            planner = HybridBehaviorPlanner(selector)
            t = 0.0
            while t < 8.0 - 1e-9:
                planner.plan(make_obs(spec, t=round(t, 6)))
                t += dt
            assert planner.query_count == 8, f"dt={dt}"

    def test_merge_left_conditions_candidates_on_neighbor(self):
        spec = empty_road_spec(lanes=2)
        planner = HybridBehaviorPlanner(CountingSelector("merge_left"))
        traj = planner.plan(make_obs(spec))
        # candidates centered on the left neighbor: trajectory converges
        # toward y = 3.5
        assert traj.y[-1] > 2.0

    def test_garbage_selector_behaves_as_follow_lane(self):
        spec = empty_road_spec()
        hybrid = HybridBehaviorPlanner(ExplodingSelector())
        follow = SamplingPlanner()
        obs = make_obs(spec)
        assert trajectories_equal(hybrid.plan(obs), follow.plan(obs))

    def test_selector_failures_are_recorded(self):
        spec = empty_road_spec()
        for selector, error, message in [
                (ExplodingSelector(), "RuntimeError", "no llm here"),
                (CountingSelector("overtake_obstacle"), "ValueError",
                 "label 'overtake_obstacle' was not offered")]:
            planner = HybridBehaviorPlanner(selector)
            for k in range(12):
                planner.plan(make_obs(spec, t=k * 0.1))
            failures = [e for e in planner.drain_events()
                        if e["kind"] == "selector_failure"]
            assert failures == [
                {"kind": "selector_failure", "time": t, "error": error,
                 "message": message} for t in (0.0, 1.0)]

    def test_scripted_selector_network_free(self):
        g = build_base_map("two_way", lanes=1, length=450.0)
        spec = base_scenario(ScenarioType.OVERTAKE, g, "lane0", 30.0, 10.0, 1)
        spec = place_parked_vehicle(spec, "overtake", at_s=80.0)
        planner = HybridBehaviorPlanner(ScriptedSelector())
        planner.plan(make_obs(spec))
        events = planner.drain_events()
        assert any(e["kind"] == "behavior_switch" and e["to"] == "overtake_obstacle"
                   for e in events)


class TestSharedLaneScene:
    def test_query_tick_projects_like_other_ticks(self, monkeypatch):
        """The behavior filter, the scripted selector and the sampler share
        one projected scene of the ego lane, and the cones are projected
        once per scenario. On 000_construction the obstacle table runs the
        corner kernel once per lane and cone before the first tick, and no
        tick runs it again. No planning call makes a project or
        project_extended call: the ego's point extends the observation's
        frame entry, which build_observation made for the route lane. That
        holds on the first tick, at t = 1.0 s on a tick that queries the
        selector, and on the tick after it."""
        from drivebench.scenarios import generate_benchmark_suite

        spec = replace(generate_benchmark_suite(2024)[0], duration=1.2)
        assert spec.type is ScenarioType.CONSTRUCTION and not spec.agents
        calls, kernel = [], []
        project, project_extended = Polyline.project, Polyline.project_extended
        box_extents = Polyline.box_extents

        def counted(self, point):
            calls.append(point)
            return project_extended(self, point)

        def counted_clamped(self, point):
            calls.append(point)
            return project(self, point)

        def counted_kernel(self, box):
            kernel.append(box)
            return box_extents(self, box)

        monkeypatch.setattr(Polyline, "project_extended", counted)
        monkeypatch.setattr(Polyline, "project", counted_clamped)
        monkeypatch.setattr(Polyline, "box_extents", counted_kernel)
        hybrid = HybridBehaviorPlanner(ScriptedSelector())
        ticks = {}
        kernel_at_start = []

        class Counting:
            def plan(self, obs):
                if not ticks:
                    kernel_at_start.append(len(kernel))
                assert obs.ego_lane in obs.frame
                start, kernel_start = len(calls), len(kernel)
                traj = hybrid.plan(obs)
                ticks[round(obs.time, 1)] = (len(calls) - start,
                                             len(kernel) - kernel_start,
                                             len(obs.obstacles),
                                             hybrid.query_count)
                return traj

        run_closed_loop(spec, Counting())
        assert kernel_at_start == [len(spec.graph.segments) * 12]
        assert len(kernel) == kernel_at_start[0]
        assert ticks[0.0] == (0, 0, 12, 1)
        assert ticks[1.0] == (0, 0, 12, 2)
        assert ticks[1.1] == (0, 0, 12, 2)


class TestWaypointsPlanner:
    def test_straight_waypoints_advance_80m(self):
        spec = empty_road_spec(lanes=1)
        obs = make_obs(spec, ego_speed=10.0)

        def client(prompt):
            pts = ", ".join(f"({5.0 * (i + 1):.1f}, 0.0)" for i in range(16))
            return f"Obviously I drive straight ahead. Waypoints: {pts}"

        traj = WaypointsLlmPlanner(client).plan(obs)
        dist = math.hypot(traj.x[-1] - traj.x[0], traj.y[-1] - traj.y[0])
        assert dist == pytest.approx(80.0, abs=1.0)
        assert np.all(np.abs(traj.speed - 10.0) < 1.5)

    def test_empty_response_brakes(self):
        spec = empty_road_spec(lanes=1)
        obs = make_obs(spec, ego_speed=10.0)
        planner = WaypointsLlmPlanner(lambda prompt: "")
        events = []
        traj = plan_with_fallback(planner, obs, events)
        assert traj.speed[-1] == 0.0
        assert [(e["kind"], e["error"]) for e in events] == [
            ("planner_fallback", "MalformedTrajectory")]
        # the query is recorded before its response is parsed
        assert [e["response"] for e in planner.drain_events()] == [""]

    def test_unparsable_kinematics_brake(self):
        spec = empty_road_spec(lanes=1)
        obs = make_obs(spec, ego_speed=10.0)
        # wild zigzag violating the curvature bound must fall back
        def client(prompt):
            pts = ", ".join(f"({2.0 * (i + 1):.1f}, {5.0 * (-1) ** i:.1f})"
                            for i in range(16))
            return pts
        events = []
        traj = plan_with_fallback(WaypointsLlmPlanner(client), obs, events)
        assert traj.speed[-1] == 0.0
        assert [(e["kind"], e["error"]) for e in events] == [
            ("planner_fallback", "ValueError")]
        assert "curvature" in events[0]["message"]

    def test_scipy_loads_on_first_plan(self):
        """Importing drivebench.cli leaves scipy.interpolate unloaded; the
        planner's first plan loads it and returns the spline trajectory."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import drivebench

        code = (
            "import sys; import drivebench.cli; "
            "assert 'scipy.interpolate' not in sys.modules, 'loaded on import'; "
            "from drivebench.planners import WaypointsLlmPlanner; "
            "from test_planners import empty_road_spec, make_obs; "
            "obs = make_obs(empty_road_spec(lanes=1), ego_speed=10.0); "
            "pts = ', '.join(f'({5.0 * (i + 1):.1f}, 0.0)' for i in range(16)); "
            "traj = WaypointsLlmPlanner(lambda prompt: pts).plan(obs); "
            "assert 'scipy.interpolate' in sys.modules; "
            "print(round(float(traj.x[-1] - traj.x[0]), 3))")
        src = str(Path(drivebench.__file__).resolve().parent.parent)
        tests = str(Path(__file__).resolve().parent)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests))),
            check=True)
        assert float(out.stdout.split()[-1]) == pytest.approx(80.0, abs=1.0)


class TestRegistry:
    def test_known_names(self):
        for name in ("idm", "mobil", "sampler", "hybrid-scripted"):
            planner = make_planner(name)
            assert hasattr(planner, "plan")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_planner("does-not-exist")
