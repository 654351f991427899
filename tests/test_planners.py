import math
import time
from dataclasses import replace

import numpy as np
import pytest

from drivebench.agents import IdmParams, VEHICLE_LENGTH, VEHICLE_WIDTH
from drivebench.geometry import OrientedBox, Polyline, Pose2D, boxes_collide
from drivebench.llm import ScriptedSelector
from drivebench.planners import (
    BehaviorOption,
    HybridBehaviorPlanner,
    IdmMobilPlanner,
    IdmPlanner,
    SamplingPlanner,
    WaypointsLlmPlanner,
    enumerate_behaviors,
    fallback_brake_trajectory,
    make_planner,
    mobil_decide,
    plan_with_fallback,
)
from drivebench.planners.mobil_planner import MobilParams
from drivebench.scenarios import (
    ObstacleSpec,
    ScenarioType,
    base_scenario,
    blocking_spans,
    build_base_map,
    place_parked_vehicle,
)
from drivebench.simulation import SimConfig, WorldState, EgoState, build_observation
from drivebench.agents import make_agent


def make_obs(spec, ego_pose=None, ego_speed=None, agents=(), pedestrians=(),
             t=0.0):
    ego = EgoState(pose=ego_pose or spec.ego.pose,
                   speed=spec.ego.speed if ego_speed is None else ego_speed)
    world = WorldState(ego=ego, agents=list(agents), pedestrians=list(pedestrians))
    return build_observation(world, spec, blocking_spans(spec), t, SimConfig())


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
        lead = make_agent(spec.graph, "lane0", 75.0, 5.0,
                          params=IdmParams(v0=5.0))
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
        assert a.equals(b)

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


class FailingPlanner:
    name = "boom"

    def plan(self, obs):
        raise RuntimeError("forced test failure")


class TestPlanContract:
    def test_fallback_on_internal_error(self):
        spec = empty_road_spec()
        obs = make_obs(spec, ego_speed=10.0)
        traj = plan_with_fallback(FailingPlanner(), obs)
        assert traj.speed[0] == pytest.approx(10.0)
        assert traj.speed[-1] == 0.0

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
        assert mobil_decide(obs, MobilParams()) is None

    def test_escape_from_stopped_lead(self):
        spec = self.make_spec()
        blocker = make_agent(spec.graph, "lane0", 40.0 + 2.3 + 20.0 + 2.3, 0.0)
        obs = make_obs(spec, ego_speed=10.0, agents=[blocker])
        assert mobil_decide(obs, MobilParams()) == "lane1"

    def test_safety_veto(self):
        spec = self.make_spec()
        blocker = make_agent(spec.graph, "lane0", 40.0 + 25.0, 0.0)
        follower = make_agent(spec.graph, "lane1", 40.0 - 7.0, 13.5)
        obs = make_obs(spec, ego_speed=10.0, agents=[blocker, follower])
        # imposed braking on the fast close follower exceeds b_safe = 4
        assert mobil_decide(obs, MobilParams()) is None

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
        assert mobil_decide(obs_l, MobilParams()) == "lane2"
        assert mobil_decide(obs_r, MobilParams()) == "lane0"

    def test_two_tick_abort(self):
        spec = self.make_spec()
        blocker = make_agent(spec.graph, "lane0", 40.0 + 25.0, 0.0)
        obs1 = make_obs(spec, ego_speed=10.0, agents=[blocker])
        assert mobil_decide(obs1, MobilParams()) == "lane1"
        # next tick a fast vehicle appears close behind on the target lane
        follower = make_agent(spec.graph, "lane1", 40.0 - 6.0, 13.9)
        obs2 = make_obs(spec, ego_speed=10.0, agents=[blocker, follower], t=0.1)
        assert mobil_decide(obs2, MobilParams()) is None

    def test_plan_equals_idm_when_no_decision(self):
        spec = self.make_spec(lanes=1)
        obs = make_obs(spec)
        a = IdmMobilPlanner().plan(obs)
        b = IdmPlanner().plan(obs)
        assert a.equals(b)

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
    over the planner's candidate set, using only scalar library primitives."""
    from drivebench.geometry import points_in_polygon

    cands, _ = planner.evaluate(obs, behavior)
    behavior = behavior or planner.default_behavior(obs)
    lane = obs.graph.lane(behavior.centerline)
    limit = lane.speed_limit
    K = min(int(round(planner.eval_horizon / 0.1)), 80)

    entities = []
    for a in obs.agents:
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
                if boxes_collide(ego_box, other):
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
        n_u = int(math.ceil(planner.ttc_threshold / 0.1))
        u_grid = [min((j + 1) * 0.1, planner.ttc_threshold) for j in range(n_u)]
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
                    if boxes_collide(ego_box, other):
                        hit = True
            viol += hit
        ttc_frac = viol / K
        progress = c.s[-1] - c.s[0]
        prog_norm = progress / (limit * 8.0)
        accel = np.abs(np.diff(c.v[: K + 1])) / 0.1
        comfort = accel.mean() / 4.0
        w = planner.weights
        cost = (w.ttc * ttc_frac + w.offset * abs(c.delta)
                + w.comfort * comfort - w.progress * prog_norm)
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

    for agent in obs.agents:
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
    for a in obs.agents:
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
        from drivebench.planners.base import ego_frenet, lane_scene, nearest_lead
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
                f = ego_frenet(obs, lane_id)
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
    from drivebench.planners.base import AgentObs, PedestrianObs

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
    return replace(obs, agents=agents, obstacles=obstacles, pedestrians=peds)


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
            cands, _ = planner.evaluate(obs)
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
                                               planner.ttc_threshold)
            assert np.array_equal(ttc, want_ttc), i
            n_collided += int(want_collided.any())
            n_ttc += int(want_ttc.any())
        assert n_collided >= 15 and n_ttc >= 15


class TestSamplingPlanner:
    def test_empty_road_full_speed_zero_offset(self):
        spec = empty_road_spec(lanes=1)
        obs = make_obs(spec, ego_speed=10.0)
        planner = SamplingPlanner()
        cands, best = planner.evaluate(obs)
        chosen = cands[best]
        assert chosen.delta == 0.0
        assert chosen.fraction == 1.0

    def test_nudge_prefers_positive_offset(self):
        g = build_base_map("straight_multilane", lanes=1, length=450.0)
        spec = base_scenario(ScenarioType.NUDGE, g, "lane0", 30.0, 10.0, 1)
        spec = place_parked_vehicle(spec, "nudge", at_s=95.0, encroachment=1.4)
        ego_pose = g.lane("lane0").centerline.interpolate_frenet(65.0, 0.0)
        obs = make_obs(spec, ego_pose=ego_pose, ego_speed=10.0)
        cands, best = SamplingPlanner().evaluate(obs)
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
        cands, best = SamplingPlanner().evaluate(obs)
        chosen = cands[best]
        assert chosen.fraction is None or chosen.fraction <= 0.4

    def test_all_infeasible_full_stop_at_zero_delta(self):
        spec = empty_road_spec(lanes=1)
        lane = spec.graph.lane("lane0")
        pose = lane.centerline.interpolate_frenet(48.0, 0.0)
        spec = replace(spec, obstacles=(
            ObstacleSpec("parked_vehicle", OrientedBox(pose, 4.6, 3.4), "lane0"),))
        obs = make_obs(spec, ego_speed=10.0)
        cands, best = SamplingPlanner().evaluate(obs)
        chosen = cands[best]
        assert not any(c.feasible for c in cands)
        assert chosen.delta == 0.0 and chosen.fraction is None

    def test_candidate_count_is_thirty(self):
        spec = empty_road_spec()
        obs = make_obs(spec)
        cands, _ = SamplingPlanner().evaluate(obs)
        assert len(cands) == 30
        deltas = {c.delta for c in cands}
        assert deltas == {-1.0, -0.5, 0.0, 0.5, 1.0}

    def test_deterministic(self):
        spec = empty_road_spec()
        agents = [make_agent(spec.graph, "lane0", 90.0, 6.0)]
        obs = make_obs(spec, agents=agents)
        planner = SamplingPlanner()
        assert planner.plan(obs).equals(planner.plan(obs))

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(11)
        planner = SamplingPlanner()
        agree = 0
        for trial in range(25):
            obs = random_observation(rng)
            _, fast = planner.evaluate(obs)
            slow = sampling_oracle_select(planner, obs)
            assert fast == slow, f"trial {trial}: fast={fast} oracle={slow}"
            agree += 1
        assert agree == 25

    def test_never_selects_at_fault_candidate_when_feasible_exists(self):
        rng = np.random.default_rng(23)
        planner = SamplingPlanner()
        for _ in range(40):
            obs = random_observation(rng)
            cands, best = planner.evaluate(obs)
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
        assert hybrid.plan(obs).equals(follow.plan(obs))

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
        traj = WaypointsLlmPlanner(lambda prompt: "").plan(obs)
        assert traj.speed[-1] == 0.0

    def test_unparsable_kinematics_brake(self):
        spec = empty_road_spec(lanes=1)
        obs = make_obs(spec, ego_speed=10.0)
        # wild zigzag violating the curvature bound must fall back
        def client(prompt):
            pts = ", ".join(f"({2.0 * (i + 1):.1f}, {5.0 * (-1) ** i:.1f})"
                            for i in range(16))
            return pts
        traj = WaypointsLlmPlanner(client).plan(obs)
        assert traj.speed[-1] == 0.0


class TestRegistry:
    def test_known_names(self):
        for name in ("idm", "mobil", "sampler", "hybrid-scripted"):
            planner = make_planner(name)
            assert hasattr(planner, "plan")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_planner("does-not-exist")

    def test_param_override(self):
        planner = make_planner("sampler", {"eval_horizon": "4.0"})
        assert planner.eval_horizon == 4.0
