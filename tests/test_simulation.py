import json
import math
import tempfile
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drivebench.agents import VEHICLE_LENGTH, VEHICLE_WIDTH
from drivebench.geometry import (
    OrientedBox,
    Pose2D,
    box_columns,
    boxes_collide,
    pairwise_contacts,
)
from drivebench.metrics import reference_progress, score_scenario
from drivebench.planners import IdmPlanner, SamplingPlanner, Trajectory
from drivebench.scenarios import (
    ObstacleTable,
    ScenarioType,
    augment_goal_for_lane_changes,
    base_scenario,
    build_base_map,
    generate_benchmark_suite,
    place_construction_zone,
)
from drivebench.simulation import (
    ACCEL_MIN,
    EGO_FIELDS,
    MAX_STEER,
    PERCEPTION_RADIUS,
    WHEELBASE,
    EgoState,
    SimTrace,
    MalformedTraceError,
    _ego_collisions,
    build_observation,
    kinematic_bicycle_step,
    run_closed_loop,
    track_trajectory,
    WorldState,
)
from drivebench.agents import PedestrianState
from drivebench.geometry import Polyline
from conftest import (AgentObs, agent_agent_collisions_oracle,
                      boxes_collide_oracle, make_agent,
                      save_trace, trace_hash, traffic_of)
from test_planners import empty_road_spec


def fit_circle(xs, ys):
    """Algebraic least-squares circle fit; returns (cx, cy, r)."""
    a = np.column_stack([xs, ys, np.ones_like(xs)])
    b = xs ** 2 + ys ** 2
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy = sol[0] / 2.0, sol[1] / 2.0
    r = math.sqrt(sol[2] + cx ** 2 + cy ** 2)
    return cx, cy, r


class TestBicycleModel:
    def test_straight_constant_speed(self):
        s = EgoState(pose=Pose2D(0.0, 0.0, 0.0), speed=10.0)
        for _ in range(50):
            s = kinematic_bicycle_step(s, 0.0, 0.0, 0.1)
        assert s.pose.x == pytest.approx(50.0, abs=1e-9)
        assert s.pose.y == pytest.approx(0.0, abs=1e-12)
        assert s.speed == 10.0

    def test_turning_radius_matches_formula(self):
        steer = 0.3
        expected_r = WHEELBASE / math.tan(steer)
        s = EgoState(pose=Pose2D(0.0, 0.0, 0.0), speed=10.0)
        xs, ys = [], []
        dt = 0.01
        n = int(2 * math.pi * expected_r / 10.0 / dt) + 10
        for _ in range(n):
            s = kinematic_bicycle_step(s, steer, 0.0, dt)
            xs.append(s.pose.x)
            ys.append(s.pose.y)
        _, _, r = fit_circle(np.array(xs), np.array(ys))
        assert r == pytest.approx(expected_r, rel=0.01)

    def test_dt_halving_first_order_convergence(self):

        def simulate(dt, total=5.0):
            s = EgoState(pose=Pose2D(0.0, 0.0, 0.0), speed=8.0)
            n = int(round(total / dt))
            for k in range(n):
                t = k * dt
                steer = 0.2 * math.sin(0.5 * t)
                accel = 0.8 * math.cos(0.4 * t)
                s = kinematic_bicycle_step(s, steer, accel, dt)
            return np.array([s.pose.x, s.pose.y])

        h = 0.1
        e1 = np.linalg.norm(simulate(h) - simulate(h / 2))
        e2 = np.linalg.norm(simulate(h / 2) - simulate(h / 4))
        ratio = e1 / e2
        assert 1.8 <= ratio <= 2.2

    def test_command_clamping(self):
        s = EgoState(pose=Pose2D(0.0, 0.0, 0.0), speed=1.0)
        s = kinematic_bicycle_step(s, 5.0, -100.0, 0.1)
        assert s.steering == MAX_STEER
        assert s.speed == max(0.0, 1.0 + ACCEL_MIN * 0.1)
        s = kinematic_bicycle_step(s, -5.0, -100.0, 0.1)
        assert s.speed == 0.0  # never reverses


def straight_reference(speed=10.0, length=120.0):
    n = int(8.0 / 0.1) + 1
    t = np.arange(n) * 0.1
    x = speed * t
    return Trajectory(t, x, np.zeros(n), np.zeros(n), np.full(n, speed))


class TestTrackTrajectory:
    def test_on_reference_no_commands(self):
        traj = straight_reference()
        ego = EgoState(pose=Pose2D(0.0, 0.0, 0.0), speed=10.0)
        steer, accel = track_trajectory(traj, ego)
        assert abs(steer) < 1e-3
        assert abs(accel) < 1e-3

    def test_left_offset_steers_right(self):
        traj = straight_reference()
        ego = EgoState(pose=Pose2D(10.0, 0.5, 0.0), speed=10.0)
        steer, _ = track_trajectory(traj, ego)
        assert steer < -1e-4

    def test_settles_below_decimeter_cross_track(self):
        traj = straight_reference(length=400.0)
        ego = EgoState(pose=Pose2D(0.0, 1.0, 0.0), speed=10.0)
        ys = []
        for _ in range(70):
            steer, accel = track_trajectory(traj, ego)
            ego = kinematic_bicycle_step(ego, steer, accel, 0.1)
            ys.append(abs(ego.pose.y))
        assert max(ys[40:]) < 0.1

    def test_degenerate_trajectory_full_brakes(self):
        n = 81
        t = np.arange(n) * 0.1
        traj = Trajectory(t, np.full(n, 5.0), np.zeros(n), np.zeros(n),
                          np.zeros(n))
        ego = EgoState(pose=Pose2D(5.0, 0.0, 0.0), speed=3.0)
        steer, accel = track_trajectory(traj, ego)
        assert accel == ACCEL_MIN


class TestBuildObservation:
    def test_far_agent_excluded(self):
        spec = empty_road_spec(lanes=1)
        near = make_agent(spec.graph, "lane0", 90.0, 5.0)
        far = make_agent(spec.graph, "lane0", 300.0, 5.0)
        world = WorldState(ego=EgoState(pose=spec.ego.pose, speed=10.0),
                           agents=traffic_of([near, far]), pedestrians=[])
        obs = build_observation(world, spec,
                                ObstacleTable(spec.graph, spec.obstacles), 0.0)
        assert len(obs.agents) == 1

    def test_time_is_exact(self):
        spec = empty_road_spec()
        world = WorldState(ego=EgoState(pose=spec.ego.pose, speed=10.0),
                           agents=traffic_of([]), pedestrians=[])
        obs = build_observation(world, spec,
                                ObstacleTable(spec.graph, spec.obstacles),
                                1.2345)
        assert obs.time == 1.2345

    def test_equal_states_equal_observations(self):
        spec = empty_road_spec()
        agent = make_agent(spec.graph, "lane0", 90.0, 5.0)
        w1 = WorldState(ego=EgoState(pose=spec.ego.pose, speed=10.0),
                        agents=traffic_of([agent]), pedestrians=[])
        w2 = WorldState(ego=EgoState(pose=spec.ego.pose, speed=10.0),
                        agents=traffic_of([agent]), pedestrians=[])
        table = ObstacleTable(spec.graph, spec.obstacles)
        o1 = build_observation(w1, spec, table, 0.5)
        o2 = build_observation(w2, spec, table, 0.5)
        assert o1 == o2

    @staticmethod
    def ego_lane_at(x, y, n_changes):
        spec = augment_goal_for_lane_changes(empty_road_spec(lanes=3), n_changes)
        world = WorldState(ego=EgoState(pose=Pose2D(x, y, 0.0), speed=10.0),
                           agents=traffic_of([]), pedestrians=[])
        return build_observation(world, spec, ObstacleTable(
            spec.graph, spec.obstacles), 0.0).ego_lane

    @pytest.mark.parametrize("x, y, lane", [
        (100.0, 0.0, "lane0"), (100.0, 3.5, "lane1"), (100.0, 7.0, "lane2"),
        (100.0, 1.6, "lane0"), (100.0, 1.9, "lane1"),
        (100.0, 5.1, "lane1"), (100.0, 5.4, "lane2"),
        (100.0, 1.75, "lane0"), (100.0, 5.25, "lane1"),
        (470.0, 0.5, "lane0"), (470.0, 3.0, "lane1"), (470.0, 6.5, "lane2"),
    ])
    def test_ego_lane_nearest_route_lane(self, x, y, lane):
        """ego_lane, the planners' current lane, on the 3-lane route
        lane0 -> lane1 -> lane2 (centers at y = 0, 3.5, 7): on each lane,
        offset toward a neighbour, exactly on a midline (the lower id wins)
        and 20 m past the lanes' end at x = 450, where projections clamp."""
        assert self.ego_lane_at(x, y, 2) == lane

    def test_ego_lane_only_from_the_route(self):
        """The ego on lane2 of a route lane0 -> lane1 gets lane1."""
        assert self.ego_lane_at(100.0, 7.0, 1) == "lane1"


class TestPerception:
    def test_radius_boundary(self):
        """An agent centred exactly PERCEPTION_RADIUS from the ego, along
        either axis and either way, is kept, and one an ulp beyond it is
        dropped; columns keep their order."""
        spec = empty_road_spec(lanes=1)
        ex, ey, r = 0.0, 0.0, PERCEPTION_RADIUS
        beyond = math.nextafter(r, math.inf)
        centers = [(r, 0.0), (beyond, 0.0), (-r, 0.0), (-beyond, 0.0),
                   (0.0, r), (0.0, beyond), (0.0, -r), (0.0, -beyond)]
        agents = [AgentObs(OrientedBox(Pose2D(x, y, 0.0), 4.6, 1.85),
                           float(i), "lane0") for i, (x, y) in enumerate(centers)]
        world = WorldState(ego=EgoState(pose=Pose2D(ex, ey, 0.0), speed=10.0),
                           agents=traffic_of(agents), pedestrians=[])
        obs = build_observation(world, spec, ObstacleTable(spec.graph, ()), 0.0)
        assert obs.agents.speed == [0.0, 2.0, 4.0, 6.0]
        assert list(zip(obs.agents.x, obs.agents.y)) == centers[::2]


class TestEgoFrame:
    @pytest.mark.parametrize("index", [41, 72])
    def test_one_projection_per_lane_per_tick(self, monkeypatch, index):
        """A tick projects the ego's center (clamped) once per route lane
        and once per lane off the route that an agent occupies: on overtake
        41 (route lane0, traffic on oncoming0) and lane change 72 (four
        route lanes, all occupied), under the idm planner, for 2 s."""
        from drivebench import simulation
        from drivebench.geometry import Polyline

        spec = generate_benchmark_suite(2024)[index]
        spec = replace(spec, duration=2.0)
        ticks, project = [], Polyline.project
        observe = simulation.build_observation

        def counted(self, point):
            if ticks:  # not the obstacle table's projections before them
                ticks[-1].append(tuple(point))
            return project(self, point)

        def tick(world, *args):
            ticks.append([])
            obs = observe(world, *args)
            ticks[-1].append(obs.frame.point)
            return obs

        monkeypatch.setattr(Polyline, "project", counted)
        monkeypatch.setattr(simulation, "build_observation", tick)
        run_closed_loop(spec, IdmPlanner())
        route = set(spec.route.lane_sequence)
        off_route = {a.lane for a in spec.agents} - route
        assert len(ticks) == 20
        for ego, *calls in ticks:
            assert calls.count(ego) == len(route) + len(off_route)


class TestContacts:
    def test_match_scalar_box_test(self):
        """The simulator's contact lists equal a scan with the former scalar
        boxes_collide (boxes_collide_oracle): ego partners in the order
        agents, obstacles, pedestrians; agent pairs (i, j), i < j,
        row-major. Scenes are crowded around the ego, some boxes exactly
        touching it."""
        g = build_base_map("straight_multilane", lanes=2, length=450.0)
        spec = base_scenario(ScenarioType.CONSTRUCTION, g, "lane0", 20.0,
                             10.0, 1)
        spec = place_construction_zone(spec, start_s=60.0, zone_length=14.0)
        rng = np.random.default_rng(3)
        n_ego = n_pairs = 0
        for _ in range(60):
            ex = float(rng.uniform(55.0, 80.0))
            ego = EgoState(pose=Pose2D(ex, float(rng.uniform(-1.0, 2.0)),
                                       float(rng.uniform(-0.5, 0.5))),
                           speed=5.0)
            agents = []
            for _ in range(int(rng.integers(0, 30))):
                s = float(rng.uniform(ex - 15.0, ex + 15.0))
                agents.append(make_agent(g, "lane0" if rng.random() < 0.5
                                         else "lane1", s, 5.0))
            if rng.random() < 0.5:   # bumper to bumper with a heading-0 ego
                ego = replace(ego, pose=Pose2D(ex, 0.0, 0.0))
                agents.append(make_agent(g, "lane0", ex + VEHICLE_LENGTH, 5.0))
            peds = [PedestrianState(
                path=Polyline([[x, -3.0], [x, 4.0]]), walk_speed=1.5,
                trigger_distance=30.0, lane="lane0", phase="crossing",
                dist_along=float(rng.uniform(0.0, 7.0)))
                for x in rng.uniform(ex - 4.0, ex + 4.0, int(rng.integers(0, 3)))]
            partners = ([(f"agent{i}", a.box) for i, a in enumerate(agents)]
                        + [(f"obstacle{j}:{o.kind}", o.box)
                           for j, o in enumerate(spec.obstacles)]
                        + [(f"pedestrian{k}", p.box()) for k, p in enumerate(peds)])
            expected = [name for name, box in partners
                        if boxes_collide_oracle(ego.box, box)]
            cols = box_columns([a.box for a in agents])
            got = _ego_collisions(ego.box, cols, box_columns(
                [o.box for o in spec.obstacles]), peds, spec)
            assert got == [(name, box) for name, box in partners
                           if name in expected]
            assert [name for name, _box in got] == expected
            pairs = [(i, j) for i in range(len(agents))
                     for j in range(i + 1, len(agents))
                     if boxes_collide_oracle(agents[i].box, agents[j].box)]
            assert pairwise_contacts(cols) == pairs
            assert agent_agent_collisions_oracle(
                [a.box for a in agents]) == pairs
            n_ego += len(expected)
            n_pairs += len(pairs)
        assert n_ego > 50 and n_pairs > 100

    def test_agent_pairs_equal_former_pass(self, monkeypatch):
        """The upper-triangle pass gives the former triu_indices pass's pairs
        and hands the separating-axis test as many pairs, on clusters of up
        to 65 boxes of mixed sizes and headings, with duplicated and exactly
        touching boxes."""
        from drivebench import geometry

        rng = np.random.default_rng(17)
        sizes = []
        batch = geometry.boxes_collide_batch

        def counted(*cols):
            sizes.append(np.size(cols[0]))
            return batch(*cols)

        monkeypatch.setattr(geometry, "boxes_collide_batch", counted)
        n_pairs = 0
        for _ in range(80):
            n = int(rng.integers(0, 66))
            spread = float(rng.uniform(5.0, 60.0))
            boxes = [OrientedBox(Pose2D(float(rng.uniform(0.0, spread)),
                                        float(rng.uniform(-4.0, 4.0)),
                                        float(rng.uniform(-math.pi, math.pi))),
                                 float(rng.uniform(0.5, 12.0)),
                                 float(rng.uniform(0.5, 2.6)))
                     for _ in range(n)]
            if n > 2:
                boxes[1] = boxes[0]
                c = boxes[2].center   # axis-aligned, touching end to end
                boxes[2] = OrientedBox(Pose2D(c.x, c.y, 0.0), 4.0, 2.0)
                boxes.append(OrientedBox(Pose2D(c.x + 4.0, c.y, 0.0), 4.0, 2.0))
            sizes.clear()
            got = pairwise_contacts(box_columns(boxes))
            assert got == agent_agent_collisions_oracle(boxes)
            if len(boxes) > 1:
                x, y, _h, length, width = box_columns(boxes)
                reach = np.hypot(length, width) / 2.0
                i, j = np.triu_indices(len(boxes), 1)
                near = (x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2 \
                    <= (reach[i] + reach[j]) ** 2
                assert sum(sizes) == np.count_nonzero(near)
            n_pairs += len(got)
        assert n_pairs > 500


class TestClosedLoop:
    def test_snapshot_count(self):
        spec = empty_road_spec()
        trace = run_closed_loop(spec, IdmPlanner())
        assert len(trace.t) == int(round(spec.duration / 0.1)) + 1

    def test_duration_must_be_multiple_of_dt(self):
        spec = replace(empty_road_spec(), duration=15.04)
        with pytest.raises(ValueError):
            run_closed_loop(spec, IdmPlanner())

    def test_idm_stops_before_construction(self):
        g = build_base_map("straight_multilane", lanes=2, length=450.0)
        spec = base_scenario(ScenarioType.CONSTRUCTION, g, "lane0", 20.0,
                             10.0, 1)
        spec = place_construction_zone(spec, start_s=80.0, zone_length=14.0)
        trace = run_closed_loop(spec, IdmPlanner())
        first_cone = min(s for s, _ in ObstacleTable(
            spec.graph, spec.obstacles).blocking_spans["lane0"])
        assert trace.ego["speed"][-1] < 0.05
        gap = first_cone - (trace.ego["x"][-1] + VEHICLE_LENGTH / 2.0)
        assert gap >= 4.0 - 0.5
        assert not any(e["kind"] == "collision" for e in trace.events)

    def test_bitwise_deterministic_replay(self):
        suite = generate_benchmark_suite(77)
        spec = next(s for s in suite if s.type is ScenarioType.LANE_CHANGE_HTD)
        t1 = run_closed_loop(spec, SamplingPlanner())
        t2 = run_closed_loop(spec, SamplingPlanner())
        assert trace_hash(t1) == trace_hash(t2)

    def test_speed_and_steering_bounds(self):
        suite = generate_benchmark_suite(77)
        spec = next(s for s in suite if s.type is ScenarioType.NUDGE)
        trace = run_closed_loop(spec, SamplingPlanner())
        assert (trace.ego["speed"] >= 0.0).all()
        assert (np.abs(trace.ego["steering"]) <= 0.6 + 1e-9).all()

    def test_collision_events_match_offline_recomputation(self):
        # scripted rear-end: stationary ego straddling the lane boundary,
        # assertive agent approaching on its lane
        g = build_base_map("straight_multilane", lanes=2, length=450.0)
        spec = base_scenario(ScenarioType.LANE_CHANGE_LTD, g, "lane0", 60.0,
                             0.0, 1)
        boundary_pose = Pose2D(60.0, 1.75, 0.0)
        spec = replace(spec, ego=replace(spec.ego, pose=boundary_pose, speed=0.0))

        class HoldStill:
            name = "hold"

            def plan(self, obs):
                n = 81
                t = np.arange(n) * 0.1
                return Trajectory(t, np.full(n, obs.ego_box.center.x),
                                  np.full(n, obs.ego_box.center.y),
                                  np.full(n, obs.ego_box.center.heading),
                                  np.zeros(n))

        from drivebench.scenarios import VehicleAgentSpec
        agent = VehicleAgentSpec(lane="lane0", s=20.0, speed=13.0,
                                 policy="assertive")
        spec = replace(spec, agents=(agent,))
        trace = run_closed_loop(spec, HoldStill())
        events = [e for e in trace.events if e["kind"] == "collision"]
        assert len(events) >= 1
        assert all(not e["at_fault"] for e in events)  # struck from behind

        # offline recomputation of contact onsets from the snapshots
        onsets = []
        prev = False
        for snap in trace.to_dict()["snapshots"]:
            e = snap["ego"]
            ego_box = OrientedBox(Pose2D(e["x"], e["y"], e["heading"]),
                                  VEHICLE_LENGTH, VEHICLE_WIDTH)
            hit = False
            for a in snap["agents"]:
                other = OrientedBox(Pose2D(a["x"], a["y"], a["heading"]),
                                    a["length"], a["width"])
                if boxes_collide(ego_box, other):
                    hit = True
            if hit and not prev:
                onsets.append(snap["t"])
            prev = hit
        assert onsets == [e["time"] for e in events]

    def test_trace_round_trip(self, tmp_path):
        spec = empty_road_spec()
        trace = run_closed_loop(spec, IdmPlanner())
        p = tmp_path / "trace.json"
        save_trace(trace, p)
        loaded = SimTrace.load(p)
        assert loaded.to_json() == trace.to_json()
        assert trace_hash(loaded) == trace_hash(trace)


# seed-2024 suite indices where a world at rest is replayed, per planner,
# and the ticks it does not plan there in all
REPLAYED = {
    "idm": ([*range(20), *range(30, 41)], 1347),
    "mobil": ([11, 13, *range(15, 20), *range(30, 38), 40], 723),
    "sampler": ([*range(20), 40], 712),
}


class TestWorldAtRest:
    """run_closed_loop records the remaining ticks of a world at rest under
    a memoryless planner instead of computing them."""

    @pytest.mark.parametrize("name", sorted(REPLAYED))
    def test_trace_equals_full_loop(self, monkeypatch, name):
        """On every suite scenario where the replay fires, the trace bytes
        equal those of the loop that plans every tick."""
        from drivebench.planners import make_planner

        cls = type(make_planner(name))
        plan, n_planned = cls.plan, []
        monkeypatch.setattr(cls, "plan", lambda self, obs: (
            n_planned.append(obs.time), plan(self, obs))[1])
        suite = generate_benchmark_suite(2024)
        indices, n_skipped = REPLAYED[name]
        skipped = []
        for i in indices:
            n_planned.clear()
            replayed = run_closed_loop(suite[i], make_planner(name)).to_json()
            skipped.append(150 - len(n_planned))
            with monkeypatch.context() as m:
                m.setattr(cls, "memoryless", False)
                n_planned.clear()
                full = run_closed_loop(suite[i], make_planner(name)).to_json()
                assert len(n_planned) == 150
            assert replayed == full, i
        assert min(skipped) > 0 and sum(skipped) == n_skipped

    def test_raising_planner_falls_back_every_tick(self):
        """A memoryless planner that raises brakes to rest and stays there,
        and each tick still appends its planner_fallback event."""
        class Raising:
            name = "raising"
            memoryless = True

            def plan(self, obs):
                raise RuntimeError("no plan")

        trace = run_closed_loop(generate_benchmark_suite(2024)[0], Raising())
        assert [e["time"] for e in trace.events
                if e["kind"] == "planner_fallback"] == [k * 0.1
                                                        for k in range(150)]
        assert all(col[-50] == col[-1] for col in trace.ego.values())
        assert trace.ego["speed"][-1] == 0.0

    def test_hybrid_plans_every_tick(self, monkeypatch):
        """The hybrid reads obs.time and keeps its behaviour: not
        memoryless, so it plans on every tick, also where idm, mobil and
        the sampler replay."""
        from drivebench.planners import HybridBehaviorPlanner, make_planner

        plan, n_planned = HybridBehaviorPlanner.plan, []
        monkeypatch.setattr(HybridBehaviorPlanner, "plan", lambda self, obs: (
            n_planned.append(obs.time), plan(self, obs))[1])
        planner = make_planner("hybrid-scripted")
        assert not getattr(planner, "memoryless", False)
        run_closed_loop(generate_benchmark_suite(2024)[11], planner)
        assert len(n_planned) == 150

    def test_same_bits_tells_signed_zeros_apart(self):
        """-0.0 == 0.0, but a world holding one is not the world holding
        the other, in the ego, the traffic columns or a pedestrian."""
        from drivebench.agents import Traffic

        suite = generate_benchmark_suite(2024)
        cars = next(s for s in suite if s.agents)
        walkers = next(s for s in suite if s.pedestrians)
        ego = EgoState(pose=Pose2D(0.0, 0.0, 0.0), speed=0.0)
        traffic = Traffic.spawn(cars.graph, cars.agents)
        traffic = replace(traffic, heading=[0.0] * len(traffic))
        world = WorldState(ego, traffic, [
            PedestrianState(p.path, p.walk_speed, p.trigger_distance, p.lane)
            for p in walkers.pedestrians])
        copy = WorldState(replace(ego), replace(traffic),
                          list(world.pedestrians))
        assert world.same_bits(copy)
        negated = [
            replace(world, ego=replace(ego, pose=Pose2D(0.0, -0.0, 0.0))),
            replace(world, ego=replace(ego, steering=-0.0)),
            replace(world, agents=replace(traffic, heading=[-0.0] + [0.0] * (
                len(traffic) - 1))),
            replace(world, pedestrians=[replace(world.pedestrians[0],
                                                dist_along=-0.0)]),
        ]
        for other in negated:
            assert world == other and not world.same_bits(other)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=8)


def snapshot_dicts(keys, **fixed):
    return st.fixed_dictionaries({**{k: FINITE for k in keys}, **fixed})


@st.composite
def v1_trace_dicts(draw):
    """Trace dicts in schema v1: the snapshot fields run_closed_loop
    writes, one count of agents and one of pedestrians per trace, and any
    JSON objects as events."""
    n_agents, n_peds = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    snapshot = st.fixed_dictionaries({
        "t": FINITE,
        "ego": snapshot_dicts(EGO_FIELDS),
        "agents": st.lists(snapshot_dicts(
            ("s", "speed", "x", "y", "heading", "length", "width"),
            lane=st.text(max_size=8), policy=st.text(max_size=8)),
            min_size=n_agents, max_size=n_agents),
        "pedestrians": st.lists(snapshot_dicts(
            ("x", "y", "vx", "vy"), phase=st.text(max_size=8)),
            min_size=n_peds, max_size=n_peds),
        "plan": st.lists(st.lists(FINITE, min_size=2, max_size=2),
                         max_size=4)})
    return draw(st.fixed_dictionaries({
        "version": st.just("v1"),
        "scenario_type": st.sampled_from([t.value for t in ScenarioType]),
        "seed": st.integers(0, 2 ** 32),
        "dt": FINITE,
        "duration": FINITE,
        "snapshots": st.lists(snapshot, max_size=4),
        "events": st.lists(st.dictionaries(st.text(max_size=8), JSON_VALUES,
                                           max_size=4), max_size=4)}))


def columns(trace) -> dict:
    """Each column of a trace with its shape and dtype, floats as bytes, so
    that == compares their bits."""
    return {f"{group}.{name}": (col.shape, col.dtype, col.tolist()
                                if col.dtype == object else col.tobytes())
            for group in ("ego", "agents", "pedestrians")
            for name, col in getattr(trace, group).items()
            } | {"t": (trace.t.shape, trace.t.dtype, trace.t.tobytes())}


def small_v1_dict() -> dict:
    """Two snapshots of one agent and one pedestrian, in schema v1."""
    return {
        "version": "v1", "scenario_type": "jaywalker", "seed": 1, "dt": 0.1,
        "duration": 0.1, "events": [],
        "snapshots": [{
            "t": 0.1 * k, "plan": [[0.0, 0.0], [5.0, 0.0]],
            "ego": dict.fromkeys(EGO_FIELDS, 1.0),
            "agents": [{"lane": "lane0", "s": 30.0, "speed": 8.0, "x": 30.0,
                        "y": 0.0, "heading": 0.0, "length": 4.6,
                        "width": 1.85, "policy": "assertive"}],
            "pedestrians": [{"x": 60.0, "y": 3.0, "vx": 0.0, "vy": -1.2,
                             "phase": "crossing"}]} for k in range(2)]}


def nul_ended_text() -> dict:
    """small_v1_dict with text fields that a numpy str array would cut
    short: numpy drops trailing NUL characters."""
    data = small_v1_dict()
    for snap in data["snapshots"]:
        snap["agents"][0].update(lane="lane0\x00", policy="")
        snap["pedestrians"][0]["phase"] = "\x00"
    return data


def bits(score) -> list:
    """A score's fields, floats as their hex form."""
    return [v.hex() if isinstance(v, float) else v for v in astuple(score)]


class TestTraceFormat:
    @settings(max_examples=60, deadline=None)
    @given(data=v1_trace_dicts())
    @example(data=nul_ended_text())
    def test_v1_survives_save_and_load(self, data):
        """A trace in schema v1 loads back with the bytes of the dict it
        was built from and with the same columns, bit for bit."""
        trace = SimTrace.from_dict(data)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.json"
            save_trace(trace, path)
            loaded = SimTrace.load(path)
        assert loaded.to_json() == trace.to_json() == json.dumps(
            data, sort_keys=True, separators=(",", ":"))
        assert columns(loaded) == columns(trace)

    @pytest.mark.parametrize("breach, message", [
        (lambda d: d.pop("seed"), "field 'seed'"),
        (lambda d: d["snapshots"][1].pop("ego"), "field 'ego'"),
        (lambda d: d["snapshots"][1]["ego"].pop("accel"), "field 'accel'"),
        (lambda d: d["snapshots"][0]["agents"][0].pop("lane"),
         "field 'lane'"),
        (lambda d: d["snapshots"][1]["pedestrians"][0].pop("phase"),
         "field 'phase'"),
        (lambda d: d["snapshots"][1]["agents"].append(
            d["snapshots"][0]["agents"][0]),
         "snapshot 1 holds 2 agents and 1 pedestrians, snapshot 0 1 and 1"),
        (lambda d: d["snapshots"][1]["pedestrians"].clear(),
         "snapshot 1 holds 1 agents and 0 pedestrians, snapshot 0 1 and 1"),
    ], ids=["seed", "ego", "accel", "lane", "phase", "agents", "pedestrians"])
    def test_malformed_v1_is_rejected(self, tmp_path, breach, message):
        """A v1 file without a field raises MalformedTraceError naming the
        field; so does one whose snapshots hold different counts of agents
        or of pedestrians, which the simulator never writes."""
        data = small_v1_dict()
        SimTrace.from_dict(data)
        breach(data)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(MalformedTraceError, match=message):
            SimTrace.load(path)

    def test_loaded_traces_score_like_live_ones(self, tmp_path):
        """idm on the first construction scenario, where the world at rest
        is replayed, and on the first jaywalker one: each trace file loads
        back to its own bytes, and the loaded trace scores as the live one,
        bit for bit."""
        suite = generate_benchmark_suite(2024)
        for index in (0, 20):
            spec = suite[index]
            trace = run_closed_loop(spec, IdmPlanner())
            path = tmp_path / f"{index}.json"
            save_trace(trace, path)
            loaded = SimTrace.load(path)
            assert loaded.to_json().encode() == path.read_bytes()
            ref = reference_progress(spec)
            assert bits(score_scenario(loaded, spec, ref)) == \
                bits(score_scenario(trace, spec, ref))
