import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivebench.agents import (
    EMERGENCY_DECEL,
    IDM_A_MAX,
    IDM_B_COMF,
    IDM_S0,
    IDM_T,
    SWEPT_BAND_HALF_WIDTH,
    PedestrianState,
    ego_counts_in_lane,
    equilibrium_speed,
    idm_acceleration,
    idm_profile,
    select_lead,
    step_pedestrian,
    step_vehicle_agent,
)
from drivebench.geometry import (
    EgoFrame,
    LaneGraph,
    LaneSegment,
    OrientedBox,
    Polyline,
    Pose2D,
    boxes_collide,
    wrap_angle,
)
from drivebench.scenarios import MIN_SPAWN_GAP, build_base_map
from conftest import (
    agents_of,
    equilibrium_speed_oracle,
    idm_profile_oracle,
    lane_pose_oracle,
    make_agent,
    select_lead_oracle,
    step_agent_oracle,
    traffic_of,
)
from test_geometry import parallel_graph

V0 = 13.9


class TestIdmAcceleration:
    def test_free_flow_at_desired_speed(self):
        assert idm_acceleration(V0, None, None, V0) == 0.0

    def test_standstill_equilibrium(self):
        assert idm_acceleration(0.0, 0.0, IDM_S0, V0) == pytest.approx(0.0)

    def test_closed_form_double_deficit(self):
        # v = v0 and gap = s* makes both bracketed terms equal 1
        gap = IDM_S0 + V0 * IDM_T
        assert idm_acceleration(V0, V0, gap, V0) == pytest.approx(-IDM_A_MAX)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            idm_acceleration(5.0, 5.0, 0.0, V0)
        with pytest.raises(ValueError):
            idm_acceleration(5.0, 5.0, -1.0, V0)

    def test_emergency_clamp(self):
        a = idm_acceleration(20.0, 0.0, 1.0, V0)
        assert a == EMERGENCY_DECEL

    @settings(max_examples=300, deadline=None)
    @given(
        v=st.floats(0.0, 30.0),
        v_lead=st.floats(0.0, 30.0),
        gap=st.floats(1.0, 200.0),
    )
    def test_bounded_and_finite(self, v, v_lead, gap):
        a = idm_acceleration(v, v_lead, gap, V0)
        assert math.isfinite(a)
        assert EMERGENCY_DECEL <= a <= IDM_A_MAX

    @settings(max_examples=200, deadline=None)
    @given(
        v1=st.floats(0.0, 29.0),
        dv=st.floats(0.01, 1.0),
        v_lead=st.floats(0.0, 30.0),
        gap=st.floats(1.0, 200.0),
    )
    def test_monotone_decreasing_in_speed(self, v1, dv, v_lead, gap):
        a1 = idm_acceleration(v1, v_lead, gap, V0)
        a2 = idm_acceleration(v1 + dv, v_lead, gap, V0)
        assert a2 <= a1 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        v=st.floats(0.0, 30.0),
        v_lead=st.floats(0.0, 30.0),
        gap=st.floats(1.0, 199.0),
        dg=st.floats(0.01, 1.0),
    )
    def test_monotone_increasing_in_gap(self, v, v_lead, gap, dg):
        a1 = idm_acceleration(v, v_lead, gap, V0)
        a2 = idm_acceleration(v, v_lead, gap + dg, V0)
        assert a2 >= a1 - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        v=st.floats(0.0, 30.0),
        v_lead=st.floats(0.0, 30.0),
        gap=st.floats(1.0, 200.0),
    )
    def test_continuity_under_tiny_perturbation(self, v, v_lead, gap):
        a1 = idm_acceleration(v, v_lead, gap, V0)
        a2 = idm_acceleration(v + 1e-9, v_lead + 1e-9, gap + 1e-9, V0)
        assert abs(a1 - a2) < 1e-3


def former_idm_acceleration(v, v_lead, gap, v0):
    """Reference: idm_acceleration with its square root taken per call and
    its clamps as max calls."""
    r = v / v0
    a = IDM_A_MAX * (1.0 - (r * r) * (r * r))
    if v_lead is not None and gap is not None:
        s_star = (IDM_S0 + v * IDM_T
                  + v * (v - v_lead) / (2.0 * math.sqrt(IDM_A_MAX * IDM_B_COMF)))
        q = max(s_star, IDM_S0) / gap
        a = a - IDM_A_MAX * (q * q)
    return max(a, EMERGENCY_DECEL)


class TestIdmFloatPath:
    def test_float_inputs_give_the_float64_bits(self):
        """On Python floats idm_acceleration gives the bits the former form
        gave on the np.float64 values the planner's rollout used to read
        out of its arrays, over 100k draws with and without a lead."""
        rng = np.random.default_rng(43)
        n = 100_000
        v = rng.uniform(0.0, 35.0, n)
        v[::17] = 0.0
        v_lead = rng.uniform(0.0, 35.0, n)
        v_lead[::13] = 0.0
        gap = np.exp(rng.uniform(math.log(0.01), math.log(500.0), n))
        v0 = rng.uniform(0.2, 30.0, n)
        free = rng.random(n) < 0.2
        got, want = [], []
        for row, args in enumerate(zip(v.tolist(), v_lead.tolist(),
                                       gap.tolist(), v0.tolist())):
            f64 = tuple(np.float64(x) for x in args)
            if free[row]:
                args = (args[0], None, None, args[3])
                f64 = (f64[0], None, None, f64[3])
            got.append(idm_acceleration(*args))
            want.append(former_idm_acceleration(*f64))
            assert type(got[-1]) is float
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestEquilibrium:
    def test_equilibrium_speed_zeroes_acceleration(self):
        for gap in (10.0, 25.0, 60.0, 150.0):
            v = equilibrium_speed(gap, V0)
            a = idm_acceleration(v, v, gap, V0)
            assert abs(a) < 1e-6

    def test_jammed_gap_gives_zero(self):
        assert equilibrium_speed(IDM_S0, V0) == 0.0
        assert equilibrium_speed(2.0, V0) == 0.0

    def test_gap_speed_round_trip(self):
        for v in (2.0, 5.0, 9.0):
            # steady-state bumper gap behind a lead at the same speed v
            g = (IDM_S0 + v * IDM_T) / math.sqrt(1.0 - (v / V0) ** 4)
            assert equilibrium_speed(g, V0) == pytest.approx(v, abs=1e-6)


    def test_equals_former_bisection_on_suite_calls(self, monkeypatch):
        """Every call that generating the seed-2024 suite makes."""
        from drivebench import scenarios

        calls = []

        def recording(gap, v0):
            calls.append((gap, v0))
            return equilibrium_speed(gap, v0)

        monkeypatch.setattr(scenarios, "equilibrium_speed", recording)
        scenarios.generate_benchmark_suite(2024)
        assert len(calls) > 500
        for gap, v0 in calls:
            assert (equilibrium_speed(gap, v0).hex()
                    == equilibrium_speed_oracle(gap, v0).hex()), (gap, v0)

    @settings(max_examples=300, deadline=None)
    @given(gap=st.one_of(st.sampled_from([IDM_S0, math.nextafter(IDM_S0, 5.0),
                                          IDM_S0 + 1e-9, 1e9]),
                         st.floats(0.0, 500.0)),
           v0=st.one_of(st.sampled_from([V0, 1e-3, 1e-300]),
                        st.floats(0.1, 40.0)))
    def test_equals_former_bisection(self, gap, v0):
        assert (equilibrium_speed(gap, v0).hex()
                == equilibrium_speed_oracle(gap, v0).hex())


def same_rows(got, want):
    """Equal offsets and speeds, bit for bit, as lists of Python floats."""
    return (all(type(x) is float for row in got for x in row)
            and [np.array(r).tobytes() for r in got]
            == [np.array(r).tobytes() for r in want])


class TestIdmProfile:
    """idm_profile's two shortcuts (free flow without the lead term, a row
    at rest behind a lead at rest filled) against the former loop,
    conftest's idm_profile_oracle."""

    @pytest.fixture(scope="class")
    def suite_rows(self):
        """The distinct argument rows of the idm planner's, the sampler's and
        the agents' calls in closed loops of the first two scenarios of
        every family."""
        from drivebench import agents
        from drivebench.planners import idm_planner, make_planner, sampling
        from drivebench.scenarios import generate_benchmark_suite
        from drivebench.simulation import run_closed_loop

        rows = set()

        def recording(*args):
            rows.add(args)
            return idm_profile(*args)

        suite = generate_benchmark_suite(2024)
        with pytest.MonkeyPatch.context() as mp:
            for module in (agents, idm_planner, sampling):
                mp.setattr(module, "idm_profile", recording)
            for name in ("idm", "sampler"):
                for spec in suite[0::10] + suite[1::10]:
                    run_closed_loop(spec, make_planner(name))
        return sorted(rows)

    def test_equals_former_loop_on_suite_rows(self, suite_rows):
        filled = free = 0
        for row in suite_rows:
            want = idm_profile_oracle(*row)
            assert same_rows(idm_profile(*row), want), row
            v_start, gap0, v_lead, v0, dt, n, *_ = row
            filled += n > 1 and v_lead <= 0.0 and want[1][-2:] == [0.0, 0.0]
            free += gap0 == math.inf
        assert filled > 100 and free > 1000, (filled, free)

    def test_equals_former_loop_on_grid(self):
        """Leads at rest and behind, gaps around 0.01 m and the jam
        distance, starts at rest, -0.0 and negative, free flow."""
        filled = 0
        for row in itertools.product(
                [0.0, -0.0, -1.0, 0.3, 5.0, 13.9],
                [-1.0, 0.0, 0.01, math.nextafter(0.01, 1.0), 0.5, IDM_S0,
                 10.0, math.inf],
                [0.0, -0.0, -2.0, 1.0], [V0], [0.1, 0.2], [1, 2, 80],
                [EMERGENCY_DECEL, -2.0 * IDM_B_COMF]):
            want = idm_profile_oracle(*row)
            assert same_rows(idm_profile(*row), want), row
            filled += row[5] > 1 and want[1][-2:] == [0.0, 0.0]
        assert filled > 100

    @settings(max_examples=500, deadline=None)
    @given(v_start=st.one_of(st.sampled_from([0.0, -0.0, -3.0]),
                             st.floats(-5.0, 35.0)),
           gap0=st.one_of(st.sampled_from([math.inf, 0.01, 0.0, -2.0,
                                           math.nextafter(0.01, 0.0),
                                           math.nextafter(0.01, 1.0)]),
                          st.floats(0.0, 0.05), st.floats(0.0, 200.0)),
           v_lead=st.one_of(st.sampled_from([0.0, -0.0, -1.5]),
                            st.floats(-5.0, 35.0)),
           v0=st.floats(0.5, 35.0),
           dt=st.sampled_from([0.1, 0.2, 0.05]),
           n=st.one_of(st.sampled_from([1, 80]), st.integers(1, 80)),
           floor=st.sampled_from([EMERGENCY_DECEL, -2.0 * IDM_B_COMF]))
    def test_equals_former_loop(self, v_start, gap0, v_lead, v0, dt, n,
                                floor):
        row = (v_start, gap0, v_lead, v0, dt, n, floor)
        assert same_rows(idm_profile(*row), idm_profile_oracle(*row))


@dataclass
class TrafficWorld:
    """Everything an agent can react to in one tick."""
    graph: LaneGraph
    agents: Sequence
    lane_blockers: dict
    pedestrians: Sequence = ()


def single_lane_world(graph, agents, blockers=None, pedestrians=()):
    return TrafficWorld(graph=graph, agents=agents,
                        lane_blockers=blockers or {}, pedestrians=pedestrians)


def frame_of(graph, ego_box):
    """The ego frame of ego_box's center (of no point without an ego)."""
    return EgoFrame(graph, None if ego_box is None
                    else (ego_box.center.x, ego_box.center.y))


def world_leads(world, ego_box, ego_speed):
    """One select_lead query over the whole world's agents."""
    return select_lead(traffic_of(world.agents), world.graph,
                       world.lane_blockers, world.pedestrians, ego_box,
                       ego_speed, frame_of(world.graph, ego_box))


def index_of(agent, world):
    return next(i for i, a in enumerate(world.agents) if a is agent)


def lead_of(agent, world, ego_box, ego_speed):
    """The agent's entry of one select_lead query over the whole world."""
    return world_leads(world, ego_box, ego_speed)[index_of(agent, world)]


def step_agent(agent, world, ego_box, ego_speed, dt):
    """The agent after one step_vehicle_agent call on the whole world."""
    traffic = step_vehicle_agent(traffic_of(world.agents),
                                 world_leads(world, ego_box, ego_speed),
                                 world.graph, dt)
    return agents_of(traffic)[index_of(agent, world)]


def select_lead_scan(agent, world, ego_box, ego_speed):
    """Reference: the per-agent scan select_lead replaced, as (lead speed,
    bumper gap) or None."""
    line = world.graph.lane(agent.lane).centerline
    lane_width = world.graph.lane(agent.lane).width
    front = agent.s + agent.length / 2.0
    best = None  # (gap, v_lead)

    def consider(gap, v_lead):
        nonlocal best
        if gap > 0 and (best is None or gap < best[0]):
            best = (gap, v_lead)

    for other in world.agents:
        if other is agent or other.lane != agent.lane:
            continue
        consider(other.s - other.length / 2.0 - front, other.speed)

    if ego_box is not None:
        f = line.project((ego_box.center.x, ego_box.center.y))
        heading = line.tangent_at(f.s)
        if ego_counts_in_lane(ego_box, lane_width, f.d, heading, agent.policy):
            half = (abs(math.cos(wrap_angle(ego_box.center.heading - heading)))
                    * ego_box.length / 2.0
                    + abs(math.sin(wrap_angle(ego_box.center.heading - heading)))
                    * ego_box.width / 2.0)
            consider(f.s - half - front, ego_speed)

    for s_near, _s_far in world.lane_blockers.get(agent.lane, ()):
        consider(s_near - front, 0.0)

    for ped in world.pedestrians:
        if ped.phase != "crossing":
            continue
        f = line.project(ped.position)
        if abs(f.d) <= SWEPT_BAND_HALF_WIDTH + 0.3:
            consider(f.s - 0.3 - front, 0.0)

    if best is None:
        return None
    return (best[1], best[0])


def random_traffic(rng):
    """A random traffic world on a straight or curved map with 1-3 lanes,
    with the ego (box and speed) straddling a lane boundary, merged into a
    lane, off to the side or absent (None).

    Policies are mixed; there are blocking spans, waiting, crossing and
    finished pedestrians, and agents at equal s. On the straight map
    positions lie on a 0.5 m grid, so near edges tie: an agent's with the
    ego's and a span's (whose near edge is copied from an agent's). Some
    spans start exactly at an agent's front bumper."""
    n_lanes = int(rng.integers(1, 4))
    straight = bool(rng.random() < 0.5)
    if straight:
        graph = build_base_map("straight_multilane", lanes=n_lanes, length=300.0)
    else:
        graph = build_base_map("curved", lanes=n_lanes, length=280.0,
                               radius=120.0)
    lane_ids = sorted(graph.segments)

    def position(lane_id):
        length = graph.lane(lane_id).centerline.length
        s = float(rng.uniform(0.0, length))
        return round(2.0 * s) / 2.0 if straight else s

    agents = []
    for _ in range(int(rng.integers(0, 13))):
        lane_id = lane_ids[int(rng.integers(len(lane_ids)))]
        if agents and rng.random() < 0.25:      # same s as an earlier agent
            other = agents[int(rng.integers(len(agents)))]
            lane_id, s = other.lane, other.s
        else:
            s = position(lane_id)
        policy = "assertive" if rng.random() < 0.5 else "conservative"
        speed = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 14.0))
        agents.append(make_agent(graph, lane_id, s, speed, policy=policy))

    blockers = {}
    for lane_id in lane_ids:
        for _ in range(int(rng.integers(0, 3))):
            same_lane = [a for a in agents if a.lane == lane_id]
            if same_lane and rng.random() < 0.5:
                a = same_lane[int(rng.integers(len(same_lane)))]
                # ties with a's near edge, or touches a's front (gap 0)
                near = a.s + (1 if rng.random() < 0.3 else -1) * a.length / 2.0
            else:
                near = position(lane_id)
            blockers.setdefault(lane_id, []).append((near, near + 5.0))

    pedestrians = []
    line0 = graph.lane("lane0").centerline
    for _ in range(int(rng.integers(0, 4))):
        s = float(rng.uniform(20.0, line0.length - 20.0))
        a = Pose2D(*line0.place(s, -3.0))
        b = Pose2D(*line0.place(s, n_lanes * 3.5))
        path = Polyline([[a.x, a.y], [b.x, b.y]])
        phase = ("waiting", "crossing", "crossing", "done")[int(rng.integers(4))]
        pedestrians.append(PedestrianState(
            path=path, walk_speed=1.5, trigger_distance=30.0, lane="lane0",
            phase=phase, dist_along=float(rng.uniform(0.0, path.length))))

    kind = ("straddling", "merged", "aside", "absent")[int(rng.integers(4))]
    ego_box = None
    if kind != "absent":
        lane = graph.lane(lane_ids[int(rng.integers(len(lane_ids)))])
        if straight and agents and rng.random() < 0.5:
            lane = graph.lane(agents[0].lane)
            s = agents[0].s                    # near edge ties with agents[0]
        else:
            s = position(lane.id)
        d = {"straddling": lane.width / 2.0 * (1 if rng.random() < 0.5 else -1),
             "merged": float(rng.uniform(-0.8, 0.8)),
             "aside": float(rng.uniform(-6.0, 6.0))}[kind]
        pose = Pose2D(*lane.centerline.place(s, d))
        heading = pose.heading
        if not straight or rng.random() < 0.5:
            heading = wrap_angle(heading + float(rng.uniform(-0.4, 0.4)))
        ego_box = OrientedBox(Pose2D(pose.x, pose.y, heading), 4.6, 1.85)
    world = TrafficWorld(graph=graph, agents=agents, lane_blockers=blockers,
                         pedestrians=pedestrians)
    return world, ego_box, float(rng.uniform(0.0, 14.0))


class TestSelectLead:
    def setup_method(self):
        self.graph = parallel_graph(2, length=300.0)

    def test_no_actor_ahead(self):
        a = make_agent(self.graph, "lane0", 50.0, 10.0)
        world = single_lane_world(self.graph, [a])
        assert lead_of(a, world, None, 0.0) is None

    def test_same_lane_agent_ahead(self):
        a = make_agent(self.graph, "lane0", 50.0, 10.0)
        b = make_agent(self.graph, "lane0", 80.0, 8.0)
        world = single_lane_world(self.graph, [a, b])
        v_lead, gap = lead_of(a, world, None, 0.0)
        assert v_lead == 8.0
        assert gap == pytest.approx(30.0 - 4.6)

    def test_conservative_sees_straddling_ego(self):
        a = make_agent(self.graph, "lane0", 50.0, 10.0, policy="conservative")
        world = single_lane_world(self.graph, [a])
        # ego center on the boundary between lane0 and lane1
        ego = OrientedBox(Pose2D(90.0, 1.75, 0.0), 4.6, 1.85)
        lead = lead_of(a, world, ego, 9.0)
        assert lead is not None
        assert lead[0] == 9.0

    def test_assertive_ignores_straddling_ego(self):
        a = make_agent(self.graph, "lane0", 50.0, 10.0, policy="assertive")
        world = single_lane_world(self.graph, [a])
        ego = OrientedBox(Pose2D(90.0, 1.75, 0.0), 4.6, 1.85)
        assert lead_of(a, world, ego, 9.0) is None

    def test_assertive_sees_fully_merged_ego(self):
        a = make_agent(self.graph, "lane0", 50.0, 10.0, policy="assertive")
        world = single_lane_world(self.graph, [a])
        ego = OrientedBox(Pose2D(90.0, 0.2, 0.0), 4.6, 1.85)
        assert lead_of(a, world, ego, 9.0) is not None

    def test_static_blocker_counts(self):
        a = make_agent(self.graph, "lane0", 50.0, 10.0)
        world = single_lane_world(self.graph, [a], blockers={"lane0": [(80.0, 85.0)]})
        v_lead, gap = lead_of(a, world, None, 0.0)
        assert v_lead == 0.0
        assert gap == pytest.approx(80.0 - 50.0 - 2.3)

    def test_crossing_pedestrian_counts(self):
        a = make_agent(self.graph, "lane0", 50.0, 10.0)
        path = Polyline([[90.0, -3.0], [90.0, 3.0]])
        ped = PedestrianState(path=path, walk_speed=1.5, trigger_distance=30.0,
                              lane="lane0", phase="crossing", dist_along=3.0)
        world = single_lane_world(self.graph, [a], pedestrians=[ped])
        lead = lead_of(a, world, None, 0.0)
        assert lead is not None and lead[0] == 0.0


class TestLaneKeeperRule:
    def test_select_lead_matches_per_agent_scan(self):
        rng = np.random.default_rng(2024)
        n_leads = n_none = 0
        for _ in range(300):
            world, ego_box, ego_speed = random_traffic(rng)
            leads = world_leads(world, ego_box, ego_speed)
            assert leads == [select_lead_scan(a, world, ego_box, ego_speed)
                             for a in world.agents]
            n_leads += sum(lead is not None for lead in leads)
            n_none += sum(lead is None for lead in leads)
        assert n_leads > 500 and n_none > 100

    @settings(max_examples=200, deadline=None)
    @given(gaps=st.lists(st.floats(MIN_SPAWN_GAP, 100.0), min_size=1, max_size=6),
           policies=st.lists(st.sampled_from(["conservative", "assertive"]),
                             min_size=6, max_size=6),
           limit=st.floats(8.0, 15.0))
    def test_idm_column_never_overlaps_its_lead(self, gaps, policies, limit):
        """A column spawned by the suite's rule (bumper gap to the member
        ahead in [MIN_SPAWN_GAP, 100] m, speed min(limit,
        equilibrium_speed(gap))) queued behind a blocking span keeps every
        bumper gap positive for 300 ticks."""
        graph = parallel_graph(1, length=1500.0, speed_limit=limit)
        span_near = 800.0
        blockers = {"lane0": [(span_near, span_near + 5.0)]}
        agents = []
        ahead = span_near
        for gap, policy in zip(gaps, policies):
            speed = min(limit, equilibrium_speed(gap, limit))
            agents.append(make_agent(graph, "lane0", ahead - gap - 2.3, speed,
                                     policy=policy))
            ahead = agents[-1].s - agents[-1].length / 2.0
        traffic = traffic_of(agents)
        for _ in range(300):
            leads = select_lead(traffic, graph, blockers, (), None, 0.0,
                                frame_of(graph, None))
            traffic = step_vehicle_agent(traffic, leads, graph, 0.1)
            fronts = [s + length / 2.0
                      for s, length in zip(traffic.s, traffic.length)]
            nears = [span_near] + [s - length / 2.0 for s, length
                                   in zip(traffic.s[:-1], traffic.length[:-1])]
            for near, front in zip(nears, fronts):
                assert near - front > 0.0


class TestStepVehicleAgent:
    def setup_method(self):
        self.graph = parallel_graph(1, length=500.0)

    def test_free_road_cruise(self):
        a = make_agent(self.graph, "lane0", 50.0, 13.9)
        world = single_lane_world(self.graph, [a])
        nxt = step_agent(a, world, None, 0.0, 0.1)
        assert nxt.speed == pytest.approx(13.9)
        assert nxt.s == pytest.approx(50.0 + 13.9 * 0.1)

    def test_holds_at_jam_distance(self):
        a = make_agent(self.graph, "lane0", 50.0, 0.0)
        world = single_lane_world(self.graph, [a],
                                  blockers={"lane0": [(50.0 + 2.3 + 4.0, 60.0)]})
        nxt = step_agent(a, world, None, 0.0, 0.1)
        assert nxt.speed == 0.0
        assert nxt.s == 50.0

    def test_converges_to_lead_speed_and_equilibrium_gap(self):
        lead_speed = 4.5
        lead = replace(make_agent(self.graph, "lane0", 120.0, lead_speed),
                       v0=lead_speed)
        follower = replace(make_agent(self.graph, "lane0", 40.0, 12.0), v0=15.0)
        dt = 0.1
        for _ in range(900):
            world = single_lane_world(self.graph, [follower, lead])
            follower = step_agent(follower, world, None, 0.0, dt)
            lead = step_agent(lead, world, None, 0.0, dt)
        gap = lead.s - lead.length / 2.0 - (follower.s + follower.length / 2.0)
        assert follower.speed == pytest.approx(lead_speed, rel=0.01)
        expected = IDM_S0 + follower.speed * IDM_T
        assert gap == pytest.approx(expected, rel=0.01)

    def test_follows_successor(self):
        segs_graph = parallel_graph(1, length=100.0)
        # splice a successor manually
        from drivebench.geometry import LaneGraph, LaneSegment
        a = LaneSegment("a", Polyline([[0.0, 0.0], [100.0, 0.0]]), 3.5, 13.9,
                        successors=["b"])
        b = LaneSegment("b", Polyline([[100.0, 0.0], [200.0, 0.0]]), 3.5, 13.9)
        area = [np.array([[-5, -3], [205, -3], [205, 3], [-5, 3]], dtype=float)]
        graph = LaneGraph([a, b], area)
        agent = replace(make_agent(graph, "a", 99.5, 10.0), v0=10.0)
        world = single_lane_world(graph, [agent])
        nxt = step_agent(agent, world, None, 0.0, 0.1)
        assert nxt.lane == "b"
        assert nxt.s == pytest.approx(0.5)

    def test_policy_tag_is_preserved(self):
        a = make_agent(self.graph, "lane0", 50.0, 10.0, policy="assertive")
        world = single_lane_world(self.graph, [a])
        for _ in range(50):
            a = step_agent(a, world, None, 0.0, 0.1)
            world = single_lane_world(self.graph, [a])
        assert a.policy == "assertive"


def replace_step_vehicle_agent(agent, lead, graph, dt):
    """Reference: step_vehicle_agent's former dataclasses.replace form."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if lead is None:
        a = idm_acceleration(agent.speed, None, None, agent.v0)
    else:
        v_lead, gap = lead
        a = idm_acceleration(agent.speed, v_lead, max(gap, 0.01), agent.v0)
    speed = max(0.0, agent.speed + a * dt)
    s = agent.s + speed * dt
    lane_id = agent.lane
    line = graph.lane(lane_id).centerline
    while s > line.length:
        succ = sorted(graph.lane(lane_id).successors)
        if not succ:
            break
        s -= line.length
        lane_id = succ[0]
        line = graph.lane(lane_id).centerline
    pose = lane_pose_oracle(graph, lane_id, s)
    box = OrientedBox(pose, agent.length, agent.width)
    return replace(agent, lane=lane_id, s=s, speed=speed, box=box)


def chained_graph(n, length):
    """n lanes of the given length end to end along the x axis, each the
    successor of the one before; the last has no successor."""
    segs = [LaneSegment(f"c{i}", Polyline([[i * length, 0.0],
                                           [(i + 1) * length, 0.0]]),
                        3.5, 13.9, successors=[f"c{i + 1}"] if i < n - 1 else [])
            for i in range(n)]
    area = [np.array([[-5, -3], [n * length + 5, -3], [n * length + 5, 3],
                      [-5, 3]], dtype=float)]
    return LaneGraph(segs, area)


class TestStepConstruction:
    def test_equals_replace_form(self):
        """Stepping the agent columns gives the former replace form's
        states, repr included: on random traffic worlds and on a chain of
        short lanes that agents cross one or more of per step, running off
        its unconnected end."""
        rng = np.random.default_rng(47)
        cases = []
        for _ in range(60):
            world, ego_box, ego_speed = random_traffic(rng)
            cases.append((world.graph, world.agents,
                          world_leads(world, ego_box, ego_speed)))
        chain = chained_graph(4, 6.0)
        agents = [make_agent(chain, f"c{int(rng.integers(4))}",
                             float(rng.uniform(0.0, 6.0)),
                             float(rng.uniform(0.0, 30.0)),
                             policy=("assertive", "conservative")[i % 2])
                  for i in range(200)]
        cases.append((chain, agents, [None] * len(agents)))
        wrapped = 0
        for graph, agents, leads in cases:
            for dt in (0.1, float(rng.uniform(0.05, 1.5))):
                got = step_vehicle_agent(traffic_of(agents), leads, graph, dt)
                want = traffic_of([replace_step_vehicle_agent(a, lead, graph, dt)
                                   for a, lead in zip(agents, leads)])
                assert got == want and repr(got) == repr(want)
                wrapped += sum(a.lane != lane for a, lane in zip(agents, got.lane))
        assert wrapped > 50

    def test_validation_still_runs(self):
        graph = parallel_graph(1, length=500.0)
        traffic = traffic_of([make_agent(graph, "lane0", 50.0, 10.0)])
        with pytest.raises(ValueError, match="speed must be >= 0"):
            replace(traffic, speed=[-0.1])
        traffic.policy[0] = "reckless"
        with pytest.raises(ValueError, match="unknown policy"):
            step_vehicle_agent(traffic, [None], graph, 0.1)


class TestPlatoonSafety:
    def test_conservative_platoon_never_collides(self):
        # follower spawned at the scenario spawn rule's equilibrium speed,
        # leader decelerating toward a random slower desired speed
        rng = np.random.default_rng(42)
        graph = parallel_graph(1, length=3000.0)
        for trial in range(1000):
            gap = float(rng.uniform(8.0, 100.0))
            limit = float(rng.uniform(8.0, 15.0))
            lead_v0 = float(rng.uniform(1.0, limit))
            v_f = min(limit, equilibrium_speed(gap, limit))
            # direct longitudinal integration (straight lane)
            s_f, s_l = 0.0, gap + 4.6
            v_l = limit
            dt = 0.1
            ok = True
            for _ in range(300):
                a_l = idm_acceleration(v_l, None, None, lead_v0)
                g = s_l - s_f - 4.6
                a_f = idm_acceleration(v_f, v_l, max(g, 0.01), limit)
                v_l = max(0.0, v_l + a_l * dt)
                v_f = max(0.0, v_f + a_f * dt)
                s_l += v_l * dt
                s_f += v_f * dt
                if s_l - s_f - 4.6 <= 0.0:
                    ok = False
                    break
            assert ok, f"trial {trial}: platoon collision (gap={gap}, limit={limit})"

    def test_platoon_through_full_agent_step(self):
        rng = np.random.default_rng(7)
        graph = parallel_graph(1, length=2000.0)
        for trial in range(40):
            gap = float(rng.uniform(8.0, 60.0))
            limit = float(rng.uniform(8.0, 15.0))
            lead_v0 = float(rng.uniform(1.0, limit))
            follower = replace(make_agent(graph, "lane0", 30.0,
                                          min(limit, equilibrium_speed(gap, limit))),
                               v0=limit)
            lead = replace(make_agent(graph, "lane0", 30.0 + gap + 4.6, limit),
                           v0=lead_v0)
            for _ in range(300):
                world = single_lane_world(graph, [follower, lead])
                follower = step_agent(follower, world, None, 0.0, 0.1)
                lead = step_agent(lead, world, None, 0.0, 0.1)
                assert not boxes_collide(follower.box, lead.box)


class TestPedestrian:
    def setup_method(self):
        self.graph = parallel_graph(1, length=300.0)
        self.path = Polyline([[100.0, -3.0], [100.0, 4.0]])  # 7 m crossing
        self.ped = PedestrianState(path=self.path, walk_speed=1.5,
                                   trigger_distance=30.0, lane="lane0")

    def at(self, x):
        """The ego frame of an ego centered at (x, 0)."""
        return EgoFrame(self.graph, (x, 0.0))

    def test_far_ego_keeps_waiting(self):
        p = step_pedestrian(self.ped, self.graph, self.at(50.0), 10.0, 0.1)
        assert p.phase == "waiting"

    def test_trigger_at_29m(self):
        p = step_pedestrian(self.ped, self.graph, self.at(71.0), 10.0, 0.1)
        assert p.phase == "crossing"

    def test_stopped_ego_does_not_trigger(self):
        p = step_pedestrian(self.ped, self.graph, self.at(71.0), 0.0, 0.1)
        assert p.phase == "waiting"

    def test_crossing_completes_within_path_time(self):
        p = step_pedestrian(self.ped, self.graph, self.at(71.0), 10.0, 0.1)
        t = 0.0
        while p.phase == "crossing":
            p = step_pedestrian(p, self.graph, self.at(71.0), 10.0, 0.1)
            t += 0.1
            assert t < 10.0
        assert p.phase == "done"
        assert t <= 7.0 / 1.5 + 0.2

    def test_phase_never_regresses(self):
        order = {"waiting": 0, "crossing": 1, "done": 2}
        rng = np.random.default_rng(3)
        p = self.ped
        prev = p.phase
        for _ in range(300):
            ego = self.at(float(rng.uniform(0, 200)))
            p = step_pedestrian(p, self.graph, ego, float(rng.uniform(0, 14)), 0.1)
            assert order[p.phase] >= order[prev]
            prev = p.phase


class TestLanePose:
    def test_extends_past_lane_end(self):
        graph = parallel_graph(1, length=100.0)
        pose = Pose2D(*graph.lane("lane0").centerline.place(110.0))
        assert pose.x == pytest.approx(110.0)
        assert pose.y == pytest.approx(0.0)


def random_traffic_past_ends(rng):
    """random_traffic's world, or one on a chain of four 40 m lanes whose
    first lane has two successors (listed out of id order) and whose last
    has none; 1-3 more agents stand up to 20 m before a lane's start or
    past its end."""
    if rng.random() < 0.5:
        world, ego_box, ego_speed = random_traffic(rng)
    else:
        graph = chained_graph(4, 40.0)
        graph.lane("c0").successors.insert(0, "c2")
        agents = [make_agent(graph, f"c{int(rng.integers(4))}",
                             float(rng.uniform(0.0, 40.0)),
                             float(rng.uniform(0.0, 14.0)),
                             policy=("assertive", "conservative")[i % 2])
                  for i in range(int(rng.integers(0, 8)))]
        world = TrafficWorld(graph, agents, {"c3": [(30.0, 35.0)]})
        pose = Pose2D(float(rng.uniform(-10.0, 170.0)),
                      float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-0.3, 0.3)))
        ego_box = OrientedBox(pose, 4.6, 1.85) if rng.random() < 0.8 else None
        ego_speed = float(rng.uniform(0.0, 14.0))
    ids = sorted(world.graph.segments)
    for _ in range(int(rng.integers(1, 4))):
        lane_id = ids[int(rng.integers(len(ids)))]
        length = world.graph.lane(lane_id).centerline.length
        over = float(rng.uniform(0.0, 20.0))
        world.agents.append(make_agent(
            world.graph, lane_id, -over if rng.random() < 0.5 else length + over,
            float(rng.uniform(0.0, 14.0)),
            policy="assertive" if rng.random() < 0.5 else "conservative"))
    return world, ego_box, ego_speed


def assert_same(got, want):
    assert got == want and repr(got) == repr(want)


class TestTrafficColumns:
    """The agent columns give the former per-agent path's leads and states
    bit for bit (repr included)."""

    def test_equal_former_path_on_suite(self, monkeypatch):
        """At every tick of every seed-2024 scenario with traffic, closed
        loop under the idm planner."""
        from drivebench import simulation
        from drivebench.planners import IdmPlanner
        from drivebench.scenarios import generate_benchmark_suite

        seen = []

        def lead_spy(traffic, graph, spans, peds, ego_box, ego_speed, frame):
            got = select_lead(traffic, graph, spans, peds, ego_box, ego_speed,
                              frame)
            assert_same(got, select_lead_oracle(agents_of(traffic), graph, spans,
                                                peds, ego_box, ego_speed))
            return got

        def step_spy(traffic, leads, graph, dt):
            got = step_vehicle_agent(traffic, leads, graph, dt)
            assert_same(got, traffic_of([
                step_agent_oracle(a, lead, graph, dt)
                for a, lead in zip(agents_of(traffic), leads)]))
            seen.append(sum(not 0.0 <= s <= graph.lane(lane).centerline.length
                            for lane, s in zip(got.lane, got.s)))
            return got

        monkeypatch.setattr(simulation, "select_lead", lead_spy)
        monkeypatch.setattr(simulation, "step_vehicle_agent", step_spy)
        specs = [s for s in generate_benchmark_suite(2024) if s.agents]
        for spec in specs:
            simulation.run_closed_loop(spec, IdmPlanner())
        assert len(specs) == 39 and len(seen) == 39 * 150
        assert sum(seen) > 10000   # agent steps past a lane's end

    def test_equal_former_path_on_random_worlds(self):
        """For 20 ticks of 300 random worlds, with lanes that have
        successors and agents past both ends."""
        rng = np.random.default_rng(2024)
        hops = before = after = 0
        for _ in range(300):
            world, ego_box, ego_speed = random_traffic_past_ends(rng)
            graph, oracle = world.graph, list(world.agents)
            traffic = traffic_of(oracle)
            for _ in range(20):
                args = (graph, world.lane_blockers, world.pedestrians, ego_box,
                        ego_speed)
                leads = select_lead(traffic, *args, frame_of(graph, ego_box))
                assert_same(leads, select_lead_oracle(oracle, *args))
                stepped = step_vehicle_agent(traffic, leads, graph, 0.1)
                oracle = [step_agent_oracle(a, lead, graph, 0.1)
                          for a, lead in zip(oracle, leads)]
                assert_same(stepped, traffic_of(oracle))
                hops += sum(a != b for a, b in zip(traffic.lane, stepped.lane))
                before += sum(s < 0.0 for s in stepped.s)
                after += sum(s > graph.lane(lane).centerline.length
                             for lane, s in zip(stepped.lane, stepped.s))
                traffic = stepped
        assert hops > 100 and before > 1000 and after > 1000

    @settings(max_examples=300, deadline=None)
    @given(points=st.lists(st.tuples(st.floats(-100.0, 100.0),
                                     st.floats(-100.0, 100.0)),
                           min_size=2, max_size=8),
           d=st.one_of(st.just(0.0), st.just(-0.0), st.floats(-5.0, 5.0)),
           over=st.floats(1e-12, 50.0))
    def test_place_equals_lane_pose(self, points, d, over):
        """Polyline.place, and the Pose2D its callers build from it, equal
        the former lane_pose at every cum_len entry and its nextafter
        neighbours, at 0 and length, and beyond both ends."""
        xy = np.array(points)
        if (np.hypot(*np.diff(xy, axis=0).T) <= 0).any():
            return
        line = Polyline(xy)
        area = np.array([[-200.0, -200.0], [200.0, -200.0], [200.0, 200.0],
                         [-200.0, 200.0]])
        graph = LaneGraph([LaneSegment("l", line, 3.5, 10.0)], [area])
        ss = [0.0, line.length, -over, line.length + over]
        for c in line.cum_len.tolist():
            ss += [c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf)]
        for s in ss:
            want = lane_pose_oracle(graph, "l", s, d)
            assert_same(line.place(s, d), (want.x, want.y, want.heading))
            assert_same(Pose2D(*line.place(s, d)), want)
