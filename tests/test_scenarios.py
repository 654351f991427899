import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    box_lane_span_oracle,
    boxes_collide_oracle,
    corridor_passable,
    straight_offset_path_clear,
)
from drivebench.geometry import (
    OrientedBox,
    Polyline,
    Pose2D,
    boxes_collide,
    lane_changes_required,
    wrap_angle,
)
from drivebench.scenarios import (
    LANE_CHANGE_TYPES,
    LANE_WIDTH,
    MIN_SPAWN_GAP,
    MalformedScenarioError,
    ObstacleSpec,
    ObstacleTable,
    PedestrianSpec,
    PolicyMode,
    Rng,
    ScenarioError,
    ScenarioType,
    SchemaVersionError,
    TrafficDensity,
    VehicleAgentSpec,
    assign_policies,
    augment_goal_for_lane_changes,
    base_scenario,
    build_base_map,
    generate_benchmark_suite,
    load_scenario,
    merge_spans,
    place_accident_site,
    place_construction_zone,
    place_jaywalker,
    place_parked_vehicle,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    scenario_to_json,
    spawn_traffic,
)

IN_LANE_OFFSETS = np.linspace(-LANE_WIDTH / 2, LANE_WIDTH / 2, 15)


def obstacle_boxes(spec):
    return [o.box for o in spec.obstacles]


def obstacle_span(spec, lane_id="lane0"):
    spans = ObstacleTable(spec.graph, spec.obstacles).blocking_spans[lane_id]
    return min(s for s, _ in spans) - 10.0, max(f for _, f in spans) + 10.0


class TestBuildBaseMap:
    def test_straight_four_lane_spacing(self):
        g = build_base_map("straight_multilane", lanes=4, lane_width=3.5, length=300.0)
        assert len(g.segments) == 4
        ys = sorted(g.lane(f"lane{i}").centerline.points[0][1] for i in range(4))
        assert np.allclose(np.diff(ys), 3.5)
        assert g.lane("lane0").left_neighbor == "lane1"
        assert g.lane("lane3").left_neighbor is None

    def test_two_way_has_one_opposing_unlinked_lane(self):
        g = build_base_map("two_way", lanes=1, length=300.0)
        assert set(g.segments) == {"lane0", "oncoming0"}
        on = g.lane("oncoming0")
        assert on.left_neighbor is None and on.right_neighbor is None
        assert g.lane("lane0").left_neighbor is None
        h_fwd = g.lane("lane0").centerline.tangent_at(10.0)
        h_on = on.centerline.tangent_at(10.0)
        assert math.cos(h_fwd - h_on) < -0.99

    def test_curved_arclength_matches_formula(self):
        radius, length = 80.0, 200.0
        g = build_base_map("curved", lanes=2, length=length, radius=radius)
        sweep = length / radius
        assert g.lane("lane0").centerline.length == pytest.approx(
            radius * sweep, rel=1e-3)
        assert g.lane("lane1").centerline.length == pytest.approx(
            (radius - 3.5) * sweep, rel=1e-3)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ScenarioError):
            build_base_map("straight_multilane", lanes=0, length=300.0)
        with pytest.raises(ScenarioError):
            build_base_map("straight_multilane", lanes=2, length=100.0)
        with pytest.raises(ScenarioError):
            build_base_map("straight_multilane", lanes=2, lane_width=-1.0, length=300.0)


def fresh_spec(kind="straight_multilane", lanes=2, stype=ScenarioType.CONSTRUCTION,
               speed=10.0, length=450.0):
    g = build_base_map(kind, lanes=lanes, length=length)
    return base_scenario(stype, g, "lane0", ego_s=20.0, ego_speed=speed, seed=1)


class TestConstructionZone:
    def test_blocks_ego_lane(self):
        spec = place_construction_zone(fresh_spec(), start_s=60.0, zone_length=15.0)
        cones = [o for o in spec.obstacles if o.kind == "cone"]
        assert len(cones) >= 4
        lo, hi = obstacle_span(spec)
        assert not corridor_passable(spec.graph, "lane0", obstacle_boxes(spec),
                                     IN_LANE_OFFSETS, lo, hi)

    def test_left_lane_remains_free(self):
        spec = place_construction_zone(fresh_spec(), start_s=60.0, zone_length=15.0)
        lo, hi = obstacle_span(spec)
        assert straight_offset_path_clear(spec.graph, "lane1", obstacle_boxes(spec),
                                          0.0, lo, hi)

    def test_zone_behind_ego_rejected(self):
        with pytest.raises(ScenarioError):
            place_construction_zone(fresh_spec(), start_s=20.0, zone_length=10.0)


class TestParkedVehicle:
    def test_nudge_clears_at_one_meter_offset(self):
        spec = place_parked_vehicle(fresh_spec(lanes=1), "nudge", at_s=90.0,
                                    encroachment=1.4)
        box = spec.obstacles[0].box
        lo, hi = obstacle_span(spec)
        # the +1.0 m offset path stays clear with >= 0.3 m to spare
        assert straight_offset_path_clear(
            spec.graph, "lane0", [box], 1.0, lo, hi, ego_width=1.85 + 0.6)

    def test_nudge_blocks_centerline(self):
        spec = place_parked_vehicle(fresh_spec(lanes=1), "nudge", at_s=90.0,
                                    encroachment=1.4)
        lo, hi = obstacle_span(spec)
        assert not straight_offset_path_clear(spec.graph, "lane0",
                                              obstacle_boxes(spec), 0.0, lo, hi)

    def test_overtake_blocks_all_in_lane_paths(self):
        spec = place_parked_vehicle(fresh_spec(kind="two_way", lanes=1),
                                    "overtake", at_s=90.0)
        lo, hi = obstacle_span(spec)
        assert not corridor_passable(spec.graph, "lane0", obstacle_boxes(spec),
                                     IN_LANE_OFFSETS, lo, hi)

    def test_overtake_requires_oncoming_lane(self):
        with pytest.raises(ScenarioError):
            place_parked_vehicle(fresh_spec(lanes=2), "overtake", at_s=90.0)

    @pytest.mark.parametrize("variant", ["nudge", "overtake"])
    def test_rejects_s_past_lane_end(self, variant):
        """A ScenarioError, so a ValueError, for s just past the lane's
        end; s at the end is placed."""
        spec = fresh_spec(kind="two_way", lanes=1)
        end = spec.graph.lane("lane0").centerline.length
        place_parked_vehicle(spec, variant, at_s=end)
        with pytest.raises(ValueError, match="outside") as err:
            place_parked_vehicle(spec, variant, at_s=math.nextafter(end, 500.0))
        assert err.type is ScenarioError


class TestAccidentSite:
    @pytest.mark.parametrize("pattern", ["rear_end", "crossing"])
    def test_boxes_intersect_and_block(self, pattern):
        spec = place_accident_site(fresh_spec(), at_s=90.0, pattern=pattern)
        a, b = [o.box for o in spec.obstacles if o.kind == "crashed_vehicle"]
        assert boxes_collide(a, b)
        lo, hi = obstacle_span(spec)
        assert not corridor_passable(spec.graph, "lane0", obstacle_boxes(spec),
                                     IN_LANE_OFFSETS, lo, hi)

    def test_crossing_headings_differ_about_90deg(self):
        spec = place_accident_site(fresh_spec(), at_s=90.0, pattern="crossing")
        a, b = [o.box for o in spec.obstacles]
        diff = abs(wrap_angle(a.center.heading - b.center.heading))
        assert math.radians(55) < diff < math.radians(125)

    @pytest.mark.parametrize("pattern", ["rear_end", "crossing"])
    def test_rejects_second_vehicle_past_lane_end(self, pattern):
        """The second vehicle lies ahead of at_s; placing it past the lane's
        end raises a ScenarioError."""
        spec = fresh_spec()
        end = spec.graph.lane("lane0").centerline.length
        with pytest.raises(ScenarioError, match="outside"):
            place_accident_site(spec, at_s=end - 1.0, pattern=pattern)

    def test_needs_second_lane(self):
        g = build_base_map("straight_multilane", lanes=1, length=450.0)
        spec = base_scenario(ScenarioType.ACCIDENT, g, "lane0", 40.0, 10.0, seed=1)
        with pytest.raises(ScenarioError):
            place_accident_site(spec, at_s=90.0, pattern="rear_end")


def overlap_oracle(spec):
    """Reference: the former double loop of ScenarioSpec.validate over the
    ego, agent, obstacle and pedestrian boxes with the scalar box test, as
    the message of the first overlapping pair, or None."""
    boxes = [("ego", spec.ego_box())]
    boxes += [("agent", spec.agent_box(a)) for a in spec.agents]
    boxes += [(o.kind, o.box) for o in spec.obstacles]
    for ped in spec.pedestrians:
        p = Pose2D(*ped.path.place(0.0))
        boxes.append(("pedestrian", OrientedBox(p, 0.6, 0.6)))
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if boxes[i][0] == "crashed_vehicle" \
                    and boxes[j][0] == "crashed_vehicle":
                continue
            if boxes_collide_oracle(boxes[i][1], boxes[j][1]):
                return f"initial overlap between {boxes[i][0]} and {boxes[j][0]}"
    return None


def validate_message(spec):
    """The ScenarioError message of spec.validate(), or None."""
    try:
        spec.validate()
    except ScenarioError as e:
        return str(e)
    return None


def obstacle_at(spec, kind, lane, s, d=0.0, turn=0.0, size=(0.4, 0.4)):
    x, y, heading = spec.graph.lane(lane).centerline.place(s, d)
    return ObstacleSpec(kind, OrientedBox(Pose2D(x, y, heading + turn), *size),
                        lane)


def pedestrian_at(spec, lane, s, d=0.0):
    x, y, _ = spec.graph.lane(lane).centerline.place(s, d)
    return PedestrianSpec(Polyline([[x, y], [x, y + 8.0]]), 30.0)


class TestValidateOverlap:
    """validate rejects the first overlapping pair in row-major order over
    ego, agents, obstacles and pedestrians, with the message of the former
    pair loop, and skips pairs of two crashed vehicles."""

    MESSAGES = {
        "ego_agent": "initial overlap between ego and agent",
        "agent_obstacle": "initial overlap between agent and cone",
        "obstacle_pedestrian":
            "initial overlap between parked_vehicle and pedestrian",
    }

    @pytest.mark.parametrize("case", sorted(MESSAGES))
    def test_rejects_overlap(self, case):
        spec = fresh_spec()   # ego on lane0 at s = 20
        far = [VehicleAgentSpec("lane1", 150.0, 5.0)]
        agents, obstacles, peds = far, [], []
        if case == "ego_agent":
            agents = far + [VehicleAgentSpec("lane0", 23.0, 5.0)]
        elif case == "agent_obstacle":
            agents = far + [VehicleAgentSpec("lane1", 60.0, 5.0)]
            obstacles = [obstacle_at(spec, "cone", "lane1", 61.5, 0.5)]
        else:
            obstacles = [obstacle_at(spec, "parked_vehicle", "lane0", 80.0,
                                     size=(4.6, 1.85)),
                         obstacle_at(spec, "cone", "lane0", 100.0)]
            peds = [pedestrian_at(spec, "lane0", 81.0, 0.5)]
        spec = replace(spec, agents=agents, obstacles=obstacles,
                       pedestrians=peds)
        message = self.MESSAGES[case]
        assert overlap_oracle(spec) == message
        assert validate_message(spec) == message

    @pytest.mark.parametrize("pattern", ["rear_end", "crossing"])
    def test_accepts_crashed_pair(self, pattern):
        """Two intersecting crashed vehicles pass alone and with a third
        box, a third crashed vehicle on both of them included; a cone on
        one of them is rejected."""
        spec = place_accident_site(fresh_spec(), at_s=90.0, pattern=pattern)
        a, b = [o for o in spec.obstacles if o.kind == "crashed_vehicle"]
        assert boxes_collide_oracle(a.box, b.box)
        third = [
            dict(agents=[VehicleAgentSpec("lane1", 120.0, 5.0)]),
            dict(obstacles=spec.obstacles
                 + (obstacle_at(spec, "cone", "lane0", 110.0),)),
            dict(pedestrians=[pedestrian_at(spec, "lane0", 70.0)]),
            dict(obstacles=spec.obstacles + (ObstacleSpec(
                "crashed_vehicle", OrientedBox(
                    Pose2D((a.box.center.x + b.box.center.x) / 2.0,
                           (a.box.center.y + b.box.center.y) / 2.0, 0.4),
                    4.6, 1.85), "lane0"),)),
        ]
        for extra in [{}] + third:
            placed = replace(spec, **extra)
            assert overlap_oracle(placed) is None
            placed.validate()
        cone = ObstacleSpec("cone", OrientedBox(a.box.center, 0.4, 0.4),
                            "lane0")
        placed = replace(spec, obstacles=spec.obstacles + (cone,))
        message = "initial overlap between crashed_vehicle and cone"
        assert overlap_oracle(placed) == message
        assert validate_message(placed) == message

    def test_random_scenes_match_oracle(self):
        """Crowded random scenes around the ego: the same first pair, or
        none, as the former loop."""
        rng = np.random.default_rng(41)
        base = fresh_spec()
        kinds = ("cone", "parked_vehicle", "crashed_vehicle", "stopped_bus")
        sizes = {"cone": (0.4, 0.4), "parked_vehicle": (4.6, 1.85),
                 "crashed_vehicle": (4.6, 1.85), "stopped_bus": (12.0, 2.5)}
        seen = {}

        def lanes(n):
            return rng.choice(["lane0", "lane1"], n).tolist()

        for _ in range(300):
            agents = [VehicleAgentSpec(lane, float(rng.uniform(25.0, 70.0)),
                                       5.0)
                      for lane in lanes(int(rng.integers(0, 4)))]
            obstacles = []
            for lane in lanes(int(rng.integers(0, 5))):
                kind = str(rng.choice(kinds))
                obstacles.append(obstacle_at(
                    base, kind, lane, float(rng.uniform(25.0, 70.0)),
                    float(rng.uniform(-1.0, 1.0)),
                    float(rng.uniform(-0.5, 0.5)), sizes[kind]))
            peds = [pedestrian_at(base, lane, float(rng.uniform(25.0, 70.0)),
                                  float(rng.uniform(-2.0, 2.0)))
                    for lane in lanes(int(rng.integers(0, 3)))]
            spec = replace(base, agents=agents, obstacles=obstacles,
                           pedestrians=peds)
            want = overlap_oracle(spec)
            assert validate_message(spec) == want
            seen[want] = seen.get(want, 0) + 1
        assert seen.get(None, 0) > 30
        assert len(seen) > 10


class TestJaywalker:
    def test_reaction_precondition_holds(self):
        # stopping distance at 10 m/s with 4 m/s^2 braking = 12.5 m < 30 m
        spec = place_jaywalker(fresh_spec(lanes=1, speed=10.0), bus_stop_s=90.0,
                               trigger_distance=30.0)
        assert len(spec.pedestrians) == 1
        assert any(o.kind == "stopped_bus" for o in spec.obstacles)

    def test_insufficient_trigger_rejected(self):
        # stopping distance at 15 m/s = 28.1 m > 5 m
        with pytest.raises(ScenarioError):
            place_jaywalker(fresh_spec(lanes=1, speed=15.0), bus_stop_s=90.0,
                            trigger_distance=5.0)

    def test_rejects_crossing_past_lane_end(self):
        """The crossing lies ahead of the bus stop; placing it past the
        lane's end raises a ScenarioError."""
        spec = fresh_spec(lanes=1, speed=10.0)
        end = spec.graph.lane("lane0").centerline.length
        with pytest.raises(ScenarioError, match="outside"):
            place_jaywalker(spec, bus_stop_s=end - 1.0, trigger_distance=30.0)

    def test_path_crosses_lane_centerline(self):
        spec = place_jaywalker(fresh_spec(lanes=1, speed=10.0), bus_stop_s=90.0,
                               trigger_distance=30.0)
        path = spec.pedestrians[0].path
        ys = path.points[:, 1]
        assert ys.min() < 0.0 < ys.max()

    def test_bus_stays_out_of_swept_band(self):
        spec = place_jaywalker(fresh_spec(lanes=1, speed=10.0), bus_stop_s=90.0,
                               trigger_distance=30.0)
        assert "lane0" not in ObstacleTable(spec.graph,
                                            spec.obstacles).blocking_spans


class TestSpawnTraffic:
    def chain_gaps(self, spec, lane_id):
        """Bumper gaps between consecutive chain members (agents + ego +
        blockers) on one lane."""
        lane = spec.graph.lane(lane_id)
        members = []
        for a in spec.agents:
            if a.lane == lane_id:
                members.append((a.s - a.length / 2, a.s + a.length / 2))
        f = lane.centerline.project((spec.ego.pose.x, spec.ego.pose.y))
        if abs(f.d) < lane.width / 2:
            members.append((f.s - 2.3, f.s + 2.3))
        for near, far in ObstacleTable(spec.graph, spec.obstacles
                                       ).blocking_spans.get(lane_id, []):
            members.append((near, far))
        members.sort()
        return [b[0] - a[1] for a, b in zip(members, members[1:])]

    def test_htd_gaps_bounded(self):
        g = build_base_map("straight_multilane", lanes=1, length=200.0)
        spec = base_scenario(ScenarioType.LANE_CHANGE_HTD, g, "lane0", 60.0, 10.0, 3)
        spec = spawn_traffic(spec, TrafficDensity.htd(), Rng(3))
        gaps = self.chain_gaps(spec, "lane0")
        assert gaps, "no traffic spawned"
        assert all(g <= 33.0 + 1e-9 for g in gaps)
        assert all(g >= MIN_SPAWN_GAP - 1e-9 for g in gaps)

    def test_ltd_gaps_bounded(self):
        g = build_base_map("straight_multilane", lanes=2, length=400.0)
        spec = base_scenario(ScenarioType.LANE_CHANGE_LTD, g, "lane0", 60.0, 10.0, 5)
        spec = spawn_traffic(spec, TrafficDensity.ltd(), Rng(5))
        for lane_id in ("lane0", "lane1"):
            for gap in self.chain_gaps(spec, lane_id):
                assert MIN_SPAWN_GAP - 1e-9 <= gap <= 100.0 + 1e-9

    def test_deterministic_in_seed(self):
        g = build_base_map("straight_multilane", lanes=3, length=400.0)
        spec = base_scenario(ScenarioType.LANE_CHANGE_MTD, g, "lane0", 60.0, 10.0, 7)
        a = spawn_traffic(spec, TrafficDensity.mtd(), Rng(7))
        b = spawn_traffic(spec, TrafficDensity.mtd(), Rng(7))
        assert a.agents == b.agents

    def test_no_initial_overlaps(self):
        g = build_base_map("straight_multilane", lanes=3, length=400.0)
        spec = base_scenario(ScenarioType.LANE_CHANGE_HTD, g, "lane0", 60.0, 10.0, 11)
        spec = spawn_traffic(spec, TrafficDensity.htd(), Rng(11))
        spec.validate()

    def test_speeds_within_limit(self):
        g = build_base_map("straight_multilane", lanes=2, length=400.0)
        spec = base_scenario(ScenarioType.LANE_CHANGE_HTD, g, "lane0", 60.0, 10.0, 13)
        spec = spawn_traffic(spec, TrafficDensity.htd(), Rng(13))
        assert all(0.0 <= a.speed <= g.lane(a.lane).speed_limit for a in spec.agents)


class TestMergeSpans:
    @staticmethod
    def merge_scan(spans, gap):
        items = sorted(spans)
        out = [items[0]]
        for near, far in items[1:]:
            if near <= out[-1][1] + gap:
                out[-1] = (out[-1][0], max(out[-1][1], far))
            else:
                out.append((near, far))
        return out

    @staticmethod
    def first_cluster_scan(spans, gap):
        spans = sorted(spans)
        near, far = spans[0]
        for lo, hi in spans[1:]:
            if lo <= far + gap:
                far = max(far, hi)
        return near, far

    def test_equals_scan_loops(self):
        rng = np.random.default_rng(17)
        assert merge_spans([], 0.5) == []
        for _ in range(300):
            near = np.round(rng.uniform(0.0, 60.0, int(rng.integers(1, 9))), 1)
            spans = list(zip(near.tolist(),
                             (near + np.round(rng.uniform(0.0, 8.0, len(near)), 1)).tolist()))
            for gap in (0.0, 0.5, 6.0):
                merged = merge_spans(spans, gap)
                assert merged == self.merge_scan(spans, gap)
                assert merged[0] == self.first_cluster_scan(spans, gap)


class TestObstacleBand:
    """validate applies the lane's half width to the corner kernel's
    clamped row, as the former box_lane_span did."""

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_validate_band_edge(self, side):
        # a 0.5 m square whose near edge lies exactly on the lane edge
        # (1.75 m, every step dyadic), then moved out by one ulp of 2.0
        spec = fresh_spec(lanes=1)
        lane = spec.graph.lane("lane0")
        for y, ok in ((2.0, True), (np.nextafter(2.0, 3.0), False)):
            box = OrientedBox(Pose2D(150.0, side * y, 0.0), 0.5, 0.5)
            _, _, d_lo, d_hi = lane.centerline.box_extents(box)[0]
            edge = d_lo if side > 0 else -d_hi
            assert (edge == 1.75) if ok else (1.75 < edge < 1.7500001)
            assert (box_lane_span_oracle(box, lane, lane.width / 2.0)
                    is not None) == ok
            placed = replace(spec, obstacles=(ObstacleSpec("cone", box, "lane0"),))
            if ok:
                placed.validate()
            else:
                with pytest.raises(ScenarioError,
                                   match="^obstacle cone does not overlap lane lane0$"):
                    placed.validate()


class TestAssignPolicies:
    def make_traffic(self, seed=5):
        g = build_base_map("straight_multilane", lanes=4, length=400.0)
        spec = base_scenario(ScenarioType.LANE_CHANGE_LTD, g, "lane0", 60.0, 10.0, seed)
        return spawn_traffic(spec, TrafficDensity.htd(), Rng(seed))

    def test_conservative_tags_all(self):
        spec = assign_policies(self.make_traffic(), PolicyMode.CONSERVATIVE, Rng(1))
        assert all(a.policy == "conservative" for a in spec.agents)

    def test_mixed_reproducible(self):
        spec = self.make_traffic()
        a = assign_policies(spec, PolicyMode.MIXED, Rng(9))
        b = assign_policies(spec, PolicyMode.MIXED, Rng(9))
        assert [x.policy for x in a.agents] == [y.policy for y in b.agents]

    def test_mixed_fraction_near_half(self):
        # binomial bound over 1000 draws
        rng = Rng(123)
        n, assertive = 0, 0
        for batch in range(40):
            spec = assign_policies(self.make_traffic(seed=batch), PolicyMode.MIXED,
                                   rng.split(batch))
            n += len(spec.agents)
            assertive += sum(a.policy == "assertive" for a in spec.agents)
            if n >= 1000:
                break
        assert n >= 1000
        assert abs(assertive / n - 0.5) < 0.05


class TestGoalAugmentation:
    def test_three_changes_on_four_lanes(self):
        g = build_base_map("straight_multilane", lanes=4, length=400.0)
        spec = base_scenario(ScenarioType.LANE_CHANGE_LTD, g, "lane0", 60.0, 10.0, 1)
        spec = augment_goal_for_lane_changes(spec, 3)
        assert lane_changes_required(spec.route, spec.graph) == 3

    def test_zero_changes_keeps_single_lane(self):
        g = build_base_map("straight_multilane", lanes=4, length=400.0)
        spec = base_scenario(ScenarioType.LANE_CHANGE_LTD, g, "lane0", 60.0, 10.0, 1)
        spec = augment_goal_for_lane_changes(spec, 0)
        assert spec.route.lane_sequence == ("lane0",)

    def test_infeasible_count_rejected(self):
        g = build_base_map("straight_multilane", lanes=3, length=400.0)
        spec = base_scenario(ScenarioType.LANE_CHANGE_LTD, g, "lane0", 60.0, 10.0, 1)
        with pytest.raises(ScenarioError):
            augment_goal_for_lane_changes(spec, 5)


@pytest.fixture(scope="module")
def suite():
    return generate_benchmark_suite(2024)


class TestBenchmarkSuite:
    def test_suite_shape(self, suite):
        assert len(suite) == 80
        for stype in ScenarioType:
            assert sum(s.type is stype for s in suite) == 10

    def test_policy_split_per_density(self, suite):
        for stype in LANE_CHANGE_TYPES:
            subset = [s for s in suite if s.type is stype]
            modes = []
            for s in subset:
                tags = {a.policy for a in s.agents}
                modes.append("mixed" if len(tags) > 1 else tags.pop())
            assert modes.count("conservative") == 3
            assert modes.count("assertive") == 3
            assert modes.count("mixed") == 4

    def test_deterministic_suite(self, suite):
        again = generate_benchmark_suite(2024)
        assert [scenario_to_json(s) for s in suite] == \
               [scenario_to_json(s) for s in again]
        other = generate_benchmark_suite(99)
        assert [scenario_to_json(s) for s in suite] != \
               [scenario_to_json(s) for s in other]

    def test_all_specs_valid(self, suite):
        for spec in suite:
            spec.validate()

    def test_obstacle_families_block_the_lane(self, suite):
        for spec in suite:
            if spec.type not in (ScenarioType.CONSTRUCTION, ScenarioType.ACCIDENT,
                                 ScenarioType.OVERTAKE):
                continue
            lo, hi = obstacle_span(spec)
            assert not corridor_passable(
                spec.graph, "lane0", obstacle_boxes(spec), IN_LANE_OFFSETS, lo, hi), \
                f"{spec.type} scenario admits an in-lane pass"

    def test_nudge_family_passable_within_one_meter(self, suite):
        for spec in suite:
            if spec.type is not ScenarioType.NUDGE:
                continue
            lo, hi = obstacle_span(spec)
            assert corridor_passable(
                spec.graph, "lane0", obstacle_boxes(spec),
                [0.5, 0.75, 1.0], lo, hi), "nudge scenario is not passable"

    def test_lane_change_routes(self, suite):
        lc = [s for s in suite if s.type in LANE_CHANGE_TYPES]
        counts = [lane_changes_required(s.route, s.graph) for s in lc]
        assert all(c >= 1 for c in counts)
        assert 3 in counts

    def test_one_overtake_without_oncoming_traffic(self, suite):
        overtakes = [s for s in suite if s.type is ScenarioType.OVERTAKE]
        empty = [s for s in overtakes if not s.agents]
        assert len(empty) == 1


class TestSerialization:
    def test_round_trip_each_family(self, tmp_path):
        suite = generate_benchmark_suite(7)
        seen = set()
        for spec in suite:
            if spec.type in seen:
                continue
            seen.add(spec.type)
            p = tmp_path / f"{spec.type.value}.json"
            save_scenario(spec, p)
            loaded = load_scenario(p)
            assert loaded == spec

    def test_truncated_file_rejected(self, tmp_path):
        suite = generate_benchmark_suite(7)
        p = tmp_path / "s.json"
        save_scenario(suite[0], p)
        text = p.read_text()
        p.write_text(text[: len(text) // 2])
        with pytest.raises(MalformedScenarioError):
            load_scenario(p)

    def test_version_mismatch_rejected(self, tmp_path):
        suite = generate_benchmark_suite(7)
        data = scenario_to_dict(suite[0])
        data["version"] = "v0"
        p = tmp_path / "s.json"
        p.write_text(json.dumps(data))
        with pytest.raises(SchemaVersionError):
            load_scenario(p)

    @pytest.mark.parametrize("limit", [0.0, -5.0])
    def test_nonpositive_speed_limit_rejected(self, limit):
        data = scenario_to_dict(generate_benchmark_suite(7)[0])
        data["map"]["lanes"][0]["speed_limit"] = limit
        with pytest.raises(MalformedScenarioError):
            scenario_from_dict(data)

    def test_garbage_payload_rejected(self):
        with pytest.raises(MalformedScenarioError):
            scenario_from_dict({"version": "v1", "type": "construction"})
