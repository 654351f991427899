import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import boxes_overlap_sampled, min_distance_to_polyline, sat_margin
from drivebench.geometry import (
    FrenetPoint,
    LaneGraph,
    LaneGraphError,
    LaneSegment,
    NoRoute,
    OrientedBox,
    Polyline,
    Pose2D,
    Route,
    boxes_collide,
    fraction_outside_drivable,
    lane_changes_required,
    points_in_polygon,
    shortest_route,
    wrap_angle,
)
from drivebench.scenarios import build_base_map


def straight_line(length=10.0):
    return Polyline([[0.0, 0.0], [length, 0.0]])


def arc_polyline(radius, sweep, n=200, ccw=True):
    """Circular arc centered at (0, radius) for ccw, starting east at origin."""
    ang = np.linspace(0.0, sweep, n)
    if ccw:
        x = radius * np.sin(ang)
        y = radius * (1.0 - np.cos(ang))
    else:
        x = radius * np.sin(ang)
        y = -radius * (1.0 - np.cos(ang))
    return Polyline(np.column_stack([x, y]))


def parallel_graph(n_lanes, length=100.0, width=3.5, speed_limit=13.9):
    """n parallel east-going lanes, lane0 rightmost (southmost)."""
    lanes = []
    for i in range(n_lanes):
        lanes.append(LaneSegment(
            id=f"lane{i}",
            centerline=Polyline([[0.0, i * width], [length, i * width]]),
            width=width,
            speed_limit=speed_limit,
            left_neighbor=f"lane{i + 1}" if i + 1 < n_lanes else None,
            right_neighbor=f"lane{i - 1}" if i > 0 else None,
        ))
    area = np.array([
        [-5.0, -width / 2 - 1.0],
        [length + 5.0, -width / 2 - 1.0],
        [length + 5.0, (n_lanes - 0.5) * width + 1.0],
        [-5.0, (n_lanes - 0.5) * width + 1.0],
    ])
    return LaneGraph(lanes, [area])


class TestProjection:
    def test_point_on_line_midway(self):
        line = straight_line(10.0)
        f = line.project((5.0, 0.0))
        assert f.s == pytest.approx(5.0)
        assert f.d == pytest.approx(0.0)

    def test_point_left_of_east_line(self):
        f = straight_line(10.0).project((5.0, 1.0))
        assert f.s == pytest.approx(5.0)
        assert f.d == pytest.approx(1.0)

    def test_point_right_is_negative(self):
        f = straight_line(10.0).project((5.0, -2.0))
        assert f.d == pytest.approx(-2.0)

    def test_point_past_final_vertex_clamps(self):
        pts = np.array([[0.0, 0.0], [4.0, 3.0], [8.0, 3.0]])
        line = Polyline(pts)
        p = (10.0, 4.0)
        f = line.project(p)
        s_ref, d_ref = min_distance_to_polyline(p, pts)
        assert f.s == pytest.approx(line.length)
        assert f.s == pytest.approx(s_ref, abs=1e-3)
        assert abs(f.d) == pytest.approx(d_ref, abs=1e-6)

    def test_matches_dense_sampling_on_arc(self):
        line = arc_polyline(30.0, 1.2)
        for p in [(5.0, 1.0), (20.0, 3.0), (-2.0, -1.0), (25.0, 20.0)]:
            f = line.project(p)
            s_ref, d_ref = min_distance_to_polyline(p, line.points, samples=200000)
            assert f.s == pytest.approx(s_ref, abs=2e-3)
            assert abs(f.d) == pytest.approx(d_ref, abs=1e-6)


class TestFrenetEmbedding:
    def test_start_of_line(self):
        pose = straight_line().interpolate(FrenetPoint(0.0, 0.0))
        assert (pose.x, pose.y) == (0.0, 0.0)
        assert pose.heading == pytest.approx(0.0)

    def test_straight_east_offset(self):
        pose = straight_line().interpolate(FrenetPoint(3.0, 2.0))
        assert pose.x == pytest.approx(3.0)
        assert pose.y == pytest.approx(2.0)
        assert pose.heading == pytest.approx(0.0)

    def test_arc_offset_lands_on_concentric_circle(self):
        r = 20.0
        line = arc_polyline(r, 1.5, n=2000)
        # ccw turn: center at (0, r); d=+1 is toward the center -> radius r-1
        pose = line.interpolate(FrenetPoint(15.0, 1.0))
        dist_to_center = math.hypot(pose.x - 0.0, pose.y - r)
        assert dist_to_center == pytest.approx(r - 1.0, abs=2e-4)

    def test_rejects_out_of_range_s(self):
        with pytest.raises(ValueError):
            straight_line(10.0).interpolate(FrenetPoint(11.0, 0.0))
        with pytest.raises(ValueError):
            straight_line(10.0).interpolate(FrenetPoint(-0.5, 0.0))

    @settings(max_examples=200, deadline=None)
    @given(
        s=st.floats(0.0, 1.0),
        d=st.floats(-2.0, 2.0),
        kind=st.sampled_from(["straight", "arc", "s_curve"]),
    )
    def test_round_trip(self, s, d, kind):
        if kind == "straight":
            line = straight_line(200.0)
        elif kind == "arc":
            line = arc_polyline(80.0, 1.0, n=400)
        else:
            a = arc_polyline(80.0, 0.5, n=200).points
            b = arc_polyline(80.0, 0.5, n=200, ccw=False).points
            # rotate the second arc to continue the end tangent of the first
            ang = math.atan2(a[-1][1] - a[-2][1], a[-1][0] - a[-2][0])
            c, si = math.cos(ang), math.sin(ang)
            rel = b[1:] - b[0]
            tail = rel @ np.array([[c, si], [-si, c]]) + a[-1]
            line = Polyline(np.vstack([a, tail]))
        # offset points near segment joints re-project with an error bounded
        # by |d| times the per-joint turn angle; exact recovery needs a
        # locally straight centerline
        turns = np.abs(np.diff(np.arctan2(line._dirs[:, 1], line._dirs[:, 0])))
        max_turn = float(turns.max()) if len(turns) else 0.0
        tol = 1e-6 + abs(d) * max_turn
        f_in = FrenetPoint(s * line.length, d)
        pose = line.interpolate(f_in)
        f_out = line.project((pose.x, pose.y))
        assert abs(f_out.s - f_in.s) < tol
        assert abs(f_out.d - f_in.d) < tol


class TestOrientedBoxCollision:
    def test_identical_boxes(self):
        b = OrientedBox(Pose2D(1.0, 2.0, 0.3), 4.0, 2.0)
        assert boxes_collide(b, b)

    def test_far_apart(self):
        a = OrientedBox(Pose2D(0.0, 0.0, 0.0), 5.0, 5.0)
        b = OrientedBox(Pose2D(100.0, 0.0, 0.0), 5.0, 5.0)
        assert not boxes_collide(a, b)

    def test_corner_graze_matches_oracle(self):
        # 45-degree box whose corner just reaches the other's edge
        a = OrientedBox(Pose2D(0.0, 0.0, 0.0), 4.0, 2.0)
        half_diag = math.hypot(1.0, 1.0)
        for eps, expected in [(-0.01, True), (0.01, False)]:
            b = OrientedBox(Pose2D(2.0 + half_diag + eps, 0.0, math.pi / 4), 2.0, 2.0)
            assert boxes_collide(a, b) is expected
            assert boxes_overlap_sampled(a, b) is expected

    def test_touching_counts_as_collision(self):
        a = OrientedBox(Pose2D(0.0, 0.0, 0.0), 4.0, 2.0)
        b = OrientedBox(Pose2D(4.0, 0.0, 0.0), 4.0, 2.0)
        assert boxes_collide(a, b)

    def test_symmetry_and_oracle_agreement_random(self):
        rng = np.random.default_rng(7)
        mismatches = []
        for _ in range(1000):
            a = OrientedBox(
                Pose2D(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi)),
                rng.uniform(1.0, 5.0), rng.uniform(0.8, 2.5))
            b = OrientedBox(
                Pose2D(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi)),
                rng.uniform(1.0, 5.0), rng.uniform(0.8, 2.5))
            got = boxes_collide(a, b)
            assert got == boxes_collide(b, a)
            if got != boxes_overlap_sampled(a, b):
                mismatches.append(abs(sat_margin(a, b)))
        assert all(m <= 1e-3 for m in mismatches)


class TestDrivableFraction:
    AREA = [np.array([[-50.0, -50.0], [50.0, -50.0], [50.0, 50.0], [-50.0, 50.0]])]

    def test_fully_inside(self):
        box = OrientedBox(Pose2D(0.0, 0.0, 0.7), 4.0, 2.0)
        assert fraction_outside_drivable(box, self.AREA) == 0.0

    def test_fully_outside(self):
        box = OrientedBox(Pose2D(200.0, 0.0, 0.0), 4.0, 2.0)
        assert fraction_outside_drivable(box, self.AREA) == 1.0

    def test_straddling_boundary_is_half(self):
        box = OrientedBox(Pose2D(50.0, 0.0, 0.0), 4.0, 2.0)
        assert fraction_outside_drivable(box, self.AREA) == pytest.approx(0.5, abs=0.02)

    def test_rotated_straddle(self):
        box = OrientedBox(Pose2D(0.0, 50.0, 1.1), 4.6, 1.8)
        assert fraction_outside_drivable(box, self.AREA) == pytest.approx(0.5, abs=0.02)


def points_in_polygon_scan(points, polygon):
    """Oracle: the even-odd rule evaluated against every edge of the polygon."""
    x = points[:, 0][:, None]
    y = points[:, 1][:, None]
    x0 = polygon[None, :, 0]
    y0 = polygon[None, :, 1]
    x1 = np.roll(polygon[:, 0], -1)[None, :]
    y1 = np.roll(polygon[:, 1], -1)[None, :]
    crosses = (y0 > y) != (y1 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_int = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
    hits = crosses & (x < x_int)
    return (hits.sum(axis=1) % 2) == 1


CONTAINMENT_POLYGONS = {
    # the curved construction map's drivable area, 280 vertices
    "annulus": build_base_map("curved", lanes=2, length=280.0,
                              radius=120.0).drivable_area[0],
    "rectangle": np.array([[-5.0, -2.75], [455.0, -2.75], [455.0, 6.25],
                           [-5.0, 6.25]]),
    # horizontal edges at four heights, vertex y values shared between
    # non-adjacent vertices, a collinear vertex and a reflex notch
    "comb": np.array([[0.0, 0.0], [4.0, 0.0], [10.0, 0.0], [10.0, 10.0],
                      [7.0, 10.0], [7.0, 4.0], [5.0, 4.0], [5.0, 7.0],
                      [3.0, 7.0], [3.0, 4.0], [1.5, 2.0], [1.5, 10.0],
                      [0.0, 10.0]]),
}


def boundary_points(polygon):
    """Every vertex, every edge midpoint and three points along each
    horizontal edge."""
    nxt = np.roll(polygon, -1, axis=0)
    flat = polygon[:, 1] == nxt[:, 1]
    along = [polygon[flat] + f * (nxt[flat] - polygon[flat])
             for f in (0.25, 1.0 / 3.0, 0.75)]
    return np.vstack([polygon, 0.5 * (polygon + nxt)] + along)


class TestPointsInPolygon:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(CONTAINMENT_POLYGONS)),
        unit=st.lists(st.tuples(st.floats(-0.1, 1.1), st.floats(-0.1, 1.1)),
                      min_size=1, max_size=200),
        snap=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                                st.floats(-0.1, 1.1)), max_size=40),
    )
    def test_matches_scan_oracle(self, name, unit, snap):
        polygon = CONTAINMENT_POLYGONS[name]
        lo, hi = polygon.min(axis=0), polygon.max(axis=0)
        random_pts = lo + np.array(unit) * (hi - lo)
        # random x on the height of a vertex, and a vertex's x at random y
        n = len(polygon)
        on_vertex_y = [[lo[0] + u * (hi[0] - lo[0]), polygon[i % n, 1]]
                       for i, _, u in snap]
        on_vertex_x = [[polygon[j % n, 0], lo[1] + u * (hi[1] - lo[1])]
                       for _, j, u in snap]
        nan = np.nan
        points = np.vstack([random_pts, boundary_points(polygon),
                            np.reshape(on_vertex_y + on_vertex_x, (-1, 2)),
                            [[nan, 0.5 * (lo[1] + hi[1])],
                             [0.5 * (lo[0] + hi[0]), nan], [nan, nan]]])
        got = points_in_polygon(points, polygon)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, points_in_polygon_scan(points, polygon))

    def test_boundary_rule_on_a_rectangle(self):
        rect = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]])
        pts = np.array([[2.0, 1.0], [2.0, 0.0], [0.0, 1.0], [2.0, 2.0],
                        [4.0, 1.0], [0.0, 0.0], [5.0, 1.0], [2.0, -1e-9]])
        np.testing.assert_array_equal(
            points_in_polygon(pts, rect),
            [True, True, True, False, False, True, False, False])

    def test_no_points(self):
        poly = CONTAINMENT_POLYGONS["comb"]
        assert points_in_polygon(np.zeros((0, 2)), poly).shape == (0,)


class TestLaneGraph:
    def test_asymmetric_neighbors_rejected(self):
        a = LaneSegment("a", straight_line(), 3.5, 13.9, left_neighbor="b")
        b = LaneSegment("b", Polyline([[0.0, 3.5], [10.0, 3.5]]), 3.5, 13.9)
        area = [np.array([[-1, -3], [11, -3], [11, 7], [-1, 7]], dtype=float)]
        with pytest.raises(LaneGraphError):
            LaneGraph([a, b], area)

    def test_unknown_reference_rejected(self):
        a = LaneSegment("a", straight_line(), 3.5, 13.9, successors=["ghost"])
        area = [np.array([[-1, -3], [11, -3], [11, 3], [-1, 3]], dtype=float)]
        with pytest.raises(LaneGraphError):
            LaneGraph([a], area)

    def test_corridor_outside_area_rejected(self):
        a = LaneSegment("a", straight_line(), 3.5, 13.9)
        area = [np.array([[-1, -0.5], [11, -0.5], [11, 0.5], [-1, 0.5]], dtype=float)]
        with pytest.raises(LaneGraphError):
            LaneGraph([a], area)
        # a 3.5 m lane on a 120 m radius arc fits an annulus 4 m wide, not 2 m
        phi = np.linspace(0.0, 1.5, 80)
        arc = LaneSegment("arc", Polyline(np.column_stack(
            [120.0 * np.sin(phi), 120.0 - 120.0 * np.cos(phi)])), 3.5, 13.9)

        def annulus(half_width):
            phi = np.linspace(-0.03, 1.53, 80)
            r_out, r_in = 120.0 + half_width, 120.0 - half_width
            outer = np.column_stack([r_out * np.sin(phi), 120.0 - r_out * np.cos(phi)])
            inner = np.column_stack([r_in * np.sin(phi), 120.0 - r_in * np.cos(phi)])
            return [np.vstack([outer, inner[::-1]])]

        LaneGraph([arc], annulus(2.0))
        with pytest.raises(LaneGraphError):
            LaneGraph([arc], annulus(1.0))

    def test_nearest_lane(self):
        g = parallel_graph(3)
        assert g.nearest_lane((50.0, 0.2)) == "lane0"
        assert g.nearest_lane((50.0, 6.9)) == "lane2"


class TestRouting:
    def test_start_equals_goal(self):
        g = parallel_graph(2)
        r = shortest_route(g, "lane0", "lane0", Pose2D(90.0, 0.0, 0.0))
        assert r.lane_sequence == ("lane0",)
        assert lane_changes_required(r, g) == 0

    def test_three_changes_across_four_lanes(self):
        g = parallel_graph(4)
        r = shortest_route(g, "lane0", "lane3", Pose2D(90.0, 10.5, 0.0))
        assert lane_changes_required(r, g) == 3
        r.validate(g)

    def test_disconnected_graph(self):
        a = LaneSegment("a", straight_line(), 3.5, 13.9)
        b = LaneSegment("b", Polyline([[0.0, 30.0], [10.0, 30.0]]), 3.5, 13.9)
        area = [
            np.array([[-1, -3], [11, -3], [11, 3], [-1, 3]], dtype=float),
            np.array([[-1, 27], [11, 27], [11, 33], [-1, 33]], dtype=float),
        ]
        g = LaneGraph([a, b], area)
        with pytest.raises(NoRoute):
            shortest_route(g, "a", "b", Pose2D(5.0, 30.0, 0.0))

    def test_successor_chain_costs_nothing(self):
        segs = [
            LaneSegment("a", straight_line(), 3.5, 13.9, successors=["b"]),
            LaneSegment("b", Polyline([[10.0, 0.0], [20.0, 0.0]]), 3.5, 13.9),
        ]
        area = [np.array([[-1, -3], [21, -3], [21, 3], [-1, 3]], dtype=float)]
        g = LaneGraph(segs, area)
        r = shortest_route(g, "a", "b", Pose2D(19.0, 0.0, 0.0))
        assert r.lane_sequence == ("a", "b")
        assert lane_changes_required(r, g) == 0

    def test_alternating_route_counts_neighbor_hops(self):
        # a -> b by successor, b -> c by neighbor, c -> d by successor, d -> e neighbor
        segs = [
            LaneSegment("a", straight_line(), 3.5, 13.9, successors=["b"]),
            LaneSegment("b", Polyline([[10.0, 0.0], [20.0, 0.0]]), 3.5, 13.9,
                        left_neighbor="c"),
            LaneSegment("c", Polyline([[10.0, 3.5], [20.0, 3.5]]), 3.5, 13.9,
                        right_neighbor="b", successors=["d"]),
            LaneSegment("d", Polyline([[20.0, 3.5], [30.0, 3.5]]), 3.5, 13.9,
                        left_neighbor="e"),
            LaneSegment("e", Polyline([[20.0, 7.0], [30.0, 7.0]]), 3.5, 13.9,
                        right_neighbor="d"),
        ]
        area = [np.array([[-1, -3], [31, -3], [31, 10], [-1, 10]], dtype=float)]
        g = LaneGraph(segs, area)
        r = Route(("a", "b", "c", "d", "e"), Pose2D(29.0, 7.0, 0.0))
        r.validate(g)
        assert lane_changes_required(r, g) == 2

    def test_minimality_vs_exhaustive(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            n = int(rng.integers(2, 5))
            rows = int(rng.integers(1, 3))
            # grid of lanes: rows x n, successors left-to-right, neighbors up-down
            segs = {}
            for r_i in range(rows):
                for c_i in range(n):
                    lid = f"l{r_i}{c_i}"
                    segs[lid] = LaneSegment(
                        lid,
                        Polyline([[c_i * 10.0, r_i * 3.5], [(c_i + 1) * 10.0, r_i * 3.5]]),
                        3.5, 13.9,
                        successors=[f"l{r_i}{c_i + 1}"] if c_i + 1 < n else [],
                        left_neighbor=f"l{r_i + 1}{c_i}" if r_i + 1 < rows else None,
                        right_neighbor=f"l{r_i - 1}{c_i}" if r_i > 0 else None,
                    )
            area = [np.array([[-1, -3], [n * 10 + 1, -3],
                              [n * 10 + 1, rows * 3.5 + 3], [-1, rows * 3.5 + 3]])]
            g = LaneGraph(list(segs.values()), area)
            ids = sorted(segs)
            start = ids[int(rng.integers(len(ids)))]
            goal = ids[int(rng.integers(len(ids)))]
            goal_pose = segs[goal].centerline.interpolate(
                FrenetPoint(5.0, 0.0))
            try:
                route = shortest_route(g, start, goal, goal_pose)
            except NoRoute:
                assert not _reachable(g, start, goal)
                continue
            best = _exhaustive_min_changes(g, start, goal)
            assert lane_changes_required(route, g) == best
            route.validate(g)


def _reachable(g, start, goal):
    seen, stack = set(), [start]
    while stack:
        cur = stack.pop()
        if cur == goal:
            return True
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(g.lane(cur).successors)
        stack.extend(g.neighbors(cur))
    return False


def _exhaustive_min_changes(g, start, goal):
    """DFS over all simple paths, tracking minimal neighbor-hop count."""
    best = [math.inf]

    def walk(lane, changes, visited):
        if changes >= best[0]:
            return
        if lane == goal:
            best[0] = changes
            return
        for nxt in g.lane(lane).successors:
            if nxt not in visited:
                walk(nxt, changes, visited | {nxt})
        for nxt in g.neighbors(lane):
            if nxt not in visited:
                walk(nxt, changes + 1, visited | {nxt})

    walk(start, 0, {start})
    return best[0]


class TestAngles:
    @given(st.floats(-50.0, 50.0))
    def test_wrap_angle_range(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
