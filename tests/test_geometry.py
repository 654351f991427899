import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    box_contacts_oracle,
    box_corners_batch_oracle,
    boxes_collide_batch_oracle,
    boxes_collide_oracle,
    boxes_overlap_sampled,
    min_distance_to_polyline,
    project_oracle,
    sat_margin,
)
from drivebench import geometry
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
    _box_corners_batch,
    box_contacts,
    boxes_collide,
    boxes_collide_batch,
    fraction_outside_drivable,
    lane_changes_required,
    points_in_polygon,
    shortest_route,
    wrap_angle,
    wrap_angles,
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


class TestScalarKernels:
    """Polyline's scalar kernels pick the same values as the numpy forms
    they replaced, bit for bit: _segment_index bisects a tuple of cum_len
    like np.searchsorted(cum_len, s, side="right"); project bounds the foot
    parameter with np.minimum/np.maximum like np.clip; interpolate,
    tangent_at and length read Python-float tuples where they indexed numpy
    arrays; interpolate_many bounds like np.clip."""

    @staticmethod
    def _lines():
        rng = np.random.default_rng(53)
        zigzag = np.cumsum(rng.uniform(0.1, 5.0, (40, 2)) * [1.0, 0.0]
                           + rng.normal(0.0, 2.0, (40, 2)) * [0.0, 1.0], axis=0)
        return [straight_line(10.0), arc_polyline(30.0, 1.2),
                Polyline([[0.0, 0.0], [4.0, 3.0], [8.0, 3.0]]),
                Polyline([[5.0, 5.0], [-3.0, 5.0], [-3.0, -7.0]]),
                Polyline(zigzag)]

    @staticmethod
    def _indexed_interpolate(line, s, d):
        """The former interpolate, indexing numpy arrays, as (x, y, h)."""
        length = float(line.cum_len[-1])
        if s < -1e-9 or s > length + 1e-9:
            raise ValueError(f"s={s} outside [0, {length}]")
        s = min(max(s, 0.0), length)
        i = line._segment_index(s)
        t = s - line.cum_len[i]
        dx, dy = line._dirs[i]
        base = line.points[i] + t * line._dirs[i]
        p = Pose2D(float(base[0] - dy * d), float(base[1] + dx * d),
                   math.atan2(dy, dx))
        return p.x, p.y, p.heading

    @staticmethod
    def _indexed_tangent_at(line, s):
        """The former tangent_at, indexing numpy arrays."""
        i = line._segment_index(min(max(s, 0.0), float(line.cum_len[-1])))
        return math.atan2(line._dirs[i, 1], line._dirs[i, 0])

    @staticmethod
    def _clip_interpolate_many(line, s, d):
        """The former interpolate_many, bounding with np.clip, with libm's
        atan2 per element in place of np.arctan2."""
        s_clamped = np.clip(s, 0.0, float(line.cum_len[-1]))
        idx = np.clip(np.searchsorted(line.cum_len, s_clamped, side="right") - 1,
                      0, len(line._seg_len) - 1)
        t = s - line.cum_len[idx]
        dirs = line._dirs[idx]
        base = line.points[idx] + t[..., None] * dirs
        return (base[..., 0] - dirs[..., 1] * d, base[..., 1] + dirs[..., 0] * d,
                np.frompyfunc(math.atan2, 2, 1)(
                    dirs[..., 1], dirs[..., 0]).astype(float))

    @staticmethod
    def _s_values(line, rng):
        cum = line.cum_len
        end = cum[-1]
        return np.concatenate((
            cum, np.nextafter(cum, np.inf), np.nextafter(cum, -np.inf),
            [0.0, -0.0, -1e-9, 1e-9, end - 1e-9, end + 1e-9,
             np.nextafter(-1e-9, 0.0), np.nextafter(end + 1e-9, end)],
            rng.uniform(0.0, end, 500)))

    def test_interpolate_and_tangent_equal_indexed_form(self):
        rng = np.random.default_rng(59)
        for line in self._lines():
            assert type(line.length) is float
            assert line.length == float(line.cum_len[-1])
            s_values = self._s_values(line, rng)
            d_values = np.concatenate(([0.0, -0.0, 1.75, -1.75],
                                       rng.uniform(-6.0, 6.0, len(s_values) - 4)))
            for s, d in zip(s_values.tolist(), d_values.tolist()):
                for dd in (d, 0.0):
                    p = line.interpolate_frenet(s, dd)
                    got = np.array([p.x, p.y, p.heading])
                    want = np.array(self._indexed_interpolate(line, s, dd))
                    assert got.tobytes() == want.tobytes(), (s, dd)
                got = np.array([line.tangent_at(s)])
                want = np.array([self._indexed_tangent_at(line, s)])
                assert got.tobytes() == want.tobytes(), s
            for s in (np.nan, -np.inf, np.inf, -5.0, line.length + 5.0):
                got = np.array([line.tangent_at(s)])
                want = np.array([self._indexed_tangent_at(line, s)])
                assert got.tobytes() == want.tobytes(), s

    def test_interpolate_out_of_range_error_unchanged(self):
        for line in self._lines():
            end = line.length
            for s in (np.nextafter(-1e-9, -np.inf), -1e-8, -1.0, -np.inf,
                      np.nextafter(end + 1e-9, np.inf), end + 1e-8, np.inf):
                with pytest.raises(ValueError) as got:
                    line.interpolate_frenet(s, 0.0)
                with pytest.raises(ValueError) as want:
                    self._indexed_interpolate(line, s, 0.0)
                assert str(got.value) == str(want.value)

    def test_interpolate_many_equals_clip_form(self):
        rng = np.random.default_rng(61)
        for line in self._lines():
            s = np.concatenate((self._s_values(line, rng),
                                [-5.0, line.length + 5.0, np.inf, -np.inf,
                                 np.nan]))
            d = rng.uniform(-6.0, 6.0, len(s))
            d[::7] = np.nan
            for shape in ((len(s),), (1, len(s))):
                with np.errstate(invalid="ignore"):  # inf * 0 past the ends
                    got = line.interpolate_many(s.reshape(shape),
                                                d.reshape(shape))
                    want = self._clip_interpolate_many(line, s.reshape(shape),
                                                       d.reshape(shape))
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    assert g.tobytes() == w.tobytes()

    @staticmethod
    def _clip_project(line, point):
        """The former project, with np.clip, as (s, d)."""
        p = np.asarray(point, dtype=float)
        starts = line.points[:-1]
        rel = p - starts
        t = np.einsum("ij,ij->i", rel, line._dirs)
        t = np.clip(t, 0.0, line._seg_len)
        diff = p - (starts + t[:, None] * line._dirs)
        dist = np.hypot(diff[:, 0], diff[:, 1])
        i = int(np.argmin(dist))
        cross = line._dirs[i, 0] * diff[i, 1] - line._dirs[i, 1] * diff[i, 0]
        return (float(line.cum_len[i] + t[i]),
                float(dist[i]) if cross >= 0 else -float(dist[i]))

    def test_segment_index_equals_searchsorted(self):
        rng = np.random.default_rng(17)
        for line in self._lines():
            cum = line.cum_len
            last = len(cum) - 2
            s_values = np.concatenate((
                cum, np.nextafter(cum, np.inf), np.nextafter(cum, -np.inf),
                [0.0, -0.0, -1.0, line.length + 1.0, np.inf, -np.inf, np.nan],
                rng.uniform(-5.0, line.length + 5.0, 2000)))
            for s in list(s_values) + s_values.tolist():
                i = int(np.searchsorted(cum, s, side="right")) - 1
                assert line._segment_index(s) == min(max(i, 0), last), s

    def test_project_equals_clip_form(self):
        rng = np.random.default_rng(19)
        for line in self._lines():
            lo = line.points.min(axis=0) - 5.0
            hi = line.points.max(axis=0) + 5.0
            ends = [line.points[0] - 2.0 * line._dirs[0],
                    line.points[-1] + 2.0 * line._dirs[-1]]
            points = np.vstack((line.points, ends, [[np.nan, np.nan],
                                                    [np.nan, 0.0]],
                                rng.uniform(lo, hi, (1000, 2))))
            for p in points:
                f = line.project(p)
                got = np.array([f.s, f.d])
                want = np.array(self._clip_project(line, p))
                assert got.tobytes() == want.tobytes(), p

    def test_bounds_equal_clip_on_edge_values(self):
        t = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, -5.0,
                      1.0, 2.0, np.nextafter(2.0, 3.0)])
        seg = np.full(len(t), 2.0)
        assert (np.minimum(np.maximum(t, 0.0), seg).tobytes()
                == np.clip(t, 0.0, seg).tobytes())


STEPS = st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)).filter(
    lambda v: math.hypot(*v) > 1e-3)


@st.composite
def line_and_points(draw):
    """A random polyline and points on its vertices, past both ends (on and
    beside the end tangents), near it, duplicated and NaN, in any order."""
    start = draw(st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)))
    steps = draw(st.lists(STEPS, min_size=1, max_size=20))
    line = Polyline(np.vstack([start, np.add(start, np.cumsum(steps, axis=0))]))
    pts = line.points
    points = []
    for kind in draw(st.lists(st.sampled_from(
            ["vertex", "before", "after", "near", "duplicate", "nan"]),
            min_size=0, max_size=30)):
        off = draw(st.floats(-10.0, 10.0))
        if kind == "vertex":
            points.append(tuple(pts[draw(st.integers(0, len(pts) - 1))]))
        elif kind in ("before", "after"):
            end, u = ((pts[0], -line._dirs[0]) if kind == "before"
                      else (pts[-1], line._dirs[-1]))
            run = draw(st.floats(0.0, 30.0))
            points.append(tuple(end + run * u + off * np.array([-u[1], u[0]])))
        elif kind == "near":
            k = draw(st.integers(0, len(pts) - 1))
            points.append((pts[k][0] + off, pts[k][1] + draw(st.floats(-10.0, 10.0))))
        elif kind == "duplicate" and points:
            points.append(points[draw(st.integers(0, len(points) - 1))])
        elif kind == "nan":
            points.append(draw(st.sampled_from(
                [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)])))
    return line, points


class TestProjectMany:
    """project_many returns the bits of the scalar project and
    project_extended, row by row."""

    @staticmethod
    def assert_equals_scalar(line, points):
        for extended, scalar in ((False, line.project),
                                 (True, line.project_extended)):
            s, d = line.project_many(points, extended=extended)
            fs = [scalar(p) for p in points]
            assert s.shape == d.shape == (len(points),)
            assert s.dtype == d.dtype == np.float64
            assert s.tobytes() == np.array([f.s for f in fs], float).tobytes()
            assert d.tobytes() == np.array([f.d for f in fs], float).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=line_and_points())
    def test_equals_scalar_project(self, case):
        self.assert_equals_scalar(*case)

    def test_fixed_lines(self):
        """The scalar-kernel lines of TestScalarKernels with their vertices,
        points just past both ends, far points and NaN."""
        rng = np.random.default_rng(29)
        for line in TestScalarKernels._lines():
            lo = line.points.min(axis=0) - 50.0
            hi = line.points.max(axis=0) + 50.0
            u0, u1 = line._dirs[0], line._dirs[-1]
            points = np.vstack((
                line.points, line.points[0] - 1e-9 * u0,
                line.points[-1] + 1e-9 * u1, line.points[0] - 3.0 * u0,
                line.points[-1] + 3.0 * u1, [[np.nan, np.nan], [np.nan, 0.0]],
                rng.uniform(lo, hi, (500, 2))))
            self.assert_equals_scalar(line, points)
            self.assert_equals_scalar(line, points[:1])
            self.assert_equals_scalar(line, points[:0])


class TestProjectFloatForm:
    """Polyline.project's Python-float form (up to PROJECT_FLOAT_MAX
    segments) returns the bits of the numpy form it replaced there,
    conftest's project_oracle; the long-line form is that numpy form."""

    @staticmethod
    def assert_equals_numpy_form(line, points, float_max=None):
        with pytest.MonkeyPatch.context() as mp:
            if float_max is not None:
                mp.setattr(geometry, "PROJECT_FLOAT_MAX", float_max)
            got = [(f.s, f.d) for f in map(line.project, points)]
        assert all(type(x) is float for row in got for x in row)
        with np.errstate(invalid="ignore"):  # infinite points
            want = [project_oracle(line, p) for p in points]
        assert (np.array(got, float).tobytes()
                == np.array(want, float).tobytes())

    @staticmethod
    def _probe_points(line, rng, n=200):
        """Vertices, points on the segments (d of 0 and -0.0 on axis-
        aligned ones), just past both ends, NaN, infinite (a NaN distance
        on some segments only) and random points around."""
        pts, u = line.points, line._dirs
        t = rng.uniform(0.0, 1.0, (len(u), 1)) * line._seg_len[:, None]
        on = pts[:-1] + t * u
        lo, hi = pts.min(axis=0) - 20.0, pts.max(axis=0) + 20.0
        return [*map(tuple, pts), *map(tuple, on),
                *((x, -0.0) for x, y in pts if y == 0.0),
                tuple(pts[0] - 1e-9 * u[0]), tuple(pts[-1] + 1e-9 * u[-1]),
                (math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan),
                (math.inf, 0.0), (0.0, -math.inf), (-math.inf, math.inf),
                *map(tuple, rng.uniform(lo, hi, (n, 2)))]

    @pytest.mark.parametrize("float_max", [None, 10 ** 9])
    def test_every_suite_lane(self, float_max):
        """Every lane of the seed-2024 maps, at the threshold and with every
        lane (the 139-segment curves too) on the float form."""
        from drivebench.scenarios import generate_benchmark_suite

        rng = np.random.default_rng(61)
        lines = {id(lane.centerline): lane.centerline
                 for spec in generate_benchmark_suite(2024)
                 for lane in spec.graph.segments.values()}
        segments = {len(line._seg_len) for line in lines.values()}
        assert min(segments) == 1 and max(segments) > geometry.PROJECT_FLOAT_MAX
        for line in lines.values():
            self.assert_equals_numpy_form(
                line, self._probe_points(line, rng, 50), float_max)

    @settings(max_examples=300, deadline=None)
    @given(case=line_and_points())
    def test_random_lines(self, case):
        """Drawn lines of 1 to 20 segments, at the threshold and all on the
        float form."""
        line, points = case
        self.assert_equals_numpy_form(line, points)
        self.assert_equals_numpy_form(line, points, 10 ** 9)

    def test_fixed_lines(self):
        rng = np.random.default_rng(67)
        for line in TestScalarKernels._lines():
            self.assert_equals_numpy_form(line, self._probe_points(line, rng),
                                          10 ** 9)

    def test_equidistant_points_take_the_first_segment(self):
        """Points on the bisector of a corner, and a point between two
        parallel segments, are as far from two segments: the first wins."""
        corner = Polyline([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
        points = [(10.0 - k, k) for k in (0.5, 1.0, 2.5, 5.0)]
        u_turn = Polyline([[0.0, 0.0], [10.0, 0.0], [10.0, 4.0],
                           [0.0, 4.0]])
        for line, pts in ((corner, points), (u_turn, [(5.0, 2.0), (3.0, 2.0)])):
            self.assert_equals_numpy_form(line, pts)
        assert corner.project((7.5, 2.5)) == FrenetPoint(7.5, 2.5)
        assert u_turn.project((5.0, 2.0)) == FrenetPoint(5.0, 2.0)


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
        s=st.floats(-0.1, 1.1),
        d=st.floats(-2.0, 2.0),
        kind=st.sampled_from(["straight", "arc", "s_curve"]),
    )
    def test_round_trip(self, s, d, kind):
        """interpolate then project, and interpolate_many then
        project_extended (which also runs past both ends along the end
        tangents), recover the Frenet point."""
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
        x, y, _ = line.interpolate_many(f_in.s, d)
        f_ext = line.project_extended((float(x), float(y)))
        assert abs(f_ext.s - f_in.s) < tol
        assert abs(f_ext.d - f_in.d) < tol
        if 0.0 <= s <= 1.0:
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

    def test_equals_scalar_oracle_random(self):
        """The one-pair box_contacts call gives the former scalar test's
        answer on random pairs, both ways round."""
        rng = np.random.default_rng(29)
        hits = 0
        for _ in range(1000):
            a, b = (OrientedBox(Pose2D(*rng.uniform(-4, 4, 2),
                                       rng.uniform(-math.pi, math.pi)),
                                rng.uniform(0.3, 12.0), rng.uniform(0.3, 3.0))
                    for _ in range(2))
            want = boxes_collide_oracle(a, b)
            assert boxes_collide(a, b) is want
            assert boxes_collide(b, a) is boxes_collide_oracle(b, a)
            hits += want
        assert 100 < hits < 900

    def test_equals_scalar_oracle_touching_and_grazing(self):
        """Edge-to-edge, corner-to-corner and corner-to-edge pairs, turned
        by multiples of pi/2 and by random headings, moved apart by 0 and by
        1e-9 to 1e-3 m along the contact normal: the same answer as the
        former scalar test, and contact at a separation of 0 when the boxes
        are axis-aligned."""
        rng = np.random.default_rng(31)
        half_diag = math.hypot(1.0, 1.0)
        n_touch = n_apart = 0
        for h in [k * math.pi / 2.0 for k in range(-2, 5)] \
                + list(rng.uniform(-math.pi, math.pi, 12)):
            c, s = math.cos(h), math.sin(h)
            cx, cy = float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100))
            a = OrientedBox(Pose2D(cx, cy, h), 4.0, 2.0)
            # (offset along, offset across, turn, extents) at zero separation
            for ox, oy, turn, ext in [(4.0, 0.0, 0.0, (4.0, 2.0)),
                                      (0.0, 2.0, 0.0, (4.0, 2.0)),
                                      (4.0, 2.0, 0.0, (4.0, 2.0)),
                                      (2.0 + half_diag, 0.0, math.pi / 4,
                                       (2.0, 2.0))]:
                norm = math.hypot(ox, oy)
                for sep in (0.0, 1e-9, 1e-7, 1e-5, 1e-3):
                    bx = ox + sep * ox / norm
                    by = oy + sep * oy / norm
                    b = OrientedBox(Pose2D(cx + c * bx - s * by,
                                           cy + s * bx + c * by, h + turn),
                                    *ext)
                    want = boxes_collide_oracle(a, b)
                    assert boxes_collide(a, b) is want
                    assert boxes_collide(b, a) is boxes_collide_oracle(b, a)
                    if sep == 0.0 and h == 0.0 and turn == 0.0:
                        assert want
                    n_touch += want
                    n_apart += not want
        assert n_touch > 50 and n_apart > 50


BOX_ROWS = st.tuples(st.floats(-500.0, 500.0), st.floats(-500.0, 500.0),
                     st.floats(-math.pi, math.pi), st.floats(0.3, 12.0),
                     st.floats(0.3, 3.0))
NEAR_ROWS = st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                      st.floats(-math.pi, math.pi), st.floats(0.3, 12.0),
                      st.floats(0.3, 3.0))


class TestContactKernels:
    """_box_corners_batch, boxes_collide_batch and box_contacts, with its
    entity broadphase, equal their former forms (conftest.py) bit for bit:
    corners, booleans, index tuples and the number of pairs that reach the
    separating-axis test."""

    @staticmethod
    def corners(*args):
        """_box_corners_batch in the former (..., 4, 2) layout."""
        px, py = _box_corners_batch(*args)
        return np.moveaxis(np.stack([px, py], axis=-1), 0, -2)

    @staticmethod
    def assert_contacts_equal(*args):
        """box_contacts(*args) equals the oracle, index dtypes included, and
        hands boxes_collide_batch as many pairs as the oracle's circumcircle
        test lets through. Returns the index tuple."""
        pairs = []

        def counted(*cols):
            hits = boxes_collide_batch(*cols)
            assert hits.shape == np.shape(cols[0]) and hits.dtype == bool
            pairs.append(hits.size)
            return hits

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "boxes_collide_batch", counted)
            got = box_contacts(*args)
        want = box_contacts_oracle(*args)
        x, y, h, length, width, qx, qy, qh, ql, qw = args
        reach = np.hypot(length, width) / 2.0 + np.hypot(ql, qw) / 2.0
        near = np.count_nonzero((x - qx) ** 2 + (y - qy) ** 2 <= reach ** 2)
        assert sum(pairs) == near
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        return got

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(BOX_ROWS, NEAR_ROWS), min_size=1,
                         max_size=25))
    def test_drawn_pairs(self, rows):
        """Pairs anywhere within 500 m, the second box within 10 m of the
        first: corners and the separating-axis test on the pairs, and
        box_contacts of all first boxes, and of each one alone (which the
        broadphase culls to the few second boxes nearby), against every
        second box."""
        a = np.array([r[0] for r in rows]).T
        b = np.array([r[1] for r in rows]).T
        b[:2] += a[:2]
        for box in (a, b):
            got = self.corners(*box)
            assert got.tobytes() == box_corners_batch_oracle(*box).tobytes()
        got = boxes_collide_batch(*a, *b)
        assert got.dtype == bool and got.shape == (len(rows),)
        assert np.array_equal(got, boxes_collide_batch_oracle(*a, *b))
        self.assert_contacts_equal(*(c[:, None] for c in a),
                                   *(c[None, :] for c in b))
        for i in range(len(rows)):
            self.assert_contacts_equal(*(c[None, i:i + 1] for c in a),
                                       *(c[None, :] for c in b))
        self.assert_contacts_equal(*a, *b)

    def test_corner_kernel_shapes(self):
        """Scalar, (N,) and (C, K) poses with scalar extents, the sampler's
        drivable-area call."""
        rng = np.random.default_rng(5)
        for shape in [(), (7,), (30, 20)]:
            args = (rng.uniform(-500, 500, shape), rng.uniform(-500, 500, shape),
                    rng.uniform(-math.pi, math.pi, shape), 4.6, 1.85)
            got = self.corners(*args)
            assert got.shape == shape + (4, 2)
            assert got.tobytes() == box_corners_batch_oracle(*args).tobytes()

    def test_touching_boxes(self):
        """Boxes sharing an edge or a corner, axis-aligned and turned by
        multiples of pi/2; axis-aligned touching counts as contact."""
        n_touch = 0
        for k in range(-2, 5):
            h = k * math.pi / 2.0
            c, s = math.cos(h), math.sin(h)
            for ox, oy in [(4.0, 0.0), (0.0, 2.0), (4.0, 2.0), (-4.0, -2.0),
                           (3.0, 2.0), (4.0, 1.0)]:
                a = np.array([[10.0], [-20.0], [h], [4.0], [2.0]])
                b = np.array([[10.0 + c * ox - s * oy], [-20.0 + s * ox + c * oy],
                              [h], [4.0], [2.0]])
                assert self.corners(*b).tobytes() \
                    == box_corners_batch_oracle(*b).tobytes()
                got = boxes_collide_batch(*a, *b)
                assert np.array_equal(got, boxes_collide_batch_oracle(*a, *b))
                if k == 0:
                    assert got[0]
                    n_touch += 1
                self.assert_contacts_equal(*a, *b)
                self.assert_contacts_equal(
                    *(np.repeat(c_, 3)[:, None, None] for c_ in a),
                    *(np.repeat(c_, 2)[None, None, :] for c_ in b))
        assert n_touch == 6

    def test_reach_boundaries(self):
        """An entity one ulp inside and one ulp outside the circumcircle
        reach of the nearest first box, and just inside and outside the
        broadphase's widened bounding box, ahead and behind."""
        length, width, ql, qw = 4.6, 1.85, 0.6, 0.6
        reach = np.hypot(length, width) / 2.0 + np.hypot(ql, qw) / 2.0
        x = np.array([[0.0, 1.0, 2.0]])[..., None]   # (C, K, 1)
        y = np.zeros_like(x)
        h = np.full_like(x, 0.3)

        def query(qx):
            qx = np.array([[qx, -50.0]] * 3)   # (K, E)
            return self.assert_contacts_equal(
                x, y, h, length, width, qx, np.zeros_like(qx),
                np.zeros(2), np.full(2, ql), np.full(2, qw))

        def meets(qx):
            return (2.0 - qx) ** 2 <= reach ** 2

        inside = 2.0 + reach
        while not meets(inside):
            inside = np.nextafter(inside, 0.0)
        while meets(np.nextafter(inside, 10.0)):
            inside = np.nextafter(inside, 10.0)
        outside = np.nextafter(inside, 10.0)
        assert len(query(inside)[0]) == 0 == len(query(outside)[0])
        pad = (np.hypot(length, width) + np.hypot(ql, qw)) / 2.0 \
            + geometry.CONTACT_MARGIN
        for edge in (2.0 + pad, 0.0 - pad):
            for qx in (edge, np.nextafter(edge, -10.0),
                       np.nextafter(edge, 10.0)):
                query(qx)

    def test_nan_state(self):
        """A NaN ego state meets nothing and drops no entity for the other
        states; all-NaN states meet nothing."""
        rng = np.random.default_rng(9)
        C, K, E = 6, 5, 4
        x = rng.uniform(0.0, 10.0, (C, K))
        y = rng.uniform(-1.0, 1.0, (C, K))
        h = rng.uniform(-0.3, 0.3, (C, K))
        qx = np.repeat(rng.uniform(0.0, 12.0, E)[None], K, 0)
        qy = np.repeat(rng.uniform(-1.0, 1.0, E)[None], K, 0)
        args = (4.6, 1.85, qx, qy, np.zeros(E), np.full(E, 4.0), np.full(E, 1.8))
        for nan_x, nan_y in [((0, 0), None), (None, (2, 3)), ((1, 1), (1, 1))]:
            xs, ys = x.copy(), y.copy()
            if nan_x:
                xs[nan_x] = np.nan
            if nan_y:
                ys[nan_y] = np.nan
            got = self.assert_contacts_equal(
                xs[..., None], ys[..., None], h[..., None], *args)
            assert len(got[0])
        got = self.assert_contacts_equal(
            np.full((C, K, 1), np.nan), y[..., None],
            h[..., None], *args)
        assert not len(got[0])

    def test_empty_and_single(self):
        """E = 0, E = 1 (reached and not) and K = 0 return index arrays of
        the broadcast rank."""
        rng = np.random.default_rng(11)
        for K, E, far in [(4, 0, False), (4, 1, False), (4, 1, True),
                          (0, 3, False), (0, 0, False)]:
            x = rng.uniform(0.0, 5.0, (3, K, 1))
            qx = rng.uniform(0.0, 5.0, (K, E)) + (100.0 if far else 0.0)
            got = self.assert_contacts_equal(
                x, np.zeros_like(x), np.zeros_like(x), 4.6, 1.85,
                qx, np.zeros_like(qx), np.zeros(E), np.full(E, 4.6),
                np.full(E, 1.85))
            assert len(got) == 3
            assert all(i.dtype == np.intp for i in got)
            assert bool(len(got[0])) == (K > 0 and E > 0 and not far)
        ego = np.array([[0.0], [0.0], [0.0], [4.6], [1.85]])
        for n in (0, 1):
            got = self.assert_contacts_equal(
                *ego, *np.tile(ego + [[1.0], [0.0], [0.0], [0.0], [0.0]], n))
            assert len(got) == 1 and len(got[0]) == n

    def test_nothing_reaches(self, monkeypatch):
        """When the broadphase keeps no entity, box_contacts returns empty
        intp index arrays, one per axis of the broadcast shape, as the
        former form does, and runs no separating-axis test: the sampler's
        (C, K, E) and (C, K, U, E) shapes and the metric's (T, U, N)."""
        rng = np.random.default_rng(23)
        calls = []
        monkeypatch.setattr(geometry, "boxes_collide_batch",
                            lambda *cols: calls.append(cols))
        for lead, E in [((30, 20), 11), ((30, 20, 10), 3), ((151, 10), 24),
                        ((2, 3), 1)]:
            x = rng.uniform(0.0, 20.0, lead + (1,))
            qx = rng.uniform(60.0, 90.0, lead[1:] + (E,)) * rng.choice([-1, 1], E)
            qy = rng.uniform(-5.0, 5.0, qx.shape)
            args = (x, rng.uniform(-2.0, 2.0, x.shape),
                    rng.uniform(-0.3, 0.3, x.shape), 4.6, 1.85, qx, qy,
                    np.zeros(E), np.full(E, 4.6), np.full(E, 1.85))
            got = box_contacts(*args)
            want = box_contacts_oracle(*args)
            assert len(got) == len(want) == len(lead) + 1
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.intp
                assert g.shape == w.shape == (0,)
        assert not calls

    def test_every_caller(self, monkeypatch):
        """Each caller's own shapes, from a closed loop and its score: the
        sampler's feasibility (C, K, E) and TTC (C, K, U, E) queries, the
        metric's (T, U, N) TTC query, the simulator's ego check, which has
        one first box, and boxes_collide's one pair (the at-fault rule and
        accident construction). pairwise_contacts, the agent-agent pass and
        scenario validation, shares only the circumcircle test
        (tests/test_simulation.py, TestContacts)."""
        from drivebench import simulation
        from drivebench.metrics import score_scenario
        from drivebench.planners import SamplingPlanner
        from drivebench.planners import sampling
        from drivebench.scenarios import generate_benchmark_suite
        from drivebench.simulation import run_closed_loop

        seen = set()

        def checked(where):
            def call(*args):
                seen.add((where, np.broadcast(*args).ndim))
                return self.assert_contacts_equal(*args)
            return call

        for mod in (geometry, sampling, simulation):
            monkeypatch.setattr(mod, "box_contacts", checked(mod.__name__))
        suite = generate_benchmark_suite(2024)
        for i in (0, 20, 41):
            spec = replace(suite[i], duration=3.0)
            trace = run_closed_loop(spec, SamplingPlanner())
            score_scenario(trace, spec)
        assert seen == {("drivebench.planners.sampling", 3),
                        ("drivebench.geometry", 4),
                        ("drivebench.geometry", 3),
                        ("drivebench.geometry", 1),
                        ("drivebench.simulation", 1)}

    def test_flat_indices_equal_nonzero(self):
        """np.unravel_index(np.flatnonzero(m), m.shape), the form that
        box_contacts and pairwise_contacts take their pair indices with,
        equals np.nonzero(m) on masks of 1 to 4 axes: the same intp arrays
        in the same row-major order, on empty, all-false, all-true and
        random masks of any density."""
        rng = np.random.default_rng(37)
        shapes = [(0,), (1,), (57,), (0, 4), (3, 0), (1, 1), (12, 12),
                  (30, 20), (5, 0, 3), (30, 20, 12), (4, 3, 0, 2), (2, 3, 4, 5),
                  (30, 20, 10, 12)]
        for shape in shapes:
            masks = [np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)]
            masks += [rng.random(shape) < p for p in (0.001, 0.1, 0.5, 0.99)]
            for m in masks:
                got = np.unravel_index(np.flatnonzero(m), m.shape)
                want = np.nonzero(m)
                assert len(got) == len(want) == len(shape)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype == np.intp
                    assert np.array_equal(g, w)


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

    def test_wrap_angles_equals_wrap_angle_bitwise(self):
        rng = np.random.default_rng(5)
        multiples = np.arange(-8, 9) * math.pi
        a = np.concatenate((
            multiples, np.nextafter(multiples, np.inf),
            np.nextafter(multiples, -np.inf), [0.0, -0.0],
            rng.uniform(-50.0, 50.0, 2000), rng.uniform(-1e4, 1e4, 500)))
        expected = np.array([wrap_angle(float(v)) for v in a])
        assert wrap_angles(a).tobytes() == expected.tobytes()
