"""Lane-graph map model, poses, oriented boxes, Frenet projection, routing
and collision geometry shared by every other module.

Conventions: x/y in meters, headings in radians normalized to (-pi, pi],
lateral offsets d are positive to the LEFT of a centerline (matching
counterclockwise-positive headings).
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np


class NoRoute(Exception):
    """Raised when no lane path connects start and goal."""


def wrap_angle(a: float) -> float:
    """Normalize an angle into (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


@dataclass(frozen=True)
class Pose2D:
    x: float
    y: float
    heading: float  # rad, normalized to (-pi, pi]

    def __post_init__(self):
        object.__setattr__(self, "heading", wrap_angle(self.heading))

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class FrenetPoint:
    s: float  # arclength along the reference centerline [m]
    d: float  # signed lateral offset, left positive [m]


@dataclass(frozen=True)
class OrientedBox:
    center: Pose2D
    length: float  # m, along heading
    width: float   # m, across heading

    def __post_init__(self):
        if self.length <= 0 or self.width <= 0:
            raise ValueError(f"box extents must be positive, got {self.length}x{self.width}")

    def corners(self) -> np.ndarray:
        """Four corners, (4, 2), counterclockwise starting front-left."""
        c, s = math.cos(self.center.heading), math.sin(self.center.heading)
        hl, hw = self.length / 2.0, self.width / 2.0
        local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.center.x, self.center.y])

    @property
    def circumradius(self) -> float:
        return math.hypot(self.length, self.width) / 2.0

    def front_half(self) -> "OrientedBox":
        """The leading half of the box as its own box (for contact attribution)."""
        c, s = math.cos(self.center.heading), math.sin(self.center.heading)
        cx = self.center.x + c * self.length / 4.0
        cy = self.center.y + s * self.length / 4.0
        return OrientedBox(Pose2D(cx, cy, self.center.heading), self.length / 2.0, self.width)


class Polyline:
    """An ordered point sequence with a cumulative-arclength cache."""

    def __init__(self, points: Sequence[Sequence[float]]):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
            raise ValueError("polyline needs at least 2 (x, y) points")
        deltas = np.diff(pts, axis=0)
        seg_len = np.hypot(deltas[:, 0], deltas[:, 1])
        if np.any(seg_len <= 0):
            raise ValueError("consecutive polyline points must be distinct")
        self.points = pts
        self._dirs = deltas / seg_len[:, None]       # unit tangents per segment
        self._seg_len = seg_len
        self.cum_len = np.concatenate(([0.0], np.cumsum(seg_len)))

    @property
    def length(self) -> float:
        return float(self.cum_len[-1])

    def project(self, point: Sequence[float]) -> FrenetPoint:
        """Nearest-point projection; s clamped to [0, length], |d| is the
        Euclidean distance to the projected point, left positive."""
        p = np.asarray(point, dtype=float)
        starts = self.points[:-1]
        rel = p - starts
        t = np.einsum("ij,ij->i", rel, self._dirs)
        t = np.clip(t, 0.0, self._seg_len)
        foot = starts + t[:, None] * self._dirs
        diff = p - foot
        dist = np.hypot(diff[:, 0], diff[:, 1])
        i = int(np.argmin(dist))
        s = float(self.cum_len[i] + t[i])
        cross = self._dirs[i, 0] * diff[i, 1] - self._dirs[i, 1] * diff[i, 0]
        d = float(dist[i]) if cross >= 0 else -float(dist[i])
        return FrenetPoint(s=s, d=d)

    def project_extended(self, point: Sequence[float]) -> FrenetPoint:
        """Like project, but s runs past the endpoints along the end tangents
        (s < 0 before the start, s > length past the end)."""
        p = np.asarray(point, dtype=float)
        f = self.project(p)
        if f.s <= 0.0:
            rel = p - self.points[0]
            t = float(rel @ self._dirs[0])
            if t < 0.0:
                cross = self._dirs[0, 0] * rel[1] - self._dirs[0, 1] * rel[0]
                return FrenetPoint(s=t, d=float(cross))
        elif f.s >= self.length:
            rel = p - self.points[-1]
            t = float(rel @ self._dirs[-1])
            if t > 0.0:
                cross = self._dirs[-1, 0] * rel[1] - self._dirs[-1, 1] * rel[0]
                return FrenetPoint(s=self.length + t, d=float(cross))
        return f

    def _segment_index(self, s: float) -> int:
        i = int(np.searchsorted(self.cum_len, s, side="right")) - 1
        return min(max(i, 0), len(self._seg_len) - 1)

    def interpolate(self, f: FrenetPoint) -> Pose2D:
        """Embed a Frenet point back into the plane; heading is the local
        tangent direction. Rejects s outside [0, length]."""
        if f.s < -1e-9 or f.s > self.length + 1e-9:
            raise ValueError(f"s={f.s} outside [0, {self.length}]")
        s = min(max(f.s, 0.0), self.length)
        i = self._segment_index(s)
        t = s - self.cum_len[i]
        dx, dy = self._dirs[i]
        base = self.points[i] + t * self._dirs[i]
        # left normal of the tangent
        x = base[0] - dy * f.d
        y = base[1] + dx * f.d
        return Pose2D(float(x), float(y), math.atan2(dy, dx))

    def interpolate_frenet(self, s: float, d: float = 0.0) -> Pose2D:
        return self.interpolate(FrenetPoint(s, d))

    def interpolate_many(self, s: np.ndarray, d: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized Frenet embedding: (x, y, tangent heading) arrays for
        arc positions s (clamped to the ends, extended along end tangents
        beyond them) and lateral offsets d."""
        s = np.asarray(s, dtype=float)
        d = np.asarray(d, dtype=float)
        s_clamped = np.clip(s, 0.0, self.length)
        idx = np.clip(np.searchsorted(self.cum_len, s_clamped, side="right") - 1,
                      0, len(self._seg_len) - 1)
        t = (s - self.cum_len[idx])  # includes overrun past the ends
        dirs = self._dirs[idx]
        base = self.points[idx] + t[..., None] * dirs
        x = base[..., 0] - dirs[..., 1] * d
        y = base[..., 1] + dirs[..., 0] * d
        heading = np.arctan2(dirs[..., 1], dirs[..., 0])
        return x, y, heading

    def tangent_at(self, s: float) -> float:
        """Tangent heading at arclength s (clamped)."""
        s = min(max(s, 0.0), self.length)
        i = self._segment_index(s)
        return math.atan2(self._dirs[i, 1], self._dirs[i, 0])

    def to_list(self) -> list:
        return self.points.tolist()

    def __eq__(self, other) -> bool:
        return isinstance(other, Polyline) and np.array_equal(self.points, other.points)


def _interval_overlap(lo1: float, hi1: float, lo2: float, hi2: float) -> bool:
    # touching intervals count as overlapping (conservative collision semantics)
    return lo1 <= hi2 and lo2 <= hi1


def boxes_collide(a: OrientedBox, b: OrientedBox) -> bool:
    """Separating-axis test over the 4 edge normals of two oriented boxes.

    Touching boundaries count as collision.
    """
    # cheap reject: circumscribed circles
    dx = a.center.x - b.center.x
    dy = a.center.y - b.center.y
    r = a.circumradius + b.circumradius
    if dx * dx + dy * dy > r * r:
        return False
    ca = a.corners()
    cb = b.corners()
    for box in (a, b):
        h = box.center.heading
        for axis in ((math.cos(h), math.sin(h)), (-math.sin(h), math.cos(h))):
            pa = ca @ axis
            pb = cb @ axis
            if not _interval_overlap(pa.min(), pa.max(), pb.min(), pb.max()):
                return False
    return True


def _box_corners_batch(cx, cy, heading, length, width) -> np.ndarray:
    """Corners (..., 4, 2) for arrays of box poses and extents."""
    c, s = np.cos(heading), np.sin(heading)
    hl = np.asarray(length) / 2.0
    hw = np.asarray(width) / 2.0
    ex = np.stack([c * hl, s * hl], axis=-1)   # half-length vector
    ey = np.stack([-s * hw, c * hw], axis=-1)  # half-width vector
    center = np.stack([cx, cy], axis=-1)
    return np.stack([
        center + ex + ey,
        center - ex + ey,
        center - ex - ey,
        center + ex - ey,
    ], axis=-2)


def boxes_collide_batch(cx_a, cy_a, h_a, len_a, wid_a,
                        cx_b, cy_b, h_b, len_b, wid_b) -> np.ndarray:
    """Vectorized separating-axis test over N box pairs -> bool array.
    Touching counts as collision, matching boxes_collide."""
    ca = _box_corners_batch(cx_a, cy_a, h_a, len_a, wid_a)  # (N,4,2)
    cb = _box_corners_batch(cx_b, cy_b, h_b, len_b, wid_b)
    axes = np.stack([
        np.stack([np.cos(h_a), np.sin(h_a)], axis=-1),
        np.stack([-np.sin(h_a), np.cos(h_a)], axis=-1),
        np.stack([np.cos(h_b), np.sin(h_b)], axis=-1),
        np.stack([-np.sin(h_b), np.cos(h_b)], axis=-1),
    ], axis=-2)  # (N,4,2)
    pa = np.einsum("ncd,nad->nca", ca, axes)  # (N, corners, axes)
    pb = np.einsum("ncd,nad->nca", cb, axes)
    lo_a, hi_a = pa.min(axis=1), pa.max(axis=1)
    lo_b, hi_b = pb.min(axis=1), pb.max(axis=1)
    overlap = (lo_a <= hi_b) & (lo_b <= hi_a)  # per axis
    return overlap.all(axis=-1)


def box_contacts(x, y, h, length, width, qx, qy, qh, ql, qw
                 ) -> tuple[np.ndarray, ...]:
    """Overlapping pairs between boxes (x, y, h, length, width) and boxes
    (qx, qy, qh, ql, qw), all broadcast against each other: one index
    array per axis of the broadcast shape. Pairs whose circumcircles are
    apart are rejected before the separating-axis test."""
    reach = np.hypot(length, width) / 2.0 + np.hypot(ql, qw) / 2.0
    near = np.nonzero((x - qx) ** 2 + (y - qy) ** 2 <= reach ** 2)
    if not len(near[0]):
        return near
    hits = boxes_collide_batch(*(a[near] for a in np.broadcast_arrays(
        x, y, h, length, width, qx, qy, qh, ql, qw)))
    return tuple(i[hits] for i in near)


def ttc_violations(x, y, h, v, length, width, qx, qy, qvx, qvy, qh, ql, qw,
                   threshold: float) -> np.ndarray:
    """Which ego states (x, y, h, v: shape S; length, width: floats) meet
    an entity (trailing axis N, leading axes broadcasting against S) when
    both are projected at constant velocity to u = min(k * 0.1 s,
    threshold), k = 1, 2, ...: a bool array of shape S.

    Entity headings are the callers' own, and they differ on pedestrians on
    purpose: the sampler heads a crossing pedestrian along its velocity (0
    while waiting), the metric heads every pedestrian at 0. Either way the
    pedestrian is a 0.6 m square, so only contacts near its corners differ.
    """
    n_u = int(math.ceil(threshold / 0.1))
    u = np.minimum(np.arange(1, n_u + 1) * 0.1, threshold)
    px = x[..., None] + (v * np.cos(h))[..., None] * u  # S + (U,)
    py = y[..., None] + (v * np.sin(h))[..., None] * u
    qx = qx[..., None, :] + qvx[..., None, :] * u[:, None]  # (..., U, N)
    qy = qy[..., None, :] + qvy[..., None, :] * u[:, None]
    hits = box_contacts(px[..., None], py[..., None], h[..., None, None],
                        length, width, qx, qy, qh[..., None, :],
                        ql[..., None, :], qw[..., None, :])
    violating = np.zeros(np.shape(x), dtype=bool)
    violating[hits[:violating.ndim]] = True
    return violating


@functools.lru_cache(maxsize=64)
def _edge_slabs(shape: tuple[int, int], vertex_bytes: bytes
                ) -> tuple[np.ndarray, np.ndarray]:
    """Slab index of a polygon, a pure function of its float vertex array:
    its distinct vertex y values ys (sorted) and a table with one row per
    searchsorted(ys, y, side="right") result k. Row k holds the
    (x0, y0, x1 - x0, y1 - y0) of every edge with min(y0, y1) <= ys[k-1] <
    max(y0, y1), which are exactly the edges a ray at any y in [ys[k-1],
    ys[k]) crosses. Rows are padded to a common width with edges at x0 =
    NaN, which never count. Row 0 (y below every vertex) and row len(ys)
    (y at or above the top vertex, or NaN) hold only padding."""
    polygon = np.frombuffer(vertex_bytes, dtype=float).reshape(shape)
    x0, y0 = polygon[:, 0], polygon[:, 1]
    y1 = np.roll(y0, -1)
    edges = np.stack([x0, y0, np.roll(x0, -1) - x0, y1 - y0], axis=-1)
    ys = np.unique(y0)
    member = ((np.minimum(y0, y1) <= ys[:-1, None])
              & (ys[:-1, None] < np.maximum(y0, y1)))  # (slab, edge)
    width = max(int(member.sum(axis=1).max(initial=0)), 1)
    order = np.argsort(~member, axis=1, kind="stable")[:, :width]
    pad = (np.nan, 0.0, 1.0, 1.0)  # x_int is NaN for any y, without warnings
    table = np.full((len(ys) + 1, width, 4), pad)
    table[1:-1] = np.where(np.take_along_axis(member, order, axis=1)[..., None],
                           edges[order], pad)
    ys.flags.writeable = False
    table.flags.writeable = False
    return ys, table


def points_in_polygon(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Even-odd ray-casting containment test, vectorized over points.

    A point counts an edge (x0, y0) -> (x1, y1) when its y lies in the
    half-open span [min(y0, y1), max(y0, y1)), i.e. (y0 > y) != (y1 > y),
    and it lies strictly left of the edge at that y; it is inside when the
    count is odd. Horizontal edges never count. On an axis-aligned
    rectangle, points on the bottom and left sides are thus inside and
    points on the top and right sides outside. NaN coordinates are outside.

    Each point is tested only against the edges of its slab of the
    polygon's y range (see _edge_slabs), whose table is built once per
    distinct vertex array."""
    poly = np.ascontiguousarray(polygon, dtype=float)
    ys, table = _edge_slabs(poly.shape, poly.tobytes())
    x = points[:, 0][:, None]
    y = points[:, 1]
    edges = table[np.searchsorted(ys, y, side="right")]  # (P, width, 4)
    x0, y0, dx, dy = edges.transpose(2, 0, 1)
    x_int = x0 + (y[:, None] - y0) * dx / dy
    return np.logical_xor.reduce(x < x_int, axis=1)


def points_in_any_polygon(points: np.ndarray, polygons: Iterable[np.ndarray]) -> np.ndarray:
    inside = np.zeros(len(points), dtype=bool)
    for poly in polygons:
        rem = ~inside
        if not rem.any():
            break
        inside[rem] = points_in_polygon(points[rem], poly)
    return inside


def fraction_outside_drivable(box: OrientedBox, area: Sequence[np.ndarray],
                              grid: int = 32) -> float:
    """Approximate area fraction of the box outside the union of polygons,
    via a fixed deterministic grid of cell-center samples (grid x grid)."""
    c, s = math.cos(box.center.heading), math.sin(box.center.heading)
    # cell centers in body frame
    u = (np.arange(grid) + 0.5) / grid - 0.5
    gx, gy = np.meshgrid(u * box.length, u * box.width)
    px = box.center.x + c * gx - s * gy
    py = box.center.y + s * gx + c * gy
    pts = np.column_stack([px.ravel(), py.ravel()])
    inside = points_in_any_polygon(pts, area)
    return float(1.0 - inside.sum() / len(pts))


@dataclass
class LaneSegment:
    id: str
    centerline: Polyline
    width: float            # m
    speed_limit: float      # m/s
    successors: list[str] = field(default_factory=list)
    left_neighbor: Optional[str] = None
    right_neighbor: Optional[str] = None

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError(f"lane {self.id}: width must be positive")
        if self.id in self.successors:
            raise ValueError(f"lane {self.id}: self-loop successor")


class LaneGraphError(Exception):
    """Construction-time validation failure of a lane graph."""


class LaneGraph:
    """Directed graph of lane segments plus the drivable-area polygons."""

    def __init__(self, segments: Iterable[LaneSegment], drivable_area: Sequence[np.ndarray]):
        self.segments: dict[str, LaneSegment] = {}
        for seg in segments:
            if seg.id in self.segments:
                raise LaneGraphError(f"duplicate lane id {seg.id!r}")
            self.segments[seg.id] = seg
        self.drivable_area = [np.asarray(p, dtype=float) for p in drivable_area]
        self._validate()

    def _validate(self):
        for seg in self.segments.values():
            for ref in seg.successors + [seg.left_neighbor, seg.right_neighbor]:
                if ref is not None and ref not in self.segments:
                    raise LaneGraphError(f"lane {seg.id}: unknown reference {ref!r}")
            if seg.left_neighbor is not None:
                other = self.segments[seg.left_neighbor]
                if other.right_neighbor != seg.id:
                    raise LaneGraphError(
                        f"asymmetric neighbors: {seg.id}.left={other.id} but "
                        f"{other.id}.right={other.right_neighbor}")
            if seg.right_neighbor is not None:
                other = self.segments[seg.right_neighbor]
                if other.left_neighbor != seg.id:
                    raise LaneGraphError(
                        f"asymmetric neighbors: {seg.id}.right={other.id} but "
                        f"{other.id}.left={other.left_neighbor}")
        self._validate_corridors()

    def _validate_corridors(self, step: float = 10.0):
        for seg in self.segments.values():
            n = max(int(seg.centerline.length / step) + 1, 2)
            ss = np.linspace(0.0, seg.centerline.length, n)
            # sample slightly inset from the corridor edges
            half = seg.width / 2.0 - 0.05
            x, y, _ = seg.centerline.interpolate_many(
                np.repeat(ss, 3), np.tile([-half, 0.0, half], n))
            inside = points_in_any_polygon(np.column_stack([x, y]),
                                           self.drivable_area)
            if not inside.all():
                raise LaneGraphError(f"lane {seg.id}: corridor leaves drivable area")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaneGraph):
            return NotImplemented
        if self.segments != other.segments:
            return False
        if len(self.drivable_area) != len(other.drivable_area):
            return False
        return all(np.array_equal(a, b)
                   for a, b in zip(self.drivable_area, other.drivable_area))

    def lane(self, lane_id: str) -> LaneSegment:
        return self.segments[lane_id]

    def neighbors(self, lane_id: str) -> list[str]:
        seg = self.segments[lane_id]
        return [n for n in (seg.left_neighbor, seg.right_neighbor) if n is not None]

    def nearest_lane(self, point: Sequence[float]) -> str:
        """Lane whose centerline is laterally closest to the point
        (deterministic tie-break by id)."""
        best = None
        for lane_id in sorted(self.segments):
            f = self.segments[lane_id].centerline.project(point)
            key = (abs(f.d), lane_id)
            if best is None or key < best[0]:
                best = (key, lane_id)
        assert best is not None, "empty lane graph"
        return best[1]


@dataclass(frozen=True)
class Route:
    lane_sequence: tuple[str, ...]
    goal_pose: Pose2D

    def __post_init__(self):
        if not self.lane_sequence:
            raise ValueError("route needs at least one lane")
        object.__setattr__(self, "lane_sequence", tuple(self.lane_sequence))

    def validate(self, graph: LaneGraph):
        for a, b in zip(self.lane_sequence, self.lane_sequence[1:]):
            seg = graph.lane(a)
            if b not in seg.successors and b not in (seg.left_neighbor, seg.right_neighbor):
                raise ValueError(f"route hop {a} -> {b} is neither successor nor neighbor")
        goal_lane = graph.lane(self.lane_sequence[-1])
        f = goal_lane.centerline.project((self.goal_pose.x, self.goal_pose.y))
        if abs(f.d) > goal_lane.width / 2.0 + 1e-6:
            raise ValueError("goal pose does not lie on the route's last lane")


def shortest_route(graph: LaneGraph, start_lane: str, goal_lane: str,
                   goal_pose: Pose2D) -> Route:
    """Shortest lane path where successor hops are free and neighbor hops cost
    one lane change each; deterministic tie-break by lexicographic id path."""
    if start_lane not in graph.segments or goal_lane not in graph.segments:
        raise NoRoute(f"unknown lane in query: {start_lane!r} -> {goal_lane!r}")
    # Dijkstra over (lane-change count, id path) keeps ties lexicographic.
    heap: list[tuple[int, tuple[str, ...]]] = [(0, (start_lane,))]
    best_cost: dict[str, tuple[int, tuple[str, ...]]] = {}
    while heap:
        cost, path = heapq.heappop(heap)
        lane = path[-1]
        if lane in best_cost and best_cost[lane] <= (cost, path):
            continue
        best_cost[lane] = (cost, path)
        if lane == goal_lane:
            return Route(lane_sequence=path, goal_pose=goal_pose)
        seg = graph.lane(lane)
        for nxt in sorted(seg.successors):
            if nxt not in path:
                heapq.heappush(heap, (cost, path + (nxt,)))
        for nxt in graph.neighbors(lane):
            if nxt not in path:
                heapq.heappush(heap, (cost + 1, path + (nxt,)))
    raise NoRoute(f"no route from {start_lane!r} to {goal_lane!r}")


def lane_changes_required(route: Route, graph: LaneGraph) -> int:
    """Number of neighbor-edge transitions in the route's lane sequence."""
    count = 0
    for a, b in zip(route.lane_sequence, route.lane_sequence[1:]):
        seg = graph.lane(a)
        if b in (seg.left_neighbor, seg.right_neighbor):
            count += 1
    return count
