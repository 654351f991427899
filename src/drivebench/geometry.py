"""Lane-graph map model, poses, oriented boxes, Frenet projection, routing
and collision geometry shared by every other module.

Conventions: x/y in meters, headings in radians normalized to (-pi, pi],
lateral offsets d are positive to the LEFT of a centerline (matching
counterclockwise-positive headings).
"""

from __future__ import annotations

import bisect
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


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """wrap_angle elementwise: the same fmod and corrections, bit for bit."""
    a = np.fmod(a, 2.0 * math.pi)
    return np.where(a <= -math.pi, a + 2.0 * math.pi,
                    np.where(a > math.pi, a - 2.0 * math.pi, a))


@dataclass(frozen=True)
class Pose2D:
    x: float
    y: float
    heading: float  # rad, normalized to (-pi, pi]

    def __post_init__(self):
        object.__setattr__(self, "heading", wrap_angle(self.heading))


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
        c = self.center
        return np.stack(_box_corners_batch(c.x, c.y, c.heading, self.length,
                                           self.width), axis=1)

    def front_half(self) -> "OrientedBox":
        """The leading half of the box as its own box (for contact attribution)."""
        c, s = math.cos(self.center.heading), math.sin(self.center.heading)
        cx = self.center.x + c * self.length / 4.0
        cy = self.center.y + s * self.length / 4.0
        return OrientedBox(Pose2D(cx, cy, self.center.heading), self.length / 2.0, self.width)


# Polyline.project runs on Python floats up to this many segments and on
# numpy arrays above it (alternating timed repeats: CHANGES.md)
PROJECT_FLOAT_MAX = 6


class Polyline:
    """An ordered point sequence with a cumulative-arclength cache.

    The scalar kernels (interpolate, tangent_at, length) run on Python
    floats: tuples of the points, the unit segment directions and the
    segment headings, each heading computed once with math.atan2 (libm, so
    no numpy SIMD loop decides its bits); interpolate_many indexes the same
    headings."""

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
        self._cum = tuple(self.cum_len.tolist())  # for scalar bisection
        self._seg_lens = tuple(seg_len.tolist())
        self.length: float = self._cum[-1]
        self._xy = tuple(map(tuple, pts.tolist()))
        self._uv = tuple(map(tuple, self._dirs.tolist()))
        self._headings = tuple(math.atan2(dy, dx) for dx, dy in self._uv)
        self._pose_headings = tuple(map(wrap_angle, self._headings))
        self._heading_array = np.array(self._headings)

    def project(self, point: Sequence[float]) -> FrenetPoint:
        """Nearest-point projection; s clamped to [0, length], |d| is the
        Euclidean distance to the projected point, left positive.

        Up to PROJECT_FLOAT_MAX segments it runs the numpy form's arithmetic
        on Python floats, with its bits: the foot is p0 + t * u, the
        distance np.hypot of two floats (math.hypot rounds differently),
        the first minimum wins and a NaN distance is a minimum, as in
        argmin."""
        if len(self._seg_lens) <= PROJECT_FLOAT_MAX:
            px, py = float(point[0]), float(point[1])
            best = None
            for i, ((ax, ay), (ux, uy), seg_len) in enumerate(zip(
                    self._xy, self._uv, self._seg_lens)):
                t = (px - ax) * ux + (py - ay) * uy
                if t <= 0.0:  # -0.0 too: the array form's sum starts at 0.0
                    t = 0.0
                elif t > seg_len:
                    t = seg_len
                dx, dy = px - (ax + t * ux), py - (ay + t * uy)
                dist = float(np.hypot(dx, dy))
                if best is None or best[0] == best[0] and not dist >= best[0]:
                    best = dist, i, t, ux * dy - uy * dx
            dist, i, t, cross = best
            return FrenetPoint(s=self._cum[i] + t,
                               d=dist if cross >= 0 else -dist)
        p = np.asarray(point, dtype=float)
        starts = self.points[:-1]
        rel = p - starts
        t = np.einsum("ij,ij->i", rel, self._dirs)
        t = np.minimum(np.maximum(t, 0.0), self._seg_len)
        foot = starts + t[:, None] * self._dirs
        diff = p - foot
        dist = np.hypot(diff[:, 0], diff[:, 1])
        i = int(dist.argmin())
        s = float(self.cum_len[i] + t[i])
        cross = self._dirs[i, 0] * diff[i, 1] - self._dirs[i, 1] * diff[i, 0]
        d = float(dist[i]) if cross >= 0 else -float(dist[i])
        return FrenetPoint(s=s, d=d)

    def project_many(self, points, extended: bool = False
                     ) -> tuple[np.ndarray, np.ndarray]:
        """project (or project_extended) of each (x, y) row of points, as
        arrays (s, d) with the bits of the scalar calls: the same per-segment
        arithmetic over (N, S) and the first minimum of each row."""
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        starts = self.points[:-1]
        rel = p[:, None, :] - starts
        t = np.einsum("nij,ij->ni", rel, self._dirs)
        t = np.minimum(np.maximum(t, 0.0), self._seg_len)
        foot = starts + t[..., None] * self._dirs
        diff = p[:, None, :] - foot
        dist = np.hypot(diff[..., 0], diff[..., 1])
        i = dist.argmin(axis=1)
        rows = np.arange(len(p))
        s = self.cum_len[i] + t[rows, i]
        u, du = self._dirs[i], diff[rows, i]
        cross = u[:, 0] * du[:, 1] - u[:, 1] * du[:, 0]
        d = np.where(cross >= 0, dist[rows, i], -dist[rows, i])
        if extended:
            for k in np.flatnonzero((s <= 0.0) | (s >= self.length)):
                f = self.extend(p[k], FrenetPoint(float(s[k]), float(d[k])))
                s[k], d[k] = f.s, f.d
        return s, d

    def project_extended(self, point: Sequence[float]) -> FrenetPoint:
        """Like project, but s runs past the endpoints along the end tangents
        (s < 0 before the start, s > length past the end)."""
        p = np.asarray(point, dtype=float)
        return self.extend(p, self.project(p))

    def extend(self, p, f: FrenetPoint) -> FrenetPoint:
        """The clamped projection f of p, carried past an endpoint along
        its end tangent when p lies beyond it."""
        if f.s <= 0.0:
            (rx, ry), (ux, uy) = p - self.points[0], self._uv[0]
            t = float(rx * ux + ry * uy)
            if t < 0.0:
                return FrenetPoint(s=t, d=float(ux * ry - uy * rx))
        elif f.s >= self.length:
            (rx, ry), (ux, uy) = p - self.points[-1], self._uv[-1]
            t = float(rx * ux + ry * uy)
            if t > 0.0:
                return FrenetPoint(s=self.length + t, d=float(ux * ry - uy * rx))
        return f

    def box_extents(self, box: OrientedBox) -> tuple[tuple, tuple]:
        """(s_lo, s_hi, d_lo, d_hi) of the box's corners in the line's
        Frenet frame, clamped as project gives them and extended as
        project_extended gives them; each corner is projected once."""
        corners = box.corners()
        clamped = [self.project(c) for c in corners]
        extended = [self.extend(c, f) for c, f in zip(corners, clamped)]
        return tuple((min(f.s for f in fs), max(f.s for f in fs),
                      min(f.d for f in fs), max(f.d for f in fs))
                     for fs in (clamped, extended))

    def _segment_index(self, s: float) -> int:
        i = bisect.bisect_right(self._cum, s) - 1
        return min(max(i, 0), len(self._seg_len) - 1)

    def interpolate(self, f: FrenetPoint) -> Pose2D:
        """Embed a Frenet point back into the plane; heading is the local
        tangent direction. Rejects s outside [0, length]."""
        if f.s < -1e-9 or f.s > self.length + 1e-9:
            raise ValueError(f"s={f.s} outside [0, {self.length}]")
        x, y, heading = self.place(min(max(f.s, 0.0), self.length), f.d)
        return Pose2D(float(x), float(y), heading)

    def place(self, s: float, d: float = 0.0) -> tuple[float, float, float]:
        """(x, y, heading) of the Frenet point (s, d) on Python floats,
        carried along the end tangents past the ends; the heading is the
        local tangent's (an end tangent's past an end), wrapped as Pose2D
        wraps it."""
        if 0.0 <= s <= self.length:
            i = min(bisect.bisect_right(self._cum, s), len(self._xy) - 1) - 1
            t = s - self._cum[i]
            (px, py), (ux, uy) = self._xy[i], self._uv[i]
            # left normal of the tangent
            return ((px + t * ux) - uy * d, (py + t * uy) + ux * d,
                    self._pose_headings[i])
        past = s > self.length
        bx, by, ux, uy, heading, c, sn = self._ends[past]
        over = s - self.length if past else s
        return (bx - uy * d) + over * c, (by + ux * d) + over * sn, heading

    @functools.cached_property
    def _ends(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """place's terms at s = 0 and at s = length, computed once: the
        centerline point before the offset term, the end segment's unit
        tangent, its wrapped heading, and the cos and sin of the unwrapped
        one."""
        ends = []
        for s in (0.0, self.length):
            i = self._segment_index(s)
            t = s - self._cum[i]
            (px, py), (ux, uy), h = self._xy[i], self._uv[i], self._headings[i]
            ends.append((px + t * ux, py + t * uy, ux, uy,
                         self._pose_headings[i], math.cos(h), math.sin(h)))
        return tuple(ends)

    def interpolate_frenet(self, s: float, d: float = 0.0) -> Pose2D:
        return self.interpolate(FrenetPoint(s, d))

    def interpolate_many(self, s: np.ndarray, d: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized Frenet embedding: (x, y, tangent heading) arrays for
        arc positions s (clamped to the ends, extended along end tangents
        beyond them) and lateral offsets d."""
        s = np.asarray(s, dtype=float)
        d = np.asarray(d, dtype=float)
        s_clamped = np.minimum(np.maximum(s, 0.0), self.length)
        idx = np.minimum(np.maximum(
            self.cum_len.searchsorted(s_clamped, side="right") - 1, 0),
            len(self._seg_len) - 1)
        t = (s - self.cum_len[idx])  # includes overrun past the ends
        dirs = self._dirs[idx]
        base = self.points[idx] + t[..., None] * dirs
        x = base[..., 0] - dirs[..., 1] * d
        y = base[..., 1] + dirs[..., 0] * d
        return x, y, self._heading_array[idx]

    def tangent_at(self, s: float) -> float:
        """Tangent heading at arclength s (clamped)."""
        return self._headings[self._segment_index(min(max(s, 0.0),
                                                      self.length))]

    def to_list(self) -> list:
        return self.points.tolist()

    def __eq__(self, other) -> bool:
        return isinstance(other, Polyline) and np.array_equal(self.points, other.points)


CONTACT_MARGIN = 1.0  # m box_contacts' entity broadphase adds to the reaches
# corner signs along and across the heading, in OrientedBox.corners' order
_SIGNS = np.array([[1.0, -1.0, -1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])


def _box_corners_batch(cx, cy, heading, length, width) -> tuple:
    """Corner x and y, each (4, *S) for the broadcast shape S, in corners()
    order; exact signs give the bits of center ± half-length ± half-width."""
    c, s, hl, hw = np.cos(heading), np.sin(heading), length / 2.0, width / 2.0
    ex, ey, fx, fy = c * hl, -s * hw, s * hl, c * hw
    sl, sw = _SIGNS.reshape((2, 4) + (1,) * np.broadcast(cx, cy, ex, ey).ndim)
    return cx + sl * ex + sw * ey, cy + sl * fx + sw * fy


def boxes_collide_batch(cx_a, cy_a, h_a, len_a, wid_a,
                        cx_b, cy_b, h_b, len_b, wid_b) -> np.ndarray:
    """Vectorized separating-axis test over N box pairs -> bool array.
    Touching counts as collision."""
    ca, sa, cb, sb = np.cos(h_a), np.sin(h_a), np.cos(h_b), np.sin(h_b)
    ux = np.array([ca, -sa, cb, -sb])  # the 4 axes, (4, N)
    uy = np.array([sa, ca, sb, cb])
    bounds = []   # of each box's corners on each axis, (axes, N)
    for px, py in map(_box_corners_batch, (cx_a, cx_b), (cy_a, cy_b),
                      (h_a, h_b), (len_a, len_b), (wid_a, wid_b)):
        p = px[:, None] * ux
        p += py[:, None] * uy   # (corners, axes, N)
        bounds += p.min(axis=0), p.max(axis=0)
    lo_a, hi_a, lo_b, hi_b = bounds
    return ((lo_a <= hi_b) & (lo_b <= hi_a)).all(axis=0)


def circumcircles_meet(x, y, length, width, qx, qy, ql, qw) -> np.ndarray:
    """Whether the circumscribed circles of boxes (x, y, length, width) and
    (qx, qy, ql, qw), broadcast together, meet (touching counts); boxes whose
    circles do not meet cannot overlap."""
    reach = np.hypot(length, width) / 2.0 + np.hypot(ql, qw) / 2.0
    return (x - qx) ** 2 + (y - qy) ** 2 <= reach ** 2


def box_contacts(x, y, h, length, width, qx, qy, qh, ql, qw
                 ) -> tuple[np.ndarray, ...]:
    """Overlapping pairs between boxes (x, y, h, length, width) and entity
    boxes (qx, qy, qh, ql, qw), broadcast together: one index array per
    axis, the trailing one indexing entities. With two or more axes,
    entities outside the first boxes' bounding box widened by both reaches
    and CONTACT_MARGIN are dropped first, as the circumcircle test would
    reject all their pairs (when none is left, the empty result returns at
    once); that test and the separating-axis test follow."""
    args, kept = (x, y, h, length, width, qx, qy, qh, ql, qw), None
    if np.ndim(x) >= 2 and np.size(x):  # fmin and fmax skip NaN states
        lo, hi = np.fmin.reduce, np.fmax.reduce
        pad = (hi(np.hypot(length, width), None) + np.hypot(ql, qw)) / 2.0 \
            + CONTACT_MARGIN
        inside = ((qx >= lo(x, None) - pad) & (qx <= hi(x, None) + pad)
                  & (qy >= lo(y, None) - pad) & (qy <= hi(y, None) + pad))
        reaches = inside.any(axis=tuple(range(inside.ndim - 1)))
        if not reaches.any():
            return tuple(np.empty(0, dtype=np.intp)
                         for _ in range(np.broadcast(*args).ndim))
        if not reaches.all():
            kept = np.flatnonzero(reaches)
            args = tuple(a[..., kept] if np.shape(a)[-1:] == reaches.shape
                         else a for a in args)
    x, y, h, length, width, qx, qy, qh, ql, qw = args
    meet = circumcircles_meet(x, y, length, width, qx, qy, ql, qw)
    near = np.unravel_index(np.flatnonzero(meet), meet.shape)
    if len(near[0]):
        hits = boxes_collide_batch(*(a[near] for a in np.broadcast_arrays(
            *args)))
        near = tuple(i[hits] for i in near)
    return near if kept is None else near[:-1] + (kept[near[-1]],)


def boxes_collide(a: OrientedBox, b: OrientedBox) -> bool:
    """Whether two oriented boxes overlap: box_contacts on the one pair.
    Touching boundaries count as collision."""
    [hits] = box_contacts(*box_columns([a]), *box_columns([b]))
    return bool(len(hits))


def box_columns(boxes: list[OrientedBox]) -> np.ndarray:
    """(x, y, heading, length, width) rows, one column per box: (5, N)."""
    return np.array([(b.center.x, b.center.y, b.center.heading, b.length,
                      b.width) for b in boxes], dtype=float).reshape(-1, 5).T


def pairwise_contacts(cols: np.ndarray) -> list[tuple[int, int]]:
    """Box pairs (i, j), i < j, in contact, in row-major order, from (5, N)
    box columns: the circumcircle test, kept on the upper triangle, then
    the separating-axis test on the pairs it keeps."""
    if cols.shape[1] < 2:
        return []
    x, y, _, length, width = cols
    meet = circumcircles_meet(x[:, None], y[:, None], length[:, None],
                              width[:, None], x, y, length, width)
    i, j = np.unravel_index(np.flatnonzero(meet), meet.shape)
    upper = i < j
    i, j = i[upper], j[upper]
    if not len(i):
        return []
    hits = boxes_collide_batch(*cols[:, i], *cols[:, j])
    return list(zip(i[hits].tolist(), j[hits].tolist()))


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


DRIVABLE_GRID = 32   # cell-center samples per box side


def fraction_outside_drivable(box: OrientedBox,
                              area: Sequence[np.ndarray]) -> float:
    """Approximate area fraction of the box outside the union of polygons,
    via a fixed deterministic grid of cell-center samples
    (DRIVABLE_GRID x DRIVABLE_GRID)."""
    c, s = math.cos(box.center.heading), math.sin(box.center.heading)
    # cell centers in body frame
    u = (np.arange(DRIVABLE_GRID) + 0.5) / DRIVABLE_GRID - 0.5
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
        if self.speed_limit <= 0:
            raise ValueError(f"lane {self.id}: speed limit must be positive")
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


class EgoFrame(dict):
    """One point's clamped projection (Polyline.project) onto each lane of a
    graph, made on first lookup and kept: frame[lane_id] -> FrenetPoint.
    The simulator keeps one per tick for the ego's center."""

    def __init__(self, graph: LaneGraph, point: tuple[float, float]):
        super().__init__()
        self.graph, self.point = graph, point

    def __missing__(self, lane_id: str) -> FrenetPoint:
        f = self[lane_id] = self.graph.lane(lane_id).centerline.project(
            self.point)
        return f


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
