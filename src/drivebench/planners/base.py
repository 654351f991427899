"""Planner contract: the observation snapshot planners consume, the timed
trajectory they emit, and the fallback wrapper that guarantees an output.

Trajectories span 8 s at 0.1 s internal spacing. All rule-based planners
are pure functions of the observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from ..agents import SWEPT_BAND_HALF_WIDTH, Traffic
from ..geometry import EgoFrame, FrenetPoint, LaneGraph, OrientedBox, Route
from ..geometry import wrap_angle, wrap_angles
from ..scenarios import ObstacleSpec, ObstacleTable

HORIZON = 8.0          # s
STEP = 0.1             # s
N_SAMPLES = int(round(HORIZON / STEP)) + 1
MAX_CURVATURE = 0.5    # 1/m, kinematic reachability bound between samples
FALLBACK_DECEL = 6.0   # m/s^2 used by the full-brake fallback
# lane_scene projects this many points (agents and crossing pedestrians; the
# ego's comes from the observation's frame) or more with one project_many
# call; for fewer, scalar project_extended calls are faster
PROJECT_MANY_MIN = 3


@dataclass(frozen=True)
class PedestrianObs:
    position: tuple[float, float]
    velocity: tuple[float, float]
    crossing: bool


@dataclass(frozen=True)
class Observation:
    """Noise-free snapshot of one simulation tick (read-only)."""
    ego_box: OrientedBox
    ego_speed: float
    ego_accel: float
    agents: Traffic              # the perceived agents' columns
    pedestrians: tuple[PedestrianObs, ...]
    obstacles: tuple[ObstacleSpec, ...]
    graph: LaneGraph
    route: Route
    time: float
    # derived caches, functions of the fields above
    ego_lane: str  # nearest route lane by clamped projection, ties to lower id
    # the scenario's obstacle extents and blocking spans, shared by every tick
    obstacle_table: ObstacleTable = field(repr=False, compare=False)
    # lane id -> LaneScene, filled by lane_scene, and lane id -> the ego
    # center's clamped projection, filled on first lookup; dataclasses.replace
    # starts a new observation with both memos empty
    _scenes: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    frame: EgoFrame = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = self.ego_box.center
        object.__setattr__(self, "frame", EgoFrame(self.graph, (c.x, c.y)))


BEHAVIOR_LABELS = ("follow_lane", "merge_left", "merge_right",
                   "overtake_obstacle", "stop_and_wait")


@dataclass(frozen=True)
class BehaviorOption:
    """A discrete maneuver conditioning the sampling motion planner: a
    reference centerline plus an offset from it."""
    label: str
    centerline: str          # lane id
    lateral_offset: float    # m, left positive
    target_speed_cap: float  # m/s, 0 for stop_and_wait
    obstacle_far_s: Optional[float] = None  # far end of the blocking obstacle

    def __post_init__(self):
        if self.label not in BEHAVIOR_LABELS:
            raise ValueError(f"unknown behavior label {self.label!r}")
        if self.label == "overtake_obstacle" and self.lateral_offset == 0.0:
            raise ValueError("overtake_obstacle needs a nonzero offset")
        if self.label == "stop_and_wait" and self.target_speed_cap != 0.0:
            raise ValueError("stop_and_wait must cap the target speed at 0")


class Trajectory:
    """Timed pose/speed sequence; t strictly increasing from 0, finite
    non-negative speeds, consecutive poses within the curvature bound."""

    def __init__(self, t: Sequence[float], x: Sequence[float], y: Sequence[float],
                 heading: Sequence[float], speed: Sequence[float]):
        self.t = np.asarray(t, dtype=float)
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.heading = np.asarray(heading, dtype=float)
        self.speed = np.asarray(speed, dtype=float)
        n = len(self.t)
        if n < 2:
            raise ValueError("trajectory needs at least 2 samples")
        if any(len(a) != n for a in (self.x, self.y, self.heading, self.speed)):
            raise ValueError("trajectory arrays must share one length")
        if self.t[0] != 0.0 or (self.t[1:] - self.t[:-1] <= 0).any():
            raise ValueError("t must strictly increase from 0")
        if not np.isfinite(self.speed).all() or (self.speed < -1e-9).any():
            raise ValueError("speeds must be finite and >= 0")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("positions must be finite")
        ds = np.hypot(self.x[1:] - self.x[:-1], self.y[1:] - self.y[:-1])
        dh = np.abs(wrap_angles(self.heading[1:] - self.heading[:-1]))
        moving = ds > 1e-6
        if (dh[moving] / ds[moving] > MAX_CURVATURE + 1e-6).any():
            worst = float((dh[moving] / ds[moving]).max())
            raise ValueError(f"curvature {worst:.3f} exceeds {MAX_CURVATURE} 1/m")

    def sample(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Linear interpolation of (x, y, speed) at times ts (clamped)."""
        ts = np.minimum(np.maximum(ts, 0.0), self.t[-1])
        i = np.minimum(np.maximum(self.t.searchsorted(ts, side="right") - 1, 0),
                       len(self.t) - 2)
        w = (ts - self.t[i]) / (self.t[i + 1] - self.t[i])
        return tuple(a[i] + w * (a[i + 1] - a[i])
                     for a in (self.x, self.y, self.speed))


class Planner(Protocol):
    name: str

    def plan(self, obs: Observation) -> Trajectory: ...


def fallback_brake_trajectory(obs: Observation) -> Trajectory:
    """Full-brake trajectory along the current lane direction from the ego
    pose; emitted whenever a planner fails to produce a valid output."""
    f = obs.frame[obs.ego_lane]
    h = obs.graph.lane(obs.ego_lane).centerline.tangent_at(f.s)
    v0 = obs.ego_speed
    t = np.arange(N_SAMPLES) * STEP
    speed = np.maximum(0.0, v0 - FALLBACK_DECEL * t)
    dist = np.concatenate(([0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * STEP)))
    x = obs.ego_box.center.x + dist * math.cos(h)
    y = obs.ego_box.center.y + dist * math.sin(h)
    return Trajectory(t, x, y, np.full_like(t, h), speed)


def plan_with_fallback(planner: Planner, obs: Observation,
                       events: list) -> Trajectory:
    """The simulator-facing contract: a planner-internal failure maps to the
    brake fallback, never to a missing trajectory, and appends a
    planner_fallback event naming the exception to events."""
    try:
        return planner.plan(obs)
    except Exception as exc:
        events.append({"kind": "planner_fallback", "time": obs.time,
                       "error": type(exc).__name__, "message": str(exc)})
        return fallback_brake_trajectory(obs)


# libm's atan2 elementwise: numpy's arctan2 SIMD loops round differently on
# different CPUs
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def path_headings(x: np.ndarray, y: np.ndarray, tangent: np.ndarray,
                  guard: bool = True) -> np.ndarray:
    """Finite-difference headings per path row; stalls carry the last
    moving heading, fully stalled rows keep the tangent.

    With guard, a step whose heading change exceeds MAX_CURVATURE times
    its length keeps the previous heading. A path creeping to a stop across
    a centerline vertex (millimeter steps, a turn of about 0.02 rad) would
    otherwise break Trajectory's curvature bound. Without it, sharp turns
    stay for Trajectory to reject: a path from outside the planners (an
    LLM's waypoints) is checked, not repaired.
    """
    n = x.shape[1]
    dx = x[:, 1:] - x[:, :-1]
    dy = y[:, 1:] - y[:, :-1]
    ds = np.hypot(dx, dy)
    moving = ds > 1e-6
    h = np.where(moving, _atan2(dy, dx).astype(float), np.nan)
    turn = np.abs((h[:, 1:] - h[:, :-1] + np.pi) % (2.0 * np.pi) - np.pi)
    sharp = (turn > MAX_CURVATURE * ds[:, :-1]).any(axis=1) & guard
    for r in np.nonzero(sharp)[0]:
        row = h[r]
        for k in range(1, n - 1):
            if (moving[r, k] and moving[r, k - 1] and abs(wrap_angle(
                    row[k] - row[k - 1])) > MAX_CURVATURE * ds[r, k - 1]):
                row[k] = row[k - 1]
    h = np.concatenate([h, h[:, -1:]], axis=1)
    valid = ~np.isnan(h)
    idx = np.where(valid, np.arange(n)[None, :], 0)
    np.maximum.accumulate(idx, axis=1, out=idx)
    filled = h[np.arange(h.shape[0])[:, None], idx]
    return np.where(np.isnan(filled), tangent, filled)


# ---------------------------------------------------------------------------
# shared queries


@dataclass(frozen=True, eq=False)
class LaneScene:
    """The observation projected once into one lane's Frenet frame: the
    ego's center, then its possible conflicts as arrays in observation
    order: agents, static obstacles and crossing pedestrians."""
    ego: FrenetPoint
    agent_s: np.ndarray         # center arc position
    agent_d: np.ndarray         # center lateral offset
    agent_half_len: np.ndarray  # half the box length
    agent_near_s: np.ndarray    # arc position of the near edge
    agent_speed: np.ndarray     # speed along the lane
    agent_reach: np.ndarray     # |d - path offset| up to which it conflicts
    obstacle_near_s: np.ndarray
    obstacle_far_s: np.ndarray
    obstacle_d_lo: np.ndarray
    obstacle_d_hi: np.ndarray
    ped_s: np.ndarray
    ped_d: np.ndarray


def _columns(rows: list, n: int) -> np.ndarray:
    return np.array(rows, dtype=float).reshape(-1, n).T


def lane_scene(obs: Observation, lane_id: str) -> LaneScene:
    """Project the ego, the agents, the obstacles and the crossing
    pedestrians into the lane's Frenet frame (extended past the lane ends).
    Built once per observation and lane; later calls return the same
    scene. The ego's point extends the observation's frame entry (the
    clamped projection), the obstacles' rows come from its ObstacleTable."""
    scene = obs._scenes.get(lane_id)
    if scene is not None:
        return scene
    line = obs.graph.lane(lane_id).centerline
    a = obs.agents
    points = list(zip(a.x, a.y))
    points += [ped.position for ped in obs.pedestrians if ped.crossing]
    if len(points) < PROJECT_MANY_MIN:  # a scalar call is cheaper here
        fs = [line.project_extended(p) for p in points]
        s, d = [f.s for f in fs], [f.d for f in fs]
    else:
        s, d = (c.tolist() for c in line.project_many(points, extended=True))
    agents = []
    for a_s, a_d, heading, length, width, speed in zip(
            s, d, a.heading, a.length, a.width, a.speed):
        rel = wrap_angle(heading - line.tangent_at(a_s))
        cos_rel = math.cos(rel)
        along = (abs(cos_rel) * length + abs(math.sin(rel)) * width) / 2.0
        agents.append((a_s, a_d, length / 2.0, a_s - along, speed * cos_rel,
                       SWEPT_BAND_HALF_WIDTH + width / 2.0 - 0.15))
    n = len(a)
    scene = obs._scenes[lane_id] = LaneScene(
        line.extend(obs.frame.point, obs.frame[lane_id]), *_columns(agents, 6),
        *obs.obstacle_table.extents(lane_id, obs.obstacles),
        *_columns(list(zip(s[n:], d[n:])), 2))
    return scene


def nearest_lead(scene: LaneScene, from_s: float,
                 path_offset: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest conflicting entity ahead of arc position from_s for K paths
    at once, as (s of its near edge, its speed along the lane), each of
    shape (K,); s is inf and the speed 0 where a path has no lead.

    path_offset maps arc positions (E,) to the lateral offsets of the K
    planned paths there, (K, E); None means the centerline alone (K = 1).
    An entity conflicts with a path when it laterally overlaps the swept
    band around the path's offset at the entity.
    """
    probe = np.concatenate((
        scene.agent_s, 0.5 * (scene.obstacle_near_s + scene.obstacle_far_s),
        scene.ped_s))
    off = (np.zeros((1, len(probe))) if path_offset is None
           else path_offset(probe))
    if not len(probe):
        return np.full(len(off), np.inf), np.zeros(len(off))
    n_a, n_o = len(scene.agent_s), len(scene.obstacle_near_s)
    off_a, off_o, off_p = off[:, :n_a], off[:, n_a:n_a + n_o], off[:, n_a + n_o:]
    half = SWEPT_BAND_HALF_WIDTH
    conflict = np.concatenate((
        np.abs(scene.agent_d - off_a) <= scene.agent_reach,
        (scene.obstacle_d_lo - 0.05 <= off_o + half)
        & (scene.obstacle_d_hi + 0.05 >= off_o - half),
        np.abs(scene.ped_d - off_p) <= half + 0.3), axis=1)
    near = np.concatenate((scene.agent_near_s, scene.obstacle_near_s,
                           scene.ped_s - 0.3))
    speed = np.concatenate((scene.agent_speed, np.zeros(len(probe) - n_a)))
    near = np.where(conflict & (near > from_s), near, np.inf)
    first = near.argmin(axis=1)  # earliest entity on equal near edges
    lead_s = near[np.arange(len(near)), first]
    return lead_s, np.where(np.isfinite(lead_s), speed[first], 0.0)
