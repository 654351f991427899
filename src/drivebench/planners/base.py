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

from ..agents import SWEPT_BAND_HALF_WIDTH
from ..geometry import FrenetPoint, LaneGraph, OrientedBox, Polyline, Route
from ..geometry import wrap_angle
from ..scenarios import ObstacleSpec

HORIZON = 8.0          # s
STEP = 0.1             # s
N_SAMPLES = int(round(HORIZON / STEP)) + 1
MAX_CURVATURE = 0.5    # 1/m, kinematic reachability bound between samples
FALLBACK_DECEL = 6.0   # m/s^2 used by the full-brake fallback


@dataclass(frozen=True)
class AgentObs:
    box: OrientedBox
    speed: float
    lane: str


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
    agents: tuple[AgentObs, ...]
    pedestrians: tuple[PedestrianObs, ...]
    obstacles: tuple[ObstacleSpec, ...]
    graph: LaneGraph
    route: Route
    time: float
    # derived caches, functions of the fields above
    ego_lane: str = ""
    lane_blockers: dict = field(default_factory=dict)


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
        if self.t[0] != 0.0 or np.any(np.diff(self.t) <= 0):
            raise ValueError("t must strictly increase from 0")
        if not np.all(np.isfinite(self.speed)) or np.any(self.speed < -1e-9):
            raise ValueError("speeds must be finite and >= 0")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("positions must be finite")
        ds = np.hypot(np.diff(self.x), np.diff(self.y))
        dh = np.abs(np.array([wrap_angle(d) for d in np.diff(self.heading)]))
        moving = ds > 1e-6
        if np.any(dh[moving] / ds[moving] > MAX_CURVATURE + 1e-6):
            worst = float(np.max(dh[moving] / ds[moving]))
            raise ValueError(f"curvature {worst:.3f} exceeds {MAX_CURVATURE} 1/m")

    def sample_at(self, t: float) -> tuple[float, float, float, float]:
        """Linear interpolation of (x, y, heading, speed) at time t (clamped)."""
        t = min(max(t, 0.0), float(self.t[-1]))
        i = int(np.searchsorted(self.t, t, side="right")) - 1
        i = min(max(i, 0), len(self.t) - 2)
        w = (t - self.t[i]) / (self.t[i + 1] - self.t[i])
        h0, h1 = self.heading[i], self.heading[i + 1]
        h = h0 + w * wrap_angle(h1 - h0)
        return (
            float(self.x[i] + w * (self.x[i + 1] - self.x[i])),
            float(self.y[i] + w * (self.y[i + 1] - self.y[i])),
            wrap_angle(float(h)),
            float(self.speed[i] + w * (self.speed[i + 1] - self.speed[i])),
        )

    def equals(self, other: "Trajectory") -> bool:
        return (np.array_equal(self.t, other.t) and np.array_equal(self.x, other.x)
                and np.array_equal(self.y, other.y)
                and np.array_equal(self.heading, other.heading)
                and np.array_equal(self.speed, other.speed))


class Planner(Protocol):
    name: str

    def plan(self, obs: Observation) -> Trajectory: ...


def fallback_brake_trajectory(obs: Observation) -> Trajectory:
    """Full-brake trajectory along the current lane direction from the ego
    pose; emitted whenever a planner fails to produce a valid output."""
    line = obs.graph.lane(obs.ego_lane).centerline
    f = line.project((obs.ego_box.center.x, obs.ego_box.center.y))
    h = line.tangent_at(f.s)
    v0 = obs.ego_speed
    t = np.arange(N_SAMPLES) * STEP
    speed = np.maximum(0.0, v0 - FALLBACK_DECEL * t)
    dist = np.concatenate(([0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * STEP)))
    x = obs.ego_box.center.x + dist * math.cos(h)
    y = obs.ego_box.center.y + dist * math.sin(h)
    return Trajectory(t, x, y, np.full_like(t, h), speed)


def plan_with_fallback(planner: Planner, obs: Observation) -> Trajectory:
    """The simulator-facing contract: planner-internal failures map to the
    brake fallback, never to a missing trajectory."""
    try:
        return planner.plan(obs)
    except Exception:
        return fallback_brake_trajectory(obs)


def path_headings(x: np.ndarray, y: np.ndarray,
                  tangent: np.ndarray) -> np.ndarray:
    """Finite-difference headings per path row; stalls carry the last
    moving heading, fully stalled rows keep the tangent.

    A step whose heading change exceeds MAX_CURVATURE times its length
    keeps the previous heading. A path creeping to a stop across a
    centerline vertex (millimeter steps, a turn of about 0.02 rad) would
    otherwise break Trajectory's curvature bound.
    """
    n = x.shape[1]
    dx = np.diff(x, axis=1)
    dy = np.diff(y, axis=1)
    ds = np.hypot(dx, dy)
    moving = ds > 1e-6
    h = np.where(moving, np.arctan2(dy, dx), np.nan)
    turn = np.abs((np.diff(h, axis=1) + np.pi) % (2.0 * np.pi) - np.pi)
    for r in np.nonzero((turn > MAX_CURVATURE * ds[:, :-1]).any(axis=1))[0]:
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


def ego_frenet(obs: Observation, lane_id: str) -> FrenetPoint:
    line = obs.graph.lane(lane_id).centerline
    return line.project_extended((obs.ego_box.center.x, obs.ego_box.center.y))


def current_route_lane(obs: Observation) -> str:
    """The route lane laterally closest to the ego."""
    best = None
    for lane_id in obs.route.lane_sequence:
        f = ego_frenet(obs, lane_id)
        key = (abs(f.d), lane_id)
        if best is None or key < best[0]:
            best = (key, lane_id)
    return best[1]


@dataclass(frozen=True, eq=False)
class LaneScene:
    """The observation's possible conflicts projected once into one lane's
    Frenet frame, as arrays in observation order: agents, static obstacles
    and crossing pedestrians."""
    agent_s: np.ndarray         # center arc position
    agent_d: np.ndarray         # center lateral offset
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


def box_extent(line: Polyline, box: OrientedBox
               ) -> tuple[float, float, float, float]:
    """(s_lo, s_hi, d_lo, d_hi) of the box's corners in the line's Frenet
    frame, extended past the line's ends."""
    fs = [line.project_extended(c) for c in box.corners()]
    return (min(f.s for f in fs), max(f.s for f in fs),
            min(f.d for f in fs), max(f.d for f in fs))


def lane_scene(obs: Observation, lane_id: str) -> LaneScene:
    """Project the observation's agents, obstacles and crossing pedestrians
    into the lane's Frenet frame (extended past the lane ends)."""
    line = obs.graph.lane(lane_id).centerline
    agents = []
    for agent in obs.agents:
        f = line.project_extended((agent.box.center.x, agent.box.center.y))
        rel = wrap_angle(agent.box.center.heading - line.tangent_at(f.s))
        half_len = (abs(math.cos(rel)) * agent.box.length
                    + abs(math.sin(rel)) * agent.box.width) / 2.0
        agents.append((f.s, f.d, f.s - half_len, agent.speed * math.cos(rel),
                       SWEPT_BAND_HALF_WIDTH + agent.box.width / 2.0 - 0.15))
    obstacles = [box_extent(line, o.box) for o in obs.obstacles]
    peds = []
    for ped in obs.pedestrians:
        if ped.crossing:
            f = line.project_extended(ped.position)
            peds.append((f.s, f.d))
    return LaneScene(*_columns(agents, 5), *_columns(obstacles, 4),
                     *_columns(peds, 2))


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
    first = np.argmin(near, axis=1)  # earliest entity on equal near edges
    lead_s = near[np.arange(len(near)), first]
    return lead_s, np.where(np.isfinite(lead_s), speed[first], 0.0)
