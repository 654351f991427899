"""Trajectory-sampling motion planner: 30 candidates (5 lateral offsets
around the active behavior x 5 IDM speed profiles + a full stop), scored by
a cost over a short evaluation window with constant-velocity forecasts of
all actors.

The evaluation window (2.0 s by default) bounds every look-ahead check:
collisions, drivable-area exits and the TTC term. Conflicts that first
materialize beyond it are invisible to the planner by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..agents import (
    EMERGENCY_DECEL,
    VEHICLE_LENGTH,
    VEHICLE_WIDTH,
    IdmParams,
)
from ..geometry import (
    _box_corners_batch,
    box_contacts,
    points_in_any_polygon,
    ttc_violations,
)
from ..geometry import wrap_angle as _wrap
from .base import (
    BehaviorOption,
    N_SAMPLES,
    Observation,
    STEP,
    Trajectory,
    current_route_lane,
    ego_frenet,
    lane_scene,
    nearest_lead,
    path_headings,
)

OFFSET_DELTAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
SPEED_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)   # of min(limit, behavior cap)
STOP_DECEL = 3.5          # m/s^2 of the dedicated full-stop profile
LANE_KEEP_LAT_SPEED = 0.3  # m/s below which rear contacts are not our fault


@dataclass(frozen=True)
class CostWeights:
    ttc: float = 5.0        # penalty weight on the TTC-violation fraction
    progress: float = 5.0   # reward weight on normalized progress
    offset: float = 1.0     # penalty per meter of offset delta
    comfort: float = 0.5    # penalty on normalized mean |accel|

    def __post_init__(self):
        if min(self.ttc, self.progress, self.offset, self.comfort) < 0:
            raise ValueError("cost weights must be nonnegative")


@dataclass
class Candidate:
    delta: float
    fraction: Optional[float]      # None = full-stop profile
    target_offset: float
    s: np.ndarray
    d: np.ndarray
    v: np.ndarray
    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray
    feasible: bool = True
    collided: bool = False
    off_area: bool = False
    ttc_fraction: float = 0.0
    progress: float = 0.0
    comfort: float = 0.0
    cost: float = 0.0


def lateral_profile(d0: float, slope0: float, target, s_rel: np.ndarray,
                    span: float) -> np.ndarray:
    """Quintic Hermite lateral offset over traveled arc length: starts at d0
    with the ego's current drift slope, settles at the target with zero
    slope and curvature. Replanning every tick stays consistent because the
    profile continues the current lateral motion instead of resetting it."""
    u = np.clip(s_rel / span, 0.0, 1.0)
    h0 = 1.0 - 10.0 * u ** 3 + 15.0 * u ** 4 - 6.0 * u ** 5
    h1 = u - 6.0 * u ** 3 + 8.0 * u ** 4 - 3.0 * u ** 5
    h3 = 10.0 * u ** 3 - 15.0 * u ** 4 + 6.0 * u ** 5
    target = np.asarray(target, dtype=float)
    if target.ndim == 1:
        target = target[:, None]
    return d0 * h0 + slope0 * span * h1 + target * h3


class SamplingPlanner:
    """Offset-and-profile sampler around a behavior (follow-lane by
    default); deterministic argmin of the cost with tie-breaks on lower
    absolute offset, then higher progress."""

    name = "sampler"

    def __init__(self, weights: CostWeights = CostWeights(),
                 eval_horizon: float = 2.0, ttc_threshold: float = 0.95,
                 params: Optional[IdmParams] = None):
        self.weights = weights
        self.eval_horizon = eval_horizon
        self.ttc_threshold = ttc_threshold
        self.params = params

    # -- public API ---------------------------------------------------------

    def plan(self, obs: Observation, behavior: Optional[BehaviorOption] = None
             ) -> Trajectory:
        cands, best = self.evaluate(obs, behavior)
        c = cands[best]
        t = np.arange(N_SAMPLES) * STEP
        return Trajectory(t, c.x, c.y, c.heading, c.v)

    def default_behavior(self, obs: Observation) -> BehaviorOption:
        lane_id = current_route_lane(obs)
        return BehaviorOption("follow_lane", lane_id, 0.0,
                              obs.graph.lane(lane_id).speed_limit)

    def evaluate(self, obs: Observation,
                 behavior: Optional[BehaviorOption] = None
                 ) -> tuple[list[Candidate], int]:
        """All 30 candidates with their costs plus the selected index."""
        behavior = behavior or self.default_behavior(obs)
        lane = obs.graph.lane(behavior.centerline)
        line = lane.centerline
        limit = lane.speed_limit
        cap = min(limit, behavior.target_speed_cap) if behavior.target_speed_cap > 0 else 0.0
        params = self.params or IdmParams(v0=limit)
        f = ego_frenet(obs, behavior.centerline)
        s0, d0 = f.s, f.d
        v_now = obs.ego_speed
        tangent0 = line.tangent_at(min(max(s0, 0.0), line.length))
        slope0 = float(np.clip(math.tan(
            _wrap(obs.ego_box.center.heading - tangent0)), -0.6, 0.6))

        n_profiles = len(SPEED_FRACTIONS) + 1
        C = len(OFFSET_DELTAS) * n_profiles
        deltas = np.repeat(OFFSET_DELTAS, n_profiles)
        fractions = np.tile(list(SPEED_FRACTIONS) + [np.nan], len(OFFSET_DELTAS))
        stop_mask = np.isnan(fractions)
        offsets = behavior.lateral_offset + np.asarray(OFFSET_DELTAS)
        targets = np.repeat(offsets, n_profiles)
        span = max(2.0 * max(v_now, 0.1), 10.0)

        # lead along each distinct offset path, shared by its speed profiles
        front0 = s0 + VEHICLE_LENGTH / 2.0
        lead_s, lead_v = nearest_lead(
            lane_scene(obs, behavior.centerline), front0,
            lambda s: lateral_profile(d0, slope0, offsets,
                                      np.maximum(s - s0, 0.0), span))
        gap0 = np.repeat(np.maximum(lead_s - front0, 0.01), n_profiles)
        v_lead = np.repeat(np.maximum(0.0, lead_v), n_profiles)

        s_rel, v = self._rollout(v_now, gap0, v_lead, fractions, stop_mask,
                                 cap, limit, params)
        d = lateral_profile(d0, slope0, targets, s_rel, span)
        s_abs = s0 + s_rel
        x, y, tangent = line.interpolate_many(s_abs, d)
        heading = path_headings(x, y, tangent)

        K = min(int(round(self.eval_horizon / STEP)), N_SAMPLES - 1)
        world = self._world_entities(obs)
        collided, off_area = self._feasibility(obs, world, x, y, heading, d, K)
        ttc_frac = self._ttc_fractions(world, x, y, heading, v, K)
        # progress is credited over the full horizon; only the safety checks
        # (collision, area, TTC) are confined to the evaluation window
        progress = s_rel[:, -1].copy()
        prog_norm = progress / max(limit * (N_SAMPLES - 1) * STEP, 1e-6)
        accel = np.abs(np.diff(v[:, : K + 1], axis=1)) / STEP
        comfort = accel.mean(axis=1) / 4.0
        w = self.weights
        cost = (w.ttc * ttc_frac + w.offset * np.abs(deltas)
                + w.comfort * comfort - w.progress * prog_norm)

        candidates = []
        for ci in range(C):
            candidates.append(Candidate(
                delta=float(deltas[ci]),
                fraction=None if stop_mask[ci] else float(fractions[ci]),
                target_offset=float(targets[ci]),
                s=s_abs[ci], d=d[ci], v=v[ci], x=x[ci], y=y[ci],
                heading=heading[ci],
                feasible=not (collided[ci] or off_area[ci]),
                collided=bool(collided[ci]), off_area=bool(off_area[ci]),
                ttc_fraction=float(ttc_frac[ci]), progress=float(progress[ci]),
                comfort=float(comfort[ci]), cost=float(cost[ci])))
        best = self.select_index(candidates)
        return candidates, best

    @staticmethod
    def select_index(candidates: list[Candidate]) -> int:
        feasible = [i for i, c in enumerate(candidates) if c.feasible]
        if not feasible:
            # full-stop profile at the behavior's own offset
            return next(i for i, c in enumerate(candidates)
                        if c.fraction is None and c.delta == 0.0)
        return min(feasible, key=lambda i: (
            candidates[i].cost, abs(candidates[i].target_offset),
            -candidates[i].progress, i))

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _world_entities(obs: Observation):
        """(positions, velocities, headings, lengths, widths) of everything
        collidable, for forecasting."""
        px, py, vx, vy, hh, ll, ww = [], [], [], [], [], [], []
        for a in obs.agents:
            px.append(a.box.center.x)
            py.append(a.box.center.y)
            vx.append(a.speed * math.cos(a.box.center.heading))
            vy.append(a.speed * math.sin(a.box.center.heading))
            hh.append(a.box.center.heading)
            ll.append(a.box.length)
            ww.append(a.box.width)
        for o in obs.obstacles:
            px.append(o.box.center.x)
            py.append(o.box.center.y)
            vx.append(0.0)
            vy.append(0.0)
            hh.append(o.box.center.heading)
            ll.append(o.box.length)
            ww.append(o.box.width)
        for p in obs.pedestrians:
            px.append(p.position[0])
            py.append(p.position[1])
            vx.append(p.velocity[0])
            vy.append(p.velocity[1])
            hh.append(math.atan2(p.velocity[1], p.velocity[0])
                      if p.crossing else 0.0)
            ll.append(0.6)
            ww.append(0.6)
        return [np.asarray(v, dtype=float) for v in (px, py, vx, vy, hh, ll, ww)]

    def _rollout(self, v_now, gap0, v_lead, fractions, stop_mask, cap, limit,
                 params: IdmParams):
        """Vectorized IDM integration of all candidates at once."""
        C = len(gap0)
        v_target = np.where(stop_mask, 0.0,
                            np.nan_to_num(fractions) * (cap if cap > 0 else 0.0))
        v0_eff = np.maximum(v_target, 0.2)
        root = 2.0 * math.sqrt(params.a_max * params.b_comf)
        s = np.zeros((C, N_SAMPLES))
        v = np.zeros((C, N_SAMPLES))
        v[:, 0] = max(0.0, v_now)
        has_lead = np.isfinite(gap0)
        for k in range(1, N_SAMPLES):
            vk = v[:, k - 1]
            # free-flow braking toward a lower target speed stays comfortable;
            # only the lead-interaction term may brake at the emergency cap
            free = np.maximum(params.a_max * (1.0 - (vk / v0_eff) ** params.delta),
                              -2.0 * params.b_comf)
            a = free
            if has_lead.any():
                gap = gap0 + v_lead * (k - 1) * STEP - s[:, k - 1]
                gap = np.maximum(gap, 0.01)
                s_star = params.s0 + vk * params.T + vk * (vk - v_lead) / root
                s_star = np.maximum(s_star, params.s0)
                inter = np.where(has_lead, params.a_max * (s_star / gap) ** 2, 0.0)
                a = free - inter
            a = np.where(stop_mask, -STOP_DECEL, a)
            a = np.clip(a, EMERGENCY_DECEL, params.a_max)
            v[:, k] = np.maximum(0.0, vk + a * STEP)
            s[:, k] = s[:, k - 1] + v[:, k] * STEP
        return s, v

    def _feasibility(self, obs, world, x, y, heading, d, K):
        """At-fault predicted collisions and drivable-area exits over the
        evaluation window."""
        C = x.shape[0]
        collided = np.zeros(C, dtype=bool)
        ex, ey, evx, evy, eh, el, ew = world
        t = (np.arange(1, K + 1)) * STEP
        gx = x[:, 1:K + 1]
        gy = y[:, 1:K + 1]
        gh = heading[:, 1:K + 1]
        fx = ex + evx * t[:, None]  # (K, E)
        fy = ey + evy * t[:, None]
        hc, hk, he = box_contacts(gx[..., None], gy[..., None], gh[..., None],
                                  VEHICLE_LENGTH, VEHICLE_WIDTH,
                                  fx, fy, eh, el, ew)
        lat_speed = np.abs(np.diff(d[:, :K + 1], axis=1)) / STEP
        rel_x = (fx[hk, he] - gx[hc, hk]) * np.cos(gh[hc, hk]) \
            + (fy[hk, he] - gy[hc, hk]) * np.sin(gh[hc, hk])
        struck_from_behind = (rel_x < 0.0) & \
            (lat_speed[hc, hk] < LANE_KEEP_LAT_SPEED)
        collided[hc[~struck_from_behind]] = True

        # corners + center containment in the drivable area
        corners = _box_corners_batch(gx, gy, gh, VEHICLE_LENGTH, VEHICLE_WIDTH)
        pts = np.concatenate([corners, np.stack([gx, gy], axis=-1)[:, :, None]],
                             axis=2)  # (C, K, 5, 2)
        inside = points_in_any_polygon(pts.reshape(-1, 2),
                                       obs.graph.drivable_area)
        off_area = ~inside.reshape(C, -1).all(axis=1)
        return collided, off_area

    def _ttc_fractions(self, world, x, y, heading, v, K):
        """Fraction of evaluation ticks whose constant-velocity projection
        collides within the TTC threshold."""
        ex, ey, evx, evy, eh, el, ew = world
        t = (np.arange(1, K + 1)) * STEP
        window = np.s_[:, 1:K + 1]
        return ttc_violations(
            x[window], y[window], heading[window], v[window],
            VEHICLE_LENGTH, VEHICLE_WIDTH, ex + evx * t[:, None],
            ey + evy * t[:, None], evx, evy, eh, el, ew,
            self.ttc_threshold).mean(axis=1)
