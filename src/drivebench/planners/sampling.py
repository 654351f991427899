"""Trajectory-sampling motion planner: 30 candidates (5 lateral offsets
around the active behavior x 5 IDM speed profiles + a full stop), scored by
a cost over a short evaluation window with constant-velocity forecasts of
all actors.

The evaluation window (EVAL_HORIZON, 2.0 s) bounds every look-ahead check:
collisions, drivable-area exits and the TTC term. Conflicts that first
materialize beyond it are invisible to the planner by design.

The safety checks run lazily. Every candidate gets its cheap cost terms;
the cost at a TTC fraction of 0 bounds its cost from below. The candidate
with the least bound is checked first, and the others only when it is
infeasible or its exact cost does not beat the next bound, so the choice
is the one that checking all 30 would make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..agents import IDM_B_COMF, VEHICLE_LENGTH, VEHICLE_WIDTH, idm_profile
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
    lane_scene,
    nearest_lead,
    path_headings,
)

OFFSET_DELTAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
SPEED_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)   # of min(limit, behavior cap)
STOP_DECEL = 3.5          # m/s^2 of the dedicated full-stop profile
LANE_KEEP_LAT_SPEED = 0.3  # m/s below which rear contacts are not our fault
EVAL_HORIZON = 2.0        # s of the safety checks' evaluation window
TTC_THRESHOLD = 0.95      # s; a projected contact within it is a violation

# cost weights
TTC_WEIGHT = 5.0          # penalty on the TTC-violation fraction
PROGRESS_WEIGHT = 5.0     # reward on normalized progress
OFFSET_WEIGHT = 1.0       # penalty per meter of offset delta
COMFORT_WEIGHT = 0.5      # penalty on normalized mean |accel|


@dataclass
class Candidate:
    """One scored candidate. s and v span the full 8 s horizon (N_SAMPLES).
    Only a checked candidate went through the safety checks: it alone
    carries d, x, y and heading over the evaluation window (samples 0..K),
    the collided, off_area and feasible flags, its TTC fraction and its
    exact cost. An unchecked one carries its cost's lower bound (the cost
    at a TTC fraction of 0) as cost, None flags and arrays, and a NaN TTC
    fraction."""
    delta: float
    fraction: Optional[float]      # None = full-stop profile
    target_offset: float
    s: np.ndarray
    v: np.ndarray
    progress: float
    comfort: float
    cost: float
    checked: bool = False
    d: Optional[np.ndarray] = None
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    heading: Optional[np.ndarray] = None
    feasible: Optional[bool] = None
    collided: Optional[bool] = None
    off_area: Optional[bool] = None
    ttc_fraction: float = math.nan


def selection_key(candidates: list[Candidate], i: int) -> tuple:
    """The selection order: lower cost, then lower absolute target offset,
    then more progress, then lower index."""
    c = candidates[i]
    return c.cost, abs(c.target_offset), -c.progress, i


def lateral_profile(d0: float, slope0: float, target, s_rel: np.ndarray,
                    span: float) -> np.ndarray:
    """Quintic Hermite lateral offset over traveled arc length: starts at d0
    with the ego's current drift slope, settles at the target with zero
    slope and curvature. Replanning every tick stays consistent because the
    profile continues the current lateral motion instead of resetting it."""
    u = np.clip(s_rel / span, 0.0, 1.0)
    u2 = u * u
    u3, u4 = u2 * u, u2 * u2
    u5 = u4 * u
    h0 = 1.0 - 10.0 * u3 + 15.0 * u4 - 6.0 * u5
    h1 = u - 6.0 * u3 + 8.0 * u4 - 3.0 * u5
    h3 = 10.0 * u3 - 15.0 * u4 + 6.0 * u5
    target = np.asarray(target, dtype=float)
    if target.ndim == 1:
        target = target[:, None]
    return d0 * h0 + slope0 * span * h1 + target * h3


def rollouts(v_now: float, gap0: np.ndarray, v_lead: np.ndarray, cap: float
             ) -> tuple[np.ndarray, np.ndarray]:
    """Arc offsets and speeds, each (C, N_SAMPLES), of the candidates in
    SamplingPlanner.evaluate's order: per offset, idm_profile toward each
    speed fraction of cap (at least 0.2 m/s) behind the offset's lead,
    gap0 ahead at speed v_lead (gap0 inf: none), then the full stop at
    STOP_DECEL. Free-flow braking toward a lower target speed stays
    comfortable; only the lead term may brake at the emergency cap. Each
    distinct row is integrated once."""
    table, ids, picks = [], {}, []
    for lead in zip(gap0.tolist(), v_lead.tolist()):
        keys = [(*lead, max(f * cap, 0.2)) for f in SPEED_FRACTIONS]
        for key in keys + [None]:  # None: the full stop
            if key not in ids:
                ids[key] = len(table)
                table.append(_stop_profile(v_now) if key is None else
                             idm_profile(v_now, *key, STEP, N_SAMPLES - 1,
                                         -2.0 * IDM_B_COMF))
            picks.append(ids[key])
    s, v = np.array(table).swapaxes(0, 1)[:, picks]
    return s, v


def _stop_profile(v_now: float) -> tuple[list[float], list[float]]:
    """Arc offsets and speeds braking at STOP_DECEL from v_now to rest,
    where the row stays."""
    sk, vk = 0.0, v_now if v_now > 0.0 else 0.0
    s, v = [sk], [vk]
    for k in range(N_SAMPLES - 1):
        vk -= STOP_DECEL * STEP
        if not vk > 0.0:
            rest = N_SAMPLES - 1 - k
            return s + [sk] * rest, v + [0.0] * rest
        sk += vk * STEP
        s.append(sk)
        v.append(vk)
    return s, v


class SamplingPlanner:
    """Offset-and-profile sampler around a behavior (follow-lane by
    default); deterministic argmin of the cost with tie-breaks on lower
    absolute offset, then higher progress."""

    name = "sampler"
    memoryless = True  # plans from the observation alone: run_closed_loop

    # -- public API ---------------------------------------------------------

    def plan(self, obs: Observation, behavior: Optional[BehaviorOption] = None
             ) -> Trajectory:
        return self.evaluate(obs, behavior)[2]

    def default_behavior(self, obs: Observation) -> BehaviorOption:
        lane_id = obs.ego_lane
        return BehaviorOption("follow_lane", lane_id, 0.0,
                              obs.graph.lane(lane_id).speed_limit)

    def evaluate(self, obs: Observation,
                 behavior: Optional[BehaviorOption] = None
                 ) -> tuple[list[Candidate], int, Trajectory]:
        """All 30 candidates, the selected index and the selected
        candidate's full 8 s trajectory. Every candidate carries its s and
        v over the full horizon and its progress and comfort; the checked
        ones also carry their paths over the evaluation window, samples
        0..K, and their safety terms (see Candidate)."""
        behavior = behavior or self.default_behavior(obs)
        lane = obs.graph.lane(behavior.centerline)
        line = lane.centerline
        limit = lane.speed_limit
        cap = min(limit, behavior.target_speed_cap) if behavior.target_speed_cap > 0 else 0.0
        scene = lane_scene(obs, behavior.centerline)
        s0, d0 = scene.ego.s, scene.ego.d
        v_now = obs.ego_speed
        tangent0 = line.tangent_at(s0)
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
            scene, front0, lambda s: lateral_profile(
                d0, slope0, offsets, np.maximum(s - s0, 0.0), span))
        s_rel, v = rollouts(v_now, lead_s - front0, lead_v, cap)
        s_abs = s0 + s_rel

        def paths(rows, n):
            """d, x, y and heading of the given candidates' first n samples."""
            d = lateral_profile(d0, slope0, targets[rows], s_rel[rows, :n], span)
            x, y, tangent = line.interpolate_many(s_abs[rows, :n], d)
            return d, x, y, path_headings(x, y, tangent)

        K = min(int(round(EVAL_HORIZON / STEP)), N_SAMPLES - 1)
        # progress is credited over the full horizon; only the safety checks
        # (collision, area, TTC) are confined to the evaluation window
        progress = s_rel[:, -1].copy()
        prog_norm = progress / max(limit * (N_SAMPLES - 1) * STEP, 1e-6)
        accel = np.abs(np.diff(v[:, : K + 1], axis=1)) / STEP
        comfort = accel.mean(axis=1) / 4.0

        def cost(rows, ttc_frac):
            return (TTC_WEIGHT * ttc_frac
                    + OFFSET_WEIGHT * np.abs(deltas[rows])
                    + COMFORT_WEIGHT * comfort[rows]
                    - PROGRESS_WEIGHT * prog_norm[rows])

        # TTC_WEIGHT * ttc_frac >= 0 and rounding is monotone, so the cost at
        # a TTC fraction of 0 is a lower bound of the cost, bit for bit
        bound = cost(slice(None), 0.0)
        candidates = [Candidate(
            delta=float(deltas[ci]),
            fraction=None if stop_mask[ci] else float(fractions[ci]),
            target_offset=float(targets[ci]), s=s_abs[ci], v=v[ci],
            progress=float(progress[ci]), comfort=float(comfort[ci]),
            cost=float(bound[ci])) for ci in range(C)]
        world = self._world_entities(obs)

        def check(rows):
            """Run the safety checks on the given candidates; every kernel
            works row by row, so a subset gets the bits of the full batch."""
            # path_headings copies its last column and otherwise looks only
            # backwards, so K + 2 samples give the first K + 1 exactly
            d, x, y, heading = (a[:, :K + 1] for a in paths(
                rows, min(K + 2, N_SAMPLES)))
            collided, off_area = self._feasibility(obs, world, x, y, heading,
                                                   d, K)
            ttc_frac = self._ttc_fractions(world, x, y, heading, v[rows], K)
            for i, (ci, c_cost) in enumerate(zip(rows, cost(rows, ttc_frac))):
                c = candidates[ci]
                c.checked, c.cost = True, float(c_cost)
                c.d, c.x, c.y, c.heading = d[i], x[i], y[i], heading[i]
                c.collided, c.off_area = bool(collided[i]), bool(off_area[i])
                c.feasible = not (collided[i] or off_area[i])
                c.ttc_fraction = float(ttc_frac[i])

        # an unchecked candidate's key is no less than its bound key, so the
        # least-bound candidate is certified once it is feasible and its
        # exact key beats every other bound key
        order = sorted(range(C), key=lambda i: selection_key(candidates, i))
        first, runner_up = order[:2]
        check([first])
        if not (candidates[first].feasible and selection_key(candidates, first)
                < selection_key(candidates, runner_up)):
            check(order[1:])
        best = self.select_index(candidates)
        _, bx, by, bh = paths(slice(best, best + 1), N_SAMPLES)
        return candidates, best, Trajectory(np.arange(N_SAMPLES) * STEP,
                                            bx[0], by[0], bh[0], v[best])

    @staticmethod
    def select_index(candidates: list[Candidate]) -> int:
        feasible = [i for i, c in enumerate(candidates) if c.feasible]
        if not feasible:
            # full-stop profile at the behavior's own offset
            return next(i for i, c in enumerate(candidates)
                        if c.fraction is None and c.delta == 0.0)
        return min(feasible, key=lambda i: selection_key(candidates, i))

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _world_entities(obs: Observation):
        """(positions, velocities, headings, lengths, widths) of everything
        collidable, for forecasting."""
        a = obs.agents
        rows = [(x, y, v * math.cos(h), v * math.sin(h), h, length, width)
                for x, y, v, h, length, width in zip(
                    a.x, a.y, a.speed, a.heading, a.length, a.width)]
        rows += [(o.box.center.x, o.box.center.y, 0.0, 0.0,
                  o.box.center.heading, o.box.length, o.box.width)
                 for o in obs.obstacles]
        rows += [(*p.position, *p.velocity,
                  math.atan2(p.velocity[1], p.velocity[0]) if p.crossing
                  else 0.0, 0.6, 0.6) for p in obs.pedestrians]
        return list(np.array(rows, dtype=float).reshape(-1, 7).T.copy())

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
        px, py = _box_corners_batch(gx, gy, gh, VEHICLE_LENGTH, VEHICLE_WIDTH)
        pts = np.stack([np.vstack([px, gx[None]]), np.vstack([py, gy[None]])], -1)
        inside = points_in_any_polygon(pts.reshape(-1, 2),
                                       obs.graph.drivable_area)
        off_area = ~inside.reshape(5, C, -1).all(axis=(0, 2))
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
            TTC_THRESHOLD).mean(axis=1)
