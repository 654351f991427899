"""Centerline-following IDM planner: zero lateral offset on the current
route lane, longitudinal profile by IDM against the nearest lead, never a
lane change."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..agents import VEHICLE_LENGTH, IdmParams, idm_acceleration
from ..geometry import FrenetPoint
from .base import (
    N_SAMPLES,
    STEP,
    LaneScene,
    Observation,
    Trajectory,
    current_route_lane,
    ego_frenet,
    lane_scene,
    nearest_lead,
    path_headings,
)


def idm_rollout(v_start: float, gap0: Optional[float], v_lead: float,
                params: IdmParams, n: int = N_SAMPLES, dt: float = STEP
                ) -> tuple[np.ndarray, np.ndarray]:
    """Forward-integrate IDM for n samples against a constant-velocity lead
    (or free flow when gap0 is None); returns (arc offsets, speeds)."""
    s = np.zeros(n)
    v = np.zeros(n)
    v[0] = max(0.0, v_start)
    for k in range(1, n):
        if gap0 is None:
            a = idm_acceleration(v[k - 1], None, None, params)
        else:
            gap = gap0 + v_lead * (k - 1) * dt - s[k - 1]
            a = idm_acceleration(v[k - 1], v_lead, max(gap, 0.01), params)
        v[k] = max(0.0, v[k - 1] + a * dt)
        s[k] = s[k - 1] + v[k] * dt
    return s, v


def centerline_lead(scene: LaneScene, from_s: float
                    ) -> Optional[tuple[float, float]]:
    """nearest_lead along the lane centerline, as (s of its near edge, its
    speed along the lane), or None."""
    [lead_s], [lead_v] = nearest_lead(scene, from_s)
    return None if math.isinf(lead_s) else (float(lead_s), float(lead_v))


def centerline_trajectory(obs: Observation, lane_id: str, s_arr: np.ndarray,
                          v_arr: np.ndarray, d_arr=None) -> Trajectory:
    """Embed an arc-length profile on a lane centerline (plus optional
    lateral offsets) into a timed trajectory."""
    line = obs.graph.lane(lane_id).centerline
    d = np.zeros_like(s_arr) if d_arr is None else np.asarray(d_arr, dtype=float)
    x, y, tangent = line.interpolate_many(s_arr, d)
    heading = path_headings(x[None], y[None], tangent[None])[0]
    t = np.arange(len(s_arr)) * STEP
    return Trajectory(t, x, y, heading, v_arr)


@dataclass
class IdmPlanner:
    params: Optional[IdmParams] = None
    name: str = "idm"

    def plan(self, obs: Observation) -> Trajectory:
        lane_id = current_route_lane(obs)
        return self.plan_on(obs, lane_id, ego_frenet(obs, lane_id),
                            lane_scene(obs, lane_id))

    def plan_on(self, obs: Observation, lane_id: str, f: FrenetPoint,
                scene: LaneScene) -> Trajectory:
        """The plan along lane_id from the ego's Frenet point f on it,
        following the nearest lead in scene, the lane's projected scene."""
        params = self.params or IdmParams(v0=obs.graph.lane(lane_id).speed_limit)
        front = f.s + VEHICLE_LENGTH / 2.0
        lead = centerline_lead(scene, front)
        if lead is None:
            gap0, v_lead = None, 0.0
        else:
            gap0 = lead[0] - front
            v_lead = max(0.0, lead[1])
            if gap0 <= 0:
                gap0 = 0.01
        ds, v = idm_rollout(obs.ego_speed, gap0, v_lead, params)
        return centerline_trajectory(obs, lane_id, f.s + ds, v)
