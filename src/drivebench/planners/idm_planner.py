"""Centerline-following IDM planner: zero lateral offset on the current
route lane, longitudinal profile by IDM against the nearest lead, never a
lane change."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..agents import VEHICLE_LENGTH, idm_acceleration
from .base import (
    N_SAMPLES,
    STEP,
    LaneScene,
    Observation,
    Trajectory,
    lane_scene,
    nearest_lead,
    path_headings,
)


def idm_rollout(v_start: float, gap0: Optional[float], v_lead: float,
                v0: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward-integrate IDM toward desired speed v0 over the plan's
    N_SAMPLES against a constant-velocity lead (or free flow when gap0 is
    None); returns (arc offsets, speeds). The loop runs on Python floats
    and builds the two arrays once at the end."""
    sk, vk = 0.0, max(0.0, v_start)
    s, v = [sk], [vk]
    for k in range(1, N_SAMPLES):
        if gap0 is None:
            a = idm_acceleration(vk, None, None, v0)
        else:
            gap = gap0 + v_lead * (k - 1) * STEP - sk
            a = idm_acceleration(vk, v_lead, max(gap, 0.01), v0)
        vk = max(0.0, vk + a * STEP)
        sk = sk + vk * STEP
        s.append(sk)
        v.append(vk)
    return np.array(s), np.array(v)


def centerline_lead(scene: LaneScene, from_s: float
                    ) -> Optional[tuple[float, float]]:
    """nearest_lead along the lane centerline, as (s of its near edge, its
    speed along the lane), or None."""
    [lead_s], [lead_v] = nearest_lead(scene, from_s)
    return None if math.isinf(lead_s) else (float(lead_s), float(lead_v))


def lead_rollout(v_start: float, scene: LaneScene,
                 v0: float) -> tuple[np.ndarray, np.ndarray]:
    """idm_rollout from v_start against the nearest lead in scene ahead of
    the ego's front bumper: (arc offsets, speeds). A lead at or behind the
    front bumper counts at a gap of 0.01 m."""
    front = scene.ego.s + VEHICLE_LENGTH / 2.0
    lead = centerline_lead(scene, front)
    if lead is None:
        gap0, v_lead = None, 0.0
    else:
        gap0 = lead[0] - front
        v_lead = max(0.0, lead[1])
        if gap0 <= 0:
            gap0 = 0.01
    return idm_rollout(v_start, gap0, v_lead, v0)


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


class IdmPlanner:
    name = "idm"

    def plan(self, obs: Observation) -> Trajectory:
        lane_id = obs.ego_lane
        scene = lane_scene(obs, lane_id)
        ds, v = lead_rollout(obs.ego_speed, scene,
                             obs.graph.lane(lane_id).speed_limit)
        return centerline_trajectory(obs, lane_id, scene.ego.s + ds, v)
