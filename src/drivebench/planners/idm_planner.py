"""Centerline-following IDM planner: zero lateral offset on the current
route lane, longitudinal profile by IDM against the nearest lead, never a
lane change."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..agents import VEHICLE_LENGTH, idm_profile
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


def idm_rollout(v_start: float, gap0: float, v_lead: float,
                v0: float) -> tuple[np.ndarray, np.ndarray]:
    """idm_profile over the plan's N_SAMPLES toward desired speed v0 against
    a constant-velocity lead (free flow when gap0 is inf): (arc offsets,
    speeds)."""
    s, v = idm_profile(v_start, gap0, v_lead, v0, STEP, N_SAMPLES - 1)
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
    the ego's front bumper: (arc offsets, speeds)."""
    front = scene.ego.s + VEHICLE_LENGTH / 2.0
    [lead_s], [lead_v] = nearest_lead(scene, front)
    return idm_rollout(v_start, float(lead_s) - front, float(lead_v), v0)


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
