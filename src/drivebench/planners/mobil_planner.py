"""IDM longitudinal control plus the MOBIL lane-change criterion: a change
is taken when it is safe for the new follower and the politeness-weighted
acceleration gain clears the threshold. Route-required changes receive a
bias term (the mandatory-lane-change variant), without which a symmetric
scene never justifies leaving the lane."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..agents import VEHICLE_LENGTH, idm_acceleration
from ..geometry import wrap_angle
from .base import (
    LaneScene,
    Observation,
    Trajectory,
    lane_scene,
)
from .idm_planner import (
    IdmPlanner,
    centerline_lead,
    centerline_trajectory,
    lead_rollout,
)
from .sampling import lateral_profile

MIN_CLEARANCE = 0.5  # m of bumper gap below which a change is vetoed outright
POLITENESS = 0.3     # weight of the followers' acceleration changes
A_THRESHOLD = 0.1    # m/s^2 incentive needed to move
B_SAFE = 4.0         # m/s^2 braking imposable on the new follower
# mandatory-change bonus toward the route's goal side; sized to outweigh
# a moderate speed disincentive (~a_max) so required merges happen, while
# the safety criterion still protects the new follower
ROUTE_BIAS = 2.0     # m/s^2


def _accel_against(scene: LaneScene, v: float, from_s: float,
                   v0: float) -> float:
    lead = centerline_lead(scene, from_s)
    if lead is None:
        return idm_acceleration(v, None, None, v0)
    gap = lead[0] - from_s
    return idm_acceleration(v, max(0.0, lead[1]), max(gap, 0.01), v0)


def _follower_behind(obs: Observation, scene: LaneScene, lane_width: float,
                     s_rear: float):
    """Nearest agent whose front bumper is behind the given rear position,
    as (its front bumper s, its speed)."""
    front = scene.agent_s + scene.agent_half_len
    behind = (np.abs(scene.agent_d) <= lane_width / 2.0) & (front < s_rear)
    if not behind.any():
        return None
    i = int(np.argmax(np.where(behind, front, -np.inf)))
    return float(front[i]), obs.agents.speed[i]


def _goal_distance(obs: Observation, lane_id: str) -> Optional[int]:
    seq = obs.route.lane_sequence
    if lane_id in seq:
        return len(seq) - 1 - seq.index(lane_id)
    return None


def mobil_decide(obs: Observation) -> Optional[str]:
    """The neighbor lane with the largest incentive exceeding the threshold
    and passing the safety check, or None. Ties break toward the route's
    goal side. Every IDM acceleration is toward the speed limit of the lane
    it is taken on."""
    lane_id = obs.ego_lane
    lane = obs.graph.lane(lane_id)
    scene = lane_scene(obs, lane_id)
    f = scene.ego
    v = obs.ego_speed
    front = f.s + VEHICLE_LENGTH / 2.0
    rear = f.s - VEHICLE_LENGTH / 2.0
    a_ego = _accel_against(scene, v, front, lane.speed_limit)

    own_goal_dist = _goal_distance(obs, lane_id)
    old_follower = _follower_behind(obs, scene, lane.width, rear)
    old_lead = centerline_lead(scene, front)

    best_key: Optional[tuple[float, bool, str]] = None
    for cand in (lane.left_neighbor, lane.right_neighbor):
        if cand is None:
            continue
        cand_lane = obs.graph.lane(cand)
        cand_scene = lane_scene(obs, cand)
        front_c = cand_scene.ego.s + VEHICLE_LENGTH / 2.0
        rear_c = cand_scene.ego.s - VEHICLE_LENGTH / 2.0

        new_lead = centerline_lead(cand_scene, front_c)
        if new_lead is not None and new_lead[0] - front_c < MIN_CLEARANCE:
            continue
        a_ego_new = _accel_against(cand_scene, v, front_c, cand_lane.speed_limit)

        d_new_follower = 0.0
        follower = _follower_behind(obs, cand_scene, cand_lane.width, rear_c)
        safe = True
        if follower is not None:
            fr_front, fr_speed = follower
            gap_f = rear_c - fr_front
            if gap_f < MIN_CLEARANCE:
                safe = False
            else:
                a_after = idm_acceleration(fr_speed, v, gap_f,
                                           cand_lane.speed_limit)
                a_before = _accel_against(cand_scene, fr_speed, fr_front,
                                          cand_lane.speed_limit)
                if a_after < -B_SAFE:
                    safe = False
                d_new_follower = a_after - a_before
        if not safe:
            continue

        d_old_follower = 0.0
        if old_follower is not None:
            of_front, of_speed = old_follower
            a_before = idm_acceleration(of_speed, v,
                                        max(rear - of_front, 0.01),
                                        lane.speed_limit)
            if old_lead is not None:
                a_after = idm_acceleration(of_speed, max(0.0, old_lead[1]),
                                           max(old_lead[0] - of_front, 0.01),
                                           lane.speed_limit)
            else:
                a_after = idm_acceleration(of_speed, None, None,
                                           lane.speed_limit)
            d_old_follower = a_after - a_before

        incentive = (a_ego_new - a_ego
                     + POLITENESS * (d_new_follower + d_old_follower))
        toward_goal = False
        cand_goal_dist = _goal_distance(obs, cand)
        if own_goal_dist is not None:
            if cand_goal_dist is not None and cand_goal_dist < own_goal_dist:
                incentive += ROUTE_BIAS
                toward_goal = True
            else:
                incentive -= ROUTE_BIAS
        if incentive > A_THRESHOLD:
            key = (incentive, toward_goal, cand)
            if best_key is None or key > best_key:
                best_key = key
    return best_key[2] if best_key is not None else None


class IdmMobilPlanner:
    name = "mobil"

    def plan(self, obs: Observation) -> Trajectory:
        target = mobil_decide(obs)
        if target is None:
            return IdmPlanner().plan(obs)
        lane = obs.graph.lane(target)
        scene = lane_scene(obs, target)
        f = scene.ego
        # mobil_decide vetoed every target whose lead gap is below
        # MIN_CLEARANCE, so the rollout's 0.01 m gap clamp never fires on a
        # lane change
        ds, v = lead_rollout(obs.ego_speed, scene, lane.speed_limit)
        line = lane.centerline
        tangent = line.tangent_at(f.s)
        slope0 = float(np.clip(
            math.tan(wrap_angle(obs.ego_box.center.heading - tangent)),
            -0.6, 0.6))
        span = max(3.0 * max(obs.ego_speed, 0.1), 12.0)
        d_arr = lateral_profile(f.d, slope0, np.array([0.0]), ds[None, :],
                                span)[0]
        return centerline_trajectory(obs, target, f.s + ds, v, d_arr)
