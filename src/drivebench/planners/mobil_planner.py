"""IDM longitudinal control plus the MOBIL lane-change criterion: a change
is taken when it is safe for the new follower and the politeness-weighted
acceleration gain clears the threshold. Route-required changes receive a
bias term (the mandatory-lane-change variant), without which a symmetric
scene never justifies leaving the lane."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..agents import VEHICLE_LENGTH, IdmParams, idm_acceleration
from ..geometry import FrenetPoint, wrap_angle
from .base import (
    LaneScene,
    Observation,
    Trajectory,
    current_route_lane,
    ego_frenet,
    lane_scene,
)
from .idm_planner import (
    IdmPlanner,
    centerline_lead,
    centerline_trajectory,
    idm_rollout,
)
from .sampling import lateral_profile

MIN_CLEARANCE = 0.5  # m of bumper gap below which a change is vetoed outright


@dataclass(frozen=True)
class MobilParams:
    politeness: float = 0.3
    a_threshold: float = 0.1   # m/s^2 incentive needed to move
    b_safe: float = 4.0        # m/s^2 braking imposable on the new follower
    # mandatory-change bonus toward the route's goal side; sized to outweigh
    # a moderate speed disincentive (~a_max) so required merges happen, while
    # the safety criterion still protects the new follower
    route_bias: float = 2.0    # m/s^2

    def __post_init__(self):
        if not 0.0 <= self.politeness <= 1.0:
            raise ValueError("politeness must be in [0, 1]")
        if self.b_safe <= 0:
            raise ValueError("b_safe must be positive")


def _accel_against(scene: LaneScene, v: float, from_s: float,
                   params: IdmParams) -> float:
    lead = centerline_lead(scene, from_s)
    if lead is None:
        return idm_acceleration(v, None, None, params)
    gap = lead[0] - from_s
    return idm_acceleration(v, max(0.0, lead[1]), max(gap, 0.01), params)


def _follower_behind(obs: Observation, scene: LaneScene, lane_width: float,
                     s_rear: float):
    """Nearest agent whose front bumper is behind the given rear position,
    as (its front bumper s, the agent)."""
    front = scene.agent_s + np.array([a.box.length for a in obs.agents]) / 2.0
    behind = (np.abs(scene.agent_d) <= lane_width / 2.0) & (front < s_rear)
    if not behind.any():
        return None
    i = int(np.argmax(np.where(behind, front, -np.inf)))
    return float(front[i]), obs.agents[i]


def _goal_distance(obs: Observation, lane_id: str) -> Optional[int]:
    seq = obs.route.lane_sequence
    if lane_id in seq:
        return len(seq) - 1 - seq.index(lane_id)
    return None


def mobil_decide(obs: Observation, mp: MobilParams,
                 idm: Optional[IdmParams] = None) -> Optional[str]:
    """The neighbor lane with the largest incentive exceeding the threshold
    and passing the safety check, or None. Ties break toward the route's
    goal side."""
    lane_id = current_route_lane(obs)
    best = _decide(obs, mp, idm, lane_id, ego_frenet(obs, lane_id),
                   lane_scene(obs, lane_id))
    return best[0] if best is not None else None


def _decide(obs: Observation, mp: MobilParams, idm: Optional[IdmParams],
            lane_id: str, f: FrenetPoint, scene: LaneScene
            ) -> Optional[tuple[str, FrenetPoint, LaneScene]]:
    """mobil_decide from the current route lane, the ego's Frenet point on
    it and its projected scene. Returns the chosen lane with the ego's
    Frenet point on it and its projected scene, or None."""
    lane = obs.graph.lane(lane_id)
    params = idm or IdmParams(v0=lane.speed_limit)
    v = obs.ego_speed
    front = f.s + VEHICLE_LENGTH / 2.0
    rear = f.s - VEHICLE_LENGTH / 2.0
    a_ego = _accel_against(scene, v, front, params)

    own_goal_dist = _goal_distance(obs, lane_id)
    old_follower = _follower_behind(obs, scene, lane.width, rear)
    old_lead = centerline_lead(scene, front)

    best_key: Optional[tuple[float, bool, str]] = None
    best = None
    for cand in (lane.left_neighbor, lane.right_neighbor):
        if cand is None:
            continue
        cand_lane = obs.graph.lane(cand)
        cand_params = idm or IdmParams(v0=cand_lane.speed_limit)
        ego_c = ego_frenet(obs, cand)
        front_c = ego_c.s + VEHICLE_LENGTH / 2.0
        rear_c = ego_c.s - VEHICLE_LENGTH / 2.0

        cand_scene = lane_scene(obs, cand)
        new_lead = centerline_lead(cand_scene, front_c)
        if new_lead is not None and new_lead[0] - front_c < MIN_CLEARANCE:
            continue
        a_ego_new = _accel_against(cand_scene, v, front_c, cand_params)

        d_new_follower = 0.0
        follower = _follower_behind(obs, cand_scene, cand_lane.width, rear_c)
        safe = True
        if follower is not None:
            fr_front, fr_agent = follower
            gap_f = rear_c - fr_front
            if gap_f < MIN_CLEARANCE:
                safe = False
            else:
                fp = IdmParams(v0=cand_lane.speed_limit)
                a_after = idm_acceleration(fr_agent.speed, v, gap_f, fp)
                a_before = _accel_against(cand_scene, fr_agent.speed, fr_front,
                                          fp)
                if a_after < -mp.b_safe:
                    safe = False
                d_new_follower = a_after - a_before
        if not safe:
            continue

        d_old_follower = 0.0
        if old_follower is not None:
            of_front, of_agent = old_follower
            fp = IdmParams(v0=lane.speed_limit)
            a_before = idm_acceleration(of_agent.speed, v,
                                        max(rear - of_front, 0.01), fp)
            if old_lead is not None:
                a_after = idm_acceleration(of_agent.speed, max(0.0, old_lead[1]),
                                           max(old_lead[0] - of_front, 0.01), fp)
            else:
                a_after = idm_acceleration(of_agent.speed, None, None, fp)
            d_old_follower = a_after - a_before

        incentive = (a_ego_new - a_ego
                     + mp.politeness * (d_new_follower + d_old_follower))
        toward_goal = False
        cand_goal_dist = _goal_distance(obs, cand)
        if own_goal_dist is not None:
            if cand_goal_dist is not None and cand_goal_dist < own_goal_dist:
                incentive += mp.route_bias
                toward_goal = True
            else:
                incentive -= mp.route_bias
        if incentive > mp.a_threshold:
            key = (incentive, toward_goal, cand)
            if best_key is None or key > best_key:
                best_key, best = key, (cand, ego_c, cand_scene)
    return best


@dataclass
class IdmMobilPlanner:
    mobil: MobilParams = MobilParams()
    params: Optional[IdmParams] = None
    name: str = "mobil"

    def plan(self, obs: Observation) -> Trajectory:
        lane_id = current_route_lane(obs)
        f = ego_frenet(obs, lane_id)
        scene = lane_scene(obs, lane_id)
        best = _decide(obs, self.mobil, self.params, lane_id, f, scene)
        if best is None:
            return IdmPlanner(params=self.params).plan_on(obs, lane_id, f, scene)
        target, f, scene = best
        lane = obs.graph.lane(target)
        params = self.params or IdmParams(v0=lane.speed_limit)
        front = f.s + VEHICLE_LENGTH / 2.0
        lead = centerline_lead(scene, front)
        if lead is None:
            gap0, v_lead = None, 0.0
        else:
            gap0, v_lead = max(lead[0] - front, 0.01), max(0.0, lead[1])
        ds, v = idm_rollout(obs.ego_speed, gap0, v_lead, params)
        line = lane.centerline
        tangent = line.tangent_at(min(max(f.s, 0.0), line.length))
        slope0 = float(np.clip(
            math.tan(wrap_angle(obs.ego_box.center.heading - tangent)),
            -0.6, 0.6))
        span = max(3.0 * max(obs.ego_speed, 0.1), 12.0)
        d_arr = lateral_profile(f.d, slope0, np.array([0.0]), ds[None, :],
                                span)[0]
        return centerline_trajectory(obs, target, f.s + ds, v, d_arr)
