"""Two-stage hybrid planner: a behavior selector (LLM-backed or scripted)
queried at 1 Hz chooses among the filtered behavior options; the sampling
motion planner, running every tick, is conditioned on the choice.

Selector failures (errors, timeouts, unparsable output, unoffered labels)
are recorded as selector_failure events and retain the previous behavior,
falling back to follow-lane before any selection succeeded.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Optional

import numpy as np

from ..agents import SWEPT_BAND_HALF_WIDTH, VEHICLE_LENGTH, VEHICLE_WIDTH
from ..geometry import OrientedBox, points_in_any_polygon
from .base import (
    BehaviorOption,
    Observation,
    Trajectory,
    box_extent,
    current_route_lane,
    ego_frenet,
    lane_scene,
)
from .sampling import CostWeights, SamplingPlanner

OVERTAKE_SCAN_AHEAD = 60.0   # m of corridor scanned for blocking obstacles
OVERTAKE_CLEARANCE = 0.4     # m of lateral margin past the obstacle edge
STOPPED_AGENT_SPEED = 0.2    # m/s below which an actor counts as stopped


def _blocking_cluster(obs: Observation, lane_id: str, ego_front: float):
    """The nearest blocking span ahead within scan range, with the lateral
    extent of everything inside it; None when the corridor is clear."""
    scene = lane_scene(obs, lane_id)
    stopped = [a.speed < STOPPED_AGENT_SPEED for a in obs.agents]
    half_len = np.array([a.box.length / 2.0 for a in obs.agents])
    on_lane = np.array(stopped, dtype=bool) & (
        np.abs(scene.agent_d) <= scene.agent_reach)
    spans = list(obs.lane_blockers.get(lane_id, [])) + list(zip(
        (scene.agent_s - half_len)[on_lane].tolist(),
        (scene.agent_s + half_len)[on_lane].tolist()))
    spans = [sp for sp in spans
             if sp[1] >= ego_front and sp[0] <= ego_front + OVERTAKE_SCAN_AHEAD]
    if not spans:
        return None
    spans.sort()
    near, far = spans[0]
    for lo, hi in spans[1:]:
        if lo <= far + 6.0:
            far = max(far, hi)
    line = obs.graph.lane(lane_id).centerline
    s_lo, s_hi, d_lo, d_hi = np.vstack(
        [np.column_stack((scene.obstacle_near_s, scene.obstacle_far_s,
                          scene.obstacle_d_lo, scene.obstacle_d_hi))]
        + [box_extent(line, a.box) for a in compress(obs.agents, stopped)]).T
    inside = ((s_hi >= near - 0.5) & (s_lo <= far + 0.5)
              & (d_lo <= SWEPT_BAND_HALF_WIDTH)
              & (d_hi >= -SWEPT_BAND_HALF_WIDTH))
    if not inside.any():
        return None
    return near, far, float(d_lo[inside].min()), float(d_hi[inside].max())


def _offset_inside_area(obs: Observation, lane_id: str, s: float,
                        offset: float) -> bool:
    line = obs.graph.lane(lane_id).centerline
    pose = line.interpolate_frenet(min(max(s, 0.0), line.length), offset)
    box = OrientedBox(pose, VEHICLE_LENGTH, VEHICLE_WIDTH)
    pts = np.vstack([box.corners(), [[pose.x, pose.y]]])
    return bool(points_in_any_polygon(pts, obs.graph.drivable_area).all())


def enumerate_behaviors(obs: Observation) -> list[BehaviorOption]:
    """Behavior options filtered by neighbor-lane availability and the
    presence of obstacles in the current corridor. follow_lane and
    stop_and_wait are always offered."""
    lane_id = current_route_lane(obs)
    lane = obs.graph.lane(lane_id)
    options = [BehaviorOption("follow_lane", lane_id, 0.0, lane.speed_limit)]
    if lane.left_neighbor is not None:
        options.append(BehaviorOption(
            "merge_left", lane.left_neighbor, 0.0,
            obs.graph.lane(lane.left_neighbor).speed_limit))
    if lane.right_neighbor is not None:
        options.append(BehaviorOption(
            "merge_right", lane.right_neighbor, 0.0,
            obs.graph.lane(lane.right_neighbor).speed_limit))

    ego_front = ego_frenet(obs, lane_id).s + VEHICLE_LENGTH / 2.0
    cluster = _blocking_cluster(obs, lane_id, ego_front)
    if cluster is not None:
        near, far, d_lo, d_hi = cluster
        left_off = d_hi + VEHICLE_WIDTH / 2.0 + OVERTAKE_CLEARANCE
        right_off = d_lo - VEHICLE_WIDTH / 2.0 - OVERTAKE_CLEARANCE
        mid = 0.5 * (near + far)
        choices = sorted([left_off, right_off], key=lambda o: (abs(o), o < 0))
        for off in choices:
            if _offset_inside_area(obs, lane_id, mid, off):
                options.append(BehaviorOption(
                    "overtake_obstacle", lane_id, off, lane.speed_limit,
                    obstacle_far_s=far))
                break
    options.append(BehaviorOption("stop_and_wait", lane_id, 0.0, 0.0))
    return options


class HybridBehaviorPlanner:
    """Behavior selector at 1 Hz conditioning the 10 Hz sampling planner."""

    name = "hybrid"

    def __init__(self, selector, weights: CostWeights = CostWeights(),
                 eval_horizon: float = 2.0, dwell_time: float = 0.0):
        self.selector = selector
        self.sampler = SamplingPlanner(weights=weights, eval_horizon=eval_horizon)
        self.dwell_time = dwell_time  # 0 disables switch damping
        self.query_count = 0
        self._last_query_second: Optional[int] = None
        self._behavior: Optional[BehaviorOption] = None
        self._last_switch_time = -math.inf
        self._events: list[dict] = []

    def plan(self, obs: Observation) -> Trajectory:
        second = math.floor(obs.time + 1e-9)
        if self._last_query_second is None or second > self._last_query_second:
            self._last_query_second = second
            self._query(obs)
        return self.sampler.plan(obs, behavior=self._behavior)

    def _query(self, obs: Observation):
        options = enumerate_behaviors(obs)
        self.query_count += 1
        chosen: Optional[BehaviorOption] = None
        try:
            resp = self.selector.select(obs, options)
            chosen = next((o for o in options if o.label == resp.chosen_label),
                          None)
            if chosen is None:
                raise ValueError(f"label {resp.chosen_label!r} was not offered")
        except Exception as exc:
            self._events.append({
                "kind": "selector_failure", "time": obs.time,
                "error": type(exc).__name__, "message": str(exc)})
        if chosen is None:
            chosen = self._behavior if self._behavior is not None else options[0]
        if (self._behavior is not None and chosen.label != self._behavior.label
                and obs.time - self._last_switch_time < self.dwell_time):
            chosen = self._behavior
        if self._behavior is None or chosen.label != self._behavior.label:
            self._events.append({
                "kind": "behavior_switch", "time": obs.time,
                "from": self._behavior.label if self._behavior else None,
                "to": chosen.label})
            self._last_switch_time = obs.time
        self._behavior = chosen
        take = getattr(self.selector, "take_audit", None)
        if take is not None:
            for entry in take():
                self._events.append({"kind": "llm_query", **entry})

    def drain_events(self) -> list[dict]:
        out, self._events = self._events, []
        return out
