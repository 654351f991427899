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
from ..geometry import OrientedBox, Pose2D, points_in_any_polygon
from ..scenarios import merge_spans
from .base import (
    BehaviorOption,
    Observation,
    Trajectory,
    lane_scene,
)
from .sampling import SamplingPlanner

OVERTAKE_SCAN_AHEAD = 60.0   # m of corridor scanned for blocking obstacles
OVERTAKE_CLEARANCE = 0.4     # m of lateral margin past the obstacle edge
STOPPED_AGENT_SPEED = 0.2    # m/s below which an actor counts as stopped


def _blocking_cluster(obs: Observation, lane_id: str, ego_front: float):
    """The nearest blocking span ahead within scan range, with the lateral
    extent of everything inside it; None when the corridor is clear."""
    def in_range(spans):
        return [sp for sp in spans
                if sp[1] >= ego_front and sp[0] <= ego_front + OVERTAKE_SCAN_AHEAD]

    spans = in_range(obs.obstacle_table.blocking_spans.get(lane_id, []))
    agents = obs.agents
    stopped = [v < STOPPED_AGENT_SPEED for v in agents.speed]
    scene = lane_scene(obs, lane_id)
    on_lane = np.array(stopped, dtype=bool) & (
        np.abs(scene.agent_d) <= scene.agent_reach)
    spans += in_range(zip(
        (scene.agent_s - scene.agent_half_len)[on_lane].tolist(),
        (scene.agent_s + scene.agent_half_len)[on_lane].tolist()))
    if not spans:
        return None
    near, far = merge_spans(spans, 6.0)[0]
    line = obs.graph.lane(lane_id).centerline
    s_lo, s_hi, d_lo, d_hi = np.vstack(
        [np.column_stack((scene.obstacle_near_s, scene.obstacle_far_s,
                          scene.obstacle_d_lo, scene.obstacle_d_hi))]
        + [line.box_extents(OrientedBox(Pose2D(x, y, h), length, width))[1]
           for x, y, h, length, width in compress(zip(
               agents.x, agents.y, agents.heading, agents.length,
               agents.width), stopped)]).T
    inside = ((s_hi >= near - 0.5) & (s_lo <= far + 0.5)
              & (d_lo <= SWEPT_BAND_HALF_WIDTH)
              & (d_hi >= -SWEPT_BAND_HALF_WIDTH))
    if not inside.any():
        return None
    return near, far, float(d_lo[inside].min()), float(d_hi[inside].max())


def _offset_inside_area(obs: Observation, lane_id: str, s: float,
                        offset: float) -> bool:
    line = obs.graph.lane(lane_id).centerline
    pose = Pose2D(*line.place(min(max(s, 0.0), line.length), offset))
    box = OrientedBox(pose, VEHICLE_LENGTH, VEHICLE_WIDTH)
    pts = np.vstack([box.corners(), [[pose.x, pose.y]]])
    return bool(points_in_any_polygon(pts, obs.graph.drivable_area).all())


def enumerate_behaviors(obs: Observation) -> list[BehaviorOption]:
    """Behavior options filtered by neighbor-lane availability and the
    presence of obstacles in the current corridor. follow_lane and
    stop_and_wait are always offered."""
    lane_id = obs.ego_lane
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

    ego_front = lane_scene(obs, lane_id).ego.s + VEHICLE_LENGTH / 2.0
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

    def __init__(self, selector):
        self.selector = selector
        self.sampler = SamplingPlanner()
        self.query_count = 0
        self._last_query_second: Optional[int] = None
        self._behavior: Optional[BehaviorOption] = None
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
        if self._behavior is None or chosen.label != self._behavior.label:
            self._events.append({
                "kind": "behavior_switch", "time": obs.time,
                "from": self._behavior.label if self._behavior else None,
                "to": chosen.label})
        self._behavior = chosen
        take = getattr(self.selector, "take_audit", None)
        if take is not None:
            for entry in take():
                self._events.append({"kind": "llm_query", **entry})

    def drain_events(self) -> list[dict]:
        out, self._events = self._events, []
        return out
