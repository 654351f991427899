"""Waypoints-from-an-LLM planner: the model is prompted for an 8-second
trajectory at 2 Hz in the ego frame; the 16 parsed waypoints are
cubic-interpolated to the internal 0.1 s spacing. A parse or validation
failure raises, and plan_with_fallback turns it into the brake fallback."""

from __future__ import annotations

import math

import numpy as np

from .base import N_SAMPLES, STEP, Observation, Trajectory, path_headings

WAYPOINT_SPACING = 0.5  # s, the 2 Hz wire format
N_WAYPOINTS = 16


class WaypointsLlmPlanner:
    """plan() queries the client once per tick and converts the response
    into a trajectory; the client is any callable PromptBundle -> text."""

    name = "llm-waypoints"

    def __init__(self, client):
        self.client = client
        self._events: list[dict] = []

    def plan(self, obs: Observation) -> Trajectory:
        # imported here: the llm module itself depends on planners.base
        from ..llm import build_waypoints_prompt, parse_waypoints_response
        prompt = build_waypoints_prompt(obs)
        raw = self.client(prompt)
        self._events.append({"kind": "llm_query", "time": obs.time,
                             "prompt": prompt.user_content(), "response": raw})
        pairs = parse_waypoints_response(raw, N_WAYPOINTS)
        return self._to_trajectory(obs, pairs)

    def drain_events(self) -> list[dict]:
        out, self._events = self._events, []
        return out

    @staticmethod
    def _to_trajectory(obs: Observation, pairs) -> Trajectory:
        # imported here: scipy.interpolate is most of drivebench's import time
        from scipy.interpolate import CubicSpline

        h0 = obs.ego_box.center.heading
        c, s = math.cos(h0), math.sin(h0)
        pts = np.asarray(pairs, dtype=float)
        world = np.column_stack([
            obs.ego_box.center.x + pts[:, 0] * c - pts[:, 1] * s,
            obs.ego_box.center.y + pts[:, 0] * s + pts[:, 1] * c,
        ])
        t_way = np.concatenate(([0.0],
                                (np.arange(N_WAYPOINTS) + 1) * WAYPOINT_SPACING))
        way = np.vstack([[obs.ego_box.center.x, obs.ego_box.center.y], world])
        spline_x = CubicSpline(t_way, way[:, 0])
        spline_y = CubicSpline(t_way, way[:, 1])
        t = np.arange(N_SAMPLES) * STEP
        x = spline_x(t)
        y = spline_y(t)
        ds = np.hypot(x[1:] - x[:-1], y[1:] - y[:-1])
        speed = np.concatenate([ds / STEP, ds[-1:] / STEP])
        heading = path_headings(x[None], y[None], np.full((1, N_SAMPLES), h0),
                                guard=False)
        return Trajectory(t, x, y, heading[0], speed)
