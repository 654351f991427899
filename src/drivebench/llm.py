"""Prompt construction, response parsing, the external LLM client contract,
and the deterministic scripted selector used for testing and CI.

The wire protocol is the OpenAI-style chat-completion schema; the scripted
selector needs no network at all.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import wrap_angle
from .planners.base import Observation, lane_scene

DEFAULT_TIMEOUT = 30.0
MAX_RETRIES = 2      # further attempts after a transport error
TEMPERATURE = 0.0


class NoLabelFound(Exception):
    """No offered behavior label occurs in the response text."""


class MalformedTrajectory(Exception):
    """Response does not contain 16 finite waypoint pairs."""


class LlmTimeout(Exception):
    pass


class LlmTransportError(Exception):
    pass


class LlmBadStatus(Exception):
    def __init__(self, status: int, body: str):
        super().__init__(f"LLM endpoint returned {status}: {body[:200]}")
        self.status = status


@dataclass(frozen=True)
class ClientConfig:
    endpoint: str
    model: str
    timeout: float = DEFAULT_TIMEOUT
    api_key: Optional[str] = None

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")

    @classmethod
    def from_env(cls) -> "ClientConfig":
        return cls(endpoint=os.environ.get("LLM_ENDPOINT", ""),
                   model=os.environ.get("LLM_MODEL", ""),
                   api_key=os.environ.get("LLM_API_KEY"))


@dataclass(frozen=True)
class PromptBundle:
    task_instruction: str
    perception_context: str
    ego_states: str
    mission_goal: str
    options: str

    def __post_init__(self):
        for name in ("task_instruction", "perception_context", "ego_states",
                     "mission_goal", "options"):
            if not getattr(self, name).strip():
                raise ValueError(f"prompt section {name} must be non-empty")

    def user_content(self) -> str:
        return "\n\n".join([
            "Perception:\n" + self.perception_context,
            "Ego states:\n" + self.ego_states,
            "Mission goal:\n" + self.mission_goal,
            self.options,
        ])


@dataclass(frozen=True)
class SelectorResponse:
    chosen_label: str
    rationale: str = ""


# ---------------------------------------------------------------------------
# scene rendering


def _ego_frame(obs: Observation, point) -> tuple[float, float]:
    h = obs.ego_box.center.heading
    dx = point[0] - obs.ego_box.center.x
    dy = point[1] - obs.ego_box.center.y
    c, s = math.cos(h), math.sin(h)
    return (dx * c + dy * s, -dx * s + dy * c)


def render_scene_description(obs: Observation) -> tuple[str, str]:
    """(perception context, ego states) sections: ego-frame positions and
    velocities of the nearest agents, obstacles with kinds, lane layout.
    Numbers at one decimal, fixed field order."""
    lines = []
    a = obs.agents
    ranked = sorted(
        zip(a.x, a.y, a.heading, a.speed),
        key=lambda r: (r[0] - obs.ego_box.center.x) ** 2
                      + (r[1] - obs.ego_box.center.y) ** 2)
    for x, y, heading, speed in ranked[:10]:
        lon, lat = _ego_frame(obs, (x, y))
        rel = wrap_angle(heading - obs.ego_box.center.heading)
        lines.append(
            f"- vehicle at longitudinal {lon:+.1f} m, lateral {lat:+.1f} m, "
            f"speed {speed:.1f} m/s, relative heading {rel:+.1f} rad")
    for ped in obs.pedestrians:
        lon, lat = _ego_frame(obs, ped.position)
        state = "crossing" if ped.crossing else "waiting"
        lines.append(f"- pedestrian ({state}) at longitudinal {lon:+.1f} m, "
                     f"lateral {lat:+.1f} m")
    for o in obs.obstacles:
        lon, lat = _ego_frame(obs, (o.box.center.x, o.box.center.y))
        lines.append(f"- {o.kind} at longitudinal {lon:+.1f} m, lateral {lat:+.1f} m")
    if not lines:
        lines.append("- no agents, pedestrians or obstacles nearby")
    perception = "\n".join(lines)

    lane_id = obs.ego_lane
    lane = obs.graph.lane(lane_id)
    f = lane_scene(obs, lane_id).ego
    neighbors = []
    if lane.left_neighbor:
        neighbors.append(f"left neighbor {lane.left_neighbor}")
    if lane.right_neighbor:
        neighbors.append(f"right neighbor {lane.right_neighbor}")
    ego = "\n".join([
        f"- current lane: {lane_id} ({', '.join(neighbors) if neighbors else 'no neighbors'})",
        f"- lateral offset from lane center: {f.d:+.1f} m",
        f"- speed: {obs.ego_speed:.1f} m/s, acceleration: {obs.ego_accel:+.1f} m/s^2",
        f"- lane speed limit: {lane.speed_limit:.1f} m/s",
    ])
    return perception, ego


def _mission_goal(obs: Observation) -> str:
    lanes = ", ".join(obs.route.lane_sequence)
    return (f"Lanes on route: {lanes}. "
            f"Goal position at ({obs.route.goal_pose.x:.1f}, "
            f"{obs.route.goal_pose.y:.1f}).")


BEHAVIOR_TASK = (
    "You are the behavior planner of an autonomous vehicle. Analyze the "
    "described traffic scene step by step, then select exactly one of the "
    "offered behaviors. The last line of your answer must contain only the "
    "chosen behavior label, verbatim.")

WAYPOINTS_TASK = (
    "You are the motion planner of an autonomous vehicle. Reason about the "
    "described traffic scene step by step, then output the planned "
    "trajectory for the next 8 seconds as 16 waypoints at 0.5 s spacing in "
    "the ego frame (x forward, y left, meters), formatted as "
    "(x1, y1), (x2, y2), ... on the final line.")


def build_behavior_prompt(obs: Observation, options: Sequence) -> PromptBundle:
    """Zero-shot behavior-selection prompt; options rendered as an enumerated
    list, decision demanded verbatim on the final line."""
    if not options:
        raise ValueError("no behavior options to offer")
    perception, ego = render_scene_description(obs)
    rendered = []
    for i, opt in enumerate(options, start=1):
        extra = ""
        if opt.label == "overtake_obstacle":
            extra = (f" (requires lateral offset {opt.lateral_offset:+.1f} m; "
                     f"obstacle ends {opt.obstacle_far_s - lane_scene(obs, opt.centerline).ego.s:.1f} m ahead)"
                     if opt.obstacle_far_s is not None else "")
        rendered.append(f"{i}. {opt.label}{extra}")
    options_text = ("Available behaviors:\n" + "\n".join(rendered)
                    + "\nAnswer with exactly one label from the list.")
    return PromptBundle(
        task_instruction=BEHAVIOR_TASK,
        perception_context=perception,
        ego_states=ego,
        mission_goal=_mission_goal(obs),
        options=options_text,
    )


def build_waypoints_prompt(obs: Observation) -> PromptBundle:
    perception, ego = render_scene_description(obs)
    return PromptBundle(
        task_instruction=WAYPOINTS_TASK,
        perception_context=perception,
        ego_states=ego,
        mission_goal=_mission_goal(obs),
        options="Output format: 16 waypoint pairs at 0.5 s spacing, ego frame.",
    )


# ---------------------------------------------------------------------------
# response parsing


def parse_behavior_response(text: str, options: Sequence) -> SelectorResponse:
    """Case-insensitive search for offered labels; the LAST occurrence wins
    (chain-of-thought text precedes the decision)."""
    lowered = text.lower()
    best = None  # (end position, label)
    for opt in options:
        label = opt.label if hasattr(opt, "label") else str(opt)
        for variant in (label.lower(), label.lower().replace("_", " ")):
            pos = lowered.rfind(variant)
            if pos >= 0:
                end = pos + len(variant)
                if best is None or end > best[0]:
                    best = (end, label, pos)
    if best is None:
        raise NoLabelFound(f"none of the offered labels occurs in: {text[:120]!r}")
    return SelectorResponse(chosen_label=best[1], rationale=text[:best[2]].strip())


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_SEPARATORS = set(" \t\r\n,;:()[]{}")


def parse_waypoints_response(text: str, n_points: int = 16) -> list[tuple[float, float]]:
    """Extract the first run of >= n_points numeric pairs (numbers separated
    only by whitespace/comma/bracket punctuation); exactly n_points pairs
    are consumed."""
    matches = list(_NUMBER.finditer(text))
    runs: list[list[float]] = []
    current: list[float] = []
    prev_end = None
    for m in matches:
        if prev_end is not None and set(text[prev_end:m.start()]) - _SEPARATORS:
            if current:
                runs.append(current)
            current = []
        current.append(float(m.group()))
        prev_end = m.end()
    if current:
        runs.append(current)
    for run in runs:
        if len(run) >= 2 * n_points:
            values = run[: 2 * n_points]
            if not all(math.isfinite(v) for v in values):
                raise MalformedTrajectory("non-finite waypoint values")
            return [(values[2 * i], values[2 * i + 1]) for i in range(n_points)]
    raise MalformedTrajectory(
        f"expected a run of {n_points} numeric pairs, found runs of sizes "
        f"{[len(r) // 2 for r in runs]}")


# ---------------------------------------------------------------------------
# scripted oracle


def _oncoming_within_headway(obs: Observation, horizon_s: float = 8.0) -> bool:
    lane_id = obs.ego_lane
    line = obs.graph.lane(lane_id).centerline
    scene = lane_scene(obs, lane_id)
    ego_s = scene.ego.s
    ego_h = line.tangent_at(ego_s)
    for heading, speed, s in zip(obs.agents.heading, obs.agents.speed,
                                 scene.agent_s.tolist()):
        rel = wrap_angle(heading - ego_h)
        if math.cos(rel) > -0.5 or s <= ego_s:
            continue
        closing = max(speed + obs.ego_speed, 0.5)
        if (s - ego_s) / closing <= horizon_s:
            return True
    return False


def _target_lane_slot(obs: Observation, target_lane: str) -> float:
    """Length of the free slot around the ego's projected position on the
    target lane (inf when empty)."""
    scene = lane_scene(obs, target_lane)
    on_lane = np.array([lane == target_lane for lane in obs.agents.lane],
                       dtype=bool)
    if not on_lane.any():
        return math.inf
    ego_s = scene.ego.s
    ahead = on_lane & (scene.agent_s >= ego_s)
    behind = on_lane & ~ahead
    hi = ((scene.agent_s - scene.agent_half_len)[ahead].min() if ahead.any()
          else ego_s + 200.0)
    lo = ((scene.agent_s + scene.agent_half_len)[behind].max() if behind.any()
          else ego_s - 200.0)
    return float(hi - lo)


def scripted_oracle(obs: Observation, options: Sequence) -> SelectorResponse:
    """Deterministic behavior selection standing in for an LLM: overtake a
    blocked lane when the oncoming lane is clear, stop and wait otherwise;
    merge toward the goal when the target-lane slot is wide enough."""
    if not options:
        raise ValueError("no options offered")
    labels = {opt.label: opt for opt in options}
    if "overtake_obstacle" in labels:
        if _oncoming_within_headway(obs):
            if "stop_and_wait" in labels:
                return SelectorResponse("stop_and_wait", "oncoming traffic too close")
        return SelectorResponse("overtake_obstacle", "lane blocked, oncoming side clear")
    lane_id = obs.ego_lane
    seq = obs.route.lane_sequence
    if lane_id in seq:
        idx = seq.index(lane_id)
        if idx + 1 < len(seq):
            nxt = seq[idx + 1]
            lane = obs.graph.lane(lane_id)
            direction = None
            if nxt == lane.left_neighbor:
                direction = "merge_left"
            elif nxt == lane.right_neighbor:
                direction = "merge_right"
            if direction and direction in labels:
                if _target_lane_slot(obs, nxt) >= 15.0:
                    return SelectorResponse(direction, "gap available toward goal")
                return SelectorResponse("follow_lane", "waiting for a gap")
    return SelectorResponse("follow_lane", "nothing to do")


# ---------------------------------------------------------------------------
# external client


def llm_call(prompt: PromptBundle, cfg: ClientConfig) -> str:
    """POST a chat-completion request (system = task instruction, user =
    remaining sections); retries transport errors up to MAX_RETRIES."""
    # imported here: offline runs (the scripted selector) load no HTTP stack
    import http.client
    import urllib.error
    import urllib.request

    if not cfg.endpoint:
        raise LlmTransportError("no endpoint configured")
    body = json.dumps({
        "model": cfg.model,
        "messages": [
            {"role": "system", "content": prompt.task_instruction},
            {"role": "user", "content": prompt.user_content()},
        ],
        "temperature": TEMPERATURE,
    }).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if cfg.api_key:
        headers["Authorization"] = f"Bearer {cfg.api_key}"
    try:
        request = urllib.request.Request(cfg.endpoint, data=body,
                                         headers=headers, method="POST")
    except ValueError as exc:                     # no URL scheme
        raise LlmTransportError(str(exc)) from exc
    last_transport: Optional[Exception] = None
    for _ in range(MAX_RETRIES + 1):
        try:
            with urllib.request.urlopen(request, timeout=cfg.timeout) as resp:
                status, text = resp.status, resp.read().decode("utf-8", "replace")
        except urllib.error.HTTPError as exc:     # a non-2xx status
            raise LlmBadStatus(exc.code, exc.read().decode("utf-8", "replace")) \
                from exc
        except (OSError, http.client.HTTPException) as exc:
            # a timeout arrives wrapped in a URLError at connect, bare at read
            if isinstance(getattr(exc, "reason", exc), TimeoutError):
                raise LlmTimeout(str(exc)) from exc
            last_transport = exc
            continue
        try:
            return json.loads(text)["choices"][0]["message"]["content"]
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            raise LlmBadStatus(status,
                               f"unexpected payload: {text[:200]}") from exc
    raise LlmTransportError(str(last_transport))


class ScriptedSelector:
    """Network-free behavior selector driven by the scripted oracle."""

    def select(self, obs: Observation, options: Sequence) -> SelectorResponse:
        return scripted_oracle(obs, options)


class LlmBehaviorSelector:
    """Behavior selector backed by an external chat endpoint; keeps an audit
    log of raw prompts and responses."""

    def __init__(self, cfg: ClientConfig):
        self.cfg = cfg
        self.audit: list[dict] = []

    def select(self, obs: Observation, options: Sequence) -> SelectorResponse:
        prompt = build_behavior_prompt(obs, options)
        raw = llm_call(prompt, self.cfg)
        self.audit.append({"time": obs.time, "prompt": prompt.user_content(),
                           "response": raw})
        return parse_behavior_response(raw, options)

    def take_audit(self) -> list[dict]:
        out, self.audit = self.audit, []
        return out
