import json
import math
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from http.client import RemoteDisconnected
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import drivebench.llm as llm
from drivebench.geometry import wrap_angle
from drivebench.llm import (
    ClientConfig,
    LlmBadStatus,
    LlmBehaviorSelector,
    LlmTimeout,
    LlmTransportError,
    MalformedTrajectory,
    NoLabelFound,
    PromptBundle,
    build_behavior_prompt,
    llm_call,
    parse_behavior_response,
    parse_waypoints_response,
    _oncoming_within_headway,
    _target_lane_slot,
    render_scene_description,
    scripted_oracle,
)
from drivebench.planners import enumerate_behaviors
from drivebench.planners.base import BehaviorOption
from drivebench.scenarios import (
    ScenarioType,
    base_scenario,
    build_base_map,
    place_parked_vehicle,
    augment_goal_for_lane_changes,
)
from conftest import agent_obs, make_agent
from test_planners import empty_road_spec, make_obs

OPTIONS = [
    BehaviorOption("follow_lane", "lane0", 0.0, 13.9),
    BehaviorOption("merge_left", "lane1", 0.0, 13.9),
    BehaviorOption("overtake_obstacle", "lane0", 2.8, 13.9, obstacle_far_s=95.0),
    BehaviorOption("stop_and_wait", "lane0", 0.0, 0.0),
]


class TestWaypointHeadings:
    """WaypointsLlmPlanner takes its headings from path_headings, with the
    curvature guard off: the model's path is checked, not repaired."""

    @staticmethod
    def obs(heading=0.3):
        from drivebench.geometry import Pose2D

        spec = empty_road_spec(lanes=1)
        pose = spec.ego.pose
        return make_obs(spec, ego_pose=Pose2D(pose.x, pose.y, heading),
                        ego_speed=10.0)

    def test_headings_are_path_headings(self):
        from drivebench.planners import WaypointsLlmPlanner
        from drivebench.planners.base import path_headings

        obs = self.obs()
        h0 = obs.ego_box.center.heading
        for pairs in ([(5.0 * (i + 1), 0.1 * i * i) for i in range(16)],
                      [(0.0, 0.0)] * 16):
            traj = WaypointsLlmPlanner._to_trajectory(obs, pairs)
            want = path_headings(traj.x[None], traj.y[None],
                                 np.full((1, len(traj.x)), h0), guard=False)
            assert traj.heading.tobytes() == want[0].tobytes()
        # standing still keeps the ego's heading
        assert (traj.speed == 0.0).all() and (traj.heading == h0).all()

    def test_guard_would_hold_a_corner_the_plan_rejects(self):
        """A 90 degree corner at 10 m/s: path_headings' guard fires on the
        spline (it holds a heading), yet the plan raises the curvature
        error that plan_with_fallback turns into braking."""
        from scipy.interpolate import CubicSpline

        from drivebench.planners import WaypointsLlmPlanner
        from drivebench.planners.base import N_SAMPLES, STEP, path_headings

        obs = self.obs(heading=0.0)
        pairs = [(5.0 * (i + 1), 0.0) if i < 8 else (40.0, 5.0 * (i - 7))
                 for i in range(16)]
        x0, y0 = obs.ego_box.center.x, obs.ego_box.center.y
        t_way = np.arange(17) * 0.5
        t = np.arange(N_SAMPLES) * STEP
        x = CubicSpline(t_way, [x0] + [x0 + px for px, _ in pairs])(t)
        y = CubicSpline(t_way, [y0] + [y0 + py for _, py in pairs])(t)
        tangent = np.zeros((1, N_SAMPLES))
        guarded = path_headings(x[None], y[None], tangent)
        assert (guarded != path_headings(x[None], y[None], tangent,
                                         guard=False)).any()
        with pytest.raises(ValueError, match="curvature"):
            WaypointsLlmPlanner._to_trajectory(obs, pairs)


class TestSceneRendering:
    def test_empty_scene_mentions_no_agents(self):
        obs = make_obs(empty_road_spec())
        perception, ego = render_scene_description(obs)
        assert "no agents" in perception
        assert "speed: 10.0 m/s" in ego

    def test_agent_ahead_rendered_with_longitudinal_offset(self):
        spec = empty_road_spec()
        agent = make_agent(spec.graph, "lane0", 60.0, 8.0)
        obs = make_obs(spec, agents=[agent])
        perception, _ = render_scene_description(obs)
        assert "longitudinal +20.0 m" in perception

    def test_byte_identical_for_identical_obs(self):
        spec = empty_road_spec()
        agent = make_agent(spec.graph, "lane1", 70.0, 9.0)
        obs1 = make_obs(spec, agents=[agent])
        obs2 = make_obs(spec, agents=[agent])
        assert render_scene_description(obs1) == render_scene_description(obs2)


class TestBehaviorPrompt:
    def test_options_enumerated(self):
        obs = make_obs(empty_road_spec())
        prompt = build_behavior_prompt(obs, OPTIONS[:3])
        lines = [l for l in prompt.options.splitlines() if l[:2] in ("1.", "2.", "3.")]
        assert len(lines) == 3

    def test_blocked_lane_option_includes_obstacle_info(self):
        g = build_base_map("two_way", lanes=1, length=450.0)
        spec = base_scenario(ScenarioType.OVERTAKE, g, "lane0", 30.0, 10.0, 1)
        spec = place_parked_vehicle(spec, "overtake", at_s=80.0)
        obs = make_obs(spec)
        options = enumerate_behaviors(obs)
        prompt = build_behavior_prompt(obs, options)
        assert "overtake_obstacle" in prompt.options
        assert "parked_vehicle" in prompt.perception_context

    def test_zero_shot_no_examples(self):
        obs = make_obs(empty_road_spec())
        prompt = build_behavior_prompt(obs, OPTIONS)
        text = "\n".join([prompt.task_instruction, prompt.user_content()])
        assert "example:" not in text.lower()
        assert "for instance" not in text.lower()

    def test_mission_goal_lists_route_lanes(self):
        spec = empty_road_spec(lanes=3)
        spec = augment_goal_for_lane_changes(spec, 2)
        obs = make_obs(spec)
        prompt = build_behavior_prompt(obs, OPTIONS[:2])
        assert "lane0, lane1, lane2" in prompt.mission_goal

    def test_empty_sections_rejected(self):
        with pytest.raises(ValueError):
            PromptBundle("task", "", "ego", "goal", "options")


class TestParseBehavior:
    def test_simple_decision(self):
        resp = parse_behavior_response("...therefore: merge left", OPTIONS)
        assert resp.chosen_label == "merge_left"

    def test_last_occurrence_wins(self):
        text = ("I could overtake obstacle here, but oncoming traffic "
                "makes that unsafe, so I will stop and wait")
        resp = parse_behavior_response(text, OPTIONS)
        assert resp.chosen_label == "stop_and_wait"
        assert "overtake" in resp.rationale

    def test_unrelated_prose_raises(self):
        with pytest.raises(NoLabelFound):
            parse_behavior_response("the weather is nice today", OPTIONS)

    def test_underscore_form_matches(self):
        resp = parse_behavior_response("FOLLOW_LANE", OPTIONS)
        assert resp.chosen_label == "follow_lane"

    @settings(max_examples=100, deadline=None)
    @given(
        label=st.sampled_from([o.label for o in OPTIONS]),
        prefix=st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80),
        spaced=st.booleans(),
    )
    def test_round_trip_any_terminating_label(self, label, prefix, spaced):
        rendered = label.replace("_", " ") if spaced else label
        text = prefix + "\n final answer: " + rendered
        resp = parse_behavior_response(text, OPTIONS)
        # the terminating label always wins, whatever the prefix mentioned
        assert resp.chosen_label == label
        assert resp.chosen_label in {o.label for o in OPTIONS}


class TestParseWaypoints:
    def test_clean_pairs(self):
        text = "[" + ", ".join(f"({i}.0, 0.5)" for i in range(16)) + "]"
        pts = parse_waypoints_response(text)
        assert len(pts) == 16
        assert pts[0] == (0.0, 0.5)

    def test_twelve_pairs_rejected(self):
        text = ", ".join(f"({i}.0, 0.0)" for i in range(12))
        with pytest.raises(MalformedTrajectory):
            parse_waypoints_response(text)

    def test_pairs_after_reasoning_paragraphs(self):
        text = (
            "Step 1: the road is clear for 80 m ahead.\n"
            "Step 2: I keep my speed of 10 m/s for the whole 8 s.\n"
            "Trajectory:\n"
            + "\n".join(f"{0.5 * (i + 1) * 10.0:.1f}, 0.0" for i in range(16)))
        pts = parse_waypoints_response(text)
        assert len(pts) == 16
        assert pts[-1][0] == pytest.approx(80.0)

    def test_reasoning_numbers_do_not_leak(self):
        # the numbers inside prose are separated by words, so they form
        # short runs that are skipped
        text = ("I see 3 vehicles within 50 m and 2 pedestrians. "
                "Waypoints: " + ", ".join(f"({i}.5, 1.0)" for i in range(16)))
        pts = parse_waypoints_response(text)
        assert pts[0] == (0.5, 1.0)

    def test_extra_pairs_only_first_16_consumed(self):
        text = ", ".join(f"({i}.0, 0.0)" for i in range(20))
        pts = parse_waypoints_response(text)
        assert len(pts) == 16
        assert pts[-1][0] == 15.0


class TestScriptedOracle:
    def overtake_obs(self, with_oncoming: float = None):
        g = build_base_map("two_way", lanes=1, length=450.0)
        spec = base_scenario(ScenarioType.OVERTAKE, g, "lane0", 30.0, 10.0, 1)
        spec = place_parked_vehicle(spec, "overtake", at_s=80.0)
        agents = []
        if with_oncoming is not None:
            # oncoming vehicle that reaches the ego within the given headway
            dist = with_oncoming * (10.0 + 10.0)
            agents = [make_agent(spec.graph, "oncoming0",
                                 450.0 - (30.0 + dist), 10.0)]
        return make_obs(spec, agents=agents)

    def test_clear_oncoming_lane_overtakes(self):
        obs = self.overtake_obs()
        options = enumerate_behaviors(obs)
        resp = scripted_oracle(obs, options)
        assert resp.chosen_label == "overtake_obstacle"

    def test_close_oncoming_waits(self):
        obs = self.overtake_obs(with_oncoming=3.0)
        options = enumerate_behaviors(obs)
        resp = scripted_oracle(obs, options)
        assert resp.chosen_label == "stop_and_wait"

    def test_merges_toward_goal_with_gap(self):
        spec = empty_road_spec(lanes=2)
        spec = augment_goal_for_lane_changes(spec, 1)
        obs = make_obs(spec)
        options = enumerate_behaviors(obs)
        resp = scripted_oracle(obs, options)
        assert resp.chosen_label == "merge_left"

    def test_follows_when_target_gap_too_small(self):
        spec = empty_road_spec(lanes=2)
        spec = augment_goal_for_lane_changes(spec, 1)
        agents = [make_agent(spec.graph, "lane1", 44.0, 10.0),
                  make_agent(spec.graph, "lane1", 34.0, 10.0)]
        obs = make_obs(spec, agents=agents)
        options = enumerate_behaviors(obs)
        resp = scripted_oracle(obs, options)
        assert resp.chosen_label == "follow_lane"

    def test_deterministic(self):
        obs = self.overtake_obs()
        options = enumerate_behaviors(obs)
        a = scripted_oracle(obs, options)
        b = scripted_oracle(obs, options)
        assert a == b


def reference_oncoming_within_headway(obs, horizon_s=8.0):
    """Reference: the selector's per-agent loop before it read the lane
    scene, projecting the ego and each agent itself."""
    lane_id = obs.ego_lane
    line = obs.graph.lane(lane_id).centerline
    ego_f = line.project_extended((obs.ego_box.center.x, obs.ego_box.center.y))
    ego_h = line.tangent_at(min(max(ego_f.s, 0.0), line.length))
    for agent in agent_obs(obs.agents):
        rel = wrap_angle(agent.box.center.heading - ego_h)
        if math.cos(rel) > -0.5:
            continue
        f = line.project_extended((agent.box.center.x, agent.box.center.y))
        dist = f.s - ego_f.s
        if dist <= 0:
            continue
        closing = max(agent.speed + obs.ego_speed, 0.5)
        if dist / closing <= horizon_s:
            return True
    return False


def reference_target_lane_slot(obs, target_lane):
    """Reference: the selector's per-agent slot loop before it read the
    lane scene."""
    line = obs.graph.lane(target_lane).centerline
    ego_f = line.project_extended((obs.ego_box.center.x, obs.ego_box.center.y))
    ahead = math.inf
    behind = -math.inf
    for agent in agent_obs(obs.agents):
        if agent.lane != target_lane:
            continue
        f = line.project_extended((agent.box.center.x, agent.box.center.y))
        rear = f.s - agent.box.length / 2.0
        front = f.s + agent.box.length / 2.0
        if f.s >= ego_f.s:
            ahead = min(ahead, rear)
        else:
            behind = max(behind, front)
    if math.isinf(ahead) and math.isinf(behind):
        return math.inf
    lo = behind if math.isfinite(behind) else ego_f.s - 200.0
    hi = ahead if math.isfinite(ahead) else ego_f.s + 200.0
    return hi - lo


def traffic_observation(rng):
    """An ego on a two-way or curved road with up to six agents on random
    lanes (oncoming ones included) around it."""
    kind = ("two_way", "curved")[int(rng.integers(0, 2))]
    g = build_base_map(kind, lanes=int(rng.integers(1, 4)), length=300.0)
    ego_s = float(rng.uniform(20.0, 200.0))
    spec = base_scenario(ScenarioType.OVERTAKE, g, "lane0", ego_s,
                         float(rng.uniform(0.0, 13.0)), 1)
    lane_ids = list(g.segments)
    agents = []
    for _ in range(int(rng.integers(0, 7))):
        lane = lane_ids[int(rng.integers(0, len(lane_ids)))]
        s = float(np.clip(ego_s + rng.uniform(-60.0, 90.0), 0.0,
                          g.lane(lane).centerline.length))
        if lane == "oncoming0":
            s = g.lane(lane).centerline.length - s
        agents.append(make_agent(g, lane, s, float(rng.uniform(0.0, 14.0))))
    return make_obs(spec, agents=agents)


class TestSelectorQueries:
    """The scripted selector's oncoming and target-lane queries, now read
    from the lane scene, equal the loops they replaced exactly."""

    def test_equal_reference_loops(self):
        rng = np.random.default_rng(13)
        outcomes, slots = set(), 0
        for _ in range(200):
            obs = traffic_observation(rng)
            for horizon in (2.0, 8.0):
                got = _oncoming_within_headway(obs, horizon)
                assert got == reference_oncoming_within_headway(obs, horizon)
                outcomes.add(got)
            for lane_id in obs.graph.segments:
                got = _target_lane_slot(obs, lane_id)
                assert got == reference_target_lane_slot(obs, lane_id)
                slots += math.isfinite(got)
        assert outcomes == {True, False}
        assert slots >= 100


# ---------------------------------------------------------------------------
# wire protocol against a local mock endpoint


class _MockHandler(BaseHTTPRequestHandler):
    behavior = "echo"        # echo | slow | error | garbage
    last_request = None
    release = threading.Event()   # ends a slow answer's wait

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).last_request = {"body": body,
                                   "auth": self.headers.get("Authorization")}
        if type(self).behavior == "slow":
            type(self).release.wait(1.0)
        if type(self).behavior == "error":
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        if type(self).behavior == "garbage":
            payload = b"{\"nope\": 1}"
        else:
            content = body["messages"][-1]["content"]
            payload = json.dumps({
                "choices": [{"message": {"role": "assistant",
                                         "content": f"echo:{len(content)}"}}]
            }).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def mock_server():
    server = HTTPServer(("127.0.0.1", 0), _MockHandler)
    # a short poll: shutdown() waits for serve_forever's next poll
    thread = threading.Thread(target=server.serve_forever, args=(0.01,),
                              daemon=True)
    thread.start()
    _MockHandler.behavior = "echo"
    _MockHandler.release = threading.Event()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    _MockHandler.release.set()
    server.shutdown()
    server.server_close()


PROMPT = PromptBundle("do the task", "nothing around", "standing still",
                      "go straight", "choose: follow_lane")


class TestLlmCall:
    def test_echo_round_trip(self, mock_server):
        cfg = ClientConfig(endpoint=mock_server, model="test-model",
                           api_key="secret", timeout=5.0)
        out = llm_call(PROMPT, cfg)
        assert out.startswith("echo:")
        assert _MockHandler.last_request["body"]["model"] == "test-model"
        assert _MockHandler.last_request["body"]["temperature"] == 0.0
        assert _MockHandler.last_request["auth"] == "Bearer secret"
        roles = [m["role"] for m in _MockHandler.last_request["body"]["messages"]]
        assert roles == ["system", "user"]

    def test_unreachable_endpoint(self, monkeypatch):
        monkeypatch.setattr(llm, "MAX_RETRIES", 1)
        cfg = ClientConfig(endpoint="http://127.0.0.1:1/nope", model="m",
                           timeout=0.5)
        with pytest.raises(LlmTransportError):
            llm_call(PROMPT, cfg)

    def test_slow_server_times_out(self, mock_server):
        _MockHandler.behavior = "slow"
        cfg = ClientConfig(endpoint=mock_server, model="m", timeout=0.2)
        with pytest.raises(LlmTimeout):
            llm_call(PROMPT, cfg)

    def test_bad_status(self, mock_server):
        _MockHandler.behavior = "error"
        cfg = ClientConfig(endpoint=mock_server, model="m", timeout=5.0)
        with pytest.raises(LlmBadStatus):
            llm_call(PROMPT, cfg)

    def test_garbage_payload(self, mock_server):
        _MockHandler.behavior = "garbage"
        cfg = ClientConfig(endpoint=mock_server, model="m", timeout=5.0)
        with pytest.raises(LlmBadStatus):
            llm_call(PROMPT, cfg)

    def test_selector_records_audit(self, mock_server):
        # endpoint that always answers with a fixed label
        class LabelHandler(_MockHandler):
            pass
        cfg = ClientConfig(endpoint=mock_server, model="m", timeout=5.0)
        selector = LlmBehaviorSelector(cfg)
        obs = make_obs(empty_road_spec())
        options = enumerate_behaviors(obs)
        # echo content has no label -> NoLabelFound propagates to the caller
        with pytest.raises(NoLabelFound):
            selector.select(obs, options)
        audit = selector.take_audit()
        assert len(audit) == 1 and audit[0]["response"].startswith("echo:")

    @pytest.mark.parametrize("error, raised, attempts", [
        (urllib.error.URLError(TimeoutError("timed out")), LlmTimeout, 1),
        (TimeoutError("timed out"), LlmTimeout, 1),
        (urllib.error.URLError(ConnectionRefusedError()), LlmTransportError, 3),
        (ConnectionResetError(), LlmTransportError, 3),
        (RemoteDisconnected(), LlmTransportError, 3),
    ])
    def test_error_mapping(self, error, raised, attempts, monkeypatch):
        """A timeout at connect (wrapped in a URLError) or at read raises at
        once; a transport error is retried MAX_RETRIES times."""
        calls = []

        def urlopen(request, timeout):
            calls.append(timeout)
            raise error

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        monkeypatch.setattr(llm, "MAX_RETRIES", 2)
        cfg = ClientConfig(endpoint="http://127.0.0.1:1/v1", model="m",
                           timeout=0.5)
        with pytest.raises(raised):
            llm_call(PROMPT, cfg)
        assert calls == [0.5] * attempts

    def test_endpoint_without_scheme(self):
        with pytest.raises(LlmTransportError):
            llm_call(PROMPT, ClientConfig(endpoint="localhost:8000", model="m"))


def test_offline_planners_load_no_http_stack():
    """The runner and the planners that need no endpoint import no HTTP
    client; llm_call imports one when it is called."""
    code = (
        "import sys; import drivebench.cli; "
        "from drivebench.planners import make_planner; "
        "[make_planner(n) for n in ('idm', 'mobil', 'sampler', "
        "'hybrid-scripted')]; "
        "print(sorted({'requests', 'urllib.request', 'http.client'} "
        "& set(sys.modules)))")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
