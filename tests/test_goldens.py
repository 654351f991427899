"""Goldens of the bytes a run writes besides the offline planners' traces
and scores: every seed-2024 scenario file, every scenario's SVG, and the
LLM prompts. The prompts reach a golden through the traces of hybrid-llm
and llm-waypoints runs against a deterministic responder that stands in
for `llm.llm_call`: each prompt is an `llm_query` event of its trace, so
the trace hash pins the bytes of `render_scene_description`,
`build_behavior_prompt` and `build_waypoints_prompt`."""

import hashlib

import drivebench.llm as llm
from drivebench.render import render_svg
from drivebench.scenarios import generate_benchmark_suite, save_scenario
from drivebench.simulation import SimTrace
from test_acceptance import SEED, _golden_lines, _run_subset, check_golden

# the answer to every waypoints prompt: 16 points straight ahead, 2 m apart
WAYPOINTS = ", ".join(f"({2.0 * k:.1f}, 0.0)" for k in range(1, 17))


def respond(prompt, cfg) -> str:
    """llm_call's stand-in, reading only the prompt text: the fixed
    waypoints to a waypoints prompt; to a behaviour prompt,
    overtake_obstacle when it is offered and follow_lane otherwise."""
    if prompt.task_instruction == llm.WAYPOINTS_TASK:
        return f"Waypoints:\n{WAYPOINTS}"
    if "overtake_obstacle" in prompt.user_content():
        return "overtake_obstacle"
    return "follow_lane"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_scenario_files_and_renders_match_goldens(tmp_path):
    """tests/golden/scenarios.txt holds the SHA-256 of each seed-2024
    scenario file as save_scenario writes it, and render.txt that of each
    scenario's render_svg, UTF-8 encoded."""
    suite = generate_benchmark_suite(SEED)
    files, renders = [], []
    for i, spec in enumerate(suite):
        stem = f"{i:03d}_{spec.type.value}"
        path = tmp_path / f"{stem}.json"
        save_scenario(spec, path)
        files.append(f"{stem} {_sha256(path.read_bytes())}")
        renders.append(f"{stem} {_sha256(render_svg(spec).encode())}")
    check_lines("scenarios.txt", files, 80)
    check_lines("render.txt", renders, 80)


def test_trace_renders_match_golden(idm_suite_run):
    """tests/golden/render-trace.txt holds the SHA-256 of render_svg of
    each seed-2024 idm trace, as bench run writes it and SimTrace.load
    reads it, at tick 50 and at the last tick."""
    traces = idm_suite_run[4] / "traces"
    lines = []
    for i, spec in enumerate(generate_benchmark_suite(SEED)):
        stem = f"{i:03d}_{spec.type.value}"
        trace = SimTrace.load(traces / f"{stem}.json")
        lines += [f"{stem}@{label} {_sha256(render_svg(spec, trace, tick).encode())}"
                  for tick, label in ((50, "50"), (None, "last"))]
    check_lines("render-trace.txt", lines, 160)


def check_lines(name, lines, count):
    """Compare count "<name> <digest>" lines with those of
    tests/golden/<name>, in order."""
    recorded, golden = _golden_lines(name)
    assert len(golden) == len(lines) == count, name
    mismatched = [line.split()[0] for line, want in zip(lines, golden)
                  if line != want]
    assert not mismatched, (
        f"tests/golden/{name} differs on {', '.join(mismatched)}; "
        f"recorded with {recorded}")


def test_hybrid_llm_prompts_match_goldens(tmp_path_factory, monkeypatch):
    monkeypatch.setattr(llm, "llm_call", respond)
    check_golden("hybrid-llm", _run_subset(
        tmp_path_factory, "hybrid_llm", "hybrid-llm",
        ["construction", "accident"]))


def test_llm_waypoints_prompts_match_goldens(tmp_path_factory, monkeypatch):
    monkeypatch.setattr(llm, "llm_call", respond)
    check_golden("llm-waypoints", _run_subset(
        tmp_path_factory, "llm_waypoints", "llm-waypoints",
        ["jaywalker", "overtake"]))
