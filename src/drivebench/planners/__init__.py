"""Planner-under-test suite and the registry the benchmark runner uses."""

from .base import (
    BehaviorOption,
    Observation,
    Planner,
    Trajectory,
    fallback_brake_trajectory,
    plan_with_fallback,
)
from .idm_planner import IdmPlanner
from .mobil_planner import IdmMobilPlanner, MobilParams, mobil_decide
from .sampling import SamplingPlanner
from .hybrid import HybridBehaviorPlanner, enumerate_behaviors
from .llm_waypoints import WaypointsLlmPlanner

__all__ = [
    "BehaviorOption", "Observation", "Planner", "Trajectory",
    "fallback_brake_trajectory", "plan_with_fallback",
    "IdmPlanner", "IdmMobilPlanner", "MobilParams", "mobil_decide",
    "SamplingPlanner", "HybridBehaviorPlanner",
    "enumerate_behaviors", "WaypointsLlmPlanner", "make_planner",
    "PLANNER_NAMES", "PLANNER_PARAMS",
]

# the --planner-param keys each registered planner accepts
PLANNER_PARAMS = {
    "idm": (),
    "mobil": ("politeness", "a_threshold", "b_safe", "route_bias"),
    "sampler": ("eval_horizon", "ttc_threshold"),
    "hybrid-scripted": ("eval_horizon", "dwell_time"),
    "hybrid-llm": ("eval_horizon", "dwell_time", "endpoint", "model"),
    "llm-waypoints": ("endpoint", "model"),
}
PLANNER_NAMES = tuple(PLANNER_PARAMS)


def make_planner(name: str, params: dict | None = None):
    """Instantiate a registered planner; parameter overrides come from the
    CLI as k=v pairs, and a key the planner does not accept is an error."""
    if name not in PLANNER_PARAMS:
        raise ValueError(
            f"unknown planner {name!r}; known: {', '.join(PLANNER_NAMES)}")
    params = params or {}
    unknown = sorted(set(params) - set(PLANNER_PARAMS[name]))
    if unknown:
        raise ValueError(
            f"planner {name!r} does not accept {', '.join(unknown)}; "
            f"accepted: {', '.join(PLANNER_PARAMS[name]) or 'none'}")
    client = {k: v for k, v in params.items() if k in ("endpoint", "model")}
    floats = {k: float(v) for k, v in params.items() if k not in client}
    if name == "idm":
        return IdmPlanner()
    if name == "mobil":
        return IdmMobilPlanner(mobil=MobilParams(**floats))
    if name == "sampler":
        return SamplingPlanner(**floats)
    # imported here: only the hybrid and LLM planners need the llm module
    from ..llm import ClientConfig, LlmBehaviorSelector, ScriptedSelector, llm_call

    if name == "hybrid-scripted":
        return HybridBehaviorPlanner(ScriptedSelector(), **floats)
    cfg = ClientConfig.from_env(**client)
    if name == "hybrid-llm":
        return HybridBehaviorPlanner(LlmBehaviorSelector(cfg), **floats)
    return WaypointsLlmPlanner(lambda prompt: llm_call(prompt, cfg))
