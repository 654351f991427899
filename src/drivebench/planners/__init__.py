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
from .mobil_planner import IdmMobilPlanner, mobil_decide
from .sampling import SamplingPlanner
from .hybrid import HybridBehaviorPlanner, enumerate_behaviors
from .llm_waypoints import WaypointsLlmPlanner

__all__ = [
    "BehaviorOption", "Observation", "Planner", "Trajectory",
    "fallback_brake_trajectory", "plan_with_fallback",
    "IdmPlanner", "IdmMobilPlanner", "mobil_decide",
    "SamplingPlanner", "HybridBehaviorPlanner",
    "enumerate_behaviors", "WaypointsLlmPlanner", "make_planner",
    "PLANNER_NAMES",
]

PLANNER_NAMES = ("idm", "mobil", "sampler", "hybrid-scripted", "hybrid-llm",
                 "llm-waypoints")


def make_planner(name: str):
    """Instantiate a registered planner in its one configuration."""
    if name not in PLANNER_NAMES:
        raise ValueError(
            f"unknown planner {name!r}; known: {', '.join(PLANNER_NAMES)}")
    if name == "idm":
        return IdmPlanner()
    if name == "mobil":
        return IdmMobilPlanner()
    if name == "sampler":
        return SamplingPlanner()
    # imported here: only the hybrid and LLM planners need the llm module
    from ..llm import ClientConfig, LlmBehaviorSelector, ScriptedSelector, llm_call

    if name == "hybrid-scripted":
        return HybridBehaviorPlanner(ScriptedSelector())
    cfg = ClientConfig.from_env()
    if name == "hybrid-llm":
        return HybridBehaviorPlanner(LlmBehaviorSelector(cfg))
    return WaypointsLlmPlanner(lambda prompt: llm_call(prompt, cfg))
