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
    "PLANNER_NAMES",
]

PLANNER_NAMES = ("idm", "mobil", "sampler", "hybrid-scripted", "hybrid-llm",
                 "llm-waypoints")


def make_planner(name: str, params: dict | None = None):
    """Instantiate a registered planner; numeric parameter overrides come
    from the CLI as k=v pairs."""
    from ..llm import ClientConfig, LlmBehaviorSelector, ScriptedSelector, llm_call

    params = dict(params or {})
    if name == "idm":
        return IdmPlanner()
    if name == "mobil":
        fields = {k: float(v) for k, v in params.items()
                  if k in ("politeness", "a_threshold", "b_safe", "route_bias")}
        return IdmMobilPlanner(mobil=MobilParams(**fields))
    if name == "sampler":
        return SamplingPlanner(
            eval_horizon=float(params.get("eval_horizon", 2.0)),
            ttc_threshold=float(params.get("ttc_threshold", 0.95)))
    if name == "hybrid-scripted":
        return HybridBehaviorPlanner(
            ScriptedSelector(),
            eval_horizon=float(params.get("eval_horizon", 2.0)),
            dwell_time=float(params.get("dwell_time", 0.0)))
    if name == "hybrid-llm":
        cfg = ClientConfig.from_env(**{k: v for k, v in params.items()
                                       if k in ("endpoint", "model")})
        return HybridBehaviorPlanner(
            LlmBehaviorSelector(cfg),
            eval_horizon=float(params.get("eval_horizon", 2.0)),
            dwell_time=float(params.get("dwell_time", 0.0)))
    if name == "llm-waypoints":
        cfg = ClientConfig.from_env(**{k: v for k, v in params.items()
                                       if k in ("endpoint", "model")})
        return WaypointsLlmPlanner(lambda prompt: llm_call(prompt, cfg))
    raise ValueError(f"unknown planner {name!r}; known: {', '.join(PLANNER_NAMES)}")
