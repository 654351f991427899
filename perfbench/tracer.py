"""Span tracer that times drivebench's public functions from outside.

Each traced function is replaced, in every ``drivebench`` module that looks
it up by name (or on its class, for methods), by a wrapper that records a
span. Spans nest on a stack; each span's time is charged to its function as
``total`` and, minus the time of its child spans, as ``self``. Spans are
aggregated in memory by function and by call path, and written out once at
the end with :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# layer metric prefix -> "module:qualified name" of the function it times
TARGETS = {
    "scenarios.generate_benchmark_suite": "drivebench.scenarios:generate_benchmark_suite",
    "scenarios.save_scenario": "drivebench.scenarios:save_scenario",
    "cli.run_benchmark": "drivebench.cli:run_benchmark",
    "simulation.run_closed_loop": "drivebench.simulation:run_closed_loop",
    "simulation.build_observation": "drivebench.simulation:build_observation",
    "simulation.track_trajectory": "drivebench.simulation:track_trajectory",
    "simulation.SimTrace.to_json": "drivebench.simulation:SimTrace.to_json",
    "planners.plan_with_fallback": "drivebench.planners.base:plan_with_fallback",
    "planners.fallback_brake_trajectory": "drivebench.planners.base:fallback_brake_trajectory",
    "planners.nearest_lead": "drivebench.planners.base:nearest_lead",
    "planners.IdmPlanner.plan": "drivebench.planners.idm_planner:IdmPlanner.plan",
    "planners.SamplingPlanner.evaluate": "drivebench.planners.sampling:SamplingPlanner.evaluate",
    "planners.lateral_profile": "drivebench.planners.sampling:lateral_profile",
    "planners.enumerate_behaviors": "drivebench.planners.hybrid:enumerate_behaviors",
    "llm.ScriptedSelector.select": "drivebench.llm:ScriptedSelector.select",
    "agents.step_vehicle_agent": "drivebench.agents:step_vehicle_agent",
    "agents.select_lead": "drivebench.agents:select_lead",
    "geometry.Polyline.project": "drivebench.geometry:Polyline.project",
    "geometry.Polyline.project_extended": "drivebench.geometry:Polyline.project_extended",
    "geometry.Polyline.interpolate_many": "drivebench.geometry:Polyline.interpolate_many",
    "geometry.boxes_collide": "drivebench.geometry:boxes_collide",
    "geometry.boxes_collide_batch": "drivebench.geometry:boxes_collide_batch",
    "geometry.points_in_any_polygon": "drivebench.geometry:points_in_any_polygon",
    "metrics.reference_progress": "drivebench.metrics:reference_progress",
    "metrics.score_scenario": "drivebench.metrics:score_scenario",
    "metrics.ttc_metric": "drivebench.metrics:ttc_metric",
    "metrics.drivable_area_metric": "drivebench.metrics:drivable_area_metric",
}


class Tracer:
    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[list] = []            # [name, path, child_ns]
        self.stats = defaultdict(lambda: [0, 0, 0])   # name -> calls, total, self
        self.paths = defaultdict(lambda: [0, 0, 0])   # call path -> same
        self.counts = defaultdict(int)
        self.scenario_ns: list[int] = []

    def reset(self) -> None:
        """Drop what was recorded; installed wrappers keep recording."""
        for table in (self._stack, self.stats, self.paths, self.counts,
                      self.scenario_ns):
            table.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack, stats, paths = self._stack, self.stats, self.paths
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, f"{parent[1]}/{name}" if parent else name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                if parent is not None:
                    parent[2] += elapsed
                for entry in (stats[name], paths[frame[1]]):
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[2]
            tracer._count(name, args, result, elapsed, parent)
            return result

        return traced

    def _count(self, name, args, result, elapsed, parent) -> None:
        """Work counts taken at the span boundary."""
        if name == "geometry.boxes_collide_batch":
            self.counts["pairs"] += int(result.size)
            self.counts["hits"] += int(result.sum())
        elif name == "geometry.points_in_any_polygon":
            self.counts["points"] += len(args[0])
        elif name == "simulation.SimTrace.to_json":
            self.counts["trace_bytes"] += len(result)
        elif name == "simulation.run_closed_loop" and (
                parent is None or parent[0] != "metrics.reference_progress"):
            self.scenario_ns.append(elapsed)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace every target where drivebench looks it up."""
        modules = {t.split(":")[0] for t in TARGETS.values()}
        for mod in sorted(modules):
            importlib.import_module(mod)
        for name, target in TARGETS.items():
            mod_name, qual = target.split(":")
            owner = sys.modules[mod_name]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, attr, self._wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(owner, qual)
            wrapper = self._wrap(name, original)
            for mod_name2, mod in list(sys.modules.items()):
                if not mod_name2.startswith("drivebench"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)

    def _replace(self, owner, attr, wrapper) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output -----------------------------------------------------------

    def write(self, path, rounds: int) -> None:
        def rows(table):
            return {k: {"calls": v[0], "total_s": v[1] / 1e9, "self_s": v[2] / 1e9}
                    for k, v in sorted(table.items())}
        data = {"rounds": rounds, "functions": rows(self.stats),
                "call_paths": rows(self.paths), "counts": dict(self.counts),
                "scenario_s": [ns / 1e9 for ns in self.scenario_ns]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
