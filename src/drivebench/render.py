"""Top-down SVG rendering of scenarios and traces.

Color scheme: ego orange, route purple, surrounding vehicles blue,
pedestrians green, traffic cones and stop lines red, lanes grey.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .agents import VEHICLE_LENGTH, VEHICLE_WIDTH
from .geometry import OrientedBox, Pose2D
from .scenarios import ScenarioSpec
from .simulation import SimTrace

COLORS = {
    "ego": "#ff8c00",        # orange
    "route": "#7d3c98",      # purple
    "vehicle": "#2e86c1",    # blue
    "pedestrian": "#28a745", # green
    "cone": "#d62728",       # red
    "lane": "#d5d8dc",       # grey
    "lane_edge": "#aab7b8",
}


def _polygon(points, fill, opacity=1.0, cls="", stroke="none") -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (f'<polygon class="{cls}" points="{pts}" fill="{fill}" '
            f'fill-opacity="{opacity}" stroke="{stroke}"/>')


def _polyline(points, stroke, width=0.5, dash: Optional[str] = None,
              cls="", opacity=1.0) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline class="{cls}" points="{pts}" fill="none" '
            f'stroke="{stroke}" stroke-width="{width}" '
            f'stroke-opacity="{opacity}"{dash_attr}/>')


def _box(box: OrientedBox, fill, cls="") -> str:
    return _polygon(box.corners(), fill, cls=cls, stroke="#333333")


def _circle(x, y, r, fill, cls="") -> str:
    return f'<circle class="{cls}" cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" fill="{fill}"/>'


def _lane_band(spec: ScenarioSpec, lane_id: str) -> list[tuple[float, float]]:
    lane = spec.graph.lane(lane_id)
    line = lane.centerline
    n = max(int(line.length / 5.0) + 2, 2)
    ss = np.linspace(0.0, line.length, n)
    left = [line.place(float(s), lane.width / 2.0)[:2] for s in ss]
    right = [line.place(float(s), -lane.width / 2.0)[:2] for s in ss]
    return left + right[::-1]


def render_svg(spec: ScenarioSpec, trace: Optional[SimTrace] = None,
               tick: Optional[int] = None) -> str:
    """A standalone SVG document of the scenario; with a trace, the ego is
    drawn at the given tick (default: last) with its past path dashed and
    the active planned trajectory solid, both in orange."""
    parts: list[str] = []

    for lane_id in sorted(spec.graph.segments):
        parts.append(_polygon(_lane_band(spec, lane_id), COLORS["lane"],
                              opacity=0.9, cls="lane"))
        line = spec.graph.lane(lane_id).centerline
        parts.append(_polyline(line.points, COLORS["lane_edge"], width=0.1,
                               dash="1.5,1.5", cls="centerline"))

    route_pts: list[tuple[float, float]] = []
    for lane_id in spec.route.lane_sequence:
        route_pts.extend((p[0], p[1])
                         for p in spec.graph.lane(lane_id).centerline.points)
    parts.append(_polyline(route_pts, COLORS["route"], width=0.8, cls="route",
                           opacity=0.7))
    parts.append(_circle(spec.route.goal_pose.x, spec.route.goal_pose.y, 1.2,
                         COLORS["route"], cls="goal"))

    for o in spec.obstacles:
        if o.kind == "cone":
            parts.append(_box(o.box, COLORS["cone"], cls="cone"))
        else:
            parts.append(_box(o.box, COLORS["vehicle"], cls=f"obstacle {o.kind}"))

    snap = None
    if trace is not None:
        idx = len(trace.snapshots) - 1 if tick is None else tick
        idx = min(max(idx, 0), len(trace.snapshots) - 1)
        snap = trace.snapshots[idx]
        past = [(s.ego["x"], s.ego["y"]) for s in trace.snapshots[: idx + 1]]
        if len(past) >= 2:
            parts.append(_polyline(past, COLORS["ego"], width=0.4,
                                   dash="1,1", cls="past-path"))
        if len(snap.plan) >= 2:
            parts.append(_polyline(snap.plan, COLORS["ego"], width=0.4,
                                   cls="planned-trajectory"))
        for a in snap.agents:
            box = OrientedBox(Pose2D(a["x"], a["y"], a["heading"]),
                              a["length"], a["width"])
            parts.append(_box(box, COLORS["vehicle"], cls="agent"))
        for p in snap.pedestrians:
            parts.append(_circle(p["x"], p["y"], 0.4, COLORS["pedestrian"],
                                 cls="pedestrian"))
        ego_box = OrientedBox(
            Pose2D(snap.ego["x"], snap.ego["y"], snap.ego["heading"]),
            VEHICLE_LENGTH, VEHICLE_WIDTH)
    else:
        for a in spec.agents:
            parts.append(_box(spec.agent_box(a), COLORS["vehicle"], cls="agent"))
        for p in spec.pedestrians:
            x, y, _ = p.path.place(0.0)
            parts.append(_circle(x, y, 0.4, COLORS["pedestrian"],
                                 cls="pedestrian"))
        ego_box = spec.ego_box()
    parts.append(_box(ego_box, COLORS["ego"], cls="ego"))

    xs = np.concatenate([poly[:, 0] for poly in spec.graph.drivable_area])
    ys = np.concatenate([poly[:, 1] for poly in spec.graph.drivable_area])
    pad = 5.0
    x0, y0 = xs.min() - pad, ys.min() - pad
    w, h = xs.max() - x0 + pad, ys.max() - y0 + pad
    body = "\n".join(parts)
    # flip the y axis so +y (left of an east-going lane) points up
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.1f} {-(y0 + h):.1f} {w:.1f} {h:.1f}" '
        f'width="{w * 6:.0f}" height="{h * 6:.0f}">\n'
        f'<g transform="scale(1,-1)">\n{body}\n</g>\n</svg>\n'
    )
