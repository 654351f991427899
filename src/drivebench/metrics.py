"""The benchmark scoring system: per-metric computers over a trace,
multiplier penalties, the weighted aggregate, and suite-level reports.

Weighted components (progress, TTC, speed compliance, comfort, and
lane-change completion on the lane-change families) are averaged, then the
gate multipliers (at-fault collision, drivable area, driving direction,
stationary, minimal progress) are applied multiplicatively. The driving
direction gate is disabled for the overtake and accident families, which
legitimately use the oncoming lane.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .agents import VEHICLE_LENGTH, VEHICLE_WIDTH, lane_keeper_obstructions
from .geometry import (
    OrientedBox,
    Pose2D,
    box_columns,
    fraction_outside_drivable,
    lane_changes_required,
    points_in_polygon,
    projected_contacts,
    ttc_offsets,
)
from .planners.idm_planner import IdmPlanner
from .scenarios import (
    LANE_CHANGE_TYPES,
    ObstacleTable,
    ScenarioSpec,
    ScenarioType,
    scenario_to_dict,
)
from .simulation import SimTrace, run_closed_loop

DIRECTION_EXEMPT_TYPES = (ScenarioType.OVERTAKE, ScenarioType.ACCIDENT)


# The score's definition, the same for every run. Component weights:
WEIGHT_PROGRESS = 5.0
WEIGHT_TTC = 5.0
WEIGHT_SPEED = 4.0
WEIGHT_COMFORT = 2.0
WEIGHT_LANE_CHANGE = 5.0       # lane-change families only
# comfort bounds, following common driving-benchmark tooling defaults
LON_ACCEL_MIN = -4.05          # m/s^2
LON_ACCEL_MAX = 2.40           # m/s^2
LAT_ACCEL_MAX = 4.89           # m/s^2
LON_JERK_MAX = 4.13            # m/s^3
JERK_MAX = 8.37                # m/s^3 magnitude
YAW_RATE_MAX = 0.95            # rad/s
YAW_ACCEL_MAX = 1.93           # rad/s^2
TTC_THRESHOLD = 0.95           # s
STATIONARY_SPEED = 0.1         # m/s
STATIONARY_DURATION = 10.0     # s
STATIONARY_JUSTIFY_DISTANCE = 10.0  # m
DIRECTION_MINOR = 2.0          # m of wrong-way travel at multiplier 1
DIRECTION_MAJOR = 6.0          # m of wrong-way travel at multiplier 0.5
DRIVABLE_THRESHOLD = 0.05      # box fraction outside the drivable area
MIN_PROGRESS_MARGIN = 2.0      # m past the obstacle's far end


@dataclass
class ScenarioScore:
    scenario_type: str
    progress: float
    ttc: float
    speed_compliance: float
    comfort: float
    lane_change_completion: float
    collision: float
    drivable: float
    direction: float
    stationary: float
    min_progress: float
    final: float


@dataclass
class SuiteReport:
    per_type: dict[str, float]       # mean score per scenario family
    overall: float                   # mean over all scenarios
    drivable_sub: float              # lane-change families only, x100 scale 0..1
    goal_sub: float
    no_collision_sub: float
    n_scenarios: int


# ---------------------------------------------------------------------------
# trace decompositions


@dataclass(frozen=True, eq=False)
class EgoTrack:
    """Which lane the ego is on at each snapshot, decided once per trace."""
    lane: tuple[str, ...]      # nearest lane of the graph, ties to the lower id
    s: tuple[float, ...]       # arc position on that lane
    route_index: np.ndarray    # index of the nearest route lane, route order


def ego_track(trace: SimTrace, spec: ScenarioSpec) -> EgoTrack:
    """One clamped projection of every snapshot per lane (project_many),
    lanes in sorted-id order; both argmins take the first minimum of |d|."""
    ids = sorted(spec.graph.segments)
    points = np.column_stack((trace.ego["x"], trace.ego["y"]))
    s, d = np.array([spec.graph.lane(lane_id).centerline.project_many(points)
                     for lane_id in ids]).transpose(1, 2, 0)  # each (T, L)
    dist = np.abs(d)
    nearest = dist.argmin(axis=1)
    route_cols = [ids.index(lane_id) for lane_id in spec.route.lane_sequence]
    return EgoTrack(lane=tuple(ids[k] for k in nearest),
                    s=tuple(s[np.arange(len(s)), nearest].tolist()),
                    route_index=dist[:, route_cols].argmin(axis=1))


def _smooth(series: np.ndarray, window: int = 9) -> np.ndarray:
    if len(series) < window:
        return series
    kernel = np.ones(window) / window
    pad = window // 2
    padded = np.concatenate([np.full(pad, series[0]), series,
                             np.full(pad, series[-1])])
    return np.convolve(padded, kernel, mode="valid")


# ---------------------------------------------------------------------------
# multiplier metrics


def collision_metric(trace: SimTrace) -> tuple[float, list[dict]]:
    """0 iff the ego caused a collision; struck-from-behind events keep the
    multiplier at 1 but stay in the log."""
    events = [e for e in trace.events if e["kind"] == "collision"]
    at_fault = [e for e in events if e["at_fault"]]
    return (0.0 if at_fault else 1.0), events


def drivable_area_metric(trace: SimTrace, spec: ScenarioSpec) -> float:
    polys = spec.graph.drivable_area
    x, y, heading = trace.ego["x"], trace.ego["y"], trace.ego["heading"]
    centers = np.column_stack((x, y))
    skip = _clearly_inside(centers, math.hypot(VEHICLE_LENGTH, VEHICLE_WIDTH) / 2.0,
                           polys)
    for pose in zip(x[~skip].tolist(), y[~skip].tolist(),
                    heading[~skip].tolist()):
        box = OrientedBox(Pose2D(*pose), VEHICLE_LENGTH, VEHICLE_WIDTH)
        if fraction_outside_drivable(box, polys) > DRIVABLE_THRESHOLD:
            return 0.0
    return 1.0


def _clearly_inside(centers: np.ndarray, radius: float, polys) -> np.ndarray:
    """Cheap prefilter over box centers (N, 2): which lie inside some
    polygon deeper than the box circumradius."""
    deep = np.zeros(len(centers), dtype=bool)
    for poly in polys:
        idx = np.flatnonzero(points_in_polygon(centers, poly))
        if not len(idx):
            continue
        (x0, y0), (dx, dy) = poly.T, (np.roll(poly, -1, axis=0) - poly).T
        seg_len2 = np.maximum(dx * dx + dy * dy, 1e-12)
        cx, cy = centers[idx, 0][:, None], centers[idx, 1][:, None]
        t = np.clip(((cx - x0) * dx + (cy - y0) * dy) / seg_len2, 0, 1)
        dist = np.hypot(cx - (x0 + t * dx), cy - (y0 + t * dy)).min(axis=1)
        deep[idx[dist > radius]] = True
    return deep


def driving_direction_metric(trace: SimTrace, spec: ScenarioSpec,
                             track: EgoTrack,
                             scenario_type: ScenarioType) -> float:
    """Distance traveled against the nearest lane's direction, thresholded;
    forced to 1 for the overtake and accident families."""
    if scenario_type in DIRECTION_EXEMPT_TYPES:
        return 1.0
    wrong_way = _wrong_way_distance(trace, spec, track)
    if wrong_way < DIRECTION_MINOR:
        return 1.0
    if wrong_way < DIRECTION_MAJOR:
        return 0.5
    return 0.0


def _wrong_way_distance(trace: SimTrace, spec: ScenarioSpec,
                        track: EgoTrack) -> float:
    total = 0.0
    for dx, dy, lane, s in zip(np.diff(trace.ego["x"]).tolist(),
                               np.diff(trace.ego["y"]).tolist(),
                               track.lane[1:], track.s[1:]):
        if dx * dx + dy * dy > 1e-12:
            tangent = spec.graph.lane(lane).centerline.tangent_at(s)
            along = dx * math.cos(tangent) + dy * math.sin(tangent)
            if along < 0:
                total += -along
    return total


def stationary_metric(trace: SimTrace, spec: ScenarioSpec, track: EgoTrack,
                      spans: dict) -> float:
    """0 iff the ego idles longer than the threshold with nothing within the
    justification distance ahead of it; spans are the blocking_spans."""
    dt = trace.dt
    run = 0.0
    for k, (speed, lane_id, s) in enumerate(zip(
            trace.ego["speed"].tolist(), track.lane, track.s)):
        stationary = speed < STATIONARY_SPEED
        justified = stationary and _stop_justified(trace, k, spec, lane_id, s,
                                                   spans)
        if stationary and not justified:
            run += dt
            if run > STATIONARY_DURATION:
                return 0.0
        else:
            run = 0.0
    return 1.0


def _stop_justified(trace: SimTrace, k: int, spec: ScenarioSpec, lane_id: str,
                    s: float, spans) -> bool:
    """Whether, at snapshot k, something the lane keeper of lane_id brakes
    for has its near edge within the justification distance ahead of the
    front of an ego at arc position s (closed at both ends); crossing
    pedestrians count from their center."""
    front = s + VEHICLE_LENGTH / 2.0
    a, p = trace.agents, trace.pedestrians
    near = np.array([near for near, _speed in lane_keeper_obstructions(
        spec.graph, lane_id,
        zip(*(a[f][k].tolist() for f in ("lane", "s", "length", "speed"))),
        spans, zip(*(p[f][k].tolist() for f in ("x", "y", "phase"))),
        ped_half=0.0)])
    horizon = STATIONARY_JUSTIFY_DISTANCE
    return bool(((front <= near) & (near <= front + horizon)).any())


def min_progress_multiplier(trace: SimTrace, spec: ScenarioSpec,
                            spans: dict) -> float:
    """1 iff the ego front passes the farthest blocking obstacle's far end
    plus the margin, by route arclength; 1 when nothing blocks the route."""
    far_end = None
    for lane_id in spec.route.lane_sequence:
        for _near, far in spans.get(lane_id, ()):
            far_end = far if far_end is None else max(far_end, far)
    if far_end is None:
        return 1.0
    spine = spec.graph.lane(spec.route.lane_sequence[0]).centerline
    last = (float(trace.ego["x"][-1]), float(trace.ego["y"][-1]))
    s_front = spine.project_extended(last).s + VEHICLE_LENGTH / 2.0
    return 1.0 if s_front > far_end + MIN_PROGRESS_MARGIN else 0.0


# ---------------------------------------------------------------------------
# weighted components


def ttc_metric(trace: SimTrace, spec: ScenarioSpec) -> float:
    """Fraction of ticks whose constant-velocity projection of everything
    stays collision-free at every look-ahead u > 0 of the TTC threshold."""
    T = len(trace.t)
    e, a, p = trace.ego, trace.agents, trace.pedestrians
    ox, oy, oh, ol, ow = box_columns([o.box for o in spec.obstacles])
    P = p["x"].shape[1]
    at_rest = np.zeros((T, len(ox)))
    hits = projected_contacts(
        e["x"], e["y"], e["heading"], e["speed"],
        VEHICLE_LENGTH, VEHICLE_WIDTH,
        np.hstack([a["x"], np.tile(ox, (T, 1)), p["x"]]),
        np.hstack([a["y"], np.tile(oy, (T, 1)), p["y"]]),
        np.hstack([a["speed"] * np.cos(a["heading"]), at_rest, p["vx"]]),
        np.hstack([a["speed"] * np.sin(a["heading"]), at_rest, p["vy"]]),
        np.hstack([a["heading"], np.tile(oh, (T, 1)), np.zeros((T, P))]),
        np.concatenate([a["length"][0], ol, np.full(P, 0.6)]),
        np.concatenate([a["width"][0], ow, np.full(P, 0.6)]),
        ttc_offsets(TTC_THRESHOLD)[1:])
    violating = np.zeros(T, dtype=bool)
    violating[hits[0]] = True
    return float(1.0 - violating.mean())


def comfort_metric(trace: SimTrace) -> float:
    """1 iff every kinematic-comfort bound holds over the whole trace (on
    lightly smoothed series, matching how such bounds are usually checked)."""
    dt = trace.dt
    speed = _smooth(trace.ego["speed"])
    heading = np.unwrap(trace.ego["heading"])
    heading = _smooth(heading)
    lon_acc = np.diff(speed) / dt
    yaw_rate = np.diff(heading) / dt
    lat_acc = speed[1:] * yaw_rate
    lon_jerk = np.diff(lon_acc) / dt
    lat_jerk = np.diff(lat_acc) / dt
    jerk_mag = np.hypot(lon_jerk, lat_jerk)
    yaw_acc = np.diff(yaw_rate) / dt
    checks = [
        lon_acc.min() >= LON_ACCEL_MIN - 1e-9,
        lon_acc.max() <= LON_ACCEL_MAX + 1e-9,
        np.abs(lat_acc).max() <= LAT_ACCEL_MAX + 1e-9,
        np.abs(lon_jerk).max() <= LON_JERK_MAX + 1e-9,
        jerk_mag.max() <= JERK_MAX + 1e-9,
        np.abs(yaw_rate).max() <= YAW_RATE_MAX + 1e-9,
        np.abs(yaw_acc).max() <= YAW_ACCEL_MAX + 1e-9,
    ]
    return 1.0 if all(checks) else 0.0


def speed_limit_metric(trace: SimTrace, spec: ScenarioSpec,
                       track: EgoTrack) -> float:
    """1 - (speed-over-limit integral / (limit * duration)), floored at 0."""
    over = 0.0
    limit_integral = 0.0
    for speed, lane in zip(trace.ego["speed"].tolist(), track.lane):
        limit = spec.graph.lane(lane).speed_limit
        over += max(0.0, speed - limit) * trace.dt
        limit_integral += limit * trace.dt
    if limit_integral <= 0:
        return 1.0
    return max(0.0, 1.0 - over / limit_integral)


def route_progress(trace: SimTrace, spec: ScenarioSpec) -> float:
    """Ego arclength progressed along the route spine."""
    spine = spec.graph.lane(spec.route.lane_sequence[0]).centerline
    x, y = trace.ego["x"], trace.ego["y"]
    s0 = spine.project_extended((float(x[0]), float(y[0]))).s
    s1 = spine.project_extended((float(x[-1]), float(y[-1]))).s
    return max(0.0, s1 - s0)


# reference progress by reference_key. It lives as long as the process, so
# a later run_benchmark call (another planner, another round) reuses it.
_REFERENCE_PROGRESS: dict[str, float] = {}


def reference_key(spec: ScenarioSpec) -> str:
    """Digest of what the reference drive reads: the map, the route, the
    ego start and the duration. A ScenarioSpec field that the stripped loop
    comes to read must join it. JSON floats round-trip exactly."""
    data = scenario_to_dict(spec)
    part = {k: data[k] for k in ("map", "route", "ego", "duration")}
    return hashlib.sha256(
        json.dumps(part, sort_keys=True).encode()).hexdigest()


def reference_progress(spec: ScenarioSpec) -> float:
    """Progress of a speed-limit IDM drive on the same route with the
    scenario's obstacles, agents and pedestrians removed; driven once per
    distinct reference_key in a process."""
    key = reference_key(spec)
    if key not in _REFERENCE_PROGRESS:
        stripped = replace(spec, agents=(), pedestrians=(), obstacles=())
        trace = run_closed_loop(stripped, IdmPlanner())
        _REFERENCE_PROGRESS[key] = route_progress(trace, stripped)
    return _REFERENCE_PROGRESS[key]


def reference_progresses(specs: Sequence[ScenarioSpec],
                         map_fn: Callable[..., Iterable] = map) -> list[float]:
    """reference_progress of every spec. Each key not yet memoised is
    driven once, through map_fn (a process pool's map drives them in the
    workers), and memoised here."""
    keys = [reference_key(spec) for spec in specs]
    todo = {key: spec for key, spec in zip(keys, specs)
            if key not in _REFERENCE_PROGRESS}
    for key, ref in zip(todo, map_fn(reference_progress, todo.values())):
        _REFERENCE_PROGRESS[key] = ref
    return [_REFERENCE_PROGRESS[key] for key in keys]


def progress_metric(trace: SimTrace, spec: ScenarioSpec,
                    ref_progress: Optional[float] = None) -> float:
    ref = reference_progress(spec) if ref_progress is None else ref_progress
    if ref <= 0.1:
        return 1.0
    return min(1.0, route_progress(trace, spec) / ref)


def lane_change_completion(trace: SimTrace, spec: ScenarioSpec,
                           track: EgoTrack) -> float:
    """Fraction of route-required lane changes after which the ego center
    held the target (or a closer-to-goal) lane for at least one second."""
    required = lane_changes_required(spec.route, spec.graph)
    if required == 0:
        return 1.0
    hold_ticks = max(int(round(1.0 / trace.dt)), 1)
    completed = 0
    for level in range(1, required + 1):
        ok = track.route_index >= level
        run = 0
        sustained = False
        for v in ok:
            run = run + 1 if v else 0
            if run >= hold_ticks:
                sustained = True
                break
        if sustained:
            completed += 1
    return completed / required


# ---------------------------------------------------------------------------
# aggregation


def aggregate_score(components: dict, multipliers: dict,
                    scenario_type: ScenarioType) -> ScenarioScore:
    """Weighted average of the components times the product of the gate
    multipliers; lane-change completion is weighted only for the
    lane-change families."""
    items = [
        (WEIGHT_PROGRESS, components["progress"]),
        (WEIGHT_TTC, components["ttc"]),
        (WEIGHT_SPEED, components["speed_compliance"]),
        (WEIGHT_COMFORT, components["comfort"]),
    ]
    if scenario_type in LANE_CHANGE_TYPES:
        items.append((WEIGHT_LANE_CHANGE,
                      components["lane_change_completion"]))
    total_w = sum(w for w, _ in items)
    weighted = sum(w * v for w, v in items) / total_w
    product = 1.0
    for value in multipliers.values():
        product *= value
    final = weighted * product
    return ScenarioScore(
        scenario_type=scenario_type.value,
        progress=components["progress"],
        ttc=components["ttc"],
        speed_compliance=components["speed_compliance"],
        comfort=components["comfort"],
        lane_change_completion=components["lane_change_completion"],
        collision=multipliers["collision"],
        drivable=multipliers["drivable"],
        direction=multipliers["direction"],
        stationary=multipliers["stationary"],
        min_progress=multipliers["min_progress"],
        final=final,
    )


def score_scenario(trace: SimTrace, spec: ScenarioSpec,
                   ref_progress: Optional[float] = None) -> ScenarioScore:
    collision, _events = collision_metric(trace)
    track = ego_track(trace, spec)
    spans = ObstacleTable(spec.graph, spec.obstacles).blocking_spans
    components = {
        "progress": progress_metric(trace, spec, ref_progress),
        "ttc": ttc_metric(trace, spec),
        "speed_compliance": speed_limit_metric(trace, spec, track),
        "comfort": comfort_metric(trace),
        "lane_change_completion": lane_change_completion(trace, spec, track),
    }
    multipliers = {
        "collision": collision,
        "drivable": drivable_area_metric(trace, spec),
        "direction": driving_direction_metric(trace, spec, track, spec.type),
        "stationary": stationary_metric(trace, spec, track, spans),
        "min_progress": min_progress_multiplier(trace, spec, spans),
    }
    return aggregate_score(components, multipliers, spec.type)


def suite_report(scores: Sequence[ScenarioScore]) -> SuiteReport:
    """Per-family means, the overall mean, and the lane-change sub-scores
    (drivable compliance, goal completion, collision avoidance)."""
    per_type: dict[str, float] = {}
    for stype in ScenarioType:
        vals = [s.final for s in scores if s.scenario_type == stype.value]
        if vals:
            per_type[stype.value] = float(np.mean(vals))
    overall = float(np.mean([s.final for s in scores])) if scores else 0.0
    lc_names = {t.value for t in LANE_CHANGE_TYPES}
    lc = [s for s in scores if s.scenario_type in lc_names]
    if lc:
        drivable = float(np.mean([s.drivable for s in lc]))
        goal = float(np.mean([1.0 if s.lane_change_completion >= 1.0 else 0.0
                              for s in lc]))
        no_col = float(np.mean([s.collision for s in lc]))
    else:
        drivable = goal = no_col = 0.0
    return SuiteReport(per_type=per_type, overall=overall, drivable_sub=drivable,
                       goal_sub=goal, no_collision_sub=no_col,
                       n_scenarios=len(scores))


# ---------------------------------------------------------------------------
# emission

CSV_COLUMNS = [
    "index", "scenario_type", "progress", "ttc", "speed_compliance", "comfort",
    "lane_change_completion", "collision", "drivable", "direction",
    "stationary", "min_progress", "final",
]

TABLE_ORDER = [
    ScenarioType.CONSTRUCTION, ScenarioType.ACCIDENT, ScenarioType.JAYWALKER,
    ScenarioType.NUDGE, ScenarioType.OVERTAKE, ScenarioType.LANE_CHANGE_LTD,
    ScenarioType.LANE_CHANGE_MTD, ScenarioType.LANE_CHANGE_HTD,
]

TABLE_HEADERS = ["Overall", "Constr.", "Acc.", "Jayw.", "Nudge", "Overt.",
                 "LTD", "MTD", "HTD", "Driv.", "Goal", "No-Col."]


def scores_to_csv(scores: Sequence[ScenarioScore]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for i, s in enumerate(scores):
        row = [str(i), s.scenario_type]
        row += [f"{getattr(s, col):.6f}" for col in CSV_COLUMNS[2:]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _report_cells(report: SuiteReport) -> list[str]:
    cells = [f"{round(report.overall * 100):d}"]
    for stype in TABLE_ORDER:
        value = report.per_type.get(stype.value)
        cells.append("-" if value is None else f"{round(value * 100):d}")
    cells += [f"{round(report.drivable_sub * 100):d}",
              f"{round(report.goal_sub * 100):d}",
              f"{round(report.no_collision_sub * 100):d}"]
    return cells


def report_to_markdown(report: SuiteReport, planner_name: str) -> str:
    return compare_reports([(planner_name, report)])


def compare_reports(named_reports: Sequence[tuple[str, SuiteReport]]) -> str:
    """Multi-planner leaderboard, one row per report, fixed column order,
    all values x100 rounded to integers."""
    header = "| Method | " + " | ".join(TABLE_HEADERS) + " |"
    sep = "|" + "---|" * (len(TABLE_HEADERS) + 1)
    lines = [header, sep]
    for name, report in named_reports:
        lines.append("| " + name + " | " + " | ".join(_report_cells(report)) + " |")
    return "\n".join(lines) + "\n"
