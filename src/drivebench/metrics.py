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

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .agents import SWEPT_BAND_HALF_WIDTH, VEHICLE_LENGTH, VEHICLE_WIDTH
from .geometry import (
    OrientedBox,
    Pose2D,
    fraction_outside_drivable,
    lane_changes_required,
    points_in_polygon,
    ttc_violations,
)
from .scenarios import LANE_CHANGE_TYPES, ScenarioSpec, ScenarioType, blocking_spans
from .simulation import SimConfig, SimTrace

DIRECTION_EXEMPT_TYPES = (ScenarioType.OVERTAKE, ScenarioType.ACCIDENT)


@dataclass(frozen=True)
class MetricConfig:
    weight_progress: float = 5.0
    weight_ttc: float = 5.0
    weight_speed: float = 4.0
    weight_comfort: float = 2.0
    weight_lane_change: float = 5.0
    # comfort bounds, following common driving-benchmark tooling defaults
    lon_accel_min: float = -4.05   # m/s^2
    lon_accel_max: float = 2.40    # m/s^2
    lat_accel_max: float = 4.89    # m/s^2
    lon_jerk_max: float = 4.13     # m/s^3
    jerk_max: float = 8.37         # m/s^3 magnitude
    yaw_rate_max: float = 0.95     # rad/s
    yaw_accel_max: float = 1.93    # rad/s^2
    ttc_threshold: float = 0.95    # s
    stationary_speed: float = 0.1          # m/s
    stationary_duration: float = 10.0      # s
    stationary_justify_distance: float = 10.0  # m
    direction_minor: float = 2.0   # m of wrong-way travel at multiplier 1
    direction_major: float = 6.0   # m of wrong-way travel at multiplier 0.5
    drivable_threshold: float = 0.05
    min_progress_margin: float = 2.0  # m past the obstacle's far end

    def __post_init__(self):
        weights = (self.weight_progress, self.weight_ttc, self.weight_speed,
                   self.weight_comfort, self.weight_lane_change)
        if min(weights) < 0 or max(weights) <= 0:
            raise ValueError("weights must be nonnegative with one positive")


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


def _entity_series(trace: SimTrace):
    """Time-major arrays of every collidable actor in the trace."""
    T = len(trace.snapshots)
    first = trace.snapshots[0]
    A = len(first.agents)
    P = len(first.pedestrians)
    ax = np.zeros((T, A)); ay = np.zeros((T, A))
    ah = np.zeros((T, A)); av = np.zeros((T, A))
    al = np.zeros(A); aw = np.zeros(A)
    px = np.zeros((T, P)); py = np.zeros((T, P))
    pvx = np.zeros((T, P)); pvy = np.zeros((T, P))
    for t, snap in enumerate(trace.snapshots):
        for i, a in enumerate(snap.agents):
            ax[t, i] = a["x"]; ay[t, i] = a["y"]
            ah[t, i] = a["heading"]; av[t, i] = a["speed"]
            if t == 0:
                al[i] = a["length"]; aw[i] = a["width"]
        for i, p in enumerate(snap.pedestrians):
            px[t, i] = p["x"]; py[t, i] = p["y"]
            pvx[t, i] = p["vx"]; pvy[t, i] = p["vy"]
    return {"ax": ax, "ay": ay, "ah": ah, "av": av, "al": al, "aw": aw,
            "px": px, "py": py, "pvx": pvx, "pvy": pvy}


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


def drivable_area_metric(trace: SimTrace, spec: ScenarioSpec,
                         cfg: MetricConfig = MetricConfig()) -> float:
    polys = spec.graph.drivable_area
    edges = [_polygon_edges(poly) for poly in polys]
    for snap in trace.snapshots:
        e = snap.ego
        box = OrientedBox(Pose2D(e["x"], e["y"], e["heading"]),
                          VEHICLE_LENGTH, VEHICLE_WIDTH)
        if _clearly_inside(box, edges):
            continue
        if fraction_outside_drivable(box, polys) > cfg.drivable_threshold:
            return 0.0
    return 1.0


def _polygon_edges(poly: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A polygon's vertices (its edge starts), edge vectors and squared
    edge lengths (at least 1e-12)."""
    d = np.roll(poly, -1, axis=0) - poly
    return poly, d, np.maximum((d ** 2).sum(axis=1), 1e-12)


def _clearly_inside(box: OrientedBox, edges) -> bool:
    """Cheap prefilter: center deeper inside some polygon than the box
    circumradius; edges holds each polygon's _polygon_edges."""
    c = np.array([[box.center.x, box.center.y]])
    for poly, d, seg_len2 in edges:
        if not points_in_polygon(c, poly)[0]:
            continue
        rel = c[0] - poly
        t = np.clip((rel * d).sum(axis=1) / seg_len2, 0, 1)
        foot = poly + t[:, None] * d
        dist = np.hypot(*(c[0] - foot).T).min()
        if dist > box.circumradius:
            return True
    return False


def driving_direction_metric(trace: SimTrace, spec: ScenarioSpec,
                             scenario_type: ScenarioType,
                             cfg: MetricConfig = MetricConfig()) -> float:
    """Distance traveled against the nearest lane's direction, thresholded;
    forced to 1 for the overtake and accident families."""
    if scenario_type in DIRECTION_EXEMPT_TYPES:
        return 1.0
    wrong_way = _wrong_way_distance(trace, spec)
    if wrong_way < cfg.direction_minor:
        return 1.0
    if wrong_way < cfg.direction_major:
        return 0.5
    return 0.0


def _wrong_way_distance(trace: SimTrace, spec: ScenarioSpec) -> float:
    total = 0.0
    prev = None
    for snap in trace.snapshots:
        e = snap.ego
        pos = (e["x"], e["y"])
        if prev is not None:
            dx = pos[0] - prev[0]
            dy = pos[1] - prev[1]
            if dx * dx + dy * dy > 1e-12:
                lane = spec.graph.nearest_lane(pos)
                line = spec.graph.lane(lane).centerline
                f = line.project(pos)
                tangent = line.tangent_at(f.s)
                along = dx * math.cos(tangent) + dy * math.sin(tangent)
                if along < 0:
                    total += -along
        prev = pos
    return total


def stationary_metric(trace: SimTrace, spec: ScenarioSpec,
                      cfg: MetricConfig = MetricConfig()) -> float:
    """0 iff the ego idles longer than the threshold with nothing within the
    justification distance ahead of it."""
    spans = blocking_spans(spec)
    dt = trace.dt
    run = 0.0
    for t_idx, snap in enumerate(trace.snapshots):
        ego = snap.ego
        stationary = ego["speed"] < cfg.stationary_speed
        justified = stationary and _stop_justified(snap, spec, spans, cfg)
        if stationary and not justified:
            run += dt
            if run > cfg.stationary_duration:
                return 0.0
        else:
            run = 0.0
    return 1.0


def _stop_justified(snap, spec: ScenarioSpec, spans, cfg: MetricConfig) -> bool:
    ego = snap.ego
    pos = (ego["x"], ego["y"])
    lane_id = spec.graph.nearest_lane(pos)
    lane = spec.graph.lane(lane_id)
    f = lane.centerline.project(pos)
    front = f.s + VEHICLE_LENGTH / 2.0
    horizon = cfg.stationary_justify_distance
    for near, _far in spans.get(lane_id, ()):
        if front <= near <= front + horizon:
            return True
    for a in snap.agents:
        if a["lane"] != lane_id:
            continue
        rear = a["s"] - a["length"] / 2.0
        if front <= rear <= front + horizon:
            return True
    for p in snap.pedestrians:
        if p["phase"] != "crossing":
            continue
        fp = lane.centerline.project((p["x"], p["y"]))
        if abs(fp.d) <= SWEPT_BAND_HALF_WIDTH + 0.3 and \
                front <= fp.s <= front + horizon:
            return True
    return False


def min_progress_multiplier(trace: SimTrace, spec: ScenarioSpec,
                            cfg: MetricConfig = MetricConfig()) -> float:
    """1 iff the ego front passes the farthest blocking obstacle's far end
    plus the margin, by route arclength; 1 when nothing blocks the route."""
    spans = blocking_spans(spec)
    far_end = None
    for lane_id in spec.route.lane_sequence:
        for _near, far in spans.get(lane_id, ()):
            far_end = far if far_end is None else max(far_end, far)
    if far_end is None:
        return 1.0
    spine = spec.graph.lane(spec.route.lane_sequence[0]).centerline
    last = trace.snapshots[-1].ego
    s_front = spine.project_extended((last["x"], last["y"])).s + VEHICLE_LENGTH / 2.0
    return 1.0 if s_front > far_end + cfg.min_progress_margin else 0.0


# ---------------------------------------------------------------------------
# weighted components


def ttc_metric(trace: SimTrace, spec: ScenarioSpec,
               cfg: MetricConfig = MetricConfig()) -> float:
    """Fraction of ticks whose constant-velocity projection of everything
    stays collision-free through the TTC threshold."""
    T = len(trace.snapshots)
    ego = trace.ego_series()
    ent = _entity_series(trace)
    ox, oy, oh, ol, ow = np.array(
        [(o.box.center.x, o.box.center.y, o.box.center.heading, o.box.length,
          o.box.width) for o in spec.obstacles], dtype=float).reshape(-1, 5).T
    P = ent["px"].shape[1]
    at_rest = np.zeros((T, len(ox)))
    violating = ttc_violations(
        ego["x"], ego["y"], ego["heading"], ego["speed"],
        VEHICLE_LENGTH, VEHICLE_WIDTH,
        np.hstack([ent["ax"], np.tile(ox, (T, 1)), ent["px"]]),
        np.hstack([ent["ay"], np.tile(oy, (T, 1)), ent["py"]]),
        np.hstack([ent["av"] * np.cos(ent["ah"]), at_rest, ent["pvx"]]),
        np.hstack([ent["av"] * np.sin(ent["ah"]), at_rest, ent["pvy"]]),
        np.hstack([ent["ah"], np.tile(oh, (T, 1)), np.zeros((T, P))]),
        np.concatenate([ent["al"], ol, np.full(P, 0.6)]),
        np.concatenate([ent["aw"], ow, np.full(P, 0.6)]),
        cfg.ttc_threshold)
    return float(1.0 - violating.mean())


def comfort_metric(trace: SimTrace, cfg: MetricConfig = MetricConfig()) -> float:
    """1 iff every kinematic-comfort bound holds over the whole trace (on
    lightly smoothed series, matching how such bounds are usually checked)."""
    ego = trace.ego_series()
    dt = trace.dt
    speed = _smooth(ego["speed"])
    heading = np.unwrap(ego["heading"])
    heading = _smooth(heading)
    lon_acc = np.diff(speed) / dt
    yaw_rate = np.diff(heading) / dt
    lat_acc = speed[1:] * yaw_rate
    lon_jerk = np.diff(lon_acc) / dt
    lat_jerk = np.diff(lat_acc) / dt
    jerk_mag = np.hypot(lon_jerk, lat_jerk)
    yaw_acc = np.diff(yaw_rate) / dt
    checks = [
        lon_acc.min() >= cfg.lon_accel_min - 1e-9,
        lon_acc.max() <= cfg.lon_accel_max + 1e-9,
        np.abs(lat_acc).max() <= cfg.lat_accel_max + 1e-9,
        np.abs(lon_jerk).max() <= cfg.lon_jerk_max + 1e-9,
        jerk_mag.max() <= cfg.jerk_max + 1e-9,
        np.abs(yaw_rate).max() <= cfg.yaw_rate_max + 1e-9,
        np.abs(yaw_acc).max() <= cfg.yaw_accel_max + 1e-9,
    ]
    return 1.0 if all(checks) else 0.0


def speed_limit_metric(trace: SimTrace, spec: ScenarioSpec) -> float:
    """1 - (speed-over-limit integral / (limit * duration)), floored at 0."""
    over = 0.0
    limit_integral = 0.0
    for snap in trace.snapshots:
        ego = snap.ego
        lane = spec.graph.nearest_lane((ego["x"], ego["y"]))
        limit = spec.graph.lane(lane).speed_limit
        over += max(0.0, ego["speed"] - limit) * trace.dt
        limit_integral += limit * trace.dt
    if limit_integral <= 0:
        return 1.0
    return max(0.0, 1.0 - over / limit_integral)


def route_progress(trace: SimTrace, spec: ScenarioSpec) -> float:
    """Ego arclength progressed along the route spine."""
    spine = spec.graph.lane(spec.route.lane_sequence[0]).centerline
    first = trace.snapshots[0].ego
    last = trace.snapshots[-1].ego
    s0 = spine.project_extended((first["x"], first["y"])).s
    s1 = spine.project_extended((last["x"], last["y"])).s
    return max(0.0, s1 - s0)


def reference_progress(spec: ScenarioSpec, sim_cfg: Optional[SimConfig] = None
                       ) -> float:
    """Progress of a speed-limit IDM drive on the same route with the
    scenario's obstacles, agents and pedestrians removed."""
    from .planners.idm_planner import IdmPlanner
    from .simulation import run_closed_loop
    stripped = replace(spec, agents=(), pedestrians=(), obstacles=())
    trace = run_closed_loop(stripped, IdmPlanner(), sim_cfg or SimConfig())
    return route_progress(trace, stripped)


def progress_metric(trace: SimTrace, spec: ScenarioSpec,
                    ref_progress: Optional[float] = None) -> float:
    ref = reference_progress(spec) if ref_progress is None else ref_progress
    if ref <= 0.1:
        return 1.0
    return min(1.0, route_progress(trace, spec) / ref)


def lane_change_completion(trace: SimTrace, spec: ScenarioSpec) -> float:
    """Fraction of route-required lane changes after which the ego center
    held the target (or a closer-to-goal) lane for at least one second."""
    required = lane_changes_required(spec.route, spec.graph)
    if required == 0:
        return 1.0
    seq = spec.route.lane_sequence
    lines = [spec.graph.lane(lid).centerline for lid in seq]
    idx_series = []
    for snap in trace.snapshots:
        pos = (snap.ego["x"], snap.ego["y"])
        ds = [abs(line.project(pos).d) for line in lines]
        idx_series.append(int(np.argmin(ds)))
    idx_series = np.asarray(idx_series)
    hold_ticks = max(int(round(1.0 / trace.dt)), 1)
    completed = 0
    for level in range(1, required + 1):
        ok = idx_series >= level
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
                    cfg: MetricConfig, scenario_type: ScenarioType
                    ) -> ScenarioScore:
    """Weighted average of the components times the product of the gate
    multipliers; lane-change completion is weighted only for the
    lane-change families."""
    items = [
        (cfg.weight_progress, components["progress"]),
        (cfg.weight_ttc, components["ttc"]),
        (cfg.weight_speed, components["speed_compliance"]),
        (cfg.weight_comfort, components["comfort"]),
    ]
    if scenario_type in LANE_CHANGE_TYPES:
        items.append((cfg.weight_lane_change,
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
                   cfg: MetricConfig = MetricConfig(),
                   ref_progress: Optional[float] = None) -> ScenarioScore:
    collision, _events = collision_metric(trace)
    components = {
        "progress": progress_metric(trace, spec, ref_progress),
        "ttc": ttc_metric(trace, spec, cfg),
        "speed_compliance": speed_limit_metric(trace, spec),
        "comfort": comfort_metric(trace, cfg),
        "lane_change_completion": lane_change_completion(trace, spec),
    }
    multipliers = {
        "collision": collision,
        "drivable": drivable_area_metric(trace, spec, cfg),
        "direction": driving_direction_metric(trace, spec, spec.type, cfg),
        "stationary": stationary_metric(trace, spec, cfg),
        "min_progress": min_progress_multiplier(trace, spec, cfg),
    }
    return aggregate_score(components, multipliers, cfg, spec.type)


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
