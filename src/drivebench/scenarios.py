"""Procedural construction of the eight long-tail scenario families, the
80-scenario benchmark suite, and scenario (de)serialization.

All generation is a pure function of the seeds involved: the same master
seed always yields byte-identical serialized suites.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .agents import (
    SWEPT_BAND_HALF_WIDTH,
    VEHICLE_LENGTH,
    VEHICLE_WIDTH,
    equilibrium_speed,
)
from .geometry import (
    LaneGraph,
    LaneSegment,
    OrientedBox,
    Polyline,
    Pose2D,
    Route,
    box_columns,
    boxes_collide,
    lane_changes_required,
    pairwise_contacts,
    shortest_route,
)

LANE_WIDTH = 3.5          # m
SHOULDER = 1.2            # m of drivable margin beyond the outer lane edges
SPEED_LIMIT = 13.9        # m/s (urban 50 km/h)
MIN_SPAWN_GAP = 8.0       # m, bumper-to-bumper; exceeds jam distance + car length
SCHEMA_VERSION = "v1"

CONE_SIZE = 0.4
BUS_LENGTH, BUS_WIDTH = 12.0, 2.5
VAN_LENGTH, VAN_WIDTH = 5.2, 2.1


class ScenarioError(ValueError):
    """A placement request violates the scenario's preconditions."""


class MalformedScenarioError(Exception):
    """Scenario file cannot be parsed into a valid spec."""


class SchemaVersionError(MalformedScenarioError):
    """Scenario file carries an unsupported schema version."""


class ScenarioType(enum.Enum):
    CONSTRUCTION = "construction"
    ACCIDENT = "accident"
    JAYWALKER = "jaywalker"
    NUDGE = "nudge"
    OVERTAKE = "overtake"
    LANE_CHANGE_LTD = "lane_change_ltd"
    LANE_CHANGE_MTD = "lane_change_mtd"
    LANE_CHANGE_HTD = "lane_change_htd"


# Scenario families whose score is gated on passing a blocking obstacle.
OBSTACLE_TYPES = (ScenarioType.CONSTRUCTION, ScenarioType.ACCIDENT,
                  ScenarioType.NUDGE, ScenarioType.OVERTAKE)
LANE_CHANGE_TYPES = (ScenarioType.LANE_CHANGE_LTD, ScenarioType.LANE_CHANGE_MTD,
                     ScenarioType.LANE_CHANGE_HTD)


@dataclass(frozen=True)
class TrafficDensity:
    label: str
    max_gap: float  # m

    _GAPS = {"LTD": 100.0, "MTD": 50.0, "HTD": 33.0}

    def __post_init__(self):
        if self._GAPS.get(self.label) != self.max_gap:
            raise ValueError(f"density {self.label!r} must pair with "
                             f"max_gap={self._GAPS.get(self.label)}")

    @classmethod
    def ltd(cls):
        return cls("LTD", 100.0)

    @classmethod
    def mtd(cls):
        return cls("MTD", 50.0)

    @classmethod
    def htd(cls):
        return cls("HTD", 33.0)


class PolicyMode(enum.Enum):
    CONSERVATIVE = "conservative"
    ASSERTIVE = "assertive"
    MIXED = "mixed"


class Rng:
    """Deterministic, splittable random source. Identical seeds produce
    identical draw sequences on every platform; children are derived by
    hashing the parent seed with the split keys."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.seed = int(seed) & self.MASK
        self._r = random.Random(self.seed)

    def split(self, *keys) -> "Rng":
        material = repr((self.seed,) + keys).encode()
        digest = hashlib.sha256(material).digest()
        return Rng(int.from_bytes(digest[:8], "big"))

    def uniform(self, lo: float, hi: float) -> float:
        return self._r.uniform(lo, hi)

    def random(self) -> float:
        return self._r.random()

    def randint(self, lo: int, hi: int) -> int:
        return self._r.randint(lo, hi)


@dataclass(frozen=True)
class EgoStart:
    pose: Pose2D
    speed: float


@dataclass(frozen=True)
class VehicleAgentSpec:
    lane: str
    s: float            # box-center arc position along the lane
    speed: float
    policy: str = "conservative"
    length: float = VEHICLE_LENGTH
    width: float = VEHICLE_WIDTH


@dataclass(frozen=True)
class PedestrianSpec:
    path: Polyline
    trigger_distance: float
    walk_speed: float = 1.5
    lane: str = "lane0"  # the lane whose corridor the path crosses


@dataclass(frozen=True)
class ObstacleSpec:
    kind: str            # cone | parked_vehicle | crashed_vehicle | stopped_bus
    box: OrientedBox
    lane: str

    KINDS = ("cone", "parked_vehicle", "crashed_vehicle", "stopped_bus")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown obstacle kind {self.kind!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    type: ScenarioType
    graph: LaneGraph
    ego: EgoStart
    agents: tuple[VehicleAgentSpec, ...]
    pedestrians: tuple[PedestrianSpec, ...]
    obstacles: tuple[ObstacleSpec, ...]
    route: Route
    duration: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "pedestrians", tuple(self.pedestrians))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))

    def ego_box(self) -> OrientedBox:
        return OrientedBox(self.ego.pose, VEHICLE_LENGTH, VEHICLE_WIDTH)

    def agent_box(self, a: VehicleAgentSpec) -> OrientedBox:
        pose = Pose2D(*self.graph.lane(a.lane).centerline.place(a.s))
        return OrientedBox(pose, a.length, a.width)

    def validate(self):
        if self.duration <= 0:
            raise ScenarioError("duration must be positive")
        self.route.validate(self.graph)
        first = self.graph.lane(self.route.lane_sequence[0])
        f = first.centerline.project((self.ego.pose.x, self.ego.pose.y))
        if abs(f.d) > first.width / 2.0:
            raise ScenarioError("ego start is not on the route's first lane")
        for o in self.obstacles:
            lane = self.graph.lane(o.lane)
            _, _, d_lo, d_hi = lane.centerline.box_extents(o.box)[0]
            if d_lo > lane.width / 2.0 or d_hi < -lane.width / 2.0:
                raise ScenarioError(f"obstacle {o.kind} does not overlap lane {o.lane}")
        # no initial overlap between any pair, except intentionally
        # intersecting crashed vehicles
        kinds = (["ego"] + ["agent"] * len(self.agents)
                 + [o.kind for o in self.obstacles]
                 + ["pedestrian"] * len(self.pedestrians))
        boxes = ([self.ego_box()] + [self.agent_box(a) for a in self.agents]
                 + [o.box for o in self.obstacles]
                 + [OrientedBox(Pose2D(*ped.path.place(0.0)), 0.6, 0.6)
                    for ped in self.pedestrians])
        for i, j in pairwise_contacts(box_columns(boxes)):
            if kinds[i] != "crashed_vehicle" or kinds[j] != "crashed_vehicle":
                raise ScenarioError(
                    f"initial overlap between {kinds[i]} and {kinds[j]}")


def merge_spans(spans: Sequence[tuple[float, float]], gap: float
                ) -> list[tuple[float, float]]:
    """Sorted (near, far) spans, each folded into the merged span before it
    when it starts within gap of that span's far end."""
    out: list[tuple[float, float]] = []
    for near, far in sorted(spans):
        if out and near <= out[-1][1] + gap:
            out[-1] = (out[-1][0], max(out[-1][1], far))
        else:
            out.append((near, far))
    return out


class ObstacleTable:
    """A scenario's static obstacles projected once onto every lane: the
    extended Polyline.box_extents rows the planners' lane scenes read, and
    blocking_spans, per lane with any, the merged (s_near, s_far) spans of
    the obstacles whose clamped rows reach into the swept band, which a
    lane-keeping vehicle cannot clear."""

    def __init__(self, graph: LaneGraph, obstacles: Sequence[ObstacleSpec]):
        # rows keyed by identity: hashing an ObstacleSpec walks its nested
        # dataclasses; the table holds the obstacles, so their ids stay unique
        self._obstacles = tuple(obstacles)
        self._row = {id(o): i for i, o in enumerate(self._obstacles)}
        self._extents: dict[str, np.ndarray] = {}
        self.blocking_spans: dict[str, list[tuple[float, float]]] = {}
        for lane_id in sorted(graph.segments):
            line = graph.lane(lane_id).centerline
            rows = [line.box_extents(o.box) for o in obstacles]
            self._extents[lane_id] = np.array(
                [ext for _, ext in rows], dtype=float).reshape(-1, 4).T
            spans = [(s_lo, s_hi) for (s_lo, s_hi, d_lo, d_hi), _ in rows
                     if not (d_lo > SWEPT_BAND_HALF_WIDTH
                             or d_hi < -SWEPT_BAND_HALF_WIDTH)]
            if spans:
                self.blocking_spans[lane_id] = merge_spans(spans, 0.5)

    def extents(self, lane_id: str, obstacles: Sequence[ObstacleSpec]
                ) -> np.ndarray:
        """(4, n): the extended columns of the given obstacles on the lane,
        in their order; each must be one of the table's own objects."""
        return self._extents[lane_id][:, [self._row[id(o)] for o in obstacles]]


# ---------------------------------------------------------------------------
# base maps


def build_base_map(kind: str, lanes: int, lane_width: float = LANE_WIDTH,
                   length: float = 450.0, radius: float = 120.0,
                   speed_limit: float = SPEED_LIMIT) -> LaneGraph:
    """Synthetic lane graphs: parallel straight lanes, concentric arcs, or a
    straight road with a single opposing lane."""
    if lanes < 1:
        raise ScenarioError("need at least one lane")
    if length < 200.0:
        raise ScenarioError("map length must be >= 200 m")
    if lane_width <= 0 or speed_limit <= 0:
        raise ScenarioError("dimensions must be positive")

    if kind == "straight_multilane":
        segments = _parallel_lanes(lanes, lane_width, length, speed_limit)
        y_lo = -lane_width / 2.0 - SHOULDER
        y_hi = (lanes - 0.5) * lane_width + SHOULDER
        area = [np.array([[-5.0, y_lo], [length + 5.0, y_lo],
                          [length + 5.0, y_hi], [-5.0, y_hi]])]
        return LaneGraph(segments, area)

    if kind == "two_way":
        segments = _parallel_lanes(lanes, lane_width, length, speed_limit)
        y_on = lanes * lane_width
        oncoming = LaneSegment(
            id="oncoming0",
            centerline=Polyline([[length, y_on], [0.0, y_on]]),
            width=lane_width, speed_limit=speed_limit)
        y_lo = -lane_width / 2.0 - SHOULDER
        y_hi = y_on + lane_width / 2.0 + SHOULDER
        area = [np.array([[-5.0, y_lo], [length + 5.0, y_lo],
                          [length + 5.0, y_hi], [-5.0, y_hi]])]
        return LaneGraph(segments + [oncoming], area)

    if kind == "curved":
        sweep = length / radius
        if sweep > 2.6:
            raise ScenarioError("curved map too long for its radius")
        segments = []
        n_pts = max(80, int(length / 2.0))
        for i in range(lanes):
            r_i = radius - i * lane_width
            if r_i <= lane_width:
                raise ScenarioError("radius too small for the lane count")
            phi = np.linspace(0.0, sweep, n_pts)
            pts = np.column_stack([r_i * np.sin(phi), radius - r_i * np.cos(phi)])
            segments.append(LaneSegment(
                id=f"lane{i}", centerline=Polyline(pts), width=lane_width,
                speed_limit=speed_limit,
                left_neighbor=f"lane{i + 1}" if i + 1 < lanes else None,
                right_neighbor=f"lane{i - 1}" if i > 0 else None))
        pad = 0.03
        phi = np.linspace(-pad, sweep + pad, n_pts)
        r_out = radius + lane_width / 2.0 + SHOULDER
        r_in = radius - (lanes - 0.5) * lane_width - SHOULDER
        outer = np.column_stack([r_out * np.sin(phi), radius - r_out * np.cos(phi)])
        inner = np.column_stack([r_in * np.sin(phi), radius - r_in * np.cos(phi)])
        area = [np.vstack([outer, inner[::-1]])]
        return LaneGraph(segments, area)

    raise ScenarioError(f"unknown map kind {kind!r}")


def _parallel_lanes(lanes, lane_width, length, speed_limit):
    segments = []
    for i in range(lanes):
        segments.append(LaneSegment(
            id=f"lane{i}",
            centerline=Polyline([[0.0, i * lane_width], [length, i * lane_width]]),
            width=lane_width, speed_limit=speed_limit,
            left_neighbor=f"lane{i + 1}" if i + 1 < lanes else None,
            right_neighbor=f"lane{i - 1}" if i > 0 else None))
    return segments


def base_scenario(scenario_type: ScenarioType, graph: LaneGraph, ego_lane: str,
                  ego_s: float, ego_speed: float, seed: int,
                  duration: float = 15.0,
                  goal_lane: Optional[str] = None) -> ScenarioSpec:
    """A scenario skeleton: ego on its lane, straight-ahead route, nothing else."""
    goal_lane = goal_lane or ego_lane
    goal_line = graph.lane(goal_lane).centerline
    goal = Pose2D(*goal_line.place(goal_line.length - 15.0))
    route = shortest_route(graph, ego_lane, goal_lane, goal)
    ego = EgoStart(pose=Pose2D(*graph.lane(ego_lane).centerline.place(ego_s)),
                   speed=ego_speed)
    return ScenarioSpec(type=scenario_type, graph=graph, ego=ego, agents=(),
                        pedestrians=(), obstacles=(), route=route,
                        duration=duration, seed=seed)


# ---------------------------------------------------------------------------
# obstacle placement


def _ego_s_on(spec: ScenarioSpec, lane_id: str) -> float:
    line = spec.graph.lane(lane_id).centerline
    return line.project((spec.ego.pose.x, spec.ego.pose.y)).s


def _require_ahead(spec: ScenarioSpec, lane_id: str, at_s: float, margin: float = 30.0):
    ego_front = _ego_s_on(spec, lane_id) + VEHICLE_LENGTH / 2.0
    if at_s - ego_front < margin:
        raise ScenarioError(f"placement at s={at_s:.1f} is not >= {margin:.0f} m "
                            f"ahead of the ego (front at {ego_front:.1f})")


def _require_on_lane(lane: LaneSegment, *s_values: float):
    for s in s_values:
        if not 0.0 <= s <= lane.centerline.length:
            raise ScenarioError(f"placement at s={s:.1f} is outside [0, "
                                f"{lane.centerline.length:.1f}] on {lane.id}")


def place_construction_zone(spec: ScenarioSpec, start_s: float,
                            zone_length: float) -> ScenarioSpec:
    """A cone row fully blocking the ego lane over the zone; the adjacent
    lane stays free."""
    lane_id = spec.route.lane_sequence[0]
    lane = spec.graph.lane(lane_id)
    if start_s < 0 or start_s + zone_length > lane.centerline.length:
        raise ScenarioError("zone must lie fully inside the ego lane")
    _require_ahead(spec, lane_id, start_s)
    cones: list[ObstacleSpec] = []
    half_span = lane.width / 2.0 - 0.25
    n_across = max(5, int(math.ceil(2 * half_span / 0.8)) + 1)

    def cone_at(s: float, d: float) -> ObstacleSpec:
        pose = Pose2D(*lane.centerline.place(s, d))
        return ObstacleSpec("cone", OrientedBox(pose, CONE_SIZE, CONE_SIZE), lane_id)

    for s in (start_s, start_s + zone_length):
        for d in np.linspace(-half_span, half_span, n_across):
            cones.append(cone_at(float(s), float(d)))
    s = start_s + 4.0
    while s < start_s + zone_length - 2.0:
        cones.append(cone_at(s, 0.0))
        s += 4.0
    return replace(spec, obstacles=spec.obstacles + tuple(cones))


def place_parked_vehicle(spec: ScenarioSpec, variant: str, at_s: float,
                         encroachment: Optional[float] = None) -> ScenarioSpec:
    """Nudge variant: a parked car intruding at most 40% of the lane width,
    passable with |d| <= 1 m. Overtake variant: a van blocking the lane so a
    pass requires the oncoming lane."""
    lane_id = spec.route.lane_sequence[0]
    lane = spec.graph.lane(lane_id)
    _require_ahead(spec, lane_id, at_s)
    _require_on_lane(lane, at_s)
    if variant == "nudge":
        e = 0.4 * lane.width if encroachment is None else encroachment
        if not 0.0 < e <= 0.4 * lane.width:
            raise ScenarioError("nudge encroachment must be in (0, 0.4*lane_width]")
        d_center = -lane.width / 2.0 + e - VEHICLE_WIDTH / 2.0
        pose = Pose2D(*lane.centerline.place(at_s, d_center))
        box = OrientedBox(pose, VEHICLE_LENGTH, VEHICLE_WIDTH)
        return replace(spec, obstacles=spec.obstacles
                       + (ObstacleSpec("parked_vehicle", box, lane_id),))
    if variant == "overtake":
        if not _has_oncoming_lane(spec.graph, lane):
            raise ScenarioError("overtake variant needs an oncoming lane")
        pose = Pose2D(*lane.centerline.place(at_s))
        box = OrientedBox(pose, VAN_LENGTH, VAN_WIDTH)
        return replace(spec, obstacles=spec.obstacles
                       + (ObstacleSpec("parked_vehicle", box, lane_id),))
    raise ScenarioError(f"unknown parked-vehicle variant {variant!r}")


def _has_oncoming_lane(graph: LaneGraph, lane: LaneSegment) -> bool:
    mid_x, mid_y, _ = lane.centerline.place(lane.centerline.length / 2.0)
    h = lane.centerline.tangent_at(lane.centerline.length / 2.0)
    for other in graph.segments.values():
        if other.id == lane.id:
            continue
        f = other.centerline.project((mid_x, mid_y))
        if abs(f.d) > 3.0 * lane.width:
            continue
        h_other = other.centerline.tangent_at(f.s)
        if math.cos(h - h_other) < -0.5:
            return True
    return False


def place_accident_site(spec: ScenarioSpec, at_s: float,
                        pattern: str) -> ScenarioSpec:
    """Two crashed vehicles with intersecting boxes blocking the ego lane."""
    if len(spec.graph.segments) < 2:
        raise ScenarioError("accident sites need a multilane or two-way map")
    lane_id = spec.route.lane_sequence[0]
    lane = spec.graph.lane(lane_id)
    _require_ahead(spec, lane_id, at_s)
    line = lane.centerline
    if pattern == "rear_end":
        d_a, s_b, d_b, turn = -0.1, at_s + VEHICLE_LENGTH - 0.5, 0.2, 0.06
    elif pattern == "crossing":
        d_a, s_b, d_b, turn = -0.2, at_s + 1.8, 0.9, math.pi / 2.0 * 0.85
    else:
        raise ScenarioError(f"unknown accident pattern {pattern!r}")
    _require_on_lane(lane, at_s, s_b)
    pa = Pose2D(*line.place(at_s, d_a))
    x, y, heading = line.place(s_b, d_b)
    pb = Pose2D(x, y, heading + turn)
    a = OrientedBox(pa, VEHICLE_LENGTH, VEHICLE_WIDTH)
    b = OrientedBox(pb, VEHICLE_LENGTH, VEHICLE_WIDTH)
    if not boxes_collide(a, b):
        raise ScenarioError("accident construction failed to intersect the boxes")
    return replace(spec, obstacles=spec.obstacles + (
        ObstacleSpec("crashed_vehicle", a, lane_id),
        ObstacleSpec("crashed_vehicle", b, lane_id)))


def place_jaywalker(spec: ScenarioSpec, bus_stop_s: float,
                    trigger_distance: float, walk_speed: float = 1.5) -> ScenarioSpec:
    """A stopped bus on the shoulder plus a pedestrian whose crossing path
    cuts the ego lane, armed with the trigger distance."""
    lane_id = spec.route.lane_sequence[0]
    lane = spec.graph.lane(lane_id)
    stopping = spec.ego.speed ** 2 / (2.0 * 4.0)
    if trigger_distance <= stopping:
        raise ScenarioError(
            f"trigger {trigger_distance:.1f} m does not allow a reaction: "
            f"stopping distance is {stopping:.1f} m at {spec.ego.speed:.1f} m/s")
    _require_ahead(spec, lane_id, bus_stop_s)
    s_cross = bus_stop_s + BUS_LENGTH / 2.0 + 2.0
    _require_on_lane(lane, bus_stop_s, s_cross)
    d_bus = -(lane.width / 2.0 + BUS_WIDTH / 2.0 - 0.05)
    bus_pose = Pose2D(*lane.centerline.place(bus_stop_s, d_bus))
    bus = ObstacleSpec("stopped_bus", OrientedBox(bus_pose, BUS_LENGTH, BUS_WIDTH),
                       lane_id)
    start = lane.centerline.place(s_cross, -(lane.width / 2.0 + 0.8))
    end = lane.centerline.place(s_cross, lane.width / 2.0 + 0.8)
    path = Polyline([start[:2], end[:2]])
    ped = PedestrianSpec(path=path, trigger_distance=trigger_distance,
                         walk_speed=walk_speed, lane=lane_id)
    return replace(spec, obstacles=spec.obstacles + (bus,),
                   pedestrians=spec.pedestrians + (ped,))


# ---------------------------------------------------------------------------
# traffic


def spawn_traffic(spec: ScenarioSpec, density: TrafficDensity, rng: Rng,
                  lanes: Optional[Sequence[str]] = None) -> ScenarioSpec:
    """Randomly place agents along each lane with bumper gaps between
    consecutive occupants (agents, the ego, blocking obstacles) in
    [MIN_SPAWN_GAP, density.max_gap]; initial speeds are the smaller of the
    lane limit and the IDM equilibrium speed for the spawn gap."""
    lane_ids = sorted(lanes) if lanes is not None else sorted(spec.graph.segments)
    blockers = ObstacleTable(spec.graph, spec.obstacles).blocking_spans
    new_agents: list[VehicleAgentSpec] = []
    ego_box = spec.ego_box()
    for lane_id in lane_ids:
        lane = spec.graph.lane(lane_id)
        occupants = [(near - 0.0, far) for near, far in blockers.get(lane_id, [])]
        f = lane.centerline.project((ego_box.center.x, ego_box.center.y))
        if abs(f.d) <= lane.width / 2.0 + VEHICLE_WIDTH / 2.0:
            occupants.append((f.s - VEHICLE_LENGTH / 2.0, f.s + VEHICLE_LENGTH / 2.0))
        occupants = merge_spans(occupants, 0.0)
        r = rng.split("spawn", lane_id)
        centers = _chain_spawn(lane.centerline.length, occupants, r, density)
        # speed from the gap to the next member ahead
        members = sorted([(c - VEHICLE_LENGTH / 2.0, c + VEHICLE_LENGTH / 2.0, "agent")
                          for c in centers]
                         + [(near, far, "occ") for near, far in occupants])
        for idx, (near, far, kind) in enumerate(members):
            if kind != "agent":
                continue
            gap_ahead = None
            if idx + 1 < len(members):
                gap_ahead = members[idx + 1][0] - far
            if gap_ahead is None:
                speed = lane.speed_limit
            else:
                speed = min(lane.speed_limit,
                            equilibrium_speed(gap_ahead, lane.speed_limit))
            new_agents.append(VehicleAgentSpec(
                lane=lane_id, s=(near + far) / 2.0, speed=speed))
    return replace(spec, agents=spec.agents + tuple(new_agents))


def _chain_spawn(length: float, occupants, r: Rng, density: TrafficDensity,
                 L: float = VEHICLE_LENGTH) -> list[float]:
    """Walk along the lane placing agents so every consecutive pair of chain
    members keeps a bumper gap in [MIN_SPAWN_GAP, max_gap]."""
    end_margin = 10.0
    centers: list[float] = []
    occ = list(occupants)
    oi = 0
    cur_front: Optional[float] = None
    while True:
        if cur_front is None:
            rear = r.uniform(2.0, density.max_gap)
        else:
            rear = cur_front + r.uniform(MIN_SPAWN_GAP, density.max_gap)
        absorbed = False
        while oi < len(occ):
            near, far = occ[oi]
            if rear + L + MIN_SPAWN_GAP <= near:
                break
            latest = near - MIN_SPAWN_GAP - L
            fits = latest >= (2.0 if cur_front is None else cur_front + MIN_SPAWN_GAP)
            if fits:
                rear = min(rear, latest)
                break
            cur_front = far
            oi += 1
            absorbed = True
            break
        if absorbed:
            continue
        if rear + L > length - end_margin:
            break
        centers.append(rear + L / 2.0)
        cur_front = rear + L
    return centers


def assign_policies(spec: ScenarioSpec, mode: PolicyMode, rng: Rng) -> ScenarioSpec:
    """Tag every agent conservative/assertive; mixed mode draws per agent
    with probability one half each."""
    r = rng.split("policies")
    agents = []
    for a in spec.agents:
        if mode is PolicyMode.CONSERVATIVE:
            tag = "conservative"
        elif mode is PolicyMode.ASSERTIVE:
            tag = "assertive"
        else:
            tag = "assertive" if r.random() < 0.5 else "conservative"
        agents.append(replace(a, policy=tag))
    return replace(spec, agents=tuple(agents))


def augment_goal_for_lane_changes(spec: ScenarioSpec, n_changes: int) -> ScenarioSpec:
    """Rewrite the route so reaching the goal requires exactly n lane changes."""
    start = spec.route.lane_sequence[0]
    target = start
    for _ in range(n_changes):
        left = spec.graph.lane(target).left_neighbor
        if left is None:
            raise ScenarioError(
                f"map does not allow {n_changes} lane changes from {start}")
        target = left
    line = spec.graph.lane(target).centerline
    goal = Pose2D(*line.place(line.length - 15.0))
    route = shortest_route(spec.graph, start, target, goal)
    if lane_changes_required(route, spec.graph) != n_changes:
        raise ScenarioError("route augmentation produced the wrong change count")
    return replace(spec, route=route)


# ---------------------------------------------------------------------------
# benchmark suite


def _derived_seed(master_seed: int, *keys) -> int:
    return Rng(master_seed).split(*keys).seed


def _lane_change_scenario(scenario_type: ScenarioType, density: TrafficDensity,
                          index: int, master_seed: int) -> ScenarioSpec:
    seed = _derived_seed(master_seed, scenario_type.value, index)
    rng = Rng(seed)
    lanes = 2 + index % 3
    n_changes = 1 + index % 3
    graph = build_base_map("straight_multilane", lanes=lanes, length=400.0)
    spec = base_scenario(scenario_type, graph, "lane0", ego_s=60.0,
                         ego_speed=10.0, seed=seed)
    spec = augment_goal_for_lane_changes(spec, n_changes)
    spec = spawn_traffic(spec, density, rng)
    mode = (PolicyMode.CONSERVATIVE if index < 3
            else PolicyMode.ASSERTIVE if index < 6 else PolicyMode.MIXED)
    spec = assign_policies(spec, mode, rng)
    spec.validate()
    return spec


def _obstacle_scenario(scenario_type: ScenarioType, index: int,
                       master_seed: int) -> ScenarioSpec:
    seed = _derived_seed(master_seed, scenario_type.value, index)
    rng = Rng(seed)
    if scenario_type is ScenarioType.CONSTRUCTION:
        if index in (3, 7):
            graph = build_base_map("curved", lanes=2, length=280.0, radius=120.0)
        else:
            graph = build_base_map("straight_multilane", lanes=2, length=450.0)
        spec = base_scenario(scenario_type, graph, "lane0", 40.0, 10.0, seed)
        spec = place_construction_zone(spec, start_s=80.0 + 5.0 * index,
                                       zone_length=12.0 + 2.0 * (index % 3))
    elif scenario_type is ScenarioType.ACCIDENT:
        kind = "two_way" if index % 2 else "straight_multilane"
        lanes = 1 if kind == "two_way" else 2
        graph = build_base_map(kind, lanes=lanes, length=450.0)
        spec = base_scenario(scenario_type, graph, "lane0", 40.0, 10.0, seed)
        pattern = "crossing" if index >= 5 else "rear_end"
        spec = place_accident_site(spec, at_s=85.0 + 4.0 * index, pattern=pattern)
    elif scenario_type is ScenarioType.JAYWALKER:
        lanes = 1 if index < 6 else 2
        graph = build_base_map("straight_multilane", lanes=lanes, length=400.0)
        speed = 10.0 if index < 5 else 12.5
        spec = base_scenario(scenario_type, graph, "lane0", 40.0, speed, seed)
        spec = place_jaywalker(spec, bus_stop_s=85.0 + 5.0 * index,
                               trigger_distance=30.0 + 2.0 * (index % 3))
    elif scenario_type is ScenarioType.NUDGE:
        lanes = 1 if index < 8 else 2
        graph = build_base_map("straight_multilane", lanes=lanes, length=400.0)
        spec = base_scenario(scenario_type, graph, "lane0", 40.0, 10.0, seed)
        encroach = (0.26 + 0.014 * index) * LANE_WIDTH
        spec = place_parked_vehicle(spec, "nudge", at_s=80.0 + 5.0 * index,
                                    encroachment=encroach)
    elif scenario_type is ScenarioType.OVERTAKE:
        graph = build_base_map("two_way", lanes=1, length=450.0)
        spec = base_scenario(scenario_type, graph, "lane0", 40.0, 10.0, seed)
        spec = place_parked_vehicle(spec, "overtake", at_s=85.0 + 4.0 * index)
        if index > 0:
            density = (TrafficDensity.ltd() if index <= 5
                       else TrafficDensity.mtd() if index <= 8
                       else TrafficDensity.htd())
            spec = spawn_traffic(spec, density, rng, lanes=["oncoming0"])
    else:
        raise ValueError(f"not an obstacle family: {scenario_type}")
    spec.validate()
    return spec


def generate_benchmark_suite(master_seed: int) -> list[ScenarioSpec]:
    """The 80-scenario benchmark: 10 per family; the lane-change families
    split 3 conservative / 3 assertive / 4 mixed per density."""
    suite: list[ScenarioSpec] = []
    for stype in ScenarioType:
        for i in range(10):
            if stype in LANE_CHANGE_TYPES:
                density = {
                    ScenarioType.LANE_CHANGE_LTD: TrafficDensity.ltd(),
                    ScenarioType.LANE_CHANGE_MTD: TrafficDensity.mtd(),
                    ScenarioType.LANE_CHANGE_HTD: TrafficDensity.htd(),
                }[stype]
                suite.append(_lane_change_scenario(stype, density, i, master_seed))
            else:
                suite.append(_obstacle_scenario(stype, i, master_seed))
    return suite


# ---------------------------------------------------------------------------
# serialization


def _pose_to_list(p: Pose2D) -> list:
    return [p.x, p.y, p.heading]


def _box_to_dict(b: OrientedBox) -> dict:
    return {"pose": _pose_to_list(b.center), "length": b.length, "width": b.width}


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    lanes = []
    for lane_id in sorted(spec.graph.segments):
        seg = spec.graph.lane(lane_id)
        lanes.append({
            "id": seg.id,
            "centerline": seg.centerline.to_list(),
            "width": seg.width,
            "speed_limit": seg.speed_limit,
            "successors": list(seg.successors),
            "left_neighbor": seg.left_neighbor,
            "right_neighbor": seg.right_neighbor,
        })
    return {
        "version": SCHEMA_VERSION,
        "type": spec.type.value,
        "seed": spec.seed,
        "map": {
            "lanes": lanes,
            "drivable_area": [poly.tolist() for poly in spec.graph.drivable_area],
        },
        "ego": {"pose": _pose_to_list(spec.ego.pose), "speed": spec.ego.speed},
        "agents": {
            "vehicles": [{
                "lane": a.lane, "s": a.s, "speed": a.speed, "policy": a.policy,
                "length": a.length, "width": a.width,
            } for a in spec.agents],
            "pedestrians": [{
                "path": p.path.to_list(),
                "trigger_distance": p.trigger_distance,
                "walk_speed": p.walk_speed,
                "lane": p.lane,
            } for p in spec.pedestrians],
        },
        "obstacles": [{
            "kind": o.kind, "lane": o.lane, "box": _box_to_dict(o.box),
        } for o in spec.obstacles],
        "route": {
            "lanes": list(spec.route.lane_sequence),
            "goal": _pose_to_list(spec.route.goal_pose),
        },
        "duration": spec.duration,
    }


def scenario_from_dict(data: dict) -> ScenarioSpec:
    try:
        version = data["version"]
    except (KeyError, TypeError) as exc:
        raise MalformedScenarioError("missing schema version") from exc
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported scenario schema {version!r}, expected {SCHEMA_VERSION!r}")
    try:
        segments = [LaneSegment(
            id=l["id"], centerline=Polyline(l["centerline"]), width=l["width"],
            speed_limit=l["speed_limit"], successors=list(l["successors"]),
            left_neighbor=l["left_neighbor"], right_neighbor=l["right_neighbor"],
        ) for l in data["map"]["lanes"]]
        graph = LaneGraph(segments,
                          [np.asarray(p) for p in data["map"]["drivable_area"]])
        ego = EgoStart(pose=Pose2D(*data["ego"]["pose"]), speed=data["ego"]["speed"])
        agents = tuple(VehicleAgentSpec(
            lane=a["lane"], s=a["s"], speed=a["speed"], policy=a["policy"],
            length=a["length"], width=a["width"],
        ) for a in data["agents"]["vehicles"])
        peds = tuple(PedestrianSpec(
            path=Polyline(p["path"]), trigger_distance=p["trigger_distance"],
            walk_speed=p["walk_speed"], lane=p["lane"],
        ) for p in data["agents"]["pedestrians"])
        obstacles = tuple(ObstacleSpec(
            kind=o["kind"],
            box=OrientedBox(Pose2D(*o["box"]["pose"]), o["box"]["length"],
                            o["box"]["width"]),
            lane=o["lane"],
        ) for o in data["obstacles"])
        route = Route(tuple(data["route"]["lanes"]), Pose2D(*data["route"]["goal"]))
        spec = ScenarioSpec(
            type=ScenarioType(data["type"]), graph=graph, ego=ego, agents=agents,
            pedestrians=peds, obstacles=obstacles, route=route,
            duration=data["duration"], seed=data["seed"])
    except SchemaVersionError:
        raise
    except Exception as exc:
        raise MalformedScenarioError(f"invalid scenario payload: {exc}") from exc
    return spec


def scenario_to_json(spec: ScenarioSpec) -> str:
    return json.dumps(scenario_to_dict(spec), sort_keys=True, separators=(",", ":"))


def save_scenario(spec: ScenarioSpec, path) -> None:
    Path(path).write_text(scenario_to_json(spec), encoding="utf-8")


def load_scenario(path) -> ScenarioSpec:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedScenarioError(f"not valid JSON: {exc}") from exc
    return scenario_from_dict(data)
