"""Closed-loop background actors: IDM longitudinal control, the
conservative/assertive lead-perception rules, and triggered pedestrians.

Agents are lane-keepers: they follow their lane centerline, never change
lanes, and brake for whatever `select_lead` reports ahead of them: the
lane-keeper rule of `lane_keeper_obstructions`, which the stationary gate
of the metric engine shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import EgoFrame, LaneGraph, OrientedBox, Polyline, Pose2D, wrap_angle

# Emergency deceleration cap: last-resort braking, prevents teleport-stops.
EMERGENCY_DECEL = -8.0

# Shared vehicle footprint defaults [m].
VEHICLE_LENGTH = 4.6
VEHICLE_WIDTH = 1.85

# Lateral half-width of the band a lane-keeping vehicle sweeps; obstacles
# outside it (e.g. a bus on the shoulder) are not treated as leads.
SWEPT_BAND_HALF_WIDTH = VEHICLE_WIDTH / 2.0 + 0.25


# IDM parameters of every IDM user: traffic, the rule-based planners and the
# spawn speeds. The desired speed v0 is an argument.
IDM_T = 1.5             # time headway [s]
IDM_S0 = 4.0            # jam distance [m]
IDM_A_MAX = 1.5         # max acceleration [m/s^2]
IDM_B_COMF = 2.0        # comfortable deceleration [m/s^2]
_IDM_SQRT_AB = math.sqrt(IDM_A_MAX * IDM_B_COMF)


def idm_acceleration(v: float, v_lead: Optional[float], gap: Optional[float],
                     v0: float, floor: float = EMERGENCY_DECEL) -> float:
    """Longitudinal acceleration of the intelligent-driver car-following law
    toward the desired speed v0.

    a = max(a_max * [1 - (v/v0)^4], floor) - a_max * (s*/gap)^2,
    s* = max(s0 + v*T + v*(v - v_lead) / (2*sqrt(a_max*b_comf)), s0).

    Without a lead only the free-flow term applies. floor bounds the
    free-flow term below and the emergency cap the result. Powers are
    products and clamps comparisons, so numpy's SIMD loops and Python
    floats give the same bits.
    """
    r = v / v0
    r2 = r * r
    a = IDM_A_MAX * (1.0 - r2 * r2)
    if a < floor:
        a = floor
    if v_lead is not None and gap is not None:
        if gap <= 0:
            raise ValueError(f"gap must be positive, got {gap}")
        s_star = (IDM_S0 + v * IDM_T
                  + v * (v - v_lead) / (2.0 * _IDM_SQRT_AB))
        q = (s_star if s_star > IDM_S0 else IDM_S0) / gap
        a -= IDM_A_MAX * (q * q)
    return a if a > EMERGENCY_DECEL else EMERGENCY_DECEL


def idm_profile(v_start: float, gap0: float, v_lead: float, v0: float,
                dt: float, n: int, floor: float = EMERGENCY_DECEL
                ) -> tuple[list[float], list[float]]:
    """idm_acceleration (with its free-flow floor) integrated over n steps
    of dt from speed max(v_start, 0) toward v0, behind a lead driving at
    max(v_lead, 0) from gap0 ahead; gaps below 0.01 m count as 0.01 m, and
    gap0 = inf is free flow to the bit. Returns the arc offsets and the
    speeds, n + 1 samples each.

    Two shortcuts keep the bits of stepping every row through the law, for
    finite speeds. A free-flow row drops the lead term, which would
    subtract 1.5 * 0.0. Behind a lead at rest, a step that starts and ends
    at rest leaves the arc offset, and so the gap, where it was; the law is
    a pure function of the speed and the gap, so every later step repeats
    it, and the row is filled instead."""
    sk, vk = 0.0, v_start if v_start > 0.0 else 0.0
    gap0 = gap0 if gap0 > 0.01 else 0.01
    v_lead = v_lead if v_lead > 0.0 else 0.0
    lead = None if gap0 == math.inf else v_lead
    s, v = [sk], [vk]
    gap = None
    for k in range(n):
        resting = vk == 0.0
        if lead is not None:
            gap = gap0 + v_lead * k * dt - sk
            gap = gap if gap > 0.01 else 0.01
        vk += idm_acceleration(vk, lead, gap, v0, floor) * dt
        if not vk > 0.0:
            vk = 0.0
            if resting and v_lead == 0.0:
                s += [sk] * (n - k)
                v += [0.0] * (n - k)
                return s, v
        sk += vk * dt
        s.append(sk)
        v.append(vk)
    return s, v


def equilibrium_speed(gap: float, v0: float) -> float:
    """Speed at which idm_acceleration is zero for the given steady gap
    (same-speed lead); 0 when the gap is at or below the jam distance.
    Bisects until the midpoint equals an end: f(lo) <= 0 < f(hi) holds
    throughout, so no later iteration would move either end."""
    if gap <= IDM_S0:
        return 0.0

    def f(v):
        r, q = v / v0, (IDM_S0 + v * IDM_T) / gap
        r2 = r * r
        return r2 * r2 + q * q - 1.0

    lo, hi = 0.0, v0
    if f(hi) <= 0:
        return v0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


POLICIES = frozenset(("conservative", "assertive"))


@dataclass(frozen=True)
class Traffic:
    """Vehicle agents as columns, one entry per agent in a fixed order."""
    lane: list[str]
    s: list[float]           # arc position of the box center along the lane
    speed: list[float]
    v0: list[float]          # IDM desired speed: the spawn lane's limit
    policy: list[str]        # "conservative" | "assertive"
    length: list[float]
    width: list[float]
    x: list[float]           # the placed box center and heading
    y: list[float]
    heading: list[float]

    def __post_init__(self):
        if any(map((0.0).__gt__, self.speed)):
            raise ValueError("agent speed must be >= 0")
        for policy in set(self.policy) - POLICIES:
            raise ValueError(f"unknown policy {policy!r}")

    def __len__(self) -> int:
        return len(self.lane)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "Traffic":
        """Agents given as rows of the fields in order."""
        return cls(*(map(list, zip(*rows)) if rows else ([] for _ in fields(cls))))

    @classmethod
    def spawn(cls, graph: LaneGraph, agents: Iterable) -> "Traffic":
        """Agents placed on their lanes from specs with a lane, s, speed,
        policy, length and width; v0 is the lane's speed limit."""
        return cls.from_rows([
            (a.lane, float(a.s), float(a.speed), graph.lane(a.lane).speed_limit,
             a.policy, a.length, a.width,
             *graph.lane(a.lane).centerline.place(float(a.s))) for a in agents])


@dataclass(frozen=True)
class PedestrianState:
    path: Polyline
    walk_speed: float
    trigger_distance: float
    lane: str                    # the lane whose corridor the path crosses
    phase: str = "waiting"       # waiting -> crossing -> done
    dist_along: float = 0.0

    def __post_init__(self):
        if self.phase not in ("waiting", "crossing", "done"):
            raise ValueError(f"unknown phase {self.phase!r}")

    @property
    def position(self) -> tuple[float, float]:
        x, y, _ = self.path.place(min(self.dist_along, self.path.length))
        return (x, y)

    @property
    def heading(self) -> float:
        return self.path.tangent_at(min(self.dist_along, self.path.length))

    @property
    def velocity(self) -> tuple[float, float]:
        if self.phase != "crossing":
            return (0.0, 0.0)
        h = self.heading
        return (self.walk_speed * math.cos(h), self.walk_speed * math.sin(h))

    def box(self) -> OrientedBox:
        x, y = self.position
        return OrientedBox(Pose2D(x, y, self.heading), 0.6, 0.6)


def ego_counts_in_lane(ego_box: OrientedBox, lane_width: float,
                       d: float, lane_heading: float, policy: str) -> bool:
    """Lead-perception rule: conservative agents react to the ego as soon as
    its footprint (its half-extent across the lane) overlaps the lane
    corridor; assertive agents only once it is fully merged (center in lane
    and |d| < lane_width / 4)."""
    if policy == "conservative":
        rel = wrap_angle(ego_box.center.heading - lane_heading)
        return abs(d) <= lane_width / 2.0 + (
            abs(math.sin(rel)) * ego_box.length / 2.0
            + abs(math.cos(rel)) * ego_box.width / 2.0)
    return abs(d) < lane_width / 4.0


def lane_keeper_obstructions(graph: LaneGraph, lane_id: str,
                             agents: Iterable[tuple[str, float, float, float]],
                             lane_blockers: dict[str, list[tuple[float, float]]],
                             pedestrians: Iterable[tuple[float, float, str]],
                             ped_half: float) -> list[tuple[float, float]]:
    """Everything a vehicle keeping lane `lane_id` brakes for, as (near-edge
    arc position, speed) rows along the lane, in this order:

    - the lane's agents, given as (lane, s, length, speed), by lane
      membership and in input order, with near edge s - length / 2;
    - the lane's blocking spans (s_near, s_far) in lane_blockers, at speed 0;
    - crossing pedestrians, given as (x, y, phase), whose projection lies
      within SWEPT_BAND_HALF_WIDTH + 0.3 of the centerline, entering
      ped_half before their center, at speed 0.
    """
    line = graph.lane(lane_id).centerline
    rows = [(s - length / 2.0, speed)
            for lane, s, length, speed in agents if lane == lane_id]
    rows += [(near, 0.0) for near, _far in lane_blockers.get(lane_id, ())]
    for x, y, phase in pedestrians:
        if phase == "crossing":
            f = line.project((x, y))
            if abs(f.d) <= SWEPT_BAND_HALF_WIDTH + 0.3:
                rows.append((f.s - ped_half, 0.0))
    return rows


def select_lead(traffic: Traffic, graph: LaneGraph,
                lane_blockers: dict[str, list[tuple[float, float]]],
                pedestrians: Sequence[PedestrianState],
                ego_box: Optional[OrientedBox], ego_speed: float,
                frame: EgoFrame) -> list[Optional[tuple[float, float]]]:
    """Each agent's nearest entity ahead in its lane, as (lead speed, bumper
    gap), or None when nothing ahead has a positive gap.

    One lane_keeper_obstructions query per occupied lane and one gap matrix
    over all of their rows serve every agent; a crossing pedestrian (a 0.6 m
    square) enters 0.3 m before its center. The ego, at its center's lane
    projection in frame, counts per each agent's policy
    (ego_counts_in_lane) and ranks right after the lane's agents: on equal
    gaps the earlier of agents, ego, spans and pedestrians wins.
    """
    if not len(traffic):
        return []
    rows = list(zip(traffic.lane, traffic.s, traffic.length, traffic.speed))
    peds = [(*p.position, p.phase) for p in pedestrians]
    lanes = {lane_id: k for k, lane_id in enumerate(dict.fromkeys(traffic.lane))}
    table, owner, blind = [], [], {}
    for lane_id, k in lanes.items():
        ego = []
        if ego_box is not None:
            lane, f = graph.lane(lane_id), frame[lane_id]
            heading = lane.centerline.tangent_at(f.s)
            rel = wrap_angle(ego_box.center.heading - heading)
            half = (abs(math.cos(rel)) * ego_box.length / 2.0
                    + abs(math.sin(rel)) * ego_box.width / 2.0)
            sees = {p for p in POLICIES
                    if ego_counts_in_lane(ego_box, lane.width, f.d, heading, p)}
            if sees:  # a zero-length agent row after all: after the lane's
                ego = [(lane_id, f.s - half, 0.0, ego_speed)]
            if sees and sees != POLICIES:  # its column, and who is blind to it
                blind[lane_id] = (len(table) + traffic.lane.count(lane_id),
                                  POLICIES - sees)
        lane_rows = lane_keeper_obstructions(graph, lane_id, rows + ego,
                                             lane_blockers, peds, 0.3)
        table += lane_rows
        owner += [k] * len(lane_rows)
    near, speed = np.array(table).T
    # an agent's own row has gap -length < 0, so it never leads itself
    gaps = near - np.array([s + length / 2.0 for s, length
                            in zip(traffic.s, traffic.length)])[:, None]
    ahead = gaps > 0
    if len(lanes) > 1:
        ahead &= np.array(owner) == np.array([lanes[l] for l in traffic.lane])[:, None]
    hidden = [(i, blind[lane][0]) for i, (lane, p) in enumerate(zip(
        traffic.lane, traffic.policy)) if lane in blind and p in blind[lane][1]]
    if hidden:
        ahead[tuple(zip(*hidden))] = False
    agents = np.arange(len(traffic))
    first = np.where(ahead, gaps, np.inf).argmin(axis=1)
    return [(v, g) if hit else None for hit, v, g in zip(
        ahead[agents, first].tolist(), speed[first].tolist(),
        gaps[agents, first].tolist())]


def step_vehicle_agent(traffic: Traffic,
                       leads: Sequence[Optional[tuple[float, float]]],
                       graph: LaneGraph, dt: float) -> Traffic:
    """Advance every agent by dt: one idm_profile step against its lead (as
    select_lead gives them), then along its lane's centerline, onto the
    first successor (by id) past the lane's end and along the end tangent
    where there is none; agents never change lane otherwise."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    rows, lanes = [], graph.segments
    for (lane_id, s, v, v0, policy, length, width, *_), lead in zip(
            zip(*vars(traffic).values()), leads):
        v_lead, gap = (0.0, math.inf) if lead is None else lead
        [_, ds], [_, v] = idm_profile(v, gap, v_lead, v0, dt, 1)
        s += ds
        seg = lanes[lane_id]
        while s > seg.centerline.length and seg.successors:
            s -= seg.centerline.length
            seg = lanes[min(seg.successors)]
        rows.append((seg.id, s, v, v0, policy, length, width,
                     *seg.centerline.place(s)))
    return Traffic.from_rows(rows)


def step_pedestrian(ped: PedestrianState, graph: LaneGraph, frame: EgoFrame,
                    ego_speed: float, dt: float) -> PedestrianState:
    """Advance the pedestrian phase machine: waiting until the approaching
    ego (whose center's lane projections frame holds) is within trigger
    distance, then crossing at walk speed to the end. Pedestrians never
    yield."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if ped.phase == "done":
        return ped
    if ped.phase == "waiting":
        entry = graph.lane(ped.lane).centerline.project(ped.path.points[0])
        dist = entry.s - frame[ped.lane].s
        if 0.0 < dist <= ped.trigger_distance and ego_speed > 0.2:
            return replace(ped, phase="crossing")
        return ped
    dist = ped.dist_along + ped.walk_speed * dt
    if dist >= ped.path.length:
        return replace(ped, phase="done", dist_along=ped.path.length)
    return replace(ped, dist_along=dist)
