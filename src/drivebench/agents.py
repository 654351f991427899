"""Closed-loop background actors: IDM longitudinal control, the
conservative/assertive lead-perception rules, and triggered pedestrians.

Agents are lane-keepers: they follow their lane centerline, never change
lanes, and brake for whatever `select_lead` reports ahead of them: the
lane-keeper rule of `lane_keeper_obstructions`, which the stationary gate
of the metric engine shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import LaneGraph, OrientedBox, Polyline, Pose2D, wrap_angle

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
    speeds, n + 1 samples each."""
    sk, vk = 0.0, v_start if v_start > 0.0 else 0.0
    gap0 = gap0 if gap0 > 0.01 else 0.01
    v_lead = v_lead if v_lead > 0.0 else 0.0
    s, v = [sk], [vk]
    for k in range(n):
        gap = gap0 + v_lead * k * dt - sk
        vk += idm_acceleration(vk, v_lead, gap if gap > 0.01 else 0.01, v0,
                               floor) * dt
        if not vk > 0.0:
            vk = 0.0
        sk += vk * dt
        s.append(sk)
        v.append(vk)
    return s, v


def equilibrium_speed(gap: float, v0: float) -> float:
    """Speed at which idm_acceleration is zero for the given steady gap
    (same-speed lead); 0 when the gap is at or below the jam distance."""
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
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class AgentState:
    lane: str
    s: float                 # arc position of the box center along the lane
    speed: float
    policy: str              # "conservative" | "assertive"
    v0: float                # IDM desired speed: the spawn lane's limit
    box: OrientedBox
    length: float = VEHICLE_LENGTH
    width: float = VEHICLE_WIDTH

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError("agent speed must be >= 0")
        if self.policy not in ("conservative", "assertive"):
            raise ValueError(f"unknown policy {self.policy!r}")


def lane_pose(graph: LaneGraph, lane_id: str, s: float, d: float = 0.0) -> Pose2D:
    """Pose at (s, d) on a lane, extended along the end tangents past the ends."""
    line = graph.lane(lane_id).centerline
    if 0.0 <= s <= line.length:
        return line.interpolate_frenet(s, d)
    if s > line.length:
        base_s, over = line.length, s - line.length
    else:
        base_s, over = 0.0, s
    h = line.tangent_at(base_s)
    p = line.interpolate_frenet(base_s, d)
    return Pose2D(p.x + over * math.cos(h), p.y + over * math.sin(h), h)


def make_agent(graph: LaneGraph, lane_id: str, s: float, speed: float,
               policy: str = "conservative", length: float = VEHICLE_LENGTH,
               width: float = VEHICLE_WIDTH) -> AgentState:
    pose = lane_pose(graph, lane_id, s)
    return AgentState(lane=lane_id, s=s, speed=speed, policy=policy,
                      v0=graph.lane(lane_id).speed_limit,
                      box=OrientedBox(pose, length, width), length=length, width=width)


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
        s = min(self.dist_along, self.path.length)
        p = self.path.interpolate_frenet(s, 0.0)
        return (p.x, p.y)

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


def lateral_half_extent(box: OrientedBox, lane_heading: float) -> float:
    """Half-extent of a box projected across a lane direction."""
    rel = wrap_angle(box.center.heading - lane_heading)
    return abs(math.sin(rel)) * box.length / 2.0 + abs(math.cos(rel)) * box.width / 2.0


def ego_counts_in_lane(ego_box: OrientedBox, lane_width: float,
                       d: float, lane_heading: float, policy: str) -> bool:
    """Lead-perception rule: conservative agents react to the ego as soon as
    its footprint overlaps the lane corridor; assertive agents only once it
    is fully merged (center in lane and |d| < lane_width / 4)."""
    if policy == "conservative":
        return abs(d) <= lane_width / 2.0 + lateral_half_extent(ego_box, lane_heading)
    return abs(d) < lane_width / 4.0


def lane_keeper_obstructions(graph: LaneGraph, lane_id: str,
                             agents: Iterable[tuple[str, float, float, float]],
                             lane_blockers: dict[str, list[tuple[float, float]]],
                             pedestrians: Iterable[tuple[float, float, str]],
                             ped_half: float) -> tuple[np.ndarray, np.ndarray]:
    """Everything a vehicle keeping lane `lane_id` brakes for, as (near-edge
    arc positions, speeds) along the lane, in this order:

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
    table = np.array(rows, dtype=float).reshape(-1, 2)
    return table[:, 0], table[:, 1]


def select_lead(agents: Sequence[AgentState], graph: LaneGraph,
                lane_blockers: dict[str, list[tuple[float, float]]],
                pedestrians: Sequence[PedestrianState],
                ego_box: Optional[OrientedBox], ego_speed: float
                ) -> list[Optional[tuple[float, float]]]:
    """Each agent's nearest entity ahead in its lane, as (lead speed, bumper
    gap), or None when nothing ahead has a positive gap.

    One lane_keeper_obstructions query per occupied lane serves all of its
    agents; a crossing pedestrian (a 0.6 m square) enters 0.3 m before its
    center. The ego, projected once per lane, counts per each agent's policy
    (ego_counts_in_lane) and ranks right after the lane's agents: on equal
    gaps the earlier of agents, ego, spans and pedestrians wins.
    """
    rows = [(a.lane, a.s, a.length, a.speed) for a in agents]
    peds = [(*p.position, p.phase) for p in pedestrians]
    by_lane: dict[str, list[int]] = {}
    for i, a in enumerate(agents):
        by_lane.setdefault(a.lane, []).append(i)
    leads: list[Optional[tuple[float, float]]] = [None] * len(agents)
    for lane_id, members in by_lane.items():
        lane = graph.lane(lane_id)
        near, speed = lane_keeper_obstructions(graph, lane_id, rows,
                                               lane_blockers, peds, ped_half=0.3)
        # an agent's own row has gap -length < 0, so it never leads itself
        front = np.array([agents[i].s + agents[i].length / 2.0 for i in members])
        n = len(members)
        sees_ego = None
        if ego_box is not None:
            f = lane.centerline.project((ego_box.center.x, ego_box.center.y))
            heading = lane.centerline.tangent_at(f.s)
            rel = wrap_angle(ego_box.center.heading - heading)
            half = (abs(math.cos(rel)) * ego_box.length / 2.0
                    + abs(math.sin(rel)) * ego_box.width / 2.0)
            # the lane's n agents come first; the ego ranks right after them
            near = np.concatenate((near[:n], [f.s - half], near[n:]))
            speed = np.concatenate((speed[:n], [ego_speed], speed[n:]))
            sees_ego = [ego_counts_in_lane(ego_box, lane.width, f.d, heading,
                                           agents[i].policy) for i in members]
        gaps = near[None, :] - front[:, None]
        ahead = gaps > 0
        if sees_ego is not None:
            ahead[:, n] &= sees_ego
        first = np.where(ahead, gaps, np.inf).argmin(axis=1)
        for row, (i, j) in enumerate(zip(members, first)):
            if ahead[row, j]:
                leads[i] = (float(speed[j]), float(gaps[row, j]))
    return leads


def step_vehicle_agent(agent: AgentState, lead: Optional[tuple[float, float]],
                       graph: LaneGraph, dt: float) -> AgentState:
    """Advance one agent by dt: IDM acceleration against its lead (as
    select_lead gives it), then move along the lane centerline (following
    successors, never changing lane)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    v_lead, gap = (0.0, math.inf) if lead is None else lead
    [_, ds], [_, speed] = idm_profile(agent.speed, gap, v_lead, agent.v0, dt, 1)
    s = agent.s + ds
    lane_id = agent.lane
    line = graph.lane(lane_id).centerline
    while s > line.length:
        succ = sorted(graph.lane(lane_id).successors)
        if not succ:
            break
        s -= line.length
        lane_id = succ[0]
        line = graph.lane(lane_id).centerline
    pose = lane_pose(graph, lane_id, s)
    box = OrientedBox(pose, agent.length, agent.width)
    return AgentState(lane_id, s, speed, agent.policy, agent.v0, box,
                      agent.length, agent.width)


def step_pedestrian(ped: PedestrianState, graph: LaneGraph,
                    ego_pose: Pose2D, ego_speed: float, dt: float) -> PedestrianState:
    """Advance the pedestrian phase machine: waiting until the approaching
    ego is within trigger distance, then crossing at walk speed to the end.
    Pedestrians never yield."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if ped.phase == "done":
        return ped
    if ped.phase == "waiting":
        line = graph.lane(ped.lane).centerline
        entry = line.project(ped.path.points[0])
        ego_f = line.project((ego_pose.x, ego_pose.y))
        dist = entry.s - ego_f.s
        if 0.0 < dist <= ped.trigger_distance and ego_speed > 0.2:
            return replace(ped, phase="crossing")
        return ped
    dist = ped.dist_along + ped.walk_speed * dt
    if dist >= ped.path.length:
        return replace(ped, phase="done", dist_along=ped.path.length)
    return replace(ped, dist_along=dist)
