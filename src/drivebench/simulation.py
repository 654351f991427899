"""Deterministic fixed-step closed-loop engine: observation building,
trajectory tracking (pure pursuit + proportional speed), kinematic-bicycle
integration, agent stepping and event logging.

Simulated time advances exactly dt per tick; nothing in a trace depends on
wall-clock time. Collisions are recorded as events and never abort a run.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agents import (
    VEHICLE_LENGTH,
    VEHICLE_WIDTH,
    PedestrianState,
    Traffic,
    select_lead,
    step_pedestrian,
    step_vehicle_agent,
)
from .geometry import (
    EgoFrame,
    OrientedBox,
    Pose2D,
    box_columns,
    box_contacts,
    boxes_collide,
    pairwise_contacts,
    wrap_angle,
)
from .planners.base import (
    Observation,
    PedestrianObs,
    Trajectory,
    plan_with_fallback,
)
from .scenarios import ObstacleTable, ScenarioSpec

TRACE_SCHEMA_VERSION = "v1"


class MalformedTraceError(Exception):
    pass


DT = 0.1                     # s per tick
WHEELBASE = 3.1              # m
LOOKAHEAD_BASE = 4.0         # m
LOOKAHEAD_TIME = 0.5         # s
# 1/DT makes the proportional law reproduce the plan's own acceleration
# profile under per-tick replanning (plans restart at the current speed)
SPEED_GAIN = 10.0            # 1/s
PERCEPTION_RADIUS = 100.0    # m
MAX_STEER = 0.6              # rad
ACCEL_MIN = -8.0             # m/s^2
ACCEL_MAX = 4.0              # m/s^2


@dataclass(frozen=True)
class EgoState:
    pose: Pose2D
    speed: float
    accel: float = 0.0
    steering: float = 0.0

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError("ego speed must be >= 0")
        if abs(self.steering) > MAX_STEER + 1e-9:
            raise ValueError("steering outside bounds")

    @functools.cached_property  # a tick's contact check, then the next observation
    def box(self) -> OrientedBox:
        return OrientedBox(self.pose, VEHICLE_LENGTH, VEHICLE_WIDTH)


def kinematic_bicycle_step(state: EgoState, steer_cmd: float, accel_cmd: float,
                           dt: float) -> EgoState:
    """Kinematic bicycle with commands clamped to the state bounds; the
    stored acceleration is the realized dv/dt."""
    steer = min(max(steer_cmd, -MAX_STEER), MAX_STEER)
    accel = min(max(accel_cmd, ACCEL_MIN), ACCEL_MAX)
    v_new = max(0.0, state.speed + accel * dt)
    heading = wrap_angle(state.pose.heading
                         + (v_new / WHEELBASE) * math.tan(steer) * dt)
    x = state.pose.x + v_new * math.cos(heading) * dt
    y = state.pose.y + v_new * math.sin(heading) * dt
    realized = (v_new - state.speed) / dt
    return EgoState(pose=Pose2D(x, y, heading), speed=v_new, accel=realized,
                    steering=steer)


def track_trajectory(traj: Trajectory, ego: EgoState) -> tuple[float, float]:
    """Pure-pursuit steering toward the lookahead point plus proportional
    speed control against the reference speed one step ahead."""
    dists = np.hypot(traj.x - ego.pose.x, traj.y - ego.pose.y)
    if float(dists.max()) < 0.2 and float(traj.speed.max()) < 0.1:
        return 0.0, ACCEL_MIN  # degenerate reference: full brake
    lookahead = max(LOOKAHEAD_BASE, LOOKAHEAD_TIME * ego.speed)
    nearest = int(np.argmin(dists))
    ahead = np.nonzero(dists[nearest:] >= lookahead)[0]
    idx = nearest + int(ahead[0]) if len(ahead) else len(dists) - 1
    dx = float(traj.x[idx] - ego.pose.x)
    dy = float(traj.y[idx] - ego.pose.y)
    ld = math.hypot(dx, dy)
    v_ref = float(traj.sample(DT)[2])
    accel = SPEED_GAIN * (v_ref - ego.speed)
    if ld < 1e-6:
        return 0.0, accel
    alpha = wrap_angle(math.atan2(dy, dx) - ego.pose.heading)
    curvature = 2.0 * math.sin(alpha) / ld
    steer = math.atan(curvature * WHEELBASE)
    return steer, accel


@dataclass
class WorldState:
    ego: EgoState
    agents: Traffic
    pedestrians: list[PedestrianState]


def build_observation(world: WorldState, spec: ScenarioSpec,
                      obstacle_table: ObstacleTable, t: float) -> Observation:
    """Exact, noise-free snapshot of all actors within the perception
    radius; obstacle_table is the scenario's, built once by run_closed_loop."""
    ex, ey = world.ego.pose.x, world.ego.pose.y
    radius2 = PERCEPTION_RADIUS ** 2
    traffic = world.agents
    seen = [row for row, x, y in zip(zip(*vars(traffic).values()), traffic.x,
                                     traffic.y)
            if (x - ex) ** 2 + (y - ey) ** 2 <= radius2]
    agents = traffic if len(seen) == len(traffic) else Traffic.from_rows(seen)
    peds = tuple(
        PedestrianObs(position=p.position, velocity=p.velocity,
                      crossing=p.phase == "crossing")
        for p in world.pedestrians
        if (p.position[0] - ex) ** 2 + (p.position[1] - ey) ** 2 <= radius2)
    obstacles = tuple(
        o for o in spec.obstacles
        if (o.box.center.x - ex) ** 2 + (o.box.center.y - ey) ** 2 <= radius2)
    frame = EgoFrame(spec.graph, (ex, ey))
    ego_lane = min(spec.route.lane_sequence,
                   key=lambda lid: (abs(frame[lid].d), lid))
    obs = Observation(
        ego_box=world.ego.box, ego_speed=world.ego.speed,
        ego_accel=world.ego.accel, agents=agents, pedestrians=peds,
        obstacles=obstacles, graph=spec.graph, route=spec.route, time=t,
        ego_lane=ego_lane, obstacle_table=obstacle_table)
    obs.frame.update(frame)
    return obs


# ---------------------------------------------------------------------------
# trace model


@dataclass
class TickSnapshot:
    t: float
    ego: dict
    agents: list[dict]
    pedestrians: list[dict]
    plan: list[list[float]]  # downsampled (x, y) of the active plan


@dataclass
class SimTrace:
    scenario_type: str
    seed: int
    dt: float
    duration: float
    snapshots: list[TickSnapshot] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "version": TRACE_SCHEMA_VERSION,
            "scenario_type": self.scenario_type,
            "seed": self.seed,
            "dt": self.dt,
            "duration": self.duration,
            "snapshots": [{
                "t": s.t, "ego": s.ego, "agents": s.agents,
                "pedestrians": s.pedestrians, "plan": s.plan,
            } for s in self.snapshots],
            "events": self.events,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def load(cls, path) -> "SimTrace":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise MalformedTraceError(str(exc)) from exc
        if data.get("version") != TRACE_SCHEMA_VERSION:
            raise MalformedTraceError(
                f"unsupported trace version {data.get('version')!r}")
        trace = cls(scenario_type=data["scenario_type"], seed=data["seed"],
                    dt=data["dt"], duration=data["duration"],
                    events=data["events"])
        trace.snapshots = [TickSnapshot(
            t=s["t"], ego=s["ego"], agents=s["agents"],
            pedestrians=s["pedestrians"], plan=s["plan"]) for s in data["snapshots"]]
        return trace

    # convenience accessors used by the metric engine
    def ego_series(self):
        e = self.snapshots
        return {
            "t": np.array([s.t for s in e]),
            "x": np.array([s.ego["x"] for s in e]),
            "y": np.array([s.ego["y"] for s in e]),
            "heading": np.array([s.ego["heading"] for s in e]),
            "speed": np.array([s.ego["speed"] for s in e]),
            "accel": np.array([s.ego["accel"] for s in e]),
        }


def _traffic_snapshot(t: Traffic) -> list[dict]:
    return [{"lane": lane, "s": s, "speed": v, "x": x, "y": y, "heading": h,
             "length": length, "width": width, "policy": policy}
            for lane, s, v, _v0, policy, length, width, x, y, h
            in zip(*vars(t).values())]


def _ped_snapshot(p: PedestrianState) -> dict:
    x, y = p.position
    vx, vy = p.velocity
    return {"x": x, "y": y, "vx": vx, "vy": vy, "phase": p.phase}


def _snapshot(t: float, world: WorldState, plan: list) -> TickSnapshot:
    """The trace's record of the world at time t and of the active plan."""
    e = world.ego
    return TickSnapshot(
        t=t, ego={"x": e.pose.x, "y": e.pose.y, "heading": e.pose.heading,
                  "speed": e.speed, "accel": e.accel, "steering": e.steering},
        agents=_traffic_snapshot(world.agents),
        pedestrians=[_ped_snapshot(p) for p in world.pedestrians], plan=plan)


def _downsample_plan(traj: Trajectory) -> list[list[float]]:
    """(x, y) of the plan every 0.5 s, end included."""
    x, y, _ = traj.sample(np.arange(0.0, float(traj.t[-1]) + 1e-9, 0.5))
    return np.column_stack((x, y)).tolist()


# ---------------------------------------------------------------------------
# collision bookkeeping


def _classify_ego_fault(ego_prev: EgoState, ego_now: EgoState,
                        other_box: OrientedBox, spec: ScenarioSpec,
                        dt: float) -> bool:
    """At fault iff the ego's front half makes the contact or the ego is
    laterally moving into the other's lane at contact; being struck from
    behind while lane-keeping is not at fault."""
    if boxes_collide(ego_now.box.front_half(), other_box):
        return True
    lane_id = spec.graph.nearest_lane((ego_now.pose.x, ego_now.pose.y))
    line = spec.graph.lane(lane_id).centerline
    d_now = line.project((ego_now.pose.x, ego_now.pose.y)).d
    d_prev = line.project((ego_prev.pose.x, ego_prev.pose.y)).d
    lat_speed = (d_now - d_prev) / dt
    if abs(lat_speed) > 0.3:
        d_other = line.project((other_box.center.x, other_box.center.y)).d
        moving_toward_other = (d_other - d_now) * lat_speed > 0 or \
            abs(d_other - d_now) < VEHICLE_WIDTH
        if moving_toward_other:
            return True
    return False


def _ego_collisions(ego_box: OrientedBox, agents: np.ndarray,
                    obstacles: np.ndarray, pedestrians: list[PedestrianState],
                    spec: ScenarioSpec) -> list[tuple[str, OrientedBox]]:
    """Partner ids and boxes currently in contact with the ego: agents,
    then obstacles (both given as box columns), then pedestrians."""
    cols = np.concatenate((agents, obstacles, box_columns(
        [p.box() for p in pedestrians])), axis=1)
    [hits] = box_contacts(*box_columns([ego_box]), *cols)
    n_a, n_o = agents.shape[1], len(spec.obstacles)
    return [(f"agent{i}" if i < n_a
             else f"obstacle{i - n_a}:{spec.obstacles[i - n_a].kind}"
             if i < n_a + n_o else f"pedestrian{i - n_a - n_o}",
             OrientedBox(Pose2D(*cols[:3, i].tolist()), *cols[3:, i].tolist()))
            for i in hits.tolist()]


# ---------------------------------------------------------------------------
# main loop


def run_closed_loop(spec: ScenarioSpec, planner) -> SimTrace:
    """Run the full closed loop: per tick, observation -> plan -> tracking
    commands -> bicycle step -> agent/pedestrian stepping -> collision
    detection -> snapshot. Events record, never abort."""
    n_steps = int(round(spec.duration / DT))
    if abs(n_steps * DT - spec.duration) > 1e-9:
        raise ValueError("duration must be a multiple of DT")

    ego = EgoState(pose=spec.ego.pose, speed=spec.ego.speed)
    world = WorldState(ego, Traffic.spawn(spec.graph, spec.agents), [
        PedestrianState(p.path, p.walk_speed, p.trigger_distance, p.lane)
        for p in spec.pedestrians])
    table = ObstacleTable(spec.graph, spec.obstacles)
    obstacles = box_columns([o.box for o in spec.obstacles])

    trace = SimTrace(scenario_type=spec.type.value, seed=spec.seed,
                     dt=DT, duration=spec.duration)
    trace.snapshots.append(_snapshot(0.0, world, []))

    ongoing_ego_contacts: set[str] = set()
    ongoing_agent_contacts: set[tuple[int, int]] = set()

    for k in range(n_steps):
        t = k * DT
        obs = build_observation(world, spec, table, t)
        traj = plan_with_fallback(planner, obs, trace.events)
        steer_cmd, accel_cmd = track_trajectory(traj, world.ego)
        ego_prev = world.ego
        ego_now = kinematic_bicycle_step(world.ego, steer_cmd, accel_cmd, DT)

        # obs holds ego_prev's box and its lane projections
        leads = select_lead(world.agents, spec.graph, table.blocking_spans,
                            world.pedestrians, obs.ego_box, ego_prev.speed,
                            obs.frame)
        new_peds = [step_pedestrian(p, spec.graph, obs.frame, ego_prev.speed,
                                    DT) for p in world.pedestrians]
        world = WorldState(ego=ego_now, agents=step_vehicle_agent(
            world.agents, leads, spec.graph, DT), pedestrians=new_peds)
        t_next = (k + 1) * DT
        a = world.agents
        agents = np.array((a.x, a.y, a.heading, a.length, a.width))  # (5, N)

        contacts = _ego_collisions(ego_now.box, agents, obstacles,
                                   world.pedestrians, spec)
        for partner, box in contacts:
            if partner not in ongoing_ego_contacts:
                at_fault = _classify_ego_fault(ego_prev, ego_now, box, spec, DT)
                trace.events.append({
                    "kind": "collision", "time": t_next, "partner": partner,
                    "at_fault": bool(at_fault)})
        ongoing_ego_contacts = {partner for partner, _box in contacts}

        agent_pairs = pairwise_contacts(agents)
        for i, j in agent_pairs:
            if (i, j) not in ongoing_agent_contacts:
                trace.events.append({
                    "kind": "agent_collision", "time": t_next,
                    "agents": [i, j]})
        ongoing_agent_contacts = set(agent_pairs)

        drain = getattr(planner, "drain_events", None)
        if drain is not None:
            for event in drain():
                event.setdefault("time", t)
                trace.events.append(event)

        trace.snapshots.append(_snapshot(t_next, world, _downsample_plan(traj)))

    return trace
