"""Deterministic fixed-step closed-loop engine: observation building,
trajectory tracking (pure pursuit + proportional speed), kinematic-bicycle
integration, agent stepping and event logging.

Simulated time advances exactly dt per tick; nothing in a trace depends on
wall-clock time. Collisions are recorded as events and never abort a run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .agents import (
    VEHICLE_LENGTH,
    VEHICLE_WIDTH,
    AgentState,
    IdmParams,
    PedestrianState,
    make_agent,
    select_lead,
    step_pedestrian,
    step_vehicle_agent,
)
from .geometry import OrientedBox, Pose2D, box_contacts, boxes_collide, wrap_angle
from .planners.base import (
    AgentObs,
    Observation,
    PedestrianObs,
    Trajectory,
    plan_with_fallback,
)
from .scenarios import ScenarioSpec, blocking_spans

TRACE_SCHEMA_VERSION = "v1"


class MalformedTraceError(Exception):
    pass


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.1
    duration: Optional[float] = None   # None: take the scenario's duration
    wheelbase: float = 3.1
    lookahead_base: float = 4.0        # m
    lookahead_time: float = 0.5        # s
    # 1/dt makes the proportional law reproduce the plan's own acceleration
    # profile under per-tick replanning (plans restart at the current speed)
    speed_gain: float = 10.0           # 1/s
    perception_radius: float = 100.0
    max_steer: float = 0.6             # rad
    accel_min: float = -8.0
    accel_max: float = 4.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class EgoState:
    pose: Pose2D
    speed: float
    accel: float = 0.0
    steering: float = 0.0

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError("ego speed must be >= 0")
        if abs(self.steering) > 0.6 + 1e-9:
            raise ValueError("steering outside bounds")

    @property
    def box(self) -> OrientedBox:
        return OrientedBox(self.pose, VEHICLE_LENGTH, VEHICLE_WIDTH)


def kinematic_bicycle_step(state: EgoState, steer_cmd: float, accel_cmd: float,
                           cfg: SimConfig, dt: float) -> EgoState:
    """Kinematic bicycle with commands clamped to the state bounds; the
    stored acceleration is the realized dv/dt."""
    steer = min(max(steer_cmd, -cfg.max_steer), cfg.max_steer)
    accel = min(max(accel_cmd, cfg.accel_min), cfg.accel_max)
    v_new = max(0.0, state.speed + accel * dt)
    heading = wrap_angle(state.pose.heading
                         + (v_new / cfg.wheelbase) * math.tan(steer) * dt)
    x = state.pose.x + v_new * math.cos(heading) * dt
    y = state.pose.y + v_new * math.sin(heading) * dt
    realized = (v_new - state.speed) / dt
    return EgoState(pose=Pose2D(x, y, heading), speed=v_new, accel=realized,
                    steering=steer)


def track_trajectory(traj: Trajectory, ego: EgoState, cfg: SimConfig
                     ) -> tuple[float, float]:
    """Pure-pursuit steering toward the lookahead point plus proportional
    speed control against the reference speed one step ahead."""
    dists = np.hypot(traj.x - ego.pose.x, traj.y - ego.pose.y)
    if float(dists.max()) < 0.2 and float(traj.speed.max()) < 0.1:
        return 0.0, cfg.accel_min  # degenerate reference: full brake
    lookahead = max(cfg.lookahead_base, cfg.lookahead_time * ego.speed)
    nearest = int(np.argmin(dists))
    ahead = np.nonzero(dists[nearest:] >= lookahead)[0]
    idx = nearest + int(ahead[0]) if len(ahead) else len(dists) - 1
    dx = float(traj.x[idx] - ego.pose.x)
    dy = float(traj.y[idx] - ego.pose.y)
    ld = math.hypot(dx, dy)
    _, _, _, v_ref = traj.sample_at(cfg.dt)
    accel = cfg.speed_gain * (v_ref - ego.speed)
    if ld < 1e-6:
        return 0.0, accel
    alpha = wrap_angle(math.atan2(dy, dx) - ego.pose.heading)
    curvature = 2.0 * math.sin(alpha) / ld
    steer = math.atan(curvature * cfg.wheelbase)
    return steer, accel


@dataclass
class WorldState:
    ego: EgoState
    agents: list[AgentState]
    pedestrians: list[PedestrianState]


def build_observation(world: WorldState, spec: ScenarioSpec, blockers: dict,
                      t: float, cfg: SimConfig) -> Observation:
    """Exact, noise-free snapshot of all actors within the perception
    radius."""
    ex, ey = world.ego.pose.x, world.ego.pose.y
    radius2 = cfg.perception_radius ** 2
    agents = tuple(
        AgentObs(box=a.box, speed=a.speed, lane=a.lane)
        for a in world.agents
        if (a.box.center.x - ex) ** 2 + (a.box.center.y - ey) ** 2 <= radius2)
    peds = tuple(
        PedestrianObs(position=p.position, velocity=p.velocity,
                      crossing=p.phase == "crossing")
        for p in world.pedestrians
        if (p.position[0] - ex) ** 2 + (p.position[1] - ey) ** 2 <= radius2)
    obstacles = tuple(
        o for o in spec.obstacles
        if (o.box.center.x - ex) ** 2 + (o.box.center.y - ey) ** 2 <= radius2)
    ego_lane = min(
        spec.route.lane_sequence,
        key=lambda lid: (abs(spec.graph.lane(lid).centerline.project((ex, ey)).d),
                         lid))
    return Observation(
        ego_box=world.ego.box, ego_speed=world.ego.speed,
        ego_accel=world.ego.accel, agents=agents, pedestrians=peds,
        obstacles=obstacles, graph=spec.graph, route=spec.route, time=t,
        ego_lane=ego_lane, lane_blockers=blockers)


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

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

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


def _ego_snapshot(ego: EgoState) -> dict:
    return {"x": ego.pose.x, "y": ego.pose.y, "heading": ego.pose.heading,
            "speed": ego.speed, "accel": ego.accel, "steering": ego.steering}


def _agent_snapshot(a: AgentState) -> dict:
    return {"lane": a.lane, "s": a.s, "speed": a.speed,
            "x": a.box.center.x, "y": a.box.center.y,
            "heading": a.box.center.heading,
            "length": a.length, "width": a.width, "policy": a.policy}


def _ped_snapshot(p: PedestrianState) -> dict:
    x, y = p.position
    vx, vy = p.velocity
    return {"x": x, "y": y, "vx": vx, "vy": vy, "phase": p.phase}


def _downsample_plan(traj: Trajectory, every: float = 0.5) -> list[list[float]]:
    out = []
    t = 0.0
    while t <= float(traj.t[-1]) + 1e-9:
        x, y, _, _ = traj.sample_at(t)
        out.append([x, y])
        t += every
    return out


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


def _box_columns(boxes: list[OrientedBox]) -> np.ndarray:
    """(x, y, heading, length, width) rows, one column per box: (5, N)."""
    return np.array([(b.center.x, b.center.y, b.center.heading, b.length,
                      b.width) for b in boxes], dtype=float).reshape(-1, 5).T


def _ego_collisions(ego_box: OrientedBox, world: WorldState,
                    spec: ScenarioSpec) -> list[tuple[str, OrientedBox]]:
    """Partner ids and boxes currently in contact with the ego: agents,
    then obstacles, then pedestrians."""
    partners = ([(f"agent{i}", a.box) for i, a in enumerate(world.agents)]
                + [(f"obstacle{j}:{o.kind}", o.box)
                   for j, o in enumerate(spec.obstacles)]
                + [(f"pedestrian{k}", p.box())
                   for k, p in enumerate(world.pedestrians)])
    [hits] = box_contacts(*_box_columns([ego_box]),
                          *_box_columns([box for _, box in partners]))
    return [partners[i] for i in hits]


def _agent_agent_collisions(agents: list[AgentState]) -> list[tuple[int, int]]:
    """Agent pairs (i, j), i < j, in contact, in row-major order."""
    if len(agents) < 2:
        return []
    i, j = np.triu_indices(len(agents), 1)
    cols = _box_columns([a.box for a in agents])
    [hits] = box_contacts(*cols[:, i], *cols[:, j])
    return list(zip(i[hits].tolist(), j[hits].tolist()))


# ---------------------------------------------------------------------------
# main loop


def run_closed_loop(spec: ScenarioSpec, planner, cfg: SimConfig = SimConfig()
                    ) -> SimTrace:
    """Run the full closed loop: per tick, observation -> plan -> tracking
    commands -> bicycle step -> agent/pedestrian stepping -> collision
    detection -> snapshot. Events record, never abort."""
    duration = cfg.duration if cfg.duration is not None else spec.duration
    n_steps = int(round(duration / cfg.dt))
    if abs(n_steps * cfg.dt - duration) > 1e-9:
        raise ValueError("duration must be a multiple of dt")

    ego = EgoState(pose=spec.ego.pose, speed=spec.ego.speed)
    agents = [
        make_agent(spec.graph, a.lane, a.s, a.speed, policy=a.policy,
                   params=IdmParams(v0=spec.graph.lane(a.lane).speed_limit),
                   length=a.length, width=a.width)
        for a in spec.agents
    ]
    pedestrians = [
        PedestrianState(path=p.path, walk_speed=p.walk_speed,
                        trigger_distance=p.trigger_distance, lane=p.lane)
        for p in spec.pedestrians
    ]
    world = WorldState(ego=ego, agents=agents, pedestrians=pedestrians)
    blockers = blocking_spans(spec)

    trace = SimTrace(scenario_type=spec.type.value, seed=spec.seed,
                     dt=cfg.dt, duration=duration)
    trace.snapshots.append(TickSnapshot(
        t=0.0, ego=_ego_snapshot(ego),
        agents=[_agent_snapshot(a) for a in world.agents],
        pedestrians=[_ped_snapshot(p) for p in world.pedestrians],
        plan=[]))

    ongoing_ego_contacts: set[str] = set()
    ongoing_agent_contacts: set[tuple[int, int]] = set()

    for k in range(n_steps):
        t = k * cfg.dt
        obs = build_observation(world, spec, blockers, t, cfg)
        traj = plan_with_fallback(planner, obs)
        steer_cmd, accel_cmd = track_trajectory(traj, world.ego, cfg)
        ego_prev = world.ego
        ego_now = kinematic_bicycle_step(world.ego, steer_cmd, accel_cmd,
                                         cfg, cfg.dt)

        leads = select_lead(world.agents, spec.graph, blockers,
                            world.pedestrians, ego_prev.box, ego_prev.speed)
        new_agents = [
            step_vehicle_agent(a, lead, spec.graph, cfg.dt)
            for a, lead in zip(world.agents, leads)
        ]
        new_peds = [
            step_pedestrian(p, spec.graph, ego_prev.pose, ego_prev.speed, cfg.dt)
            for p in world.pedestrians
        ]
        world = WorldState(ego=ego_now, agents=new_agents, pedestrians=new_peds)
        t_next = (k + 1) * cfg.dt

        contacts = _ego_collisions(ego_now.box, world, spec)
        current_ids = set()
        for partner, box in contacts:
            current_ids.add(partner)
            if partner not in ongoing_ego_contacts:
                at_fault = _classify_ego_fault(ego_prev, ego_now, box, spec,
                                               cfg.dt)
                trace.events.append({
                    "kind": "collision", "time": t_next, "partner": partner,
                    "at_fault": bool(at_fault)})
        ongoing_ego_contacts = current_ids

        agent_pairs = _agent_agent_collisions(world.agents)
        current_pairs = set(agent_pairs)
        for i, j in agent_pairs:
            if (i, j) not in ongoing_agent_contacts:
                trace.events.append({
                    "kind": "agent_collision", "time": t_next,
                    "agents": [i, j]})
        ongoing_agent_contacts = current_pairs

        drain = getattr(planner, "drain_events", None)
        if drain is not None:
            for event in drain():
                event.setdefault("time", t)
                trace.events.append(event)

        trace.snapshots.append(TickSnapshot(
            t=t_next, ego=_ego_snapshot(ego_now),
            agents=[_agent_snapshot(a) for a in world.agents],
            pedestrians=[_ped_snapshot(p) for p in world.pedestrians],
            plan=_downsample_plan(traj)))

    return trace
