"""Deterministic fixed-step closed-loop engine: observation building,
trajectory tracking (pure pursuit + proportional speed), kinematic-bicycle
integration, agent stepping and event logging.

Simulated time advances exactly dt per tick; nothing in a trace depends on
wall-clock time. Collisions are recorded as events and never abort a run.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import struct
from dataclasses import dataclass
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

    def same_bits(self, other: "WorldState") -> bool:
        """Whether other holds this world's values with every float's bits:
        == first, then the floats' bytes, because 0.0 == -0.0 while atan2
        or a sign test can tell them apart."""
        return self == other and _float_bytes(self) == _float_bytes(other)


def _float_bytes(world: WorldState) -> bytes:
    """The floats of the ego state, the traffic columns and the pedestrians."""
    e = world.ego
    values = itertools.chain(
        (e.pose.x, e.pose.y, e.pose.heading, e.speed, e.accel, e.steering),
        *vars(world.agents).values(),
        *(vars(p).values() for p in world.pedestrians))
    floats = [v for v in values if isinstance(v, float)]
    return struct.pack(f"{len(floats)}d", *floats)


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


EGO_FIELDS = ("x", "y", "heading", "speed", "accel", "steering")
AGENT_FIELDS = ("lane", "s", "speed", "x", "y", "heading", "length", "width",
                "policy")
PEDESTRIAN_FIELDS = ("x", "y", "vx", "vy", "phase")


def _table(rows: list, width: int, name: str) -> np.ndarray:
    """One field's T rows of width values as a (T, width) array: objects
    for the text fields, so that every str survives to_dict, else floats."""
    return np.array(rows, dtype=object if name in ("lane", "policy", "phase")
                    else float).reshape(len(rows), width)


@dataclass(eq=False)
class SimTrace:
    """A closed-loop run as columns over its T snapshots: the times t (T,);
    ego, each of EGO_FIELDS as a (T,) array; agents and pedestrians, each
    of AGENT_FIELDS and PEDESTRIAN_FIELDS as a (T, N) and a (T, P) array;
    plans, each snapshot's downsampled (x, y) plan; and the events.
    to_dict and from_dict are the only code that knows the v1 layout of
    one dict per snapshot, agent and pedestrian."""
    scenario_type: str
    seed: int
    dt: float
    duration: float
    t: np.ndarray
    ego: dict[str, np.ndarray]
    agents: dict[str, np.ndarray]
    pedestrians: dict[str, np.ndarray]
    plans: list[list[list[float]]]
    events: list[dict]

    def to_dict(self) -> dict:
        """The v1 layout, one .tolist() per column."""
        ego = zip(*(self.ego[k].tolist() for k in EGO_FIELDS))
        agents = zip(*(self.agents[k].tolist() for k in AGENT_FIELDS))
        peds = zip(*(self.pedestrians[k].tolist() for k in PEDESTRIAN_FIELDS))
        return {
            "version": TRACE_SCHEMA_VERSION,
            "scenario_type": self.scenario_type,
            "seed": self.seed,
            "dt": self.dt,
            "duration": self.duration,
            "snapshots": [{
                "t": t, "ego": dict(zip(EGO_FIELDS, e)),
                "agents": [dict(zip(AGENT_FIELDS, row)) for row in zip(*a)],
                "pedestrians": [dict(zip(PEDESTRIAN_FIELDS, row))
                                for row in zip(*p)],
                "plan": plan,
            } for t, e, a, p, plan in zip(self.t.tolist(), ego, agents, peds,
                                          self.plans)],
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimTrace":
        """The trace of a dict in the v1 layout. MalformedTraceError names
        a missing field, and rejects a snapshot whose count of agents or
        pedestrians differs from the first snapshot's."""
        if data.get("version") != TRACE_SCHEMA_VERSION:
            raise MalformedTraceError(
                f"unsupported trace version {data.get('version')!r}")
        try:
            snaps = data["snapshots"]
            counts = [(len(s["agents"]), len(s["pedestrians"])) for s in snaps]
            n, p = counts[0] if counts else (0, 0)
            for k, (n_k, p_k) in enumerate(counts):
                if (n_k, p_k) != (n, p):
                    raise MalformedTraceError(
                        f"snapshot {k} holds {n_k} agents and {p_k} "
                        f"pedestrians, snapshot 0 {n} and {p}")
            return cls(
                scenario_type=data["scenario_type"], seed=data["seed"],
                dt=data["dt"], duration=data["duration"],
                t=np.array([s["t"] for s in snaps], dtype=float),
                ego={k: np.array([s["ego"][k] for s in snaps], dtype=float)
                     for k in EGO_FIELDS},
                agents={k: _table([[a[k] for a in s["agents"]] for s in snaps],
                                  n, k) for k in AGENT_FIELDS},
                pedestrians={k: _table([[q[k] for q in s["pedestrians"]]
                                        for s in snaps], p, k)
                             for k in PEDESTRIAN_FIELDS},
                plans=[s["plan"] for s in snaps], events=data["events"])
        except KeyError as exc:
            raise MalformedTraceError(f"v1 trace without field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise MalformedTraceError(f"bad v1 trace field: {exc}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def load(cls, path) -> "SimTrace":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise MalformedTraceError(str(exc)) from exc
        return cls.from_dict(data)


def _record(spec: ScenarioSpec, worlds: list[WorldState],
            plans: list[list[list[float]]], events: list[dict]) -> SimTrace:
    """The trace of the world and the active plan at each snapshot, k * DT
    into the run: one np.array per field, each agent column straight from
    the Traffic lists."""
    ego = np.array([(e.pose.x, e.pose.y, e.pose.heading, e.speed, e.accel,
                     e.steering) for e in (w.ego for w in worlds)])
    n, p = len(worlds[0].agents), len(worlds[0].pedestrians)
    peds = [[(*q.position, *q.velocity, q.phase) for q in w.pedestrians]
            for w in worlds]
    return SimTrace(
        scenario_type=spec.type.value, seed=spec.seed, dt=DT,
        duration=spec.duration, t=np.arange(len(worlds)) * DT,
        ego=dict(zip(EGO_FIELDS, ego.T)),
        agents={k: _table([getattr(w.agents, k) for w in worlds], n, k)
                for k in AGENT_FIELDS},
        pedestrians={k: _table([[row[i] for row in tick] for tick in peds],
                               p, k) for i, k in enumerate(PEDESTRIAN_FIELDS)},
        plans=plans, events=events)


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
    detection -> snapshot. Events record, never abort.

    A planner whose class sets memoryless = True plans from the
    observation alone, not from its time or from earlier ticks. When a
    tick under such a planner appends no event and leaves the world as it
    found it, bit for bit, every later tick would repeat it: the same
    observation, plan and step, the same contacts and so no new event. The
    loop then records the remaining snapshots of that world and plan and
    stops."""
    n_steps = int(round(spec.duration / DT))
    if abs(n_steps * DT - spec.duration) > 1e-9:
        raise ValueError("duration must be a multiple of DT")

    ego = EgoState(pose=spec.ego.pose, speed=spec.ego.speed)
    world = WorldState(ego, Traffic.spawn(spec.graph, spec.agents), [
        PedestrianState(p.path, p.walk_speed, p.trigger_distance, p.lane)
        for p in spec.pedestrians])
    table = ObstacleTable(spec.graph, spec.obstacles)
    obstacles = box_columns([o.box for o in spec.obstacles])

    worlds, plans, events = [world], [[]], []

    ongoing_ego_contacts: set[str] = set()
    ongoing_agent_contacts: set[tuple[int, int]] = set()

    memoryless = getattr(planner, "memoryless", False)
    for k in range(n_steps):
        t = k * DT
        start, n_events = world, len(events)
        obs = build_observation(world, spec, table, t)
        traj = plan_with_fallback(planner, obs, events)
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
                events.append({
                    "kind": "collision", "time": t_next, "partner": partner,
                    "at_fault": bool(at_fault)})
        ongoing_ego_contacts = {partner for partner, _box in contacts}

        agent_pairs = pairwise_contacts(agents)
        for i, j in agent_pairs:
            if (i, j) not in ongoing_agent_contacts:
                events.append({
                    "kind": "agent_collision", "time": t_next,
                    "agents": [i, j]})
        ongoing_agent_contacts = set(agent_pairs)

        drain = getattr(planner, "drain_events", None)
        if drain is not None:
            for event in drain():
                event.setdefault("time", t)
                events.append(event)

        worlds.append(world)
        plans.append(_downsample_plan(traj))
        if (memoryless and len(events) == n_events
                and world.same_bits(start)):
            worlds += [world] * (n_steps - k - 1)
            plans += [plans[-1]] * (n_steps - k - 1)
            break

    return _record(spec, worlds, plans, events)
