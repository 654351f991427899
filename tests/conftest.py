"""Shared test oracles: brute-force geometric checks kept deliberately
independent of the library's fast paths."""

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from drivebench.geometry import OrientedBox, Pose2D


def trajectories_equal(a, b) -> bool:
    """Whether two trajectories hold equal t, x, y, heading and speed."""
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("t", "x", "y", "heading", "speed"))


def trace_hash(trace) -> str:
    """SHA-256 of a trace's JSON, as trace_hashes.txt records it."""
    return hashlib.sha256(trace.to_json().encode()).hexdigest()


def save_trace(trace, path) -> None:
    """Write a trace's JSON to path, as bench run writes traces."""
    Path(path).write_text(trace.to_json(), encoding="utf-8")


def point_in_box(points: np.ndarray, box: OrientedBox) -> np.ndarray:
    """Containment test in the box body frame, inclusive of the boundary."""
    c, s = math.cos(box.center.heading), math.sin(box.center.heading)
    rel = points - np.array([box.center.x, box.center.y])
    u = rel[:, 0] * c + rel[:, 1] * s
    v = -rel[:, 0] * s + rel[:, 1] * c
    return (np.abs(u) <= box.length / 2.0) & (np.abs(v) <= box.width / 2.0)


def box_sample_points(box: OrientedBox, interior_grid: int = 50,
                      edge_samples: int = 600) -> np.ndarray:
    """Corners, dense edge samples, and an interior grid for one box."""
    c, s = math.cos(box.center.heading), math.sin(box.center.heading)
    rot = np.array([[c, -s], [s, c]])
    hl, hw = box.length / 2.0, box.width / 2.0
    pts = [np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])]
    t = np.linspace(-1.0, 1.0, edge_samples)
    pts.append(np.column_stack([t * hl, np.full_like(t, hw)]))
    pts.append(np.column_stack([t * hl, np.full_like(t, -hw)]))
    pts.append(np.column_stack([np.full_like(t, hl), t * hw]))
    pts.append(np.column_stack([np.full_like(t, -hl), t * hw]))
    u = np.linspace(-1.0, 1.0, interior_grid)
    gx, gy = np.meshgrid(u * hl, u * hw)
    pts.append(np.column_stack([gx.ravel(), gy.ravel()]))
    local = np.vstack(pts)
    return local @ rot.T + np.array([box.center.x, box.center.y])


def boxes_overlap_sampled(a: OrientedBox, b: OrientedBox) -> bool:
    """Point-sampling collision oracle: any sampled point of one box
    contained in the other."""
    if point_in_box(box_sample_points(a), b).any():
        return True
    return bool(point_in_box(box_sample_points(b), a).any())


def boxes_collide_oracle(a: OrientedBox, b: OrientedBox) -> bool:
    """Reference: the former scalar geometry.boxes_collide, a circumcircle
    reject, then the separating-axis test over the 4 edge normals, one axis
    at a time. Touching boundaries count as collision."""
    dx = a.center.x - b.center.x
    dy = a.center.y - b.center.y
    r = (math.hypot(a.length, a.width) / 2.0
         + math.hypot(b.length, b.width) / 2.0)
    if dx * dx + dy * dy > r * r:
        return False
    ca = a.corners()
    cb = b.corners()
    for box in (a, b):
        h = box.center.heading
        for axis in ((math.cos(h), math.sin(h)), (-math.sin(h), math.cos(h))):
            pa = ca @ axis
            pb = cb @ axis
            if not (pa.min() <= pb.max() and pb.min() <= pa.max()):
                return False
    return True


def sat_margin(a: OrientedBox, b: OrientedBox) -> float:
    """Signed separation margin: positive = penetration depth, negative =
    clearance along the most separating axis."""
    ca, cb = a.corners(), b.corners()
    margin = math.inf
    for box in (a, b):
        h = box.center.heading
        for axis in ((math.cos(h), math.sin(h)), (-math.sin(h), math.cos(h))):
            pa = ca @ np.asarray(axis)
            pb = cb @ np.asarray(axis)
            overlap = min(pa.max(), pb.max()) - max(pa.min(), pb.min())
            margin = min(margin, overlap)
    return margin


def straight_offset_path_clear(graph, lane_id, boxes, d, s_lo, s_hi,
                               ego_length=4.6, ego_width=1.85, step=0.25):
    """Sweep an ego box along the lane at constant lateral offset d and
    report whether it stays collision-free."""
    line = graph.lane(lane_id).centerline
    s_lo = max(0.0, s_lo)
    s_hi = min(line.length, s_hi)
    s = s_lo
    while s <= s_hi:
        pose = Pose2D(*line.place(s, d))
        ego = OrientedBox(pose, ego_length, ego_width)
        if any(boxes_collide_oracle(ego, b) for b in boxes):
            return False
        s += step
    return True


def corridor_passable(graph, lane_id, boxes, d_values, s_lo, s_hi):
    """Whether any constant-offset straight-through path in d_values clears
    all the boxes over [s_lo, s_hi]."""
    return any(
        straight_offset_path_clear(graph, lane_id, boxes, d, s_lo, s_hi)
        for d in d_values
    )


def min_distance_to_polyline(point, pts: np.ndarray, samples: int = 20000):
    """Brute-force nearest distance and arc position via dense sampling."""
    seg = np.diff(pts, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate(([0.0], np.cumsum(seg_len)))
    ss = np.linspace(0.0, cum[-1], samples)
    idx = np.clip(np.searchsorted(cum, ss, side="right") - 1, 0, len(seg_len) - 1)
    t = ss - cum[idx]
    xy = pts[idx] + (t / seg_len[idx])[:, None] * seg[idx]
    d = np.hypot(xy[:, 0] - point[0], xy[:, 1] - point[1])
    k = int(np.argmin(d))
    return float(ss[k]), float(d[k])


# ---------------------------------------------------------------------------
# the two corner loops that ObstacleTable replaced


def box_lane_span_oracle(box, lane, band_half_width):
    """Reference: the former scenarios.box_lane_span, clamped projections
    of the corners; the arc span (s_near, s_far) over which the box
    intrudes the band around the centerline, or None."""
    fs = [lane.centerline.project(c) for c in box.corners()]
    d_lo = min(f.d for f in fs)
    d_hi = max(f.d for f in fs)
    if d_lo > band_half_width or d_hi < -band_half_width:
        return None
    return (min(f.s for f in fs), max(f.s for f in fs))


def blocking_spans_oracle(spec):
    """Reference: the former scenarios.blocking_spans, merged spans per
    lane of the obstacles inside the swept band."""
    from drivebench.agents import SWEPT_BAND_HALF_WIDTH
    from drivebench.scenarios import merge_spans

    spans = {}
    for o in spec.obstacles:
        for lane_id in sorted(spec.graph.segments):
            span = box_lane_span_oracle(o.box, spec.graph.lane(lane_id),
                                        SWEPT_BAND_HALF_WIDTH)
            if span is not None:
                spans.setdefault(lane_id, []).append(span)
    return {lane_id: merge_spans(items, 0.5) for lane_id, items in spans.items()}


def box_extent_oracle(line, box):
    """Reference: the former planners.base.box_extent, (s_lo, s_hi, d_lo,
    d_hi) of the corners projected with project_extended."""
    fs = [line.project_extended(c) for c in box.corners()]
    return (min(f.s for f in fs), max(f.s for f in fs),
            min(f.d for f in fs), max(f.d for f in fs))


# ---------------------------------------------------------------------------
# the contact kernels before the entity broadphase and the stack-free
# separating-axis test


def box_corners_batch_oracle(cx, cy, heading, length, width):
    """Reference: the former geometry._box_corners_batch, corners (..., 4,
    2) as center ± half-length vector ± half-width vector."""
    c, s = np.cos(heading), np.sin(heading)
    hl = np.asarray(length) / 2.0
    hw = np.asarray(width) / 2.0
    ex = np.stack([c * hl, s * hl], axis=-1)
    ey = np.stack([-s * hw, c * hw], axis=-1)
    center = np.stack([cx, cy], axis=-1)
    return np.stack([center + ex + ey, center - ex + ey,
                     center - ex - ey, center + ex - ey], axis=-2)


def boxes_collide_batch_oracle(cx_a, cy_a, h_a, len_a, wid_a,
                               cx_b, cy_b, h_b, len_b, wid_b):
    """Reference: the former geometry.boxes_collide_batch, projecting the
    corners onto the four axes with einsum."""
    ca = box_corners_batch_oracle(cx_a, cy_a, h_a, len_a, wid_a)
    cb = box_corners_batch_oracle(cx_b, cy_b, h_b, len_b, wid_b)
    axes = np.stack([
        np.stack([np.cos(h_a), np.sin(h_a)], axis=-1),
        np.stack([-np.sin(h_a), np.cos(h_a)], axis=-1),
        np.stack([np.cos(h_b), np.sin(h_b)], axis=-1),
        np.stack([-np.sin(h_b), np.cos(h_b)], axis=-1),
    ], axis=-2)
    pa = np.einsum("ncd,nad->nca", ca, axes)
    pb = np.einsum("ncd,nad->nca", cb, axes)
    lo_a, hi_a = pa.min(axis=1), pa.max(axis=1)
    lo_b, hi_b = pb.min(axis=1), pb.max(axis=1)
    return ((lo_a <= hi_b) & (lo_b <= hi_a)).all(axis=-1)


def box_contacts_oracle(x, y, h, length, width, qx, qy, qh, ql, qw):
    """Reference: the former geometry.box_contacts, the circumcircle test
    over the whole broadcast shape, then the einsum separating-axis test."""
    reach = np.hypot(length, width) / 2.0 + np.hypot(ql, qw) / 2.0
    near = np.nonzero((x - qx) ** 2 + (y - qy) ** 2 <= reach ** 2)
    if not len(near[0]):
        return near
    hits = boxes_collide_batch_oracle(*(a[near] for a in np.broadcast_arrays(
        x, y, h, length, width, qx, qy, qh, ql, qw)))
    return tuple(i[hits] for i in near)


# ---------------------------------------------------------------------------
# the per-pair and per-snapshot forms that the upper-triangle contact pass
# and project_many replaced


def agent_agent_collisions_oracle(boxes):
    """Reference: the former simulation._agent_agent_collisions, the
    triu_indices pairs through the former box_contacts, as (i, j) in
    row-major order."""
    if len(boxes) < 2:
        return []
    i, j = np.triu_indices(len(boxes), 1)
    cols = np.array([(b.center.x, b.center.y, b.center.heading, b.length,
                      b.width) for b in boxes], dtype=float).T
    [hits] = box_contacts_oracle(*cols[:, i], *cols[:, j])
    return list(zip(i[hits].tolist(), j[hits].tolist()))


def ego_track_oracle(trace, spec):
    """Reference: the former metrics.ego_track, one scalar project per lane
    per snapshot, as (lane, s, route_index)."""
    ids = sorted(spec.graph.segments)
    lines = [spec.graph.lane(lane_id).centerline for lane_id in ids]
    proj = [[line.project((snap.ego["x"], snap.ego["y"])) for line in lines]
            for snap in trace.snapshots]
    dist = np.array([[abs(f.d) for f in row] for row in proj]).reshape(-1, len(ids))
    nearest = dist.argmin(axis=1)
    route_cols = [ids.index(lane_id) for lane_id in spec.route.lane_sequence]
    return (tuple(ids[k] for k in nearest),
            tuple(row[k].s for row, k in zip(proj, nearest)),
            dist[:, route_cols].argmin(axis=1))


# ---------------------------------------------------------------------------
# the sampler's array rollout that the distinct-row rollout replaced


def sampler_rollout_oracle(v_now, gap0, v_lead, fractions, stop_mask, cap):
    """Reference: the former SamplingPlanner._rollout in its product form,
    all C candidates stepped at once as numpy arrays. gap0 (inf: no lead)
    and v_lead come clamped to >= 0.01 and >= 0, repeated per candidate."""
    from drivebench.agents import (EMERGENCY_DECEL, IDM_A_MAX, IDM_B_COMF,
                                   IDM_S0, IDM_T)
    from drivebench.planners.base import N_SAMPLES, STEP
    from drivebench.planners.sampling import STOP_DECEL

    C = len(gap0)
    v_target = np.where(stop_mask, 0.0,
                        np.nan_to_num(fractions) * (cap if cap > 0 else 0.0))
    v0_eff = np.maximum(v_target, 0.2)
    root = 2.0 * math.sqrt(IDM_A_MAX * IDM_B_COMF)
    s = np.zeros((C, N_SAMPLES))
    v = np.zeros((C, N_SAMPLES))
    v[:, 0] = max(0.0, v_now)
    has_lead = np.isfinite(gap0)
    stop = np.flatnonzero(stop_mask)
    ahead = gap0[:, None] + v_lead[:, None] * np.arange(N_SAMPLES - 1) * STEP
    for k in range(1, N_SAMPLES):
        vk = v[:, k - 1]
        r = vk / v0_eff
        r *= r
        a = IDM_A_MAX * (1.0 - r * r)
        np.maximum(a, -2.0 * IDM_B_COMF, out=a)
        if has_lead.any():
            gap = np.maximum(ahead[:, k - 1] - s[:, k - 1], 0.01)
            s_star = IDM_S0 + vk * IDM_T + vk * (vk - v_lead) / root
            np.maximum(s_star, IDM_S0, out=s_star)
            s_star /= gap
            np.subtract(a, IDM_A_MAX * (s_star * s_star), out=a,
                        where=has_lead)
        a[stop] = -STOP_DECEL
        np.minimum(np.maximum(a, EMERGENCY_DECEL, out=a), IDM_A_MAX, out=a)
        np.maximum(0.0, vk + a * STEP, out=v[:, k])
        np.add(s[:, k - 1], v[:, k] * STEP, out=s[:, k])
    return s, v


# ---------------------------------------------------------------------------
# the sampler's exhaustive evaluation that the certified one replaced


def sampler_evaluate_oracle(planner, obs, behavior=None):
    """Reference: the former SamplingPlanner.evaluate, which ran the safety
    checks on all 30 candidates. Returns every candidate checked, the
    selected index, its Trajectory and each candidate's cost at a TTC
    fraction of 0 (the bound). The cost weights are read from the sampling
    module at call time, so a patched weight applies here too."""
    from drivebench.geometry import wrap_angle
    from drivebench.planners import sampling as sp
    from drivebench.planners.base import (N_SAMPLES, STEP, Trajectory,
                                          lane_scene, nearest_lead,
                                          path_headings)

    behavior = behavior or planner.default_behavior(obs)
    lane = obs.graph.lane(behavior.centerline)
    line = lane.centerline
    limit = lane.speed_limit
    cap = (min(limit, behavior.target_speed_cap)
           if behavior.target_speed_cap > 0 else 0.0)
    scene = lane_scene(obs, behavior.centerline)
    s0, d0 = scene.ego.s, scene.ego.d
    v_now = obs.ego_speed
    tangent0 = line.tangent_at(min(max(s0, 0.0), line.length))
    slope0 = float(np.clip(math.tan(
        wrap_angle(obs.ego_box.center.heading - tangent0)), -0.6, 0.6))

    n_profiles = len(sp.SPEED_FRACTIONS) + 1
    C = len(sp.OFFSET_DELTAS) * n_profiles
    deltas = np.repeat(sp.OFFSET_DELTAS, n_profiles)
    fractions = np.tile(list(sp.SPEED_FRACTIONS) + [np.nan],
                        len(sp.OFFSET_DELTAS))
    stop_mask = np.isnan(fractions)
    offsets = behavior.lateral_offset + np.asarray(sp.OFFSET_DELTAS)
    targets = np.repeat(offsets, n_profiles)
    span = max(2.0 * max(v_now, 0.1), 10.0)
    front0 = s0 + sp.VEHICLE_LENGTH / 2.0
    lead_s, lead_v = nearest_lead(
        scene, front0, lambda s: sp.lateral_profile(
            d0, slope0, offsets, np.maximum(s - s0, 0.0), span))
    s_rel, v = sp.rollouts(v_now, lead_s - front0, lead_v, cap)
    s_abs = s0 + s_rel

    def paths(rows, n):
        d = sp.lateral_profile(d0, slope0, targets[rows], s_rel[rows, :n],
                               span)
        x, y, tangent = line.interpolate_many(s_abs[rows, :n], d)
        return d, x, y, path_headings(x, y, tangent)

    K = min(int(round(sp.EVAL_HORIZON / STEP)), N_SAMPLES - 1)
    d, x, y, heading = (a[:, :K + 1] for a in paths(
        slice(None), min(K + 2, N_SAMPLES)))
    world = planner._world_entities(obs)
    collided, off_area, ttc_frac = planner._safety(obs, world, x, y, heading,
                                                   d, v, K)
    progress = s_rel[:, -1].copy()
    prog_norm = progress / max(limit * (N_SAMPLES - 1) * STEP, 1e-6)
    accel = np.abs(np.diff(v[:, : K + 1], axis=1)) / STEP
    comfort = accel.mean(axis=1) / 4.0

    def cost(ttc):
        return (sp.TTC_WEIGHT * ttc + sp.OFFSET_WEIGHT * np.abs(deltas)
                + sp.COMFORT_WEIGHT * comfort
                - sp.PROGRESS_WEIGHT * prog_norm)

    total = cost(ttc_frac)
    candidates = [sp.Candidate(
        delta=float(deltas[ci]),
        fraction=None if stop_mask[ci] else float(fractions[ci]),
        target_offset=float(targets[ci]), s=s_abs[ci], v=v[ci],
        progress=float(progress[ci]), comfort=float(comfort[ci]),
        cost=float(total[ci]), checked=True, d=d[ci], x=x[ci], y=y[ci],
        heading=heading[ci], feasible=not (collided[ci] or off_area[ci]),
        collided=bool(collided[ci]), off_area=bool(off_area[ci]),
        ttc_fraction=float(ttc_frac[ci])) for ci in range(C)]
    best = sp.SamplingPlanner.select_index(candidates)
    _, bx, by, bh = paths(slice(best, best + 1), N_SAMPLES)
    return (candidates, best,
            Trajectory(np.arange(N_SAMPLES) * STEP, bx[0], by[0], bh[0],
                       v[best]),
            cost(0.0))


# ---------------------------------------------------------------------------
# the per-agent traffic path that the agent columns replaced


@dataclass(frozen=True)
class AgentState:
    """Reference: the former agents.AgentState, one object per agent."""
    lane: str
    s: float
    speed: float
    policy: str
    v0: float
    box: OrientedBox
    length: float = 4.6
    width: float = 1.85

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError("agent speed must be >= 0")
        if self.policy not in ("conservative", "assertive"):
            raise ValueError(f"unknown policy {self.policy!r}")


@dataclass(frozen=True)
class AgentObs:
    """Reference: the former planners.base.AgentObs, one perceived agent."""
    box: OrientedBox
    speed: float
    lane: str


def lane_pose_oracle(graph, lane_id, s, d=0.0):
    """Reference: the former agents.lane_pose, with the former
    Polyline.interpolate written out."""
    line = graph.lane(lane_id).centerline

    def interpolate(s, d):
        i = line._segment_index(s)
        t = s - line._cum[i]
        (px, py), (dx, dy) = line._xy[i], line._uv[i]
        return Pose2D(float((px + t * dx) - dy * d),
                      float((py + t * dy) + dx * d), line._headings[i])

    if 0.0 <= s <= line.length:
        return interpolate(s, d)
    if s > line.length:
        base_s, over = line.length, s - line.length
    else:
        base_s, over = 0.0, s
    h = line.tangent_at(base_s)
    p = interpolate(base_s, d)
    return Pose2D(p.x + over * math.cos(h), p.y + over * math.sin(h), h)


def make_agent(graph, lane_id, s, speed, policy="conservative", length=4.6,
               width=1.85):
    """Reference: the former agents.make_agent."""
    pose = lane_pose_oracle(graph, lane_id, s)
    return AgentState(lane=lane_id, s=s, speed=speed, policy=policy,
                      v0=graph.lane(lane_id).speed_limit,
                      box=OrientedBox(pose, length, width), length=length,
                      width=width)


def step_agent_oracle(agent, lead, graph, dt):
    """Reference: the former per-agent agents.step_vehicle_agent."""
    from drivebench.agents import idm_profile

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
    box = OrientedBox(lane_pose_oracle(graph, lane_id, s), agent.length,
                      agent.width)
    return AgentState(lane_id, s, speed, agent.policy, agent.v0, box,
                      agent.length, agent.width)


def select_lead_oracle(agents, graph, lane_blockers, pedestrians, ego_box,
                       ego_speed):
    """Reference: the former agents.select_lead over AgentState objects, one
    gap matrix per occupied lane and the ego projected per lane."""
    from drivebench.agents import ego_counts_in_lane, lane_keeper_obstructions
    from drivebench.geometry import wrap_angle

    rows = [(a.lane, a.s, a.length, a.speed) for a in agents]
    peds = [(*p.position, p.phase) for p in pedestrians]
    by_lane = {}
    for i, a in enumerate(agents):
        by_lane.setdefault(a.lane, []).append(i)
    leads = [None] * len(agents)
    for lane_id, members in by_lane.items():
        lane = graph.lane(lane_id)
        near, speed = np.array(lane_keeper_obstructions(
            graph, lane_id, rows, lane_blockers, peds, ped_half=0.3),
            dtype=float).reshape(-1, 2).T
        front = np.array([agents[i].s + agents[i].length / 2.0 for i in members])
        n = len(members)
        sees_ego = None
        if ego_box is not None:
            f = lane.centerline.project((ego_box.center.x, ego_box.center.y))
            heading = lane.centerline.tangent_at(f.s)
            rel = wrap_angle(ego_box.center.heading - heading)
            half = (abs(math.cos(rel)) * ego_box.length / 2.0
                    + abs(math.sin(rel)) * ego_box.width / 2.0)
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


def traffic_of(agents):
    """The agent columns of AgentState objects, or of AgentObs ones (which
    have no arc position, desired speed or policy: s 0, v0 their speed and
    conservative)."""
    from drivebench.agents import Traffic

    rows = [(a.lane, getattr(a, "s", 0.0), a.speed, getattr(a, "v0", a.speed),
             getattr(a, "policy", "conservative"), a.box.length, a.box.width,
             a.box.center.x, a.box.center.y, a.box.center.heading)
            for a in agents]
    return Traffic(*([list(col) for col in zip(*rows)]
                     or [[] for _ in range(10)]))


def agents_of(traffic):
    """The AgentState objects of agent columns."""
    return [AgentState(lane, s, v, policy, v0,
                       OrientedBox(Pose2D(x, y, h), length, width),
                       length, width)
            for lane, s, v, v0, policy, length, width, x, y, h
            in zip(*vars(traffic).values())]


def agent_obs(traffic):
    """The AgentObs objects of perceived agent columns."""
    return [AgentObs(a.box, a.speed, a.lane) for a in agents_of(traffic)]


# ---------------------------------------------------------------------------
# the forms that the shortcuts for a world at rest replaced


def idm_profile_oracle(v_start, gap0, v_lead, v0, dt, n, floor=None):
    """Reference: the former agents.idm_profile, which stepped every row
    through the law with its lead term, free flow included."""
    from drivebench.agents import EMERGENCY_DECEL, idm_acceleration

    floor = EMERGENCY_DECEL if floor is None else floor
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


def stop_profile_oracle(v_now):
    """Reference: the former sampling._stop_profile, which stepped every
    sample."""
    from drivebench.planners.base import N_SAMPLES, STEP
    from drivebench.planners.sampling import STOP_DECEL

    sk, vk = 0.0, v_now if v_now > 0.0 else 0.0
    s, v = [sk], [vk]
    for _ in range(N_SAMPLES - 1):
        vk -= STOP_DECEL * STEP
        if not vk > 0.0:
            vk = 0.0
        sk += vk * STEP
        s.append(sk)
        v.append(vk)
    return s, v


def equilibrium_speed_oracle(gap, v0):
    """Reference: the former agents.equilibrium_speed, 80 bisection steps
    whatever they changed."""
    from drivebench.agents import IDM_S0, IDM_T

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


def project_oracle(line, point):
    """Reference: the former Polyline.project, the per-segment arithmetic
    on numpy arrays for every line, as (s, d)."""
    p = np.asarray(point, dtype=float)
    starts = line.points[:-1]
    rel = p - starts
    t = np.einsum("ij,ij->i", rel, line._dirs)
    t = np.minimum(np.maximum(t, 0.0), line._seg_len)
    foot = starts + t[:, None] * line._dirs
    diff = p - foot
    dist = np.hypot(diff[:, 0], diff[:, 1])
    i = int(dist.argmin())
    s = float(line.cum_len[i] + t[i])
    cross = line._dirs[i, 0] * diff[i, 1] - line._dirs[i, 1] * diff[i, 0]
    return s, float(dist[i]) if cross >= 0 else -float(dist[i])
