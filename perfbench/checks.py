"""Checks on the files one ``run_benchmark`` call wrote.

Every expected value is computed here from the paper's definitions or is a
property the method must have; none is a copy of an earlier run's output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

WEIGHTS = {"progress": 5.0, "ttc": 5.0, "speed_compliance": 4.0, "comfort": 2.0}
LANE_CHANGE_WEIGHT = 5.0   # lane-change completion, lane-change families only
LANE_CHANGE_FAMILIES = {"lane_change_ltd", "lane_change_mtd", "lane_change_htd"}
COMPONENTS = tuple(WEIGHTS) + ("lane_change_completion",)
GATES = ("collision", "drivable", "direction", "stationary", "min_progress")
GATE_VALUES = {0.0, 0.5, 1.0}
# IDM only follows its lane, so it never passes a blocking obstacle (paper)
IDM_BLOCKED_FAMILIES = {"construction", "accident", "overtake"}

DT = 0.1
TICKS = 150
ACCEL_MIN, ACCEL_MAX = -8.0, 4.0          # SimConfig bounds
CSV_TOL = 2e-6                            # scores.csv carries 6 decimals
STEP_TOL = 1e-9                           # metres, kinematic-bicycle update


@dataclass
class RoundCheck:
    scenarios: int = 0
    ticks: int = 0
    problems: dict = field(default_factory=dict)   # scenario -> reasons
    digest: str = ""

    def fail(self, scenario: str, reason: str) -> None:
        self.problems.setdefault(scenario, []).append(reason)


def trace_problems(trace: dict) -> list[str]:
    """Properties every trace of the simulator must have."""
    snaps = trace["snapshots"]
    if len(snaps) != TICKS + 1:
        return [f"{len(snaps)} snapshots, expected {TICKS + 1}"]
    out = []
    prev = None
    for k, snap in enumerate(snaps):
        ego = snap["ego"]
        if abs(snap["t"] - k * DT) > 1e-9:
            out.append(f"snapshot {k} at t={snap['t']}")
        if ego["speed"] < 0:
            out.append(f"tick {k}: ego speed {ego['speed']}")
        if any(a["speed"] < 0 for a in snap["agents"]):
            out.append(f"tick {k}: negative agent speed")
        if prev is not None:
            accel = (ego["speed"] - prev["speed"]) / DT
            if not ACCEL_MIN - 1e-6 <= accel <= ACCEL_MAX + 1e-6:
                out.append(f"tick {k}: realized accel {accel}")
            step = ego["speed"] * DT
            ex = prev["x"] + step * math.cos(ego["heading"])
            ey = prev["y"] + step * math.sin(ego["heading"])
            if abs(ego["x"] - ex) > STEP_TOL or abs(ego["y"] - ey) > STEP_TOL:
                out.append(f"tick {k}: ego step off the bicycle update")
        prev = ego
    return out[:5]


def score_problems(row: dict, planner: str) -> list[str]:
    """Range, gate and aggregation checks on one scores.csv row, plus the
    paper's planner properties."""
    family = row["scenario_type"]
    comp = {k: float(row[k]) for k in COMPONENTS}
    gates = {k: float(row[k]) for k in GATES}
    final = float(row["final"])
    out = [f"{k}={v} outside [0, 1]" for k, v in comp.items() if not 0 <= v <= 1]
    out += [f"gate {k}={v}" for k, v in gates.items() if v not in GATE_VALUES]
    weighted = [(w, comp[k]) for k, w in WEIGHTS.items()]
    if family in LANE_CHANGE_FAMILIES:
        weighted.append((LANE_CHANGE_WEIGHT, comp["lane_change_completion"]))
    expected = (sum(w * v for w, v in weighted) / sum(w for w, _ in weighted)
                * math.prod(gates.values()))
    if abs(expected - final) > CSV_TOL:
        out.append(f"final {final} != recomputed {expected:.6f}")
    if planner == "idm" and family in IDM_BLOCKED_FAMILIES and (
            final != 0 or gates["min_progress"] != 0):
        out.append(f"idm passed a blocked lane: final {final}")
    if planner == "hybrid-scripted" and family == "construction" \
            and gates["min_progress"] != 1:
        out.append("hybrid did not clear the cone row")
    return out


def check_round(out: Path, planner: str) -> RoundCheck:
    with open(out / "scores.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    hash_lines = (out / "trace_hashes.txt").read_text(encoding="utf-8").split()
    hashes = list(zip(hash_lines[::2], hash_lines[1::2]))
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    result = RoundCheck(scenarios=len(rows))
    if len(hashes) != len(rows):
        result.fail("round", f"{len(hashes)} trace hashes for {len(rows)} scores")

    identities = []
    for row, (name, digest) in zip(rows, hashes):
        for reason in score_problems(row, planner):
            result.fail(name, reason)
        data = (out / "traces" / f"{name}.json").read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            result.fail(name, "trace_hashes.txt does not match the trace file")
        trace = json.loads(data)
        if not name.endswith(trace["scenario_type"]) \
                or trace["scenario_type"] != row["scenario_type"]:
            result.fail(name, "trace, score and file name disagree on family")
        for reason in trace_problems(trace):
            result.fail(name, reason)
        if not (out / "scenarios" / f"{name}.json").is_file():
            result.fail(name, "scenario file missing")
        result.ticks += len(trace["snapshots"]) - 1
        identities.append(f"{trace['scenario_type']}:{trace['seed']} {digest}")

    finals = [float(r["final"]) for r in rows]
    families = {r["scenario_type"] for r in rows}
    if abs(report["overall"] - statistics.fmean(finals)) > CSV_TOL:
        result.fail("round", "report overall is not the mean of the finals")
    if set(report["per_type"]) != families or report["n_scenarios"] != len(rows):
        result.fail("round", "report families or count differ from scores.csv")
    for fam in families & set(report["per_type"]):
        mean = statistics.fmean(float(r["final"]) for r in rows
                                if r["scenario_type"] == fam)
        if abs(report["per_type"][fam] - mean) > CSV_TOL:
            result.fail("round", f"report {fam} is not the mean of its finals")
    if planner == "idm" and families & LANE_CHANGE_FAMILIES \
            and report["goal_sub"] != 0:
        result.fail("round", f"idm lane-change goal sub-score {report['goal_sub']}")

    # names carry the position in this round; the digest must not
    result.digest = hashlib.sha256(
        "\n".join(sorted(identities)).encode()).hexdigest()
    return result
