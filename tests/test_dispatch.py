"""The golden traces do not depend on numpy's SIMD dispatch: a few golden
scenarios, run in subprocesses with numpy limited to AVX2 and to SSE4.2
targets, reproduce their committed trace hashes and score rows."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import _golden_lines

SRC = Path(__file__).resolve().parent.parent / "src"
SCENARIOS = (("sampler", "003_construction"), ("idm", "050_lane_change_ltd"),
             ("mobil", "055_lane_change_ltd"),
             ("hybrid-scripted", "011_accident"))

# prints "<planner> <scenario> <trace sha256> <score row>" per argument
SCRIPT = """
import hashlib, sys
from drivebench.metrics import (reference_progresses, score_scenario,
                                scores_to_csv)
from drivebench.planners import make_planner
from drivebench.scenarios import generate_benchmark_suite
from drivebench.simulation import run_closed_loop

suite = generate_benchmark_suite(2024)
for arg in sys.argv[1:]:
    planner, name = arg.split(":")
    spec = suite[int(name.split("_")[0])]
    trace = run_closed_loop(spec, make_planner(planner))
    digest = hashlib.sha256(trace.to_json().encode()).hexdigest()
    score = score_scenario(trace, spec,
                           ref_progress=reference_progresses([spec])[0])
    row = scores_to_csv([score]).splitlines()[1].split(",", 1)[1]
    print(planner, name, digest, row)
"""


def _has_avx512() -> bool:
    from numpy._core._multiarray_umath import __cpu_features__

    return bool(__cpu_features__.get("AVX512F"))


@pytest.mark.skipif(not _has_avx512(), reason="needs a host with AVX512")
@pytest.mark.parametrize("features", ["X86_V2 X86_V3", "X86_V2"])
def test_goldens_hold_under_narrower_dispatch(features):
    env = dict(os.environ, NPY_ENABLE_CPU_FEATURES=features,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT] + [f"{p}:{n}" for p, n in SCENARIOS],
        env=env, capture_output=True, text=True, check=True).stdout
    got = {(p, n): (digest, row) for p, n, digest, row in
           (line.split() for line in out.splitlines())}
    want = {}
    for planner, name in SCENARIOS:
        _, hashes = _golden_lines(f"{planner}.txt")
        _, scores = _golden_lines(f"{planner}-scores.csv")
        want[planner, name] = (dict(line.split() for line in hashes)[name],
                               dict(line.split(",", 1) for line in scores)[name])
    mismatched = [f"{p} {n}" for p, n in SCENARIOS if got[p, n] != want[p, n]]
    assert not mismatched, (
        f"under NPY_ENABLE_CPU_FEATURES={features!r}, these differ from "
        f"tests/golden/: {', '.join(mismatched)}")
