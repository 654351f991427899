import importlib
import importlib.util
import sys
from pathlib import Path

from drivebench import metrics, simulation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """A perfbench module, loaded by file path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    """Each function the benchmark's tracer wraps exists under its name, so
    a rename fails here rather than in a traced benchmark run."""
    tracer = load("tracer")
    missing = []
    for name, target in tracer.TARGETS.items():
        mod_name, qual = target.split(":")
        owner = importlib.import_module(mod_name)
        for attr in qual.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{name} -> {target}")
    assert not missing, f"tracer targets not found: {missing}"


def test_checks_constants_match_the_program():
    """The benchmark's output checks recompute each final score and bound
    each realized acceleration with constants of their own; a constant that
    drifts from the program's fails here rather than as a benchmark round
    whose outputs read incorrect."""
    checks = load("checks")
    assert checks.WEIGHTS == {"progress": metrics.WEIGHT_PROGRESS,
                              "ttc": metrics.WEIGHT_TTC,
                              "speed_compliance": metrics.WEIGHT_SPEED,
                              "comfort": metrics.WEIGHT_COMFORT}
    assert checks.LANE_CHANGE_WEIGHT == metrics.WEIGHT_LANE_CHANGE
    assert (checks.DT, checks.ACCEL_MIN, checks.ACCEL_MAX) == \
        (simulation.DT, simulation.ACCEL_MIN, simulation.ACCEL_MAX)
