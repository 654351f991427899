import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_target_resolves():
    """Each function the benchmark's tracer wraps exists under its name, so
    a rename fails here rather than in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, target in tracer.TARGETS.items():
        mod_name, qual = target.split(":")
        owner = importlib.import_module(mod_name)
        for attr in qual.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{name} -> {target}")
    assert not missing, f"tracer targets not found: {missing}"
