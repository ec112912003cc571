"""The benchmark harness must find every function it traces."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    missing = []
    for name, module_name, path in _load_tracer().TARGETS:
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            # looked up in vars(), as the tracer does: inherited names miss
            obj = vars(obj).get(part) if obj is not None else None
        if not callable(obj):
            missing.append((name, module_name, path))
    assert not missing
