"""The per-layer tracer of the benchmark finds every function it times."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_layers_resolve():
    # the tracer wraps its layers by name, so a renamed function would fail
    # only when a traced benchmark run starts
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for _, module, attr, _ in tracer.LAYERS:
        mod = importlib.import_module(module)
        cls_name, _, name = attr.rpartition(".")
        owner = getattr(mod, cls_name) if cls_name else mod
        assert callable(vars(owner).get(name)), f"{module}.{attr}"
