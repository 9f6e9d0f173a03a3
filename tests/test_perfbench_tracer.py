"""perfbench's tracer wraps causticlab functions by name: every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    # a deleted or renamed target would break `perfbench/run.py --trace 1` only when it runs
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for name, modname, attr, _ in tracer.TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in getattr(module, cls_name).__dict__, name
        else:
            assert callable(getattr(module, attr, None)), name
