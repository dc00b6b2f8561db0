"""Every span the benchmark's tracer wraps must name a function of qhamming.

``perfbench/worker.py`` skips a target it cannot find without a word, and
that layer's metrics then read 0; this test fails instead.
"""
import importlib
import importlib.util
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    for modname, attr, name in worker.TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, attr, None)), name
