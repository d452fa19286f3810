"""The benchmark tracer wraps only functions that exist in the package.

bench/tracer.py looks each name of its TRACED table up in its arcseq module;
a renamed or deleted function would otherwise surface only when the
benchmark itself runs.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"arcseq.{layer}.{name}"
        for layer, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"arcseq.{layer}"), name, None))
    ]
    assert tracer.TRACED
    assert missing == []
