"""The benchmark's span tracer wraps softact functions by name; every name
it lists must still exist, or ``bench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for layer in spans.LAYERS:
        module_name, func_name = layer.split(".")
        module = importlib.import_module(f"softact.{module_name}")
        assert callable(getattr(module, func_name, None)), layer
