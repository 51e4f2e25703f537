"""The benchmark's declared layer metrics name functions that exist."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_per_layer_names_resolve():
    # The tracer finds a layer function by its name and reports one that is
    # gone as 0, so a deleted or renamed function must fail here instead.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"].split(".") for m in declared["per_layer"]]
    checked = 0
    for layer, fn, *_ in (n for n in names if len(n) == 3 and n[0] in tracer.LAYERS):
        mod = importlib.import_module(f"cubic7.{layer}")
        obj = getattr(mod, fn, None)
        # The tracer's own rule for the functions it wraps.
        target = getattr(obj, "__wrapped__", obj)
        assert not fn.startswith("_") and inspect.isfunction(target), f"{layer}.{fn}"
        assert target.__module__ == mod.__name__, f"{layer}.{fn}"
        checked += 1
    assert checked == 19
