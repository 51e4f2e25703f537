"""The benchmark's declared layer metrics name functions that exist, and
its jobs reproduce their recorded outputs."""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from cubic7 import cli

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


@pytest.mark.parametrize("index", [0, 7])
def test_workload_outputs_match_records(index, monkeypatch, capsys):
    # The benchmark's own jobs (P up to 128, qmax 400) at input set 0 and at
    # the held-out set 7, run in process and checked against bench/refs/ by
    # the runner's own rule.
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    # run.py defines dataclasses, which look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    monkeypatch.chdir(ROOT)
    for name in run.WORKLOADS:
        refs = json.loads(run.refs_path(name).read_text(encoding="utf-8"))[str(index)]
        assert [r["args"] for r in refs] == run.workload_inputs(name, index)[2], name
        for ref in refs:
            assert cli.main(ref["args"]) == 0, ref["args"]
            assert run.matches(ref["payload"], json.loads(capsys.readouterr().out)), ref["args"]
