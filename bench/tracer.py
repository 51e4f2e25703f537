"""Run one cubic7 CLI job with the public layer functions wrapped in spans.

    python3 bench/tracer.py SPANS_PATH RUN_ID CLI_ARGS...

`src` must be on PYTHONPATH.  Every public function defined in the layer
modules below is replaced, in every `cubic7.*` namespace that binds it, by
a wrapper that records a span (name, start, end, parent span, work count).
The CLI then runs in this process through `cli.main`, so stdout and the
exit code are the CLI's own; spans, `cache_info()` deltas and the
arguments of each `density_ladder` call go to SPANS_PATH as JSON.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("forms", "lattice", "counting", "expsums", "density", "local")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [span id, name index, start, end, parent id, work]
        self.density_calls: list[dict] = []
        self.caches: dict[str, tuple] = {}  # name -> (function, info at install)
        self._local = threading.local()
        self._ids = itertools.count()

    def install(self) -> None:
        """Rebind every public layer function to its span-recording wrapper."""
        mods = {n: importlib.import_module("cubic7." + n) for n in LAYERS}
        # Work counts call these helpers unwrapped, so they add no spans.
        forms = mods["forms"]
        self._box_interval = forms.box_interval
        self._box_range = forms.box_range
        self._form_to_dict = forms.form_to_dict
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                fn = getattr(obj, "__wrapped__", obj)
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if hasattr(obj, "cache_info"):
                    self.caches[name] = (obj, obj.cache_info())
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "cubic7" and not modname.startswith("cubic7."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans = self.spans
        local = self._local
        ids = self._ids
        cache_info = getattr(fn, "cache_info", None)
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            misses = cache_info().misses if cache_info else 0
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                miss = cache_info is not None and cache_info().misses > misses
                work = self._work(name, sig, args, kwargs, result, miss)
                spans.append([span_id, index, t0, t1, parent, work])

        wrapper.__wrapped__ = fn
        return wrapper

    def _work(self, name, sig, args, kwargs, result, miss):
        """The work count of one call, for the layers that report one."""
        if name == "counting.value_histogram":
            if not miss:
                return 0
            b = sig.bind(*args, **kwargs).arguments
            lo, hi = self._box_interval(b["box"], b["P"])
            return (hi - lo + 1) ** 3
        if name == "expsums.mod_histogram":
            return sig.bind(*args, **kwargs).arguments["m"] ** 3 if miss else 0
        if name == "counting.count_representations":
            b = sig.bind(*args, **kwargs).arguments
            return len(self._box_range(b["form"].box, b["P"]))
        if name == "counting.union_space_count":
            return 2 ** len(sig.bind(*args, **kwargs).arguments["spaces"]) - 1
        if name == "density.density_ladder" and result is not None:
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            call = dict(b.arguments)
            call["form"] = self._form_to_dict(call["form"])
            call["result"] = result.to_dict()
            self.density_calls.append(call)
            return call["samples"]
        if name == "local.local_data" and result is not None:
            return result.modulus
        return 0

    def write(self, path: str, run_id: str) -> None:
        caches = {}
        for name, (fn, start) in self.caches.items():
            end = fn.cache_info()
            caches[name] = {"hits": end.hits - start.hits,
                            "misses": end.misses - start.misses}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id, "names": self.names,
                       "spans": self.spans, "caches": caches,
                       "density_calls": self.density_calls}, fh)


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from cubic7 import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(spans_path, run_id)


if __name__ == "__main__":
    sys.exit(main())
