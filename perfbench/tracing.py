"""Span tracing of bellmagic's public functions, installed from outside the package.

`install` wraps every public function of the modules in `layers.MODULES` and
rebinds each wrapper at every module-level name in the bellmagic package that
is bound to the original function, so calls through `from .x import f`
aliases are traced too.  Nothing under src/ is edited.

Spans live in memory as lists [layer, start_ns, end_ns, parent, unit, work,
bytes, error] and are written out once, when the traced pass ends.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

from layers import LAYERS, MODULES

SETUP_UNIT = -1  # unit id of spans recorded during warm-up


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.current = -1  # index of the open span, -1 at top level
        self.unit = SETUP_UNIT

    def wrap(self, layer: str, fn):
        spec = LAYERS.get(layer)
        work, nbytes = (spec.count, spec.nbytes) if spec else (None, None)
        spans, clock = self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            span = [layer, 0, 0, parent, self.unit, 0, 0, 0]
            self.current = len(spans)
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[7] = 1
                self.current = parent
                raise
            span[2] = clock()
            self.current = parent
            if work is not None:
                span[5] = work(args, kwargs, result)
            if nbytes is not None:
                span[6] = nbytes(args, kwargs, result)
            return result

        return traced

    def aggregate(self) -> dict[str, dict]:
        """Per-layer calls, self time, errors, work and bytes over the timed units."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[str, dict] = {}
        for i, (layer, start, end, _, unit, work, nbytes, error) in enumerate(self.spans):
            if unit == SETUP_UNIT:
                continue
            s = stats.setdefault(
                layer, {"calls": 0, "self_ns": 0, "errors": 0, "work": 0, "bytes": 0})
            s["calls"] += 1
            s["self_ns"] += end - start - child_ns[i]
            s["errors"] += error
            s["work"] += work
            s["bytes"] += nbytes
        return stats

    def write(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "unit", "work", "bytes", "error")
        with gzip.open(path, "wt") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every traced module and rebind every alias."""
    wrappers = {}
    for short in MODULES:
        mod = importlib.import_module(f"bellmagic.{short}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = tracer.wrap(f"{short}.{name}", obj)
    for modname, mod in list(sys.modules.items()):
        if modname != "bellmagic" and not modname.startswith("bellmagic."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
