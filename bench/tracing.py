"""Spans around the public functions of rzs, recorded from outside the package.

A Tracer wraps every public function of the layers zeta, bubble,
correspond and cli, and installs each wrapper under every name by which
rzs looks the function up: rzs.cli and rzs.correspond import functions by
name, so patching only the defining module would miss their calls.  Each
call records one span (name, start, end, parent span, operation id, and the
size of the result: zeros in a table, rows in a report).  Spans stay in
memory until the run ends.

    python3 bench/tracing.py SPANS_OUT ARGV...

runs rzs.cli.main(ARGV) in this process with the wrappers installed and
writes its spans to SPANS_OUT as JSON; run.py starts it for each traced
operation of a CLI workload.  This module imports only the standard
library, so the traced child loads nothing the untraced `python -m rzs`
would not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("zeta", "bubble", "correspond", "cli")


def _size(result) -> int:
    for attr in ("zeros", "rows"):
        items = getattr(result, attr, None)
        if isinstance(items, tuple):
            return len(items)
    return 0


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.current_op = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, sizes, stack = self.start, self.end, self.size, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            ends.append(0.0)
            sizes.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            sizes[idx] = _size(result)
            return result

        return traced

    def install(self) -> None:
        """Replace each public function of each layer at every lookup site."""
        import rzs

        modules = {layer: importlib.import_module(f"rzs.{layer}") for layer in LAYERS}
        namespaces = [rzs, *modules.values()]
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key in [k for k, v in vars(ns).items() if v is fn]:
                        self._patched.append((ns, key, fn))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "size": self.size.tolist(),
        }

    def absorb(self, dump: dict, op: int) -> None:
        """Append the spans of a traced child as operation op."""
        offset = len(self.start)
        ids = [self._id(name) for name in dump["names"]]
        self.name.extend(ids[i] for i in dump["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in dump["parent"])
        self.op.extend(op for _ in dump["name"])
        self.start.extend(dump["start"])
        self.end.extend(dump["end"])
        self.size.extend(dump["size"])


def self_times(parent, start, end) -> tuple[list[float], list[float]]:
    """Durations and self times: a span's duration minus its children's."""
    duration = [e - s for s, e in zip(start, end)]
    own = list(duration)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= duration[i]
    return duration, own


def summarize(tracer: Tracer, ops: set[int] | None = None) -> dict[str, dict]:
    """Per function name: calls, inclusive s, self_s and summed result size.

    ops restricts the totals to spans of those operation ids.
    """
    duration, own = self_times(tracer.parent, tracer.start, tracer.end)
    totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0}
              for name in tracer.names}
    for i, name_id in enumerate(tracer.name):
        if ops is not None and tracer.op[i] not in ops:
            continue
        entry = totals[tracer.names[name_id]]
        entry["calls"] += 1
        entry["s"] += duration[i]
        entry["self_s"] += own[i]
        entry["size"] += tracer.size[i]
    return totals


def _main(argv: list[str]) -> int:
    out_path, rzs_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import rzs.cli

    code = rzs.cli.main(rzs_argv)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
