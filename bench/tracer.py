"""Layer tracer: spans around the public functions of each setopt module.

The wrappers are installed from outside the package and change nothing
under `src/`.  Because the package binds names with `from .x import y`,
one function can be reachable under several module namespaces; each
wrapper is therefore installed into every `setopt` module that binds the
function, and `MapModel.cloud_at` is wrapped on the class.

Spans (name, start, end, parent span, op id) are kept in flat arrays in
memory; self time is derived from the child spans afterwards.  The
tracer assumes one thread, which holds at the library's default
`SETOPT_THREADS`: the solver's worker threads call no wrapped function.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

PACKAGE = "setopt"
LAYERS = ("cone", "setrel", "problem", "scalarizer", "solver", "asymptotics",
          "diagnostics", "cli")


class LayerTracer:
    """Installs and removes span-recording wrappers; holds the spans.

    `hooks` maps a qualified name such as "solver.domination_matrix" to a
    callable run after each of its calls as hook(args, kwargs, result).
    Hook time falls inside the caller's span, so hooks must be cheap.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def targets(self) -> list[tuple[str, object, str, object]]:
        """(qualified name, owner, attribute, function) for every traced callable."""
        found = []
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in sorted(vars(module).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    found.append((f"{layer}.{attr}", module, attr, value))
        problem = sys.modules[f"{PACKAGE}.problem"]
        found.append(("problem.cloud_at", problem.MapModel, "cloud_at",
                      problem.MapModel.cloud_at))
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for qualname, owner, attr, fn in self.targets():
            wrapper = self._wrap(qualname, fn)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, name, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, qualname: str, fn):
        name_id = self.name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        hook = self.hooks.get(qualname)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.span_start)

    def summary(self) -> dict[str, dict]:
        """Per qualified name: calls, total_s and self_s over all spans.

        Self time is the span's duration minus the durations of its direct
        children.  Every traced name appears, with zeros if never called.
        """
        child = [0.0] * len(self.span_start)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for idx, name_id in enumerate(self.span_name):
            dur = self.span_end[idx] - self.span_start[idx]
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[idx]
        return out

    def calls_per_op(self, qualname: str) -> dict[int, int]:
        """Number of calls of one traced name in each op id."""
        counts: dict[int, int] = {}
        name_id = self.name_ids.get(qualname)
        for idx, nid in enumerate(self.span_name):
            if nid == name_id:
                op = self.span_op[idx]
                counts[op] = counts.get(op, 0) + 1
        return counts

    def write_spans(self, path: str, ops) -> int:
        """Write the spans of the given op ids as gzipped JSON lines; returns their count."""
        keep = set(ops)
        written = 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            for idx in range(len(self.span_start)):
                if self.span_op[idx] not in keep:
                    continue
                handle.write(json.dumps([self.span_name[idx], self.span_op[idx],
                                         self.span_parent[idx], self.span_start[idx],
                                         self.span_end[idx]]) + "\n")
                written += 1
        return written
