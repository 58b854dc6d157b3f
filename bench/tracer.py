"""Wrap the public functions of rational_logit from outside and record
what they do.

Two modes share one wrapper set:

* ``count``: every call increments a counter. Used on the runs that give
  the end-to-end metrics, so exact work counts come with every run at the
  cost of one Python call per wrapped call.
* ``trace``: every call also records a span (name, start, end, parent) in
  memory; ``write`` saves them when the run ends.

Nothing in the library is edited: the wrappers replace the module
attributes and class methods at run time, so a module that imported a
function by name (``from .kexp import log_e_kappa``) calls the wrapper too.
"""

from __future__ import annotations

import enum
import functools
import inspect
import json
import os
import time
from collections import defaultdict

# the seven modules, in call-graph order from the entry point down
MODULES = ("cli", "dataio", "calibration", "dynamics", "utility", "measures", "kexp")


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names
            if getattr(getattr(module, n, None), "__module__", None) == module.__name__]


def _class_methods(cls) -> list[str]:
    """__init__ plus the public plain methods the class itself defines."""
    return [n for n, v in vars(cls).items()
            if inspect.isfunction(v) and (n == "__init__" or not n.startswith("_"))]


class Tracer:
    """Counters and, in trace mode, spans for every wrapped call."""

    def __init__(self, mode: str):
        if mode not in ("count", "trace"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.names: list[str] = []
        self.calls: list[int] = []
        self.spans: list = []          # (name_id, start_ns, end_ns, parent_index)
        self.extras: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        calls, spans, stack = self.calls, self.spans, self._stack
        clock = time.perf_counter_ns

        if self.mode == "count":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name_id] += 1
                out = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, out)
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name_id] += 1
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (name_id, start, end, parent)
                if after is not None:
                    after(self, args, out)
                return out
        return wrapper

    def install(self, package) -> None:
        """Replace every public function and method of the seven modules.

        Functions are rebound in every module (and the package) that holds a
        reference to them; methods are replaced on their class.
        """
        modules = [getattr(package, m) for m in MODULES]
        replaced = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr in _public_names(module):
                obj = getattr(module, attr)
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj,
                                                         _AFTER.get(f"{short}.{attr}")))
                elif (inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum))):
                    for meth in _class_methods(obj):
                        orig = vars(obj)[meth]
                        span = f"{short}.{attr}.{meth}"
                        setattr(obj, meth, self._wrap(span, orig, _AFTER.get(span)))
                        self._undo.append((obj, meth, orig))
        for holder in modules + [package]:
            for attr, value in list(vars(holder).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(holder, attr, hit[1])
                    self._undo.append((holder, attr, value))

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Calls per wrapped name, plus the byte and evaluation tallies."""
        out = {name: n for name, n in zip(self.names, self.calls) if n}
        out.update(self.extras)
        return out

    def write(self, path) -> None:
        """Save names, spans and tallies as one JSON document."""
        doc = {"names": self.names, "spans": self.spans, "extras": dict(self.extras)}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _count_bytes(tracer, args, _out):
    tracer.extras["dataio.bytes_written"] += os.path.getsize(args[0])


def _count_evaluations(tracer, _args, result):
    tracer.extras["calibration.evaluations"] += result.evaluation_count
    tracer.extras["calibration.failed_evaluations"] += sum(
        1 for _, obj, _ in result.evaluations if obj is None)


# probes that read a call's arguments or result after it returns
_AFTER = {
    "dataio.write_measure_csv": _count_bytes,
    "dataio.write_trajectory_csv": _count_bytes,
    "dataio.write_convergence_csv": _count_bytes,
    "dataio.write_pdf_table": _count_bytes,
    "calibration.fit_search": _count_evaluations,
}


def summarize(names, spans) -> dict[str, dict]:
    """Per span name: calls, total time and self time, in nanoseconds.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child_ns = [0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns[i]
    return out


def outermost_ns(names, spans, group) -> int:
    """Total duration of the spans named in `group` whose parent is not,
    so that a layer calling itself through another name counts once."""
    total = 0
    for name_id, start, end, parent in spans:
        if names[name_id] in group and (parent < 0 or names[spans[parent][0]] not in group):
            total += end - start
    return total


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    return doc["names"], [tuple(s) for s in doc["spans"]], doc["extras"]
