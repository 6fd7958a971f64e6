"""Spans around grtsurf's layer boundaries, recorded from outside the program.

``Tracer.install`` replaces each traced function by a wrapper at every
place a grtsurf module looks it up: module globals (``from .expr import
eval_jet2`` copies the name into the importing module) and dict values
(``cli._WRITERS``).  Each call appends one span ``(name, start, end,
parent)``; ``uninstall`` puts the originals back.  A traced name that the
program no longer defines, or no longer calls, reports 0 calls.
"""
from __future__ import annotations

import sys
import time

import numpy as np

# (module, function): the layer boundaries the benchmark reports on.
TRACED = (
    ("grtsurf.expr", "parse_expr"),
    ("grtsurf.expr", "eval_jet2"),
    ("grtsurf.geometry", "point_frame"),
    ("grtsurf.surface", "sample_mesh"),
    ("grtsurf.surface", "sample_rotation_mesh"),
    ("grtsurf.surface", "rotation_point"),
    ("grtsurf.verify", "run_checks"),
    ("grtsurf.verify", "fd_fundamental_forms"),
    ("grtsurf.cli", "main"),
    ("grtsurf.cli", "write_obj"),
    ("grtsurf.cli", "write_ply"),
    ("grtsurf.cli", "write_mesh_json"),
)
NAMES = tuple(f"{module.split('.', 1)[1]}.{func}" for module, func in TRACED)
_NO_PARENT = -1


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack = [_NO_PARENT]
        self._patches: list = []

    def _wrap(self, name_id: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "grtsurf" or key.startswith("grtsurf.")]
        for name_id, (module_name, func_name) in enumerate(TRACED):
            original = getattr(sys.modules.get(module_name), func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module.__dict__, key, original))
                        setattr(module, key, wrapper)
                    elif type(value) is dict:
                        for k, v in list(value.items()):
                            if v is original:
                                self._patches.append((value, k, original))
                                value[k] = wrapper

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def take(self) -> "SpanTable":
        """The spans recorded since the last call, as arrays."""
        rows = np.array(self.spans, dtype=float).reshape(-1, 4)
        self.spans.clear()
        return SpanTable(rows[:, 0].astype(np.int32), rows[:, 1], rows[:, 2],
                         rows[:, 3].astype(np.int32))


class SpanTable:
    """Spans of one job; a span's parent is always recorded before it."""

    def __init__(self, name, start, end, parent):
        self.name, self.start, self.end, self.parent = name, start, end, parent

    def summary(self) -> dict:
        """Per traced name: calls, inclusive seconds, self seconds, and
        calls made below a ``verify.run_checks`` span."""
        k = len(NAMES)
        duration = self.end - self.start
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent],
                                 weights=duration[has_parent],
                                 minlength=len(duration))
        self_time = duration - child_time
        run_checks = NAMES.index("verify.run_checks")
        below = np.zeros(len(duration), dtype=bool)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                below[i] = below[p] or self.name[p] == run_checks
        calls = np.bincount(self.name, minlength=k)
        inclusive = np.bincount(self.name, weights=duration, minlength=k)
        exclusive = np.bincount(self.name, weights=self_time, minlength=k)
        in_checks = np.bincount(self.name[below], minlength=k)
        return {name: {"calls": int(calls[i]), "incl_s": float(inclusive[i]),
                       "self_s": float(exclusive[i]),
                       "calls_in_run_checks": int(in_checks[i])}
                for i, name in enumerate(NAMES)}
