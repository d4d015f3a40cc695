"""In-memory span recorder for the traced run.

Spans are recorded around the public entry points of the `ouro` modules by
replacing those functions, from the outside, in every loaded `ouro` module
that holds a reference to them.  Each span stores its name, start, end,
parent span and the id of the command line it belongs to, in flat arrays,
so a pass of several hundred thousand spans stays a few tens of MB.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (span name, module, attribute): functions wrapped wherever they are bound.
FUNCTIONS = [
    ("cli.main", "ouro.cli", "main"),
    ("expr.parse", "ouro.expr", "parse"),
    ("expr.evaluate", "ouro.expr", "evaluate"),
    ("verify.membership", "ouro.verify", "check_membership"),
    ("verify.iterated", "ouro.verify", "check_iterated"),
    ("catalog.instantiate", "ouro.catalog", "instantiate"),
    ("deriv.unity_sweep", "ouro.deriv", "unity_sweep"),
    ("deriv.check_unity", "ouro.deriv", "check_unity"),
    ("deriv.dual_eval", "ouro.deriv", "dual_eval"),
    ("deriv.fd_partial", "ouro.deriv", "fd_partial"),
    ("finite.enumerate", "ouro.finite", "enumerate_idempotent"),
    ("finite.count", "ouro.finite", "count_idempotent"),
]

# (span name, module, class, method): methods wrapped on their class.
METHODS = [
    ("verify.sample", "ouro.verify", "DomainBox", "sample_point"),
    ("catalog.operator", "ouro.catalog", "VectorInstance", "__call__"),
]

ROOT = "cli.main"
NAMES = [name for name, *_ in FUNCTIONS + METHODS]


class Recorder:
    """Collects spans and result counters while installed."""

    def __init__(self):
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.cmd = array("i")
        self.command_id = -1
        self.counters: dict[str, int] = {}
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.start)

    def _wrap(self, name: str, fn, on_result):
        nid = NAMES.index(name)
        names, starts, ends = self.name, self.start, self.end
        parents, cmds, stack = self.parent, self.cmd, self._open

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            cmds.append(self.command_id)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def install(self, on_result=None):
        """Wrap every target; `on_result` maps span names to callbacks that
        receive the wrapped call's return value."""
        on_result = on_result or {}
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "ouro" or k.startswith("ouro."))]
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, on_result.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, on_result.get(name)))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "cmd": np.frombuffer(self.cmd, dtype=np.int32)}

    def save(self, path):
        np.savez(path, names=np.array(NAMES), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the part its child spans cover (in the same
    units as start/end).  Children of one span never overlap, because the
    program is single-threaded and spans nest."""
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


def nesting_errors(name, start, end, parent, cmd) -> int:
    """Spans that do not lie inside their parent, belong to another command
    than it, or are roots other than a `cli.main` span."""
    root = parent < 0
    bad = int(np.count_nonzero(root & (name != NAMES.index(ROOT))))
    p = parent[~root]
    bad += int(np.count_nonzero((start[~root] < start[p]) | (end[~root] > end[p])
                                | (cmd[~root] != cmd[p]) | (end[~root] < start[~root])))
    return bad


def layer_totals(spans: dict[str, np.ndarray]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self time in ms)."""
    own = self_times(spans["start"], spans["end"], spans["parent"])
    calls = np.bincount(spans["name"], minlength=len(NAMES))
    self_ms = np.bincount(spans["name"], weights=own, minlength=len(NAMES)) / 1e6
    return {n: (int(calls[i]), float(self_ms[i])) for i, n in enumerate(NAMES)}
