"""Spans and counters around the calls into cooproute's layers.

The tracer wraps functions from the outside: it replaces module
attributes in its own process, so nothing under ``src/`` changes and an
untraced run executes the program's code unmodified.  Each wrapped call
opens a span (name, start, end, parent).  Spans of the solver layers are
kept in memory and written out at the end; spans of the kernels that run
millions of times (the ``search`` routines, ``wardrop_split``,
``assemble_profile``) are summed instead of kept one by one.  Cost-method
calls are only counted.

Self time: a span's duration minus the spans of the solver layers it
calls.  Kernel calls (``search``, ``assemble_profile``, ``wardrop_split``)
count as the work of their caller, so ``nash.multistart`` self time is the
time not spent in ``br_dynamics`` or ``verify_nash``, mostly the 2x2 scan.
"""

from __future__ import annotations

import json
import time
from array import array

# name: (module, attribute of the original function, kept as a record?)
SPANS = {
    "nash.multistart": ("nash", "multistart_nash", True),
    "nash.dynamics": ("nash", "br_dynamics", True),
    "nash.verify": ("nash", "verify_nash", True),
    "netmodel.make_game": ("nash", "make_game", True),
    "netmodel.assemble": ("netmodel", "assemble_profile", False),
    "search.argmin": ("search", "argmin_by_derivative", False),
    "search.bisect": ("search", "bisect_sign_change", False),
    "experiments.alpha_sweep": ("experiments", "alpha_sweep", True),
    "experiments.parameter_sweep": ("experiments", "parameter_sweep", True),
    "experiments.detect_cooperation": ("experiments",
                                       "detect_cooperation_paradox", True),
    "experiments.detect_braess": ("experiments", "detect_braess", True),
    "mixed.closed_form": ("mixed", "mixed_closed_form", True),
    "mixed.numeric": ("mixed", "mixed_numeric", True),
    "mixed.wardrop": ("mixed", "wardrop_split", False),
    "mixed.verify": ("mixed", "verify_mixed", True),
    "cli.main": ("cli", "main", True),
    "cli.emit_csv": ("cli", "emit_csv", True),
}

KERNELS = frozenset(name for name, (_, _, keep) in SPANS.items() if not keep)

MODULES = ("cooproute", "cooproute.costs", "cooproute.experiments",
           "cooproute.mixed", "cooproute.nash", "cooproute.netmodel",
           "cooproute.search", "cooproute.cli")


class Tracer:
    """Span stack, per-name totals, kept span records and counters."""

    def __init__(self):
        self.names = list(SPANS)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.count = [0] * len(self.names)
        self.total = [0.0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        # kept spans: name id, start, end, parent record (-1 for none)
        self.rec_name = array("i")
        self.rec_start = array("d")
        self.rec_end = array("d")
        self.rec_parent = array("i")
        # open frames: [name id, start, solver-child time, record index]
        self.stack = []
        self.counters = {}
        self._patches = []
        self.t0 = time.perf_counter()

    def bump(self, key, by=1):
        self.counters[key] = self.counters.get(key, 0) + by

    def enter(self, nid):
        rec = -1
        if self.names[nid] not in KERNELS:
            rec = len(self.rec_name)
            parent = -1
            for frame in reversed(self.stack):
                if frame[3] >= 0:
                    parent = frame[3]
                    break
            self.rec_name.append(nid)
            self.rec_start.append(0.0)
            self.rec_end.append(0.0)
            self.rec_parent.append(parent)
        frame = [nid, time.perf_counter(), 0.0, rec]
        self.stack.append(frame)
        if rec >= 0:
            self.rec_start[rec] = frame[1] - self.t0

    def leave(self):
        end = time.perf_counter()
        nid, start, child, rec = self.stack.pop()
        dur = end - start
        self.count[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - child
        if rec >= 0:
            self.rec_end[rec] = end - self.t0
            if self.stack:
                self.stack[-1][2] += dur

    # ------------------------------------------------------------ patching

    def install(self, on_result):
        """Wrap every function in SPANS and the cost methods.

        ``on_result(name, args, result)`` sees each wrapped call's
        arguments and result, for counters taken from return values.
        """
        import importlib
        mods = [importlib.import_module(m) for m in MODULES]
        for name, (mod, attr, _) in SPANS.items():
            orig = getattr(importlib.import_module(f"cooproute.{mod}"), attr)
            wrapper = self._wrap(name, orig, on_result)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, val))
                        setattr(m, key, wrapper)
        costs = importlib.import_module("cooproute.costs")
        for cls in (costs.LinearCost, costs.MM1Cost):
            for meth, key in (("value", "costs.value_calls"),
                              ("derivative", "costs.derivative_calls")):
                orig = vars(cls)[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._count_method(orig, key))

    def uninstall(self):
        for owner, key, val in reversed(self._patches):
            setattr(owner, key, val)
        self._patches = []

    def _count_method(self, orig, key):
        counters = self.counters
        counters.setdefault(key, 0)

        def method(obj, flow):
            counters[key] += 1
            return orig(obj, flow)
        return method

    def _wrap(self, name, orig, on_result):
        nid = self.name_id[name]
        enter, leave = self.enter, self.leave
        if name in ("search.argmin", "search.bisect"):
            evals = name + "_evals"
            counters = self.counters
            counters.setdefault(evals, 0)

            def search_wrapper(fn, *args, **kwargs):
                def counted(x):
                    counters[evals] += 1
                    return fn(x)
                enter(nid)
                try:
                    return orig(counted, *args, **kwargs)
                finally:
                    leave()
            return search_wrapper

        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                leave()
            on_result(name, args, result)
            return result
        return wrapper

    # -------------------------------------------------------------- output

    def seconds(self, name):
        return self.total[self.name_id[name]]

    def self_seconds(self, name):
        return self.self_time[self.name_id[name]]

    def calls(self, name):
        return self.count[self.name_id[name]]

    def dump(self, path):
        """Write kept spans and per-name totals as JSON."""
        spans = [[self.names[n], s, e, p] for n, s, e, p in zip(
            self.rec_name, self.rec_start, self.rec_end, self.rec_parent)]
        totals = {n: {"calls": c, "total_s": t, "self_s": st}
                  for n, c, t, st in zip(self.names, self.count, self.total,
                                         self.self_time) if c}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": spans, "totals": totals,
                       "counters": self.counters}, fh)
