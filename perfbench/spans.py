"""Per-layer spans recorded around sprank's public functions from outside the package.

``Tracer.installed()`` wraps every public function of the layer modules at
every binding a caller can look it up through: the defining module, the
``sprank`` package re-export, and any sprank module that imported it by
name (``augment.strong_resilience`` is a separate binding from
``resilience.strong_resilience``).  On exit every binding gets its original
object back.

Spans are kept in memory as parallel arrays (name, parent, start, end and
up to three counters), so a traced pass of many thousand tiny solves stays
small.  Self time is a span's duration minus its direct children's.  A
span ends after its counters are taken, and the time they took is kept
apart, so that it counts toward neither the span's self time nor its
parent's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "io", "pattern", "flow", "resilience", "augment", "oracle")


def _source_capacity(net) -> int:
    return sum(a.capacity for a in net.arcs if a.tail == net.source)


# Counters taken at the boundary, from the arguments and the result:
# name -> function(args, result) -> up to three integers.
PROBES = {
    "flow.max_flow": lambda args, f: (len(args[0].arcs), f.value, f.value == _source_capacity(args[0])),
    "flow.min_cost_max_flow": lambda args, f: (len(args[0].arcs), f.value, 0),
    "io.load_pattern": lambda args, _: (os.path.getsize(args[0]), 0, 0),
}


def sprank_modules():
    return [mod for name, mod in sorted(sys.modules.items()) if name == "sprank" or name.startswith("sprank.")]


def function_bindings() -> dict[tuple[str, str], object]:
    """Every module-level function binding in the loaded sprank modules."""
    return {
        (mod.__name__, attr): val
        for mod in sprank_modules()
        for attr, val in vars(mod).items()
        if inspect.isfunction(val)
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.probe_s = array("d")
        self.counters = [array("q"), array("q"), array("q")]
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name_of)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        name_of, parent, start, end, probe_s = self.name_of, self.parent, self.start, self.end, self.probe_s
        c0, c1, c2 = self.counters
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            probe_s.append(0.0)
            c0.append(0)
            c1.append(0)
            c2.append(0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                c0[idx], c1[idx], c2[idx] = probe(args, result)
                done = perf_counter()
                probe_s[idx] = done - end[idx]
                end[idx] = done
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the public functions of every layer for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sprank.{layer}")
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        patched = [
            (mod, attr, fn)
            for mod in sprank_modules()
            for attr, fn in vars(mod).items()
            if inspect.isfunction(fn) and fn in wrappers
        ]
        try:
            for mod, attr, fn in patched:
                setattr(mod, attr, wrappers[fn])
            yield self
        finally:
            for mod, attr, fn in patched:
                setattr(mod, attr, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function name: calls, self_s, total_s and counter sums."""
        count = len(self)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        stats: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "c0": 0, "c1": 0, "c2": 0}
            for name in self.names
        }
        for i in range(count):
            s = stats[self.names[self.name_of[i]]]
            s["calls"] += 1
            s["self_s"] += dur[i] - child[i] - self.probe_s[i]
            s["total_s"] += dur[i] - self.probe_s[i]
            s["c0"] += self.counters[0][i]
            s["c1"] += self.counters[1][i]
            s["c2"] += self.counters[2][i]
        return stats

    def descendants(self, ancestor: str, name: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        target = {i for i, n in enumerate(self.names) if n == name}
        anc = {i for i, n in enumerate(self.names) if n == ancestor}
        found = 0
        for i in range(len(self)):
            if self.name_of[i] not in target:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] not in anc:
                p = self.parent[p]
            found += p >= 0
        return found
