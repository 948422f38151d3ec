"""Span tracing at the public boundaries of the program's modules.

``Tracer`` wraps every public function defined in the traced modules, plus
scipy's ``linprog``, and swaps the wrapper into *every* module-level binding
of the package that refers to the original: ``from .solvers import mvie``
leaves a separate binding in ``helly``, ``john`` and ``cli``, and a binding
that is not swapped silently loses its calls.  Leaving the ``with`` block puts
every original binding back.

Each call records a span (label, start, end, parent index).  A label's self
time is its spans' duration minus the part covered by their child spans.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "instances", "helly", "john", "solvers", "geometry")
PACKAGE = "quanthelly"
LP_LABEL = "geometry.lp"
MVIE_LABEL = "solvers.mvie"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def public_functions(module) -> dict:
    """Public functions a module defines itself (not the ones it imports)."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


class Tracer:
    """Context manager that records spans while it is active.

    ``spans`` holds ``[label, start, end, parent]`` lists; ``yields`` counts
    items produced by traced generator functions; ``mvie_repeats`` counts MVIE
    calls on an (A, b) already solved since the tracer was created.
    """

    def __init__(self, layers=LAYERS, extra=None, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.yields = defaultdict(int)
        self.mvie_repeats = 0
        self._stack = []
        self._seen_mvie = set()
        self._replaced = []
        self._targets = {}
        for layer in layers:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module).items():
                self._targets[id(fn)] = (fn, f"{layer}.{name}")
        if extra is None:
            from scipy.optimize import linprog
            extra = {LP_LABEL: linprog}
        for label, fn in extra.items():
            self._targets[id(fn)] = (fn, label)

    # -- installation -------------------------------------------------------

    def __enter__(self):
        wrappers = {}
        for key, (fn, label) in self._targets.items():
            wrappers[key] = self._wrap(fn, label)
        for module in _package_modules():
            for name, obj in list(vars(module).items()):
                hit = self._targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, wrappers[id(obj)])
                    self._replaced.append((module, name, obj))
        return self

    def __exit__(self, *exc):
        while self._replaced:
            module, name, obj = self._replaced.pop()
            setattr(module, name, obj)
        return False

    def _wrap(self, fn, label):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    self.yields[label] += 1
                    yield item
            return counting

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if label == MVIE_LABEL:
                self._note_mvie(args[0] if args else kwargs["P"])
            idx = len(self.spans)
            self.spans.append([label, 0.0, 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
        return wrapper

    def _note_mvie(self, P):
        key = hashlib.blake2b(P.A.tobytes() + b"|" + P.b.tobytes(),
                              digest_size=16).digest()
        if key in self._seen_mvie:
            self.mvie_repeats += 1
        else:
            self._seen_mvie.add(key)

    # -- aggregation --------------------------------------------------------

    def layer_times(self) -> dict:
        """Per label: calls, inclusive seconds (outermost spans of the label
        only, so recursion is not counted twice) and self seconds."""
        child_time = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, (label, start, end, parent) in enumerate(self.spans):
            row = out[label]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != label:
                p = self.spans[p][3]
            if p < 0:
                row["incl_s"] += end - start
        return dict(out)

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)
