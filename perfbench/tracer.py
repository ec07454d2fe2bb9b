"""Span tracing at envcap's layer boundaries, from outside the package.

envcap's modules import each other's functions by name
(``from .degradability import batch_degradability_index``), so patching
the defining module alone misses most calls.  :class:`Tracer` replaces
every binding of a public function -- in the defining module, in each
module that imported it, and in the package namespace -- with one
wrapper that records a span, and restores the originals on exit.

Spans live in flat arrays (name code, parent index, start, end) so a
pass with several hundred thousand objective evaluations stays small;
they are written out with :meth:`Tracer.save` when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

#: envcap's modules, in dependency order; each is one layer.
LAYERS = ("linalg", "channels", "canonical", "degradability", "capacity",
          "experiments", "cli")

#: Span recorded around each item the benchmark itself runs.
ROOT = "bench.item"


def _n_states(args, kwargs):
    etas = kwargs["etas"] if "etas" in kwargs else args[1]
    return len(etas)


#: Functions whose second argument is a batch of environment states.
_STATE_BATCHES = ("degradability.batch_degradability_index",
                  "degradability.batch_effective_kraus")


class Tracer:
    """Records spans for every public envcap function while active."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 unless a span of the same name encloses it
        self._stack = [-1]
        self._open_codes: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _open(self, code: int) -> int:
        i = len(self.name)
        self.name.append(code)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.outer.append(self._open_codes[code] == 0)
        self._open_codes[code] += 1
        self._stack.append(i)
        return i

    def _close(self, i: int, t0: float) -> None:
        self.end[i] = perf_counter()
        self.start[i] = t0
        self._stack.pop()
        self._open_codes[self.name[i]] -= 1

    def span(self, fn, name: str = ROOT):
        """Call ``fn()`` inside a span; returns its result."""
        i = self._open(self._code(name))
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self._close(i, t0)

    def _wrap(self, name: str, fn):
        code = self._code(name)
        tracer = self
        states = name in _STATE_BATCHES
        optimizer = name.startswith("optimizer.")

        def traced(*args, **kwargs):
            if states:
                tracer.counts[name + ".states"] += _n_states(args, kwargs)
            i = tracer._open(code)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._close(i, t0)
            if optimizer:
                tracer.counts["optimizer.nfev"] += int(res.nfev)
                tracer.counts["optimizer.converged"] += bool(res.success)
            return res

        return traced

    # -- patching --------------------------------------------------------

    def __enter__(self):
        pkg = importlib.import_module("envcap")
        mods = {m: importlib.import_module(f"envcap.{m}") for m in LAYERS}
        # one wrapper per function object, shared by all of its bindings
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        # the scipy boundary as capacity sees it
        minimize = mods["capacity"].minimize
        wrappers[id(minimize)] = self._wrap("optimizer.minimize", minimize)
        for mod in (pkg, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and not attr.startswith("__"):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, w)
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()
        return False

    # -- summaries -------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only outermost spans, so a nested call of
        the same function (the jammer's inner simplex runs inside its
        outer one) is not counted twice.
        """
        code = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(code, minlength=n)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        incl = np.bincount(code[outer], weights=dur[outer], minlength=n)
        self_s = np.bincount(code, weights=dur - child, minlength=n)
        return {name: {"calls": int(calls[k]), "incl_s": float(incl[k]),
                       "self_s": float(self_s[k])}
                for k, name in enumerate(self.names)}

    def root_seconds(self) -> float:
        """Inclusive time of the top-level spans."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return float(dur[parent < 0].sum())

    def exact_counts(self) -> dict:
        """Counts that must repeat exactly between two identical passes."""
        out = {f"{k}.calls": v["calls"] for k, v in self.totals().items()}
        out.update(self.counts)
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 outer=np.frombuffer(self.outer, dtype=np.int8))
