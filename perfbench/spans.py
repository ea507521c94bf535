"""Span recorder for the traced run.

Spans are recorded from the benchmark's own files: the public functions of
each layer (its ``__all__``) are replaced, under every name a caller looks
them up by, with wrappers that record name, start, end, parent span and op
id into flat arrays.  ``uninstall`` puts the originals back.  The program
runs single-threaded here, so one stack of open spans is enough.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("excitation", "potential", "dynamics", "portrait")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: Counter = Counter()
        self._distinct: dict[str, set] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def distinct(self, counter: str, key) -> None:
        """Count key once per op under counter."""
        self._distinct.setdefault(counter, set()).add((self.op_id, key))

    def distinct_count(self, counter: str) -> int:
        return len(self._distinct.get(counter, ()))

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None, name_of=None):
        rec = self

        def wrapper(*args, **kwargs):
            idx = rec._open(name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if on_result is not None:
                on_result(rec, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Wrap every public function of every layer, wherever it is bound."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS + ("cli",)
        ]
        for layer in LAYERS:
            mod = getattr(package, layer)
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                hooks = _HOOKS.get(f"{layer}.{fname}", {})
                wrapped = self.wrap(f"{layer}.{fname}", fn, **hooks)
                for m in modules:
                    if getattr(m, fname, None) is fn:
                        self._patched.append((m, fname, fn))
                        setattr(m, fname, wrapped)

    def uninstall(self) -> None:
        for m, fname, fn in reversed(self._patched):
            setattr(m, fname, fn)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread), and each lies inside its
    parent, so subtracting their summed durations is exact.
    """
    start = np.asarray(start, float)
    end = np.asarray(end, float)
    parent = np.asarray(parent, int)
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def totals_by_name(rec: Recorder) -> tuple[dict[str, int], dict[str, float]]:
    """Span count and summed self time (s) per span name."""
    a = rec.arrays()
    own = self_times(a["start"], a["end"], a["parent"])
    calls = np.bincount(a["name_id"], minlength=len(rec.names))
    self_s = np.bincount(a["name_id"], weights=own, minlength=len(rec.names))
    return (
        {n: int(calls[i]) for i, n in enumerate(rec.names)},
        {n: float(self_s[i]) for i, n in enumerate(rec.names)},
    )


# -- hooks that count the work a call did ---------------------------------


def _after_find_equilibria(rec, args, result):
    rec.counters["potential.equilibria_found"] += len(result)
    rec.distinct("potential.find_equilibria", args[0])


def _after_extract_contours(rec, args, result):
    for lc in result:
        rec.counters["portrait.polylines"] += len(lc.polylines)
        rec.counters["portrait.segments"] += sum(len(poly) - 1 for poly in lc.polylines)


def _integrate_name(args) -> str:
    return "dynamics.integrate.full" if len(args[1]) == 4 else "dynamics.integrate.reduced"


def _after_integrate(rec, args, result):
    flow = "full" if len(args[1]) == 4 else "reduced"
    rec.counters[f"dynamics.integrate.{flow}.steps"] += len(result.t) - 1
    if flow == "reduced":
        key = hashlib.sha256(result.t.tobytes() + result.y.tobytes()).hexdigest()
        rec.distinct("dynamics.reduced", key)


_HOOKS = {
    "potential.find_equilibria": {"on_result": _after_find_equilibria},
    "portrait.extract_contours": {"on_result": _after_extract_contours},
    "dynamics.integrate": {"on_result": _after_integrate, "name_of": _integrate_name},
}
