"""Spans around the public layer boundaries of seqprod, recorded from outside.

``Tracer.install`` wraps every public function of the layer modules and
rebinds it at every import site (the module globals of the layer modules
and the package namespace), so calls between modules go through the
wrapper too.  It also wraps ``numpy.linalg.eigh``/``eigvalsh`` (the LAPACK
floor) and ``Element.__post_init__`` (element construction).

A span is (name, start, end, parent).  Spans are kept in flat arrays in
memory and written out once, at the end of the run.  A span's self time
is its duration minus the durations of its direct children; the inclusive
time of a name counts only its outermost spans, so recursion is not
counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import weakref
from array import array
from time import perf_counter

import numpy as np

LAYER_MODULES = ("algebra", "spectral", "products", "commutant", "auditor",
                 "serialize", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._active = [False]
        #: span index -> tag attached by an ``on_enter`` hook
        self.tags: dict[int, object] = {}
        self.decompose_calls = 0
        self.decompose_repeats = 0
        self._decomposed = weakref.WeakSet()
        self._patches: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        """Spans are recorded only while active; the wrappers stay installed."""
        return self._active[0]

    @active.setter
    def active(self, value: bool):
        self._active[0] = bool(value)

    # -- recording ---------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, on_enter=None):
        nid = self._id(name)
        active, stack = self._active, self._stack
        push, pop = stack.append, stack.pop
        names, ends, starts = self.name_id, self.end, self.start
        add_name, add_parent = names.append, self.parent.append
        add_start, add_end = starts.append, ends.append
        clock = perf_counter

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            idx = len(names)
            add_name(nid)
            add_parent(stack[-1])
            add_start(0.0)
            add_end(0.0)
            if on_enter is not None:
                on_enter(idx, args)
            push(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop()

        traced.__wrapped__ = fn
        return traced

    def _on_decompose(self, idx, args):
        element = args[0]
        self.decompose_calls += 1
        if element in self._decomposed:
            self.decompose_repeats += 1
        else:
            self._decomposed.add(element)

    def _on_audit_law(self, idx, args):
        law, product, alg = args[:3]
        self.tags[idx] = (str(getattr(law, "value", law)), product.descriptor(),
                          alg.shorthand())

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the public functions of the layer modules of ``package``."""
        modules = [importlib.import_module(f"{package.__name__}.{m}")
                   for m in LAYER_MODULES]
        hooks = {"spectral.spectral_decompose": self._on_decompose,
                 "auditor.audit_law": self._on_audit_law}
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[obj] = self.wrap(obj, name, hooks.get(name))
        for site in [package, *modules]:
            for attr, obj in list(vars(site).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(site, attr, wrappers[obj])
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, self.wrap(getattr(np.linalg, attr),
                                                   f"numpy.linalg.{attr}"))
        element = package.algebra.Element
        self._patch(element, "__post_init__",
                    self.wrap(element.__post_init__, "algebra.Element.__post_init__"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def arrays(self):
        """(name_id, parent, start, end) as numpy views; record no spans while held."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start=start, end=end)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and inclusive seconds."""
        return summarize(self.names, *self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def outermost(name_id: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Mask of spans not nested inside an earlier span of the same name.

    Spans are stored in start order and nest properly (one thread), so a
    span is nested exactly when it starts before the latest end among the
    earlier spans of its name.
    """
    order = np.argsort(name_id, kind="stable")
    first, last = start[order], end[order]
    bounds = [0, *(np.flatnonzero(np.diff(name_id[order])) + 1), len(order)]
    outer = np.ones(len(order), dtype=bool)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        latest = np.maximum.accumulate(last[lo:hi])
        outer[lo + 1:hi] = first[lo + 1:hi] >= latest[:-1]
    mask = np.empty_like(outer)
    mask[order] = outer
    return mask


def summarize(names, name_id, parent, start, end) -> dict[str, dict[str, float]]:
    k = len(names)
    own = self_times(parent, start, end)
    top = outermost(name_id, start, end)
    calls = np.bincount(name_id, minlength=k)
    self_s = np.bincount(name_id, weights=own, minlength=k)
    incl_s = np.bincount(name_id[top], weights=(end - start)[top], minlength=k)
    return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "incl_s": float(incl_s[i])}
            for i, name in enumerate(names)}
