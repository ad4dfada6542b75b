"""Traced mode: spans around the public entry points of every tamechain
layer, recorded from the benchmark's own files.

`Tracer.install` wraps each module's public functions (its `__all__`),
the constructors of its public classes, the operators of `Mat` and the
few methods named in `METHODS`.  Modules bind names at import
(`from .field import rref`), so a wrapped function is rebound in every
tamechain module that holds it.  A span records name, start, end, parent
span and job id; spans stay in memory (flat arrays) until `write`.

Self time of a span is its duration minus the durations of its child
spans; a layer's self time is the sum over its spans.  Children run
inside their parent and one at a time, so per job the self times of all
spans, the job span included, add up to the job's wall time.

The caller reads `layer_metrics` after every round of jobs and then
`clear`s the spans, so memory holds one round at a time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("field", "posets", "functors", "chains", "morphisms", "interchange", "cli")

# Methods wrapped besides constructors: Mat's operators and the posets
# queries that the per-layer counters name.
METHODS = {
    ("field", "Mat"): ("__matmul__", "__add__", "__sub__", "__neg__", "__eq__", "scale", "rank", "transpose", "take_rows", "take_cols"),
    ("posets", "FinPoset"): ("closure",),
    ("posets", "RealizedPoset"): ("transfer",),
}


def _shape(m):
    return m.arr.shape


# Work recorded with a span, as two integers (a, b) taken from the call's
# arguments and result.
SIZES = {
    "field.rref": lambda a, r: _shape(a[0]),
    "field.kernel": lambda a, r: _shape(a[0]),
    "field.Mat.__matmul__": lambda a, r: (_shape(a[0])[0] * _shape(a[0])[1] * _shape(a[1])[1], 0),
    "posets.FinPoset": lambda a, r: (a[0].n, 0),
    "posets.realize": lambda a, r: (r.n, 0),
    "morphisms.end_ring": lambda a, r: (r.dim, 0),
    "morphisms.indecomposable": lambda a, r: (r.trials, r.end_dim),
    "interchange.parse_document": lambda a, r: (len(a[0]), 0),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.a = array("q")
        self.b = array("q")
        self.stack: list[int] = []
        self.current_job = -1
        self.counters: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        sizes = SIZES.get(name)
        stack, now = self.stack, time.perf_counter
        rec_name, rec_parent, rec_job = self.name, self.parent, self.job
        rec_t0, rec_t1, rec_a, rec_b = self.t0, self.t1, self.a, self.b
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(rec_t0)
            rec_name.append(nid)
            rec_parent.append(stack[-1] if stack else -1)
            rec_job.append(tracer.current_job)
            rec_t0.append(0.0)
            rec_t1.append(0.0)
            rec_a.append(0)
            rec_b.append(0)
            stack.append(i)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                rec_t0[i] = t0
                rec_t1[i] = t1
            if sizes is not None:
                rec_a[i], rec_b[i] = sizes(args, result)
            return result

        wrapper._perfbench_original = fn
        return wrapper

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span of the benchmark's own."""
        return self._wrap(fn, name)(*args)

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.job, self.t0, self.t1, self.a, self.b):
            del arr[:]
        self.counters.clear()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        swap: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tamechain.{layer}")
            for public in getattr(mod, "__all__", ()):
                obj = getattr(mod, public)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if "__init__" in vars(obj):
                        self._set(obj, "__init__", self._wrap(obj.__init__, f"{layer}.{public}"))
                    for meth in METHODS.get((layer, public), ()):
                        self._set(obj, meth, self._wrap(vars(obj)[meth], f"{layer}.{public}.{meth}"))
                elif inspect.isfunction(obj):
                    swap[id(obj)] = (obj, self._wrap(obj, f"{layer}.{public}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "tamechain" and not modname.startswith("tamechain."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = swap.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        job = np.frombuffer(self.job, dtype=np.int32)
        dur = np.frombuffer(self.t1, dtype=np.float64) - np.frombuffer(self.t0, dtype=np.float64)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return name, parent, job, dur, dur - child

    def layer_metrics(self) -> tuple[dict, float]:
        """Per-layer metrics of the recorded spans, and the largest per-job
        gap between the summed self times and the job's wall time, as a
        share of the wall time."""
        name, parent, job, dur, self_t = self.arrays()
        a = np.frombuffer(self.a, dtype=np.int64)
        b = np.frombuffer(self.b, dtype=np.int64)
        ids = {n: i for i, n in enumerate(self.names)}
        layer_of = np.array([n.split(".")[0] for n in self.names] or ["-"])

        def sel(*names):
            want = [ids[n] for n in names if n in ids]
            return np.isin(name, want)

        def outermost(*names):
            """Spans of the given names with no ancestor among them."""
            want = {ids[n] for n in names if n in ids}
            inside = np.zeros(len(name), dtype=bool)
            nm, par = name.tolist(), parent.tolist()
            for i in range(len(nm)):
                q = par[i]
                if q >= 0 and (inside[q] or nm[q] in want):
                    inside[i] = True
            return sel(*names) & ~inside

        def layer(lay):
            return np.isin(name, np.flatnonzero(layer_of == lay)) if len(self.names) else np.zeros(0, dtype=bool)

        hom_id = ids.get("morphisms.hom_space", -2)
        in_hom = sel("field.kernel") & (parent >= 0)
        in_hom[in_hom] = name[parent[in_hom]] == hom_id
        out = {
            "field.rref.calls": sel("field.rref").sum(),
            "field.rref.cells": (a * b)[sel("field.rref")].sum(),
            "field.rref.self_s": self_t[sel("field.rref")].sum(),
            "field.matmul.calls": sel("field.Mat.__matmul__").sum(),
            "field.matmul.madds": a[sel("field.Mat.__matmul__")].sum(),
            "field.matmul.self_s": self_t[sel("field.Mat.__matmul__")].sum(),
            "field.solve.calls": sel("field.solve_or_none").sum(),
            "field.kernel.calls": sel("field.kernel").sum(),
            "field.cokernel.calls": sel("field.cokernel").sum(),
            "field.self_s": self_t[layer("field")].sum(),
            "functors.vectfunctor.built": sel("functors.VectFunctor").sum(),
            "functors.natmap.built": sel("functors.NatMap").sum(),
            "functors.validate_s": dur[outermost("functors.VectFunctor", "functors.NatMap")].sum(),
            "functors.colim.calls": sel("functors.colim_over").sum(),
            "functors.kan.calls": sel("functors.kan_extend").sum(),
            "functors.cover.calls": sel("functors.minimal_cover").sum(),
            "functors.self_s": self_t[layer("functors")].sum(),
            "chains.chainfunctor.built": sel("chains.ChainFunctor").sum(),
            "chains.chainmap.built": sel("chains.ChainMap").sum(),
            "chains.validate_s": dur[outermost("chains.ChainFunctor", "chains.ChainMap")].sum(),
            "chains.factorization.calls": sel("chains.minimal_cofibrant_factorization").sum(),
            "chains.decompose.calls": sel("chains.structure_decompose").sum(),
            "chains.self_s": self_t[layer("chains")].sum(),
            "posets.poset.built": sel("posets.FinPoset").sum(),
            "posets.poset.elements": a[sel("posets.FinPoset")].sum(),
            "posets.poset.build_s": dur[outermost("posets.FinPoset", "posets.RealizedPoset")].sum(),
            "posets.realize.points": a[sel("posets.realize")].sum(),
            "posets.transfer.calls": sel("posets.RealizedPoset.transfer", "posets.transfer_point").sum(),
            "posets.closure.calls": sel("posets.FinPoset.closure").sum(),
            "posets.self_s": self_t[layer("posets")].sum(),
            "morphisms.hom.calls": sel("morphisms.hom_space").sum(),
            "morphisms.hom.unknowns": b[in_hom].sum(),
            "morphisms.hom.equations": a[in_hom].sum(),
            "morphisms.end_dim": a[sel("morphisms.end_ring")].sum(),
            "morphisms.endos_enumerated": a[sel("morphisms.indecomposable")].sum(),
            "morphisms.self_s": self_t[layer("morphisms")].sum(),
            "interchange.bytes_in": a[sel("interchange.parse_document")].sum(),
            "interchange.bytes_out": self.counters.get("interchange.bytes_out", 0),
            "interchange.self_s": self_t[layer("interchange")].sum(),
            "cli.self_s": self_t[layer("cli")].sum(),
            "bench.self_s": self_t[sel("bench.job")].sum(),
        }
        roots = sel("bench.job")
        ids_of_jobs, slot = np.unique(job[job >= 0], return_inverse=True)
        per_job = np.bincount(slot, weights=self_t[job >= 0], minlength=len(ids_of_jobs))
        wall = np.zeros_like(per_job)
        wall[np.searchsorted(ids_of_jobs, job[roots])] = dur[roots]
        gap = float(np.max(np.abs(per_job - wall) / np.maximum(wall, 1e-12))) if roots.any() else 0.0
        return {k: float(v) for k, v in out.items()}, gap

    def write(self, path) -> None:
        name, parent, job, dur, _ = self.arrays()
        data = {
            "names": self.names,
            "columns": ["name", "parent", "job", "start", "end"],
            "name": name.tolist(),
            "parent": parent.tolist(),
            "job": job.tolist(),
            "start": [round(t, 7) for t in self.t0],
            "end": [round(t, 7) for t in self.t1],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
