"""Span tracing of conewalk's public functions, installed from outside.

The tracer replaces each public function of the traced modules with a
wrapper that records a span (layer name, start, end, parent span and
work counts) in memory.  Every module namespace that bound the original
function by name gets the wrapper too, so calls across modules are seen.
A layer's self time is its spans' durations minus the part covered by
their child spans in the same process.

Pool workers forked while the tracer is installed inherit the wrappers.
Each worker starts with an empty span list and writes its spans to the
spool directory when it exits; :meth:`Tracer.collect` merges them.  A
worker's spans are summed into their layers but are nobody's children,
so the parent's ``harness.run_experiment`` self time is its wait on the
pool.

numpy's ``Generator`` methods cannot be wrapped, so RNG draws are timed
as self time of the sampler that calls them.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import multiprocessing.util
import os
import time
from pathlib import Path

MODULES = ("cone_linalg", "radial_laws", "orbit_sampler", "bessel",
           "limit_lab", "experiments", "harness", "cli")

# the hooks every experiment family implements, traced under one name each
EXPERIMENT_HOOKS = ("validate", "plan", "run_block", "reduce")

# layers listed one by one in the results; the other traced functions of
# a module are summed into "<module>.other"
LAYERS = (
    "radial_laws.sample", "radial_laws.moments",
    "orbit_sampler.radial_projection_coeff", "orbit_sampler.run_group_walks",
    "orbit_sampler.stiefel_block", "orbit_sampler.sample_stiefel_frame",
    "cone_linalg.eig_herm", "cone_linalg.clamp_psd", "cone_linalg.psd_sqrt",
    "bessel.sample_contraction", "bessel.run_bessel_walks",
    "bessel.convolve_points", "bessel.kappa_mu",
    "limit_lab.ks_distance", "limit_lab.mardia_tests", "limit_lab.normalize_clt",
    "experiments.validate", "experiments.plan", "experiments.run_block",
    "experiments.reduce",
    "harness.run_experiment", "harness.emit_outputs",
    "cli.main",
)


def _elements(size) -> int:
    if size is None:
        return 1
    return math.prod(size) if isinstance(size, tuple) else int(size)


def _count_draws(pos):
    """Count the batch size passed as positional argument ``pos``."""
    def count(args, kwargs, result):
        return {"draws": _elements(args[pos] if len(args) > pos else kwargs.get("size"))}
    return count


def _count_updates(args, kwargs, result):
    cfg, replicates = args[0], args[2]
    return {"updates": int(replicates) * int(cfg.checkpoints[-1])}


def _count_matrices(args, kwargs, result):
    w = result[0]
    return {"matrices": int(w.size // w.shape[-1])}


def _count_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# work counts recorded per layer; every one is reported, zero if unused
COUNT_KEYS = {
    "radial_laws.sample": ("draws",),
    "orbit_sampler.radial_projection_coeff": ("draws",),
    "orbit_sampler.run_group_walks": ("updates",),
    "cone_linalg.eig_herm": ("matrices",),
    "bessel.sample_contraction": ("draws", "proposals"),
    "harness.emit_outputs": ("bytes",),
}

_COUNTS = {
    "radial_laws.sample": _count_draws(2),  # (self, rng, size)
    "orbit_sampler.radial_projection_coeff": _count_draws(3),  # (p, field, rng, size)
    "bessel.sample_contraction": _count_draws(2),  # (param, rng, size or n)
    "orbit_sampler.run_group_walks": _count_updates,
    "cone_linalg.eig_herm": _count_matrices,
    "harness.emit_outputs": _count_bytes,
}

# functions traced under another layer's name: the q = 1 walks call the
# contraction sampler's core directly, and convolve_points_scalar is the
# q = 1 form of convolve_points.  RadialLaw.sample and .sample_scalar are
# both traced as "radial_laws.sample".
_ALIASES = {
    "bessel._sample_contraction_flat": "bessel.sample_contraction",
    "bessel.convolve_points_scalar": "bessel.convolve_points",
}


class Tracer:
    """Installs span wrappers into the conewalk package and records spans."""

    def __init__(self, spool_dir: str | Path):
        self.spool_dir = Path(spool_dir)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self._undo: list[tuple[object, str, object]] = []
        self._forked_hook = False

    # -- installation --------------------------------------------------------

    def install(self, layers=None) -> None:
        """Wrap every traced function, or only those of the given layers."""
        def wanted(layer):
            return layers is None or layer in layers

        pkg = importlib.import_module("conewalk")
        mods = {m: importlib.import_module(f"conewalk.{m}") for m in MODULES}
        wrapped = {}  # original function -> wrapper
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if callable(obj) and getattr(obj, "__module__", None) == mod.__name__ \
                        and not isinstance(obj, type) \
                        and (not name.startswith("_") or f"{short}.{name}" in _ALIASES):
                    layer = _ALIASES.get(f"{short}.{name}", f"{short}.{name}")
                    if wanted(layer):
                        wrapped[obj] = self._wrap(obj, layer)
        if wanted("radial_laws.sample"):
            law_cls = mods["radial_laws"].RadialLaw
            for meth in ("sample", "sample_scalar"):
                self._patch(law_cls, meth,
                            self._wrap(vars(law_cls)[meth], "radial_laws.sample"))
        for exp in mods["experiments"].EXPERIMENTS.values():
            for hook in EXPERIMENT_HOOKS:
                if wanted(f"experiments.{hook}"):
                    fn = getattr(exp, hook)
                    if fn not in wrapped:
                        wrapped[fn] = self._wrap(fn, f"experiments.{hook}")
                    self._patch(exp, hook, staticmethod(wrapped[fn]))
        if wanted("bessel.sample_contraction"):
            propose = mods["bessel"]._propose
            self._patch(mods["bessel"], "_propose", self._count_proposals(propose))
        # rebind every module-level name that refers to a wrapped function
        for mod in (pkg, *mods.values()):
            for name, obj in list(vars(mod).items()):
                if callable(obj) and not isinstance(obj, type) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        if not self._forked_hook:
            multiprocessing.util.register_after_fork(self, Tracer._after_fork)
            self._forked_hook = True
        self.active = True

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo = []
        self.active = False

    def _patch(self, owner, name, new) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _wrap(self, fn, layer):
        count = _COUNTS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [layer, 0.0, 0.0, parent, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            # nested calls of one layer (sample -> sample_scalar) count once
            if count is not None and (parent < 0 or tracer.spans[parent][0] != layer):
                rec[4] = {**(rec[4] or {}), **count(args, kwargs, result)}
            return result
        return traced

    def _count_proposals(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(e, q, field, rng, k):
            if tracer.stack:
                rec = tracer.spans[tracer.stack[-1]]
                if rec[0] == "bessel.sample_contraction":
                    rec[4] = rec[4] or {}
                    rec[4]["proposals"] = rec[4].get("proposals", 0) + int(k)
            return fn(e, q, field, rng, k)
        return counted

    # -- pool workers --------------------------------------------------------

    def _after_fork(self) -> None:
        if not self.active:
            return
        self.spans = []
        self.stack = []
        multiprocessing.util.Finalize(None, self._spool, exitpriority=10)

    def _spool(self) -> None:
        path = self.spool_dir / f"spans-{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    # -- results -------------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        for path in self.spool_dir.glob("spans-*.json"):
            path.unlink()

    def collect(self) -> tuple[dict, dict]:
        """(layer totals of this process, layer totals of pool workers)."""
        workers: dict = {}
        for path in sorted(self.spool_dir.glob("spans-*.json")):
            with open(path, encoding="utf-8") as fh:
                merge_totals(workers, layer_totals(json.load(fh)))
        return layer_totals(self.spans), workers


def layer_totals(spans: list) -> dict:
    """Self time and counts per layer name from one process's spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, _, counts) in enumerate(spans):
        agg = totals.setdefault(name, {"self_s": 0.0})
        agg["self_s"] += (end - start) - covered[i]
        for key, val in (counts or {}).items():
            agg[key] = agg.get(key, 0) + val
    return totals


def merge_totals(into: dict, other: dict) -> dict:
    for name, agg in other.items():
        dst = into.setdefault(name, {"self_s": 0.0})
        for key, val in agg.items():
            dst[key] = dst.get(key, 0) + val
    return into


def layer_metrics(totals: dict) -> dict:
    """Flatten layer totals into the benchmark's per-layer metric names.

    Every listed layer and count is present, zero where the workload never
    reached it.  Traced functions not listed in LAYERS are summed per
    module as "<module>.other.self_s".
    """
    out = {}
    for layer in LAYERS:
        agg = totals.get(layer, {})
        out[f"{layer}.self_s"] = agg.get("self_s", 0.0)
        for key in COUNT_KEYS.get(layer, ()):
            out[f"{layer}.{key}"] = agg.get(key, 0)
    draws = out["bessel.sample_contraction.draws"]
    proposals = out["bessel.sample_contraction.proposals"]
    out["bessel.sample_contraction.yield"] = draws / proposals if proposals else 0.0
    for mod in MODULES:
        out[f"{mod}.other.self_s"] = sum(
            agg["self_s"] for name, agg in totals.items()
            if name.split(".")[0] == mod and name not in LAYERS)
    return out
