"""Outside-in per-layer tracing of an in-process karyhom run.

The tracer wraps the public functions that bound each layer, in every
karyhom module that holds them (``homology.rank`` and ``schur.rank`` are
the same function as ``matrices.rank``), so nothing under ``src/``
changes.  Wrappers keep the wrapped function's module and qualified name
(``functools.wraps``), so the process pool still pickles them by name.
Inside a pool worker a wrapper only calls through: time spent in workers
shows as ``util.pmap`` self time in the parent.

Each span records its inclusive time (counted once when a layer recurses
into itself), its self time (inclusive minus child spans) and a call
count.  The tracer's own bookkeeping is measured and taken out of every
enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter

# layer -> (module, attribute) pairs that bound it.  A missing target is
# skipped and its metrics read 0, so the trace survives refactors.
LAYERS = {
    "matrices.rank": [("karyhom.matrices", "rank")],
    "matrices.multiply": [("karyhom.matrices", "multiply")],
    "chains.differential_matrix": [("karyhom.chains", "differential_matrix")],
    "chains.weight_blocks": [("karyhom.chains", "weight_blocks")],
    "chains.verify_d_squared": [("karyhom.chains", "verify_d_squared")],
    "algebra.check_jacobi": [("karyhom.algebra", "check_jacobi")],
    "algebra.structure": [
        ("karyhom.algebra", "center"),
        ("karyhom.algebra", "lower_central_series"),
    ],
    "algebra.load_algebra": [("karyhom.algebra", "load_algebra")],
    "families.build": [
        ("karyhom.families", name)
        for name in (
            "heisenberg", "acj", "free_two_step", "free_three_step_small",
            "current_algebra", "abelian",
        )
    ],
    "schur.character_by_weights": [("karyhom.schur", "character_by_weights")],
    "schur.decompose_character": [("karyhom.schur", "decompose_character")],
    "util.pmap": [("karyhom.util", "pmap")],
    "homology.betti_all": [("karyhom.homology", "betti_all")],
    "homology.total_homology_all_degrees": [("karyhom.homology", "total_homology_all_degrees")],
    "homology.theta_matrix": [("karyhom.homology", "theta_matrix")],
    "toral.verify_toral": [("karyhom.toral", "verify_toral")],
    "cli": [("karyhom.cli", "main")],
}

# Counters beyond s / self_s / calls, per layer.
EXTRA = {
    "matrices.rank": ("max_s", "nnz_in", "distinct", "useful_ratio"),
    "chains.differential_matrix": ("distinct", "nnz"),
    "chains.weight_blocks": ("blocks", "nnz"),
    "util.pmap": ("pooled_calls",),
}

METRIC_UNITS = {}
for _layer in LAYERS:
    METRIC_UNITS[f"{_layer}.s"] = "s"
    METRIC_UNITS[f"{_layer}.self_s"] = "s"
    METRIC_UNITS[f"{_layer}.calls"] = "count"
    for _name in EXTRA.get(_layer, ()):
        METRIC_UNITS[f"{_layer}.{_name}"] = {"max_s": "s", "useful_ratio": "ratio"}.get(_name, "count")
METRIC_UNITS["trace.overhead_s"] = "s"


def _fingerprint(matrix):
    return hash((matrix.rows, matrix.cols, frozenset(matrix.entries.items())))


def _pooled(args, kwargs) -> bool:
    """Whether util.pmap(fn, items, jobs) starts a pool, by its own rule."""
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    return bool(jobs and jobs > 1 and len(args[1]) > 3)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.pid = os.getpid()
        self.stack = []  # [layer, child_seconds, bookkeeping_at_start]
        self.depth = {}
        self.bookkeeping = 0.0
        self.stats = {
            layer: {"s": 0.0, "self_s": 0.0, "calls": 0, **dict.fromkeys(EXTRA.get(layer, ()), 0)}
            for layer in LAYERS
        }
        self.distinct_total = {"matrices.rank": 0, "chains.differential_matrix": 0}
        self.seen = {layer: set() for layer in self.distinct_total}

    def end_job(self) -> None:
        """Distinct inputs are counted per job, as a per-process memo would."""
        for layer, seen in self.seen.items():
            self.distinct_total[layer] += len(seen)
            seen.clear()

    def wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            self.stack.append([layer, 0.0, self.bookkeeping])
            self.depth[layer] = self.depth.get(layer, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                _, child, bk0 = self.stack.pop()
                self.depth[layer] -= 1
                dt = t1 - t0 - (self.bookkeeping - bk0)
                stats = self.stats[layer]
                stats["calls"] += 1
                stats["self_s"] += dt - child
                if not self.depth[layer]:
                    stats["s"] += dt
                if self.stack:
                    self.stack[-1][1] += dt
            self._count(layer, stats, dt, args, kwargs, result)
            self.bookkeeping += perf_counter() - t1
            return result

        return traced

    def _count(self, layer, stats, dt, args, kwargs, result) -> None:
        if layer == "matrices.rank":
            stats["max_s"] = max(stats["max_s"], dt)
            stats["nnz_in"] += args[0].nnz
            self.seen[layer].add(_fingerprint(args[0]))
        elif layer == "chains.differential_matrix":
            stats["nnz"] += result.nnz
            self.seen[layer].add(_fingerprint(result))
        elif layer == "chains.weight_blocks":
            stats["blocks"] += len(result)
            stats["nnz"] += sum(block.matrix.nnz for block in result.values())
        elif layer == "util.pmap":
            stats["pooled_calls"] += _pooled(args, kwargs)

    def metrics(self) -> dict:
        self.end_job()
        out = {}
        for layer, stats in self.stats.items():
            for name, value in stats.items():
                out[f"{layer}.{name}"] = value
        for layer, total in self.distinct_total.items():
            out[f"{layer}.distinct"] = total
        calls = out["matrices.rank.calls"]
        out["matrices.rank.useful_ratio"] = out["matrices.rank.distinct"] / calls if calls else 0.0
        return out


def install(tracer: Tracer) -> list:
    """Wrap every layer boundary; returns the patches for ``uninstall``."""
    patches = []
    for layer, targets in LAYERS.items():
        for modname, attr in targets:
            try:
                original = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                continue
            wrapped = tracer.wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if name != "karyhom" and not name.startswith("karyhom."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapped)
    return patches


def uninstall(patches) -> None:
    for module, key, original in reversed(patches):
        setattr(module, key, original)
