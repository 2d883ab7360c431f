"""Span tracing of blindcrb's public functions, installed from outside.

``Tracer.install`` wraps every public function of the traced modules, and
``Channel.toeplitz``, and rebinds each wrapper in every blindcrb namespace
that imported the original, so calls between modules are traced too. A span
is ``(layer, start_ns, end_ns, parent_index, job_id)``; spans stay in memory
until ``write_spans``. A layer's self time is its span's duration minus the
durations of its direct child spans (one thread, so children never overlap).
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("cli", "channel", "identifiability", "fim", "crb", "linalg", "simulate")

# functions reported under one layer name; every other public function
# ``module.f`` is its own layer
_MERGED = {
    "simulate.experiment_symbols": "simulate.draw",
    "simulate.draw_noise": "simulate.draw",
    "identifiability.deterministic_verdict": "identifiability.verdict",
    "identifiability.gaussian_verdict": "identifiability.verdict",
    "cli.main": "cli",
}

# layers whose numbers go into the benchmark's per-layer metrics; the
# printed table covers every traced function
KEY_LAYERS = (
    "cli",
    "fim.gaussian_moment_stack", "fim.gaussian_fim_generic",
    "fim.deterministic_fim", "fim.deterministic_reduced_fim",
    "fim.schur_reduce", "fim.analyze_singularities",
    "linalg.pseudo_inverse", "linalg.complement_projector", "linalg.projector",
    "linalg.range_basis", "linalg.hermitian_nullity",
    "crb.constrained_crb", "crb.minimal_crb",
    "channel.toeplitz", "channel.block_toeplitz", "channel.commutativity_op",
    "channel.reducible_decompose", "channel.common_zeros",
    "identifiability.verdict", "identifiability.verdict_vs_fim",
    "simulate.score_covariance_fim", "simulate.stream_rng", "simulate.draw",
    "simulate.alternating_ls_estimator", "simulate.adjust_estimate",
)


def _public_functions(mod, short):
    if short == "cli":
        return {"main": mod.main}
    return {name: getattr(mod, name) for name in mod.__all__
            if inspect.isfunction(getattr(mod, name))
            and getattr(mod, name).__module__ == mod.__name__}


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.counters = defaultdict(int)
        self._stack = []

    def _wrap(self, layer, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.job)
            if hook is not None:
                hook(result)
            return result

        return traced

    def _hooks(self):
        c = self.counters

        def slabs(stack):
            c["fim.slab_bytes"] += stack.cov_jac.nbytes

        def consistency(rec):
            c["identifiability.mismatch"] += int(not rec.passed)

        def als(res):
            c["simulate.als_sweeps"] += res.sweeps
            c["simulate.als_nonconverged"] += int(not res.converged)

        return {"fim.gaussian_moment_stack": slabs,
                "identifiability.verdict_vs_fim": consistency,
                "simulate.alternating_ls_estimator": als}

    def install(self):
        """Wrap the public functions of ``blindcrb`` in place."""
        pkg = importlib.import_module("blindcrb")
        mods = {s: importlib.import_module(f"blindcrb.{s}") for s in MODULES}
        hooks = self._hooks()
        wrappers = {}
        for short, mod in mods.items():
            for name, fn in _public_functions(mod, short).items():
                layer = _MERGED.get(f"{short}.{name}", f"{short}.{name}")
                wrappers[fn] = self._wrap(layer, fn, hooks.get(layer))
        for ns in (pkg, *mods.values()):
            for name, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(ns, name, wrappers[value])
        channel_cls = mods["channel"].Channel
        channel_cls.toeplitz = self._wrap("channel.toeplitz", channel_cls.toeplitz)

    def layer_table(self, job_ms, command=None):
        """Per-layer ``{calls, ms, self_ms, pct, self_pct}`` over the spans of
        jobs running ``command`` (all jobs when None); ``pct`` and
        ``self_pct`` are shares of ``job_ms``, the traced time of those jobs."""
        child_ns = [0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (layer, start, end, _, job) in enumerate(self.spans):
            if command is not None and job.split(":")[1] != command:
                continue
            row = table[layer]
            row["calls"] += 1
            row["ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[i]) / 1e6
        for row in table.values():
            row["pct"] = 100.0 * row["ms"] / job_ms
            row["self_pct"] = 100.0 * row["self_ms"] / job_ms
        return dict(table)

    def write_spans(self, path):
        """Write the spans as gzipped CSV, times in microseconds from the
        first span."""
        t0 = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "layer", "start_us", "end_us", "parent", "job"])
            for i, (layer, start, end, parent, job) in enumerate(self.spans):
                w.writerow([i, layer, (start - t0) // 1000, (end - t0) // 1000, parent, job])
