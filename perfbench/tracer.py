"""Span tracer that instruments squint from outside the package.

Each target function is replaced, in every ``squint.*`` module namespace that
holds it (and in dict values of those namespaces, such as dispatch tables),
by a wrapper that records one span per call: parent span id, target key,
start and end time.  Spans stay in memory; ``layer_metrics`` turns them into
the per-layer figures the benchmark reports.  The layer of a target is the
squint module that defines it, which is the first part of its key.
"""
from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute, key).  The functions each module imports from the layer
# below, plus the stages of the Fock oracle, which call each other inside fock.
TARGETS = (
    ("squint.cli", "main", "cli.main"),
    ("squint.resolution", "modified_resolution", "resolution.modified"),
    ("squint.resolution", "standard_resolution", "resolution.standard"),
    ("squint.resolution", "sweep", "resolution.sweep"),
    ("squint.resolution", "optimize_delta2", "resolution.optimize"),
    ("squint.resolution", "refine_working_point", "resolution.refine"),
    ("squint.interferometer", "evaluate", "interferometer.evaluate"),
    ("squint.interferometer", "signal_slope", "interferometer.slope"),
    ("squint.moments", "product_mean", "moments.mean"),
    ("squint.moments", "product_second_moment", "moments.second_moment"),
    ("squint.moments", "product_sigma", "moments.sigma"),
    ("squint.moments", "mean_photon_number", "moments.photons"),
    ("squint.gaussian", "vacuum_state", "gaussian.vacuum"),
    ("squint.gaussian", "two_mode_squeezer", "gaussian.build"),
    ("squint.gaussian", "beam_splitter", "gaussian.build"),
    ("squint.gaussian", "phase_shifter", "gaussian.build"),
    ("squint.gaussian", "apply_symplectic", "gaussian.apply"),
    ("squint.gaussian", "apply_loss", "gaussian.apply"),
    ("squint.fock", "equivalence_grid", "fock.grid"),
    ("squint.fock", "oracle_pipeline", "fock.pipeline"),
    ("squint.fock", "tmsv_fock", "fock.prepare"),
    ("squint.fock", "apply_unitary_fock", "fock.apply_unitary"),
    ("squint.fock", "fock_moments", "fock.measure"),
    ("squint.fock", "photon_number_expectation", "fock.measure"),
)

_SOLVES = ("resolution.modified", "resolution.standard")


class Tracer:
    """In-memory span recorder; install() patches, restore() undoes it."""

    def __init__(self):
        # One [parent id, key, start, end] per call; ids are list indices,
        # so a parent always has a smaller id than its children.
        self.spans: list = []
        self.solves: list = []        # (iterations, converged) per solver call
        self.amps_peak = 0            # largest Fock amplitude tensor seen
        self.bytes_computed = 0       # input + output tensor bytes per unitary
        self.missing: list = []       # targets absent from this squint version
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, key, fn):
        spans, stack = self.spans, self._stack
        after = {"resolution.modified": self._after_solve,
                 "resolution.standard": self._after_solve,
                 "fock.apply_unitary": self._after_unitary}.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [stack[-1] if stack else -1, key, perf_counter(), 0.0]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _after_solve(self, args, result):
        self.solves.append((result.iterations, bool(result.converged)))

    def _after_unitary(self, args, result):
        size_in, size_out = args[0].amplitudes, result.amplitudes
        self.amps_peak = max(self.amps_peak, size_in.size, size_out.size)
        self.bytes_computed += size_in.nbytes + size_out.nbytes

    def install(self) -> "Tracer":
        namespaces = [vars(m) for name, m in list(sys.modules.items())
                      if m is not None and (name == "squint" or name.startswith("squint."))]
        for module, attr, key in TARGETS:
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(key, original)
            for ns in namespaces:
                for name, value in list(ns.items()):
                    if value is original:
                        self._patches.append((ns, name, original))
                        ns[name] = wrapper
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patches.append((value, k, original))
                                value[k] = wrapper
        return self

    def restore(self) -> None:
        for ns, name, original in reversed(self._patches):
            ns[name] = original
        self._patches.clear()


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[0] >= 0:
            own[s[0]] -= s[3] - s[2]
    return own


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the recorded spans, as {name: (value, unit)}."""
    spans = tracer.spans
    own = self_times(spans)
    layer = [s[1].split(".", 1)[0] for s in spans]
    n_calls, self_s, entries = {}, {}, {}
    for i, s in enumerate(spans):
        key = s[1]
        n_calls[key] = n_calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + own[i]
        self_s[layer[i]] = self_s.get(layer[i], 0.0) + own[i]
        if s[0] < 0 or layer[s[0]] != layer[i]:
            entries[layer[i]] = entries.get(layer[i], 0) + 1

    # Evaluations made on behalf of a solver call, at any depth below it.
    in_solve = [False] * len(spans)
    evals_in_solves = 0
    eval_total = 0.0
    for i, s in enumerate(spans):
        p = s[0]
        in_solve[i] = p >= 0 and (in_solve[p] or spans[p][1] in _SOLVES)
        if s[1] == "interferometer.evaluate":
            eval_total += s[3] - s[2]
            evals_in_solves += in_solve[i]

    def ratio(a, b):
        return a / b if b else 0.0

    evals = n_calls.get("interferometer.evaluate", 0)
    solves = len(tracer.solves)
    return {
        "cli.calls": (n_calls.get("cli.main", 0), "count"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "resolution.solves": (solves, "count"),
        "resolution.self_s": (self_s.get("resolution", 0.0), "s"),
        "resolution.evals_per_solve": (ratio(evals_in_solves, solves), "count"),
        "resolution.iterations_per_solve":
            (ratio(sum(it for it, _ in tracer.solves), solves), "count"),
        "resolution.converged_ratio":
            (ratio(sum(ok for _, ok in tracer.solves), solves), "ratio"),
        "interferometer.evaluate.calls": (evals, "count"),
        "interferometer.evaluate.self_s": (self_s.get("interferometer.evaluate", 0.0), "s"),
        "interferometer.evaluate_us": (ratio(eval_total, evals) * 1e6, "us"),
        "interferometer.slope.calls": (n_calls.get("interferometer.slope", 0), "count"),
        "moments.calls": (entries.get("moments", 0), "count"),
        "moments.self_s": (self_s.get("moments", 0.0), "s"),
        "gaussian.calls": (entries.get("gaussian", 0), "count"),
        "gaussian.self_s": (self_s.get("gaussian", 0.0), "s"),
        "gaussian.builds_per_evaluate": (ratio(n_calls.get("gaussian.build", 0), evals), "count"),
        "fock.apply_unitary.calls": (n_calls.get("fock.apply_unitary", 0), "count"),
        "fock.apply_unitary.self_s": (self_s.get("fock.apply_unitary", 0.0), "s"),
        "fock.prepare.self_s": (self_s.get("fock.prepare", 0.0), "s"),
        "fock.measure.self_s": (self_s.get("fock.measure", 0.0), "s"),
        "fock.amps_peak": (tracer.amps_peak, "count"),
        "fock.bytes_computed": (tracer.bytes_computed, "B"),
    }
