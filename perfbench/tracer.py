"""Span tracing of the minplus layers, installed from outside the package.

The drivers bind their helpers with ``from .x import y``, so a helper is
looked up in the namespace of the module that calls it. ``traced()`` swaps
each binding listed in ``BINDINGS`` for a wrapper that records a span, and
restores the originals on exit. Nothing in ``minplus`` is edited.

A span is ``[layer, start, end, parent, instance]`` with times from
``time.perf_counter``; ``parent`` is the index of the enclosing span or -1.
The benchmark opens one root span, layer ``driver``, around each solve, so a
layer's self time is its span time minus the time of its direct children.

Counts marked *computed* below come from argument shapes, not from the work
done: ``shifting.scan_triples``, ``segments.layout_cells``,
``polyring.ntt_len`` and ``polyring.freq_madds``.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

from minplus.polyring import next_pow2


def _scan_counts(c, args, mask):
    A, B = args[0], args[1]
    c["shifting.scan_triples"] += A.shape[0] * A.shape[1] * B.shape[1]  # computed
    c["shifting.hits"] += int(mask.sum())
    c["shifting.cells"] += mask.size


def _scan_conv_counts(c, args, mask):
    n = args[0].shape[0]
    c["shifting.scan_triples"] += n * n  # computed
    c["shifting.hits"] += int(mask.sum())
    c["shifting.cells"] += mask.size


def _search_counts(c, args, out):
    _, report = out
    c["modulus.primes_scored"] += sum(len(step.table.primes) for step in report.steps)
    c["modulus.audit_fail"] += not report.audit_ok


def _layout_counts(c, args, layout):
    c["segments.layout_cells"] += layout.size  # computed from the shapes


def _refine_counts(c, args, out):
    c["segments.active_level0"] += len(out[0])


def _matrix_count_counts(c, args, out):
    inst, Q = args[0], args[1]
    na, nb = inst.A.shape
    L = next_pow2(2 * Q - 1) if Q > 1 else 1  # computed, as in polymat_mul
    c["polyring.ntt_len"] = max(c["polyring.ntt_len"], L)
    c["polyring.freq_madds"] += L * na * nb * inst.B.shape[1]


def _conv_count_counts(c, args, out):
    inst, Q = args[0], args[1]
    ny = 2 * len(inst.A.values) - 1
    L = next_pow2(next_pow2(2 * Q - 1) * ny)  # computed, as in bivariate_convolve
    c["polyring.ntt_len"] = max(c["polyring.ntt_len"], L)
    c["polyring.freq_madds"] += L


# "module.attribute" -> (layer, counter hook). The module is the caller's
# namespace, not the one that defines the function.
BINDINGS = {
    "product_row.congruent_witness_scan": ("shifting.scan", _scan_counts),
    "product_col.congruent_witness_scan": ("shifting.scan", _scan_counts),
    "convolution.congruent_witness_scan_conv": ("shifting.scan", _scan_conv_counts),
    "product_row.find_good_modulus": ("modulus.search", _search_counts),
    "product_col.find_good_modulus": ("modulus.search", _search_counts),
    "convolution.find_good_modulus": ("modulus.search", _search_counts),
    "modulus.matrix_layout": ("segments.layout", _layout_counts),
    "modulus.conv_layout": ("segments.layout", _layout_counts),
    "product_row.matrix_layout": ("segments.layout", _layout_counts),
    "product_col.matrix_layout": ("segments.layout", _layout_counts),
    "convolution.conv_layout": ("segments.layout", _layout_counts),
    "modulus.level_start_deltas": ("segments.deltas", None),
    "product_row.active_level0_bounds": ("segments.refine", _refine_counts),
    "product_col.active_level0_bounds": ("segments.refine", _refine_counts),
    "convolution.active_level0_bounds": ("segments.refine", _refine_counts),
    "product_row.sprime_rows_flat": ("segments.aggregate", None),
    "product_col.rprime_ik_flat": ("segments.aggregate", None),
    "convolution.sprime_conv_flat": ("segments.aggregate", None),
    "product_row.compute_s_matrix": ("polyring.count", _matrix_count_counts),
    "product_col.compute_r_matrix": ("polyring.count", _matrix_count_counts),
    "convolution.compute_s_array": ("polyring.count", _conv_count_counts),
    "product_col.twopointer_direct": ("product_col.twopointer", None),
    "product_col.rotate_to_problem2prime": ("product_col.rotate", None),
    "product_row.validate_promises": ("core.validate", None),
    "product_col.validate_promises": ("core.validate", None),
    "convolution.validate_promises": ("core.validate", None),
    "product_row.require_valid_instance": ("core.validate", None),
    "product_col.require_valid_instance": ("core.validate", None),
    "convolution.require_valid_instance": ("core.validate", None),
}

ROOT_LAYER = "driver"


class Tracer:
    """In-memory spans, per-binding call counts and computed counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.counts: defaultdict = defaultdict(int)
        self.instance = -1
        self._stack = [-1]

    def open(self, layer: str) -> int:
        self.spans.append([layer, time.perf_counter(), 0.0, self._stack[-1], self.instance])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def root(self, instance: int, fn):
        """Run one solve under a root span; returns (output, wall seconds)."""
        self.instance = instance
        t0 = time.perf_counter()
        idx = self.open(ROOT_LAYER)
        try:
            out = fn()
        finally:
            self.close(idx)
        return out, time.perf_counter() - t0

    def self_times(self) -> dict:
        """Sum of self time per layer over all recorded spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict = defaultdict(float)
        for (layer, start, end, _, _), c in zip(self.spans, child):
            out[layer] += end - start - c
        return dict(out)

    def _wrap(self, binding: str, layer: str, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.calls[binding] += 1
            if count is not None:
                count(self.counts, args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def traced(self):
        """Install a wrapper at every binding; restore the originals on exit."""
        saved = []
        try:
            for binding, (layer, count) in BINDINGS.items():
                mod_name, attr = binding.split(".")
                mod = importlib.import_module(f"minplus.{mod_name}")
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(binding, layer, fn, count))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
