"""minplus benchmark: seeded, oracle-gated workloads with a traced layer split.

Run from the repository root:

    python3 perfbench/run.py --workload row-det --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Each workload is a fixed set of instances made by ``cli.generate_instance``
from ``--seed``. They are solved closed-loop: one process, one client, one
instance at a time, in whole passes over the set until ``--seconds`` have
elapsed. BLAS and OpenMP are pinned to one thread before numpy is imported.
Every output is compared with the brute-force oracle outside the timed call.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics. Human-readable
lines come first, and the last line of stdout is one JSON object. The exit
code is 1 when any solve fails or a trace check does not hold, and 2 when the
package cannot be imported from ``src/`` next to this directory.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import ctypes
import json
import math
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5
# Run in a fresh interpreter: how long importing numpy and minplus takes.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import minplus; print(time.perf_counter() - t)"
)
# glibc mallopt parameters and the values pin_allocator() sets.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20  # glibc's ceiling on 64-bit
TRIM_THRESHOLD = 1 << 30
TAIL_PERCENTILES = (90, 75, 50)
MIN_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here (no package, bad arguments)."""


@dataclass(frozen=True)
class Workload:
    why: str
    specs: tuple  # (kind, n, entry_bound) per instance kind
    seeds_per_family: int
    exercises: tuple  # bindings that must record calls in the traced pass
    smoke_specs: tuple
    families: tuple | None = None  # None: every generator family


WORKLOADS = {
    "row-det": Workload(
        why="row det engine: fused scan and per-level modulus search with the n^3 matrix layout",
        specs=(("product-row", 64, 64),),
        seeds_per_family=4,
        exercises=(
            "product_row.validate_promises",
            "product_row.congruent_witness_scan",
            "product_row.find_good_modulus",
            "modulus.matrix_layout",
            "modulus.level_start_deltas",
        ),
        smoke_specs=(("product-row", 6, 12),),
    ),
    "conv-det": Workload(
        why="conv det engine: the same layers through diagonal conv_layout and n^2 scan arrays",
        specs=(("conv", 320, 320),),
        seeds_per_family=4,
        exercises=(
            "convolution.validate_promises",
            "convolution.congruent_witness_scan_conv",
            "convolution.find_good_modulus",
            "modulus.conv_layout",
            "modulus.level_start_deltas",
        ),
        smoke_specs=(("conv", 12, 12),),
    ),
    "verify-mix": Workload(
        why="verification pipeline: NTT counting, one modulus search, segment refinement; no scan",
        specs=(("verify-row", 20, 256), ("verify-col", 20, 256), ("verify-conv", 128, 256)),
        seeds_per_family=1,
        exercises=(
            "product_row.require_valid_instance",
            "product_col.require_valid_instance",
            "convolution.require_valid_instance",
            "product_row.find_good_modulus",
            "product_col.find_good_modulus",
            "convolution.find_good_modulus",
            "modulus.matrix_layout",
            "modulus.conv_layout",
            "modulus.level_start_deltas",
            "product_row.compute_s_matrix",
            "product_col.compute_r_matrix",
            "convolution.compute_s_array",
            "product_row.matrix_layout",
            "product_col.matrix_layout",
            "convolution.conv_layout",
            "product_row.active_level0_bounds",
            "product_col.active_level0_bounds",
            "convolution.active_level0_bounds",
            "product_row.sprime_rows_flat",
            "product_col.rprime_ik_flat",
            "convolution.sprime_conv_flat",
        ),
        smoke_specs=(("verify-row", 5, 16), ("verify-col", 5, 16), ("verify-conv", 8, 16)),
    ),
    "col-det": Workload(
        why="col driver, auto engine picks two-pointer: no modulus search, scan or polyring",
        specs=(("product-col", 96, 96),),
        seeds_per_family=8,
        # adversarial-ties needs 8 two-pointer calls against 12 to 14 for the
        # other families, so with it the median sat between two clusters and
        # moved 32% from run to run.
        families=("uniform-monotone", "bounded-difference", "staircase"),
        exercises=(
            "product_col.validate_promises",
            "product_col.rotate_to_problem2prime",
            "product_col.twopointer_direct",
        ),
        smoke_specs=(("product-col", 6, 12),),
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s.p50", "s"),
    ("solve_s.tail", "s"),
    ("solves_per_s", "1/s"),
    ("peak_mb", "MB"),
)

# (metric, unit); traced() derives each from the layer spans and counters.
PER_LAYER = (
    ("shifting.scan_s", "s"),
    ("shifting.scan_calls", "count"),
    ("shifting.scan_triples", "count"),
    ("shifting.hit_frac", "frac"),
    ("modulus.search_s", "s"),
    ("modulus.search_calls", "count"),
    ("modulus.primes_scored", "count"),
    ("modulus.audit_fail", "count"),
    ("segments.layout_s", "s"),
    ("segments.layout_cells", "count"),
    ("segments.deltas_s", "s"),
    ("segments.refine_s", "s"),
    ("segments.aggregate_s", "s"),
    ("segments.active_level0", "count"),
    ("polyring.count_s", "s"),
    ("polyring.count_calls", "count"),
    ("polyring.ntt_len", "count"),
    ("polyring.freq_madds", "count"),
    ("product_col.twopointer_s", "s"),
    ("product_col.rotate_s", "s"),
    ("driver.self_s", "s"),
    ("core.validate_s", "s"),
    ("core.naive_s", "s"),
    ("ratio.det_over_naive", "ratio"),
    ("trace.solve_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
)


# ---------------------------------------------------------------------------
# package and environment

def import_package() -> None:
    """Import numpy and minplus from src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import minplus
    except ImportError as e:
        raise BenchError(f"cannot import minplus from {SRC}: {e}") from e
    if not Path(minplus.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"minplus was imported from {minplus.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Median import time over SETUP_REPS fresh interpreters, each waited for.

    One import per run varied from 0.15 s to 0.29 s, most of setup_s.
    """
    samples = []
    for _ in range(SETUP_REPS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def pin_allocator() -> str:
    """Fix glibc's mmap and trim thresholds for the whole run.

    By default glibc raises its mmap threshold the first time a large block
    is freed, so whether numpy temporaries of a few hundred KB are served
    from the heap or by fresh page-faulting mmaps depends on allocation
    history. On conv n=256 that flipped the solve time between 0.065 s and
    0.12 s from seed to seed. With both thresholds fixed, blocks below 32 MB
    reuse the heap on every solve; memory is reported by peak_mb instead.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return "default (no glibc mallopt)"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1 or mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) != 1:
        raise BenchError("mallopt refused the allocator thresholds")
    return f"glibc mmap_threshold={MMAP_THRESHOLD} trim_threshold={TRIM_THRESHOLD}"


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def environment(seed: int, allocator: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "allocator": allocator,
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# instances and the oracle gate

@dataclass
class Instance:
    kind: str
    family: str
    seed: int
    solve: object  # () -> output
    oracle: object  # () -> expected output
    expected: object = None
    first_output: object = field(default=None, repr=False)


def prepare(payload: dict) -> Instance:
    import numpy as np
    from minplus import cli, convolution, core, product_col, product_row

    kind = payload["kind"]
    bound = payload["entry_bound"]
    if kind in ("product-row", "product-col", "conv"):
        A = np.asarray(payload["A"], dtype=np.int64)
        B = np.asarray(payload["B"], dtype=np.int64)
    if kind == "product-row":
        tag = core.MonotoneTag(axis="row-monotone", entry_bound=bound)
        solve = lambda: product_row.minplus_monotone_row(A, B, tag)  # noqa: E731
        oracle = lambda: core.minplus_product_naive(A, B)  # noqa: E731
    elif kind == "product-col":
        tag = core.MonotoneTag(axis="column-monotone", entry_bound=bound)
        solve = lambda: product_col.minplus_monotone_col(A, B, tag)  # noqa: E731
        oracle = lambda: core.minplus_product_naive(A, B)  # noqa: E731
    elif kind == "conv":
        tag = core.MonotoneTag(axis="array-monotone", entry_bound=bound)
        solve = lambda: convolution.minplus_conv_monotone(A, B, tag)  # noqa: E731
        oracle = lambda: core.minplus_convolution_naive(A, B)  # noqa: E731
    else:
        inst = cli._instance_from(payload)
        solver, axis = {
            "verify-row": (product_row.solve_verification_row, "ij"),
            "verify-col": (product_col.solve_verification_col, "ik"),
            "verify-conv": (convolution.solve_verification_conv, "k"),
        }[kind]
        solve = lambda: solver(inst)  # noqa: E731
        oracle = lambda: core.witness_mask_naive(inst, axis)  # noqa: E731
    return Instance(kind=kind, family=payload["family"], seed=payload["seed"], solve=solve, oracle=oracle)


def build_instances(specs: tuple, families: tuple | None, seeds_per_family: int, seed: int) -> list:
    from minplus import cli

    out = []
    for kind, n, bound in specs:
        for family in families or cli.FAMILIES:
            for _ in range(seeds_per_family):
                payload = cli.generate_instance(kind, n, bound, seed * 1000 + len(out), family)
                out.append(prepare(payload))
    return out


def matches(out, want) -> bool:
    """The oracle gate: exact equality of values, shape and origin."""
    import numpy as np
    from minplus.core import IntArray

    if isinstance(want, IntArray):
        return isinstance(out, IntArray) and out.origin == want.origin and np.array_equal(out.values, want.values)
    return isinstance(out, np.ndarray) and out.shape == want.shape and np.array_equal(out, want)


def output_payload(kind: str, out) -> dict:
    """The output file body ``minplus run`` writes for this kind."""
    from minplus import cli

    if kind == "conv":
        body = {"C": out.values.tolist(), "origin": out.origin}
    elif kind.startswith("verify"):
        body = {"mask": out.astype(int).tolist()}
    else:
        body = {"C": out.tolist()}
    return {"format": cli.FORMAT_VERSION, "kind": "output", "of_kind": kind, **body}


def digest(instances: list) -> str:
    from minplus import cli

    data = b"".join(cli.canonical_bytes(output_payload(i.kind, i.first_output)) for i in instances)
    return cli.checksum_of(data)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def solve(self, inst: Instance, run) -> tuple:
        """Run one solve through ``run`` and gate its output; returns (ok, seconds)."""
        self.attempted += 1
        try:
            out, dt = run(inst.solve)
        except Exception:  # a failing solve is counted and reported, never fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return False, 0.0
        if not matches(out, inst.expected):
            self.failed += 1
            print(f"oracle mismatch: {inst.kind} {inst.family} seed={inst.seed}", file=sys.stderr)
            return False, dt
        if inst.first_output is None:
            inst.first_output = out
        return True, dt


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# passes

def setup(specs: tuple, families: tuple | None, seeds_per_family: int, seed: int) -> tuple:
    """Generate and prepare the instances, then one warm-up solve; repeated.

    setup_s is the median import time plus the median of SETUP_REPS set-ups.
    """
    samples = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        instances = build_instances(specs, families, seeds_per_family, seed)
        instances[0].solve()
        samples.append(time.perf_counter() - t0)
    for inst in instances:
        inst.expected = inst.oracle()
    return instances, import_seconds() + statistics.median(samples)


def tail(times: list) -> tuple:
    """Highest of TAIL_PERCENTILES with MIN_BEYOND samples above it (nearest rank)."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def end_to_end(instances: list, seeds_per_family: int, seconds: float, setup_s: float) -> tuple:
    tally = Tally()
    times = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for inst in instances:
            ok, dt = tally.solve(inst, timed)
            if ok:
                times.append(dt)
        passes += 1
    solve_total = sum(times)

    # Memory in its own untimed pass, one instance per kind and family (the
    # peak follows the shapes): the peak above the pre-solve baseline.
    peaks = []
    tracemalloc.start()
    try:
        for inst in instances[::seeds_per_family]:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tally.solve(inst, timed)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()

    if not times:
        raise BenchError("no solve succeeded")
    p, tail_v, beyond = tail(times)
    metrics = {
        "setup_s": setup_s,
        "solve_s.p50": statistics.median(times),
        "solve_s.tail": tail_v,
        "solves_per_s": len(times) / solve_total,
        "peak_mb": max(peaks) / 1e6,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPS} imports + median of {SETUP_REPS} (generation, one warm-up solve)",
        "solve_s.p50": f"median of {len(times)} solves, {passes} passes",
        "solve_s.tail": f"p{p} of {len(times)} solves, {beyond} beyond it",
        "solves_per_s": f"{len(times)} correct solves / {solve_total:.3f} s of solve time",
        "peak_mb": f"largest tracemalloc peak of {len(peaks)} solves, untimed pass",
        "failed_frac": f"{tally.failed} of {tally.attempted} attempted (oracle mismatches + exceptions)",
    }
    metrics_units = dict(END_TO_END)
    lines = [f"{k:<14} {v:.6g} {metrics_units[k]:<5} ({notes[k]})" for k, v in metrics.items()]
    lines.append(f"{'failed_frac':<14} {tally.failed / tally.attempted:.6g} frac  ({notes['failed_frac']})")
    return tally, {k: (v, metrics_units[k]) for k, v in metrics.items()}, lines


def traced(name: str, workload: Workload, instances: list, seconds: float, smoke: bool) -> tuple:
    """Alternate untraced and traced passes; derive per-layer self times."""
    from tracer import BINDINGS, ROOT_LAYER, Tracer

    tracer = Tracer()
    tally = Tally()
    untraced_s = traced_s = naive_s = 0.0
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for use_trace in (False, True) if passes % 2 == 0 else (True, False):
            if use_trace:
                with tracer.traced():
                    for idx, inst in enumerate(instances):
                        traced_s += tally.solve(inst, lambda fn, i=idx: tracer.root(i, fn))[1]
            else:
                for inst in instances:
                    untraced_s += tally.solve(inst, timed)[1]
        for inst in instances:
            naive_s += timed(inst.oracle)[1]
        passes += 1

    solves = passes * len(instances)
    self_s = tracer.self_times()
    calls = {}
    for binding, (layer, _) in BINDINGS.items():
        calls[layer] = calls.get(layer, 0) + tracer.calls[binding]
    c = tracer.counts
    layer_s = lambda layer: self_s.get(layer, 0.0) / solves  # noqa: E731
    per_solve = lambda x: x / solves  # noqa: E731
    metrics = {
        "shifting.scan_s": layer_s("shifting.scan"),
        "shifting.scan_calls": per_solve(calls["shifting.scan"]),
        "shifting.scan_triples": per_solve(c["shifting.scan_triples"]),
        "shifting.hit_frac": c["shifting.hits"] / c["shifting.cells"] if c["shifting.cells"] else 0.0,
        "modulus.search_s": layer_s("modulus.search"),
        "modulus.search_calls": per_solve(calls["modulus.search"]),
        "modulus.primes_scored": per_solve(c["modulus.primes_scored"]),
        "modulus.audit_fail": per_solve(c["modulus.audit_fail"]),
        "segments.layout_s": layer_s("segments.layout"),
        "segments.layout_cells": per_solve(c["segments.layout_cells"]),
        "segments.deltas_s": layer_s("segments.deltas"),
        "segments.refine_s": layer_s("segments.refine"),
        "segments.aggregate_s": layer_s("segments.aggregate"),
        "segments.active_level0": per_solve(c["segments.active_level0"]),
        "polyring.count_s": layer_s("polyring.count"),
        "polyring.count_calls": per_solve(calls["polyring.count"]),
        "polyring.ntt_len": c["polyring.ntt_len"],
        "polyring.freq_madds": per_solve(c["polyring.freq_madds"]),
        "product_col.twopointer_s": layer_s("product_col.twopointer"),
        "product_col.rotate_s": layer_s("product_col.rotate"),
        "driver.self_s": layer_s(ROOT_LAYER),
        "core.validate_s": layer_s("core.validate"),
        "core.naive_s": naive_s / solves,
        "ratio.det_over_naive": untraced_s / naive_s,
        "trace.solve_s": traced_s / solves,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.coverage": sum(v for k, v in self_s.items() if k != ROOT_LAYER) / traced_s,
    }

    problems = []
    missing = [b for b in workload.exercises if tracer.calls[b] == 0]
    if missing:
        problems.append(f"wrappers recorded no calls on a workload that exercises them: {missing}")
    self_total = sum(self_s.values())
    if abs(self_total - traced_s) > 0.05 * traced_s:
        problems.append(f"layer self times sum to {self_total:.4f} s, traced solves took {traced_s:.4f} s")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{'smoke-' if smoke else ''}{name}.json"
    spans_path.write_text(json.dumps({
        "bindings": {b: layer for b, (layer, _) in BINDINGS.items()},
        "calls": dict(tracer.calls),
        "span_fields": ["layer", "start", "end", "parent", "instance"],
        "spans": tracer.spans,
    }))

    units = dict(PER_LAYER)
    lines = [f"traced {solves} solves in {passes} passes (per-layer values are means per solve)"]
    for metric, value in metrics.items():
        share = ""
        if units[metric] == "s" and metric not in ("core.naive_s", "trace.solve_s"):
            share = f"  {100 * value / metrics['trace.solve_s']:5.1f}% of traced solve"
        lines.append(f"{metric:<24} {value:<12.6g} {units[metric]}{share}")
    lines.append(f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return tally, {k: (v, units[k]) for k, v in metrics.items()}, lines, problems


# ---------------------------------------------------------------------------
# one run

def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple:
    """One benchmark run; returns (result dict, report lines)."""
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    allocator = pin_allocator()
    import_package()
    workload = WORKLOADS[name]
    specs = workload.smoke_specs if smoke else workload.specs
    instances, setup_s = setup(specs, workload.families, workload.seeds_per_family, seed)
    lines = [
        f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}{' smoke' if smoke else ''}",
        "env " + json.dumps(environment(seed, allocator), sort_keys=True),
        f"workload {name}: {workload.why}",
        "instances " + ", ".join(f"{k} n={n} bound={b}" for k, n, b in specs)
        + f"; {len(instances)} instances, {workload.seeds_per_family} per kind and family;"
        " closed loop, 1 client, whole passes",
    ]
    problems = []
    if trace:
        tally, metrics, body, problems = traced(name, workload, instances, seconds, smoke)
    else:
        tally, metrics, body = end_to_end(instances, workload.seeds_per_family, seconds, setup_s)
    lines += body
    if all(i.first_output is not None for i in instances):
        lines.append(f"digest {digest(instances)} (all outputs, instance order)")
    lines += [f"ERROR {p}" for p in problems]
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


# ---------------------------------------------------------------------------
# smoke mode: the benchmark's own test

def smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for trace, key, names in ((False, "end_to_end", END_TO_END), (True, "per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(names), key
    for name in WORKLOADS:
        for trace, names in ((False, END_TO_END + (("failed_frac", "frac"),)), (True, PER_LAYER)):
            result, lines = run(name, seed=1, seconds=0.2, trace=trace, smoke=True)
            assert result["correct"], (name, trace, lines)
            printed = {line.split()[0]: line.split()[2] for line in lines if len(line.split()) > 2}
            for metric, unit in names:
                assert printed.get(metric) == unit, f"{name}: {metric} not printed with unit {unit}"
                assert metric == "failed_frac" or result["metrics"][metric]["unit"] == unit
            assert result["metrics"].keys() == {m for m, _ in names} - {"failed_frac"}
            print(f"smoke {name} trace={int(trace)}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} solves, ok")

    # The gate must flag a corrupted copy of a result; the solver is not touched.
    from minplus.core import IntArray

    for name, workload in WORKLOADS.items():
        inst = build_instances(workload.smoke_specs, workload.families, 1, seed=1)[0]
        inst.expected = inst.oracle()
        out = inst.solve()
        bad = copy.deepcopy(out)
        flat = (bad.values if isinstance(bad, IntArray) else bad).reshape(-1)
        flat[0] = not flat[0] if flat.dtype == bool else flat[0] + 1
        tally = Tally()
        assert tally.solve(inst, lambda fn: (out, 0.0))[0] and tally.failed == 0
        assert not tally.solve(inst, lambda fn: (bad, 0.0))[0] and tally.failed == 1, name
    print("smoke oracle gate: corrupted copies flagged on every workload")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny-n self-test of every workload and metric")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            smoke()
            return 0
        if args.workload is None:
            raise BenchError("--workload is required")
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
