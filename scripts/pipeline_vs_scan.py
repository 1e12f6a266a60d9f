"""Time the verification pipeline, layer by layer, against the equality scan.

Each instance is a verify-row or verify-conv file made by
``cli.generate_instance`` (uniform-monotone family) at a given n, entry
bound and shift modulus M. On it the script times the three layers of
``solve_verification_row``/``_conv``, each as its own call:

- ``search``: ``find_good_modulus``, which picks Q;
- ``count``: ``compute_s_matrix``/``compute_s_array`` at that Q;
- ``segments``: the layout, the refinement to the active level-0 segments
  and the aggregation of s' (the mask is s > s');

and the equality scan ``congruent_witness_scan``/``_conv`` on the same
operands. It asserts that the pipeline's mask equals the scan's. Each time
is the median of ``--repeats`` calls.

Run from the repository root:

    python3 scripts/pipeline_vs_scan.py --out BENCH_pipeline_vs_scan.json
    python3 scripts/pipeline_vs_scan.py --smoke

The full sweep covers verify-row at n=64 and verify-conv at n in
{64, 256, 1024}, each at entry bounds {sqrt(n), n, 4n, 10^6} and
M in {100, 300, 1000}. ``--smoke`` runs n=4 and M=100 only and writes no
file. Without ``--out`` the records go to stdout only.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from minplus import cli  # noqa: E402
from minplus.convolution import compute_s_array  # noqa: E402
from minplus.modulus import find_good_modulus  # noqa: E402
from minplus.product_row import compute_s_matrix  # noqa: E402
from minplus.segments import (  # noqa: E402
    active_level0_bounds,
    conv_layout,
    levelmax_for,
    matrix_layout,
    sprime_conv_flat,
    sprime_rows_flat,
)
from minplus.shifting import congruent_witness_scan, congruent_witness_scan_conv  # noqa: E402

FAMILY = "uniform-monotone"
SWEEP = {"verify-row": (64,), "verify-conv": (64, 256, 1024)}
MODULI = (100, 300, 1000)
SMOKE_SWEEP = {"verify-row": (4,), "verify-conv": (4,)}
SMOKE_MODULI = (100,)


def bounds_for(n: int) -> tuple:
    return (math.isqrt(n), n, 4 * n, 10**6)


def timed(repeats: int, fn, *args):
    """(result of the last call, median seconds over repeats calls)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return out, statistics.median(times)


def _segments(inst, Q: int, conv: bool):
    layout = conv_layout(inst) if conv else matrix_layout(inst)
    starts, ends = active_level0_bounds(layout, levelmax_for(inst.M), Q)
    return (sprime_conv_flat if conv else sprime_rows_flat)(layout, starts, ends, Q)


def measure(kind: str, n: int, bound: int, M: int, seed: int, repeats: int) -> dict:
    conv = kind == "verify-conv"
    inst = cli._instance_from(cli.generate_instance(kind, n, bound, seed, FAMILY, M=M))
    operands = (inst.A.values, inst.B.values, inst.C.values) if conv else (inst.A, inst.B, inst.C)
    (Q, _), search_s = timed(repeats, find_good_modulus, inst, M)
    s_counts, count_s = timed(repeats, compute_s_array if conv else compute_s_matrix, inst, Q)
    s_prime, segments_s = timed(repeats, _segments, inst, Q, conv)
    scan = congruent_witness_scan_conv if conv else congruent_witness_scan
    masks, scan_s = timed(repeats, scan, *operands)
    mask = masks[0]
    if not np.array_equal(s_counts > s_prime, mask):
        raise AssertionError(f"pipeline and scan masks differ: {kind} n={n} bound={bound} M={M}")
    pipeline_s = search_s + count_s + segments_s
    return {
        "kind": kind, "n": n, "bound": bound, "M": M, "seed": seed, "Q": int(Q),
        "search_s": round(search_s, 6), "count_s": round(count_s, 6),
        "segments_s": round(segments_s, 6), "pipeline_s": round(pipeline_s, 6),
        "scan_s": round(scan_s, 6), "pipeline_over_scan": round(pipeline_s / scan_s, 1),
        "hits": int(mask.sum()), "cells": int(mask.size),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="tiny sweep, writes no file")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default=None, help="JSON file for the records")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.smoke and args.out:
        ap.error("--smoke writes no file")
    sweep, moduli = (SMOKE_SWEEP, SMOKE_MODULI) if args.smoke else (SWEEP, MODULI)
    runs = []
    print(f"{'kind':<12}{'n':>6}{'bound':>9}{'M':>6}{'search':>10}{'count':>10}"
          f"{'segments':>10}{'pipeline':>10}{'scan':>10}{'ratio':>8}  (ms)")
    for kind, sizes in sweep.items():
        for n in sizes:
            for bound in bounds_for(n):
                for M in moduli:
                    r = measure(kind, n, bound, M, args.seed, args.repeats)
                    runs.append(r)
                    print(f"{kind:<12}{n:>6}{bound:>9}{M:>6}"
                          + "".join(f"{1e3 * r[k]:>10.2f}" for k in
                                    ("search_s", "count_s", "segments_s", "pipeline_s", "scan_s"))
                          + f"{r['pipeline_over_scan']:>8.1f}")
    wins = [r for r in runs if r["pipeline_s"] < r["scan_s"]]
    print(f"pipeline faster than the scan on {len(wins)} of {len(runs)} instances")
    if args.out:
        record = {
            "what": "verification pipeline (modulus search, count, segments) against the "
                    "equality scan on the same verify instances; masks asserted equal",
            "command": "python3 scripts/pipeline_vs_scan.py --out BENCH_pipeline_vs_scan.json",
            "host": {"python": platform.python_version(), "numpy": np.__version__,
                     "machine": platform.machine(), "cpus": os.cpu_count()},
            "family": FAMILY, "repeats": args.repeats, "seed": args.seed,
            "pipeline_wins": len(wins), "runs": runs,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
