"""Time the convolution congruence count ``polyring.count_congruent_conv``.

For each cell (n, Q) of the grid the script draws non-decreasing operands a
and b of length n and candidates c of length 2n - 1 (entries in [1, 4n],
seeded), and times ``count_congruent_conv(a, b, c, Q)``: the median of
``--repeats`` calls after one warm-up call. It prints one line per cell and
then one JSON line with every record, including a digest of the counts, so
that two checkouts timed on the same grid can be checked for equal answers.

Run from the repository root, against this checkout's ``src/`` or another:

    python3 scripts/conv_count_timing.py
    python3 scripts/conv_count_timing.py --src ../other/src --cells 128:143,1024:143

The default grid is n in {128, 1024, 4096, 16384} x Q in {143, 1147, 16144}.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (128, 1024, 4096, 16384)
ORDERS = (143, 1147, 16144)


def operands(n: int, seed: int) -> tuple:
    import numpy as np

    rng = np.random.default_rng(seed * 100003 + n)
    a = np.sort(rng.integers(1, 4 * n + 1, n))
    b = np.sort(rng.integers(1, 4 * n + 1, n))
    c = rng.integers(1, 4 * n + 1, 2 * n - 1)
    return a, b, c


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the minplus package")
    ap.add_argument("--cells", default=None, help="comma-separated n:Q cells (default: the full grid)")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.cells:
        cells = [tuple(int(x) for x in cell.split(":")) for cell in args.cells.split(",")]
    else:
        cells = [(n, Q) for n in SIZES for Q in ORDERS]
    sys.path.insert(0, str(Path(args.src).resolve()))
    from minplus.polyring import count_congruent_conv

    records = []
    for n, Q in cells:
        a, b, c = operands(n, args.seed)
        counts = count_congruent_conv(a, b, c, Q)
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            count_congruent_conv(a, b, c, Q)
            times.append(time.perf_counter() - t0)
        ms = 1e3 * statistics.median(times)
        digest = hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()[:16]
        records.append({"n": n, "Q": Q, "ms": round(ms, 3), "hits": int(counts.sum()), "digest": digest})
        print(f"n={n:>6} Q={Q:>6} {ms:>10.3f} ms  hits={int(counts.sum())}  {digest}", flush=True)
    print(json.dumps({"src": args.src, "repeats": args.repeats, "seed": args.seed, "runs": records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
