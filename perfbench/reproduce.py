"""One-off check of the first baseline figures; not gated, not part of a run.

Solves one uniform-monotone instance (seed 0) per case at the sizes the
first baseline quoted, REPS times untraced and REPS times traced, and prints
the median wall time and the median self time of the main layers next to
the quoted figure. Every output is checked against the oracle.

    python3 perfbench/reproduce.py
"""
from __future__ import annotations

import statistics
import sys

import run  # pins BLAS/OpenMP threads before numpy is imported

REPS = 3
# (label, kind, n, entry bound, quoted seconds, layer the quote is about)
CASES = (
    ("row det", "product-row", 128, 256, 2.74, None),
    ("conv det", "conv", 1024, 1024, 2.4, None),
    ("verify-row counting", "verify-row", 64, 256, 2.53, "polyring.count"),
)
SHOWN = ("shifting.scan", "modulus.search", "segments.layout", "segments.deltas", "polyring.count")


def main() -> int:
    allocator = run.pin_allocator()
    run.import_package()
    from minplus import cli
    from tracer import Tracer

    print("env", run.environment(0, allocator))
    for label, kind, n, bound, quoted, layer in CASES:
        inst = run.prepare(cli.generate_instance(kind, n, bound, 0, "uniform-monotone"))
        inst.expected = inst.oracle()
        walls, layers = [], []
        for _ in range(REPS):
            out, dt = run.timed(inst.solve)
            if not run.matches(out, inst.expected):
                raise SystemExit(f"{label}: oracle mismatch")
            walls.append(dt)
            tracer = Tracer()
            with tracer.traced():
                out, _ = tracer.root(0, inst.solve)
            if not run.matches(out, inst.expected):
                raise SystemExit(f"{label}: oracle mismatch under tracing")
            layers.append(tracer.self_times())
        wall = statistics.median(walls)
        split = {k: statistics.median(t.get(k, 0.0) for t in layers) for k in SHOWN}
        measured = wall if layer is None else split[layer]
        print(f"{label} n={n} bound={bound}: {measured:.3f} s measured vs {quoted} s quoted "
              f"({measured / quoted:.2f}x); solve {wall:.3f} s; self s: "
              + ", ".join(f"{k} {v:.3f}" for k, v in split.items() if v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
