"""Peak memory of one det solve per driver, as the entry bound grows.

For each driver (product-row n=64, product-col n=96, conv n=320: the shapes
of the benchmark's det workloads) and each entry bound (n, 2^20 and 2^40),
one uniform-monotone instance from ``cli.generate_instance`` is solved once
to warm up, then once under tracemalloc; the peak above the memory in use
before the solve is recorded. Each checkout runs in its own process, from
its own ``src/``, so two commits can be compared on the same instances.

Run from the repository root, for example:

    python3 scripts/level_memory.py --checkout parent=../parent --checkout change=. \\
        --out BENCH_example.json
    python3 scripts/level_memory.py --smoke

With ``--out`` the table is stored under the file's ``peaks_by_bound`` key
(the file is made if missing; its other keys are kept), else printed.
``--smoke`` measures this checkout at n=6 and bounds 6 and 2^40, checks the
layout and writes no file.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPES = (("product-row", 64), ("product-col", 96), ("conv", 320))
BOUNDS = (None, 1 << 20, 1 << 40)  # None: the bound n
FAMILY, SEED = "uniform-monotone", 1

# Run in the checkout's own interpreter process: argv[1] is its src/,
# argv[2] a JSON list of [kind, n, bound]; prints one peak in bytes per cell.
PROBE = """
import json, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
from minplus import cli
from minplus.core import MonotoneTag
for kind, n, bound in json.loads(sys.argv[2]):
    payload = cli.generate_instance(kind, n, bound, %d, %r)
    solver, axis, _ = cli.SOLVERS[kind]
    args = (payload["A"], payload["B"], MonotoneTag(axis=axis, entry_bound=bound))
    solver(*args)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    solver(*args)
    print(tracemalloc.get_traced_memory()[1] - base)
    tracemalloc.stop()
""" % (SEED, FAMILY)


def cells(shapes, bounds) -> list:
    return [[kind, n, bound or n] for kind, n in shapes for bound in bounds]


def peaks(checkout: Path, grid: list) -> list:
    """The traced peak in bytes of each cell of grid, solved in checkout."""
    proc = subprocess.run([sys.executable, "-c", PROBE, str(checkout / "src"), json.dumps(grid)],
                          capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise SystemExit(f"level_memory: {checkout} failed: {proc.stderr[-2000:]}")
    return [int(line) for line in proc.stdout.split()]


def table(checkouts: dict, grid: list) -> dict:
    measured = {label: peaks(path, grid) for label, path in checkouts.items()}
    rows = []
    for t, (kind, n, bound) in enumerate(grid):
        row = {"kind": kind, "n": n, "entry_bound": bound}
        row.update({f"{label}_peak_mb": round(values[t] / 1e6, 6) for label, values in measured.items()})
        rows.append(row)
    return {
        "what": f"tracemalloc peak of one det solve ({FAMILY}, seed {SEED}) after a warm-up solve",
        "command": "python3 scripts/level_memory.py " + " ".join(
            f"--checkout {label}=<path>" for label in checkouts),
        "rows": rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append", default=[],
                    help="label=path of a checkout; repeatable")
    ap.add_argument("--out", type=Path, help="BENCH file to store the table in")
    ap.add_argument("--smoke", action="store_true", help="this checkout, tiny cells")
    args = ap.parse_args(argv)
    if args.smoke:
        result = table({"this": ROOT}, cells([(kind, 6) for kind, _ in SHAPES], (None, 1 << 40)))
        assert [(r["kind"], r["entry_bound"]) for r in result["rows"]] == [
            (kind, bound) for kind, _ in SHAPES for bound in (6, 1 << 40)]
        assert all(r["this_peak_mb"] > 0 for r in result["rows"])
        print(json.dumps(result))
        return 0
    checkouts = dict(spec.split("=", 1) for spec in args.checkout)
    if not checkouts:
        ap.error("give at least one --checkout label=path")
    result = table({label: Path(path).resolve() for label, path in checkouts.items()},
                   cells(SHAPES, BOUNDS))
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        args.out.write_text(json.dumps({**doc, "peaks_by_bound": result}, indent=1) + "\n")
    for row in result["rows"]:
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
