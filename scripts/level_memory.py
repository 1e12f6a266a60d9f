"""Peak memory of one det solve per driver, and of one modulus search, as
the entry bound grows.

Two tables, each over the entry bounds n, 2^20 and 2^40, on
uniform-monotone instances from ``cli.generate_instance``:

- solves: for each driver (product-row n=64, product-col n=96, conv n=320:
  the shapes of the benchmark's det workloads), one instance is solved once
  to warm up, then once under tracemalloc.
- searches: for the row and conv drivers, ``find_good_modulus`` runs on the
  instance the driver searches at its top level (``row_level_instances`` or
  ``conv_level_instances`` of ``tests/helpers.py``), once to warm up and
  once under tracemalloc; the table gives its level-0 segment starts and
  the peak per start, the shapes the search's memory model is stated for.

Each peak is the traced peak above the memory in use before the call. Each
checkout runs in its own process, from its own ``src/`` and ``tests/``, so
two commits can be compared on the same instances.

Run from the repository root, for example:

    python3 scripts/level_memory.py --checkout parent=../parent --checkout change=. \\
        --out BENCH_example.json
    python3 scripts/level_memory.py --smoke

With ``--out`` the tables are stored under the file's ``peaks_by_bound`` and
``search_peaks_by_bound`` keys (the file is made if missing; its other keys
are kept), else printed. ``--smoke`` measures this checkout at n=6 and
bounds 6 and 2^40, checks both tables' layout and writes no file.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPES = (("product-row", 64), ("product-col", 96), ("conv", 320))
SEARCH_SHAPES = (("product-row", 64), ("conv", 320))
BOUNDS = (None, 1 << 20, 1 << 40)  # None: the bound n
FAMILY, SEED = "uniform-monotone", 1

# Run in the checkout's own interpreter process: argv[1] is the checkout,
# argv[2] a JSON list of [kind, n, bound]; prints one peak in bytes per cell.
PROBE = """
import json, sys, tracemalloc
sys.path.insert(0, sys.argv[1] + "/src")
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

# As PROBE, for one search on the top level instance; prints the search's
# peak in bytes and its level-0 starts per cell.
SEARCH_PROBE = """
import json, sys, tracemalloc
sys.path.insert(0, sys.argv[1] + "/src")
sys.path.insert(0, sys.argv[1] + "/tests")
from helpers import conv_level_instances, row_level_instances
from minplus import cli
from minplus.modulus import find_good_modulus
from minplus.segments import conv_layout, matrix_layout
for kind, n, bound in json.loads(sys.argv[2]):
    payload = cli.generate_instance(kind, n, bound, %d, %r)
    levels, layout = (conv_level_instances, conv_layout) if kind == "conv" else (row_level_instances, matrix_layout)
    _, inst = next(levels(payload))
    starts = len(layout(inst).starts)
    find_good_modulus(inst)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    find_good_modulus(inst)
    print(tracemalloc.get_traced_memory()[1] - base, starts)
    tracemalloc.stop()
""" % (SEED, FAMILY)


def cells(shapes, bounds) -> list:
    return [[kind, n, bound or n] for kind, n in shapes for bound in bounds]


def probe(code: str, checkout: Path, grid: list) -> list:
    """The probe's output line of each cell of grid, run in checkout, as ints."""
    proc = subprocess.run([sys.executable, "-c", code, str(checkout), json.dumps(grid)],
                          capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise SystemExit(f"level_memory: {checkout} failed: {proc.stderr[-2000:]}")
    return [[int(v) for v in line.split()] for line in proc.stdout.splitlines()]


def table(checkouts: dict, grid: list) -> dict:
    measured = {label: probe(PROBE, path, grid) for label, path in checkouts.items()}
    rows = []
    for t, (kind, n, bound) in enumerate(grid):
        row = {"kind": kind, "n": n, "entry_bound": bound}
        row.update({f"{label}_peak_mb": round(values[t][0] / 1e6, 6) for label, values in measured.items()})
        rows.append(row)
    return {
        "what": f"tracemalloc peak of one det solve ({FAMILY}, seed {SEED}) after a warm-up solve",
        "command": command(checkouts),
        "rows": rows,
    }


def search_table(checkouts: dict, grid: list) -> dict:
    measured = {label: probe(SEARCH_PROBE, path, grid) for label, path in checkouts.items()}
    rows = []
    for t, (kind, n, bound) in enumerate(grid):
        row = {"kind": kind, "n": n, "entry_bound": bound}
        for label, values in measured.items():
            peak, starts = values[t]
            row.update({f"{label}_starts": starts, f"{label}_peak_mb": round(peak / 1e6, 6),
                        f"{label}_bytes_per_start": round(peak / starts, 2)})
        rows.append(row)
    return {
        "what": f"tracemalloc peak of one find_good_modulus on the top level instance of a det solve "
                f"({FAMILY}, seed {SEED}) after a warm-up search, and per level-0 segment start",
        "command": command(checkouts),
        "rows": rows,
    }


def command(checkouts: dict) -> str:
    return "python3 scripts/level_memory.py " + " ".join(f"--checkout {label}=<path>" for label in checkouts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append", default=[],
                    help="label=path of a checkout; repeatable")
    ap.add_argument("--out", type=Path, help="BENCH file to store the tables in")
    ap.add_argument("--smoke", action="store_true", help="this checkout, tiny cells")
    args = ap.parse_args(argv)
    if args.smoke:
        bounds = (None, 1 << 40)
        result = table({"this": ROOT}, cells([(kind, 6) for kind, _ in SHAPES], bounds))
        assert [(r["kind"], r["entry_bound"]) for r in result["rows"]] == [
            (kind, bound or 6) for kind, _ in SHAPES for bound in bounds]
        assert all(r["this_peak_mb"] > 0 for r in result["rows"])
        search = search_table({"this": ROOT}, cells([(kind, 6) for kind, _ in SEARCH_SHAPES], bounds))
        assert [(r["kind"], r["entry_bound"]) for r in search["rows"]] == [
            (kind, bound or 6) for kind, _ in SEARCH_SHAPES for bound in bounds]
        assert all(r["this_starts"] > 0 and r["this_peak_mb"] > 0 and r["this_bytes_per_start"] > 0
                   for r in search["rows"])
        print(json.dumps({"peaks_by_bound": result, "search_peaks_by_bound": search}))
        return 0
    checkouts = dict(spec.split("=", 1) for spec in args.checkout)
    if not checkouts:
        ap.error("give at least one --checkout label=path")
    checkouts = {label: Path(path).resolve() for label, path in checkouts.items()}
    result = table(checkouts, cells(SHAPES, BOUNDS))
    search = search_table(checkouts, cells(SEARCH_SHAPES, BOUNDS))
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        args.out.write_text(json.dumps({**doc, "peaks_by_bound": result, "search_peaks_by_bound": search},
                                       indent=1) + "\n")
    for row in result["rows"] + search["rows"]:
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
