"""Time the modulus search, the verify solvers and the four sum kernels of
two checkouts, alternating them in one process.

Each checkout's ``minplus`` is loaded from its own ``src/`` under its own
module name, so one process holds both. For each search case (verify-conv
n=1024 and verify-row n=64, both at entry bound 10^6, where nearly every
cell starts a segment) the script times ``find_good_modulus`` and the
case's verify solver on one generated instance. For each kernel case it
times one kernel on the arguments it takes at a benchmark shape: the two
equality scans on the finest level (h = 0) of a det solve, captured from
the first checkout (product-row n=64 and conv n=320, each at bound n, with
the shifts (0, 1)), and the two congruence counts on a verify instance at
Q = 143 (verify-row n=20 and verify-conv n=128, bound 256). The
checkouts take turns, first one first in odd rounds and the other first in
even ones. A search figure is the minimum over ``--rounds`` rounds of one
call, a kernel figure the minimum over the rounds of the mean of
KERNEL_REPEATS calls, in seconds, with the change's in percent of the first
checkout's.

Run from the repository root, for example:

    python3 scripts/search_timing.py --checkout parent=../parent --checkout change=. \\
        --rounds 5 --out BENCH_example.json
    python3 scripts/search_timing.py --smoke

With ``--out`` the tables are stored under the file's ``search_timing`` and
``kernel_timing`` keys (the file is made if missing; its other keys are
kept), else printed. ``--smoke`` times this checkout against itself on tiny
cases, one round, checks the layout, prints the kernel table and then the
search table, one JSON line each, and writes no file.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = (("verify-conv", 1024, 10**6), ("verify-row", 64, 10**6))
# (kernel, its module, the module whose binding a det solve calls, kind, n,
# entry bound): each kernel at its benchmark workload's shape. The counts
# are called by no det solve.
KERNELS = (
    ("congruent_witness_scan", "shifting", "product_row", "product-row", 64, 64),
    ("congruent_witness_scan_conv", "shifting", "convolution", "conv", 320, 320),
    ("count_congruent", "polyring", None, "verify-row", 20, 256),
    ("count_congruent_conv", "polyring", None, "verify-conv", 128, 256),
)
SMOKE_SIZES = {"product-row": (6, 12), "conv": (12, 12), "verify-row": (5, 16), "verify-conv": (8, 16)}
COUNT_Q = 143
KERNEL_REPEATS = 200
FAMILY, SEED = "uniform-monotone", 1


def load(name: str, checkout: Path):
    """The checkout's minplus.cli, with its package imported as name."""
    src = checkout / "src" / "minplus"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return importlib.import_module(f"{name}.cli")


def load_all(checkouts: dict) -> dict:
    """Each checkout's minplus.cli by label, the packages named minplus_0, minplus_1."""
    return {label: load(f"minplus_{i}", path) for i, (label, path) in enumerate(checkouts.items())}


def seconds(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def seconds_per_call(fn, *args) -> float:
    start = time.perf_counter()
    for _ in range(KERNEL_REPEATS):
        fn(*args)
    return (time.perf_counter() - start) / KERNEL_REPEATS


def scan_arguments(cli, caller: str, name: str, payload: dict) -> tuple:
    """The arguments of the last call of caller.name, the finest level of
    the det solve of payload."""
    module = importlib.import_module(f"{cli.__package__}.{caller}")
    real, calls = getattr(module, name), []

    def capture(*args):
        calls.append(args)
        return real(*args)

    setattr(module, name, capture)
    try:
        cli._solve(payload, payload["kind"], cli.SolverConfig())
    finally:
        setattr(module, name, real)
    return calls[-1]


def kernel_table(clis: dict, kernels, rounds: int) -> dict:
    labels = list(clis)
    rows = []
    for name, home, caller, kind, n, bound in kernels:
        first = clis[labels[0]]
        payload = first.generate_instance(kind, n, bound, SEED, FAMILY)
        if caller:
            args = scan_arguments(first, caller, name, payload)
        else:
            inst = first._instance_from(payload)
            operands = (inst.A, inst.B, inst.C) if kind == "verify-row" else (
                inst.A.values, inst.B.values, inst.C.values)
            args = (*operands, COUNT_Q)
        fns = {label: getattr(importlib.import_module(f"{cli.__package__}.{home}"), name)
               for label, cli in clis.items()}
        best = {label: float("inf") for label in labels}
        for r in range(rounds):
            for label in labels if r % 2 == 0 else labels[::-1]:
                best[label] = min(best[label], seconds_per_call(fns[label], *args))
        row = {"kernel": name, "kind": kind, "n": n, "entry_bound": bound}
        row.update({"shifts": list(args[-1])} if caller else {"Q": COUNT_Q})
        row.update({f"{label}_min_s": round(best[label], 7) for label in labels})
        if len(labels) == 2:
            row["change_pct"] = round(100 * (best[labels[1]] / best[labels[0]] - 1), 1)
        rows.append(row)
    return {
        "what": f"minimum over {rounds} in-process rounds, checkouts alternating, of the mean of "
                f"{KERNEL_REPEATS} calls on one instance's arguments ({FAMILY}, seed {SEED})",
        "command": "python3 scripts/search_timing.py " + " ".join(
            f"--checkout {label}=<path>" for label in labels) + f" --rounds {rounds}",
        "rows": rows,
    }


def table(clis: dict, cases, rounds: int) -> dict:
    labels = list(clis)
    rows = []
    for kind, n, bound in cases:
        payload = clis[labels[0]].generate_instance(kind, n, bound, SEED, FAMILY)
        calls = {}
        for label, cli in clis.items():
            inst = cli._instance_from(payload)
            calls[label] = {"find_good_modulus": (cli.find_good_modulus, inst), kind: (cli.SOLVERS[kind][0], inst)}
        best = {label: {what: float("inf") for what in calls[label]} for label in labels}
        for r in range(rounds):
            for label in labels if r % 2 == 0 else labels[::-1]:
                for what, (fn, inst) in calls[label].items():
                    best[label][what] = min(best[label][what], seconds(fn, inst))
        for what in best[labels[0]]:
            row = {"kind": kind, "n": n, "entry_bound": bound, "timed": what}
            row.update({f"{label}_min_s": round(best[label][what], 6) for label in labels})
            if len(labels) == 2:
                row["change_pct"] = round(100 * (best[labels[1]][what] / best[labels[0]][what] - 1), 1)
            rows.append(row)
    return {
        "what": f"minimum over {rounds} in-process rounds, checkouts alternating, of one call "
                f"({FAMILY}, seed {SEED})",
        "command": "python3 scripts/search_timing.py " + " ".join(
            f"--checkout {label}=<path>" for label in labels) + f" --rounds {rounds}",
        "rows": rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append", default=[], help="label=path of a checkout; repeatable")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--out", type=Path, help="BENCH file to store the table in")
    ap.add_argument("--smoke", action="store_true", help="this checkout against itself, tiny cases")
    args = ap.parse_args(argv)
    if args.smoke:
        clis = load_all({"parent": ROOT, "change": ROOT})
        kernels = kernel_table(clis, [(*k[:4], *SMOKE_SIZES[k[3]]) for k in KERNELS], 1)
        assert [r["kernel"] for r in kernels["rows"]] == [k[0] for k in KERNELS]
        assert all(r["parent_min_s"] > 0 and r["change_min_s"] > 0 for r in kernels["rows"])
        print(json.dumps(kernels))
        result = table(clis, (("verify-conv", 16, 100), ("verify-row", 6, 100)), 1)
        assert [(r["kind"], r["timed"]) for r in result["rows"]] == [
            ("verify-conv", "find_good_modulus"), ("verify-conv", "verify-conv"),
            ("verify-row", "find_good_modulus"), ("verify-row", "verify-row")]
        assert all(r["parent_min_s"] > 0 and r["change_min_s"] > 0 for r in result["rows"])
        print(json.dumps(result))
        return 0
    checkouts = {label: Path(path).resolve() for label, path in (spec.split("=", 1) for spec in args.checkout)}
    if len(checkouts) not in (1, 2):
        ap.error("give one or two --checkout label=path")
    clis = load_all(checkouts)
    kernels = kernel_table(clis, KERNELS, args.rounds)
    result = table(clis, CASES, args.rounds)
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.update(search_timing=result, kernel_timing=kernels)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for row in kernels["rows"] + result["rows"]:
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
