"""Time the modulus search and the verify solvers of two checkouts on large
start counts, alternating them in one process.

Each checkout's ``minplus`` is loaded from its own ``src/`` under its own
module name, so one process holds both. For each case (verify-conv n=1024
and verify-row n=64, both at entry bound 10^6, where nearly every cell
starts a segment) the script times ``find_good_modulus`` and
the case's verify solver on one generated instance, the checkouts taking
turns, first one first in odd rounds and the other first in even ones.
Each figure is the minimum over ``--rounds`` rounds, in seconds, with the
change's in percent of the first checkout's.

Run from the repository root, for example:

    python3 scripts/search_timing.py --checkout parent=../parent --checkout change=. \\
        --rounds 5 --out BENCH_example.json
    python3 scripts/search_timing.py --smoke

With ``--out`` the table is stored under the file's ``search_timing`` key
(the file is made if missing; its other keys are kept), else printed.
``--smoke`` times this checkout against itself on tiny cases, one round,
checks the layout and writes no file.
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
FAMILY, SEED = "uniform-monotone", 1


def load(name: str, checkout: Path):
    """The checkout's minplus.cli, with its package imported as name."""
    src = checkout / "src" / "minplus"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return importlib.import_module(f"{name}.cli")


def seconds(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def table(checkouts: dict, cases, rounds: int) -> dict:
    clis = {label: load(f"minplus_{i}", path) for i, (label, path) in enumerate(checkouts.items())}
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
        result = table({"parent": ROOT, "change": ROOT}, (("verify-conv", 16, 100), ("verify-row", 6, 100)), 1)
        assert [(r["kind"], r["timed"]) for r in result["rows"]] == [
            ("verify-conv", "find_good_modulus"), ("verify-conv", "verify-conv"),
            ("verify-row", "find_good_modulus"), ("verify-row", "verify-row")]
        assert all(r["parent_min_s"] > 0 and r["change_min_s"] > 0 for r in result["rows"])
        print(json.dumps(result))
        return 0
    checkouts = {label: Path(path).resolve() for label, path in (spec.split("=", 1) for spec in args.checkout)}
    if len(checkouts) not in (1, 2):
        ap.error("give one or two --checkout label=path")
    result = table(checkouts, CASES, args.rounds)
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        args.out.write_text(json.dumps({**doc, "search_timing": result}, indent=1) + "\n")
    for row in result["rows"]:
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
