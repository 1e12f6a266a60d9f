"""Compare two checkouts on the benchmark in alternating pairs of runs.

Each pair runs ``perfbench/run.py`` once from the parent checkout and once
from the change checkout, each in its own directory and process, with the
same workload, seed, seconds and trace flag. The parent runs first in odd
pairs and second in even ones, so a drift of the host over the runs
falls on both sides alike.

Run from the repository root, for example:

    python3 scripts/ab_pairs.py --parent ../parent --change . \\
        --workload col-det --seed 1 --seed 9 --pairs 10 --seconds 20 \\
        --series col-det --out BENCH_example.json
    python3 scripts/ab_pairs.py --smoke

One call runs one series: every workload and seed given, ``--pairs`` pairs
each. With ``--out`` the runs are added to that file (made if missing) and
its result is recomputed from every run it lists, so several calls build one
``BENCH_*.json``; a call that repeats a series numbers its pairs on from the
file's. The file holds:

- ``result["<series>: <workload> seed <S>"]``, with `` --trace 1`` appended
  for traced runs: per metric, the median and
  interquartile range of each side's runs, the change in percent of the
  parent's median, and how many pairs the change won. The metrics are the
  end-to-end ones for ``--trace 0`` and the per-layer ones for ``--trace 1``,
  each compared in the direction ``BENCHMARK.json`` gives it.
- ``result["digests"]``: per workload and seed, whether every run of both
  sides printed one output digest.
- ``result["failed"]``: the failed solves and non-zero exits of all runs.
- ``runs``: every run made, with its metrics.

Before the first pair, each checkout's ``src/`` is compiled to bytecode
(``python -m compileall -q src``), so both sides import ``minplus`` from a
warm cache. Otherwise a checkout that holds a ``__pycache__`` from an earlier
run imports faster than one that does not, and with PYTHONDONTWRITEBYTECODE
set the uncached side compiles its modules on every import; ``-B`` alone
would not close that, as Python still reads an existing cache. The file
records the method under ``bytecode``.

``--smoke`` compares this checkout with itself: verify-mix, two pairs at
``--trace 0`` and one at ``--trace 1``, 0.2 s each. It checks the layout and
that the digests agree, prints the result and writes no file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds T --trace X"
BYTECODE = "python -m compileall -q src in each checkout before the first pair"
SIDES = ("parent", "change")


class PairsError(Exception):
    """A checkout cannot be run, or a run printed no result."""


def compile_bytecode(checkout: Path) -> None:
    """Compile checkout's src/ to bytecode with this interpreter (BYTECODE)."""
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise PairsError(f"cannot compile {checkout}/src: {proc.stdout[-2000:]}{proc.stderr[-2000:]}")


def bench_run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in checkout: its exit code, digest, host line,
    solve counts and metric values."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=600 + 10 * seconds)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise PairsError(f"no result from {workload} seed {seed} (exit {proc.returncode}): "
                         f"{proc.stderr[-2000:]}") from None
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {
        "exit": proc.returncode,
        "digest": digest,
        "env": env,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def run_series(checkouts: dict, series: str, workloads: list, seeds: list, pairs: int,
               seconds: float, trace: int, done: list = (), log=print) -> tuple:
    """Every run of one series, parent first in odd pairs; returns the runs
    and the host line of the first run. Pairs are numbered on from the runs
    of the same series, workload, seed and trace flag in done."""
    runs, host = [], None
    for workload in workloads:
        for seed in seeds:
            group = (series, workload, seed, trace)
            first = 1 + max((r["pair"] for r in done if _group(r) == group), default=0)
            for pair in range(first, first + pairs):
                for side in SIDES if pair % 2 else SIDES[::-1]:
                    out = bench_run(checkouts[side], workload, seed, seconds, trace)
                    env = out.pop("env")
                    host = host or env
                    runs.append({"series": series, "workload": workload, "seed": seed,
                                 "seconds": seconds, "trace": trace, "pair": pair, "side": side,
                                 "commit": env.get("git_commit"), **out})
                    log(f"{series} {workload} seed={seed} pair={pair} {side}: exit {out['exit']}, "
                        f"{out['failed']} of {out['attempted']} failed")
    return runs, host


def _group(run: dict) -> tuple:
    return run["series"], run["workload"], run["seed"], run["trace"]


def quartiles(values: list) -> list:
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list, better: dict) -> dict:
    """Per metric of a group's runs: medians, IQRs, change and pairs won."""
    by_side = {side: {r["pair"]: r["metrics"] for r in runs if r["side"] == side} for side in SIDES}
    paired = sorted(set(by_side["parent"]) & set(by_side["change"]))
    out = {}
    for metric, direction in better.items():
        values = {side: [m[metric] for m in by_side[side].values() if metric in m] for side in SIDES}
        if not values["parent"] or not values["change"]:
            continue
        q = {side: quartiles(values[side]) for side in SIDES}
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (by_side["change"][p][metric] - by_side["parent"][p][metric]) > 0
                  for p in paired if metric in by_side["change"][p] and metric in by_side["parent"][p])
        base = q["parent"][1]
        out[metric] = {
            "parent_median": round(base, 7),
            "parent_iqr": [round(q["parent"][0], 7), round(q["parent"][2], 7)],
            "change_median": round(q["change"][1], 7),
            "change_iqr": [round(q["change"][0], 7), round(q["change"][2], 7)],
            "change_pct": round(100 * (q["change"][1] - base) / base, 1) if base else None,
            "pairs_won": f"{won}/{len(paired)}",
        }
    return out


def compute_result(runs: list, spec: dict) -> dict:
    """The result block of a BENCH file, from every run it lists."""
    better = {trace: {m["name"]: m["better"] for m in spec[key]}
              for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    groups: dict = {}
    for r in runs:
        groups.setdefault(_group(r), []).append(r)
    result = {}
    for (series, workload, seed, trace), group in groups.items():
        key = f"{series}: {workload} seed {seed}" + (" --trace 1" if trace else "")
        result[key] = summarize(group, better[trace])
    digests: dict = {}
    for r in runs:
        digests.setdefault(f"{r['workload']} seed {r['seed']}", set()).add(r["digest"])
    result["digests"] = {
        key: "equal on both sides in every run" if len(seen) == 1 and None not in seen
        else f"differ: {sorted(map(str, seen))}"
        for key, seen in digests.items()
    }
    failed = sum(r["failed"] for r in runs)
    bad_exits = sum(r["exit"] != 0 for r in runs)
    result["failed"] = f"{failed} failed solves and {bad_exits} non-zero exits in {len(runs)} runs"
    return result


def host_line(env: dict) -> str:
    return (f"{env.get('cpus_usable')} usable cores, Python {env.get('python')}, "
            f"numpy {env.get('numpy')}, {env.get('blas')}, one BLAS thread")


def protocol_line(series, workloads, seeds, pairs, seconds, trace, labels) -> str:
    return (f"series {series}: {pairs} alternating pair(s), parent first in odd pairs, of "
            f"{', '.join(workloads)} at seed(s) {', '.join(map(str, seeds))}, {seconds} s, "
            f"--trace {trace}; parent {labels['parent']}, change {labels['change']}")


def merge(doc: dict, runs: list, protocol: str, host: dict, spec: dict, what, claim) -> dict:
    """doc with the runs of one more series added and its result recomputed."""
    runs = doc.get("runs", []) + runs
    return {
        **doc,
        "what": what or doc.get("what", ""),
        "claim": claim or doc.get("claim", ""),
        "command": COMMAND,
        "bytecode": BYTECODE,
        "host": doc.get("host") or host_line(host),
        "protocol": doc.get("protocol", []) + [protocol],
        "result": compute_result(runs, spec),
        "runs": runs,
    }


def smoke() -> int:
    checkouts = {side: ROOT for side in SIDES}
    compile_bytecode(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {}
    labels = {side: "this checkout" for side in SIDES}
    for pairs, trace in ((2, 0), (1, 1)):
        runs, host = run_series(checkouts, "smoke", ["verify-mix"], [1], pairs, 0.2, trace)
        protocol = protocol_line("smoke", ["verify-mix"], [1], pairs, 0.2, trace, labels)
        doc = merge(doc, runs, protocol, host, spec, "smoke: one checkout against itself", None)
    end_to_end = doc["result"]["smoke: verify-mix seed 1"]
    assert set(end_to_end) == {m["name"] for m in spec["end_to_end"]}, end_to_end
    assert all(v["pairs_won"].endswith("/2") for v in end_to_end.values())
    per_layer = doc["result"]["smoke: verify-mix seed 1 --trace 1"]
    assert set(per_layer) == {m["name"] for m in spec["per_layer"]}, per_layer
    assert len(doc["runs"]) == 6 and doc["bytecode"] == BYTECODE
    assert doc["result"]["digests"] == {"verify-mix seed 1": "equal on both sides in every run"}
    assert doc["result"]["failed"].startswith("0 failed solves and 0 non-zero exits")
    print(json.dumps(doc))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", help="repeatable")
    ap.add_argument("--seed", type=int, action="append", help="repeatable")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--series", default="pairs", help="name of this call's runs in the result")
    ap.add_argument("--label-parent", help="how the file names the parent (default: its commit)")
    ap.add_argument("--label-change", help="how the file names the change (default: its commit)")
    ap.add_argument("--what", help="what is compared, for the file's 'what'")
    ap.add_argument("--claim", help="the claimed gain, for the file's 'claim'")
    ap.add_argument("--out", type=Path, help="BENCH file to add the runs to; stdout without it")
    ap.add_argument("--smoke", action="store_true", help="this checkout against itself, tiny runs")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if not (args.parent and args.change and args.workload):
            ap.error("--parent, --change and --workload are required")
        checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        for side, path in checkouts.items():
            if not (path / "perfbench" / "run.py").is_file():
                raise PairsError(f"{side} checkout has no perfbench/run.py")
            compile_bytecode(path)
        seeds = args.seed or [1]
        spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        doc = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
        runs, host = run_series(checkouts, args.series, args.workload, seeds, args.pairs,
                                args.seconds, args.trace, doc.get("runs", []),
                                log=lambda s: print(s, file=sys.stderr))
        labels = {"parent": args.label_parent, "change": args.label_change}
        for side in SIDES:
            labels[side] = labels[side] or next(
                (r for r in runs if r["side"] == side), {}).get("commit", "unlabelled")
        protocol = protocol_line(args.series, args.workload, seeds, args.pairs, args.seconds,
                                 args.trace, labels)
        doc = merge(doc, runs, protocol, host, spec, args.what, args.claim)
    except PairsError as e:
        print(f"ab_pairs: {e}", file=sys.stderr)
        return 2
    text = json.dumps(doc, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
        for key, value in doc["result"].items():
            print(key, json.dumps(value))
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
