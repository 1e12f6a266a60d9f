"""Command-line harness: gen, run, check, bench, stats.

Instance files are canonical JSON (sorted keys, indent 1, single trailing
newline) so outputs diff cleanly and rerunning any command on the same input
reproduces the same bytes. All generator randomness flows from one 64-bit
seed through numpy's counter-based Philox generator.

run, check and bench dispatch every kind through SOLVERS. A product or conv
file runs its driver. A verify file is searched for its modulus Q once, by
find_good_modulus, whose report digest goes into the run report; then its
solve_verification_* solver runs with that Q. A run report's timings hold
only the phases that were measured: solve, and modulus_search for verify
files. A verify file takes no engine: its solver is the verification
pipeline, and run, check and bench refuse any --engine but det for it.

Each command takes only the options it reads: run and bench --engine, --R
and --slack; check those and --oracle-limit, the largest brute-force volume
it accepts; stats --R and --slack. bench --jobs must be at least 1 and
starts at most one worker per file.

Exit codes: 0 success / check passed, 1 check found a mismatch, 2
structured diagnostic (usage error, bad file, broken promise, refused
option or oracle size); bench checks every file before it runs any.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import ENGINES, SolverConfig
from .convolution import _shift_instance_conv, minplus_conv_monotone, solve_verification_conv
from .core import (
    ConvVerificationInstance,
    MonotoneTag,
    VerificationInstance,
    as_exact_int64,
    as_shift_modulus,
    is_integer,
    minplus_convolution_naive,
    minplus_product_naive,
    require_valid_instance,
    witness_mask_naive,
)
from .modulus import find_good_modulus
from .product_col import (
    minplus_monotone_col,
    normalize_nonincreasing,
    rotate_to_problem2prime,
    solve_verification_col,
)
from .product_row import _shift_instance, minplus_monotone_row, solve_verification_row
from .shifting import first_live_pair

FORMAT_VERSION = 1
ORACLE_LIMIT = 1 << 22  # check's default cap on the brute-force volume
# kind -> (solving function, axis, oracle). A product or conv driver solves
# (A, B) under a MonotoneTag on its axis; a verify solver solves the
# instance, and its axis indexes the witness mask. Each oracle takes the same
# operands and looks its naive function up when called, not at import.
SOLVERS = {
    "product-row": (minplus_monotone_row, "row-monotone", lambda A, B: minplus_product_naive(A, B)),
    "product-col": (minplus_monotone_col, "column-monotone", lambda A, B: minplus_product_naive(A, B)),
    "conv": (minplus_conv_monotone, "array-monotone", lambda a, b: minplus_convolution_naive(a, b)),
    "verify-row": (solve_verification_row, "ij", lambda inst: witness_mask_naive(inst, "ij")),
    "verify-col": (solve_verification_col, "ik", lambda inst: witness_mask_naive(inst, "ik")),
    "verify-conv": (solve_verification_conv, "k", lambda inst: witness_mask_naive(inst, "k")),
}
KINDS = tuple(SOLVERS)
FAMILIES = ("uniform-monotone", "bounded-difference", "staircase", "adversarial-ties")


class CliError(Exception):
    """Diagnostic carrying a structured payload for stderr."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = {"error": message, **details}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are CliErrors, not plain text."""

    def error(self, message):
        raise CliError("invalid usage", reason=message)


# ---------------------------------------------------------------------------
# canonical file I/O

def canonical_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8")


def checksum_of(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def write_payload(path, obj) -> bytes:
    data = canonical_bytes(obj)
    Path(path).write_bytes(data)
    return data


def load_payload(path) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot read {path}", path=str(path), reason=str(e))
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as e:
        raise CliError(f"not valid JSON: {path}", path=str(path), reason=str(e))
    if not isinstance(obj, dict) or obj.get("format") != FORMAT_VERSION:
        raise CliError(f"unsupported file format in {path}", path=str(path))
    return obj


# ---------------------------------------------------------------------------
# generators

def _rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _family_rows(rng, family: str, rows: int, cols: int, bound: int, monotone: bool) -> np.ndarray:
    """rows x cols entries in [1, bound] with the family's value texture;
    every row non-decreasing when monotone."""
    if family == "uniform-monotone":
        X = rng.integers(1, bound + 1, (rows, cols))
    elif family == "bounded-difference":
        start = rng.integers(1, bound + 1, (rows, 1))
        low = 0 if monotone else -1
        inc = rng.integers(low, 2, (rows, cols - 1)) if cols > 1 else np.zeros((rows, 0), dtype=np.int64)
        return np.clip(np.concatenate([start, inc], axis=1).cumsum(axis=1), 1, bound)
    elif family == "staircase":
        plateau = max(1, math.ceil(cols / bound))
        starts = rng.integers(1, bound + 1, (rows, 1))
        return np.minimum(starts + (np.arange(cols) // plateau)[None, :], bound)
    elif family == "adversarial-ties":
        X = rng.choice(np.unique(np.array([1, max(1, bound // 2), bound])), (rows, cols))
    else:
        raise CliError(f"unknown family {family!r}", families=list(FAMILIES))
    return np.sort(X, axis=1) if monotone else X


def generate_instance(kind: str, n: int, entry_bound: int, seed: int, family: str,
                      M: int | None = None) -> dict:
    """An instance file of the kind. A verify-* file lifts the product or
    convolution of the same operands by the shift modulus M (default 100);
    the other kinds have no M and refuse one."""
    if kind not in KINDS:
        raise CliError(f"unknown kind {kind!r}", kinds=list(KINDS))
    if family not in FAMILIES:
        raise CliError(f"unknown family {family!r}", families=list(FAMILIES))
    if n < 1 or entry_bound < 1:
        raise CliError("n and entry bound must be at least 1", n=n, entry_bound=entry_bound)
    verify = kind.startswith("verify")
    if not verify and M is not None:
        raise CliError(f"M applies only to the verify kinds, not {kind}", kind=kind, M=M)
    rng = _rng_for(seed)
    header = {
        "format": FORMAT_VERSION,
        "kind": kind,
        "family": family,
        "seed": int(seed),
        "entry_bound": int(entry_bound),
    }
    if kind.endswith("conv"):
        A = _family_rows(rng, family, 1, n, entry_bound, monotone=True)[0]
        B = _family_rows(rng, family, 1, n, entry_bound, monotone=True)[0]
    else:
        A = _family_rows(rng, family, n, n, entry_bound, monotone=False)
        B = _family_rows(rng, family, n, n, entry_bound, monotone=True)
        if kind.endswith("col"):
            B = B.T
    if not verify:
        return {**header, "dims": [n] if kind == "conv" else [n, n, n], "A": A.tolist(), "B": B.tolist()}

    with _diagnosed(kind):
        M = as_shift_modulus(100 if M is None else M)
        if kind == "verify-row":
            inst = _shift_instance(A, B, minplus_product_naive(A, B), M, *first_live_pair(A, B, M))
        elif kind == "verify-col":
            A = normalize_nonincreasing(A)
            C = minplus_product_naive(A, B)
            rot = rotate_to_problem2prime(A, B, C, int(max(A.max(), B.max(), C.max())))
            s, t = first_live_pair(rot.A, rot.B, M)
            inst = _shift_instance(rot.A, rot.B, rot.C, M, s, t)
        else:
            c = minplus_convolution_naive(A, B).values
            inst = _shift_instance_conv(A, B, c, M, *first_live_pair(A, B, M))
        require_valid_instance(inst)
    if kind == "verify-conv":
        body = {"A": inst.A.values.tolist(), "B": inst.B.values.tolist(),
                "C": inst.C.values.tolist(), "dims": [n]}
    else:
        body = {"A": inst.A.tolist(), "B": inst.B.tolist(), "C": inst.C.tolist(),
                "dims": list(inst.A.shape) + [inst.B.shape[1]]}
    return {**header, **body, "M": M}


# ---------------------------------------------------------------------------
# run

def _config_from(args) -> SolverConfig:
    """The SolverConfig of whichever config flags the command has; a value
    it refuses is a CliError."""
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)
              if hasattr(args, f.name)}
    try:
        return SolverConfig(**fields)
    except ValueError as e:
        raise CliError("invalid solver option", reason=str(e))


def _field(payload: dict, key: str, convert=as_exact_int64):
    """A required field of an instance file, converted; a missing or
    malformed field is a CliError that names it."""
    if key not in payload:
        raise CliError(f"missing field {key!r}", field=key, kind=payload.get("kind"))
    try:
        return convert(payload[key])
    except (TypeError, ValueError, OverflowError) as e:
        raise CliError(f"malformed field {key!r}", field=key, reason=str(e))


def _integer(value) -> int:
    """An integer header field; a float, string or bool is refused, not cast."""
    if not is_integer(value):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _kind_of(payload: dict, config: SolverConfig) -> str:
    kind = payload.get("kind")
    if kind not in KINDS:
        raise CliError(f"unknown kind {kind!r}", kinds=list(KINDS))
    if kind.startswith("verify") and config.engine != "det":
        raise CliError(f"a verify file takes no engine, not {config.engine!r}",
                       kind=kind, engine=config.engine)
    return kind


@contextlib.contextmanager
def _diagnosed(kind: str):
    """Report a refusal from the library (broken promise, shape mismatch,
    unsupported option) as a CliError."""
    try:
        yield
    except ValueError as e:
        coord = getattr(e, "coord", None)
        raise CliError(str(e), kind=kind, coord=list(coord) if coord else None)


def _operands(payload: dict) -> tuple:
    """The file's A and B, converted."""
    return _field(payload, "A"), _field(payload, "B")


def _instance_from(payload: dict, operands: tuple | None = None):
    """The verification instance of a verify file, from its A and B as
    converted already (operands) or else from the file. An M that is not an
    integer is a malformed field; the instance checks its shapes and M."""
    A, B = operands or _operands(payload)
    C = _field(payload, "C")
    M = _field(payload, "M", _integer)
    instance = ConvVerificationInstance if payload["kind"] == "verify-conv" else VerificationInstance
    return instance(A=A, B=B, C=C, M=M)


def _solve(payload: dict, kind: str, config: SolverConfig, operands: tuple | None = None):
    """(result, operands, timings, modulus digests) of one instance file.

    A product or conv file runs its driver on (A, B) under a tag on the
    driver's axis. A verify file is searched for Q once, and its solver runs
    with that Q. A and B are taken as given in operands, when the caller has
    converted them already, and converted from the file otherwise. The
    operands returned are what the kind's oracle takes.
    """
    solver, axis, _ = SOLVERS[kind]
    timings, digests = {}, []
    if kind.startswith("verify"):
        inst = _instance_from(payload, operands)
        require_valid_instance(inst)
        t0 = time.perf_counter()
        Q, rep = find_good_modulus(inst, R=config.R, slack=config.slack)
        timings["modulus_search"] = time.perf_counter() - t0
        digests.append({"Q": Q, "sha256": checksum_of(canonical_bytes(rep.to_dict()))})
        operands = (inst,)
        args, kwargs = operands, {"Q": Q, "config": config}
    else:
        tag = MonotoneTag(axis=axis, entry_bound=_field(payload, "entry_bound", _integer))
        operands = operands or _operands(payload)
        args, kwargs = (*operands, tag, config), {}
    t0 = time.perf_counter()
    result = solver(*args, **kwargs)
    timings["solve"] = time.perf_counter() - t0
    return result, operands, timings, digests


def run_instance(payload: dict, config: SolverConfig):
    """Execute one instance file; returns (output payload, report dict).

    The report's checksum covers the canonical output bytes only, so it is
    stable across reruns while the timing fields are free to vary.
    """
    kind = _kind_of(payload, config)
    with _diagnosed(kind):
        result, _, timings, digests = _solve(payload, kind, config)
    if kind.startswith("verify"):
        body = {"mask": result.astype(int).tolist()}
    elif kind == "conv":
        body = {"C": result.values.tolist(), "origin": result.origin}
    else:
        body = {"C": result.tolist()}
    output = {"format": FORMAT_VERSION, "kind": "output", "of_kind": kind, **body}
    report = {
        "format": FORMAT_VERSION,
        "kind": "report",
        "of_kind": kind,
        "engine": "verification" if kind.startswith("verify") else config.engine,
        "checksum": checksum_of(canonical_bytes(output)),
        "modulus_digests": digests,
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }
    return output, report


# ---------------------------------------------------------------------------
# check

def _oracle_cells(payload: dict, kind: str) -> tuple:
    """Oracle volume, sized from the arrays, and the converted (A, B); a
    "dims" field that disagrees with their shapes is malformed."""
    dims = _field(payload, "dims", lambda dims: [_integer(d) for d in dims])
    A, B = _operands(payload)
    conv = kind in ("conv", "verify-conv")
    shape = list(A.shape[:1] if conv else A.shape[:2] + B.shape[1:2])
    if dims != shape:
        raise CliError("malformed field 'dims': it disagrees with the arrays",
                       field="dims", dims=dims, shape=shape)
    cells = math.prod(shape)
    return (cells * cells if conv else cells), (A, B)


def check_instance(payload: dict, config: SolverConfig, oracle_limit: int = ORACLE_LIMIT):
    """Compare the deterministic engine against the brute-force oracle.

    Returns (ok, first_mismatch_coord). Raises CliError when oracle_limit is
    not a non-negative integer or the oracle volume exceeds it.
    """
    if not (is_integer(oracle_limit) and oracle_limit >= 0):
        raise CliError("invalid oracle limit",
                       reason=f"oracle_limit must be a non-negative integer, not {oracle_limit!r}")
    kind = _kind_of(payload, config)
    cells, operands = _oracle_cells(payload, kind)
    if cells > oracle_limit:
        raise CliError(
            "instance too large for the oracle; raise --oracle-limit to force",
            cells=cells, oracle_limit=oracle_limit,
        )
    _, _, oracle = SOLVERS[kind]
    with _diagnosed(kind):
        got, operands, _, _ = _solve(payload, kind, config, operands)
        want = oracle(*operands)
    if kind == "conv":
        got, want = got.values, want.values
    if np.array_equal(got, want):
        return True, None
    bad = np.argwhere(np.asarray(got) != np.asarray(want))[0]
    return False, tuple(int(c) for c in bad)


# ---------------------------------------------------------------------------
# stats

def stats_instance(payload: dict, config: SolverConfig) -> dict:
    kind = payload.get("kind")
    if kind not in ("verify-row", "verify-col", "verify-conv"):
        raise CliError("stats needs a verify-* instance file", kind=kind)
    with _diagnosed(kind):
        inst = _instance_from(payload)
        require_valid_instance(inst)
        _, rep = find_good_modulus(inst, R=config.R, slack=config.slack)
    return {
        "format": FORMAT_VERSION,
        "kind": "stats",
        "of_kind": kind,
        "modulus_report": rep.to_dict(),
        "level_segments": list(rep.level_segments),
    }


# ---------------------------------------------------------------------------
# bench

def _bench_one(job):
    path, payload, out_dir, config = job
    t0 = time.perf_counter()
    output, report = run_instance(payload, config)
    wall = time.perf_counter() - t0
    stem = Path(out_dir) / Path(path).stem
    write_payload(f"{stem}.out.json", output)
    write_payload(f"{stem}.report.json", report)
    return str(path), report["checksum"], wall


def bench_files(paths, out_dir, config: SolverConfig, jobs: int) -> dict:
    """Run each file as run does, on min(jobs, len(paths)) worker processes
    when that is above 1 and in this process otherwise. Every file is read
    first, and the batch is a CliError before out_dir is made when jobs < 1,
    a file is unreadable or malformed, a verify file meets an engine, or two
    files share a stem (their outputs would overwrite each other)."""
    if jobs < 1:
        raise CliError("--jobs must be at least 1", jobs=jobs)
    payloads = [load_payload(p) for p in paths]
    for payload in payloads:
        _kind_of(payload, config)
    stems = [Path(p).stem for p in paths]
    if len(set(stems)) < len(stems):
        raise CliError("input files share a stem", stems=sorted({s for s in stems if stems.count(s) > 1}))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs_list = [(str(p), payload, str(out_dir), config) for p, payload in zip(paths, payloads)]
    workers = min(jobs, len(jobs_list))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_bench_one, jobs_list))
    else:
        results = [_bench_one(j) for j in jobs_list]
    results.sort(key=lambda r: r[0])
    return {
        "format": FORMAT_VERSION,
        "kind": "bench",
        "engine": config.engine,
        "runs": [{"file": f, "checksum": c, "seconds": round(w, 6)} for f, c, w in results],
    }


# ---------------------------------------------------------------------------
# argument plumbing

def _add_config_flags(p: argparse.ArgumentParser, engine: bool = True):
    if engine:
        p.add_argument("--engine", choices=ENGINES, default="det")
    p.add_argument("--R", type=int, default=None)
    p.add_argument("--slack", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="minplus", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--kind", choices=KINDS, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--entry-bound", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--family", choices=FAMILIES, default="uniform-monotone")
    g.add_argument("--M", type=int, default=None)
    g.add_argument("--out", required=True)

    r = sub.add_parser("run", help="solve an instance file")
    r.add_argument("file")
    r.add_argument("--out", default=None)
    r.add_argument("--report", default=None)
    _add_config_flags(r)

    c = sub.add_parser("check", help="compare det against the naive oracle")
    c.add_argument("file")
    c.add_argument("--oracle-limit", type=int, default=ORACLE_LIMIT)
    _add_config_flags(c)

    b = sub.add_parser("bench", help="run many instance files, optionally in parallel")
    b.add_argument("files", nargs="+")
    b.add_argument("--out-dir", required=True)
    b.add_argument("--jobs", type=int, default=1)
    b.add_argument("--summary", default=None)
    _add_config_flags(b)

    s = sub.add_parser("stats", help="modulus-search diagnostics for a verify-* file")
    s.add_argument("file")
    _add_config_flags(s, engine=False)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "gen":
            payload = generate_instance(
                args.kind, args.n, args.entry_bound, args.seed, args.family, M=args.M
            )
            write_payload(args.out, payload)
            print(f"wrote {args.out}")
            return 0
        if args.command == "run":
            payload = load_payload(args.file)
            output, report = run_instance(payload, _config_from(args))
            out_path = Path(args.out) if args.out else Path(args.file).with_suffix(".out.json")
            rep_path = Path(args.report) if args.report else out_path.with_suffix(".report.json")
            write_payload(out_path, output)
            write_payload(rep_path, report)
            print(f"wrote {out_path} ({report['checksum']})")
            return 0
        if args.command == "check":
            payload = load_payload(args.file)
            ok, coord = check_instance(payload, _config_from(args), args.oracle_limit)
            if ok:
                print(f"PASS {args.file}")
                return 0
            print(f"FAIL {args.file}: first mismatch at {coord}")
            return 1
        if args.command == "bench":
            summary = bench_files(args.files, args.out_dir, _config_from(args), args.jobs)
            if args.summary:
                write_payload(args.summary, summary)
            total = sum(r["seconds"] for r in summary["runs"])
            print(f"bench: {len(summary['runs'])} runs, {total:.3f}s total")
            return 0
        if args.command == "stats":
            payload = load_payload(args.file)
            dump = stats_instance(payload, _config_from(args))
            sys.stdout.write(canonical_bytes(dump).decode("utf-8"))
            return 0
    except CliError as e:
        json.dump(e.details, sys.stderr)
        sys.stderr.write("\n")
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
