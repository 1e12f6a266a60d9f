import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from minplus import cli, convolution, product_col, product_row
from minplus.config import SolverConfig
from minplus.core import minplus_product_naive, witness_mask_naive
from minplus.modulus import _scan_segments_matrix, find_good_modulus
from minplus.segments import levelmax_for

GOLDEN = Path(__file__).parent / "golden"
CFG = SolverConfig()


def _args(**overrides):
    ns = cli.build_parser().parse_args(
        ["run", "ignored.json"] + [f"--{k.replace('_', '-')}={v}" for k, v in overrides.items()]
    )
    return ns


def test_golden_files_roundtrip_canonically():
    for path in sorted(GOLDEN.glob("*.json")):
        raw = path.read_bytes()
        assert cli.canonical_bytes(json.loads(raw)) == raw


def test_golden_files_pass_check():
    for path in sorted(GOLDEN.glob("*.json")):
        ok, coord = cli.check_instance(cli.load_payload(path), CFG)
        assert ok, f"{path.name}: mismatch at {coord}"


def test_gen_is_deterministic_per_seed():
    a = cli.generate_instance("product-row", 6, 9, seed=42, family="uniform-monotone")
    b = cli.generate_instance("product-row", 6, 9, seed=42, family="uniform-monotone")
    c = cli.generate_instance("product-row", 6, 9, seed=43, family="uniform-monotone")
    assert cli.canonical_bytes(a) == cli.canonical_bytes(b)
    assert cli.canonical_bytes(a) != cli.canonical_bytes(c)


@pytest.mark.parametrize("kind", cli.KINDS)
@pytest.mark.parametrize("family", cli.FAMILIES)
def test_gen_one_by_one_all_kinds(kind, family):
    payload = cli.generate_instance(kind, 1, 3, seed=0, family=family)
    assert payload["kind"] == kind
    ok, _ = cli.check_instance(payload, CFG)
    assert ok


def test_staircase_rows_have_expected_plateaus():
    n, bound = 12, 4
    payload = cli.generate_instance("product-row", n, bound, seed=7, family="staircase")
    B = np.array(payload["B"])
    plateau = -(-n // bound)
    changes = np.nonzero(np.diff(B, axis=1))[1] + 1
    assert (changes % plateau == 0).all()


def test_gen_rejects_bad_params():
    with pytest.raises(cli.CliError):
        cli.generate_instance("product-row", 0, 3, seed=0, family="uniform-monotone")
    with pytest.raises(cli.CliError):
        cli.generate_instance("product-row", 3, 3, seed=0, family="nonsense")


def test_run_det_equals_run_naive_payload():
    payload = cli.load_payload(GOLDEN / "conv-n4.json")
    out_det, _ = cli.run_instance(payload, SolverConfig(engine="det"))
    out_naive, _ = cli.run_instance(payload, SolverConfig(engine="naive"))
    assert cli.canonical_bytes(out_det) == cli.canonical_bytes(out_naive)


def test_run_rerun_checksums_match():
    payload = cli.load_payload(GOLDEN / "product-row-n4.json")
    _, rep1 = cli.run_instance(payload, CFG)
    _, rep2 = cli.run_instance(payload, CFG)
    assert rep1["checksum"] == rep2["checksum"]


@pytest.mark.parametrize("name,axis", [
    ("verify-row-n3.json", "ij"),
    ("verify-col-n3.json", "ik"),
    ("verify-conv-n4.json", "k"),
])
def test_run_verify_mask_matches_oracle(name, axis):
    payload = cli.load_payload(GOLDEN / name)
    output, report = cli.run_instance(payload, CFG)
    inst = cli._instance_from(payload)
    want = witness_mask_naive(inst, axis)
    assert np.array_equal(np.array(output["mask"], dtype=bool), want)
    assert len(report["modulus_digests"]) == 1
    assert report["checksum"].startswith("sha256:")


# Output checksum and modulus digests of each golden file's run report.
GOLDEN_REPORTS = {
    "conv-n4.json": ("sha256:3a7f365b5b461756abfdc2cf88c5e89a8292a9e2dbae08ccce7ce7243019460d", []),
    "product-col-n4.json": ("sha256:c27dac20daa816e32d71aec0923222f606b9f0b7b740c917060e8d2ea7745af6", []),
    "product-row-n4.json": ("sha256:b034b58c4c0f720cca8a37c6260bb0c8b2aa18e79de2adfa478705ad1ea66584", []),
    "verify-col-n3.json": ("sha256:0f768bcb5fdc1d53d4c022ffb217b37d542fbd4251391b7e7a953964a7e58ed1", [{
        "Q": 143, "sha256": "sha256:fd595fe55498f7f52e684c7c7391166945f4bcf60d2ef57d2060261cf3131e7e"}]),
    "verify-conv-n4.json": ("sha256:2bc1bf7f2fac22d6456f7bb8c29a669406670c04de4c23e0fa2eebf3aeb61f2a", [{
        "Q": 143, "sha256": "sha256:6fb8d2fe10109bf0009ef00ece464185e9dd9bf2904209ca3701202d8a77ad7e"}]),
    "verify-row-n3.json": ("sha256:b34b7dd9f48855ce4b11afd050cff3308cd0ac05cccdaa89e5c9a8e17c914ca9", [{
        "Q": 143, "sha256": "sha256:02052f9c54a4d1c8df1bcea140586f305fb306d1fbf61dcd24eda0be64b82d56"}]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_run_reports_are_pinned(name):
    _, report = cli.run_instance(cli.load_payload(GOLDEN / name), CFG)
    assert (report["checksum"], report["modulus_digests"]) == GOLDEN_REPORTS[name]
    measured = {"modulus_search", "solve"} if name.startswith("verify") else {"solve"}
    assert set(report["timings"]) == measured


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("name", ["verify-row-n3.json", "verify-col-n3.json", "verify-conv-n4.json"])
def test_verify_file_searches_once_and_runs_its_solver(monkeypatch, command, name):
    payload = cli.load_payload(GOLDEN / name)
    kind = payload["kind"]
    solver, axis, oracle = cli.SOLVERS[kind]
    searched, solved = [], []

    def search(*args, **kwargs):
        Q, rep = find_good_modulus(*args, **kwargs)
        searched.append(Q)
        return Q, rep

    def solve(inst, Q=None, config=None):
        solved.append(Q)
        return solver(inst, Q=Q, config=config)

    for module in (cli, product_row, product_col, convolution):
        monkeypatch.setattr(module, "find_good_modulus", search)
    monkeypatch.setitem(cli.SOLVERS, kind, (solve, axis, oracle))
    if command == "run":
        cli.run_instance(payload, CFG)
    else:
        assert cli.check_instance(payload, CFG) == (True, None)
    assert len(searched) == 1
    assert solved == searched


def test_run_reports_promise_violation():
    payload = cli.load_payload(GOLDEN / "product-row-n4.json")
    payload = {**payload, "B": [[3, 1, 1, 1]] + payload["B"][1:]}
    with pytest.raises(cli.CliError) as exc:
        cli.run_instance(payload, CFG)
    assert exc.value.details["coord"] == [0, 1]


def test_check_reports_first_mismatch(monkeypatch):
    payload = cli.load_payload(GOLDEN / "product-row-n4.json")

    def corrupted(A, B):
        C = minplus_product_naive(A, B).copy()
        C[2, 1] += 1
        return C

    monkeypatch.setattr(cli, "minplus_product_naive", corrupted)
    ok, coord = cli.check_instance(payload, CFG)
    assert not ok and coord == (2, 1)


@pytest.mark.parametrize("name", [
    "product-row-n4", "product-col-n4", "conv-n4", "verify-row-n3", "verify-col-n3", "verify-conv-n4",
])
def test_check_converts_each_operand_once(monkeypatch, name):
    """check sizes the oracle from A and B and solves with the same arrays:
    each field of the file is converted once."""
    payload = cli.load_payload(GOLDEN / f"{name}.json")
    keys = []
    field = cli._field

    def counted(payload, key, *args):
        keys.append(key)
        return field(payload, key, *args)

    monkeypatch.setattr(cli, "_field", counted)
    assert cli.check_instance(payload, CFG) == (True, None)
    assert sorted(keys) == sorted(set(keys)) and {"A", "B"} <= set(keys)


def test_check_refuses_oversized_oracle():
    payload = cli.load_payload(GOLDEN / "product-row-n4.json")
    with pytest.raises(cli.CliError):
        cli.check_instance(payload, SolverConfig(oracle_limit=8))


def test_stats_requires_verify_kind():
    with pytest.raises(cli.CliError):
        cli.stats_instance(cli.load_payload(GOLDEN / "conv-n4.json"), CFG)


def test_stats_reports_bounds_and_xyz():
    dump = cli.stats_instance(cli.load_payload(GOLDEN / "verify-row-n3.json"), CFG, test_mode=True)
    rep = dump["modulus_report"]
    assert rep["M"] <= rep["Q"] <= rep["M"] * rep["R"]
    assert dump["first_crossing"]
    assert dump["xyz_verified"]
    assert all(c["ok"] for c in dump["xyz_checks"])
    assert len(dump["level_segments"]) == len(rep["active_counts"])
    inst = cli._instance_from(cli.load_payload(GOLDEN / "verify-row-n3.json"))
    assert dump["level_segments"] == [
        len(_scan_segments_matrix(inst, level)) for level in range(levelmax_for(inst.M) + 1)
    ]


def test_stats_all_zero_instance_has_no_spurious_matches():
    payload = {
        "format": 1, "kind": "verify-conv", "dims": [3], "M": 100,
        "A": [0, 0, 0], "B": [0, 0, 0], "C": [0, 0, 0, 0, 0],
    }
    dump = cli.stats_instance(payload, CFG, test_mode=True)
    assert all(x == 0 for x in dump["x_at_Q"])
    assert dump["xyz_verified"]


def test_bench_parallel_outputs_are_byte_identical(tmp_path):
    files = sorted(GOLDEN.glob("*.json"))
    d1, d2 = tmp_path / "one", tmp_path / "two"
    s1 = cli.bench_files(files, d1, CFG, jobs=2)
    s2 = cli.bench_files(files, d2, CFG, jobs=2)
    assert [r["checksum"] for r in s1["runs"]] == [r["checksum"] for r in s2["runs"]]
    for f in files:
        out_name = f"{f.stem}.out.json"
        assert (d1 / out_name).read_bytes() == (d2 / out_name).read_bytes()


def test_main_subprocess_gen_run_check(tmp_path):
    inst = tmp_path / "inst.json"

    def invoke(*argv):
        return subprocess.run(
            [sys.executable, "-m", "minplus", *argv],
            capture_output=True, text=True,
        )

    r = invoke("gen", "--kind", "conv", "--n", "5", "--entry-bound", "6",
               "--seed", "11", "--family", "bounded-difference", "--out", str(inst))
    assert r.returncode == 0, r.stderr
    r = invoke("run", str(inst), "--out", str(tmp_path / "o.json"))
    assert r.returncode == 0 and (tmp_path / "o.json").exists()
    assert (tmp_path / "o.report.json").exists()
    r = invoke("check", str(inst))
    assert r.returncode == 0 and r.stdout.startswith("PASS")
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    r = invoke("run", str(bad))
    assert r.returncode == 2
    assert "error" in json.loads(r.stderr)


def _main_diagnostic(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("command", ["run", "check"])
def test_missing_field_is_a_diagnostic(tmp_path, capsys, command):
    payload = cli.load_payload(GOLDEN / "product-row-n4.json")
    del payload["A"]
    path = tmp_path / "no-a.json"
    cli.write_payload(path, payload)
    argv = [command, str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o.json")]
    code, diag = _main_diagnostic(capsys, *argv)
    assert code == 2
    assert diag["field"] == "A"


def test_malformed_field_is_a_diagnostic(tmp_path, capsys):
    payload = {**cli.load_payload(GOLDEN / "verify-row-n3.json"), "M": [100]}
    path = tmp_path / "bad-m.json"
    cli.write_payload(path, payload)
    code, diag = _main_diagnostic(capsys, "check", str(path))
    assert code == 2
    assert diag["field"] == "M"


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("golden, field, value", [
    ("product-row-n4.json", "entry_bound", 3.5),
    ("product-row-n4.json", "entry_bound", 8.9),
    ("product-row-n4.json", "entry_bound", 6.0),
    ("product-row-n4.json", "entry_bound", "8"),
    ("product-row-n4.json", "entry_bound", True),
    ("verify-row-n3.json", "M", 100.0),
    ("verify-row-n3.json", "M", True),
])
def test_non_integer_header_field_is_malformed(tmp_path, capsys, command, golden, field, value):
    # An integer field is not truncated (3.5 ran as bound 3, 8.9 as 8), parsed
    # ("8" ran as 8) or read as 1 (true).
    path = tmp_path / golden
    cli.write_payload(path, {**cli.load_payload(GOLDEN / golden), field: value})
    argv = [command, str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o.json")]
    code, diag = _main_diagnostic(capsys, *argv)
    assert code == 2
    assert diag["error"] == f"malformed field {field!r}" and diag["field"] == field
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("dims", [[4.0, 4, 4], [4, 4.5, 4], ["4", 4, 4], [True, 4, 4], 4])
def test_non_integer_dims_are_malformed(tmp_path, capsys, dims):
    path = tmp_path / "dims.json"
    cli.write_payload(path, {**cli.load_payload(GOLDEN / "product-row-n4.json"), "dims": dims})
    code, diag = _main_diagnostic(capsys, "check", str(path))
    assert code == 2
    assert diag["error"] == "malformed field 'dims'" and diag["field"] == "dims"


@pytest.mark.parametrize("command", ["run", "check"])
def test_col_reference_engine_is_a_diagnostic(tmp_path, capsys, command):
    path = tmp_path / "col.json"
    cli.write_payload(path, cli.load_payload(GOLDEN / "product-col-n4.json"))
    argv = [command, str(path), "--engine", "det-reference"]
    if command == "run":
        argv += ["--out", str(tmp_path / "o.json")]
    code, diag = _main_diagnostic(capsys, *argv)
    assert code == 2
    assert "det-reference" in diag["error"]


@pytest.mark.parametrize("command", ["run", "check"])
def test_col_modulus_options_are_a_diagnostic(tmp_path, capsys, command):
    path = tmp_path / "col.json"
    cli.write_payload(path, cli.load_payload(GOLDEN / "product-col-n4.json"))
    argv = [command, str(path), "--R", "50", "--slack", "3"]
    if command == "run":
        argv += ["--out", str(tmp_path / "o.json")]
    code, diag = _main_diagnostic(capsys, *argv)
    assert code == 2
    assert diag["error"] == "the column driver searches no modulus; it refuses R, slack"
    assert not (tmp_path / "o.json").exists()


def test_check_sizes_the_oracle_from_the_arrays(tmp_path, capsys):
    payload = cli.generate_instance("product-row", 40, 9, seed=3, family="uniform-monotone")
    path = tmp_path / "p.json"
    cli.write_payload(path, payload)
    code, diag = _main_diagnostic(capsys, "check", str(path), "--oracle-limit", "8")
    assert code == 2
    assert diag["cells"] == 40**3

    cli.write_payload(path, {**payload, "dims": [1, 1, 1]})
    code, diag = _main_diagnostic(capsys, "check", str(path), "--oracle-limit", "8")
    assert code == 2
    assert diag["field"] == "dims"
    assert diag["shape"] == [40, 40, 40]


def test_non_integral_entry_is_a_diagnostic(tmp_path, capsys):
    payload = cli.load_payload(GOLDEN / "product-row-n4.json")
    payload["A"][0][0] += 0.5
    path = tmp_path / "half.json"
    cli.write_payload(path, payload)
    code, diag = _main_diagnostic(capsys, "check", str(path))
    assert code == 2
    assert diag["field"] == "A"
    assert "not an integer" in diag["reason"]


@pytest.mark.parametrize("command", ["run", "check"])
def test_col_entry_bound_beyond_int64_is_a_diagnostic(tmp_path, capsys, command):
    payload = {**cli.load_payload(GOLDEN / "product-col-n4.json"), "entry_bound": 2**63}
    path = tmp_path / "col.json"
    cli.write_payload(path, payload)
    argv = [command, str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o.json")]
    code, diag = _main_diagnostic(capsys, *argv)
    assert code == 2
    assert "entry bound too large" in diag["error"]


@pytest.mark.parametrize("flag,value,reason", [
    ("--slack", "-1", "finite and positive"),
    ("--slack", "0", "finite and positive"),
    ("--R", "3", "at least 4"),
    ("--oracle-limit", "-1", "non-negative"),
])
@pytest.mark.parametrize("command,golden", [
    ("run", "product-row-n4.json"),
    ("check", "product-row-n4.json"),
    ("stats", "verify-row-n3.json"),
])
def test_invalid_config_flag_is_a_diagnostic(tmp_path, capsys, command, golden, flag, value, reason):
    path = tmp_path / golden
    cli.write_payload(path, cli.load_payload(GOLDEN / golden))
    argv = [command, str(path), flag, value]
    if command == "run":
        argv += ["--out", str(tmp_path / "o.json")]
    code, diag = _main_diagnostic(capsys, *argv)
    assert code == 2
    assert reason in diag["reason"]


@pytest.mark.parametrize("M", [0, 50, 150, -100])
@pytest.mark.parametrize("kind", ["verify-row", "verify-col", "verify-conv"])
def test_gen_broken_promise_is_a_diagnostic(tmp_path, capsys, kind, M):
    out = tmp_path / "x.json"
    argv = ["gen", "--kind", kind, "--n", "3", "--entry-bound", "5", f"--M={M}", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, diag = _main_diagnostic(capsys, *argv)
    assert code == 2
    assert diag == {"error": "invalid instance: M not a positive multiple of 100",
                    "kind": kind, "coord": None}
    assert not out.exists()


@pytest.mark.parametrize("M", [0, 100, 150])
@pytest.mark.parametrize("kind", ["product-row", "product-col", "conv"])
def test_gen_M_on_a_kind_without_one_is_a_diagnostic(tmp_path, capsys, kind, M):
    out = tmp_path / "y.json"
    argv = ["gen", "--kind", kind, "--n", "3", "--entry-bound", "5", f"--M={M}", "--out", str(out)]
    code, diag = _main_diagnostic(capsys, *argv)
    assert code == 2
    assert diag == {"error": f"M applies only to the verify kinds, not {kind}", "kind": kind, "M": M}
    assert not out.exists()


def test_stats_oracle_beyond_limit_is_a_diagnostic(tmp_path, capsys):
    path = tmp_path / "v.json"
    cli.write_payload(path, cli.generate_instance("verify-row", 20, 64, seed=1,
                                                  family="uniform-monotone"))
    code, diag = _main_diagnostic(capsys, "stats", str(path), "--test-mode",
                                  "--oracle-limit", "100")
    assert code == 2
    assert "too large for brute-force counting" in diag["error"]
    assert diag["kind"] == "verify-row"
