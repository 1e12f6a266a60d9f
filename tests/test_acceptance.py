"""Acceptance sweep. Each test covers one numbered criterion end to end and
prints a single PASS line with its instance count; a failure anywhere makes
the corresponding test fail, so the pytest -v report gives the per-criterion
pass/fail listing.
"""
import math
import time

import numpy as np
import pytest
from helpers import (
    checked_levels,
    cinst,
    congruence_count_conv_direct,
    congruence_count_direct,
    layout_groups,
    promised_conv,
    promised_matrix,
)

from minplus import cli
from minplus.config import SolverConfig
from minplus.convolution import (
    _shift_instance_conv,
    minplus_conv_monotone,
    solve_verification_conv,
)
from minplus.core import (
    ConvVerificationInstance,
    MonotoneTag,
    VerificationInstance,
    minplus_convolution_naive,
    minplus_product_naive,
    witness_mask_naive,
)
from minplus.modulus import count_X_bruteforce, count_Z_bruteforce, find_good_modulus
from minplus.polyring import count_congruent, count_congruent_conv
from minplus.product_col import (
    minplus_monotone_col,
    normalize_nonincreasing,
    rotate_to_problem2prime,
    solve_verification_col,
)
from minplus.product_row import (
    _shift_instance,
    minplus_monotone_row,
    solve_verification_row,
)
from minplus.segments import (
    active_start_mask,
    conv_layout,
    levelmax_for,
    matrix_layout,
    segment_bounds,
)
from minplus.shifting import first_live_pair

FAMILIES = cli.FAMILIES


def _payload_arrays(kind, n, bound, seed, family):
    payload = cli.generate_instance(kind, n, bound, seed=seed, family=family)
    A = np.asarray(payload["A"], dtype=np.int64)
    B = np.asarray(payload["B"], dtype=np.int64)
    return A, B


def test_criterion_01_row_product_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    count = 0
    for idx in range(500):
        n = int(rng.integers(1, 33))
        bound = (2, n, 4 * n)[idx % 3]
        family = FAMILIES[idx % 4]
        A, B = _payload_arrays("product-row", n, bound, seed=idx, family=family)
        tag = MonotoneTag(axis="row-monotone", entry_bound=bound)
        got = minplus_monotone_row(A, B, tag)
        want = minplus_product_naive(A, B)
        assert np.array_equal(got, want), f"instance {idx} (n={n}, bound={bound}, {family})"
        count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0, f"row sweep exceeded the 15 minute budget: {elapsed:.0f}s"
    print(f"criterion 01 row product oracle: PASS ({count} instances, {elapsed:.1f}s)")


def test_criterion_02_col_product_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    count = 0
    for idx in range(300):
        n = int(rng.integers(1, 33))
        bound = (2, n, 4 * n)[idx % 3]
        family = FAMILIES[idx % 4]
        A, B = _payload_arrays("product-col", n, bound, seed=idx, family=family)
        tag = MonotoneTag(axis="column-monotone", entry_bound=bound)
        want = minplus_product_naive(A, B)
        # checked_levels also checks each two-pointer mask against the equality scan
        with checked_levels():
            got = minplus_monotone_col(A, B, tag)
        assert np.array_equal(got, want), f"instance {idx}"
        count += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 02 col product oracle: PASS ({count} instances, {elapsed:.1f}s)")


def test_criterion_03_convolution_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    count = 0
    for idx in range(500):
        n = int(rng.integers(1, 257))
        bound = (2, n, 4 * n)[idx % 3]
        family = FAMILIES[idx % 4]
        a, b = _payload_arrays("conv", n, bound, seed=idx, family=family)
        tag = MonotoneTag(axis="array-monotone", entry_bound=bound)
        got = minplus_conv_monotone(a, b, tag)
        want = minplus_convolution_naive(a, b)
        assert np.array_equal(got.values, want.values), f"instance {idx} (n={n})"
        count += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 03 convolution oracle: PASS ({count} instances, {elapsed:.1f}s)")


def _lifted_matrix_instance(rng, n, bound, family, which):
    A = np.asarray(cli._family_rows(rng, family, n, n, bound, monotone=False), dtype=np.int64)
    B = np.asarray(cli._family_rows(rng, family, n, n, bound, monotone=True), dtype=np.int64)
    if which == "col":
        A = normalize_nonincreasing(A)
        B = np.ascontiguousarray(B.T)
        C = minplus_product_naive(A, B)
        W = int(max(A.max(), B.max(), C.max()))
        rot = rotate_to_problem2prime(A, B, C, W)
        A, B, C = rot.A, rot.B, rot.C
    else:
        C = minplus_product_naive(A, B)
    M = 100
    return _shift_instance(A, B, C, M, *first_live_pair(A, B, M))


def test_criterion_04_verification_solvers_in_isolation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    count = 0
    for idx in range(200):
        n = int(rng.integers(1, 65))
        bound = (n, 4 * n)[idx % 2]
        family = FAMILIES[idx % 4]
        which = ("row", "col", "conv")[idx % 3]
        if which == "conv":
            a = cli._family_rows(rng, family, 1, n, bound, monotone=True)[0]
            b = cli._family_rows(rng, family, 1, n, bound, monotone=True)[0]
            c = minplus_convolution_naive(a, b).values
            inst = _shift_instance_conv(a, b, c, 100, *first_live_pair(a, b, 100))
            got = solve_verification_conv(inst)
            want = witness_mask_naive(inst, "k")
        else:
            inst = _lifted_matrix_instance(rng, n, bound, family, which)
            if which == "row":
                got = solve_verification_row(inst)
                want = witness_mask_naive(inst, "ij")
            else:
                got = solve_verification_col(inst)
                want = witness_mask_naive(inst, "ik")
        assert np.array_equal(got, want), f"instance {idx} ({which}, n={n})"
        count += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 04 verification solvers: PASS ({count} lifted instances, {elapsed:.1f}s)")


def test_criterion_05_modulus_search_xyz_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    checks = 0
    for idx in range(100):
        n = int(rng.integers(2, 17))
        if idx % 2:
            inst = promised_conv(rng, n)
        else:
            inst = promised_matrix(rng, n, n, n)
        _, rep = find_good_modulus(inst)
        lmax = levelmax_for(inst.M)
        Z = [count_Z_bruteforce(inst, level) for level in range(lmax + 1)]
        for step in rep.steps:
            for pi, p in enumerate(step.table.primes):
                Qp = step.Q_prev * int(p)
                for level in range(step.table.Y.shape[0]):
                    X = count_X_bruteforce(inst, Qp, level)
                    Y = int(step.table.Y[level, pi])
                    assert X == Y - Z[level], (
                        f"instance {idx}: X={X} != Y-Z={Y - Z[level]} at Qp={Qp} level={level}"
                    )
                    checks += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 05 X=Y-Z identity: PASS (100 instances, {checks} checks, {elapsed:.1f}s)")


def test_criterion_06_good_modulus_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    count = 0
    for idx in range(40):
        n = int(rng.integers(2, 17))
        if idx % 2:
            inst = promised_conv(rng, n)
        else:
            inst = promised_matrix(rng, n, n, n)
        Q, rep = find_good_modulus(inst)
        assert rep.M <= Q <= rep.M * rep.R
        # first crossing: Q passed M only by its last prime factor
        assert Q // rep.primes[-1] < rep.M
        for level, active in enumerate(rep.active_counts):
            X = count_X_bruteforce(inst, Q, level)
            assert active <= X, f"instance {idx}: |S_{level}(Q)|={active} > X={X}"
        count += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 06 good-modulus structure: PASS ({count} instances, {elapsed:.1f}s)")


def test_criterion_07_segment_hierarchy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    count = 0
    for idx in range(200):
        n = int(rng.integers(1, 11))
        if idx % 2:
            inst = promised_conv(rng, n)
            layout = conv_layout(inst)
            U = int(max(inst.A.values.max(), inst.B.values.max(), inst.C.values.max(), 1))
        else:
            inst = promised_matrix(rng, n, n, n)
            layout = matrix_layout(inst)
            U = int(max(inst.A.max(), inst.B.max(), inst.C.max(), 1))
        Q, _ = find_good_modulus(inst)
        lmax = levelmax_for(inst.M)
        gstarts = layout_groups(layout)[0]
        groups = len(gstarts) - 1
        bounds = {}
        for level in range(lmax + 1):
            starts, ends = segment_bounds(layout, level)
            # (a) the segments tile the flat range without gaps or overlaps
            assert starts[0] == 0 and ends[-1] == layout.size - 1
            assert (starts[1:] == ends[:-1] + 1).all()
            g_of = np.searchsorted(gstarts, starts, side="right")
            assert (np.searchsorted(gstarts, ends, side="right") == g_of).all()
            # (c) the count obeys the monotone-changes bound
            assert len(starts) <= groups * (2 * math.ceil(U / (1 << level)) + 1)
            bounds[level] = (starts, ends)
        for level in range(lmax):
            cs, ce = bounds[level]
            ps, pe = bounds[level + 1]
            child_active = active_start_mask(layout, cs, level, Q)
            parent_active = active_start_mask(layout, ps, level + 1, Q)
            # (b) every active child lies inside an active parent
            owner = np.searchsorted(ps, cs, side="right") - 1
            assert (ce[child_active] <= pe[owner[child_active]]).all()
            assert parent_active[owner[child_active]].all()
        count += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 07 segment hierarchy: PASS ({count} instances, {elapsed:.1f}s)")


def test_criterion_08_polyring_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    for _ in range(200):
        r, k, c = (int(v) for v in rng.integers(1, 7, 3))
        Q = int(rng.integers(1, 33))
        A, B, C = (rng.integers(-4 * Q, 4 * Q, shape) for shape in ((r, k), (k, c), (r, c)))
        assert np.array_equal(count_congruent(A, B, C, Q), congruence_count_direct(A, B, C, Q))
    for _ in range(200):
        na, nb = (int(v) for v in rng.integers(1, 7, 2))
        Q = int(rng.integers(1, 33))
        a, b, c = (rng.integers(-4 * Q, 4 * Q, n) for n in (na, nb, na + nb - 1))
        assert np.array_equal(count_congruent_conv(a, b, c, Q), congruence_count_conv_direct(a, b, c, Q))
    elapsed = time.perf_counter() - t0
    print(f"criterion 08 polyring correctness: PASS (200 + 200 cases, {elapsed:.1f}s)")


def test_criterion_09_determinism(tmp_path):
    t0 = time.perf_counter()
    kinds = list(cli.KINDS)
    files = []
    for i in range(20):
        kind = kinds[i % len(kinds)]
        n = 8 if kind.startswith("verify") else 16
        path = tmp_path / f"input-{i:02d}.json"
        payload = cli.generate_instance(kind, n, 2 * n, seed=900 + i, family=FAMILIES[i % 4])
        cli.write_payload(path, payload)
        files.append(path)

    cfg = SolverConfig()
    checks = []
    for path in files:
        payload = cli.load_payload(path)
        out1, rep1 = cli.run_instance(payload, cfg)
        out2, rep2 = cli.run_instance(payload, cfg)
        assert cli.canonical_bytes(out1) == cli.canonical_bytes(out2)
        assert rep1["checksum"] == rep2["checksum"]
        checks.append(rep1["checksum"])

    d1, d2 = tmp_path / "bench1", tmp_path / "bench2"
    s1 = cli.bench_files(files, d1, cfg, jobs=2)
    s2 = cli.bench_files(files, d2, cfg, jobs=2)
    assert [r["checksum"] for r in s1["runs"]] == [r["checksum"] for r in s2["runs"]] == checks
    for path in files:
        name = f"{path.stem}.out.json"
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    elapsed = time.perf_counter() - t0
    print(f"criterion 09 determinism: PASS (20 inputs, sequential + parallel bench, {elapsed:.1f}s)")


def test_criterion_10_scaling_fit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    sizes = (16, 24, 32, 48)
    times = []
    for n in sizes:
        A = rng.integers(1, n + 1, (n, n))
        B = np.sort(rng.integers(1, n + 1, (n, n)), axis=1)
        tag = MonotoneTag(axis="row-monotone", entry_bound=n)
        best = math.inf
        for _ in range(7):
            t1 = time.perf_counter()
            minplus_monotone_row(A, B, tag)
            best = min(best, time.perf_counter() - t1)
        times.append(best)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    assert slope <= 3.3, f"fit exponent {slope:.2f} over n={sizes}, times={times}"
    elapsed = time.perf_counter() - t0
    print(
        "criterion 10 scaling sanity: PASS "
        f"(exponent {slope:.2f} over n={sizes}, {elapsed:.1f}s)"
    )


VERIFY_SOLVERS = [
    ("verify-row", solve_verification_row, "ij"),
    ("verify-col", solve_verification_col, "ik"),
    ("verify-conv", solve_verification_conv, "k"),
]


@pytest.mark.parametrize("kind,solve,axis", VERIFY_SOLVERS)
def test_verify_solvers_refuse_a_modulus_at_or_below_7M_over_100(kind, solve, axis):
    """Below 7M/100 the solvers returned wrong masks (at M = 100, Q in
    {1, 2, 4} on every generated instance tried); they now refuse such a Q,
    and a non-integer one, and are exact from the first Q above."""
    for M in (100, 300):
        inst = cli._instance_from(cli.generate_instance(kind, 6, 12, 3, "uniform-monotone", M=M))
        want = witness_mask_naive(inst, axis)
        least = 7 * M // 100 + 1
        for Q in (1, 2, 4, 5, least - 1, float(least), least + 0.5):
            with pytest.raises(ValueError, match="above 7M/100"):
                solve(inst, Q=Q)
        for Q in (least, least + 1, np.int64(M + 1)):
            assert np.array_equal(solve(inst, Q=Q), want), (M, Q)
