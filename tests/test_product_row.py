from functools import partial

import numpy as np
import pytest
from helpers import all_shift_pairs, promised_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from minplus import cli
from minplus.config import SolverConfig
from minplus.core import (
    INT64_GUARD,
    MonotoneTag,
    PromiseViolationError,
    VerificationInstance,
    minplus_product_naive,
    validate_instance,
    witness_mask_naive,
)
from minplus.product_row import (
    _row_level,
    compute_s_matrix,
    minplus_monotone_row,
    normalize_A,
    solve_verification_row,
)
from minplus.shifting import (
    residue_class,
    settle_by_halving,
    shift_operand,
    shift_output,
)

ROW = MonotoneTag(axis="row-monotone", entry_bound=8)


def random_product_inputs(rng, max_n=9, max_bound=40):
    na, nb, nc = (int(v) for v in rng.integers(1, max_n, 3))
    bound = int(rng.integers(1, max_bound))
    A = rng.integers(0, 2 * bound + 3, (na, nb))
    B = np.sort(rng.integers(1, bound + 1, (nb, nc)), axis=1)
    return A, B, MonotoneTag(axis="row-monotone", entry_bound=bound)


# --- normalization -----------------------------------------------------------------


def test_normalize_subtracts_row_minima():
    A_norm, deltas = normalize_A(np.array([[5, 7]]), bound=10)
    assert A_norm.tolist() == [[0, 2]]
    assert deltas.tolist() == [5]


def test_normalize_caps_large_entries():
    A_norm, _ = normalize_A(np.array([[0, 10**6]]), bound=4)
    assert A_norm.tolist() == [[0, 9]]


def test_normalize_roundtrips_through_naive_product():
    rng = np.random.default_rng(3)
    for _ in range(25):
        A, B, tag = random_product_inputs(rng)
        A_norm, deltas = normalize_A(A, tag.entry_bound)
        lifted = minplus_product_naive(A_norm, B) + deltas[:, None]
        assert np.array_equal(lifted, minplus_product_naive(A, B))


# --- residue shifting -----------------------------------------------------------


def test_shift_operand_entry_157():
    v = np.array([157])
    assert shift_operand(v, 57, 100).tolist() == [100]
    assert shift_operand(v, 3, 100).tolist() == [103]


def test_shift_output_window_and_fallback():
    # class 57 entry: in the window of u=57 and u=156, outside for u=3
    v = np.array([157])
    assert shift_output(v, 57, 100).tolist() == [100]
    assert shift_output(v, 56, 100).tolist() == [101]
    assert shift_output(v, 156, 100).tolist() == [1]
    assert shift_output(v, 3, 100).tolist() == [107]


def test_shift_highs_match_closed_form():
    # the literal rule (tests/helpers.py) reads the high part of a shifted entry as (x - sW) // M
    rng = np.random.default_rng(11)
    v = rng.integers(100, 5000, 200)
    for s in (0, 3, 57, 99):
        assert np.array_equal((v - s) // 100, shift_operand(v, s, 100) // 100)
    for u in (0, 57, 123, 198):
        assert np.array_equal((v - u) // 100, shift_output(v, u, 100) // 100)


def test_shift_maps_preserve_order_and_shrink_residues():
    rng = np.random.default_rng(12)
    M = 200
    v = np.sort(rng.integers(M, 40 * M, 500))
    for s in (0, 17, 99):
        w = shift_operand(v, s, M)
        assert (np.diff(w) >= 0).all()
        assert (w % M <= M // 10).all()
    for u in (0, 17, 101, 198):
        w = shift_output(v, u, M)
        assert (np.diff(w) >= 0).all()
        assert (w % M <= M // 10).all()


def test_all_shift_pairs_are_valid_instances():
    rng = np.random.default_rng(5)
    A = rng.integers(0, 60, (2, 3))
    B = np.sort(rng.integers(1, 30, (3, 2)), axis=1)
    C = minplus_product_naive(A, B)
    out = list(all_shift_pairs(A, B, C))
    assert [(s, t) for s, t, _ in out] == [(s, t) for s in range(100) for t in range(100)]
    for s, t, inst in out[::37]:
        rep = validate_instance(inst)
        assert rep.ok, (s, t, rep.reason)


def test_shift_pair_union_witness_equivalence():
    rng = np.random.default_rng(6)
    for _ in range(3):
        A = rng.integers(0, 50, (3, 2))
        B = np.sort(rng.integers(1, 25, (2, 3)), axis=1)
        C_cand = minplus_product_naive(A, B) + rng.integers(0, 2, (3, 3))
        want = witness_mask_naive(
            VerificationInstance(A=A, B=B, C=C_cand, M=100), query_axis="ij"
        )
        got = np.zeros_like(want)
        for _, _, inst in all_shift_pairs(A, B, C_cand):
            got |= witness_mask_naive(inst, query_axis="ij")
        assert np.array_equal(got, want)


def test_residue_class_partitions_by_hundredths():
    assert residue_class(np.array([0, 1, 57, 99, 100, 157]), 100).tolist() == [0, 1, 57, 99, 0, 57]
    assert residue_class(np.array([0, 5, 12, 399]), 400).tolist() == [0, 1, 3, 99]


def test_witness_scan_matches_oracle_on_arbitrary_inputs():
    # the equality scan needs no promise
    rng = np.random.default_rng(21)
    from minplus.shifting import congruent_witness_scan

    for trial in range(40):
        na, nb, nc = (int(v) for v in rng.integers(1, 9, 3))
        hi = int(rng.integers(2, 3000))
        A = rng.integers(0, hi, (na, nb))
        B = rng.integers(0, hi, (nb, nc))
        if rng.random() < 0.5:
            C = minplus_product_naive(A, B)
        else:
            C = rng.integers(0, 2 * hi, (na, nc))
        inst = VerificationInstance(A=A, B=B, C=C, M=100)
        for ax in ("ij", "ik"):
            got = congruent_witness_scan(A, B, C, query_axis=ax)[0]
            assert np.array_equal(got, witness_mask_naive(inst, query_axis=ax)), (trial, ax)


def test_witness_scan_rejects_bad_axis():
    from minplus.shifting import congruent_witness_scan

    with pytest.raises(ValueError):
        congruent_witness_scan(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), "kj")


# --- congruence counting --------------------------------------------------------


def test_compute_s_single_match():
    inst = VerificationInstance(A=np.array([[1]]), B=np.array([[2]]), C=np.array([[3]]), M=100)
    assert compute_s_matrix(inst, 5)[0, 0] == 1


def test_compute_s_counts_wraparound_collision():
    inst = VerificationInstance(
        A=np.array([[1, 6]]), B=np.array([[2], [2]]), C=np.array([[3]]), M=100
    )
    assert compute_s_matrix(inst, 5)[0, 0] == 2  # 8 = 3 (mod 5)
    assert compute_s_matrix(inst, 7)[0, 0] == 1  # 8 = 1 (mod 7)


def test_compute_s_equals_direct_count():
    rng = np.random.default_rng(8)
    for _ in range(20):
        na, nb, nc = (int(v) for v in rng.integers(1, 7, 3))
        Q = int(rng.integers(2, 40))
        A = rng.integers(0, 500, (na, nb))
        B = rng.integers(0, 500, (nb, nc))
        C = rng.integers(0, 1000, (na, nc))
        inst = VerificationInstance(A=A, B=B, C=C, M=100)
        want = ((A[:, :, None] + B[None, :, :] - C[:, None, :]) % Q == 0).sum(axis=1)
        assert np.array_equal(compute_s_matrix(inst, Q), want)


# --- verification solver --------------------------------------------------------


def test_solver_matches_witness_oracle_on_promised_instances():
    rng = np.random.default_rng(9)
    for _ in range(25):
        na, nb, nc = (int(v) for v in rng.integers(1, 11, 3))
        inst = promised_matrix(rng, na, nb, nc)
        got = solve_verification_row(inst)
        assert np.array_equal(got, witness_mask_naive(inst, query_axis="ij"))


def test_solver_all_false_when_candidate_overshoots():
    inst = VerificationInstance(
        A=np.array([[100]]), B=np.array([[200, 300]]), C=np.array([[301, 401]]), M=100
    )
    assert not solve_verification_row(inst).any()


def test_solver_single_witness_yes():
    inst = VerificationInstance(
        A=np.array([[100]]), B=np.array([[200, 300]]), C=np.array([[300, 400]]), M=100
    )
    assert solve_verification_row(inst).all()


def test_solver_rejects_promise_violations():
    inst = VerificationInstance(
        A=np.array([[50]]), B=np.array([[100, 150]]), C=np.array([[150, 200]]), M=100
    )
    with pytest.raises(PromiseViolationError) as exc:
        solve_verification_row(inst)
    assert exc.value.coord is not None


def test_s_dominates_s_prime_cellwise():
    rng = np.random.default_rng(10)
    from minplus.modulus import find_good_modulus
    from minplus.segments import active_level0_bounds, levelmax_for, matrix_layout, sprime_rows_flat

    for _ in range(10):
        inst = promised_matrix(rng, 4, 5, 4)
        Q, _ = find_good_modulus(inst)
        s = compute_s_matrix(inst, Q)
        layout = matrix_layout(inst)
        starts, ends = active_level0_bounds(layout, levelmax_for(inst.M), Q)
        s_prime = sprime_rows_flat(layout, starts, ends, Q)
        assert (s >= s_prime).all()


# --- end-to-end product ---------------------------------------------------------


def test_product_frozen_two_by_two():
    A = np.array([[0, 1], [2, 0]])
    B = np.array([[1, 2], [1, 2]])
    got = minplus_monotone_row(A, B, MonotoneTag(axis="row-monotone", entry_bound=2))
    assert got.tolist() == [[1, 2], [1, 2]]


def test_product_all_ones_B_selects_row_minima():
    rng = np.random.default_rng(13)
    A = rng.integers(0, 20, (4, 5))
    B = np.ones((5, 3), dtype=np.int64)
    got = minplus_monotone_row(A, B, MonotoneTag(axis="row-monotone", entry_bound=1))
    want = 1 + A.min(axis=1)
    assert np.array_equal(got, np.repeat(want[:, None], 3, axis=1))


def test_product_rejects_wrong_tag_axis():
    with pytest.raises(ValueError):
        minplus_monotone_row(
            np.zeros((2, 2)), np.ones((2, 2)), MonotoneTag(axis="column-monotone", entry_bound=1)
        )


def test_product_rejects_broken_promise_with_coordinate():
    B = np.array([[2, 1], [1, 2]])
    with pytest.raises(PromiseViolationError) as exc:
        minplus_monotone_row(np.zeros((2, 2)), B, MonotoneTag(axis="row-monotone", entry_bound=2))
    assert exc.value.coord == (0, 1)


def test_product_matches_naive_across_engines():
    rng = np.random.default_rng(14)
    for _ in range(40):
        A, B, tag = random_product_inputs(rng)
        want = minplus_product_naive(A, B)
        got = minplus_monotone_row(A, B, tag, SolverConfig(test_mode=True))
        assert np.array_equal(got, want)
        via_naive = minplus_monotone_row(A, B, tag, SolverConfig(engine="naive"))
        assert np.array_equal(via_naive, want)


def test_product_reference_engine_agrees():
    rng = np.random.default_rng(15)
    for _ in range(12):
        A, B, tag = random_product_inputs(rng, max_n=5, max_bound=9)
        cfg = SolverConfig(engine="det-reference", test_mode=True)
        got = minplus_monotone_row(A, B, tag, cfg)
        assert np.array_equal(got, minplus_product_naive(A, B))


def test_product_handles_negative_and_oversized_A():
    rng = np.random.default_rng(16)
    A = rng.integers(-200, 10**7, (5, 4))
    B = np.sort(rng.integers(1, 13, (4, 6)), axis=1)
    tag = MonotoneTag(axis="row-monotone", entry_bound=12)
    got = minplus_monotone_row(A, B, tag)
    assert np.array_equal(got, minplus_product_naive(A, B))


@pytest.mark.parametrize("engine,max_n", [("det", 9), ("det-reference", 7)])
@pytest.mark.parametrize("M", [100, 300, 1000])
@pytest.mark.parametrize("bound", [9, 30000])
def test_product_does_not_depend_on_M(engine, max_n, M, bound):
    """The driver's recursion with the shift modulus M in place of SHIFT_M
    gives the same product: M sets only how candidates are shifted. 30000
    is past the bound of 22500 per output column above which M used to be
    picked larger than 100."""
    config = SolverConfig(engine=engine, test_mode=True)
    level = partial(_row_level, M=M, config=config)
    rng = np.random.default_rng(bound + M)
    for _ in range(3):
        na, nb, nc = (int(v) for v in rng.integers(1, max_n, 3))
        A = rng.integers(0, 2 * bound + 3, (na, nb))
        B = np.sort(rng.integers(1, bound + 1, (nb, nc)), axis=1)
        A_norm, deltas = normalize_A(A, bound)
        got = settle_by_halving(A_norm, B, (na, nc), level, test_mode=True) + deltas[:, None]
        assert np.array_equal(got, minplus_product_naive(A, B))


def test_product_output_rows_monotone():
    rng = np.random.default_rng(18)
    for _ in range(10):
        A, B, tag = random_product_inputs(rng)
        got = minplus_monotone_row(A, B, tag)
        assert (np.diff(got, axis=1) >= 0).all()


def test_candidate_sandwich_against_naive():
    rng = np.random.default_rng(19)
    for _ in range(15):
        A, B, tag = random_product_inputs(rng, max_bound=60)
        C = minplus_product_naive(A, B)
        C_half = minplus_product_naive(A >> 1, B >> 1)
        gap = C - 2 * C_half
        assert gap.min() >= 0 and gap.max() <= 2


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    na=st.integers(1, 4),
    nb=st.integers(1, 4),
    nc=st.integers(1, 4),
    bound=st.integers(1, 12),
)
def test_product_matches_naive_property(data, na, nb, nc, bound):
    A = np.array(
        data.draw(st.lists(st.lists(st.integers(0, 3 * bound), min_size=nb, max_size=nb),
                           min_size=na, max_size=na))
    )
    B = np.sort(
        np.array(
            data.draw(st.lists(st.lists(st.integers(1, bound), min_size=nc, max_size=nc),
                               min_size=nb, max_size=nb))
        ),
        axis=1,
    )
    tag = MonotoneTag(axis="row-monotone", entry_bound=bound)
    got = minplus_monotone_row(A, B, tag, SolverConfig(test_mode=True))
    assert np.array_equal(got, minplus_product_naive(A, B))


@pytest.mark.parametrize("family", cli.FAMILIES)
@settings(max_examples=12, deadline=None)
@given(
    na=st.integers(1, 5),
    nb=st.integers(1, 5),
    nc=st.integers(1, 5),
    bound=st.one_of(st.integers(1, 64), st.integers(1, INT64_GUARD // 8 - 1), st.just(INT64_GUARD // 8 - 1)),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_driver_matches_naive_on_every_family(family, na, nb, nc, bound, seed):
    rng = np.random.default_rng(seed)
    A = cli._family_rows(rng, family, na, nb, bound, monotone=False)
    B = cli._family_rows(rng, family, nb, nc, bound, monotone=True)
    tag = MonotoneTag(axis="row-monotone", entry_bound=bound)
    got = minplus_monotone_row(A, B, tag, SolverConfig(test_mode=True))
    assert np.array_equal(got, minplus_product_naive(A, B))
