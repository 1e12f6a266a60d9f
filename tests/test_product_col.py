import tracemalloc

import numpy as np
import pytest
from helpers import all_shift_pairs, checked_levels, minst, promised_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from minplus import cli, product_col, shifting
from minplus.config import SolverConfig
from minplus.convolution import minplus_conv_monotone
from minplus.core import (
    INT64_GUARD,
    DimensionMismatchError,
    MonotoneTag,
    PromiseViolationError,
    VerificationInstance,
    minplus_product_naive,
    witness_mask_naive,
)
from minplus.product_col import (
    _narrow_operands,
    compute_r_matrix,
    minplus_monotone_col,
    normalize_nonincreasing,
    rotate_to_problem2prime,
    solve_verification_col,
    twopointer_direct,
)
from minplus.product_row import minplus_monotone_row


def random_col_inputs(rng, max_n=9, max_bound=40):
    na, nb, nc = (int(v) for v in rng.integers(1, max_n, 3))
    bound = int(rng.integers(1, max_bound))
    A = rng.integers(0, 2 * bound + 3, (na, nb))
    B = np.sort(rng.integers(1, bound + 1, (nb, nc)), axis=0)
    return A, B, MonotoneTag(axis="column-monotone", entry_bound=bound)


# --- normalization and rotation --------------------------------------------------


def test_prefix_min_normalization():
    got = normalize_nonincreasing(np.array([[3, 5, 2]]))
    assert got.tolist() == [[3, 3, 2]]


def test_prefix_min_keeps_nonincreasing_rows():
    row = np.array([[9, 7, 7, 1]])
    assert np.array_equal(normalize_nonincreasing(row), row)


def test_prefix_min_preserves_product_against_colmono_B():
    rng = np.random.default_rng(1)
    for _ in range(25):
        A, B, _ = random_col_inputs(rng)
        want = minplus_product_naive(A, B)
        assert np.array_equal(minplus_product_naive(normalize_nonincreasing(A), B), want)


def test_rotation_identity_one_by_one():
    rot = rotate_to_problem2prime(np.array([[2]]), np.array([[3]]), np.array([[5]]), W=10)
    assert rot.A.tolist() == [[5]] and rot.B.tolist() == [[3]] and rot.C.tolist() == [[8]]
    assert rot.A[0, 0] + rot.B[0, 0] == rot.C[0, 0]


def test_rotation_rejects_small_complement():
    with pytest.raises(ValueError):
        rotate_to_problem2prime(np.array([[2]]), np.array([[3]]), np.array([[5]]), W=4)


def test_rotation_makes_rows_monotone():
    rng = np.random.default_rng(2)
    A = normalize_nonincreasing(rng.integers(0, 50, (4, 5)))
    B = np.sort(rng.integers(1, 30, (5, 3)), axis=0)
    C = minplus_product_naive(A, B)
    rot = rotate_to_problem2prime(A, B, C, W=int(max(A.max(), B.max(), C.max())))
    assert (np.diff(rot.B, axis=1) >= 0).all()
    assert (np.diff(rot.C, axis=1) >= 0).all()


def test_rotation_witnesses_match_original():
    rng = np.random.default_rng(3)
    for _ in range(15):
        A, B, _ = random_col_inputs(rng, max_n=6, max_bound=20)
        C = minplus_product_naive(A, B) + rng.integers(0, 2, (A.shape[0], B.shape[1]))
        W = int(max(A.max(), B.max(), C.max()))
        rot = rotate_to_problem2prime(A, B, C, W)
        orig = witness_mask_naive(VerificationInstance(A=A, B=B, C=C, M=100), query_axis="ij")
        rotated = witness_mask_naive(
            VerificationInstance(A=rot.A, B=rot.B, C=rot.C, M=100),
            query_axis="ik",
        )
        assert np.array_equal(rotated, orig)


# --- verification solver ----------------------------------------------------------


def test_r_matrix_equals_direct_count():
    rng = np.random.default_rng(4)
    for _ in range(20):
        na, nb, nc = (int(v) for v in rng.integers(1, 7, 3))
        Q = int(rng.integers(2, 40))
        A = rng.integers(0, 500, (na, nb))
        B = rng.integers(0, 500, (nb, nc))
        C = rng.integers(0, 1000, (na, nc))
        inst = VerificationInstance(A=A, B=B, C=C, M=100)
        want = ((A[:, :, None] + B[None, :, :] - C[:, None, :]) % Q == 0).sum(axis=2)
        assert np.array_equal(compute_r_matrix(inst, Q), want)


def test_col_solver_matches_witness_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        na, nb, nc = (int(v) for v in rng.integers(1, 11, 3))
        inst = promised_matrix(rng, na, nb, nc)
        got = solve_verification_col(inst)
        assert np.array_equal(got, witness_mask_naive(inst, query_axis="ik"))


def test_col_solver_single_witness_yes():
    inst = VerificationInstance(
        A=np.array([[100]]), B=np.array([[200, 300]]), C=np.array([[300, 400]]), M=100,
    )
    assert solve_verification_col(inst).all()


def test_col_solver_no_congruent_column():
    inst = VerificationInstance(
        A=np.array([[100]]), B=np.array([[200, 300]]), C=np.array([[301, 401]]), M=100,
    )
    assert not solve_verification_col(inst).any()


def test_r_dominates_r_prime_cellwise():
    rng = np.random.default_rng(6)
    from minplus.modulus import find_good_modulus
    from minplus.segments import active_level0_bounds, levelmax_for, matrix_layout, rprime_ik_flat

    for _ in range(10):
        inst = promised_matrix(rng, 4, 5, 4)
        Q, _ = find_good_modulus(inst)
        r = compute_r_matrix(inst, Q)
        layout = matrix_layout(inst)
        starts, ends = active_level0_bounds(layout, levelmax_for(inst.M), Q)
        r_prime = rprime_ik_flat(layout, starts, ends, Q)
        assert (r >= r_prime).all()


def test_col_solver_equals_union_of_shift_pair_masks():
    rng = np.random.default_rng(7)
    A = normalize_nonincreasing(rng.integers(0, 20, (2, 3)))
    B = np.sort(rng.integers(1, 11, (3, 2)), axis=0)
    C = minplus_product_naive(A, B)
    W = int(max(A.max(), B.max(), C.max()))
    rot = rotate_to_problem2prime(A, B, C, W)
    want = witness_mask_naive(VerificationInstance(A=A, B=B, C=C, M=100), query_axis="ij")
    got = np.zeros_like(want)
    from minplus.shifting import residue_class

    live_a = set(np.unique(residue_class(rot.A + 100, 100)).tolist())
    live_b = set(np.unique(residue_class(rot.B + 100, 100)).tolist())
    for s, t, shifted in all_shift_pairs(rot.A, rot.B, rot.C):
        if s not in live_a or t not in live_b:
            continue
        inst = VerificationInstance(A=shifted.A, B=shifted.B, C=shifted.C, M=100)
        got |= solve_verification_col(inst)
    assert np.array_equal(got, want)


# --- two-pointer engine -----------------------------------------------------------


def test_twopointer_finds_block_representative():
    inst = VerificationInstance(
        A=np.array([[0]]), B=np.array([[1, 1, 2]]), C=np.array([[1, 3, 2]]), M=100,
    )
    assert twopointer_direct(inst)[0].all()


def test_twopointer_constant_rows_no_match():
    inst = VerificationInstance(
        A=np.array([[5]]), B=np.array([[1, 1, 1]]), C=np.array([[2, 2, 2]]), M=100,
    )
    assert not twopointer_direct(inst)[0].any()


def test_twopointer_matches_oracle_on_arbitrary_instances():
    rng = np.random.default_rng(8)
    for _ in range(40):
        na, nb, nc = (int(v) for v in rng.integers(1, 9, 3))
        A = rng.integers(0, 60, (na, nb))
        B = rng.integers(0, 60, (nb, nc))
        C = rng.integers(0, 120, (na, nc))
        inst = VerificationInstance(A=A, B=B, C=C, M=100)
        assert np.array_equal(twopointer_direct(inst)[0], witness_mask_naive(inst, query_axis="ik"))


def test_twopointer_agrees_with_verification_solver():
    rng = np.random.default_rng(9)
    for _ in range(15):
        inst = promised_matrix(rng, 5, 4, 6)
        assert np.array_equal(twopointer_direct(inst)[0], solve_verification_col(inst))


def test_common_refinement_block_count():
    rng = np.random.default_rng(10)
    for _ in range(20):
        nc = int(rng.integers(1, 12))
        brow = np.sort(rng.integers(0, 5, nc))
        crow = np.sort(rng.integers(0, 5, nc))
        b_starts = np.flatnonzero(np.diff(brow, prepend=brow[0] - 1) != 0)
        c_starts = np.flatnonzero(np.diff(crow, prepend=crow[0] - 1) != 0)
        refined = np.union1d(b_starts, c_starts)
        assert refined.size <= b_starts.size + c_starts.size - 1


def planted_col(rng, shape, hi, repeat=1):
    """Arbitrary signed A, B in [-hi, hi]; B's rows are sorted and coarsened to
    multiples of `repeat` half the time, so they hold long constant blocks.
    Half of C are witness sums moved by 0 or +-1, the rest random."""
    na, nb, nc = shape
    A = rng.integers(-hi, hi + 1, (na, nb))
    B = rng.integers(-hi, hi + 1, (nb, nc))
    if rng.random() < 0.5:
        B = np.sort(B, axis=1) // repeat * repeat
    k = rng.integers(0, nb, (na, nc))
    sums = A[np.arange(na)[:, None], k] + B[k, np.arange(nc)[None, :]]
    sums += rng.choice([0, 0, 1, -1], sums.shape)
    C = np.where(rng.random(sums.shape) < 0.5, sums, rng.integers(-2 * hi, 2 * hi + 1, sums.shape))
    if rng.random() < 0.5:
        C = np.sort(C, axis=1)
    return minst(A, B, C)


# Entry scales on both sides of the int8, int16 and int32 switches.
TP_SCALES = (1, 40, 43, 10000, 11000, 1 << 29, 3 << 29)


@settings(max_examples=80, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    hi=st.sampled_from(TP_SCALES),
    repeat=st.sampled_from((1, 3, 50)),
    seed=st.integers(0, 2**32 - 1),
)
def test_twopointer_matches_oracle_property(shape, hi, repeat, seed):
    inst = planted_col(np.random.default_rng(seed), shape, hi, repeat)
    assert np.array_equal(twopointer_direct(inst)[0], witness_mask_naive(inst, query_axis="ik"))


# Largest |A|, |B| and |C| one step either side of each switch, with the dtype
# they must give: what is formed is C - A, B + A and -A, so the switch is at
# max(|B|, |C|) + |A|.
TP_THRESHOLD_CASES = [
    ((85, 41, 42), np.int8),
    ((85, 42, 43), np.int16),
    ((2, 126, 1), np.int16),
    ((21845, 10921, 10922), np.int16),
    ((21845, 10922, 10923), np.int32),
    ((2, 1, 32766), np.int32),
    ((1431655765, 715827881, 715827882), np.int32),
    ((1431655765, 715827882, 715827883), np.int64),
    ((2**31 - 1, 1, 1), np.int64),
]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("tops, dtype", TP_THRESHOLD_CASES)
def test_twopointer_exact_on_both_sides_of_each_threshold(tops, dtype, sign):
    ta, tb, tc = tops
    # extremes at (0, 0), so C[0,0] - B[0,0] = tc + tb (a witness when
    # ta = tb + tc); small witnesses at (0, 1), (1, 0) and (1, 1)
    A = sign * np.array([[ta, 0], [0, 1]])
    B = sign * np.array([[-tb, 0, 1], [0, 1, 0]])
    C = sign * np.array([[tc, 1, 1], [0, 1, 1]])
    inst = minst(A, B, C)
    assert all(x.dtype == dtype for x in _narrow_operands(inst, (0,)))
    got = twopointer_direct(inst)[0]
    assert np.array_equal(got, witness_mask_naive(inst, query_axis="ik"))
    assert got[0, 1] and got[1, 0] and got[1, 1]
    assert got[0, 0] == (ta == tb + tc)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 7, 1), (1, 1, 9), (8, 1, 1), (1, 5, 30), (6, 1, 30)])
def test_twopointer_degenerate_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(10):
        inst = planted_col(rng, shape, 20, repeat=4)
        assert np.array_equal(twopointer_direct(inst)[0], witness_mask_naive(inst, query_axis="ik"))


@pytest.mark.parametrize("block", [1, 5, 37])
def test_twopointer_unchanged_by_many_blocks(monkeypatch, block):
    # 3 x 4 x 40 with long sorted rows: each row has several starts, so with
    # 37 // 3 = 12 starts per block one row's starts fall into two blocks
    rng = np.random.default_rng(block)
    insts = [planted_col(rng, (3, 4, 40), 30, repeat=2) for _ in range(6)]
    insts.append(minst(rng.integers(0, 9, (3, 4)), np.sort(rng.integers(0, 9, (4, 40)), axis=1),
                       np.sort(rng.integers(0, 18, (3, 40)), axis=1)))
    whole = [twopointer_direct(inst)[0] for inst in insts]
    monkeypatch.setattr(shifting, "SCAN_BLOCK", block)
    for inst, want in zip(insts, whole):
        assert np.array_equal(twopointer_direct(inst)[0], want)
        assert np.array_equal(want, witness_mask_naive(inst, query_axis="ik"))


@settings(max_examples=80, deadline=None)
@given(
    na=st.integers(1, 17),
    nb=st.integers(1, 17),
    nc=st.integers(1, 9),
    shifts=st.sampled_from([(0,), (0, 1), (0, 1, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_twopointer_shifts_match_oracle_across_word_widths(na, nb, nc, shifts, seed):
    # na and nb are the hit rows of the two passes: part of a word, one
    # word, part of a second word, two words; C is A + B - d with d in
    # {-1, 0, 1, 2}, so each shift s has planted witnesses at d = s
    rng = np.random.default_rng(seed)
    A = rng.integers(-20, 21, (na, nb))
    B = np.sort(rng.integers(-20, 21, (nb, nc)), axis=1) // 3 * 3
    k = rng.integers(0, nb, (na, nc))
    C = A[np.arange(na)[:, None], k] + B[k, np.arange(nc)] - rng.integers(-1, 3, (na, nc))
    if rng.random() < 0.5:
        C = np.sort(C, axis=1)
    got = twopointer_direct(minst(A, B, C), shifts)
    assert got.shape == (len(shifts), na, nb)
    for s, mask in zip(shifts, got):
        assert np.array_equal(mask, witness_mask_naive(minst(A - s, B, C), query_axis="ik"))


def test_twopointer_pad_columns_never_reach_the_mask():
    # hit rows are padded with zeros to whole words; with row k of B at
    # k % 3 and row i of C at -i, a zero pad column would match every shift
    # in both passes (0 == B - s, 0 == C + s), while A = 50 leaves only the
    # planted witness at (0, 0) for +0
    A = np.full((3, 5), 50)
    A[0, 0] = 0
    B = np.repeat(np.arange(5)[:, None] % 3, 4, axis=1)
    C = np.repeat(-np.arange(3)[:, None], 4, axis=1)
    inst = minst(A, B, C)
    got = twopointer_direct(inst, (0, 1, 2))
    assert got.shape == (3, 3, 5)
    assert got.sum() == 1 and got[0, 0, 0]
    for s, mask in enumerate(got):
        assert np.array_equal(mask, witness_mask_naive(minst(A - s, B, C), query_axis="ik"))


def test_twopointer_memory_bounded_by_blocks():
    """One call at n=256 allocates at most eight n x n int64 arrays' worth
    (start positions, narrow and transposed copies, masks) plus four blocks
    of SCAN_BLOCK int64 cells, so no n^3 temporary is formed."""
    n = 256
    rng = np.random.default_rng(0)
    A = rng.integers(0, 20000, (n, n))
    B = np.sort(rng.integers(0, 20000, (n, n)), axis=1)
    C = np.sort(rng.integers(0, 40000, (n, n)), axis=1)
    inst = minst(A, B, C)
    tracemalloc.start()
    try:
        twopointer_direct(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * n * 8 + 4 * shifting.SCAN_BLOCK * 8


# --- end-to-end product -----------------------------------------------------------


def test_col_product_frozen_two_by_two():
    A = np.array([[0, 1], [2, 0]])
    B = np.array([[1, 1], [2, 3]])
    got = minplus_monotone_col(A, B, MonotoneTag(axis="column-monotone", entry_bound=3))
    assert np.array_equal(got, minplus_product_naive(A, B))


def test_col_product_constant_columns_reduce_to_row_minima():
    rng = np.random.default_rng(11)
    A = rng.integers(0, 20, (4, 5))
    b = rng.integers(1, 9, 3)
    B = np.repeat(b[None, :], 5, axis=0)
    got = minplus_monotone_col(A, B, MonotoneTag(axis="column-monotone", entry_bound=8))
    assert np.array_equal(got, A.min(axis=1)[:, None] + b[None, :])


def test_col_product_rejects_wrong_tag_axis():
    with pytest.raises(ValueError):
        minplus_monotone_col(
            np.zeros((2, 2)), np.ones((2, 2)), MonotoneTag(axis="row-monotone", entry_bound=1)
        )


# Each driver with its tag axis and operands that keep any bound of 1 or more.
DRIVER_OPERANDS = [
    (minplus_monotone_row, "row-monotone", np.ones((2, 2)), np.ones((2, 2))),
    (minplus_monotone_col, "column-monotone", np.ones((2, 2)), np.ones((2, 2))),
    (minplus_conv_monotone, "array-monotone", np.ones(2), np.ones(2)),
]


@pytest.mark.parametrize("bound", [INT64_GUARD // 8, 2**63])
@pytest.mark.parametrize("driver,axis,A,B", DRIVER_OPERANDS)
def test_drivers_refuse_entry_bounds_beyond_int64(driver, axis, A, B, bound):
    with pytest.raises(ValueError, match="entry bound too large"):
        driver(A, B, MonotoneTag(axis=axis, entry_bound=bound))


@pytest.mark.parametrize("tag_of,match", [
    (lambda axis: None, "MonotoneTag, got NoneType"),
    (lambda axis: (axis, 2), "MonotoneTag, got tuple"),
    (lambda axis: MonotoneTag(axis=axis, entry_bound=2.5), "entry bound must be an integer"),
    (lambda axis: MonotoneTag(axis=axis, entry_bound=2.0), "entry bound must be an integer"),
    (lambda axis: MonotoneTag(axis=axis, entry_bound=True), "entry bound must be an integer"),
], ids=["none", "tuple", "bound-2.5", "bound-2.0", "bound-bool"])
@pytest.mark.parametrize("driver,axis,A,B", DRIVER_OPERANDS)
def test_drivers_refuse_malformed_tags(driver, axis, A, B, tag_of, match):
    with pytest.raises(ValueError, match=match):
        driver(A, B, tag_of(axis))


@pytest.mark.parametrize("driver,axis,A,B", DRIVER_OPERANDS)
def test_drivers_accept_a_numpy_integer_bound(driver, axis, A, B):
    got = driver(A, B, MonotoneTag(axis=axis, entry_bound=np.int64(2)))
    want = driver(A, B, MonotoneTag(axis=axis, entry_bound=2))
    assert np.array_equal(getattr(got, "values", got), getattr(want, "values", want))


# Entries that form no integer matrix (array): strings, numeric or not, None
# and ragged rows, as a matrix and as an array. Each is refused in a typed
# way, as the left or the right operand.
BAD_ENTRIES = [
    ([["1", "x"], ["1", "x"]], ["1", "x"], PromiseViolationError, "not integers"),
    ([["1", "2"], ["1", "2"]], ["1", "2"], PromiseViolationError, "not integers"),
    ([[1, None], [1, 1]], [1, None], PromiseViolationError, "not a number"),
    ([[1, 1], [1]], [[1, 1], [1]], DimensionMismatchError, "rectangular"),
]


@pytest.mark.parametrize("matrix,array,error,match", BAD_ENTRIES,
                         ids=["string", "numeric-string", "none", "ragged"])
@pytest.mark.parametrize("driver,axis,A,B", DRIVER_OPERANDS)
def test_drivers_refuse_entries_that_form_no_integer_array(driver, axis, A, B, matrix, array, error, match):
    bad = matrix if A.ndim == 2 else array
    tag = MonotoneTag(axis=axis, entry_bound=2)
    with pytest.raises(error, match=match):
        driver(bad, B, tag)
    with pytest.raises(error, match=match):
        driver(A, bad, tag)


def test_col_product_rejects_broken_promise():
    B = np.array([[2, 2], [1, 2]])
    with pytest.raises(PromiseViolationError) as exc:
        minplus_monotone_col(
            np.zeros((2, 2)), B, MonotoneTag(axis="column-monotone", entry_bound=2)
        )
    assert exc.value.coord == (1, 0)


def test_col_product_matches_naive():
    rng = np.random.default_rng(12)
    for _ in range(25):
        A, B, tag = random_col_inputs(rng)
        with checked_levels():
            got = minplus_monotone_col(A, B, tag)
        assert np.array_equal(got, minplus_product_naive(A, B))


def test_checked_levels_catch_a_wrong_twopointer_mask(monkeypatch):
    # flip the first cell of the +0 mask; checked_levels compares every
    # level's masks with twopointer_bruteforce, and +0 is tested on every level
    real = product_col.twopointer_direct

    def flipped(inst, shifts):
        masks = real(inst, shifts)
        masks[(0,) * masks.ndim] ^= True
        return masks

    monkeypatch.setattr(product_col, "twopointer_direct", flipped)
    A = np.array([[3, 1, 4], [0, 2, 5]])
    B = np.array([[1, 2], [3, 3], [4, 6]])
    tag = MonotoneTag(axis="column-monotone", entry_bound=6)
    with checked_levels(), pytest.raises(AssertionError, match="disagree"):
        minplus_monotone_col(A, B, tag)


def test_twopointer_bruteforce_runs_the_scan_once_per_level_and_only_when_checked(monkeypatch):
    calls = {"scan": 0, "levels": 0}
    real_scan, real_level = product_col.congruent_witness_scan, product_col._col_level

    def scan(*args, **kwargs):
        calls["scan"] += 1
        return real_scan(*args, **kwargs)

    def level(*args, **kwargs):
        calls["levels"] += 1
        return real_level(*args, **kwargs)

    monkeypatch.setattr(product_col, "congruent_witness_scan", scan)
    monkeypatch.setattr(product_col, "_col_level", level)
    rng = np.random.default_rng(17)
    for _ in range(5):
        A, B, tag = random_col_inputs(rng)
        calls.update(scan=0, levels=0)
        minplus_monotone_col(A, B, tag)
        assert calls["scan"] == 0 and calls["levels"] > 0
        calls.update(scan=0, levels=0)
        with checked_levels():
            got = minplus_monotone_col(A, B, tag)
        assert calls["scan"] == calls["levels"] > 0
        assert np.array_equal(got, minplus_product_naive(A, B))


def test_col_product_via_naive_engine():
    rng = np.random.default_rng(13)
    A, B, tag = random_col_inputs(rng)
    got = minplus_monotone_col(A, B, tag, SolverConfig(engine="naive"))
    assert np.array_equal(got, minplus_product_naive(A, B))


def test_col_product_handles_negative_and_oversized_A():
    rng = np.random.default_rng(14)
    A = rng.integers(-300, 10**7, (5, 4))
    B = np.sort(rng.integers(1, 13, (4, 6)), axis=0)
    tag = MonotoneTag(axis="column-monotone", entry_bound=12)
    got = minplus_monotone_col(A, B, tag)
    assert np.array_equal(got, minplus_product_naive(A, B))


def test_col_product_rectangular_extremes():
    rng = np.random.default_rng(15)
    for na, nb, nc in [(1, 7, 3), (9, 1, 4), (3, 6, 1), (12, 2, 2)]:
        bound = int(rng.integers(1, 30))
        A = rng.integers(0, 2 * bound + 3, (na, nb))
        B = np.sort(rng.integers(1, bound + 1, (nb, nc)), axis=0)
        tag = MonotoneTag(axis="column-monotone", entry_bound=bound)
        got = minplus_monotone_col(A, B, tag)
        assert np.array_equal(got, minplus_product_naive(A, B))


@pytest.mark.parametrize("family", cli.FAMILIES)
def test_col_driver_matches_naive_on_every_family(family):
    rng = np.random.default_rng(len(family))
    for na, nb, nc in [(1, 1, 1), (1, 6, 1), (5, 1, 7), (4, 9, 1), (7, 3, 12), (16, 16, 16)]:
        for bound in (1, 3, 40):
            A = cli._family_rows(rng, family, na, nb, bound, monotone=False)
            B = cli._family_rows(rng, family, nc, nb, bound, monotone=True).T
            tag = MonotoneTag(axis="column-monotone", entry_bound=bound)
            with checked_levels():
                got = minplus_monotone_col(A, B, tag)
            assert np.array_equal(got, minplus_product_naive(A, B)), (na, nb, nc, bound)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    na=st.integers(1, 4),
    nb=st.integers(1, 4),
    nc=st.integers(1, 4),
    bound=st.integers(1, 12),
)
def test_col_product_matches_naive_property(data, na, nb, nc, bound):
    A = np.array(
        data.draw(st.lists(st.lists(st.integers(0, 3 * bound), min_size=nb, max_size=nb),
                           min_size=na, max_size=na))
    )
    B = np.sort(
        np.array(
            data.draw(st.lists(st.lists(st.integers(1, bound), min_size=nc, max_size=nc),
                               min_size=nb, max_size=nb))
        ),
        axis=0,
    )
    tag = MonotoneTag(axis="column-monotone", entry_bound=bound)
    with checked_levels():
        got = minplus_monotone_col(A, B, tag)
    assert np.array_equal(got, minplus_product_naive(A, B))


@pytest.mark.parametrize("engine", ["det", "naive"])
@pytest.mark.parametrize("driver,axis", [
    (minplus_monotone_row, "row-monotone"),
    (minplus_monotone_col, "column-monotone"),
])
def test_drivers_refuse_mismatched_shapes(driver, axis, engine):
    A = np.ones((2, 3), dtype=np.int64)
    B = np.ones((2, 3), dtype=np.int64)
    with pytest.raises(DimensionMismatchError):
        driver(A, B, MonotoneTag(axis=axis, entry_bound=1), SolverConfig(engine=engine))


def test_col_product_refuses_reference_engine():
    A = np.ones((4, 4), dtype=np.int64)
    B = np.ones((4, 4), dtype=np.int64)
    tag = MonotoneTag(axis="column-monotone", entry_bound=1)
    with pytest.raises(ValueError, match="det-reference"):
        minplus_monotone_col(A, B, tag, SolverConfig(engine="det-reference"))


@pytest.mark.parametrize("engine", ["det", "naive"])
@pytest.mark.parametrize("field,value", [("R", 50), ("slack", 3.0)])
def test_col_product_refuses_modulus_options(field, value, engine):
    """The column driver searches no modulus, so a set R or slack would be
    silently ignored; it is refused instead."""
    A = np.ones((4, 4), dtype=np.int64)
    B = np.ones((4, 4), dtype=np.int64)
    tag = MonotoneTag(axis="column-monotone", entry_bound=1)
    with pytest.raises(ValueError, match=f"refuses {field}"):
        minplus_monotone_col(A, B, tag, SolverConfig(engine=engine, **{field: value}))


@pytest.mark.parametrize("engine", ["det", "naive"])
@pytest.mark.parametrize("driver,axis,A,B", [
    (minplus_monotone_row, "row-monotone", [[1.5, 9.0]], [[1], [1]]),
    (minplus_monotone_col, "column-monotone", [[1.5, 9.0]], [[1], [1]]),
    (minplus_monotone_row, "row-monotone", [[1, 9]], [[1.0], [np.nan]]),
    (minplus_conv_monotone, "array-monotone", [1.5, 2.0], [1, 1]),
])
def test_drivers_refuse_non_integral_entries(driver, axis, A, B, engine):
    # 1.5 used to be truncated to 1, giving [[2]] for a true minimum of 2.5
    with pytest.raises(PromiseViolationError, match="not an integer"):
        driver(A, B, MonotoneTag(axis=axis, entry_bound=2), SolverConfig(engine=engine))


@pytest.mark.parametrize("engine", ["det", "naive"])
@pytest.mark.parametrize("driver,axis", [
    (minplus_monotone_row, "row-monotone"),
    (minplus_monotone_col, "column-monotone"),
])
@pytest.mark.parametrize("shape_a,shape_b", [((2, 0), (0, 2)), ((0, 2), (2, 2)), ((2, 2), (2, 0))])
def test_drivers_refuse_zero_dimensions(driver, axis, engine, shape_a, shape_b):
    A = np.ones(shape_a, dtype=np.int64)
    B = np.ones(shape_b, dtype=np.int64)
    with pytest.raises(DimensionMismatchError, match="zero dimension"):
        driver(A, B, MonotoneTag(axis=axis, entry_bound=1), SolverConfig(engine=engine))
    with pytest.raises(DimensionMismatchError, match="zero dimension"):
        minplus_product_naive(A, B)


@pytest.mark.parametrize("block", [None, 1, 5, 37])
def test_twopointer_shifts_match_one_call_each(monkeypatch, block):
    # the column driver passes a level's candidate shifts in one call; each
    # mask must equal a call on that shifted A alone
    rng = np.random.default_rng(100 + (block or 0))
    if block is not None:
        monkeypatch.setattr(shifting, "SCAN_BLOCK", block)
    for shape in [(1, 1, 1), (3, 4, 40), (5, 1, 7), (6, 6, 6)]:
        inst = planted_col(rng, shape, 30, repeat=3)
        got = twopointer_direct(inst, (0, 1, 2))
        assert got.shape == (3,) + inst.A.shape
        for s, mask in enumerate(got):
            one = minst(inst.A - s, inst.B, inst.C)
            assert np.array_equal(mask, twopointer_direct(one)[0])
            assert np.array_equal(mask, witness_mask_naive(one, query_axis="ik"))
