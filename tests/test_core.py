import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minplus import cli
from minplus.convolution import solve_verification_conv
from minplus.core import (
    ConvVerificationInstance,
    DimensionMismatchError,
    INT64_GUARD,
    IntArray,
    MonotoneTag,
    PromiseViolationError,
    ValidationReport,
    VerificationInstance,
    as_exact_int64,
    as_int_array,
    magnitude_sum,
    minplus_convolution_naive,
    minplus_product_naive,
    narrow_int_dtype,
    validate_instance,
    validate_promises,
    witness_mask_naive,
)
from minplus.modulus import find_good_modulus
from minplus.product_col import solve_verification_col
from minplus.product_row import solve_verification_row


def test_validate_row_monotone_ok():
    tag = MonotoneTag("row-monotone", 2)
    rep = validate_promises(np.array([[1, 2], [1, 2]]), tag)
    assert rep == ValidationReport(True)


def test_validate_row_monotone_violation_coord():
    # 2 followed by 1 breaks monotonicity at the second entry of row 0
    rep = validate_promises(np.array([[2, 1]]), MonotoneTag("row-monotone", 10))
    assert not rep.ok
    assert rep.coord == (0, 1)
    assert rep.reason == "monotonicity"


def test_validate_array_monotone_ok():
    rep = validate_promises(IntArray(np.array([1, 1, 3])), MonotoneTag("array-monotone", 3))
    assert rep.ok


def test_validate_bound_violation_precedes():
    rep = validate_promises(np.array([[0, 5]]), MonotoneTag("row-monotone", 4))
    assert not rep.ok and rep.coord == (0, 0) and rep.reason == "bound"


def test_validate_column_monotone():
    rep = validate_promises(np.array([[3, 1], [2, 2]]), MonotoneTag("column-monotone", 5))
    assert not rep.ok and rep.coord == (1, 0)


def test_product_naive_hand_instance():
    A = np.array([[0, 1], [2, 0]])
    B = np.array([[1, 2], [1, 2]])
    assert np.array_equal(minplus_product_naive(A, B), [[1, 2], [1, 2]])


def test_product_naive_single_cell():
    assert np.array_equal(minplus_product_naive([[0]], [[5]]), [[5]])


def test_product_naive_zero_left_factor():
    rng = np.random.default_rng(1)
    B = np.sort(rng.integers(1, 9, size=(3, 4)), axis=1)
    A = np.zeros((2, 3), dtype=np.int64)
    C = minplus_product_naive(A, B)
    assert np.array_equal(C, np.broadcast_to(B.min(axis=0), (2, 4)))


def test_product_naive_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        minplus_product_naive(np.zeros((2, 3)), np.zeros((2, 3)))


def test_convolution_naive_hand_instance():
    out = minplus_convolution_naive(as_int_array([1, 2]), as_int_array([1, 1]))
    assert out.origin == 2
    assert np.array_equal(out.values, [2, 2, 3])


def test_convolution_naive_length_one():
    out = minplus_convolution_naive(as_int_array([3]), as_int_array([4]))
    assert np.array_equal(out.values, [7])


def test_convolution_naive_zero():
    out = minplus_convolution_naive(as_int_array([0] * 5), as_int_array([0] * 5))
    assert np.array_equal(out.values, np.zeros(9, dtype=np.int64))


def _matrix_instance(A, B, C, M=100):
    return VerificationInstance(
        A=np.asarray(A, dtype=np.int64),
        B=np.asarray(B, dtype=np.int64),
        C=np.asarray(C, dtype=np.int64),
        M=M,
    )


def test_witness_mask_all_true_on_exact_product():
    A = np.array([[0, 1], [2, 0]])
    B = np.array([[1, 2], [1, 2]])
    C = minplus_product_naive(A, B)
    mask = witness_mask_naive(_matrix_instance(A, B, C), "ij")
    assert mask.all()


def test_witness_mask_all_false_below_sums():
    A = np.array([[0, 1], [2, 0]])
    B = np.array([[1, 2], [1, 2]])
    mask = witness_mask_naive(_matrix_instance(A, B, np.zeros((2, 2))), "ij")
    assert not mask.any()


def test_witness_mask_conv():
    inst = ConvVerificationInstance(
        A=as_int_array([1, 2]),
        B=as_int_array([1, 1]),
        C=IntArray(np.array([2, 2, 3]), origin=2),
        M=100,
    )
    assert witness_mask_naive(inst, "k").all()


def test_witness_mask_ik_axis():
    # witness per (i,k): does some j satisfy A[i,k] + B[k,j] == C[i,j]
    A = np.array([[0, 3]])
    B = np.array([[1, 1, 2], [5, 5, 5]])
    C = np.array([[1, 3, 9]])
    mask = witness_mask_naive(_matrix_instance(A, B, C), "ik")
    assert mask.tolist() == [[True, False]]


def test_validate_instance_residue_promise():
    inst = _matrix_instance([[100]], [[100]], [[211]], M=100)
    rep = validate_instance(inst)
    assert not rep.ok and "residue" in rep.reason and rep.coord == (0, 0)


def test_validate_instance_ok():
    inst = _matrix_instance([[100, 105]], [[200], [300]], [[301]], M=100)
    assert validate_instance(inst).ok


monotone_rows = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(1, 30), min_size=n, max_size=n).map(sorted),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=60, deadline=None)
@given(monotone_rows, st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_product_rows_stay_monotone_when_B_is(brows, ni, seed):
    B = np.array(brows, dtype=np.int64)
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 20, size=(ni, B.shape[0])).astype(np.int64)
    C = minplus_product_naive(A, B)
    assert (C[:, 1:] >= C[:, :-1]).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_product_cell_is_min_over_k(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 15, size=(n, n)).astype(np.int64)
    B = rng.integers(0, 15, size=(n, n)).astype(np.int64)
    C = minplus_product_naive(A, B)
    for i in range(n):
        for j in range(n):
            sums = [int(A[i, k] + B[k, j]) for k in range(n)]
            assert C[i, j] == min(sums)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_conv_cell_is_min_over_i(n, seed):
    rng = np.random.default_rng(seed)
    a = np.sort(rng.integers(1, 25, size=n)).astype(np.int64)
    b = np.sort(rng.integers(1, 25, size=n)).astype(np.int64)
    out = minplus_convolution_naive(as_int_array(a), as_int_array(b)).values
    for t in range(2 * n - 1):
        best = min(
            int(a[i] + b[t - i])
            for i in range(max(0, t - n + 1), min(n - 1, t) + 1)
        )
        assert out[t] == best


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_witness_mask_true_on_lifted_product(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 9, size=(n, n)).astype(np.int64)
    B = np.sort(rng.integers(1, 9, size=(n, n)), axis=1).astype(np.int64)
    C = minplus_product_naive(A, B)
    assert witness_mask_naive(_matrix_instance(A, B, C), "ij").all()


def test_as_exact_int64_keeps_integers():
    got = as_exact_int64([[1.0, -2.0], [3.0, 4.0]])
    assert got.dtype == np.int64 and got.tolist() == [[1, -2], [3, 4]]
    assert as_exact_int64(np.array([INT64_GUARD - 1])).tolist() == [INT64_GUARD - 1]


@pytest.mark.parametrize("bad,coord", [
    ([[1, 2], [3, 4.5]], (1, 1)),
    ([1.0, np.nan], (1,)),
    ([np.inf], (0,)),
])
def test_as_exact_int64_refuses_non_integers(bad, coord):
    with pytest.raises(PromiseViolationError, match="not an integer") as err:
        as_exact_int64(bad)
    assert err.value.coord == coord


@pytest.mark.parametrize("big", [
    np.array([INT64_GUARD]),
    np.array([np.iinfo(np.int64).min]),  # |min| overflows np.abs
    np.array([2.0**62]),
    np.array([2**63], dtype=np.uint64),
])
def test_as_exact_int64_refuses_entries_past_the_guard(big):
    with pytest.raises(PromiseViolationError, match="too large"):
        as_exact_int64(big)


@pytest.mark.parametrize("bound,dtype", [
    (0, np.int8), (127, np.int8), (128, np.int16),
    (32767, np.int16), (32768, np.int32),
    (2**31 - 1, np.int32), (2**31, np.int64), (2**63 - 1, np.int64),
])
def test_narrow_int_dtype_thresholds(bound, dtype):
    assert narrow_int_dtype(bound) == np.dtype(dtype)


def test_narrow_int_dtype_refuses_past_int64():
    with pytest.raises(OverflowError):
        narrow_int_dtype(2**63)


def test_magnitude_sum_counts_negative_extremes():
    assert magnitude_sum(np.array([3, -7]), np.array([[5]]), np.zeros(0, dtype=np.int64)) == 12


# Field sets that every check accepts: a matrix instance with shapes
# (1, 2) x (2, 1) -> (1, 1), and a conv instance of length 2.
_MATRIX = {"A": [[100, 105]], "B": [[200], [300]], "C": [[301]], "M": 100}
_CONV = {"A": [100, 101], "B": [100, 102], "C": [200, 201, 203], "M": 100}


def _matrix(**fields):
    return VerificationInstance(**{**_MATRIX, **fields})


def _conv(**fields):
    return ConvVerificationInstance(**{**_CONV, **fields})


@pytest.mark.parametrize("build,error", [
    (lambda: _matrix(M=100.0), PromiseViolationError),
    (lambda: _matrix(M="100"), PromiseViolationError),
    (lambda: _matrix(M=True), PromiseViolationError),
    (lambda: _matrix(M=10**30), PromiseViolationError),
    (lambda: _matrix(M=150), PromiseViolationError),
    (lambda: _matrix(M=0), PromiseViolationError),
    (lambda: _conv(M=100.0), PromiseViolationError),
    (lambda: _conv(M=np.bool_(True)), PromiseViolationError),
    (lambda: _matrix(A=[[100, 105], [100]]), DimensionMismatchError),
    (lambda: _matrix(B=[200, 300]), DimensionMismatchError),
    (lambda: _matrix(A=np.zeros((1, 0), dtype=np.int64), B=np.zeros((0, 1), dtype=np.int64)),
     DimensionMismatchError),
    (lambda: _matrix(C=[[301, 302]]), DimensionMismatchError),
    (lambda: _matrix(C=[[301.5]]), PromiseViolationError),
    (lambda: _conv(B=[100, 102, 103]), DimensionMismatchError),
    (lambda: _conv(C=[200, 201]), DimensionMismatchError),
    (lambda: _conv(A=[[100, 101]]), DimensionMismatchError),
    (lambda: _conv(A=[], B=[], C=[]), DimensionMismatchError),
    (lambda: _conv(A=[100.5, 101]), PromiseViolationError),
    (lambda: _conv(C=IntArray(_CONV["C"], origin=1)), DimensionMismatchError),
    (lambda: _conv(A=IntArray(_CONV["A"], origin=2)), DimensionMismatchError),
    (lambda: _conv(B=IntArray(_CONV["B"], origin=0)), DimensionMismatchError),
], ids=[
    "M-float", "M-str", "M-bool", "M-past-int64", "M-150", "M-0", "conv-M-float", "conv-M-numpy-bool",
    "ragged", "1-D", "zero-dimension", "C-shape", "non-integral", "conv-unequal-lengths",
    "conv-C-length", "conv-2-D", "conv-empty", "conv-non-integral", "conv-C-origin-1",
    "conv-A-origin-2", "conv-B-origin-0",
])
def test_instance_refuses_bad_fields_when_built(build, error):
    with pytest.raises(error):
        build()


def test_conv_instance_keeps_intarrays_at_their_origins():
    """IntArrays at the origins the instance holds (1, 1 and 2) are kept as
    given, their values not copied."""
    A, B, C = IntArray(_CONV["A"]), IntArray(_CONV["B"]), IntArray(_CONV["C"], origin=2)
    inst = _conv(A=A, B=B, C=C)
    assert inst.A is A and inst.B is B and inst.C is C


def test_instance_refusal_of_M_is_the_cli_diagnostic():
    with pytest.raises(PromiseViolationError) as err:
        _conv(M=50)
    assert str(err.value) == "invalid instance: M not a positive multiple of 100"


VERIFY = {
    "verify-row": (solve_verification_row, "ij"),
    "verify-col": (solve_verification_col, "ik"),
    "verify-conv": (solve_verification_conv, "k"),
}


@pytest.mark.parametrize("kind,form", [
    (kind, form) for kind in VERIFY for form in ("nested-lists", "numpy-M", "integral-floats")
] + [("verify-conv", "raw-ndarrays")])
def test_instance_normalises_accepted_fields(kind, form):
    """An instance built from another form of a generated file's fields is
    the int64 instance: same fields, same solver mask (the naive oracle's)
    and the same search report."""
    payload = cli.generate_instance(kind, 5, 40, 1, "adversarial-ties", M=200)
    fields = {key: payload[key] for key in ("A", "B", "C", "M")}
    if form == "numpy-M":
        fields["M"] = np.int32(fields["M"])
    elif form == "integral-floats":
        fields.update({key: np.asarray(fields[key], dtype=np.float64) for key in "ABC"})
    elif form == "raw-ndarrays":
        fields.update({key: np.asarray(fields[key]) for key in "ABC"})
    conv = kind == "verify-conv"
    inst = (ConvVerificationInstance if conv else VerificationInstance)(**fields)
    want = cli._instance_from(payload)
    assert type(inst.M) is int and inst.M == want.M == 200
    for got, ref in zip((inst.A, inst.B, inst.C), (want.A, want.B, want.C)):
        if conv:
            assert isinstance(got, IntArray)
            got, ref = got.values, ref.values
        assert got.dtype == np.int64 and np.array_equal(got, ref)
    if conv:
        assert inst.C.origin == 2
    solver, axis = VERIFY[kind]
    mask = witness_mask_naive(inst, axis)
    assert mask.any() and not mask.all()
    assert np.array_equal(solver(inst), mask)
    assert find_good_modulus(inst)[1].to_dict() == find_good_modulus(want)[1].to_dict()


def test_instance_keeps_int64_operands_without_a_copy():
    A, B, C = (np.asarray(_MATRIX[key], dtype=np.int64) for key in "ABC")
    inst = VerificationInstance(A=A, B=B, C=C, M=100)
    assert inst.A is A and inst.B is B and inst.C is C
    a = np.asarray(_CONV["A"], dtype=np.int64)
    assert _conv(A=a).A.values is a
