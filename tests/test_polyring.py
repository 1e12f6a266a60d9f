import numpy as np
import pytest
from helpers import (
    congruence_count_conv_direct,
    congruence_count_direct,
    promised_conv,
    promised_matrix,
    traced_peak,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minplus import shifting
from minplus.convolution import compute_s_array
from minplus.core import PromiseViolationError, narrow_int_dtype
from minplus.polyring import count_congruent, count_congruent_conv, next_pow2
from minplus.product_col import compute_r_matrix
from minplus.product_row import compute_s_matrix


def test_next_pow2():
    assert [next_pow2(k) for k in (1, 2, 3, 4, 5, 9, 16)] == [1, 2, 4, 4, 8, 16, 16]


# --- congruence counts against the direct oracles -----------------------------

# Q = 1, Q = 2, an even composite (its Nyquist frequency has weight 1), an odd
# prime and a product of two pool primes.
COUNT_ORDERS = (1, 2, 12, 13, 143)
# Exponents of either sign, far beyond Q.
BIG = 1 << 60
PRIMES_TO_300 = [q for q in range(2, 301) if all(q % d for d in range(2, int(q**0.5) + 1))]
RING_ORDERS = st.one_of(st.sampled_from([1, 143] + PRIMES_TO_300), st.integers(1, 300))


@pytest.mark.parametrize("Q", COUNT_ORDERS)
@pytest.mark.parametrize("dims", [(1, 1, 1), (3, 5, 2), (1, 7, 4), (4, 1, 6), (2, 0, 3), (0, 3, 2)])
def test_count_congruent_matches_direct(Q, dims):
    r, k, c = dims
    rng = np.random.default_rng(Q * 100 + r * 10 + k)
    A = rng.integers(-BIG, BIG, (r, k))
    B = rng.integers(-3 * Q, 3 * Q, (k, c))
    C = rng.integers(-BIG, BIG, (r, c))
    # plant congruences so that counts above 1 occur
    C[:, 0] = A[:, 0] + B[0, 0] + Q * 5 if k else C[:, 0]
    assert np.array_equal(count_congruent(A, B, C, Q), congruence_count_direct(A, B, C, Q))
    assert np.array_equal(count_congruent(B.T, A.T, C.T, Q), congruence_count_direct(A, B, C, Q).T)


@pytest.mark.parametrize("Q", COUNT_ORDERS)
@pytest.mark.parametrize("lengths", [(1, 1), (1, 6), (7, 3), (5, 5), (2, 9)])
def test_count_congruent_conv_matches_direct(Q, lengths):
    na, nb = lengths
    rng = np.random.default_rng(Q * 100 + na * 10 + nb)
    a = rng.integers(-BIG, BIG, na)
    b = rng.integers(-3 * Q, 3 * Q, nb)
    c = rng.integers(-BIG, BIG, na + nb - 1)
    c[: min(na, nb)] = a[: min(na, nb)] + b[0] - Q  # plant congruences
    assert np.array_equal(count_congruent_conv(a, b, c, Q), congruence_count_conv_direct(a, b, c, Q))
    assert np.array_equal(count_congruent_conv(b, a, c, Q), congruence_count_conv_direct(b, a, c, Q))


# Both ends of the order range, both sides of every switch of the residue
# dtype (2Q fits int8 up to Q = 63, int16 up to 16383, int32 up to 2^30 - 1),
# and the largest Q whose residues alone fit each narrower dtype, where
# a + b exceeds that dtype.
DTYPE_ORDERS = (1, 2, 63, 64, 127, 16383, 16384, 32767, (1 << 30) - 1, 1 << 30, (1 << 31) - 1, 1 << 31)


@pytest.mark.parametrize("Q", DTYPE_ORDERS)
def test_count_congruent_at_extreme_residues(Q):
    # Residues 0, 1, Q - 2 and Q - 1 reach both extremes of a + b - c:
    # 2Q - 2 (a = b = Q - 1, c = 0) and -(Q - 1) (a = b = 0, c = Q - 1).
    rng = np.random.default_rng(Q % 1009)
    residues = np.array(sorted({r % Q for r in (0, 1, Q - 2, Q - 1)}), dtype=np.int64)

    def pick(shape):
        return rng.choice(residues, shape) + Q * rng.integers(-(1 << 20), 1 << 20, shape)

    A, B, C = pick((6, 8)), pick((8, 5)), pick((6, 5))
    A[0, :2], B[0, 0], B[1, 0], C[0, 0] = Q - 1, Q - 1, 0, 0
    A[1, :2], B[0, 1], B[1, 1], C[1, 1] = 0, 0, 0, Q - 1
    assert np.array_equal(count_congruent(A, B, C, Q), congruence_count_direct(A, B, C, Q))


@settings(max_examples=40, deadline=None)
@given(
    Q=RING_ORDERS,
    dims=st.tuples(st.integers(1, 6), st.integers(0, 8), st.integers(1, 6)),
    lengths=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    seed=st.integers(0, 2**32 - 1),
)
@example(Q=1, dims=(2, 3, 2), lengths=(1, 5), seed=0)
@example(Q=286, dims=(6, 8, 6), lengths=(12, 3), seed=1)
def test_counts_match_direct_at_any_order(Q, dims, lengths, seed):
    rng = np.random.default_rng(seed)
    r, k, c = dims
    # exponents from a few residues, so that many cells count several witnesses
    pick = lambda shape: rng.integers(0, 4, shape) * rng.integers(1, Q + 1) + rng.integers(-2, 3, shape)
    A, B, C = pick((r, k)), pick((k, c)), pick((r, c))
    assert np.array_equal(count_congruent(A, B, C, Q), congruence_count_direct(A, B, C, Q))
    na, nb = lengths
    a, b, cc = pick(na), pick(nb), pick(na + nb - 1)
    assert np.array_equal(count_congruent_conv(a, b, cc, Q), congruence_count_conv_direct(a, b, cc, Q))


def test_block_split_matches_oracle(monkeypatch):
    # compute_s_matrix and compute_r_matrix count in blocks of whole rows of
    # at most SCAN_BLOCK triples. At 1 and 5 every row is its own block; at
    # 37 the 10-row instance splits 3, 3, 3, 1 (12 triples per row), so
    # block boundaries fall inside the rows of the output.
    rng = np.random.default_rng(31)
    Q = 13  # small, so that counts above 1 occur
    for kind, count, axis in (("row", compute_s_matrix, 1), ("col", compute_r_matrix, 2)):
        inst = promised_matrix(rng, 10, 4, 3)
        A, B, C = inst.A, inst.B, inst.C
        want = ((A[:, :, None] + B[None, :, :] - C[:, None, :]) % Q == 0).sum(axis=axis)
        assert want.max() > 1
        for block in (1, 5, 37):
            monkeypatch.setattr(shifting, "SCAN_BLOCK", block)
            assert np.array_equal(count(inst, Q), want), (kind, block)


@pytest.mark.parametrize("lengths", [(11, 4), (4, 11), (9, 9)])
def test_conv_block_split_matches_oracle(monkeypatch, lengths):
    # count_congruent_conv counts in blocks of whole rows i of at most
    # SCAN_BLOCK pairs. At 1 and 5 every row is its own block; at 37 the
    # blocks hold 9, 3 or 4 rows, so they end inside antidiagonals, and a
    # 9-row block of 4 pairs each is folded through its transpose.
    na, nb = lengths
    rng = np.random.default_rng(na * 10 + nb)
    Q = 13  # small, so that counts above 1 occur

    def pick(k):  # residues 0 and 1, so that many pairs are congruent
        return rng.integers(0, 2, k) + Q * rng.integers(-(1 << 40), 1 << 40, k)

    a, b, c = pick(na), pick(nb), pick(na + nb - 1)
    want = congruence_count_conv_direct(a, b, c, Q)
    assert want.max() > 1
    for block in (1, 5, 37):
        monkeypatch.setattr(shifting, "SCAN_BLOCK", block)
        assert np.array_equal(count_congruent_conv(a, b, c, Q), want), block


def test_conv_count_exact_at_the_limit_refused_past_it():
    # The one limit left is the order range [1, 2^31]: exact at both ends,
    # refused just outside them, by both counts.
    top = 1 << 31
    a, b = np.array([5, -3]), np.array([9, 2, 7])  # pair sums 14 7 12 / 6 -1 4
    c = np.array([14, 7 - top, -1 + top, 5])
    A, B = a[:, None], b[None, :]
    C = np.add.outer(a, b) - np.array([[0, 1, top], [1, top, 0]])
    for Q, want, want_matrix in ((1, [1, 2, 2, 1], np.ones((2, 3))), (top, [1, 1, 1, 0], [[1, 0, 1], [0, 1, 1]])):
        assert np.array_equal(count_congruent_conv(a, b, c, Q), want), Q
        assert np.array_equal(want, congruence_count_conv_direct(a, b, c, Q))
        assert np.array_equal(count_congruent(A, B, C, Q), want_matrix), Q
        assert np.array_equal(want_matrix, congruence_count_direct(A, B, C, Q))
    for Q in (0, (1 << 31) + 1):
        with pytest.raises(ValueError, match="ring order"):
            count_congruent_conv(a, b, c, Q)
        with pytest.raises(ValueError, match="ring order"):
            count_congruent(a[:, None], b[None, :], np.zeros((2, 3)), Q)


# Orders the counts used to take as Q: 2.5 gave count_congruent [[0]] on a
# triple with A + B == C, and count_congruent_conv [1, 0, 0] where every slot
# holds an equal pair; 2.0, 3.0 and both bools counted as Q = 2, 3 and 1.
NON_INTEGER_ORDERS = (2.5, 2.0, np.float64(3.0), True, np.bool_(True))


@pytest.mark.parametrize("Q", NON_INTEGER_ORDERS, ids=repr)
@pytest.mark.parametrize("count, operands", [
    (count_congruent, ([[1, 2]], [[1], [2]], [[4]])),
    (count_congruent_conv, ([1, 2], [1, 2], [2, 3, 4])),
], ids=["matrix", "conv"])
def test_counts_refuse_a_non_integer_order(count, operands, Q):
    with pytest.raises(ValueError, match="ring order .* must be an integer"):
        count(*operands, Q)


def test_counts_take_a_numpy_integer_order():
    assert count_congruent([[1, 2]], [[1], [2]], [[4]], np.int32(5)).tolist() == [[1]]
    assert count_congruent_conv([1, 2], [1, 2], [2, 3, 4], np.int64(5)).tolist() == [1, 2, 1]


def test_counts_refuse_bad_operands():
    with pytest.raises(ValueError, match="matrix product"):
        count_congruent(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)), 5)
    with pytest.raises(ValueError, match="matrix product"):
        count_congruent(np.zeros((2, 3)), np.zeros((3, 4)), np.zeros((2, 3)), 5)
    with pytest.raises(ValueError, match="convolution"):
        count_congruent_conv(np.zeros(3), np.zeros(2), np.zeros(3), 5)
    with pytest.raises(ValueError, match="convolution"):
        count_congruent_conv(np.zeros(0), np.zeros(2), np.zeros(1), 5)
    with pytest.raises(ValueError, match="ring order"):
        count_congruent(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), 0)
    with pytest.raises(PromiseViolationError, match="not an integer"):
        count_congruent(np.full((1, 1), 0.5), np.zeros((1, 1)), np.zeros((1, 1)), 5)
    with pytest.raises(PromiseViolationError, match="not an integer"):
        count_congruent_conv(np.zeros(2), np.zeros(2), np.full(3, 1.5), 5)


def test_counting_solvers_build_no_ring_product(monkeypatch):
    """compute_s_matrix, compute_r_matrix and compute_s_array count directly:
    no transform runs."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the counting route ran a transform")

    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2"):
        monkeypatch.setattr(np.fft, name, forbidden)
    rng = np.random.default_rng(4)
    Q = 143
    for _, count, axis in (("row", compute_s_matrix, 1), ("col", compute_r_matrix, 2)):
        inst = promised_matrix(rng, 6, 9, 7)
        A, B, C = inst.A, inst.B, inst.C
        want = ((A[:, :, None] + B[None, :, :] - C[:, None, :]) % Q == 0).sum(axis=axis)
        assert np.array_equal(count(inst, Q), want)
    inst = promised_conv(rng, 11)
    a, b, c = inst.A.values, inst.B.values, inst.C.values
    assert np.array_equal(compute_s_array(inst, Q), congruence_count_conv_direct(a, b, c, Q))


@pytest.mark.parametrize("count, copies", [(compute_s_matrix, 0), (compute_r_matrix, 2)])
def test_matrix_count_memory_bounded_by_block(count, copies):
    """A matrix count at n=64 holds its residue copies (each formed from an
    int64 remainder), one block of SCAN_BLOCK triples (the narrow a + b - c
    and two bool tests), the int64 output and numpy's buffer for the
    bool-to-int64 row sums; compute_r_matrix adds its two negated int64
    operands. Nothing grows with the n^3 triples or with Q."""
    n, Q = 64, 143
    inst = promised_matrix(np.random.default_rng(2), n, n, n, hi=50)
    width = np.dtype(narrow_int_dtype(2 * Q)).itemsize
    residues = 3 * n * n * width + n * n * 8
    block = shifting.SCAN_BLOCK * (width + 2)
    output = n * n * 8 + np.getbufsize() * 8
    assert n**3 > shifting.SCAN_BLOCK  # more than one block
    peak = traced_peak(count, inst, Q)
    assert peak <= residues + block + output + copies * n * n * 8, peak


def conv_count_budget(n, Q):
    """What a convolution count of two length-n operands may hold: the three
    narrow residue copies (each formed from an int64 remainder), one block
    of SCAN_BLOCK pairs (the narrow a + b - c, two bool tests and the
    zero-padded antidiagonal copy of at most two cells per pair), one
    block's antidiagonal sums (at most int64) with numpy's reduction buffer,
    and the int64 output."""
    width = np.dtype(narrow_int_dtype(2 * Q)).itemsize
    residues = 3 * (2 * n) * width + (2 * n) * 8
    block = shifting.SCAN_BLOCK * (width + 2 + 2)
    sums = (shifting.SCAN_BLOCK // n + n) * 8 + np.getbufsize() * 8
    return residues + block + sums + (2 * n) * 8


def test_conv_count_memory_bounded_by_block():
    """compute_s_array at n=4096 stays within one block of SCAN_BLOCK pairs
    beyond its residue copies and output: nothing grows with the n^2 pairs
    or with Q."""
    n, Q = 4096, 143
    inst = promised_conv(np.random.default_rng(2), n, hi=50)
    assert n * n > shifting.SCAN_BLOCK  # more than one block
    peak = traced_peak(compute_s_array, inst, Q)
    assert peak <= conv_count_budget(n, Q), peak


def test_conv_count_at_the_largest_order():
    """At Q = 2^31 the count is exact, and its memory does not depend on Q
    (a table of Q roots of unity would hold 2^31 complex values)."""
    n, Q = 64, 1 << 31
    rng = np.random.default_rng(5)
    residues = np.array([0, 1, Q - 2, Q - 1])  # both extremes of a + b - c

    def pick(k):
        return rng.choice(residues, k) + Q * rng.integers(-(1 << 20), 1 << 20, k)

    a, b, c = pick(n), pick(n), pick(2 * n - 1)
    want = congruence_count_conv_direct(a, b, c, Q)
    assert want.max() > 1
    assert np.array_equal(count_congruent_conv(a, b, c, Q), want)
    peak = traced_peak(count_congruent_conv, a, b, c, Q)
    assert peak <= conv_count_budget(n, Q), peak
