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

from minplus import polyring, shifting
from minplus.convolution import compute_s_array
from minplus.core import PromiseViolationError, narrow_int_dtype
from minplus.polyring import (
    _conv_count_limit,
    count_congruent,
    count_congruent_conv,
    next_pow2,
)
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


def test_conv_count_exact_at_the_limit_refused_past_it(monkeypatch):
    seen = []

    def limit(length, Q):
        seen.append(length)
        return 6

    monkeypatch.setattr(polyring, "_conv_count_limit", limit)
    Q = 13
    for na, nb in ((6, 2), (2, 6), (7, 2), (2, 7)):
        a, b, c = np.full(na, 5), np.full(nb, 9), np.full(na + nb - 1, 1)
        if max(na, nb) == 6:
            assert np.array_equal(count_congruent_conv(a, b, c, Q), congruence_count_conv_direct(a, b, c, Q))
        else:
            with pytest.raises(ValueError, match="too large"):
                count_congruent_conv(a, b, c, Q)
    assert seen == [8, 8, 8, 8]  # the FFT length the bound is taken at


def test_count_limits_bind_only_beyond_memory():
    # 2^21 positions over 2^19 + 1 frequencies would need 2^40 complex
    # spectrum values per operand; the limit still admits them.
    assert _conv_count_limit(1 << 22, 1 << 20) >= 1 << 21


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
    """compute_s_matrix and compute_r_matrix count directly and
    compute_s_array gathers its spectra: no real transform along x runs."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the counting route ran a transform along x")

    for name in ("rfft", "irfft", "rfft2", "irfft2"):
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


def test_conv_count_memory_bounded_by_spectra():
    """compute_s_array at n=1024 holds at most two spectra of F x L complex
    values (L = next_pow2(2n - 1), the FFT length along the positions), an
    operand spectrum of F x n and the residue table: under 3 F L complex
    values."""
    n, Q = 1024, 143
    inst = promised_conv(np.random.default_rng(2), n, hi=50)
    F, L = Q // 2 + 1, next_pow2(2 * n - 1)
    peak = traced_peak(compute_s_array, inst, Q)
    assert peak <= 3 * F * L * 16
