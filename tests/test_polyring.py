import numpy as np
import pytest
from helpers import (
    bivariate_direct,
    congruence_count_conv_direct,
    congruence_count_direct,
    cyclic_matmul_direct,
    promised_conv,
    promised_matrix,
    traced_peak,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minplus import polyring
from minplus.convolution import compute_s_array
from minplus.core import PromiseViolationError
from minplus.polyring import (
    CyclicPolyMatrix,
    _conv_count_limit,
    _float_limit,
    _matrix_count_limit,
    bivariate_convolve,
    count_congruent,
    count_congruent_conv,
    next_pow2,
    polymat_mul,
)
from minplus.product_col import compute_r_matrix
from minplus.product_row import compute_s_matrix


def scalar_product(Q, u, v):
    """Product of two ring elements as 1x1 matrices; returns the coefficients."""
    one = lambda c: CyclicPolyMatrix(Q=Q, coeffs=np.asarray(c, dtype=np.int64).reshape(1, 1, Q))
    return polymat_mul(one(u), one(v)).coeffs[0, 0]


def monomial(Q, exp, coeff=1):
    c = np.zeros(Q, dtype=np.int64)
    c[exp % Q] = coeff
    return c


def test_next_pow2():
    assert [next_pow2(k) for k in (1, 2, 3, 4, 5, 9, 16)] == [1, 2, 4, 4, 8, 16, 16]


def test_monomial_product_no_wrap():
    assert np.array_equal(scalar_product(5, monomial(5, 1), monomial(5, 2)), monomial(5, 3))


def test_monomial_product_wraps():
    # 3 + 4 = 7 = 2 mod 5
    assert np.array_equal(scalar_product(5, monomial(5, 3), monomial(5, 4)), monomial(5, 2))


def test_binomial_square():
    assert np.array_equal(scalar_product(3, [1, 1, 0], [1, 1, 0]), [1, 2, 1])


def test_order_one_ring():
    assert scalar_product(1, [6], [7])[0] == 42


def test_scalar_product_matches_direct():
    rng = np.random.default_rng(5)
    for Q in (2, 3, 7, 12, 31):
        a = rng.integers(-(1 << 16), 1 << 16, Q)
        b = rng.integers(-(1 << 16), 1 << 16, Q)
        direct = np.zeros(Q, dtype=object)
        for i in range(Q):
            for j in range(Q):
                direct[(i + j) % Q] += int(a[i]) * int(b[j])
        assert scalar_product(Q, a, b).tolist() == direct.tolist()


def test_mismatched_orders_rejected():
    P = CyclicPolyMatrix(Q=3, coeffs=np.ones((1, 1, 3)))
    R = CyclicPolyMatrix(Q=5, coeffs=np.ones((1, 1, 5)))
    with pytest.raises(ValueError):
        polymat_mul(P, R)


def test_monomial_matrix_product_is_minplus_count():
    # entries x^a; a product coefficient at r counts the k with
    # (A[i,k] + B[k,j]) % Q == r
    Q = 7
    A = np.array([[1, 6], [0, 2]])
    B = np.array([[2, 3], [2, 5]])
    C = polymat_mul(CyclicPolyMatrix.from_exponents(Q, A), CyclicPolyMatrix.from_exponents(Q, B))
    for i in range(2):
        for j in range(2):
            for r in range(Q):
                expect = sum(1 for k in range(2) if (A[i, k] + B[k, j]) % Q == r)
                assert C.coeffs[i, j, r] == expect


def test_identity_matrix():
    Q = 4
    ident = np.zeros((3, 3, Q), dtype=np.int64)
    ident[np.arange(3), np.arange(3), 0] = 1
    I = CyclicPolyMatrix(Q=Q, coeffs=ident)
    rng = np.random.default_rng(0)
    M = CyclicPolyMatrix(Q=Q, coeffs=rng.integers(-(1 << 20), 1 << 20, (3, 3, Q)))
    assert np.array_equal(cyclic_matmul_direct(ident, M.coeffs), M.coeffs)
    assert np.array_equal(polymat_mul(I, M).coeffs, M.coeffs)
    assert np.array_equal(polymat_mul(M, I).coeffs, M.coeffs)


def test_frequency_matches_schoolbook():
    rng = np.random.default_rng(11)
    for _ in range(30):
        r = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        Q = int(rng.integers(1, 33))
        P = rng.integers(-(1 << 12), 1 << 12, (r, k, Q))
        R = rng.integers(-(1 << 12), 1 << 12, (k, c, Q))
        got = polymat_mul(CyclicPolyMatrix(Q=Q, coeffs=P), CyclicPolyMatrix(Q=Q, coeffs=R))
        assert np.array_equal(got.coeffs, cyclic_matmul_direct(P, R))


def test_bivariate_example():
    # (x + x^2 y) * (x^4 + y) over Q=5: x^5=1 folds x^5 -> 1
    Q = 5
    P = np.zeros((2, Q), dtype=np.int64)
    P[0, 1] = 1
    P[1, 2] = 1
    R = np.zeros((2, Q), dtype=np.int64)
    R[0, 4] = 1
    R[1, 0] = 1
    got = bivariate_convolve(P, R, Q)
    want = np.zeros((3, Q), dtype=np.int64)
    want[0, 0] = 1  # x * x^4 = x^5 = 1
    want[1, 1] = 2  # x*y + x^2*x^4*y = 2 x y  (x^6 = x)
    want[2, 2] = 1  # x^2 y * y ... exponent 2, y^2
    assert np.array_equal(got, want)


def test_bivariate_matches_double_loop():
    rng = np.random.default_rng(23)
    for _ in range(25):
        Q = int(rng.integers(1, 20))
        ya = int(rng.integers(1, 9))
        yb = int(rng.integers(1, 9))
        P = rng.integers(-(1 << 12), 1 << 12, (ya, Q))
        R = rng.integers(-(1 << 12), 1 << 12, (yb, Q))
        assert np.array_equal(bivariate_convolve(P, R, Q), bivariate_direct(P, R, Q))


@settings(max_examples=60, deadline=None)
@given(
    Q=st.integers(min_value=1, max_value=24),
    data=st.data(),
)
def test_monomials_add_exponents(Q, data):
    a = data.draw(st.integers(min_value=0, max_value=4 * Q))
    b = data.draw(st.integers(min_value=0, max_value=4 * Q))
    got = scalar_product(Q, monomial(Q, a), monomial(Q, b))
    assert np.array_equal(got, monomial(Q, a + b))


@settings(max_examples=30, deadline=None)
@given(
    Q=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_convolution_commutes(Q, data):
    coeffs = st.lists(st.integers(min_value=0, max_value=10**5), min_size=Q, max_size=Q)
    u = data.draw(coeffs)
    v = data.draw(coeffs)
    assert np.array_equal(scalar_product(Q, u, v), scalar_product(Q, v, u))


# --- the float route: exact for every operand the solvers build ------------------

PRIMES_TO_300 = [q for q in range(2, 301) if all(q % d for d in range(2, int(q**0.5) + 1))]
RING_ORDERS = st.one_of(st.sampled_from([1, 143] + PRIMES_TO_300), st.integers(1, 300))


def _small_coeffs(rng, shape, Q, monomial):
    if monomial:
        exps = rng.integers(0, Q, shape[:2])
        return CyclicPolyMatrix.from_exponents(Q, exps).coeffs
    return rng.integers(0, 50, shape)


@settings(max_examples=40, deadline=None)
@given(
    Q=RING_ORDERS,
    dims=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3)),
    monomial=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(Q=1, dims=(2, 3, 2), monomial=True, seed=0)
@example(Q=143, dims=(3, 4, 3), monomial=True, seed=1)
@example(Q=293, dims=(2, 2, 2), monomial=False, seed=2)
def test_float_route_matches_schoolbook(Q, dims, monomial, seed):
    rng = np.random.default_rng(seed)
    r, k, c = dims
    P = _small_coeffs(rng, (r, k, Q), Q, monomial)
    R = _small_coeffs(rng, (k, c, Q), Q, monomial)
    got = polymat_mul(CyclicPolyMatrix(Q=Q, coeffs=P), CyclicPolyMatrix(Q=Q, coeffs=R))
    assert np.array_equal(got.coeffs, cyclic_matmul_direct(P, R))


@settings(max_examples=40, deadline=None)
@given(
    Q=RING_ORDERS,
    ya=st.integers(1, 6),
    yb=st.integers(1, 6),
    width=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(Q=1, ya=1, yb=5, width=1.0, seed=0)
@example(Q=143, ya=6, yb=2, width=0.5, seed=1)
def test_float_route_bivariate_matches_double_loop(Q, ya, yb, width, seed):
    rng = np.random.default_rng(seed)
    qx = max(1, int(width * Q))  # operands may be narrower than Q
    P = rng.integers(0, 50, (ya, qx))
    R = rng.integers(0, 50, (yb, Q))
    assert np.array_equal(bivariate_convolve(P, R, Q), bivariate_direct(P, R, Q))


@pytest.fixture
def blocks(monkeypatch):
    """Record the shape of every rounded block product."""
    shapes = []
    rint = polyring._rint_exact

    def counted(x):
        shapes.append(x.shape)
        return rint(x)

    monkeypatch.setattr(polyring, "_rint_exact", counted)
    return shapes


def _at_limit(limit, terms):
    """(ma, mb), powers of two with terms * ma * mb == limit."""
    side = 1 << (((limit // terms).bit_length() - 1) // 2)
    return side, limit // (terms * side)


def test_matrix_product_exact_at_the_limit_refused_past_it(blocks):
    # Every coefficient at its maximum makes each product coefficient equal
    # to terms * max(a) * max(b), the quantity the limit bounds. One inner
    # column cannot be split further, so one past the limit is a refusal.
    Q, inner = 8, 1
    limit = _float_limit(inner, Q)
    ma, mb = _at_limit(limit, inner * Q)
    P = np.full((2, inner, Q), ma)
    R = np.full((inner, 3, Q), -mb)
    got = polymat_mul(CyclicPolyMatrix(Q=Q, coeffs=P), CyclicPolyMatrix(Q=Q, coeffs=R))
    assert len(blocks) == 1
    assert np.array_equal(got.coeffs, cyclic_matmul_direct(P, R))
    assert (got.coeffs == -limit).all()

    P[1, 0, 5] += 1
    with pytest.raises(ValueError, match="too large"):
        polymat_mul(CyclicPolyMatrix(Q=Q, coeffs=P), CyclicPolyMatrix(Q=Q, coeffs=R))


def test_matrix_product_past_the_limit_splits_the_inner_dimension(blocks):
    Q, inner = 8, 4
    limit = _float_limit(inner, Q)
    ma, mb = _at_limit(limit, inner * Q)
    P = np.full((2, inner, Q), ma)
    R = np.full((inner, 3, Q), mb)
    got = polymat_mul(CyclicPolyMatrix(Q=Q, coeffs=P), CyclicPolyMatrix(Q=Q, coeffs=R))
    assert len(blocks) == 1
    assert (got.coeffs == limit).all()

    P[1, 2, 5] += 1
    blocks.clear()
    got = polymat_mul(CyclicPolyMatrix(Q=Q, coeffs=P), CyclicPolyMatrix(Q=Q, coeffs=R))
    assert len(blocks) > 1  # one past the limit: split, still exact
    assert np.array_equal(got.coeffs, cyclic_matmul_direct(P, R))


def test_bivariate_exact_at_the_limit_refused_past_it():
    Q, ya, yb = 8, 4, 2
    limit = _float_limit(1, ya + yb - 1, Q)
    mp, mr = _at_limit(limit, max(ya, yb) * Q)
    P = np.full((ya, Q), mp)
    R = np.full((yb, Q), mr)
    assert np.array_equal(bivariate_convolve(P, R, Q), bivariate_direct(P, R, Q))

    P[0, 3] += 1
    with pytest.raises(ValueError, match="too large"):
        bivariate_convolve(P, R, Q)


def test_block_split_matches_oracle(monkeypatch, blocks):
    # A limit of 3Q admits three 0/1 monomial columns per block, so inner
    # dimension 10 runs as blocks of 3, 3, 3 and 1. The counting solvers read
    # their counts from gathered spectra and never reach polymat_mul, so they
    # are checked against the direct congruence count, and the split runs on
    # polymat_mul with their monomial operands.
    monkeypatch.setattr(polyring, "_float_limit", lambda n_sum, *lengths: 3 * lengths[-1])
    rng = np.random.default_rng(31)
    Q = 143
    for variant, count in (("row", compute_s_matrix), ("col", compute_r_matrix)):
        inst = promised_matrix(rng, 5, 10, 10, variant=variant)
        A, B, C = inst.A, inst.B, inst.C
        congruent = (A[:, :, None] + B[None, :, :] - C[:, None, :]) % Q == 0
        want = congruent.sum(axis=1) if variant == "row" else congruent.sum(axis=2)
        blocks.clear()
        assert np.array_equal(count(inst, Q), want)
        assert len(blocks) == 1  # one exact read, no block products

        left, right, at = (A, B, C) if variant == "row" else (-C, B.T, -A)
        P = CyclicPolyMatrix.from_exponents(Q, left).coeffs
        R = CyclicPolyMatrix.from_exponents(Q, right).coeffs
        blocks.clear()
        got = polymat_mul(CyclicPolyMatrix(Q=Q, coeffs=P), CyclicPolyMatrix(Q=Q, coeffs=R)).coeffs
        assert len(blocks) == 4
        assert np.array_equal(got, cyclic_matmul_direct(P, R))
        rows, cols = np.indices(at.shape)
        assert np.array_equal(got[rows, cols, at % Q], want)
    P = rng.integers(0, 2, (3, 10, Q))
    R = np.zeros((10, 2, Q), dtype=np.int64)
    R[:, :, 0] = 1
    got = polymat_mul(CyclicPolyMatrix(Q=Q, coeffs=P), CyclicPolyMatrix(Q=Q, coeffs=R))
    assert np.array_equal(got.coeffs, cyclic_matmul_direct(P, R))


def test_ring_operands_refuse_non_integral_coefficients():
    with pytest.raises(PromiseViolationError, match="not an integer"):
        CyclicPolyMatrix(Q=2, coeffs=np.array([[[0.5, 1.7]]]))
    assert CyclicPolyMatrix(Q=2, coeffs=np.array([[[2.0, 1.0]]])).coeffs.tolist() == [[[2, 1]]]


def test_bivariate_refuses_non_integral_coefficients():
    with pytest.raises(PromiseViolationError, match="not an integer"):
        bivariate_convolve([[0.5, 1.0]], [[1, 0]], 2)
    with pytest.raises(PromiseViolationError, match="not an integer"):
        bivariate_convolve([[1, 0]], [[np.nan, 1.0]], 2)
    assert bivariate_convolve([[2.0, 1.0]], [[1, 0]], 2).tolist() == [[2, 1]]


# --- congruence counts read from gathered monomial spectra -----------------------

# Q = 1, Q = 2, an even composite (its Nyquist frequency has weight 1), an odd
# prime and a product of two pool primes.
COUNT_ORDERS = (1, 2, 12, 13, 143)
# Exponents of either sign, far beyond Q.
BIG = 1 << 60


@pytest.mark.parametrize("Q", COUNT_ORDERS)
@pytest.mark.parametrize("dims", [(1, 1, 1), (3, 5, 2), (1, 7, 4), (4, 1, 6), (2, 0, 3)])
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


def test_matrix_count_exact_at_the_limit_refused_past_it(monkeypatch, blocks):
    # Every cell counts every k, the largest count the limit bounds.
    monkeypatch.setattr(polyring, "_matrix_count_limit", lambda inner, Q: 4)
    Q = 12
    for inner in (4, 5):
        A = np.full((2, inner), 7)
        B = np.full((inner, 3), -3)
        C = np.full((2, 3), 4 + Q)
        if inner == 4:
            assert (count_congruent(A, B, C, Q) == 4).all()
            assert len(blocks) == 1
        else:
            with pytest.raises(ValueError, match="too large"):
                count_congruent(A, B, C, Q)


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
    # 2^20 inner terms over 2^19 + 1 frequencies would need 2^40 complex
    # spectrum values per operand row; both limits still admit them.
    assert _matrix_count_limit(1 << 20, 1 << 20) >= 1 << 20
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
    """compute_s_matrix, compute_r_matrix and compute_s_array gather their
    spectra: no ring product and no real transform along x runs."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the counting route ran a ring product or a transform along x")

    for name in ("polymat_mul", "bivariate_convolve"):
        monkeypatch.setattr(polyring, name, forbidden)
    for name in ("rfft", "irfft", "rfft2", "irfft2"):
        monkeypatch.setattr(np.fft, name, forbidden)
    rng = np.random.default_rng(4)
    Q = 143
    for variant, count, axis in (("row", compute_s_matrix, 1), ("col", compute_r_matrix, 2)):
        inst = promised_matrix(rng, 6, 9, 7, variant=variant)
        A, B, C = inst.A, inst.B, inst.C
        want = ((A[:, :, None] + B[None, :, :] - C[:, None, :]) % Q == 0).sum(axis=axis)
        assert np.array_equal(count(inst, Q), want)
    inst = promised_conv(rng, 11)
    a, b, c = inst.A.values, inst.B.values, inst.C.values
    assert np.array_equal(compute_s_array(inst, Q), congruence_count_conv_direct(a, b, c, Q))


def test_matrix_count_memory_bounded_by_spectra():
    """compute_s_matrix at n=64 holds at most the two operand spectra and
    their product, F n^2 complex values each (F = Q//2 + 1), besides the
    residue table (at most F Q values) and the n x n index arrays: no
    n x n x Q coefficient array is formed."""
    n, Q = 64, 143
    inst = promised_matrix(np.random.default_rng(2), n, n, n, hi=50)
    F = Q // 2 + 1
    peak = traced_peak(compute_s_matrix, inst, Q)
    assert peak <= 3 * F * n * n * 16 + F * Q * 16 + 8 * n * n * 8


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
