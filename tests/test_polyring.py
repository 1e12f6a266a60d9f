import numpy as np
import pytest
from helpers import bivariate_direct, cyclic_matmul_direct, promised_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minplus import polyring
from minplus.polyring import (
    CyclicPolyMatrix,
    _float_limit,
    bivariate_convolve,
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
    # dimension 10 runs as blocks of 3, 3, 3 and 1.
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
        assert len(blocks) == 4
    P = rng.integers(0, 2, (3, 10, Q))
    R = np.zeros((10, 2, Q), dtype=np.int64)
    R[:, :, 0] = 1
    got = polymat_mul(CyclicPolyMatrix(Q=Q, coeffs=P), CyclicPolyMatrix(Q=Q, coeffs=R))
    assert np.array_equal(got.coeffs, cyclic_matmul_direct(P, R))
