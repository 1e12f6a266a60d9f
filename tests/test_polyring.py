import numpy as np
import pytest
from helpers import promised_conv, promised_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minplus.convolution import compute_s_array
from minplus.modulus import find_good_modulus
from minplus.polyring import (
    CyclicPoly,
    CyclicPolyMatrix,
    PrimeField,
    _float_limit,
    _float_route,
    bivariate_convolve,
    coefficient,
    cyclic_convolve,
    next_pow2,
    polymat_mul,
)
from minplus.product_col import compute_r_matrix
from minplus.product_row import compute_s_matrix

FIELD = PrimeField()


def poly(Q, coeffs):
    return CyclicPoly(Q=Q, coeffs=np.asarray(coeffs, dtype=np.int64), field=FIELD)


def test_next_pow2():
    assert [next_pow2(k) for k in (1, 2, 3, 4, 5, 9, 16)] == [1, 2, 4, 4, 8, 16, 16]


def test_monomial_product_no_wrap():
    u = CyclicPoly.monomial(FIELD, 5, 1)
    v = CyclicPoly.monomial(FIELD, 5, 2)
    assert cyclic_convolve(u, v) == CyclicPoly.monomial(FIELD, 5, 3)


def test_monomial_product_wraps():
    u = CyclicPoly.monomial(FIELD, 5, 3)
    v = CyclicPoly.monomial(FIELD, 5, 4)
    # 3 + 4 = 7 = 2 mod 5
    assert cyclic_convolve(u, v) == CyclicPoly.monomial(FIELD, 5, 2)


def test_binomial_square():
    u = poly(3, [1, 1, 0])
    assert np.array_equal(cyclic_convolve(u, u).coeffs, [1, 2, 1])


def test_order_one_ring():
    u = poly(1, [6])
    v = poly(1, [7])
    assert cyclic_convolve(u, v).coeffs[0] == 42


def test_cyclic_convolve_matches_direct():
    rng = np.random.default_rng(5)
    for Q in (2, 3, 7, 12, 31):
        a = rng.integers(0, FIELD.p, Q)
        b = rng.integers(0, FIELD.p, Q)
        direct = np.zeros(Q, dtype=object)
        for i in range(Q):
            for j in range(Q):
                direct[(i + j) % Q] += int(a[i]) * int(b[j])
        direct = (direct % FIELD.p).astype(np.int64)
        got = cyclic_convolve(poly(Q, a), poly(Q, b)).coeffs
        assert np.array_equal(got, direct)


def test_mismatched_orders_rejected():
    with pytest.raises(ValueError):
        cyclic_convolve(poly(3, [1, 0, 0]), poly(5, [1, 0, 0, 0, 0]))


def test_monomial_matrix_product_is_minplus_count():
    # entries x^a; a product coefficient at r counts the k with
    # (A[i,k] + B[k,j]) % Q == r
    Q = 7
    A = np.array([[1, 6], [0, 2]])
    B = np.array([[2, 3], [2, 5]])
    Pm = CyclicPolyMatrix.from_exponents(FIELD, Q, A)
    Qm = CyclicPolyMatrix.from_exponents(FIELD, Q, B)
    C = polymat_mul(Pm, Qm)
    for i in range(2):
        for j in range(2):
            for r in range(Q):
                expect = sum(1 for k in range(2) if (A[i, k] + B[k, j]) % Q == r)
                assert coefficient(C, i, j, r) == expect


def test_identity_matrix():
    Q = 4
    one = CyclicPoly.monomial(FIELD, Q, 0).coeffs
    ident = np.zeros((3, 3, Q), dtype=np.int64)
    for i in range(3):
        ident[i, i] = one
    I = CyclicPolyMatrix(Q=Q, coeffs=ident, field=FIELD)
    rng = np.random.default_rng(0)
    M = CyclicPolyMatrix(Q=Q, coeffs=rng.integers(0, FIELD.p, (3, 3, Q)), field=FIELD)
    assert np.array_equal(polymat_mul(I, M).coeffs, M.coeffs)
    assert np.array_equal(polymat_mul(M, I).coeffs, M.coeffs)


def test_frequency_matches_schoolbook():
    rng = np.random.default_rng(11)
    for _ in range(30):
        r = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        Q = int(rng.integers(1, 33))
        Pm = CyclicPolyMatrix(Q=Q, coeffs=rng.integers(0, FIELD.p, (r, k, Q)), field=FIELD)
        Qm = CyclicPolyMatrix(Q=Q, coeffs=rng.integers(0, FIELD.p, (k, c, Q)), field=FIELD)
        want = polymat_mul(Pm, Qm, method="schoolbook")
        got = polymat_mul(Pm, Qm, method="frequency")
        assert np.array_equal(got.coeffs, want.coeffs)


def test_coefficient_range_check():
    M = CyclicPolyMatrix.from_exponents(FIELD, 5, np.array([[3]]))
    assert coefficient(M, 0, 0, 3) == 1
    with pytest.raises(ValueError):
        coefficient(M, 0, 0, 5)


def _bivariate_direct(P, R, Q, p):
    ny = P.shape[0] + R.shape[0] - 1
    out = np.zeros((ny, Q), dtype=object)
    for y1 in range(P.shape[0]):
        for x1 in range(P.shape[1]):
            if P[y1, x1] == 0:
                continue
            for y2 in range(R.shape[0]):
                for x2 in range(R.shape[1]):
                    out[y1 + y2, (x1 + x2) % Q] += int(P[y1, x1]) * int(R[y2, x2])
    return (out % p).astype(np.int64)


def test_bivariate_example():
    # (x + x^2 y) * (x^4 + y) over Q=5: x^5=1 folds x^5 -> 1
    Q = 5
    P = np.zeros((2, Q), dtype=np.int64)
    P[0, 1] = 1
    P[1, 2] = 1
    R = np.zeros((2, Q), dtype=np.int64)
    R[0, 4] = 1
    R[1, 0] = 1
    got = bivariate_convolve(FIELD, P, R, Q)
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
        P = rng.integers(0, FIELD.p, (ya, Q))
        R = rng.integers(0, FIELD.p, (yb, Q))
        got = bivariate_convolve(FIELD, P, R, Q)
        assert np.array_equal(got, _bivariate_direct(P, R, Q, FIELD.p))


def test_alternate_prime_field():
    f = PrimeField(469762049)
    u = CyclicPoly(Q=4, coeffs=np.array([1, 2, 3, 4]), field=f)
    v = CyclicPoly(Q=4, coeffs=np.array([4, 3, 2, 1]), field=f)
    got = cyclic_convolve(u, v).coeffs
    direct = np.zeros(4, dtype=np.int64)
    for i in range(4):
        for j in range(4):
            direct[(i + j) % 4] += (i + 1) * (4 - j)
    assert np.array_equal(got, direct % f.p)


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        PrimeField(100)


@settings(max_examples=60, deadline=None)
@given(
    Q=st.integers(min_value=1, max_value=24),
    data=st.data(),
)
def test_monomials_add_exponents(Q, data):
    a = data.draw(st.integers(min_value=0, max_value=4 * Q))
    b = data.draw(st.integers(min_value=0, max_value=4 * Q))
    got = cyclic_convolve(CyclicPoly.monomial(FIELD, Q, a), CyclicPoly.monomial(FIELD, Q, b))
    assert got == CyclicPoly.monomial(FIELD, Q, (a + b) % Q)


@settings(max_examples=30, deadline=None)
@given(
    Q=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_convolution_commutes(Q, data):
    coeffs = st.lists(st.integers(min_value=0, max_value=10**6), min_size=Q, max_size=Q)
    u = poly(Q, data.draw(coeffs))
    v = poly(Q, data.draw(coeffs))
    assert cyclic_convolve(u, v) == cyclic_convolve(v, u)


# --- float route: exact float FFT for small coefficients ------------------------

PRIMES_TO_300 = [q for q in range(2, 301) if all(q % d for d in range(2, int(q**0.5) + 1))]
RING_ORDERS = st.one_of(st.sampled_from([1, 143] + PRIMES_TO_300), st.integers(1, 300))


def _small_coeffs(rng, shape, Q, monomial):
    if monomial:
        exps = rng.integers(0, Q, shape[:2])
        return CyclicPolyMatrix.from_exponents(FIELD, Q, exps).coeffs
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
    Pm = CyclicPolyMatrix(Q=Q, coeffs=_small_coeffs(rng, (r, k, Q), Q, monomial), field=FIELD)
    Qm = CyclicPolyMatrix(Q=Q, coeffs=_small_coeffs(rng, (k, c, Q), Q, monomial), field=FIELD)
    assert _float_route(Pm.coeffs, Qm.coeffs, k * Q, _float_limit(k, Q))
    want = polymat_mul(Pm, Qm, method="schoolbook")
    assert np.array_equal(polymat_mul(Pm, Qm).coeffs, want.coeffs)


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
    assert _float_route(P, R, max(ya, yb) * Q, _float_limit(1, ya + yb - 1, Q))
    assert np.array_equal(bivariate_convolve(FIELD, P, R, Q), _bivariate_direct(P, R, Q, FIELD.p))


@pytest.fixture
def ntt_calls(monkeypatch):
    """Count PrimeField.ntt calls; the NTT route is the only caller."""
    calls = []
    ntt = PrimeField.ntt

    def counted(self, a, inverse=False):
        calls.append(a.shape)
        return ntt(self, a, inverse)

    monkeypatch.setattr(PrimeField, "ntt", counted)
    return calls


def test_matrix_route_switches_exactly_at_the_limit(ntt_calls):
    # Every coefficient at its maximum makes each product coefficient equal
    # to terms * max(a) * max(b), the quantity the limit bounds.
    Q, inner = 8, 4
    limit = _float_limit(inner, Q)
    side = 1 << (((limit // (inner * Q)).bit_length() - 1) // 2)
    ma, mb = side, limit // (inner * Q * side)
    assert inner * Q * ma * mb == limit and max(ma, mb) < FIELD.p
    Pm = CyclicPolyMatrix(Q=Q, coeffs=np.full((2, inner, Q), ma), field=FIELD)
    Qm = CyclicPolyMatrix(Q=Q, coeffs=np.full((inner, 3, Q), mb), field=FIELD)
    got = polymat_mul(Pm, Qm)
    assert ntt_calls == []
    want = polymat_mul(Pm, Qm, method="schoolbook")
    assert np.array_equal(got.coeffs, want.coeffs)
    assert (got.coeffs == limit % FIELD.p).all()

    over = Pm.coeffs.copy()
    over[1, 2, 5] += 1
    Pm = CyclicPolyMatrix(Q=Q, coeffs=over, field=FIELD)
    ntt_calls.clear()
    got = polymat_mul(Pm, Qm)
    assert ntt_calls  # one past the limit: the NTT route
    assert np.array_equal(got.coeffs, polymat_mul(Pm, Qm, method="schoolbook").coeffs)


def test_bivariate_route_switches_exactly_at_the_limit(ntt_calls):
    Q, ya, yb = 8, 4, 2
    limit = _float_limit(1, ya + yb - 1, Q)
    terms = max(ya, yb) * Q
    side = 1 << (((limit // terms).bit_length() - 1) // 2)
    mp, mr = side, limit // (terms * side)
    assert terms * mp * mr == limit and max(mp, mr) < FIELD.p
    P = np.full((ya, Q), mp)
    R = np.full((yb, Q), mr)
    got = bivariate_convolve(FIELD, P, R, Q)
    assert ntt_calls == []
    assert np.array_equal(got, _bivariate_direct(P, R, Q, FIELD.p))

    P[0, 3] += 1
    got = bivariate_convolve(FIELD, P, R, Q)
    assert ntt_calls  # one past the limit: the NTT route
    assert np.array_equal(got, _bivariate_direct(P, R, Q, FIELD.p))


def test_counting_never_reaches_the_ntt(monkeypatch):
    # Counting operands are 0/1 monomials; a slide back onto the NTT route
    # must not pass unnoticed.
    def refuse(self, a, inverse=False):
        raise AssertionError("counting reached the NTT")

    monkeypatch.setattr(PrimeField, "ntt", refuse)
    rng = np.random.default_rng(31)
    Q = 143
    for variant, count in (("row", compute_s_matrix), ("col", compute_r_matrix)):
        inst = promised_matrix(rng, 5, 6, 4, variant=variant)
        A, B, C = inst.A, inst.B, inst.C
        congruent = (A[:, :, None] + B[None, :, :] - C[:, None, :]) % Q == 0
        want = congruent.sum(axis=1) if variant == "row" else congruent.sum(axis=2)
        assert np.array_equal(count(inst, Q), want)
    inst = promised_conv(rng, 9)
    a, b, c = inst.A.values, inst.B.values, inst.C.values
    want = np.zeros(len(c), dtype=np.int64)
    for i in range(len(a)):
        want[i : i + len(b)] += (a[i] + b - c[i : i + len(b)]) % Q == 0
    assert np.array_equal(compute_s_array(inst, Q), want)
    for inst in (promised_matrix(rng, 4, 4, 4), promised_conv(rng, 6)):
        ring = find_good_modulus(inst, 100, R=16, y_method="ring")[1]
        plain = find_good_modulus(inst, 100, R=16, y_method="counting")[1]
        assert ring.primes == plain.primes
        assert [s.table.Y.tolist() for s in ring.steps] == [s.table.Y.tolist() for s in plain.steps]
