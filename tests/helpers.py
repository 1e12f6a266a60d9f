"""Instance builders and oracles shared by the test modules."""
import tracemalloc

import numpy as np

from minplus.convolution import _shift_instance_conv
from minplus.core import (
    ConvVerificationInstance,
    IntArray,
    VerificationInstance,
    as_int_matrix,
    minplus_convolution_naive,
    minplus_product_naive,
)
from minplus.product_row import _shift_instance, normalize_A
from minplus.shifting import SHIFT_M, first_live_pair, residue_class


def minst(A, B, C, M=100):
    return VerificationInstance(
        A=np.asarray(A, dtype=np.int64),
        B=np.asarray(B, dtype=np.int64),
        C=np.asarray(C, dtype=np.int64),
        M=M,
    )


def cinst(a, b, c, M=100):
    return ConvVerificationInstance(
        A=IntArray(values=np.asarray(a, dtype=np.int64)),
        B=IntArray(values=np.asarray(b, dtype=np.int64)),
        C=IntArray(values=np.asarray(c, dtype=np.int64), origin=2),
        M=M,
    )


def promised_matrix(rng, na, nb, nc, M=100, hi=5):
    """Residues at most M/10, B and C rows non-decreasing."""

    def res(shape):
        return rng.integers(0, M // 10 + 1, shape, dtype=np.int64)

    A = M * rng.integers(0, hi, (na, nb), dtype=np.int64) + res((na, nb))
    B = np.sort(M * rng.integers(0, hi, (nb, nc), dtype=np.int64) + res((nb, nc)), axis=1)
    C = np.sort(M * rng.integers(0, hi, (na, nc), dtype=np.int64) + res((na, nc)), axis=1)
    return VerificationInstance(A=A, B=B, C=C, M=M)


def promised_conv(rng, n, M=100, hi=5):
    def res(k):
        return rng.integers(0, M // 10 + 1, k, dtype=np.int64)

    a = np.sort(M * rng.integers(0, hi, n, dtype=np.int64) + res(n))
    b = np.sort(M * rng.integers(0, hi, n, dtype=np.int64) + res(n))
    c = M * rng.integers(0, 2 * hi, 2 * n - 1, dtype=np.int64) + res(2 * n - 1)
    return cinst(a, b, c, M=M)


def all_shift_pairs(A, B, C, M=100, conv=False):
    """Every class-pair shifted instance of one candidate, as (s, t, instance)
    in (s, t) order. A cell of C is a true value iff some pair's instance has
    a witness at it."""
    shift = _shift_instance_conv if conv else _shift_instance
    for s in range(100):
        for t in range(100):
            yield s, t, shift(A, B, C, M, s, t)


def _fused_rule_int64(Ash, Bsh, Csh, M, Q):
    """The paper's witness rule written out literally in int64, on
    broadcast-compatible pre-shifted entries: class window, congruence mod Q,
    high-part agreement."""
    W = M // 100
    uA, uB = residue_class(Ash, M), residue_class(Bsh, M)
    su = uA + uB
    hit = (Ash + Bsh - Csh) % Q == 0
    hit &= (residue_class(Csh, M) - su) % 100 <= 1
    hit &= (Ash - uA * W) // M + (Bsh - uB * W) // M == (Csh - su * W) // M
    return hit


def fused_scan_int64_oracle(A, B, C, M, Q, query_axis="ij"):
    """The literal rule over every class pair of one candidate, as one
    unblocked int64 pass; congruent_witness_scan must agree for any
    Q > 7M/100."""
    A, B, C = (np.asarray(x, dtype=np.int64) for x in (A, B, C))
    hit = _fused_rule_int64(A[:, :, None] + M, B[None, :, :] + M, C[:, None, :] + 2 * M, M, Q)
    return hit.any(axis=1 if query_axis == "ij" else 2)


def fused_scan_conv_int64_oracle(a, b, c, M, Q):
    """The literal rule over all (i, k - i) pairs, as one unblocked int64
    pass; congruent_witness_scan_conv must agree for any Q > 7M/100."""
    a, b, c = (np.asarray(x, dtype=np.int64) for x in (a, b, c))
    n = len(a)
    i, j = np.divmod(np.arange(n * n), n)
    hit = _fused_rule_int64(a[i] + M, b[j] + M, c[i + j] + 2 * M, M, Q)
    return np.bincount(i + j, weights=hit, minlength=2 * n - 1) > 0


def row_level_instances(payload):
    """(depth, instance) for every recursion level of a det product-row solve
    of a generated payload: the first-live-pair instance of the level's first
    candidate, on which the driver searches its modulus. The halved product
    below each level comes from the naive oracle."""
    A, B = as_int_matrix(payload["A"]), as_int_matrix(payload["B"])
    A, _ = normalize_A(A, payload["entry_bound"])
    depth = 0
    while (A >> depth).any() or (B >> depth).any():
        Ad, Bd = A >> depth, B >> depth
        base = 2 * minplus_product_naive(Ad >> 1, Bd >> 1)
        yield depth, _shift_instance(Ad, Bd, base, SHIFT_M, *first_live_pair(Ad, Bd, SHIFT_M))
        depth += 1


def conv_level_instances(payload):
    """The convolution form of row_level_instances."""
    a = np.asarray(payload["A"], dtype=np.int64)
    b = np.asarray(payload["B"], dtype=np.int64)
    depth = 0
    while (a >> depth).any() or (b >> depth).any():
        ad, bd = a >> depth, b >> depth
        base = 2 * minplus_convolution_naive(ad >> 1, bd >> 1).values
        yield depth, _shift_instance_conv(ad, bd, base, SHIFT_M, *first_live_pair(ad, bd, SHIFT_M))
        depth += 1


def congruence_count_direct(A, B, C, Q):
    """#{k : A[i,k] + B[k,j] = C[i,j] (mod Q)} per cell by testing every
    triple in Python integers, the oracle for polyring.count_congruent."""
    A, B, C = (np.asarray(x, dtype=object) for x in (A, B, C))
    out = np.zeros(C.shape, dtype=np.int64)
    for i, j in np.ndindex(*C.shape):
        out[i, j] = sum((A[i, k] + B[k, j] - C[i, j]) % Q == 0 for k in range(A.shape[1]))
    return out


def congruence_count_conv_direct(a, b, c, Q):
    """#{(i, j) : i + j = k, a_i + b_j = c_k (mod Q)} per slot by testing every
    pair in Python integers, the oracle for polyring.count_congruent_conv."""
    out = np.zeros(len(c), dtype=np.int64)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += (int(x) + int(y) - int(c[i + j])) % Q == 0
    return out


def settle_by_scatter_reference(A, B, out_shape, level_witnesses, test_mode):
    """shifting.settle_by_halving with its settle step written as one
    boolean-mask scatter per tested candidate, result[mask] = base[mask] + s,
    over the cells still pending: the reference for its arithmetic update."""
    if not A.any() and not B.any():
        return np.zeros(out_shape, dtype=np.int64)
    base = 2 * settle_by_scatter_reference(A >> 1, B >> 1, out_shape, level_witnesses, test_mode)
    mask_of = level_witnesses(A, B, base)
    result = base + 2
    pending = np.ones(base.shape, dtype=bool)
    for s in (0, 1, 2) if test_mode else (0, 1):
        mask = mask_of(s) & pending
        result[mask] = base[mask] + s
        pending &= ~mask
        if not pending.any():
            return result
    if test_mode:
        raise AssertionError("candidate sandwich violated: unresolved cells remain")
    return result


def traced_peak(fn, *args, **kwargs):
    """Peak bytes tracemalloc sees allocated during fn(*args, **kwargs)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
