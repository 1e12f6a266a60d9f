"""Instance builders and oracles shared by the test modules."""
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from minplus import convolution, product_col, product_row
from minplus.convolution import _shift_instance_conv
from minplus.core import (
    ConvVerificationInstance,
    VerificationInstance,
    as_int_matrix,
    minplus_convolution_naive,
    minplus_product_naive,
)
from minplus.product_row import _shift_instance, normalize_A
from minplus.segments import StartDeltas, _start_terms
from minplus.shifting import (
    SHIFT_M,
    congruent_witness_scan,
    congruent_witness_scan_conv,
    first_live_pair,
    residue_class,
    settle_by_halving,
)


def minst(A, B, C, M=100):
    return VerificationInstance(A=A, B=B, C=C, M=M)


def cinst(a, b, c, M=100):
    return ConvVerificationInstance(A=a, B=b, C=c, M=M)


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


def layout_groups(layout):
    """(gstarts, label1, label2, first) of a flat layout's groups, from its
    dims: the group offsets; (i, k) of a matrix pair, or the conv slot and
    its first in-range index i."""
    na, nb, nc = layout.dims
    if layout.kind == "matrix":
        g = np.arange(na * nb + 1, dtype=np.int64)
        return g * nc, g[:-1] // nb, g[:-1] % nb, np.zeros(na * nb, dtype=np.int64)
    t = np.arange(nc, dtype=np.int64)
    first = np.maximum(0, t - (nb - 1))
    gstarts = np.concatenate([[0], np.cumsum(np.minimum(na - 1, t) - first + 1)])
    return gstarts, t, first, first


def start_deltas_reference(layout, lmax):
    """segments.level_start_deltas by two sorts, for any int64 delta: the
    distinct deltas, then one key per start, (cap - capped depth, delta
    rank, differ), whose sorted runs are the bins."""
    cap = lmax + 1
    delta, differ = _start_terms(layout, layout.starts)
    distinct = np.unique(delta)
    nd = len(distinct)
    shallow = cap - np.minimum(layout.depth, cap).astype(np.int64)
    key = (shallow * nd + np.searchsorted(distinct, delta)) * 2 + differ
    bins, counts = np.unique(key, return_counts=True)
    differ = (bins & 1).astype(bool)
    bins >>= 1
    cut = np.searchsorted(bins, (cap - np.arange(cap)) * nd)
    return StartDeltas(values=distinct[bins % nd], counts=counts, differ=differ, cut=cut)


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


def settle_by_scatter_reference(A, B, out_shape, level_witnesses):
    """shifting.settle_by_halving with its settle step written as one
    boolean-mask scatter per tested candidate, result[mask] = base[mask] + s,
    over the cells still pending: the reference for its arithmetic update."""
    if not A.any() and not B.any():
        return np.zeros(out_shape, dtype=np.int64)
    base = 2 * settle_by_scatter_reference(A >> 1, B >> 1, out_shape, level_witnesses)
    mask_of = level_witnesses(A, B, base)
    result = base + 2
    pending = np.ones(base.shape, dtype=bool)
    for s in (0, 1):
        mask = mask_of(s) & pending
        result[mask] = base[mask] + s
        pending &= ~mask
        if not pending.any():
            return result
    return result


def sandwich_checked(level_witnesses):
    """level_witnesses for shifting.settle_by_halving that also checks the
    halving sandwich 2C' <= C <= 2C' + 2 on every level. Once the level's
    masks of +0 and +1 leave a cell unsettled, the equality scan on the same
    level operands is asked for +2, and AssertionError is raised if a cell
    has no witness at any of the three."""

    def level(A, B, base):
        mask_of = level_witnesses(A, B, base)
        masks = {}

        def checked(s):
            masks[s] = mask_of(s)
            if s == 1:
                settled = masks[0] | masks[1]
                if not settled.all() and not (settled | witnesses_at_plus_two(A, B, base)).all():
                    raise AssertionError("candidate sandwich violated: unresolved cells remain")
            return masks[s]

        return checked

    return level


def witnesses_at_plus_two(A, B, base):
    """The equality scan's mask of the candidate base + 2, matrix or conv."""
    if A.ndim == 1:
        return congruent_witness_scan_conv(A, B, base, (2,))[0]
    return congruent_witness_scan(A, B, base, "ij", (2,))[0]


def twopointer_checked(twopointer):
    """twopointer with every call's masks compared with the oracle,
    product_col.twopointer_bruteforce; a mismatch raises AssertionError."""

    def checked(rot, shifts):
        masks = twopointer(rot, shifts)
        if not np.array_equal(masks, product_col.twopointer_bruteforce(rot, shifts)):
            raise AssertionError(f"two-pointer masks and equality scan disagree at shifts {shifts}")
        return masks

    return checked


@contextmanager
def checked_levels():
    """Within the block, every det driver checks each recursion level: the
    row, column and convolution drivers settle through sandwich_checked
    levels, and the column driver's two-pointer masks go through
    twopointer_checked."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (product_row, product_col, convolution):
            mp.setattr(module, "settle_by_halving",
                       lambda A, B, shape, level: settle_by_halving(A, B, shape, sandwich_checked(level)))
        mp.setattr(product_col, "twopointer_direct", twopointer_checked(product_col.twopointer_direct))
        yield


def window_table(level, Qp):
    """W(r) = #{s in [-4*2^l, 4*2^l] : s = r mod Qp} for every r in [0, Qp),
    by enumerating the window."""
    w = 4 << level
    return np.bincount(np.arange(-w, w + 1) % Qp, minlength=Qp)


def y_by_window_tables(deltas, Q_prev, primes):
    """The search's Y[level, prime] as one window table per (prime, level),
    gathered at each bin's residue and weighted by the bin's count over the
    bins that hold the level's starts: the reference for the one-pass
    scoring, modulus._counting_columns."""
    cols = []
    for p in primes:
        Qp = Q_prev * p
        r = deltas.values % Qp
        cols.append([
            int(deltas.counts[:c] @ window_table(level, Qp)[r[:c]])
            for level, c in enumerate(deltas.cut)
        ])
    return np.array(cols, dtype=np.int64).T


def active_counts_by_level(deltas, Q):
    """|S_l(Q)| per level, one level at a time: the starts whose high parts
    differ and whose delta lies within 4*2^l of a multiple of Q. The
    reference for the one-pass audit, modulus._active_audit."""
    r = deltas.values % Q
    counts = []
    for level, c in enumerate(deltas.cut):
        win = 4 << level
        hit = deltas.differ[:c] & ((r[:c] <= win) | (r[:c] >= Q - win))
        counts.append(int(deltas.counts[:c][hit].sum()))
    return counts


def traced_peak(fn, *args, **kwargs):
    """Peak bytes tracemalloc sees allocated during fn(*args, **kwargs)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
