"""Congruence counts: per output cell, how many witnesses are congruent mod Q.

The ring order Q is an arbitrary positive integer (a product of search
primes). The counting solvers ask, per output cell, for one coefficient of
a product of 0/1 monomial operands over Z[x]/(x^Q - 1): the number of
witnesses congruent mod Q. Both shapes take that coefficient directly, in
integers: residues mod Q in the narrowest signed dtype that holds 2Q, one
compare per witness, in blocks of ``shifting.SCAN_BLOCK`` witnesses.
``count_congruent`` tests the triples (i, k, j) of a matrix product and
``count_congruent_conv`` the index pairs (i, j) of a convolution, whose hits
are summed onto their antidiagonals. numpy has no sub-cubic matrix product,
and a route through the ring makes F = Q//2 + 1 complex multiply-adds per
witness where these make one compare.
"""
from __future__ import annotations

import numpy as np

from . import shifting
from .core import as_exact_int64, is_integer, narrow_int_dtype, next_pow2

__all__ = [
    "count_congruent",
    "count_congruent_conv",
    # Nothing in the package calls next_pow2; the benchmark tracer imports it
    # from here to size its counters until its revision (ROADMAP item 1).
    "next_pow2",
]


def _check_order(Q: int) -> None:
    # Residues are held in narrow_int_dtype(2Q), so the counts need no
    # ceiling below 2^62; 2^31 is the order range both counts are tested at
    # (both ends), far above any search modulus (Q < M R). A float or bool
    # order is refused: the residues mod 2.5 are not a ring's.
    if not is_integer(Q) or not 1 <= Q <= 1 << 31:
        raise ValueError(f"ring order {Q!r} must be an integer in [1, 2^31]")


def count_congruent(A: np.ndarray, B: np.ndarray, C: np.ndarray, Q: int) -> np.ndarray:
    """counts[i, j] = #{k : A[i,k] + B[k,j] = C[i,j] (mod Q)}, exact.

    The count is the coefficient at x^C[i,j] of the product of the monomial
    matrices x^A and x^B over Z[x]/(x^Q - 1), taken directly: with residues
    a, b, c in [0, Q), a + b - c lies in (-Q, 2Q) and is a multiple of Q
    exactly when it is 0 or Q. The residues are held in the narrowest signed
    dtype that holds 2Q and tested in blocks of whole rows i, at most
    shifting.SCAN_BLOCK triples each (one row when a row alone is larger),
    through one set of block buffers, so the memory beyond the residue
    copies and the output does not grow with the instance. Exponents may be
    negative or larger than Q.
    """
    _check_order(Q)
    A, B, C = as_exact_int64(A), as_exact_int64(B), as_exact_int64(C)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0] or C.shape != (A.shape[0], B.shape[1]):
        raise ValueError(f"shapes {A.shape} x {B.shape} -> {C.shape} do not form a matrix product")
    dtype = narrow_int_dtype(2 * Q)
    a, b, c = ((x % Q).astype(dtype) for x in (A, B, C))
    counts = np.zeros(c.shape, dtype=np.int64)
    rows = max(1, min(a.shape[0], shifting.SCAN_BLOCK // max(b.size, 1)))
    # one block of buffers, reused by every block: a + b - c and its two tests
    d = np.empty((rows,) + b.shape, dtype=dtype)
    hit, other = np.empty(d.shape, dtype=bool), np.empty(d.shape, dtype=bool)
    for lo in range(0, a.shape[0], rows):
        k = min(rows, a.shape[0] - lo)
        dk, hk = d[:k], hit[:k]
        np.add(a[lo : lo + k, :, None], b, out=dk)
        dk -= c[lo : lo + k, None, :]
        np.equal(dk, 0, out=hk)
        hk |= np.equal(dk, Q, out=other[:k])
        np.add.reduce(hk, axis=1, out=counts[lo : lo + k])
    return counts


def count_congruent_conv(a: np.ndarray, b: np.ndarray, c: np.ndarray, Q: int) -> np.ndarray:
    """counts[k] = #{(i, j) : i + j = k, a_i + b_j = c_k (mod Q)}, exact.

    The count is the coefficient at x^c_k y^k of the product of
    sum_i x^a_i y^i and sum_j x^b_j y^j, cyclic in x and ordinary in y,
    taken directly as in ``count_congruent``: residues in the narrowest
    signed dtype that holds 2Q, a_i + b_j - c_(i+j) tested for 0 or Q, in
    blocks of whole rows i of at most shifting.SCAN_BLOCK pairs (one row
    when a row alone is larger), through one set of block buffers. Row i
    reads c[i : i + nb] through a strided view of c whose rows step one
    entry along it, built directly: sliding_window_view's checks took a
    sixth of a count at n = 128. Each block's hits are summed onto their
    antidiagonals (``shifting.antidiagonal_rows``). The memory beyond
    the residue copies and the output does not grow with the instance or
    with Q. Exponents may be negative or larger than Q.

    It replaced a float route (spectra gathered from a table of Q roots of
    unity, convolved along the positions by complex FFTs) and was faster at
    every size measured on a 2-core x86-64 machine, one BLAS thread, numpy
    2.4.6 (scripts/conv_count_timing.py; every run in
    BENCH_direct_conv_count.json). At Q = 143, one run each: 0.13 against
    1.75 ms at n = 128, 1.7 against 12.0 ms at n = 1024, 20 against 76 ms at
    n = 4096 and 254 against 435 ms at n = 16384. Its time does not depend
    on Q: at n = 1024 and Q = 16144 it took 1.4 ms, the float route 2605 ms.
    """
    _check_order(Q)
    a, b, c = as_exact_int64(a), as_exact_int64(b), as_exact_int64(c)
    if a.ndim != 1 or b.ndim != 1 or not a.size or not b.size or c.shape != (a.size + b.size - 1,):
        raise ValueError(f"lengths {a.shape}, {b.shape} -> {c.shape} do not form a convolution")
    dtype = narrow_int_dtype(2 * Q)
    a, b, c = ((x % Q).astype(dtype) for x in (a, b, c))
    # row i of the window view holds c[i : i + nb], the targets of the pairs (i, j)
    cw = np.ndarray((a.size, b.size), dtype, c, 0, (c.itemsize, c.itemsize))
    counts = np.zeros(c.size, dtype=np.int64)
    rows = max(1, min(a.size, shifting.SCAN_BLOCK // b.size))
    # one block of buffers, reused by every block: a + b - c and its two tests
    d = np.empty((rows, b.size), dtype=dtype)
    hit, other = np.empty(d.shape, dtype=bool), np.empty(d.shape, dtype=bool)
    for lo in range(0, a.size, rows):
        k = min(rows, a.size - lo)
        dk, hk = d[:k], hit[:k]
        np.add(a[lo : lo + k, None], b, out=dk)
        dk -= cw[lo : lo + k]
        np.equal(dk, 0, out=hk)
        hk |= np.equal(dk, Q, out=other[:k])
        diag = shifting.antidiagonal_rows(hk)
        # an antidiagonal sum counts at most one hit per row of diag
        counts[lo : lo + k + b.size - 1] += diag.sum(axis=0, dtype=narrow_int_dtype(diag.shape[0]))
    return counts
