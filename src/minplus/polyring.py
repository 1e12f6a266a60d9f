"""Congruence counts: per output cell, how many witnesses are congruent mod Q.

The ring order Q is an arbitrary positive integer (a product of search
primes). The counting solvers ask, per output cell, for one coefficient of
a product of 0/1 monomial operands over Z[x]/(x^Q - 1): the number of
witnesses congruent mod Q. Both shapes take it directly, in integers, on
the equality scans' blocked steps: ``count_congruent`` over the triples
(i, k, j) of a matrix product, ``count_congruent_conv`` over the index
pairs (i, j) of a convolution. numpy has no sub-cubic matrix product, and
a route through the ring makes F = Q//2 + 1 complex multiply-adds per
witness where these make two compares.
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
    # The residues and their targets c + Q fit the dtype that holds 2Q - 1,
    # so no ceiling below 2^62 is needed; 2^31 is the tested range (both
    # ends), far above any search modulus (Q < M R). A float or bool order
    # is refused: the residues mod 2.5 are not a ring's.
    if not is_integer(Q) or not 1 <= Q <= 1 << 31:
        raise ValueError(f"ring order {Q!r} must be an integer in [1, 2^31]")


def count_congruent(A: np.ndarray, B: np.ndarray, C: np.ndarray, Q: int) -> np.ndarray:
    """counts[i, j] = #{k : A[i,k] + B[k,j] = C[i,j] (mod Q)}, exact.

    The count is the coefficient at x^C[i,j] of the product of the monomial
    matrices x^A and x^B over Z[x]/(x^Q - 1), taken directly: with residues
    a, b, c in [0, Q), a + b - c lies in (-Q, 2Q) and is a multiple of Q
    exactly when a + b is c or c + Q: the two hit masks of a block of
    ``shifting.sum_hit_blocks`` at the shifts (0, Q), ORed and summed over
    k. Exponents may be negative or larger than Q.
    """
    _check_order(Q)
    A, B, C = as_exact_int64(A), as_exact_int64(B), as_exact_int64(C)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0] or C.shape != (A.shape[0], B.shape[1]):
        raise ValueError(f"shapes {A.shape} x {B.shape} -> {C.shape} do not form a matrix product")
    counts = np.zeros(C.shape, dtype=np.int64)
    for lo, (hit, wrapped) in shifting.sum_hit_blocks(A % Q, B % Q, C % Q, (0, Q)):
        hit |= wrapped
        np.add.reduce(hit, axis=0, out=counts[lo : lo + hit.shape[1]])
        del hit, wrapped  # not held beside the next block
    return counts


def count_congruent_conv(a: np.ndarray, b: np.ndarray, c: np.ndarray, Q: int) -> np.ndarray:
    """counts[k] = #{(i, j) : i + j = k, a_i + b_j = c_k (mod Q)}, exact.

    The count is the coefficient at x^c_k y^k of the product of
    sum_i x^a_i y^i and sum_j x^b_j y^j, cyclic in x and ordinary in y,
    taken directly as in ``count_congruent``, from the blocks of
    ``shifting.sum_hit_blocks_conv``, whose ORed masks are summed onto their
    antidiagonals (``shifting.antidiagonal_rows``). Exponents may be
    negative or larger than Q.
    """
    _check_order(Q)
    a, b, c = as_exact_int64(a), as_exact_int64(b), as_exact_int64(c)
    if a.ndim != 1 or b.ndim != 1 or not a.size or not b.size or c.shape != (a.size + b.size - 1,):
        raise ValueError(f"lengths {a.shape}, {b.shape} -> {c.shape} do not form a convolution")
    counts = np.zeros(c.size, dtype=np.int64)
    for lo, (hit, wrapped) in shifting.sum_hit_blocks_conv(a % Q, b % Q, c % Q, (0, Q)):
        hit |= wrapped
        # an antidiagonal sum counts at most one hit per row of the fold
        counts[lo : lo + hit.shape[0] + b.size - 1] += shifting.antidiagonal_rows(hit).sum(
            axis=0, dtype=narrow_int_dtype(min(hit.shape)))
        del hit, wrapped  # not held beside the next block
    return counts
