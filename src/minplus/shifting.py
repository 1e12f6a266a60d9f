"""Residue-interval shifting shared by the three verification reductions.

With W = M/100, the residues mod M are split into the hundred intervals
I_s = [sW, (s+1)W). An operand entry x whose residue falls in I_s is moved
to x - sW (new residue below W); any other entry is flattened onto the
block floor plus 3W. Output-side entries use the doubled window
J_u = [uW mod M, uW mod M + 2W) and the off-window residue 7W, with
u = s + t kept as a plain integer (up to 198), not reduced mod 100.

All maps are non-decreasing in x, so monotone rows stay monotone, and all
result residues are at most 7W = 7M/100, inside the M/10 promise.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "residue_class",
    "shift_operand",
    "shift_output",
    "first_live_pair",
    "congruent_witness_scan",
    "congruent_witness_scan_conv",
]


def residue_class(values: np.ndarray, M: int) -> np.ndarray:
    """Which interval I_s the residue of each entry falls in (0..99)."""
    return (values % M) // (M // 100)


def shift_operand(values: np.ndarray, s: int, M: int) -> np.ndarray:
    W = M // 100
    base = values - s * W
    flattened = (base // M) * M + 3 * W
    return np.where(residue_class(values, M) == s, base, flattened)


def shift_output(values: np.ndarray, u: int, M: int) -> np.ndarray:
    """Output-entry shift for the pair sum u = s + t (0..198)."""
    W = M // 100
    cls = residue_class(values, M)
    in_window = (cls == u % 100) | (cls == (u + 1) % 100)
    base = values - u * W
    flattened = (base // M) * M + 7 * W
    return np.where(in_window, base, flattened)


def first_live_pair(A: np.ndarray, B: np.ndarray, M: int) -> tuple[int, int]:
    """The lexicographically first class pair (s, t) that holds entries of
    both operands after their pre-shift by M.

    The drivers search their per-level modulus on this pair's instance, and
    the instance generator lifts true products through it.
    """
    return int(residue_class(A + M, M).min()), int(residue_class(B + M, M).min())


def congruent_witness_scan(
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    M: int,
    Q: int,
    query_axis: str = "ij",
    chunk_elems: int = 1 << 22,
) -> np.ndarray:
    """Exact witness mask via the shifted-residue decision rule, all pairs fused.

    For a triple in a class pair's window the per-pair shift offsets cancel
    inside the congruence, so one elementwise pass over (i, k, j) decides
    every class-pair instance at once: a witness is exact iff the output
    residue class sits in the window of the operand classes, the pre-shifted
    entries are congruent mod Q, and the high parts agree.  Exact for any
    non-negative inputs and any Q > 7M/100; no monotonicity is needed.

    query_axis "ij" answers per output cell over inner k; "ik" answers per
    (i, k) over output columns j, matching witness_mask_naive.
    """
    if query_axis not in ("ij", "ik"):
        raise ValueError(f"unknown query axis {query_axis!r}")
    W = M // 100
    Ash = np.asarray(A, dtype=np.int64) + M
    Bsh = np.asarray(B, dtype=np.int64) + M
    Csh = np.asarray(C, dtype=np.int64) + 2 * M
    uA = residue_class(Ash, M)
    uB = residue_class(Bsh, M)
    hA = (Ash - uA * W) // M
    hB = (Bsh - uB * W) // M
    na, nb = Ash.shape
    nc = Bsh.shape[1]
    out_shape = (na, nc) if query_axis == "ij" else (na, nb)
    mask = np.zeros(out_shape, dtype=bool)
    rows = max(1, chunk_elems // max(nb * nc, 1))
    for lo in range(0, na, rows):
        sl = slice(lo, min(lo + rows, na))
        su = uA[sl, :, None] + uB[None, :, :]
        lhs = Ash[sl, :, None] + Bsh[None, :, :]
        hit = (lhs - Csh[sl, None, :]) % Q == 0
        hit &= (residue_class(Csh[sl, None, :], M) - su) % 100 <= 1
        hit &= hA[sl, :, None] + hB[None, :, :] == (Csh[sl, None, :] - su * W) // M
        mask[sl] = hit.any(axis=1 if query_axis == "ij" else 2)
    return mask


def congruent_witness_scan_conv(a: np.ndarray, b: np.ndarray, c: np.ndarray, M: int, Q: int) -> np.ndarray:
    """Convolution form of the fused scan: one pass over all (i, k - i) pairs.

    a and b have length n, c has length 2n - 1 with slot t holding the
    candidate for semantic index t + 2. The decision rule per pair is the
    same as in the matrix scan; hits are folded onto their diagonal.
    """
    W = M // 100
    ash = np.asarray(a, dtype=np.int64) + M
    bsh = np.asarray(b, dtype=np.int64) + M
    csh = np.asarray(c, dtype=np.int64) + 2 * M
    ua = residue_class(ash, M)
    ub = residue_class(bsh, M)
    ha = (ash - ua * W) // M
    hb = (bsh - ub * W) // M
    n = ash.shape[0]
    diag = np.arange(n)[:, None] + np.arange(n)[None, :]
    su = ua[:, None] + ub[None, :]
    cd = csh[diag]
    hit = (ash[:, None] + bsh[None, :] - cd) % Q == 0
    hit &= (residue_class(cd, M) - su) % 100 <= 1
    hit &= ha[:, None] + hb[None, :] == (cd - su * W) // M
    return np.bincount(diag.ravel(), weights=hit.ravel(), minlength=2 * n - 1) > 0
