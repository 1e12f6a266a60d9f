"""Residue-interval shifting and the halving recursion shared by the three
verification reductions.

With W = M/100, the residues mod M are split into the hundred intervals
I_s = [sW, (s+1)W). An operand entry x whose residue falls in I_s is moved
to x - sW (new residue below W); any other entry is flattened onto the
block floor plus 3W. Output-side entries use the doubled window
J_u = [uW mod M, uW mod M + 2W) and the off-window residue 7W, with
u = s + t kept as a plain integer (up to 198), not reduced mod 100.

All maps are non-decreasing in x, so monotone rows stay monotone, and all
result residues are at most 7W = 7M/100, inside the M/10 promise.

settle_by_halving is the recursion the row, column and convolution drivers
share (Chi, Duan, Xie and Zhang, STOC'22): halve the entries, recurse, then
settle each output cell among the candidates 2C' + {0, 1, 2}. Each driver
supplies only how one level tests a candidate. class_pair_sweep is the
det-reference engine's test: the literal verification pipeline on every live
(s, t) instance.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import SolverConfig
from .core import WitnessMask, magnitude_sum, narrow_int_dtype
from .modulus import audit_modulus, find_good_modulus

__all__ = [
    "settle_by_halving",
    "class_pair_sweep",
    "residue_class",
    "shift_operand",
    "shift_output",
    "first_live_pair",
    "congruent_witness_scan",
    "congruent_witness_scan_conv",
]

# Triples (matrix scan) or pairs (conv scan) per block of the fused pass.
# Every temporary of the pass holds at most one block (256 KB at int16), so
# the scans' memory does not grow with the instance.
SCAN_BLOCK = 1 << 17


def settle_by_halving(
    A: np.ndarray, B: np.ndarray, out_shape: tuple, level_witnesses: Callable, test_mode: bool
) -> np.ndarray:
    """The exact product (or convolution) of non-negative A and B by halving.

    The true output C and the output C' of the halved operands satisfy
    2C' <= C <= 2C' + 2, so each cell is the first candidate 2C' + s,
    s = 0, 1, 2, that has a witness. level_witnesses(A, B, 2C') does a
    level's shared set-up and returns mask_of, where mask_of(s) marks the
    cells with a witness for 2C' + s. Candidates are tested only while
    cells are pending, and outside test_mode whatever the first two leave
    is +2 untested; test_mode tests +2 too and raises AssertionError if a
    cell is still pending.
    """
    if not A.any() and not B.any():
        return np.zeros(out_shape, dtype=np.int64)
    base = 2 * settle_by_halving(A >> 1, B >> 1, out_shape, level_witnesses, test_mode)
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


def class_pair_sweep(
    A: np.ndarray, B: np.ndarray, cand: np.ndarray, M: int, config: SolverConfig,
    q_holder: list, shift: Callable, solve: Callable,
) -> WitnessMask:
    """Witness mask of one candidate by the literal per-(s, t) sweep; tiny
    inputs only.

    shift(A, B, cand, M, s, t) builds the class-(s, t) instance and
    solve(inst, Q=Q, config=config) its witness mask. Pairs whose output
    window misses every residue class present in cand cannot hold a witness
    and are skipped. The modulus in q_holder is shared across a level's
    instances: it is re-audited per instance, and a fresh search replaces it
    when the audit fails.
    """
    classes_A = np.unique(residue_class(A + M, M)).tolist()
    classes_B = np.unique(residue_class(B + M, M)).tolist()
    classes_C = set(np.unique(residue_class(cand + 2 * M, M)).tolist())
    mask = np.zeros(cand.shape, dtype=bool)
    for s in classes_A:
        for t in classes_B:
            u = s + t
            if u % 100 not in classes_C and (u + 1) % 100 not in classes_C:
                continue
            inst = shift(A, B, cand, M, s, t)
            if not (q_holder and audit_modulus(inst, q_holder[0], slack=config.slack)):
                q_holder[:] = [find_good_modulus(inst, M, R=config.R, slack=config.slack)[0]]
            mask |= solve(inst, Q=q_holder[0], config=config)
    return mask


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
) -> np.ndarray:
    """Exact witness mask via the shifted-residue decision rule, all pairs fused.

    For a triple in a class pair's window the per-pair shift offsets cancel
    inside the congruence, so one elementwise pass over (i, k, j) decides
    every class-pair instance at once: a witness is exact iff the output
    residue class sits in the window of the operand classes, the pre-shifted
    entries are congruent mod Q, and the high parts agree.  Exact for any
    non-negative inputs and any Q > 7M/100; no monotonicity is needed.

    The pass runs in blocks of SCAN_BLOCK triples on the hoisted terms of
    _scan_terms; _fused_rule states how the three conditions read on them.

    query_axis "ij" answers per output cell over inner k; "ik" answers per
    (i, k) over output columns j, matching witness_mask_naive.
    """
    if query_axis not in ("ij", "ik"):
        raise ValueError(f"unknown query axis {query_axis!r}")
    tA, tB, tC = _scan_terms(M, Q, A, B, C)
    na, nb = tA.shape[1:]
    nc = tB.shape[2]
    out_shape = (na, nc) if query_axis == "ij" else (na, nb)
    mask = np.zeros(out_shape, dtype=bool)
    rows = max(1, SCAN_BLOCK // max(nb * nc, 1))
    for lo in range(0, na, rows):
        sl = slice(lo, lo + rows)
        hit = _fused_rule(tA[:, sl, :, None], tB[:, None], tC[:, sl, None, :], Q)
        mask[sl] = hit.any(axis=1 if query_axis == "ij" else 2)
    return mask


def congruent_witness_scan_conv(a: np.ndarray, b: np.ndarray, c: np.ndarray, M: int, Q: int) -> np.ndarray:
    """Convolution form of the fused scan: one pass over all (i, k - i) pairs.

    a and b have length n, c has length 2n - 1 with slot t holding the
    candidate for semantic index t + 2. The decision rule per pair is the
    same as in the matrix scan; hits are folded onto their diagonal. The
    pass runs in blocks of whole rows i, SCAN_BLOCK pairs at most.
    """
    ta, tb, tc = _scan_terms(M, Q, a, b, c)
    n = ta.shape[1]
    # row i of the window view holds c[i : i + n], the candidates of the pairs (i, j)
    tcw = sliding_window_view(tc, n, axis=1)
    mask = np.zeros(2 * n - 1, dtype=bool)
    rows = max(1, SCAN_BLOCK // n)
    for lo in range(0, n, rows):
        sl = slice(lo, lo + rows)
        hit = _fused_rule(ta[:, sl, None], tb[:, None], tcw[:, sl], Q)
        mask[lo : lo + hit.shape[0] + n - 1] |= _antidiagonal_any(hit)
    return mask


def _scan_terms(M: int, Q: int, *operands) -> list:
    """The per-operand terms of the fused rule, hoisted out of the pair pass.

    For each operand x, one array stacking its hundredths index x // (M/100)
    and its residue x mod Q along a new first axis, in the narrowest signed
    dtype that holds every value the pass forms from them (a difference of
    three indices, or a sum of two residues and Q, below 2Q).
    """
    W = M // 100
    values = [np.asarray(x, dtype=np.int64) for x in operands]
    index = [x // W for x in values]
    dtype = narrow_int_dtype(max(magnitude_sum(*index), 2 * Q))
    return [np.stack([k, x % Q]).astype(dtype) for k, x in zip(index, values)]


def _fused_rule(a: np.ndarray, b: np.ndarray, c: np.ndarray, Q: int) -> np.ndarray:
    """The witness rule on broadcast-compatible blocks of stacked
    (index, residue) terms of the two operands and the output.

    With W = M/100 the hundredths index x // W of a pre-shifted entry is
    100 * its high part + its residue class, and the pre-shifts (M on each
    operand, 2M on the output) cancel in the index difference. So the class
    window, (u_C - u_A - u_B) mod 100 in {0, 1}, and the high-part agreement
    hold together exactly when the output's index exceeds the sum of the
    operands' indices by 0 or 1: one compare, done unsigned. The congruence
    mod Q holds exactly when the operands' residues sum to the output's
    residue or to that plus Q.
    """
    (ka, ra), (kb, rb), (kc, rc) = a, b, c
    excess = kc - (ka + kb)
    hit = excess.view(f"u{excess.itemsize}") <= 1
    total = ra + rb
    hit &= (total == rc) | (total == rc + Q)
    return hit


def _antidiagonal_any(hit: np.ndarray) -> np.ndarray:
    """out[t] = any(hit[r, t - r]) for a block of R rows and n columns.

    Row r of the zero-padded (R, n + R) copy, read back with row length
    R + n - 1, starts r cells later, so its column r + j holds hit[r, j].
    """
    R, n = hit.shape
    L = R + n - 1
    padded = np.zeros((R, n + R), dtype=bool)
    padded[:, :n] = hit
    return padded.reshape(-1)[: R * L].reshape(R, L).any(axis=0)
