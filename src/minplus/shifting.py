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

settle_by_halving is the halving recursion the row, column and convolution
drivers share (Chi, Duan, Xie and Zhang, STOC'22), run as a loop from the
coarsest level down: each level halves the caller's entries h times and
settles each output cell among the candidates 2C' + {0, 1, 2}, C' the
previous level's output. Each driver supplies only how one level tests a
candidate; the loop holds one level's operands and masks at a time and
settles a level by arithmetic on the masks, with no boolean indexing, so its
memory does not grow with the entry bound. class_pair_sweep
is the det-reference engine's test: the literal verification pipeline on
every live (s, t) instance. congruent_witness_scan and
congruent_witness_scan_conv are the det engine's test: the witness rule of
every class pair at once reduces to the equality A + B == candidate. The
candidates of one level differ only by a constant shift of 2C', so det
makes one equality scan of all triples (or pairs) per level, forming each
block's sums once and comparing them with every shifted candidate, over
about log2(bound) + 2 levels. The per-level modulus search the row and conv
drivers still run is read by nothing; it stays only for the benchmark's
Workload.exercises.
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
    "candidate_shifts",
    "class_pair_sweep",
    "residue_class",
    "shift_operand",
    "shift_output",
    "first_live_pair",
    "congruent_witness_scan",
    "congruent_witness_scan_conv",
    "antidiagonal_rows",
]

# The shift modulus M of the row and convolution drivers: the smallest the
# hundred residue intervals allow. No output depends on it; a larger M only
# measured slower, in det-reference and in the verification pipeline
# (BENCH_pipeline_vs_scan.json).
SHIFT_M = 100

# Triples (matrix scan) or pairs (conv scan) per block of the equality scans.
# Every temporary of a scan holds at most one block (256 KB at int16), so
# the scans' memory beyond their narrow operand copies does not grow with
# the instance.
SCAN_BLOCK = 1 << 17


def settle_by_halving(
    A: np.ndarray, B: np.ndarray, out_shape: tuple, level_witnesses: Callable, test_mode: bool
) -> np.ndarray:
    """The exact product (or convolution) of non-negative A and B by halving.

    With C_h the output of A >> h and B >> h, 2C_{h+1} <= C_h <= 2C_{h+1} + 2,
    so each cell of C_h is the first candidate 2C_{h+1} + s, s = 0, 1, 2, that
    has a witness. The levels run in a loop from h = top - 1 down to 0, top
    the bit length of the largest entry (C_top = 0), and the loop holds one
    level at a time: A >> h and B >> h are formed from the caller's arrays
    for their level only (at h = 0 the caller's own arrays are passed, not
    copied), and a level's masks are dropped before the next level starts, so
    the memory does not grow with the entry bound. A and B must be
    non-negative, as every driver makes them: a negative entry never halves
    to 0, so the coarsest level would not start from C_top = 0.

    level_witnesses(A >> h, B >> h, 2C_{h+1}) does a level's shared set-up
    and returns mask_of, where mask_of(s) marks the cells with a witness for
    2C_{h+1} + s. +0 is asked for first, then +1 unless every cell hit at +0;
    outside test_mode whatever the two leave is +2 untested, and test_mode
    asks for +2 too (unless every cell is settled) and raises AssertionError
    if a cell has no witness at any of the three.

    With hit0 and hit1 the masks of +0 and +1, a level's output is
    2C_{h+1} + 2 - hit0 - (hit0 | hit1), formed in place on one base array:
    a cell hit at +0 loses 2, one first hit at +1 loses 1. Nothing is indexed
    by a mask.
    """
    top = int(max(A.max(), B.max())).bit_length()
    base = np.zeros(out_shape, dtype=np.int64)
    for h in range(top - 1, -1, -1):
        base <<= 1
        mask_of = level_witnesses(A >> h, B >> h, base) if h else level_witnesses(A, B, base)
        hit0 = mask_of(0)
        if not hit0.all():
            settled = hit0 | mask_of(1)
            if test_mode and not settled.all() and not (settled | mask_of(2)).all():
                raise AssertionError("candidate sandwich violated: unresolved cells remain")
            base += 2
            base -= hit0
            base -= settled
            del settled
        del mask_of, hit0
    return base


def candidate_shifts(test_mode: bool) -> tuple:
    """The shifts s of the candidates 2C' + s that settle_by_halving may ask
    a level for: +2 only under test_mode. A level that tests its candidates
    in one pass tests these."""
    return (0, 1, 2) if test_mode else (0, 1)


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
                q_holder[:] = [find_good_modulus(inst, R=config.R, slack=config.slack)[0]]
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
    A: np.ndarray, B: np.ndarray, C: np.ndarray, query_axis: str = "ij", shifts: tuple = (0,)
) -> np.ndarray:
    """Exact witness masks, one per shift s: the triples (i, k, j) with
    A[i, k] + B[k, j] == C[i, j] + s.

    This is the verification rule of every class-pair instance at once: the
    class window and the high-part agreement bound the defect
    |C - A - B| below 2M/100, so for any Q > 7M/100 the congruence mod Q
    holds only at defect 0. The answer therefore depends on neither M nor Q,
    and the scan tests equality directly, in the narrowest signed dtype that
    holds every sum A + B and every C + s, in blocks of SCAN_BLOCK triples.
    Each block's sums are formed once and compared with every shifted
    candidate, so a level's candidates 2C' + s share one pass.

    masks[t] is the mask of shifts[t]. query_axis "ij" answers per output
    cell over inner k; "ik" answers per (i, k) over output columns j,
    matching witness_mask_naive.
    """
    if query_axis not in ("ij", "ik"):
        raise ValueError(f"unknown query axis {query_axis!r}")
    A, B, C, shifts = _narrow(A, B, C, shifts)
    na, nb = A.shape
    nc = B.shape[1]
    masks = np.zeros((shifts.size,) + ((na, nc) if query_axis == "ij" else (na, nb)), dtype=bool)
    rows = max(1, SCAN_BLOCK // max(nb * nc, 1))
    for lo in range(0, na, rows):
        sl = slice(lo, lo + rows)
        sums = A[sl, :, None] + B
        for t, s in enumerate(shifts):
            masks[t, sl] = (sums == (C[sl] + s)[:, None, :]).any(axis=1 if query_axis == "ij" else 2)
    return masks


def congruent_witness_scan_conv(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, shifts: tuple = (0,)
) -> np.ndarray:
    """Convolution form of the equality scan: one pass over all (i, k - i)
    pairs, with one mask per shift s.

    a has length na and b length nb; c has length na + nb - 1, slot t holding
    the candidate for semantic index t + 2. Pair (i, j) hits shift s when
    a[i] + b[j] == c[i + j] + s; masks[t] folds the hits of shifts[t] onto
    their diagonals. The pass runs in blocks of whole rows i: each block's
    sums are formed once, compared with every shifted candidate and freed
    before the hits are folded, and a block holds at most
    SCAN_BLOCK / len(shifts) pairs, so its hits of all shifts together stay
    within SCAN_BLOCK.
    """
    a, b, c, shifts = _narrow(a, b, c, shifts)
    na, nb = a.size, b.size
    # row i of window t holds c[i : i + nb] + shifts[t], the candidates of the pairs (i, j)
    windows = sliding_window_view(c + shifts[:, None], nb, axis=1)
    masks = np.zeros((shifts.size, na + nb - 1), dtype=bool)
    rows = max(1, SCAN_BLOCK // (nb * shifts.size))
    for lo in range(0, na, rows):
        sl = slice(lo, lo + rows)
        sums = a[sl, None] + b
        hits = [sums == window[sl] for window in windows]
        # free the sums before the folds, and the hits before the next block
        del sums
        for mask, hit in zip(masks, hits):
            mask[lo : lo + hit.shape[0] + nb - 1] |= antidiagonal_rows(hit).any(axis=0)
        del hits, hit
    return masks


def _narrow(a: np.ndarray, b: np.ndarray, c: np.ndarray, shifts: tuple) -> list:
    """The two operands, the candidates and the shifts in the narrowest
    signed dtype that holds every sum of an entry of a and one of b, and
    every entry of c plus a shift."""
    shifts = np.asarray(shifts)
    dtype = narrow_int_dtype(max(magnitude_sum(a, b), magnitude_sum(c, shifts)))
    return [np.asarray(x).astype(dtype) for x in (a, b, c, shifts)]


def antidiagonal_rows(hit: np.ndarray) -> np.ndarray:
    """An (m, R + n - 1) array, m = min(R, n), whose column t holds the
    entries hit[r, t - r] of an (R, n) block and zeros elsewhere, so that
    reducing it along axis 0 (any, sum) reduces each antidiagonal.

    A block with more rows than columns is transposed first; the transpose
    has the same antidiagonals. Row r of the zero-padded (R, n + R) copy,
    read back with row length R + n - 1, then starts r cells later, so its
    column r + j holds hit[r, j]. The copy holds at most 2 R n cells.
    """
    if hit.shape[0] > hit.shape[1]:
        hit = hit.T
    R, n = hit.shape
    L = R + n - 1
    padded = np.zeros((R, n + R), dtype=hit.dtype)
    padded[:, :n] = hit
    return padded.reshape(-1)[: R * L].reshape(R, L)
