"""Min-plus product for matrices with monotone columns.

The column case reduces to the row machinery through a complement rotation:
``A[i,k] + B[k,j] = C[i,j]`` rearranges to ``(W - C[i,j]) + B[k,j] =
(W - A[i,k])`` for any W at least the maximum entry, so deciding a candidate
C is the same as asking, per cell of ``W - C``, whether some output column of
``(W - C) * B^T`` attains ``W - A``.  After forcing A's rows non-increasing
(a prefix minimum, harmless when B is column-monotone) both rotated right
factors are row-monotone and the verification theory from the row module
applies unchanged.

The rotated check is a direct two-pointer pass over the constant-block
decompositions of the rotated rows, exact on any instance.  It tests every
block start of a row against the whole other axis at once, in blocks of
``shifting.SCAN_BLOCK`` narrow-integer cells, so it makes at most two
compares per triple and candidate, and fewer the longer the blocks, where
the equality scan of the row driver compares every triple.  The hits of a
row's starts are OR-ed as 64-bit words of eight hits each.  The candidates
of one recursion level differ only by a constant shift s of the rotated A,
so the driver rotates once per level and passes the shifts: each block's
differences are formed once, from one gather of the rotated A, and compared
with every shift's target.  ``twopointer_bruteforce`` is the oracle the
tests hold each level's masks to: the row driver's equality scan on the same
rotated triple.  No modulus is searched or chosen: neither reads one.  The
recursion over levels is :func:`minplus.shifting.settle_by_halving`, shared
with the row and convolution drivers; ``_col_level`` is this module's
per-level test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import shifting
from .config import SolverConfig
from .core import (
    IntMatrix,
    MonotoneTag,
    PromiseViolationError,
    VerificationInstance,
    WitnessMask,
    as_int_matrix,
    magnitude_sum,
    minplus_product_naive,
    narrow_int_dtype,
    require_product_shapes,
    require_tag,
    require_valid_instance,
    validate_promises,
)
from .modulus import find_good_modulus, require_modulus
from .polyring import count_congruent
from .product_row import normalize_A
from .segments import active_level0_bounds, levelmax_for, matrix_layout, rprime_ik_flat
from .shifting import CANDIDATE_SHIFTS, congruent_witness_scan, settle_by_halving


@dataclass(frozen=True)
class RotatedInstance:
    """The complement-rotated triple (W-C, B^T, W-A) of a product candidate.

    ``A`` is na x nc, ``B`` is nc x nb, ``C`` is na x nb; the question is per
    cell (i, j) of ``A`` whether some column k satisfies
    ``A[i,j] + B[j,k] == C[i,k]``, which holds exactly when k witnessed the
    original product cell (i, j).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def normalize_nonincreasing(A: IntMatrix) -> IntMatrix:
    """Running prefix minimum along each row.

    Valid only against a column-monotone B: a row entry larger than one to
    its left can never win the minimum there, because B's corresponding row
    is entrywise at most the later one.
    """
    return np.minimum.accumulate(np.asarray(A, dtype=np.int64), axis=1)


def rotate_to_problem2prime(
    A: IntMatrix, B: IntMatrix, C_cand: IntMatrix, W: int
) -> RotatedInstance:
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    C_cand = np.asarray(C_cand, dtype=np.int64)
    top = max(int(A.max()), int(B.max()), int(C_cand.max()))
    if W < top:
        raise ValueError(f"complement bound {W} below the maximum entry {top}")
    return RotatedInstance(A=W - C_cand, B=np.ascontiguousarray(B.T), C=W - A)


def compute_r_matrix(inst: VerificationInstance, Q: int) -> np.ndarray:
    """Count, for each (i, k), the j with A[i,k] + B[k,j] = C[i,j] (mod Q).

    The per-cell count of the row module with the roles rotated: the
    product of x^(-C) (na x nc) and x^(B^T) (nc x nb) collects, per (i, k),
    one term x^(B[k,j]-C[i,j]) for every j, and ``polyring.count_congruent``
    counts the congruent j at exponent -A[i,k] directly, one compare of
    narrow residues per triple.
    """
    return count_congruent(-inst.C, inst.B.T, -inst.A, Q)


def solve_verification_col(
    inst: VerificationInstance,
    Q: int | None = None,
    config: SolverConfig | None = None,
) -> WitnessMask:
    """Exact per-(i, k) witness mask: True where some j attains C[i,j].

    Mirrors solve_verification_row with r/r' in place of s/s': r counts the
    congruent j per (i, k), r' the congruent-but-unequal ones via the active
    level-0 segments, and the mask is ``r > r'``.  Q defaults to the
    searched modulus; raises ValueError for a caller's Q that is not an
    integer above 7M/100 (modulus.require_modulus).
    """
    if config is None:
        config = SolverConfig()
    require_valid_instance(inst)
    if Q is None:
        Q, _ = find_good_modulus(inst, R=config.R, slack=config.slack)
    else:
        require_modulus(Q, inst.M)
    r_counts = compute_r_matrix(inst, Q)
    layout = matrix_layout(inst)
    starts, ends = active_level0_bounds(layout, levelmax_for(inst.M), Q)
    r_prime = rprime_ik_flat(layout, starts, ends, Q)
    return r_counts > r_prime


def twopointer_direct(
    inst: VerificationInstance | RotatedInstance, shifts: tuple = (0,)
) -> WitnessMask:
    """Per-(i, k) witness masks of A - s, one per shift s, by testing
    constant-block representatives.

    masks[t, i, k] is True when some j has A[i,k] - shifts[t] + B[k,j] ==
    C[i,j].  For the row pair (B[k,:], C[i,:]) every interval of their
    common refinement has both values constant, so testing the interval
    starts is enough.  Each start is a block start of B's row or of C's
    row, so one pass over B's block starts against every i and one over C's
    block starts against every k cover all (i, k) pairs.  The first pass
    reads the equation as C[i,j] - A[i,k] == B[k,j] - s, the second as
    B[k,j] + A[i,k] == C[i,j] + s.  No promise is needed; this is exact on
    any instance.

    All shifts share one pass: the narrow copies and the block starts are
    built once, and each block's left side is formed once and compared with
    every shift's right side.
    """
    A, B, C, s = _narrow_operands(inst, shifts)
    # a rotation the caller passed unnamed (_col_level) is freed here, so it
    # is not held beside its narrow copy during the passes
    del inst
    by_b = _start_hits(B, C.T, A.T, -s)
    by_c = _start_hits(C, B.T, -A, s)
    return by_c | np.swapaxes(by_b, -1, -2)


def _narrow_operands(inst: VerificationInstance | RotatedInstance, shifts: tuple) -> list:
    """A, B, C and the shifts in the narrowest signed dtype that holds every
    value the two-pointer passes form: -A, the differences C - A and sums
    B + A, and the targets B - s and C + s."""
    s = np.asarray(shifts)
    top = max(magnitude_sum(inst.B), magnitude_sum(inst.C))
    dtype = narrow_int_dtype(top + max(magnitude_sum(inst.A), magnitude_sum(s)))
    return [np.asarray(x).astype(dtype) for x in (inst.A, inst.B, inst.C, s)]


def _start_hits(R: np.ndarray, G: np.ndarray, H: np.ndarray, targets: np.ndarray) -> WitnessMask:
    """mask[t, r, o]: some block start j of R's row r has
    G[j, o] - H[r, o] == R[r, j] + targets[t].

    The starts come row-major from one mask, so each R row's starts are
    contiguous; they are tested against every o at once, SCAN_BLOCK cells
    per block over all targets, and OR-reduced per row (a row may span
    blocks).  A block's difference is formed in place on its gather of G,
    so a block holds two block-sized arrays at a time.  The o axis is padded
    with zeros to whole 8-byte words, so the per-row OR runs over uint64
    words of eight hits each; the pad columns may hit, and are cut off the
    result.
    """
    nr, no = H.shape
    width = -(-no // 8) * 8
    Gp = np.zeros((G.shape[0], width), dtype=G.dtype)
    Hp = np.zeros((nr, width), dtype=H.dtype)
    Gp[:, :no], Hp[:, :no] = G, H
    is_start = np.ones(R.shape, dtype=bool)
    is_start[:, 1:] = R[:, 1:] != R[:, :-1]
    flat = np.flatnonzero(is_start)
    rs, js = np.divmod(flat, R.shape[1])
    want = R.take(flat) + targets[:, None]
    del is_start, flat
    words = np.zeros((targets.size, nr, width // 8), dtype=np.uint64)
    step = max(1, shifting.SCAN_BLOCK // max(width * targets.size, 1))
    # j = 0 starts every row, so a block's rows are consecutive; a run of
    # one row's starts opens at j = 0 or at the block's edge
    opens = js == 0
    opens[::step] = True
    for lo in range(0, rs.size, step):
        sl = slice(lo, lo + step)
        r = rs[sl]
        diff = Gp.take(js[sl], axis=0)
        diff -= Hp.take(r, axis=0)
        hit = diff == want[:, sl, None]
        del diff
        runs = np.bitwise_or.reduceat(hit.view(np.uint64), np.flatnonzero(opens[sl]), axis=1)
        words[:, r[0] : r[-1] + 1] |= runs
    return words.view(bool)[..., :no]


def _col_level(A: IntMatrix, B: IntMatrix, base: IntMatrix):
    """mask_of(s) for one level of settle_by_halving, on the level's one
    rotation: two-pointer masks of all tested candidates at once."""
    W = int(max(A.max(), B.max(), base.max() + 2, 0))
    # Candidate base + s rotates to (rot.A - s, rot.B, rot.C): only A moves.
    # Passed unnamed, the int64 rotation is freed once the pass has narrowed it.
    return twopointer_direct(rotate_to_problem2prime(A, B, base, W), CANDIDATE_SHIFTS).__getitem__


def twopointer_bruteforce(rot: RotatedInstance, shifts: tuple) -> WitnessMask:
    """The masks twopointer_direct(rot, shifts) must equal, by the equality
    scan of every triple: rot.A - s + rot.B == rot.C is the scan's
    rot.A + rot.B == rot.C + s."""
    return congruent_witness_scan(rot.A, rot.B, rot.C, "ik", shifts)


def minplus_monotone_col(
    A: IntMatrix, B: IntMatrix, tag: MonotoneTag, config: SolverConfig | None = None
) -> IntMatrix:
    """Min-plus product of A and B given the column-monotone promise on B.

    ``tag`` states the promise: columns of B are non-decreasing with entries
    in ``[1, tag.entry_bound]``.  Raises DimensionMismatchError when the
    shapes do not chain or have a zero dimension, PromiseViolationError when
    an entry is not an integer of magnitude below INT64_GUARD or B breaks the
    promise, and ValueError for a tag that is not a MonotoneTag, is on the
    wrong axis, or has an entry bound that is not an integer or is
    INT64_GUARD // 8 or more, for the det-reference engine, which only the
    row and convolution drivers have, and for R or slack set away from
    SolverConfig()'s, which nothing here reads.
    """
    require_tag(tag, "column-monotone")
    if config is None:
        config = SolverConfig()
    if config.engine == "det-reference":
        raise ValueError("engine 'det-reference' is not available for the column driver")
    default = SolverConfig()
    moved = [k for k in ("R", "slack") if getattr(config, k) != getattr(default, k)]
    if moved:
        raise ValueError(f"the column driver searches no modulus; it refuses {', '.join(moved)}")
    A = as_int_matrix(A)
    B = as_int_matrix(B)
    require_product_shapes(A, B)
    rep = validate_promises(B, tag)
    if not rep.ok:
        raise PromiseViolationError(f"B violates the promise: {rep.reason}", coord=rep.coord)
    if config.engine == "naive":
        return minplus_product_naive(A, B)
    A_norm, deltas = normalize_A(A, tag.entry_bound)
    A_norm = normalize_nonincreasing(A_norm)
    C_norm = settle_by_halving(A_norm, B, (A.shape[0], B.shape[1]), _col_level)
    return C_norm + deltas[:, None]
