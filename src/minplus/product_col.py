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
compares per triple, and fewer the longer the blocks, where the equality
scan of the row driver compares every triple.  The candidates of one
recursion level differ only in the rotated A, so the driver rotates once per
level and tests the candidates' A matrices as one stack against B and C's
block starts, built once.  Under ``test_mode`` each mask is also checked
against the equality scan on the same rotated triple.  No modulus is
searched or chosen: neither check reads one.  The recursion over levels is
:func:`minplus.shifting.settle_by_halving`, shared with the row and
convolution drivers; ``_col_level`` is this module's per-level test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

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
from .modulus import find_good_modulus
from .polyring import count_congruent
from .product_row import normalize_A
from .segments import active_level0_bounds, levelmax_for, matrix_layout, rprime_ik_flat
from .shifting import congruent_witness_scan, settle_by_halving


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
    level-0 segments, and the mask is ``r > r'``.
    """
    if config is None:
        config = SolverConfig()
    require_valid_instance(inst)
    if Q is None:
        Q, _ = find_good_modulus(inst, inst.M, R=config.R, slack=config.slack)
    r_counts = compute_r_matrix(inst, Q)
    layout = matrix_layout(inst)
    starts, ends = active_level0_bounds(layout, levelmax_for(inst.M), Q)
    r_prime = rprime_ik_flat(layout, starts, ends, Q)
    return r_counts > r_prime


def twopointer_direct(inst: VerificationInstance | RotatedInstance) -> WitnessMask:
    """Per-(i, k) witness mask by testing constant-block representatives.

    For the row pair (B[k,:], C[i,:]) every interval of their common
    refinement has both values constant, so testing the interval starts is
    enough.  Each start is a block start of B's row or of C's row, so one
    pass over B's block starts against every i and one over C's block starts
    against every k cover all (i, k) pairs.  The second pass is the first
    on the swapped triple (-A^T, C, B), since A[i,k] + B[k,j] = C[i,j] reads
    -A[i,k] + C[i,j] = B[k,j].  No promise is needed; this is exact on any
    instance.

    A may stack several na x nb matrices along leading axes; the masks come
    back stacked the same way, and B and C's narrow copies, transposes and
    block starts are built once for all of them.
    """
    A, B, C = _narrow_operands(inst)
    swapped = _block_start_hits(-np.swapaxes(A, -1, -2), C, B)
    return _block_start_hits(A, B, C) | np.swapaxes(swapped, -1, -2)


def _narrow_operands(inst: VerificationInstance | RotatedInstance) -> list:
    """A, B, C in the narrowest signed dtype that holds every value the
    two-pointer passes form: the entries of A and their negations, and every
    difference of an entry of C and one of B."""
    dtype = narrow_int_dtype(max(magnitude_sum(inst.A), magnitude_sum(inst.B, inst.C)))
    return [np.asarray(x).astype(dtype) for x in (inst.A, inst.B, inst.C)]


def _block_start_hits(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> WitnessMask:
    """mask[..., i, k]: some block start j of B's row k has A[..., i,k] + B[k,j] == C[i,j].

    The starts come row-major from one mask, so each B row's starts are
    contiguous; they are tested against all i at once, SCAN_BLOCK cells per
    block (over all stacked A), and OR-reduced per row (a row may span
    blocks).
    """
    na, nb = A.shape[-2:]
    stack = A.shape[:-2]
    AT, CT = np.ascontiguousarray(np.swapaxes(A, -1, -2)), np.ascontiguousarray(C.T)
    is_start = np.ones(B.shape, dtype=bool)
    is_start[:, 1:] = B[:, 1:] != B[:, :-1]
    ks, js = np.nonzero(is_start)
    maskT = np.zeros(stack + (nb, na), dtype=bool)
    step = max(1, shifting.SCAN_BLOCK // max(na * int(np.prod(stack)), 1))
    for lo in range(0, ks.size, step):
        k, j = ks[lo : lo + step], js[lo : lo + step]
        hit = CT[j] - B[k, j][:, None] == AT[..., k, :]
        first = np.flatnonzero(np.diff(k, prepend=-1))
        maskT[..., k[first], :] |= np.logical_or.reduceat(hit, first, axis=-2)
    return np.swapaxes(maskT, -1, -2)


def _col_level(A: IntMatrix, B: IntMatrix, base: IntMatrix, test_mode: bool):
    """mask_of(s) for one level of settle_by_halving, on the level's one
    rotation: two-pointer masks of all tested candidates at once.  Under
    test_mode each mask asked for is checked against the equality scan."""
    W = int(max(A.max(), B.max(), base.max() + 2, 0))
    # Candidate base + s rotates to (rot.A - s, rot.B, rot.C): only A moves.
    rot = rotate_to_problem2prime(A, B, base, W)
    stack = replace(rot, A=rot.A - np.arange(3 if test_mode else 2)[:, None, None])
    del rot  # its A is in the stack; dropping it keeps the level's peak down
    masks = twopointer_direct(stack)
    if not test_mode:
        return masks.__getitem__

    def checked(s: int) -> WitnessMask:
        scan = congruent_witness_scan(stack.A[s], stack.B, stack.C, query_axis="ik")
        if not np.array_equal(masks[s], scan):
            raise AssertionError(f"two-pointer pass and equality scan disagree at +{s}")
        return masks[s]

    return checked


def minplus_monotone_col(
    A: IntMatrix, B: IntMatrix, tag: MonotoneTag, config: SolverConfig | None = None
) -> IntMatrix:
    """Min-plus product of A and B given the column-monotone promise on B.

    ``tag`` states the promise: columns of B are non-decreasing with entries
    in ``[1, tag.entry_bound]``.  Raises DimensionMismatchError when the
    shapes do not chain or have a zero dimension, PromiseViolationError when
    an entry is not an integer of magnitude below INT64_GUARD or B breaks the
    promise, and ValueError for a tag on the wrong axis or with an entry
    bound of INT64_GUARD // 8 or more, or for the det-reference engine,
    which only the row and convolution drivers have.
    """
    require_tag(tag, "column-monotone")
    if config is None:
        config = SolverConfig()
    if config.engine == "det-reference":
        raise ValueError("engine 'det-reference' is not available for the column driver")
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
    level = partial(_col_level, test_mode=config.test_mode)
    C_norm = settle_by_halving(A_norm, B, (A.shape[0], B.shape[1]), level, config.test_mode)
    return C_norm + deltas[:, None]
