"""Deterministic min-plus convolution of two monotone arrays.

The driver mirrors :mod:`minplus.product_row` on diagonals instead of rows:
halve entries, recurse, then settle each output slot among the candidates
``2 * C'[k] + s`` for ``s`` in ``{0, 1, 2}``, through the recursion the
drivers share, :func:`minplus.shifting.settle_by_halving`; ``_conv_level``
is this module's per-level candidate test. Candidate checking shifts
residues exactly as in the matrix case, by the fixed
``M = shifting.SHIFT_M``, and counts, per output slot, the index pairs whose
sum is congruent to the candidate.

``solve_verification_conv`` is the promised-instance pipeline (modulus
search, congruent-pair counting, diagonal segment aggregation). The det driver
path instead makes one equality scan of all n^2 index pairs per level
(:func:`minplus.shifting.congruent_witness_scan_conv`), which decides the
same rule exactly for the candidates ``+0`` and ``+1`` at once, forming each
block of sums once, over about ``log2(bound) + 2`` levels. The driver's
per-level modulus search computes a Q that nothing reads; it stays only
because the benchmark's ``Workload.exercises`` requires it (ROADMAP item 1).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .config import SolverConfig
from .core import (
    ConvVerificationInstance,
    DimensionMismatchError,
    IntArray,
    MonotoneTag,
    PromiseViolationError,
    WitnessMask,
    as_int_array,
    minplus_convolution_naive,
    require_tag,
    require_valid_instance,
    validate_promises,
)
from .modulus import find_good_modulus, require_modulus
from .polyring import count_congruent_conv
from .segments import active_level0_bounds, conv_layout, levelmax_for, sprime_conv_flat
from .shifting import (
    CANDIDATE_SHIFTS,
    SHIFT_M,
    class_pair_sweep,
    congruent_witness_scan_conv,
    first_live_pair,
    settle_by_halving,
    shift_operand,
    shift_output,
)

__all__ = [
    "compute_s_array",
    "solve_verification_conv",
    "minplus_conv_monotone",
]


def _shift_instance_conv(
    a: np.ndarray, b: np.ndarray, c_cand: np.ndarray, M: int, s: int, t: int
) -> ConvVerificationInstance:
    return ConvVerificationInstance(
        A=shift_operand(a + M, s, M),
        B=shift_operand(b + M, t, M),
        C=shift_output(c_cand + 2 * M, s + t, M),
        M=M,
    )


def compute_s_array(inst: ConvVerificationInstance, Q: int) -> np.ndarray:
    """Count, per output slot k, the pairs i + j = k with A_i + B_j = C_k (mod Q).

    This is the x^C_k y^k coefficient of the product of P_A = sum_i x^A_i y^i
    and P_B, cyclic in x and ordinary in y. ``polyring.count_congruent_conv``
    takes it directly: it tests every pair's residues in blocks and sums the
    hits onto their antidiagonals, with no product formed.
    """
    return count_congruent_conv(inst.A.values, inst.B.values, inst.C.values, Q)


def solve_verification_conv(
    inst: ConvVerificationInstance,
    Q: int | None = None,
    config: SolverConfig | None = None,
) -> WitnessMask:
    """Exact per-slot witness mask for one promised convolution instance.

    s counts congruent pairs per slot, s' counts the congruent-but-unequal
    ones through the diagonal segment refinement; the mask is ``s > s'``.
    Q defaults to the searched modulus; raises ValueError for a caller's Q
    that is not an integer above 7M/100 (modulus.require_modulus).
    """
    if config is None:
        config = SolverConfig()
    require_valid_instance(inst)
    if Q is None:
        Q, _ = find_good_modulus(inst, R=config.R, slack=config.slack)
    else:
        require_modulus(Q, inst.M)
    s_counts = compute_s_array(inst, Q)
    layout = conv_layout(inst)
    starts, ends = active_level0_bounds(layout, levelmax_for(inst.M), Q)
    s_prime = sprime_conv_flat(layout, starts, ends, Q)
    return s_counts > s_prime


def _level_modulus_conv(
    a: np.ndarray, b: np.ndarray, c_cand: np.ndarray, M: int, config: SolverConfig
) -> int:
    """The convolution form of product_row._level_modulus; nothing reads
    its Q either."""
    inst = _shift_instance_conv(a, b, c_cand, M, *first_live_pair(a, b, M))
    Q, _ = find_good_modulus(inst, R=config.R, slack=config.slack)
    return Q


def _conv_level(a: np.ndarray, b: np.ndarray, base: np.ndarray, M: int, config: SolverConfig):
    """mask_of(s) for one level of settle_by_halving: the class-pair sweep,
    run lazily per asked candidate, under det-reference; else one equality
    scan of the level that tests +0 and +1 at once."""
    if config.engine == "det-reference":
        q_holder: list = []
        return lambda s: class_pair_sweep(
            a, b, base + s, M, config, q_holder, _shift_instance_conv, solve_verification_conv
        )
    # Nothing reads the level's Q; the search stays for the benchmark (ROADMAP item 1).
    _level_modulus_conv(a, b, base, M, config)
    return congruent_witness_scan_conv(a, b, base, CANDIDATE_SHIFTS).__getitem__


def minplus_conv_monotone(
    A, B, tag: MonotoneTag, config: SolverConfig | None = None
) -> IntArray:
    """Min-plus convolution of two monotone arrays; output has origin 2.

    Both arrays must be non-decreasing with entries in [1, tag.entry_bound].
    Raises DimensionMismatchError when the arrays differ in length, are not
    1-D or are empty, PromiseViolationError when an entry is not an integer
    of magnitude below INT64_GUARD or either array breaks the promise, and
    ValueError for a tag that is not a MonotoneTag, is on the wrong axis, or
    has an entry bound that is not an integer or is INT64_GUARD // 8 or more.
    """
    require_tag(tag, "array-monotone")
    if config is None:
        config = SolverConfig()
    a = as_int_array(A).values
    b = as_int_array(B).values
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    for name, arr in (("A", a), ("B", b)):
        rep = validate_promises(arr, tag)
        if not rep.ok:
            raise PromiseViolationError(
                f"{name} violates the promise: {rep.reason}", coord=rep.coord
            )
    if config.engine == "naive":
        return minplus_convolution_naive(a, b)
    level = partial(_conv_level, M=SHIFT_M, config=config)
    out = settle_by_halving(a, b, (2 * a.shape[0] - 1,), level)
    return IntArray(values=out, origin=2)
