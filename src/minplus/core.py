"""Integer matrix/array types, promise validation, and brute-force oracles.

Everything in this module is deliberately small and definitional: the
functions here are the reference behaviour that the fast solvers are tested
against. All public indices are 0-based. ``IntArray.origin`` records the
semantic index of ``values[0]`` (1 for convolution inputs, 2 for convolution
outputs), so callers that want 1-based bookkeeping can reconstruct it.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Literal, Optional, Tuple, Union

import numpy as np

__all__ = [
    "INT64_GUARD",
    "Axis",
    "DimensionMismatchError",
    "PromiseViolationError",
    "IntMatrix",
    "IntArray",
    "MonotoneTag",
    "WitnessMask",
    "ValidationReport",
    "VerificationInstance",
    "ConvVerificationInstance",
    "as_exact_int64",
    "as_shift_modulus",
    "narrow_int_dtype",
    "next_pow2",
    "magnitude_sum",
    "as_int_matrix",
    "as_int_array",
    "validate_promises",
    "validate_instance",
    "require_valid_instance",
    "require_product_shapes",
    "is_integer",
    "require_tag",
    "minplus_product_naive",
    "minplus_convolution_naive",
    "witness_mask_naive",
]

# Any A + B - C the solvers form must fit a signed 64-bit integer with room
# to spare; inputs beyond this are rejected at load/validation time.
INT64_GUARD = int(np.int64(1) << 61)

Axis = Literal["row-monotone", "column-monotone", "array-monotone"]

# A dense 2-D int64 ndarray. Kept as a plain numpy alias on purpose: rows,
# cols and entries are exactly ndarray.shape and ndarray itself.
IntMatrix = np.ndarray

# Boolean ndarray, 2-D for the products, 1-D for convolution.
WitnessMask = np.ndarray


class DimensionMismatchError(ValueError):
    """Shapes of the operands do not line up."""


class PromiseViolationError(ValueError):
    """An instance breaks a promised invariant; coord points at the witness."""

    def __init__(self, message: str, coord: Optional[Tuple[int, ...]] = None):
        super().__init__(message)
        self.coord = coord


@dataclass(frozen=True, eq=False)
class IntArray:
    """1-D integer array with an explicit index origin."""

    values: np.ndarray
    origin: int = 1

    def __post_init__(self):
        object.__setattr__(self, "values", as_int_vector(self.values))

    def __len__(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class MonotoneTag:
    """Which monotonicity promise applies, and the entry bound it comes with."""

    axis: Axis
    entry_bound: int


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    coord: Optional[Tuple[int, ...]] = None
    reason: str = ""


@dataclass(frozen=True, eq=False)
class VerificationInstance:
    """(A, B, C, M) with the small-residue promise, matrix shapes.

    B and C are row-monotone. The solver called decides the question:
    solve_verification_row answers per output cell (i, j) whether some inner
    k has A[i,k] + B[k,j] == C[i,j]; solve_verification_col, given the
    already rotated data (same layout and promises), answers per (i, k)
    whether some column j works.

    Built, it holds int64 matrices that chain with no zero dimension
    (as_int_matrix, no copy of int64 input; else DimensionMismatchError) and
    M as a Python int (as_shift_modulus); validate_instance checks the rest.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    M: int

    def __post_init__(self):
        A, B, C = (as_int_matrix(v) for v in (self.A, self.B, self.C))
        require_product_shapes(A, B)
        if C.shape != (A.shape[0], B.shape[1]):
            raise DimensionMismatchError(f"C has shape {C.shape}, not {(A.shape[0], B.shape[1])}")
        for name, value in (("A", A), ("B", B), ("C", C), ("M", as_shift_modulus(self.M))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class ConvVerificationInstance:
    """(A, B, C, M) for convolution verification, checked when built as
    VerificationInstance is: IntArrays of lengths n, n and 2n - 1, A and B at
    origin 1 and C at origin 2. An IntArray given at another origin is a
    DimensionMismatchError: its slots would not line up with the sums."""

    A: IntArray
    B: IntArray
    C: IntArray
    M: int

    def __post_init__(self):
        A, B, C = as_int_array(self.A), as_int_array(self.B), as_int_array(self.C, origin=2)
        for name, arr, origin in (("A", A, 1), ("B", B, 1), ("C", C, 2)):
            if arr.origin != origin:
                raise DimensionMismatchError(f"{name} has origin {arr.origin}, not {origin}")
        n = len(A)
        if len(B) != n or len(C) != 2 * n - 1:
            raise DimensionMismatchError(f"lengths {n}, {len(B)}, {len(C)}; expected n, n, 2n - 1")
        for name, value in (("A", A), ("B", B), ("C", C), ("M", as_shift_modulus(self.M))):
            object.__setattr__(self, name, value)


def as_shift_modulus(M) -> int:
    """M as a Python int: an integer multiple of 100 in [100, INT64_GUARD).
    Anything else is a PromiseViolationError."""
    if not (is_integer(M) and 100 <= M < INT64_GUARD and M % 100 == 0):
        raise PromiseViolationError("invalid instance: M not a positive multiple of 100")
    return int(M)


def narrow_int_dtype(bound: int) -> np.dtype:
    """The smallest signed integer dtype that holds every value in [-bound, bound]."""
    for dt in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dt).max:
            return np.dtype(dt)
    raise OverflowError(f"{bound} does not fit a signed 64-bit integer")


def next_pow2(n: int) -> int:
    """The smallest power of two that is at least n, for n >= 1."""
    return 1 << max(0, int(n - 1).bit_length())


def magnitude_sum(*arrays: np.ndarray) -> int:
    """Sum over the arrays of their largest magnitude: a bound on every signed
    sum of one entry from each."""
    return sum(max(int(a.max(initial=0)), -int(a.min(initial=0))) for a in arrays)


def as_exact_int64(obj) -> np.ndarray:
    """obj as an int64 array, refusing what int64 would not hold exactly.

    Raises DimensionMismatchError for ragged nested entries, which form no
    array. Raises PromiseViolationError, with coord at the first offender
    where there is one, for an entry that is not a real number (a string or
    a complex number is refused, numeric or not), for a non-integral or
    non-finite entry (1.5 is refused, not truncated to 1) and for an entry
    of magnitude INT64_GUARD or more.
    """
    try:
        a = np.asarray(obj)
    except ValueError as e:
        raise DimensionMismatchError(f"entries do not form a rectangular array: {e}") from None
    if a.dtype.kind not in "biu":
        if a.dtype.kind == "O":
            bad = np.frompyfunc(lambda x: not isinstance(x, Real), 1, 1)(a).astype(bool)
            if bad.any():
                coord = _first_bad(bad)
                raise PromiseViolationError(f"entry {a[coord]!r} is not a number", coord=coord)
        elif a.dtype.kind != "f":
            raise PromiseViolationError(f"entries of dtype {a.dtype} are not integers")
        a = np.asarray(a, dtype=np.float64)
        bad = ~np.isfinite(a) | (a != np.round(a))
        if bad.any():
            coord = _first_bad(bad)
            raise PromiseViolationError(f"entry {float(a[coord])} is not an integer", coord=coord)
    if a.size and (a.max() >= INT64_GUARD or a.min() <= -INT64_GUARD):
        raise PromiseViolationError("entries too large for safe 64-bit arithmetic")
    return a.astype(np.int64, copy=False)


def as_int_matrix(obj) -> np.ndarray:
    a = as_exact_int64(obj)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def as_int_vector(obj) -> np.ndarray:
    a = as_exact_int64(obj)
    if a.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D array, got ndim={a.ndim}")
    if a.size == 0:
        raise DimensionMismatchError("empty array")
    return a


def as_int_array(obj, origin: int = 1) -> IntArray:
    if isinstance(obj, IntArray):
        return obj
    return IntArray(values=obj, origin=origin)


def validate_promises(m: Union[IntMatrix, IntArray], tag: MonotoneTag) -> ValidationReport:
    """Check monotonicity along tag.axis and entries within [1, entry_bound].

    Returns ok, or the smallest violating coordinate in row-major order.
    A monotonicity break between positions p and p+1 is reported at p+1.
    """
    v = m.values if isinstance(m, IntArray) else np.asarray(m, dtype=np.int64)
    if v.ndim != (1 if tag.axis == "array-monotone" else 2):
        raise DimensionMismatchError(f"{tag.axis} tag on an array of ndim {v.ndim}")

    bad_bound = (v < 1) | (v > tag.entry_bound)
    bad_mono = np.zeros_like(bad_bound)
    if tag.axis == "row-monotone":
        bad_mono[:, 1:] = v[:, 1:] < v[:, :-1]
    elif tag.axis == "column-monotone":
        bad_mono[1:, :] = v[1:, :] < v[:-1, :]
    else:
        bad_mono[1:] = v[1:] < v[:-1]

    viol = bad_bound | bad_mono
    if not viol.any():
        return ValidationReport(True)
    coord = _first_bad(viol)
    reason = "bound" if bad_bound[coord] else "monotonicity"
    return ValidationReport(False, coord=coord, reason=reason)


def _first_bad(mask: np.ndarray) -> Tuple[int, ...]:
    flat = int(np.argmax(mask))
    return tuple(int(c) for c in np.unravel_index(flat, mask.shape))


def validate_instance(
    inst: Union[VerificationInstance, ConvVerificationInstance],
) -> ValidationReport:
    """Validate the promises of a verification instance (report style):
    entries non-negative with residues mod M at most M/10, and the monotone
    operands non-decreasing. Shapes and M were checked when it was built."""
    if isinstance(inst, ConvVerificationInstance):
        mats = (("A", inst.A.values), ("B", inst.B.values), ("C", inst.C.values))
        mono = mats[:2]
    else:
        mats = (("A", inst.A), ("B", inst.B), ("C", inst.C))
        mono = mats[1:]

    M = inst.M
    for name, m in mats:
        neg = m < 0
        if neg.any():
            return ValidationReport(False, coord=_first_bad(neg), reason=f"{name} negative entry")
        res = (m % M) > (M // 10)
        if res.any():
            return ValidationReport(False, coord=_first_bad(res), reason=f"{name} residue exceeds M/10")
    for name, m in mono:
        brk = np.zeros(m.shape, dtype=bool)
        brk[..., 1:] = m[..., 1:] < m[..., :-1]
        if brk.any():
            return ValidationReport(False, coord=_first_bad(brk), reason=f"{name} not monotone")
    return ValidationReport(True)


def require_valid_instance(inst) -> None:
    rep = validate_instance(inst)
    if not rep.ok:
        raise PromiseViolationError(f"invalid instance: {rep.reason}", coord=rep.coord)


def require_product_shapes(A: np.ndarray, B: np.ndarray) -> None:
    """Raise DimensionMismatchError unless A and B are non-empty matrices
    that chain; a zero dimension leaves some minimum over an empty set."""
    if A.ndim != 2 or B.ndim != 2:
        raise DimensionMismatchError(f"expected 2-D matrices, got ndim {A.ndim} and {B.ndim}")
    if A.shape[1] != B.shape[0]:
        raise DimensionMismatchError(
            f"inner dimensions differ: {A.shape[1]} vs {B.shape[0]}"
        )
    if 0 in A.shape or 0 in B.shape:
        raise DimensionMismatchError(f"zero dimension in shapes {A.shape} and {B.shape}")


def is_integer(value) -> bool:
    """An integer scalar, numpy's included; bool is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def require_tag(tag: MonotoneTag, axis: Axis) -> None:
    """Raise ValueError unless tag is a MonotoneTag on axis whose entry bound
    is an integer that leaves the drivers' int64 arithmetic exact (below
    INT64_GUARD // 8)."""
    article = "an" if axis[0] in "aeiou" else "a"
    if not isinstance(tag, MonotoneTag):
        raise ValueError(f"expected {article} {axis} MonotoneTag, got {type(tag).__name__}")
    if tag.axis != axis:
        raise ValueError(f"expected {article} {axis} tag, got axis={tag.axis!r}")
    if not is_integer(tag.entry_bound):
        raise ValueError(f"entry bound must be an integer, got {tag.entry_bound!r}")
    if tag.entry_bound >= INT64_GUARD // 8:
        raise ValueError("entry bound too large for exact int64 arithmetic")


def minplus_product_naive(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """C[i,j] = min over k of A[i,k] + B[k,j], straight from the definition."""
    A = as_int_matrix(A)
    B = as_int_matrix(B)
    require_product_shapes(A, B)
    ni, nb = A.shape[0], B.shape[1]
    C = np.empty((ni, nb), dtype=np.int64)
    for i in range(ni):
        C[i] = (A[i][:, None] + B).min(axis=0)
    return C


def minplus_convolution_naive(A: IntArray, B: IntArray) -> IntArray:
    """(A <> B)[k] = min over valid i of A[i] + B[k-i]; output origin is 2."""
    a = as_int_array(A).values
    b = as_int_array(B).values
    n = a.shape[0]
    if b.shape[0] != n:
        raise DimensionMismatchError(f"length mismatch: {n} vs {b.shape[0]}")
    out = np.full(2 * n - 1, np.iinfo(np.int64).max, dtype=np.int64)
    for i in range(n):
        seg = out[i : i + n]
        np.minimum(seg, a[i] + b, out=seg)
    return IntArray(values=out, origin=2)


def witness_mask_naive(
    inst: Union[VerificationInstance, ConvVerificationInstance],
    query_axis: str,
) -> WitnessMask:
    """Exact brute-force witness mask; the oracle all solvers are tested against.

    query_axis: "ij" (per output cell, witness k), "ik" (per (i, k), witness
    j) or "k" (per convolution index, witness i).
    """
    if query_axis == "k":
        if not isinstance(inst, ConvVerificationInstance):
            raise DimensionMismatchError("axis 'k' needs a convolution instance")
        a, b, c = inst.A.values, inst.B.values, inst.C.values
        n = a.shape[0]
        mask = np.zeros(2 * n - 1, dtype=bool)
        for t in range(2 * n - 1):
            lo = max(0, t - (n - 1))
            hi = min(n - 1, t)
            i = np.arange(lo, hi + 1)
            mask[t] = bool(np.any(a[i] + b[t - i] == c[t]))
        return mask

    if isinstance(inst, ConvVerificationInstance):
        raise DimensionMismatchError(f"axis '{query_axis}' needs a matrix instance")
    A, B, C = inst.A, inst.B, inst.C
    ni = A.shape[0]
    if query_axis == "ij":
        mask = np.zeros(C.shape, dtype=bool)
        for i in range(ni):
            mask[i] = ((A[i][:, None] + B) == C[i][None, :]).any(axis=0)
        return mask
    if query_axis == "ik":
        mask = np.zeros(A.shape, dtype=bool)
        for i in range(ni):
            mask[i] = ((A[i][:, None] + B) == C[i][None, :]).any(axis=1)
        return mask
    raise DimensionMismatchError(f"unknown query axis {query_axis!r}")
