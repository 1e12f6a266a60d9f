"""Instance builders shared by the test modules."""
import numpy as np

from minplus.convolution import _shift_instance_conv
from minplus.core import ConvVerificationInstance, IntArray, VerificationInstance
from minplus.product_row import _shift_instance


def minst(A, B, C, M=100):
    return VerificationInstance(
        A=np.asarray(A, dtype=np.int64),
        B=np.asarray(B, dtype=np.int64),
        C=np.asarray(C, dtype=np.int64),
        M=M,
    )


def cinst(a, b, c, M=100):
    return ConvVerificationInstance(
        A=IntArray(values=np.asarray(a, dtype=np.int64)),
        B=IntArray(values=np.asarray(b, dtype=np.int64)),
        C=IntArray(values=np.asarray(c, dtype=np.int64), origin=2),
        M=M,
    )


def promised_matrix(rng, na, nb, nc, M=100, hi=5, variant="row"):
    """Residues at most M/10, B and C rows non-decreasing."""

    def res(shape):
        return rng.integers(0, M // 10 + 1, shape, dtype=np.int64)

    A = M * rng.integers(0, hi, (na, nb), dtype=np.int64) + res((na, nb))
    B = np.sort(M * rng.integers(0, hi, (nb, nc), dtype=np.int64) + res((nb, nc)), axis=1)
    C = np.sort(M * rng.integers(0, hi, (na, nc), dtype=np.int64) + res((na, nc)), axis=1)
    return VerificationInstance(A=A, B=B, C=C, M=M, variant=variant)


def promised_conv(rng, n, M=100, hi=5):
    def res(k):
        return rng.integers(0, M // 10 + 1, k, dtype=np.int64)

    a = np.sort(M * rng.integers(0, hi, n, dtype=np.int64) + res(n))
    b = np.sort(M * rng.integers(0, hi, n, dtype=np.int64) + res(n))
    c = M * rng.integers(0, 2 * hi, 2 * n - 1, dtype=np.int64) + res(2 * n - 1)
    return cinst(a, b, c, M=M)


def all_shift_pairs(A, B, C, M=100, conv=False):
    """Every class-pair shifted instance of one candidate, as (s, t, instance)
    in (s, t) order. A cell of C is a true value iff some pair's instance has
    a witness at it."""
    shift = _shift_instance_conv if conv else _shift_instance
    for s in range(100):
        for t in range(100):
            yield s, t, shift(A, B, C, M, s, t)
