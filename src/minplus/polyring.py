"""Exact integer arithmetic in Z[x]/(x^Q - 1) and bivariate products over it.

The ring order Q is an arbitrary positive integer (a product of search
primes). Every product runs through numpy's float64 FFT at the exact length
Q, which is already cyclic, so nothing is padded or folded, and is rounded
back to int64 with ``np.rint``. An a-priori bound on the rounding error
(``_float_limit``) proves that the rounding recovers every coefficient
exactly; the matrix product splits its inner dimension into blocks that each
meet the bound and sums the exact blocks. Operands whose single products
already break the bound are refused with ``ValueError``. The counting
solvers build only 0/1 monomial operands, far inside it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import magnitude_sum

__all__ = [
    "CyclicPolyMatrix",
    "polymat_mul",
    "bivariate_convolve",
    "next_pow2",
]


def next_pow2(n: int) -> int:
    # perfbench/tracer.py sizes its computed polyring counters with this.
    return 1 << max(0, int(n - 1).bit_length())


@dataclass(frozen=True, eq=False)
class CyclicPolyMatrix:
    """Matrix over Z[x]/(x^Q - 1); coeffs has shape (rows, cols, Q)."""

    Q: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int64)
        if c.ndim != 3 or c.shape[2] != self.Q:
            raise ValueError("coeffs must have shape (rows, cols, Q)")
        object.__setattr__(self, "coeffs", c)

    @property
    def rows(self) -> int:
        return self.coeffs.shape[0]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[1]

    @classmethod
    def from_exponents(cls, Q: int, exps: np.ndarray) -> "CyclicPolyMatrix":
        """Monomial matrix with entry x^(exps[i,j] mod Q)."""
        exps = np.asarray(exps, dtype=np.int64) % Q
        r, c = exps.shape
        coeffs = np.zeros((r, c, Q), dtype=np.int64)
        ii, jj = np.meshgrid(np.arange(r), np.arange(c), indexing="ij")
        coeffs[ii.ravel(), jj.ravel(), exps.ravel()] = 1
        return cls(Q=Q, coeffs=coeffs)


def _float_limit(n_sum: int, *lengths: int) -> int:
    """Largest power of two T for which the float route is provably exact.

    The float route sums ``terms`` products of coefficients bounded by
    max|a| and max|b|; it is exact when ``terms * max|a| * max|b| <= T``.

    The bound rests on Percival's error bound for a cyclic convolution
    z = x * y of length 2^k computed with a float FFT (Math. Comp. 72, 2003),
    with the complex-product constant sqrt(5) of Brent, Percival and
    Zimmermann (Math. Comp. 76, 2007):

        ||z' - z||_inf <= ||x||_2 ||y||_2 ((1+u)^3k (1+sqrt(5) u)^(3k+1) (1+b)^3k - 1),

    where u = 2^-53 and b <= u is the error of the precomputed roots. To
    first order the factor is u (13 k + 3). Here:

    * k is the sum over the transformed axes of ceil(log2(4 len)), and the
      per-level constant 13 is tripled to 39. This covers pocketfft's
      mixed-radix passes and its Bluestein route for large prime lengths,
      which runs three transforms of a length below 4 len.
    * A frequency-domain sum of n_sum complex products adds at most
      sqrt(2) (n_sum + 2) u <= (2 n_sum + 3) u times the same norm product
      (Higham's complex dot-product bound; Cauchy-Schwarz and Parseval
      carry the per-frequency error back to coefficient space).
    * Summed over the products, ||x||_2 ||y||_2 <= terms * max|a| * max|b|.

    The error therefore stays below 2^-5, sixteen times under the 0.5 that
    ``np.rint`` tolerates, whenever
    ``terms * max|a| * max|b| <= 2^48 / (39 k + 2 n_sum + 6)``.
    """
    k = sum((4 * n - 1).bit_length() for n in lengths)
    return 1 << (((1 << 48) // (39 * k + 2 * n_sum + 6)).bit_length() - 1)


def _rint_exact(x: np.ndarray) -> np.ndarray:
    """Round a float-route product to int64.

    ``_float_limit`` proves every value lies within 2^-5 of an integer, so
    the check below never fires; it raises rather than return a wrong count.
    """
    out = np.rint(x)
    if out.size and float(np.abs(x - out).max()) > 0.25:
        raise ArithmeticError("float product is not integral despite the a-priori bound")
    return out.astype(np.int64)


def _inner_block(inner: int, Q: int, top: int) -> int:
    """Largest inner-dimension block whose float product is provably exact.

    ``top`` is max|a| * max|b|. The whole inner dimension when it fits (every
    counting product); a ValueError when not even one column does.
    """

    def fits(block: int) -> bool:
        return block * Q * top <= _float_limit(block, Q)

    if fits(inner):
        return max(inner, 1)
    if not fits(1):
        raise ValueError(
            f"coefficients too large for exact float counting at Q={Q} (max|a|*max|b| = {top})"
        )
    lo, hi = 1, inner  # fits(lo) and not fits(hi); fits is monotone
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def polymat_mul(Pm: CyclicPolyMatrix, Qm: CyclicPolyMatrix) -> CyclicPolyMatrix:
    """Matrix product over the cyclic ring, exact over the integers.

    Every entry is transformed once by numpy's float rfft at length Q, one
    complex matmul runs per each of the Q//2 + 1 frequencies, and irfft plus
    exact rounding brings the product back. With inner dimension n, one
    pass serves the whole product when
    ``n * Q * max|Pm| * max|Qm| <= _float_limit(n, Q)``; otherwise the inner
    dimension is split into the largest blocks that meet the bound and their
    exact int64 products are summed.
    """
    if Pm.Q != Qm.Q:
        raise ValueError("ring orders differ")
    if Pm.cols != Qm.rows:
        raise ValueError(f"dimension mismatch: {Pm.cols} vs {Qm.rows}")
    Q, inner = Pm.Q, Pm.cols
    block = _inner_block(inner, Q, magnitude_sum(Pm.coeffs) * magnitude_sum(Qm.coeffs))
    fa = np.moveaxis(np.fft.rfft(Pm.coeffs, axis=2), 2, 0)
    fb = np.moveaxis(np.fft.rfft(Qm.coeffs, axis=2), 2, 0)
    prod = None
    for k in range(0, max(inner, 1), block):
        ka, kb = fa[:, :, k : k + block], fb[:, k : k + block, :]
        # one expression, so the complex product is freed before the rounding
        part = _rint_exact(np.fft.irfft(np.matmul(ka, kb), n=Q, axis=0))
        prod = part if prod is None else prod + part
    return CyclicPolyMatrix(Q=Q, coeffs=np.moveaxis(prod, 0, 2))


def bivariate_convolve(P: np.ndarray, R: np.ndarray, Q: int) -> np.ndarray:
    """Product cyclic in x (order Q) and ordinary in y, exact over the integers.

    P and R are 2-D coefficient arrays with P[y, x] the coefficient of
    x^x * y^y, x < Q. The product is one float rfft2/irfft2 pair of shape
    (ya + yb - 1, Q): zero-padded, hence linear, in y and cyclic in x. It is
    exact when ``max(ya, yb) * Q * max|P| * max|R| <= _float_limit(1, ya +
    yb - 1, Q)`` and refused with ValueError otherwise. The factor is
    max(ya, yb), not min(ya, yb): the error bound scales with
    ||P||_2 ||R||_2 <= sqrt(ya * yb) * Q * max|P| * max|R|.
    """
    P = np.asarray(P, dtype=np.int64)
    R = np.asarray(R, dtype=np.int64)
    if P.ndim != 2 or R.ndim != 2 or P.shape[1] > Q or R.shape[1] > Q:
        raise ValueError("bivariate operands must be (ny, <=Q) arrays")
    ny = P.shape[0] + R.shape[0] - 1
    terms = max(P.shape[0], R.shape[0]) * Q
    if terms * magnitude_sum(P) * magnitude_sum(R) > _float_limit(1, ny, Q):
        raise ValueError(f"operands too large for exact float counting at Q={Q}")
    s = (ny, Q)
    return _rint_exact(np.fft.irfft2(np.fft.rfft2(P, s=s) * np.fft.rfft2(R, s=s), s=s))
