"""Exact integer arithmetic in Z[x]/(x^Q - 1) and the congruence counts built on it.

The ring order Q is an arbitrary positive integer (a product of search
primes). The counting solvers ask, per output cell, for one coefficient of
a product of 0/1 monomial operands: how many witnesses are congruent mod Q.
``count_congruent`` (matrices) and ``count_congruent_conv`` (convolutions)
answer that without building any coefficient array: the spectrum of a
monomial x^e is a gather from one table of Q roots of unity, the product's
spectrum is one complex matmul (or one complex FFT along the position axis)
over the Q//2 + 1 frequencies, and the wanted coefficient of each cell is
read straight from the spectrum. An a-priori bound (``_matrix_count_limit``,
``_conv_count_limit``) proves the rounding exact; past it they refuse with
``ValueError``.

``CyclicPolyMatrix``, ``polymat_mul`` and ``bivariate_convolve`` form whole
products of integer polynomials through numpy's float64 FFT at the exact
length Q, which is already cyclic, so nothing is padded or folded. They
serve the ring-backend Y reference of the modulus search
(``modulus.compute_Y_all_matrix`` / ``compute_Y_all_conv``). Their bound
(``_float_limit``) proves the rounding exact; the matrix product splits its
inner dimension into blocks that each meet it and sums the exact blocks,
and operands whose single products already break it are refused with
``ValueError``. Every rounding is checked again at run time
(``_rint_exact``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_exact_int64, magnitude_sum

__all__ = [
    "count_congruent",
    "count_congruent_conv",
    "CyclicPolyMatrix",
    "polymat_mul",
    "bivariate_convolve",
    "next_pow2",
]


def next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


@dataclass(frozen=True, eq=False)
class CyclicPolyMatrix:
    """Matrix over Z[x]/(x^Q - 1); coeffs has shape (rows, cols, Q)."""

    Q: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = as_exact_int64(self.coeffs)
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
    P = as_exact_int64(P)
    R = as_exact_int64(R)
    if P.ndim != 2 or R.ndim != 2 or P.shape[1] > Q or R.shape[1] > Q:
        raise ValueError("bivariate operands must be (ny, <=Q) arrays")
    ny = P.shape[0] + R.shape[0] - 1
    terms = max(P.shape[0], R.shape[0]) * Q
    if terms * magnitude_sum(P) * magnitude_sum(R) > _float_limit(1, ny, Q):
        raise ValueError(f"operands too large for exact float counting at Q={Q}")
    s = (ny, Q)
    return _rint_exact(np.fft.irfft2(np.fft.rfft2(P, s=s) * np.fft.rfft2(R, s=s), s=s))


# --- congruence counts read from gathered monomial spectra ----------------------

def _check_order(Q: int) -> None:
    # (e * f) mod Q is formed in int64 from e, f < Q.
    if not 1 <= Q <= 1 << 31:
        raise ValueError(f"ring order {Q} outside [1, 2^31]")


def _spectrum_table(Q: int, *exps: np.ndarray) -> tuple:
    """Spectra of the monomials x^e, one for each array e in ``exps``: returns
    ``table`` and one index array per e, and ``table[:, idx]`` is the rfft
    along x of x^e, frequency axis first.

    The rfft of x^e at frequency f is the root of unity
    root(m) = exp(-2 pi i m / Q) at m = (e f) mod Q, so nothing is
    transformed along x: the table holds the F = Q//2 + 1 spectrum values of
    each residue that occurs and every spectrum is a gather from it, made
    only when it is used. The table (at most F min(Q, total size) values)
    and the Q-long helper arrays stay within a small multiple of one
    spectrum, which holds F >= Q/2 values per cell.

    Every root lies within 16 u of the exact root (u = 2^-53): the angle
    2 pi m / Q takes three roundings (pi, the product, the quotient), at most
    1.5 u relative on an angle below 2 pi, so under 10 u absolute; cos and
    sin add under 1 u each, and two components under 11 u each stay below
    16 u in modulus.
    """
    residues = [e % Q for e in exps]
    slot = np.zeros(Q, dtype=np.intp)
    for r in residues:
        slot[r] = 1
    present = np.flatnonzero(slot)
    slot[present] = np.arange(present.size)
    roots = np.exp(-2j * np.pi * np.arange(Q) / Q)
    table = roots[np.multiply.outer(np.arange(Q // 2 + 1), present) % Q]
    return table, [slot[r] for r in residues]


def _read(spec: np.ndarray, conj_roots: np.ndarray, Q: int) -> np.ndarray:
    """Coefficient at x^c of each cell of the real polynomial array whose rfft
    along x is ``spec`` (frequency axis first), rounded exactly.

    ``conj_roots`` is the spectrum of x^-c, whose entries are conj(root(c f)).
    The coefficient is (1/Q) sum_f w_f Re(spec[f] conj(root(c f))), with
    w_f = 1 at f = 0 and at the Nyquist frequency Q/2 and 2 elsewhere; the
    weights sum to Q.
    """
    w = np.full(spec.shape[0], 2.0)
    w[0] = 1.0
    if Q % 2 == 0:
        w[-1] = 1.0
    conj_roots *= spec
    return _rint_exact(np.tensordot(w, conj_roots.real, axes=1) / Q)


def _matrix_count_limit(inner: int, Q: int) -> int:
    """Largest inner dimension for which ``count_congruent`` is provably exact.

    With u = 2^-53, F = Q//2 + 1 frequencies and every table root within
    16 u of the exact root (``_spectrum_table``), to first order in u:

    * the spectra are the table roots themselves, with no FFT error along x;
    * the complex matmul sums ``inner`` products of entries of modulus 1: the
      table error adds 32 u per product and the floating-point sum at most
      sqrt(2) (inner + 2) u per product (Higham's complex dot-product bound),
      so every spectrum value is within inner u (2 inner + 35) of the exact
      one, whose modulus is at most ``inner``;
    * each read term Re(X[f] conj(root)) adds inner u (16 + 2) for the
      root's error and its own rounding;
    * the read sums F terms of magnitude at most ``inner`` with exact
      weights summing to Q, so after the division by Q the sum adds
      (F - 1) u inner and the division u inner.

    The error therefore stays below 2^-5, sixteen times under the 0.5 that
    ``np.rint`` tolerates, whenever ``inner * (2 inner + F + 53) <= 2^48``;
    the slack 64 covers the higher-order terms.
    """
    return (1 << 48) // (2 * inner + Q // 2 + 1 + 64)


def _conv_count_limit(length: int, Q: int) -> int:
    """Largest max(na, nb) for which ``count_congruent_conv`` is provably exact.

    As for ``_matrix_count_limit``, but the spectra are convolved along the
    position axis by a complex FFT of ``length`` >= na + nb - 1 (zero-padded,
    so linear). Percival's bound with the constants of ``_float_limit``
    (k = ceil(log2(4 length))) puts that FFT's error within
    ||x||_2 ||y||_2 u (39 k + 3) <= m u (39 k + 3), m = max(na, nb), and the
    table error adds 32 u per pair over at most m pairs. The read then adds
    m u (F + 18) as in the matrix case, so the error stays below 2^-5
    whenever ``m * (39 k + F + 53) <= 2^48``; the slack 64 covers the
    higher-order terms.
    """
    k = (4 * length - 1).bit_length()
    return (1 << 48) // (39 * k + Q // 2 + 1 + 64)


def count_congruent(A: np.ndarray, B: np.ndarray, C: np.ndarray, Q: int) -> np.ndarray:
    """counts[i, j] = #{k : A[i,k] + B[k,j] = C[i,j] (mod Q)}, exact.

    The count is the coefficient at x^C[i,j] of the product of the monomial
    matrices x^A and x^B over Z[x]/(x^Q - 1). The operands' spectra are
    gathered from the root table, multiplied by one complex matmul per
    frequency, and only that coefficient of each cell is read back.
    Exponents may be negative or larger than Q. Refused with ValueError past
    ``_matrix_count_limit``.
    """
    _check_order(Q)
    A, B, C = as_exact_int64(A), as_exact_int64(B), as_exact_int64(C)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0] or C.shape != (A.shape[0], B.shape[1]):
        raise ValueError(f"shapes {A.shape} x {B.shape} -> {C.shape} do not form a matrix product")
    inner = A.shape[1]
    if inner > _matrix_count_limit(inner, Q):
        raise ValueError(f"inner dimension {inner} too large for exact counting at Q={Q}")
    table, (ia, ib, ic) = _spectrum_table(Q, A, B, -C)
    return _read(np.matmul(table[:, ia], table[:, ib]), table[:, ic], Q)


def count_congruent_conv(a: np.ndarray, b: np.ndarray, c: np.ndarray, Q: int) -> np.ndarray:
    """counts[k] = #{(i, j) : i + j = k, a_i + b_j = c_k (mod Q)}, exact.

    The count is the coefficient at x^c_k y^k of the product of
    sum_i x^a_i y^i and sum_j x^b_j y^j, cyclic in x and ordinary in y. The
    spectra along x are gathered from the root table and convolved along y
    through zero-padded complex FFTs of one length; only the x^c_k
    coefficient of slot k is read back. Refused with ValueError past ``_conv_count_limit``.
    """
    _check_order(Q)
    a, b, c = as_exact_int64(a), as_exact_int64(b), as_exact_int64(c)
    if a.ndim != 1 or b.ndim != 1 or not a.size or not b.size or c.shape != (a.size + b.size - 1,):
        raise ValueError(f"lengths {a.shape}, {b.shape} -> {c.shape} do not form a convolution")
    length = next_pow2(c.size)
    if max(a.size, b.size) > _conv_count_limit(length, Q):
        raise ValueError(f"operands too large for exact counting at Q={Q}")
    table, (ia, ib, ic) = _spectrum_table(Q, a, b, -c)
    spec = np.fft.fft(table[:, ia], n=length, axis=1)
    spec *= np.fft.fft(table[:, ib], n=length, axis=1)
    np.fft.ifft(spec, axis=1, out=spec)
    return _read(spec[:, : c.size], table[:, ic], Q)
