"""Congruence counts: per output cell, how many witnesses are congruent mod Q.

The ring order Q is an arbitrary positive integer (a product of search
primes). The counting solvers ask, per output cell, for one coefficient of
a product of 0/1 monomial operands over Z[x]/(x^Q - 1): the number of
witnesses congruent mod Q. Each shape has one route.

``count_congruent`` (matrices) counts directly: residues mod Q in the
narrowest signed dtype that holds 2Q, one compare per triple, in blocks of
``shifting.SCAN_BLOCK`` triples. numpy has no sub-cubic matrix product, so a
route through the ring would make F = Q//2 + 1 complex multiply-adds per
triple where this makes one compare.

``count_congruent_conv`` (convolutions) reads the count from spectra: the
spectrum of a monomial x^e is a gather from one table of Q roots of unity,
the spectra are convolved along the position axis by one complex FFT, and
the wanted coefficient of each slot is read straight from the result. An
a-priori bound (``_conv_count_limit``) proves the rounding exact; past it
the count is refused with ``ValueError``, and every rounding is checked
again at run time (``_rint_exact``).
"""
from __future__ import annotations

import numpy as np

from . import shifting
from .core import as_exact_int64, narrow_int_dtype

__all__ = [
    "count_congruent",
    "count_congruent_conv",
    "next_pow2",
]


def next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


def _check_order(Q: int) -> None:
    # The spectral route forms (e * f) mod Q in int64 from e, f < Q; both
    # counts serve the same orders.
    if not 1 <= Q <= 1 << 31:
        raise ValueError(f"ring order {Q} outside [1, 2^31]")


def count_congruent(A: np.ndarray, B: np.ndarray, C: np.ndarray, Q: int) -> np.ndarray:
    """counts[i, j] = #{k : A[i,k] + B[k,j] = C[i,j] (mod Q)}, exact.

    The count is the coefficient at x^C[i,j] of the product of the monomial
    matrices x^A and x^B over Z[x]/(x^Q - 1), taken directly: with residues
    a, b, c in [0, Q), a + b - c lies in (-Q, 2Q) and is a multiple of Q
    exactly when it is 0 or Q. The residues are held in the narrowest signed
    dtype that holds 2Q and tested in blocks of whole rows i, at most
    shifting.SCAN_BLOCK triples each (one row when a row alone is larger),
    through one set of block buffers, so the memory beyond the residue
    copies and the output does not grow with the instance. Exponents may be
    negative or larger than Q.
    """
    _check_order(Q)
    A, B, C = as_exact_int64(A), as_exact_int64(B), as_exact_int64(C)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0] or C.shape != (A.shape[0], B.shape[1]):
        raise ValueError(f"shapes {A.shape} x {B.shape} -> {C.shape} do not form a matrix product")
    dtype = narrow_int_dtype(2 * Q)
    a, b, c = ((x % Q).astype(dtype) for x in (A, B, C))
    counts = np.zeros(c.shape, dtype=np.int64)
    rows = max(1, min(a.shape[0], shifting.SCAN_BLOCK // max(b.size, 1)))
    # one block of buffers, reused by every block: a + b - c and its two tests
    d = np.empty((rows,) + b.shape, dtype=dtype)
    hit, other = np.empty(d.shape, dtype=bool), np.empty(d.shape, dtype=bool)
    for lo in range(0, a.shape[0], rows):
        k = min(rows, a.shape[0] - lo)
        dk, hk = d[:k], hit[:k]
        np.add(a[lo : lo + k, :, None], b, out=dk)
        dk -= c[lo : lo + k, None, :]
        np.equal(dk, 0, out=hk)
        hk |= np.equal(dk, Q, out=other[:k])
        np.add.reduce(hk, axis=1, out=counts[lo : lo + k])
    return counts


# --- the convolution count, read from gathered monomial spectra -----------------

def _rint_exact(x: np.ndarray) -> np.ndarray:
    """Round a float-route count to int64.

    ``_conv_count_limit`` proves every value lies within 2^-5 of an integer,
    so the check below never fires; it raises rather than return a wrong
    count.
    """
    out = np.rint(x)
    if out.size and float(np.abs(x - out).max()) > 0.25:
        raise ArithmeticError("float product is not integral despite the a-priori bound")
    return out.astype(np.int64)


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


def _conv_count_limit(length: int, Q: int) -> int:
    """Largest max(na, nb) for which ``count_congruent_conv`` is provably exact.

    With u = 2^-53, F = Q//2 + 1 frequencies, m = max(na, nb) and
    k = ceil(log2(4 length)), to first order in u:

    * the spectra along x are table roots, each within 16 u of the exact
      root (``_spectrum_table``), with no FFT error along x;
    * the complex FFT of ``length`` >= na + nb - 1 along the positions
      (zero-padded, so linear) convolves them within
      ||x||_2 ||y||_2 u (39 k + 3) <= m u (39 k + 3). This is Percival's
      bound for a convolution by float FFT (Math. Comp. 72, 2003),
      ||z' - z||_inf <= ||x||_2 ||y||_2 ((1+u)^3k (1+sqrt(5) u)^(3k+1) (1+b)^3k - 1)
      with b <= u the error of the precomputed roots and the complex-product
      constant sqrt(5) of Brent, Percival and Zimmermann (Math. Comp. 76,
      2007). Its first-order factor is u (13 k + 3); the per-level constant
      13 is tripled to 39 to cover pocketfft's mixed-radix passes and its
      Bluestein route for large prime lengths, which runs three transforms
      of a length below 4 length;
    * the table error adds 32 u per pair, over at most m pairs;
    * each read term Re(X[f] conj(root)) adds m u (16 + 2) for the root's
      error and its own rounding, and the read sums F terms of magnitude at
      most m with exact weights summing to Q, so after the division by Q the
      sum adds (F - 1) u m and the division u m.

    The error therefore stays below 2^-5, sixteen times under the 0.5 that
    ``np.rint`` tolerates, whenever ``m * (39 k + F + 53) <= 2^48``; the
    slack 64 covers the higher-order terms.
    """
    k = (4 * length - 1).bit_length()
    return (1 << 48) // (39 * k + Q // 2 + 1 + 64)


def count_congruent_conv(a: np.ndarray, b: np.ndarray, c: np.ndarray, Q: int) -> np.ndarray:
    """counts[k] = #{(i, j) : i + j = k, a_i + b_j = c_k (mod Q)}, exact.

    The count is the coefficient at x^c_k y^k of the product of
    sum_i x^a_i y^i and sum_j x^b_j y^j, cyclic in x and ordinary in y. The
    spectra along x are gathered from the root table and convolved along y
    through zero-padded complex FFTs of one length; only the x^c_k
    coefficient of slot k is read back. Refused with ValueError past
    ``_conv_count_limit``.

    This is the one place where the transform pays: its cost per frequency
    grows as n log n, while a direct count makes one compare per pair.
    Against a direct count (narrow residues, blocked as in
    ``count_congruent``) at Q = 143 with one BLAS thread on 2-core x86-64
    machines, the crossover fell near n = 4096 in one measurement (0.43
    against 0.07 ms at n = 128, 18.7 against 16.7 ms at n = 4096, 127
    against 290 ms at n = 16384) and between n = 8192 and 16384 in another
    (1.7 against 0.13 ms at n = 128, 182 against 137 ms at n = 8192, 470
    against 593 ms at n = 16384). No size switch is made; there is one
    route per shape.
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
