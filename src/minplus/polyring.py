"""Exact arithmetic in F_p[x]/(x^Q - 1) and bivariate products over it.

The ring order Q is an arbitrary positive integer (a product of search
primes), so Q-th roots of unity need not exist in the field. Products take
one of two routes, chosen from the operands alone:

* float route: numpy's float64 FFT at the exact length Q, which is already
  cyclic, so nothing is padded or folded. It computes the integer product
  over Z, rounds it and reduces it mod p. It is taken whenever an a-priori
  bound on the rounding error (``_float_limit``) proves that ``np.rint``
  recovers every coefficient exactly, which holds for all the 0/1 monomial
  operands the counting solvers build.
* NTT route: a number-theoretic transform at a padded power-of-two length
  L >= 2Q - 1, with exponents folded mod Q afterwards. It serves operands
  with field-size coefficients, and ``cyclic_convolve`` and the
  ``"schoolbook"`` matrix product always use it, so the test oracle does
  not share code with the float route.

Counts stored in the field stay exact as long as they are below p, which the
solvers assert at entry.

The default modulus is 998244353 = 119 * 2^23 + 1 (primitive root 3). It is
NTT-friendly up to length 2^23 and small enough that a row of eight int64
products can be summed before reduction without overflow, which is what the
vectorised NTT kernels rely on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_PRIME",
    "PrimeField",
    "CyclicPoly",
    "CyclicPolyMatrix",
    "cyclic_convolve",
    "polymat_mul",
    "coefficient",
    "bivariate_convolve",
    "next_pow2",
]

DEFAULT_PRIME = 998244353

# Primes with known small primitive roots; anything else goes through the
# trial-division search below.
_KNOWN_ROOTS = {998244353: 3, 1004535809: 3, 469762049: 3, 167772161: 3}

# Inner chunk for mod-p integer matmuls: 8 * (p-1)^2 < 2^63 for p <= 2^30.
_MATMUL_CHUNK = 8


def next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _find_root(p: int) -> int:
    if p == 2:
        return 1
    factors = _factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"no primitive root found for {p}")


class PrimeField:
    """Arithmetic mod a fixed NTT-friendly prime, with batched transforms."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p > 1 << 30:
            raise ValueError("field modulus must be at most 2^30 for the int64 kernels")
        self.p = p
        self.root = _KNOWN_ROOTS.get(p) or _find_root(p)
        t = p - 1
        self.two_adicity = 0
        while t % 2 == 0:
            t //= 2
            self.two_adicity += 1
        self._bitrev_cache: dict = {}
        self._stage_cache: dict = {}

    def _bitrev(self, L: int) -> np.ndarray:
        rev = self._bitrev_cache.get(L)
        if rev is None:
            bits = L.bit_length() - 1
            idx = np.arange(L)
            rev = np.zeros(L, dtype=np.int64)
            for b in range(bits):
                rev |= ((idx >> b) & 1) << (bits - 1 - b)
            self._bitrev_cache[L] = rev
        return rev

    def _stage_roots(self, ln: int, inverse: bool) -> np.ndarray:
        key = (ln, inverse)
        w = self._stage_cache.get(key)
        if w is None:
            p = self.p
            wn = pow(self.root, (p - 1) // ln, p)
            if inverse:
                wn = pow(wn, p - 2, p)
            half = ln >> 1
            w = np.empty(half, dtype=np.int64)
            cur = 1
            for i in range(half):
                w[i] = cur
                cur = cur * wn % p
            self._stage_cache[key] = w
        return w

    def ntt(self, a: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Length-L transform along the last axis, L a power of two."""
        p = self.p
        L = a.shape[-1]
        if L & (L - 1):
            raise ValueError("transform length must be a power of two")
        if (1 << self.two_adicity) < L:
            raise ValueError(f"no order-{L} root of unity mod {p}")
        a = np.ascontiguousarray(np.asarray(a, dtype=np.int64) % p)
        if L == 1:
            return a
        a = a[..., self._bitrev(L)]
        ln = 2
        while ln <= L:
            half = ln >> 1
            w = self._stage_roots(ln, inverse)
            v = a.reshape(a.shape[:-1] + (L // ln, ln))
            lo = v[..., :half].copy()
            t = v[..., half:] * w % p
            v[..., :half] = (lo + t) % p
            v[..., half:] = (lo - t) % p
            ln <<= 1
        if inverse:
            a = a * pow(L, p - 2, p) % p
        return a

    def mod_matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """(stacked) integer matrix product reduced mod p, overflow-safe."""
        p = self.p
        inner = A.shape[-1]
        out = None
        for c0 in range(0, inner, _MATMUL_CHUNK):
            c1 = min(inner, c0 + _MATMUL_CHUNK)
            part = np.matmul(A[..., :, c0:c1], B[..., c0:c1, :]) % p
            out = part if out is None else out + part
        if out is None:
            shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-2], B.shape[-1])
            return np.zeros(shape, dtype=np.int64)
        return out % p


@dataclass(frozen=True, eq=False)
class CyclicPoly:
    """Element of F_p[x]/(x^Q - 1); coeffs[r] is the coefficient of x^r."""

    Q: int
    coeffs: np.ndarray
    field: PrimeField

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int64) % self.field.p
        if c.shape != (self.Q,):
            raise ValueError(f"need exactly Q={self.Q} coefficients")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def monomial(cls, field: PrimeField, Q: int, exp: int, coeff: int = 1) -> "CyclicPoly":
        c = np.zeros(Q, dtype=np.int64)
        c[exp % Q] = coeff % field.p
        return cls(Q=Q, coeffs=c, field=field)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CyclicPoly)
            and self.Q == other.Q
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )


@dataclass(frozen=True, eq=False)
class CyclicPolyMatrix:
    """Matrix over F_p[x]/(x^Q - 1); coeffs has shape (rows, cols, Q)."""

    Q: int
    coeffs: np.ndarray
    field: PrimeField

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int64) % self.field.p
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
    def from_exponents(cls, field: PrimeField, Q: int, exps: np.ndarray) -> "CyclicPolyMatrix":
        """Monomial matrix with entry x^(exps[i,j] mod Q)."""
        exps = np.asarray(exps, dtype=np.int64) % Q
        r, c = exps.shape
        coeffs = np.zeros((r, c, Q), dtype=np.int64)
        ii, jj = np.meshgrid(np.arange(r), np.arange(c), indexing="ij")
        coeffs[ii.ravel(), jj.ravel(), exps.ravel()] = 1
        return cls(Q=Q, coeffs=coeffs, field=field)

    def entry(self, i: int, j: int) -> CyclicPoly:
        return CyclicPoly(Q=self.Q, coeffs=self.coeffs[i, j].copy(), field=self.field)


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


def _float_route(a: np.ndarray, b: np.ndarray, terms: int, limit: int) -> bool:
    """True when terms * max(a) * max(b) <= limit; coefficients are >= 0."""
    if a.size == 0 or b.size == 0:
        return True
    return terms * int(a.max()) * int(b.max()) <= limit


def _rint_exact(x: np.ndarray) -> np.ndarray:
    """Round a float-route product to int64.

    ``_float_limit`` proves every value lies within 2^-5 of an integer, so
    the check below never fires; it raises rather than return a wrong count.
    """
    out = np.rint(x)
    if out.size and float(np.abs(x - out).max()) > 0.25:
        raise ArithmeticError("float product is not integral despite the a-priori bound")
    return out.astype(np.int64)


def _fold_modQ(flat: np.ndarray, Q: int) -> np.ndarray:
    """Fold degrees [0, 2Q-2] onto [0, Q); input last axis length >= 2Q-1."""
    out = flat[..., :Q].copy()
    hi = flat[..., Q : 2 * Q - 1]
    out[..., : hi.shape[-1]] += hi
    return out


def cyclic_convolve(u: CyclicPoly, v: CyclicPoly) -> CyclicPoly:
    """Product in F_p[x]/(x^Q - 1) via a padded NTT plus exponent folding."""
    if u.Q != v.Q:
        raise ValueError(f"ring orders differ: {u.Q} vs {v.Q}")
    field = u.field
    p = field.p
    Q = u.Q
    if Q == 1:
        return CyclicPoly(Q=1, coeffs=(u.coeffs * v.coeffs) % p, field=field)
    L = next_pow2(2 * Q - 1)
    fu = np.zeros(L, dtype=np.int64)
    fu[:Q] = u.coeffs
    fv = np.zeros(L, dtype=np.int64)
    fv[:Q] = v.coeffs
    prod = field.ntt(field.ntt(fu) * field.ntt(fv) % p, inverse=True)
    out = _fold_modQ(prod, Q) % p
    return CyclicPoly(Q=Q, coeffs=out, field=field)


def polymat_mul(
    Pm: CyclicPolyMatrix, Qm: CyclicPolyMatrix, method: str = "frequency"
) -> CyclicPolyMatrix:
    """Matrix product over the cyclic ring.

    method "frequency" transforms every entry once, runs one matrix product
    per frequency and transforms back. With inner dimension n, if
    ``n * Q * max(Pm) * max(Qm) <= _float_limit(n, Q)`` the transform is
    numpy's float rfft at length Q (one complex matmul per each of the
    Q//2 + 1 frequencies, then irfft and exact rounding). Otherwise it is
    the NTT at a padded power-of-two length, folded mod x^Q - 1 afterwards.
    method "schoolbook" is the direct triple loop over cyclic_convolve (NTT)
    and exists as the comparison oracle.
    """
    if Pm.Q != Qm.Q:
        raise ValueError("ring orders differ")
    if Pm.cols != Qm.rows:
        raise ValueError(f"dimension mismatch: {Pm.cols} vs {Qm.rows}")
    field = Pm.field
    p = field.p
    Q = Pm.Q

    if method == "schoolbook":
        out = np.zeros((Pm.rows, Qm.cols, Q), dtype=np.int64)
        for i in range(Pm.rows):
            for j in range(Qm.cols):
                acc = CyclicPoly(Q=Q, coeffs=np.zeros(Q, dtype=np.int64), field=field)
                for k in range(Pm.cols):
                    term = cyclic_convolve(Pm.entry(i, k), Qm.entry(k, j))
                    acc = CyclicPoly(Q=Q, coeffs=(acc.coeffs + term.coeffs) % p, field=field)
                out[i, j] = acc.coeffs
        return CyclicPolyMatrix(Q=Q, coeffs=out, field=field)
    if method != "frequency":
        raise ValueError(f"unknown method {method!r}")

    inner = Pm.cols
    if _float_route(Pm.coeffs, Qm.coeffs, inner * Q, _float_limit(inner, Q)):
        fa = np.moveaxis(np.fft.rfft(Pm.coeffs, axis=2), 2, 0)
        fb = np.moveaxis(np.fft.rfft(Qm.coeffs, axis=2), 2, 0)
        prod = _rint_exact(np.fft.irfft(np.matmul(fa, fb), n=Q, axis=0))
        return CyclicPolyMatrix(Q=Q, coeffs=np.moveaxis(prod, 0, 2) % p, field=field)

    if Q == 1:
        prod = field.mod_matmul(Pm.coeffs[:, :, 0], Qm.coeffs[:, :, 0])
        return CyclicPolyMatrix(Q=1, coeffs=prod[:, :, None], field=field)

    L = next_pow2(2 * Q - 1)
    fa = np.zeros((Pm.rows, Pm.cols, L), dtype=np.int64)
    fa[:, :, :Q] = Pm.coeffs
    fb = np.zeros((Qm.rows, Qm.cols, L), dtype=np.int64)
    fb[:, :, :Q] = Qm.coeffs
    fa = field.ntt(fa)
    fb = field.ntt(fb)
    # one numeric product per frequency slot
    fa = np.moveaxis(fa, 2, 0)
    fb = np.moveaxis(fb, 2, 0)
    fc = field.mod_matmul(fa, fb)
    fc = np.moveaxis(fc, 0, 2)
    prod = field.ntt(fc, inverse=True)
    out = _fold_modQ(prod, Q) % p
    return CyclicPolyMatrix(Q=Q, coeffs=out, field=field)


def coefficient(Pm: CyclicPolyMatrix, i: int, j: int, r: int) -> int:
    """Coefficient of x^r in entry (i, j), lifted to a plain integer count."""
    if not 0 <= r < Pm.Q:
        raise ValueError(f"exponent {r} out of range for Q={Pm.Q}")
    return int(Pm.coeffs[i, j, r])


def bivariate_convolve(field: PrimeField, P: np.ndarray, R: np.ndarray, Q: int) -> np.ndarray:
    """Product cyclic in x (order Q) and ordinary in y.

    P and R are 2-D coefficient arrays with P[y, x] the coefficient of
    x^x * y^y, x < Q. With ya and yb rows, if
    ``max(ya, yb) * Q * max(P) * max(R) <= _float_limit(1, ya + yb - 1, Q)``
    the product is one float rfft2/irfft2 pair of shape (ya + yb - 1, Q):
    zero-padded, hence linear, in y and cyclic in x. The factor is
    max(ya, yb), not min(ya, yb): the error bound scales with
    ||P||_2 ||R||_2 <= sqrt(ya * yb) * Q * max(P) * max(R).
    Otherwise (x, y) is packed into a single exponent x + Lx * y with
    Lx = next_pow2(2Q - 1), so x-sums (at most 2Q - 2) never carry into the
    y stride, and x is folded mod Q after one univariate NTT product.
    """
    P = np.asarray(P, dtype=np.int64) % field.p
    R = np.asarray(R, dtype=np.int64) % field.p
    if P.ndim != 2 or R.ndim != 2 or P.shape[1] > Q or R.shape[1] > Q:
        raise ValueError("bivariate operands must be (ny, <=Q) arrays")
    ny = P.shape[0] + R.shape[0] - 1
    terms = max(P.shape[0], R.shape[0]) * Q
    if _float_route(P, R, terms, _float_limit(1, ny, Q)):
        s = (ny, Q)
        prod = np.fft.irfft2(np.fft.rfft2(P, s=s) * np.fft.rfft2(R, s=s), s=s)
        return _rint_exact(prod) % field.p
    Lx = next_pow2(2 * Q - 1)
    L = next_pow2(Lx * ny)

    def pack(Mx: np.ndarray) -> np.ndarray:
        buf = np.zeros((Mx.shape[0], Lx), dtype=np.int64)
        buf[:, : Mx.shape[1]] = Mx
        flat = np.zeros(L, dtype=np.int64)
        flat[: buf.size] = buf.ravel()
        return flat

    prod = field.ntt(field.ntt(pack(P)) * field.ntt(pack(R)) % field.p, inverse=True)
    stripes = prod[: Lx * ny].reshape(ny, Lx)
    out = stripes[:, :Q].copy()
    hi = stripes[:, Q : 2 * Q - 1]
    out[:, : hi.shape[1]] = (out[:, : hi.shape[1]] + hi) % field.p
    return out
