"""Deterministic search for a good verification modulus Q.

Q is grown as a product of primes from the pool [R/2, R]. At each step the
candidate prime is scored by the level-wise counters

    Y_l(Q') = sum over all level-l segment starts of
              #{ s in [-4*2^l, 4*2^l] : Q' divides (delta_start - s) }

and the prime minimising max_l (Y_l(p) - min_p Y_l(p)) is appended. The
quantity the argument actually controls is X_l = Y_l - Z_l where Z_l counts
the starts with delta inside the window exactly; Z_l does not depend on Q,
so minimising Y minimises X. The search stops at the first Q >= M.

Y is evaluated directly from the per-level multisets of start
discrepancies (segments.level_start_deltas), one W lookup per bin of starts
that share a delta and a depth, so a prime costs O(bins), not O(starts).
The enumerations count_X_bruteforce and count_Z_bruteforce are its
independent references, through the identity X = Y - Z.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConvVerificationInstance
from .segments import (
    StartDeltas,
    conv_layout,
    level_start_deltas,
    levelmax_for,
    matrix_layout,
)

__all__ = [
    "PrimePool",
    "YTable",
    "SearchStep",
    "ModulusReport",
    "primes_in_range",
    "compute_W",
    "select_prime",
    "find_good_modulus",
    "count_X_bruteforce",
    "count_Z_bruteforce",
    "default_range_parameter",
    "default_slack",
]

BRUTE_CELL_LIMIT = 1 << 16


@dataclass(frozen=True)
class PrimePool:
    R: int
    primes: tuple

    def __post_init__(self):
        if not self.primes:
            raise ValueError("prime pool is empty")
        lo = -(self.R // -2)
        for p in self.primes:
            if not (lo <= p <= self.R):
                raise ValueError(f"prime {p} outside [{lo}, {self.R}]")


def primes_in_range(R: int) -> PrimePool:
    """Exact sieve of [ceil(R/2), R]."""
    if R < 4:
        raise ValueError("range parameter must be at least 4")
    sieve = np.ones(R + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(math.isqrt(R)) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    lo = -(R // -2)
    primes = tuple(int(p) for p in np.flatnonzero(sieve) if p >= lo)
    if not primes:
        raise ValueError(f"no primes in [{lo}, {R}]")
    return PrimePool(R=R, primes=primes)


def compute_W(level: int, Qp: int) -> np.ndarray:
    """W(r) = #{s in [-4*2^l, 4*2^l] : s = r mod Qp}, for r in [0, Qp)."""
    if Qp < 1:
        raise ValueError("modulus must be positive")
    w = 4 << level
    return np.bincount(np.arange(-w, w + 1) % Qp, minlength=Qp)


@dataclass(frozen=True)
class YTable:
    """Y values per (level, prime), for one step of the search."""

    primes: tuple
    Y: np.ndarray  # shape (lmax + 1, len(primes))

    def __post_init__(self):
        if self.Y.ndim != 2 or self.Y.shape[1] != len(self.primes):
            raise ValueError("Y must have one column per prime")
        if (self.Y < 0).any():
            raise ValueError("Y counts cannot be negative")

    @property
    def ystar(self) -> np.ndarray:
        return self.Y.min(axis=1)


def select_prime(table: YTable, pool: PrimePool) -> int:
    """Argmin of Phi(p) = max_l (Y_l(p) - Y*_l); ties go to the smallest prime."""
    if table.primes != pool.primes:
        raise ValueError("table and pool disagree on the prime set")
    phi = (table.Y - table.ystar[:, None]).max(axis=0)
    return pool.primes[int(np.argmin(phi))]


def default_range_parameter(n: int) -> int:
    return max(16, math.ceil(2 ** math.sqrt(math.log2(max(n, 2)))))


def default_slack(n: int) -> float:
    return 64.0 * (1.0 + math.log2(max(n, 2))) ** 2


@dataclass(frozen=True)
class SearchStep:
    Q_prev: int
    table: YTable
    phi: tuple
    chosen: int


@dataclass(frozen=True)
class ModulusReport:
    M: int
    R: int
    pool: PrimePool
    primes: tuple
    q_values: tuple
    steps: tuple
    Q: int
    active_counts: tuple
    level_segments: tuple
    audit_bounds: tuple
    audit_ok: bool
    slack: float

    def __post_init__(self):
        q = 1
        for p in self.primes:
            q *= p
        if q != self.Q:
            raise ValueError("Q is not the product of the chosen primes")
        if not (self.M <= self.Q <= self.M * self.R):
            raise ValueError("Q outside [M, M*R]")
        if self.primes and self.Q // self.primes[-1] >= self.M:
            raise ValueError("first-crossing rule violated")

    def to_dict(self) -> dict:
        """The search's choices and audit, as `minplus run` digests them.
        level_segments, a property of the instance alone, is left out."""
        return {
            "M": self.M,
            "R": self.R,
            "pool": list(self.pool.primes),
            "primes": list(self.primes),
            "q_values": list(self.q_values),
            "Q": self.Q,
            "phi_per_step": [list(s.phi) for s in self.steps],
            "active_counts": list(self.active_counts),
            "audit_bounds": list(self.audit_bounds),
            "audit_ok": self.audit_ok,
            "slack": self.slack,
        }


def _counting_columns(deltas: StartDeltas, Q_prev: int, pool: PrimePool) -> YTable:
    """Y per (level, prime) from the start-delta bins: one W lookup per bin,
    weighted by its count, over the bins that hold the level's starts."""
    cols = []
    for p in pool.primes:
        Qp = Q_prev * p
        r = deltas.values % Qp
        cols.append([
            int(deltas.counts[:c] @ compute_W(level, Qp)[r[:c]])
            for level, c in enumerate(deltas.cut)
        ])
    return YTable(primes=pool.primes, Y=np.array(cols, dtype=np.int64).T)


def _instance_scale(inst):
    """Flat layout, size scale n and value bound U of a verification instance."""
    if isinstance(inst, ConvVerificationInstance):
        layout = conv_layout(inst)
        n_scale = max(len(inst.A.values), len(inst.B.values))
        U = int(max(inst.A.values.max(), inst.B.values.max(), inst.C.values.max(), 1))
    else:
        layout = matrix_layout(inst)
        n_scale = max(*inst.A.shape, inst.B.shape[1])
        U = int(max(inst.A.max(), inst.B.max(), inst.C.max(), 1))
    return layout, n_scale, U


def _active_audit(layout, deltas: StartDeltas, U: int, Q: int, slack: float):
    """Per-level active-segment counts |S_l(Q)| and the audit bound
    slack * groups * U / Q that each of them must stay within."""
    r = deltas.values % Q
    counts = []
    for level, c in enumerate(deltas.cut):
        win = 4 << level
        hit = deltas.differ[:c] & ((r[:c] <= win) | (r[:c] >= Q - win))
        counts.append(int(deltas.counts[:c][hit].sum()))
    groups = len(layout.gstarts) - 1
    return counts, slack * groups * U / Q


def find_good_modulus(inst, M: int, R: int | None = None, slack: float | None = None,
                      test_mode: bool = False):
    """Grow Q = p_1 * ... * p_T until the first crossing of M.

    Returns (Q, ModulusReport). The report keeps the full Y table of every
    step so the X = Y - Z identity can be audited externally, plus the
    measured per-level active-segment counts at the final Q and the number
    of segment starts per level.
    """
    if M <= 0 or M % 100:
        raise ValueError("M must be a positive multiple of 100")
    layout, n_scale, U = _instance_scale(inst)

    if R is None:
        R = default_range_parameter(n_scale)
    pool = primes_in_range(R)
    while len(pool.primes) < 2:
        R += 1
        pool = primes_in_range(R)
    if slack is None:
        slack = default_slack(n_scale)

    lmax = levelmax_for(M)
    deltas = level_start_deltas(layout, lmax)

    Q = 1
    primes, q_values, steps = [], [], []
    while Q < M:
        table = _counting_columns(deltas, Q, pool)
        phi = tuple(int(v) for v in (table.Y - table.ystar[:, None]).max(axis=0))
        p = select_prime(table, pool)
        steps.append(SearchStep(Q_prev=Q, table=table, phi=phi, chosen=p))
        Q *= p
        primes.append(p)
        q_values.append(Q)

    active_counts, bound = _active_audit(layout, deltas, U, Q, slack)
    audit_bounds = (bound,) * (lmax + 1)
    audit_ok = all(c <= bound for c in active_counts)
    if not audit_ok:
        msg = (
            f"active-segment audit failed: counts {active_counts} exceed "
            f"slack bound {bound:.1f} at Q={Q}"
        )
        if test_mode:
            raise AssertionError(msg)
        warnings.warn(msg)

    report = ModulusReport(
        M=M,
        R=R,
        pool=pool,
        primes=tuple(primes),
        q_values=tuple(q_values),
        steps=tuple(steps),
        Q=Q,
        active_counts=tuple(active_counts),
        level_segments=tuple(int(deltas.counts[:c].sum()) for c in deltas.cut),
        audit_bounds=audit_bounds,
        audit_ok=audit_ok,
        slack=slack,
    )
    return Q, report


def audit_modulus(inst, Q: int, slack: float | None = None) -> bool:
    """Check |S_l(Q)| <= slack * groups * U / Q at every level.

    This is the same audit find_good_modulus runs on its own result; callers
    that reuse a Q found on a different instance run it to decide whether a
    fresh search is needed.
    """
    layout, n_scale, U = _instance_scale(inst)
    if slack is None:
        slack = default_slack(n_scale)
    deltas = level_start_deltas(layout, levelmax_for(inst.M))
    counts, bound = _active_audit(layout, deltas, U, Q, slack)
    return all(c <= bound for c in counts)


# --- brute-force oracles ------------------------------------------------------

def _scan_segments_matrix(inst, level):
    """Per-(i,k) linear scan; independent of the flat engine."""
    A, B, C = inst.A, inst.B, inst.C
    out = []
    for i in range(A.shape[0]):
        for k in range(A.shape[1]):
            brow = B[k] >> level
            crow = C[i] >> level
            s = 0
            for j in range(1, len(brow) + 1):
                if j == len(brow) or brow[j] != brow[s] or crow[j] != crow[s]:
                    out.append(int(A[i, k] + B[k, s] - C[i, s]))
                    s = j
    return np.array(out, dtype=np.int64)


def _scan_segments_conv(inst, level):
    a, b, c = inst.A.values, inst.B.values, inst.C.values
    na, nb = len(a), len(b)
    out = []
    for k in range(na + nb - 1):
        lo, hi = max(0, k - (nb - 1)), min(na - 1, k)
        s = lo
        for i in range(lo + 1, hi + 2):
            if (
                i == hi + 1
                or (a[i] >> level) != (a[s] >> level)
                or (b[k - i] >> level) != (b[k - s] >> level)
            ):
                out.append(int(a[s] + b[k - s] - c[k]))
                s = i
    return np.array(out, dtype=np.int64)


def _guarded_deltas(inst, level: int, limit: int):
    if isinstance(inst, ConvVerificationInstance):
        cells = len(inst.A.values) * len(inst.B.values)
        scan = _scan_segments_conv
    else:
        cells = inst.A.shape[0] * inst.A.shape[1] * inst.B.shape[1]
        scan = _scan_segments_matrix
    if cells > limit:
        raise ValueError(f"instance too large for brute-force counting ({cells} cells)")
    return scan(inst, level)


def count_X_bruteforce(inst, Q: int, level: int, limit: int = BRUTE_CELL_LIMIT) -> int:
    """#{(segment, s) : Q divides delta - s, delta != s}, enumerated directly."""
    deltas = _guarded_deltas(inst, level, limit)
    w = 4 << level
    s = np.arange(-w, w + 1)
    diff = deltas[:, None] - s[None, :]
    return int(((diff % Q == 0) & (diff != 0)).sum())


def count_Z_bruteforce(inst, level: int, limit: int = BRUTE_CELL_LIMIT) -> int:
    """#{segments : delta lies inside the window}; independent of Q."""
    deltas = _guarded_deltas(inst, level, limit)
    return int((np.abs(deltas) <= (4 << level)).sum())
