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
discrepancies (segments.level_start_deltas), whose bins group the starts
that share a delta and a depth, so a step costs O(bins), not O(starts). A
step scores every prime and level in one pass over the bins: each block of
bins is reduced mod every Q_prev * p at once, and W is taken in closed form
at those residues for every level at once (compute_W), so no per-prime
table is built. The end-of-search audit reads the bins the same way, all
levels in one pass. The enumerations count_X_bruteforce and
count_Z_bruteforce are the independent references, through the identity
X = Y - Z.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import ConvVerificationInstance, is_integer
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
    "require_modulus",
    "count_X_bruteforce",
    "count_Z_bruteforce",
    "default_range_parameter",
    "default_slack",
]

BRUTE_CELL_LIMIT = 1 << 16

# Entries per block of a one-pass scoring (levels x primes x bins) or audit
# (levels x bins): a block's int64 W values stay within 128 KB.
SCORE_BLOCK = 1 << 14


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


@functools.lru_cache(maxsize=64)
def primes_in_range(R: int) -> PrimePool:
    """Exact sieve of [ceil(R/2), R]. The pool is frozen, so each R is sieved
    once and its pool shared; a process meets few distinct R."""
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


def compute_W(level, Qp, r) -> np.ndarray:
    """W(r) = #{s in [-w, w] : s = r mod Qp} with w = 4*2^l, at the residues
    r in [0, Qp).

    In closed form W(r) = (w - r)//Qp + (w + r)//Qp + 1. With w = q*Qp + e,
    0 <= e < Qp, that is 2q + 1 + [r >= Qp - e] - [r > e], which is how it
    is evaluated: two compares per residue, and one division of w by each
    Qp. level, Qp and r broadcast against each other.
    """
    Qp = np.asarray(Qp, dtype=np.int64)
    if (Qp < 1).any():
        raise ValueError("modulus must be positive")
    q, e = np.divmod(np.left_shift(4, level, dtype=np.int64), Qp)
    return 2 * q + 1 + (r >= Qp - e) - (r > e)


@dataclass(frozen=True)
class YTable:
    """Y values per (level, prime), for one step of the search."""

    primes: tuple
    Y: np.ndarray  # shape (lmax + 1, len(primes))
    # Phi(p) = max_l (Y_l(p) - Y*_l) per prime, set from Y
    phi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.Y.ndim != 2 or self.Y.shape[1] != len(self.primes):
            raise ValueError("Y must have one column per prime")
        if (self.Y < 0).any():
            raise ValueError("Y counts cannot be negative")
        object.__setattr__(self, "phi", (self.Y - self.ystar[:, None]).max(axis=0))

    @property
    def ystar(self) -> np.ndarray:
        return self.Y.min(axis=1)


def select_prime(table: YTable, pool: PrimePool) -> int:
    """Argmin of Phi(p) = max_l (Y_l(p) - Y*_l); ties go to the smallest prime."""
    if table.primes != pool.primes:
        raise ValueError("table and pool disagree on the prime set")
    return pool.primes[int(np.argmin(table.phi))]


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


def _bin_blocks(deltas: StartDeltas, entries_per_bin: int):
    """(lo, hi) of consecutive blocks of the bins that hold level-0 starts,
    each of at most SCORE_BLOCK // entries_per_bin bins (at least one)."""
    nbins, step = int(deltas.cut[0]), max(1, SCORE_BLOCK // entries_per_bin)
    return ((lo, min(lo + step, nbins)) for lo in range(0, nbins, step))


def _bin_weights(deltas: StartDeltas, lo: int, hi: int, counts: np.ndarray) -> np.ndarray:
    """counts of the bins [lo, hi) per level, zero where the bin holds no
    start of that level; shape (levels, hi - lo)."""
    held = np.arange(lo, hi) < deltas.cut[:, None]
    return np.where(held, counts[lo:hi], 0)


def _counting_columns(deltas: StartDeltas, Q_prev: int, pool: PrimePool) -> YTable:
    """Y per (level, prime) in one pass over the start-delta bins.

    Per block of bins: the deltas mod every Q_prev * p, W at those residues
    for every level and prime, and its sum weighted by the bins' counts
    over the bins that hold each level's starts. A block holds at most
    SCORE_BLOCK (level, prime, bin) entries."""
    Qp = Q_prev * np.array(pool.primes, dtype=np.int64)[:, None]
    levels = np.arange(len(deltas.cut))[:, None, None]
    Y = np.zeros((len(deltas.cut), len(pool.primes), 1), dtype=np.int64)
    for lo, hi in _bin_blocks(deltas, Y.size):
        W = compute_W(levels, Qp, deltas.values[lo:hi] % Qp)
        Y += W @ _bin_weights(deltas, lo, hi, deltas.counts)[:, :, None]
    return YTable(primes=pool.primes, Y=Y[:, :, 0])


def _search_inputs(inst, slack):
    """What the search and its audit read of a verification instance: the
    number of groups of its flat layout, the level-start deltas up to
    levelmax_for(M), the size scale n, the value bound U, and slack
    (default_slack(n) when None). The layout itself is dropped here."""
    if isinstance(inst, ConvVerificationInstance):
        layout = conv_layout(inst)
        n_scale = len(inst.A)
        U = int(max(inst.A.values.max(), inst.B.values.max(), inst.C.values.max(), 1))
    else:
        layout = matrix_layout(inst)
        n_scale = max(*inst.A.shape, inst.B.shape[1])
        U = int(max(inst.A.max(), inst.B.max(), inst.C.max(), 1))
    if slack is None:
        slack = default_slack(n_scale)
    return layout.groups, level_start_deltas(layout, levelmax_for(inst.M)), n_scale, U, slack


def _active_audit(groups: int, deltas: StartDeltas, U: int, Q: int, slack: float):
    """Per-level active-segment counts |S_l(Q)| and the audit bound
    slack * groups * U / Q that each of them must stay within.

    One pass over the bins, every level at once: a start is active at
    level l when its high parts differ and its delta lies within 4*2^l of
    a multiple of Q."""
    wins = np.left_shift(4, np.arange(len(deltas.cut)))[:, None]
    live = np.where(deltas.differ, deltas.counts, 0)
    counts = np.zeros(len(deltas.cut), dtype=np.int64)
    for lo, hi in _bin_blocks(deltas, len(deltas.cut)):
        r = deltas.values[lo:hi] % Q
        near = np.minimum(r, Q - r) <= wins
        counts += (near * _bin_weights(deltas, lo, hi, live)).sum(axis=1)
    return counts.tolist(), slack * groups * U / Q


def find_good_modulus(inst, R: int | None = None, slack: float | None = None):
    """Grow Q = p_1 * ... * p_T until the first crossing of inst.M.

    R and slack default to default_range_parameter(n), default_slack(n).
    Returns (Q, ModulusReport). The report keeps the full Y table of every
    step so the X = Y - Z identity can be audited externally, plus the
    measured per-level active-segment counts at the final Q and the number
    of segment starts per level. The final Q is audited against the slack
    bound: a failed audit only warns (UserWarning), and report.audit_ok
    carries the result.
    """
    M = inst.M
    groups, deltas, n_scale, U, slack = _search_inputs(inst, slack)
    if R is None:
        R = default_range_parameter(n_scale)
    pool = primes_in_range(R)

    Q = 1
    primes, q_values, steps = [], [], []
    while Q < M:
        table = _counting_columns(deltas, Q, pool)
        p = select_prime(table, pool)
        steps.append(SearchStep(Q_prev=Q, table=table, phi=tuple(table.phi.tolist()), chosen=p))
        Q *= p
        primes.append(p)
        q_values.append(Q)

    active_counts, bound = _active_audit(groups, deltas, U, Q, slack)
    audit_bounds = (bound,) * len(deltas.cut)
    audit_ok = all(c <= bound for c in active_counts)
    if not audit_ok:
        warnings.warn(
            f"active-segment audit failed: counts {active_counts} exceed "
            f"slack bound {bound:.1f} at Q={Q}"
        )

    # every level holds the first cell of each group, so no cut is 0
    report = ModulusReport(
        M=M,
        R=R,
        pool=pool,
        primes=tuple(primes),
        q_values=tuple(q_values),
        steps=tuple(steps),
        Q=Q,
        active_counts=tuple(active_counts),
        level_segments=tuple(np.cumsum(deltas.counts)[deltas.cut - 1].tolist()),
        audit_bounds=audit_bounds,
        audit_ok=audit_ok,
        slack=slack,
    )
    return Q, report


def require_modulus(Q, M: int) -> None:
    """Raise ValueError unless Q is an integer above 7M/100.

    Every shifted residue is at most 7M/100 (minplus.shifting), and the
    verification rule reads a congruence mod Q as equality only above that
    bound: below it the verify solvers return wrong masks (at M = 100,
    Q = 1, 2 and 4 gave a wrong mask on every generated instance tried).
    find_good_modulus always returns Q >= M.
    """
    if not is_integer(Q) or 100 * Q <= 7 * M:
        raise ValueError(f"modulus Q={Q!r} must be an integer above 7M/100 = {7 * M / 100:g}")


def audit_modulus(inst, Q: int, slack: float | None = None) -> bool:
    """Check |S_l(Q)| <= slack * groups * U / Q at every level.

    This is the same audit find_good_modulus runs on its own result; callers
    that reuse a Q found on a different instance run it to decide whether a
    fresh search is needed.
    """
    groups, deltas, _, U, slack = _search_inputs(inst, slack)
    counts, bound = _active_audit(groups, deltas, U, Q, slack)
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
