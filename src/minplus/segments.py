"""Level-structured interval decompositions of monotone rows and diagonals.

For a matrix triple (A, B, C) the level-l segments of a pair (i, k) are the
maximal column intervals [j0, j1] on which both floor(B[k,j] / 2^l) and
floor(C[i,j] / 2^l) stay constant. The convolution analogue segments each
output diagonal k into maximal runs of i where floor(A[i] / 2^l) and
floor(B[k-i] / 2^l) stay constant. A segment is active when the high parts
(floor by M) disagree at its start and the start discrepancy
delta = A + B - C lands, mod Q, inside the window [-4*2^l, 4*2^l].

Both cases run through one flat engine: every (pair, column) or
(diagonal, index) cell becomes one position in a single concatenated array,
and segment enumeration, refinement and the difference-array aggregations
are vectorised over that layout. A family of segments is a pair of flat
(starts, ends) arrays; the tests check it against per-row linear scans.

Indices are 0-based throughout, including the convolution output slot k
(slot k holds the sum of entries whose index sum is k, i.e. position k+2
in 1-based output numbering).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConvVerificationInstance, VerificationInstance

__all__ = [
    "levelmax_for",
    "matrix_layout",
    "conv_layout",
    "segment_bounds",
    "active_start_mask",
    "refine_bounds",
    "active_level0_bounds",
    "level_start_deltas",
    "sprime_rows_flat",
    "rprime_ik_flat",
    "sprime_conv_flat",
]


def levelmax_for(M: int) -> int:
    """The unique l with M/20 <= 2^l < M/10."""
    if M <= 0 or M % 100:
        raise ValueError("M must be a positive multiple of 100")
    return (M // 20 - 1).bit_length()


@dataclass(frozen=True, eq=False)
class FlatLayout:
    """All (pair, column) or (diagonal, index) cells concatenated.

    v1/v2 drive the segmentation (the two value rows whose floors must stay
    constant), delta and eqhigh evaluate the active predicate, gstarts are
    the per-group offsets, glabel1/glabel2 recover (i, k) or the slot, and
    gbase is the first in-range local index of each group.
    """

    kind: str
    v1: np.ndarray
    v2: np.ndarray
    delta: np.ndarray
    eqhigh: np.ndarray
    gstarts: np.ndarray
    glabel1: np.ndarray
    glabel2: np.ndarray
    gbase: np.ndarray
    dims: tuple

    @property
    def size(self) -> int:
        return int(self.gstarts[-1])


def matrix_layout(inst: VerificationInstance) -> FlatLayout:
    A, B, C, M = inst.A, inst.B, inst.C, inst.M
    na, nb = A.shape
    nc = B.shape[1]
    v1 = np.broadcast_to(B[None, :, :], (na, nb, nc)).reshape(-1)
    v2 = np.broadcast_to(C[:, None, :], (na, nb, nc)).reshape(-1)
    delta = (A[:, :, None] + B[None, :, :] - C[:, None, :]).reshape(-1)
    eqhigh = ((A // M)[:, :, None] + (B // M)[None, :, :] == (C // M)[:, None, :]).reshape(-1)
    G = na * nb
    gstarts = np.arange(G + 1, dtype=np.int64) * nc
    glabel1 = np.repeat(np.arange(na, dtype=np.int64), nb)
    glabel2 = np.tile(np.arange(nb, dtype=np.int64), na)
    return FlatLayout(
        kind="matrix",
        v1=v1,
        v2=v2,
        delta=delta,
        eqhigh=eqhigh,
        gstarts=gstarts,
        glabel1=glabel1,
        glabel2=glabel2,
        gbase=np.zeros(G, dtype=np.int64),
        dims=(na, nb, nc),
    )


def conv_layout(inst: ConvVerificationInstance) -> FlatLayout:
    a, b, c, M = inst.A.values, inst.B.values, inst.C.values, inst.M
    na, nb = len(a), len(b)
    nT = na + nb - 1
    t = np.arange(nT, dtype=np.int64)
    lo = np.maximum(0, t - (nb - 1))
    hi = np.minimum(na - 1, t)
    lens = hi - lo + 1
    gstarts = np.concatenate([[0], np.cumsum(lens)])
    gid = np.repeat(t, lens)
    i_flat = np.arange(gstarts[-1], dtype=np.int64) - np.repeat(gstarts[:-1], lens) + np.repeat(lo, lens)
    b_idx = gid - i_flat
    v1 = a[i_flat]
    v2 = b[b_idx]
    delta = v1 + v2 - c[gid]
    eqhigh = v1 // M + v2 // M == (c // M)[gid]
    return FlatLayout(
        kind="conv",
        v1=v1,
        v2=v2,
        delta=delta,
        eqhigh=eqhigh,
        gstarts=gstarts,
        glabel1=t,
        glabel2=lo,
        gbase=lo,
        dims=(na, nb, nT),
    )


def _boundary_mask(layout: FlatLayout, level: int) -> np.ndarray:
    b1 = layout.v1 >> level
    b2 = layout.v2 >> level
    bd = np.zeros(layout.size, dtype=bool)
    bd[layout.gstarts[:-1]] = True
    bd[1:] |= (b1[1:] != b1[:-1]) | (b2[1:] != b2[:-1])
    return bd


def segment_bounds(layout: FlatLayout, level: int):
    """All level segments as flat (starts, ends), both inclusive-exclusive free."""
    starts = np.flatnonzero(_boundary_mask(layout, level))
    ends = np.append(starts[1:], layout.size) - 1
    return starts, ends


def active_start_mask(layout: FlatLayout, starts: np.ndarray, level: int, Q: int) -> np.ndarray:
    # canonical-residue window test; if Q <= 8*2^l + 1 every residue passes,
    # which is the intended meaning (the window covers the whole ring)
    win = 4 << level
    r = layout.delta[starts] % Q
    return ~layout.eqhigh[starts] & ((r <= win) | (r >= Q - win))


def _next_boundary_table(bd: np.ndarray) -> np.ndarray:
    """nxt[t] = smallest t' > t with bd[t'], or bd.size."""
    n = bd.size
    idx = np.where(bd, np.arange(n, dtype=np.int64), n)
    at_or_after = np.minimum.accumulate(idx[::-1])[::-1]
    return np.append(at_or_after[1:], n)


def refine_bounds(layout: FlatLayout, starts: np.ndarray, ends: np.ndarray, level: int):
    """Children at `level` of the given parent intervals.

    Parents must be disjoint and sorted by start (any family produced by
    segment_bounds or a filtered refinement is). Returns child starts, ends
    and the parent index of each child, sorted by start.
    """
    nxt = _next_boundary_table(_boundary_mask(layout, level))
    pieces = [starts]
    parents = [np.arange(len(starts), dtype=np.int64)]
    cur = nxt[starts]
    par = parents[0]
    while cur.size:
        keep = cur <= ends[par]
        cur, par = cur[keep], par[keep]
        if not cur.size:
            break
        pieces.append(cur)
        parents.append(par)
        cur = nxt[cur]
    child_starts = np.concatenate(pieces)
    child_par = np.concatenate(parents)
    order = np.argsort(child_starts, kind="stable")
    child_starts = child_starts[order]
    child_par = child_par[order]
    nxt_start = np.append(child_starts[1:], layout.size)
    same_par = np.append(child_par[1:] == child_par[:-1], False)
    child_ends = np.where(same_par, nxt_start - 1, ends[child_par])
    return child_starts, child_ends, child_par


def active_level0_bounds(layout: FlatLayout, lmax: int, Q: int):
    """The complete active level-0 family, reached by refining from lmax."""
    starts, ends = segment_bounds(layout, lmax)
    m = active_start_mask(layout, starts, lmax, Q)
    starts, ends = starts[m], ends[m]
    for level in range(lmax - 1, -1, -1):
        starts, ends, _ = refine_bounds(layout, starts, ends, level)
        m = active_start_mask(layout, starts, level, Q)
        starts, ends = starts[m], ends[m]
    return starts, ends


def level_start_deltas(layout: FlatLayout, lmax: int):
    """Per level 0..lmax: (delta, eqhigh) at every segment start.

    This is the raw material of the modulus search counters; the arrays do
    not depend on any Q.
    """
    out = []
    for level in range(lmax + 1):
        starts = np.flatnonzero(_boundary_mask(layout, level))
        out.append((layout.delta[starts], layout.eqhigh[starts]))
    return out


def _groups_of(layout: FlatLayout, starts: np.ndarray) -> np.ndarray:
    return np.searchsorted(layout.gstarts, starts, side="right") - 1


def sprime_rows_flat(layout: FlatLayout, starts: np.ndarray, ends: np.ndarray, Q: int) -> np.ndarray:
    """Accumulate congruent level-0 segments into s' per (i, j)."""
    na, _, nc = layout.dims
    cong = layout.delta[starts] % Q == 0
    s, e = starts[cong], ends[cong]
    g = _groups_of(layout, s)
    i = layout.glabel1[g]
    j0 = s - layout.gstarts[g]
    j1 = e - layout.gstarts[g]
    D = np.zeros((na, nc + 1), dtype=np.int64)
    np.add.at(D, (i, j0), 1)
    np.add.at(D, (i, j1 + 1), -1)
    return np.cumsum(D[:, :-1], axis=1)


def rprime_ik_flat(layout: FlatLayout, starts: np.ndarray, ends: np.ndarray, Q: int) -> np.ndarray:
    """Accumulate congruent level-0 segment lengths into r' per (i, k)."""
    na, nb, _ = layout.dims
    cong = layout.delta[starts] % Q == 0
    s, e = starts[cong], ends[cong]
    g = _groups_of(layout, s)
    out = np.zeros((na, nb), dtype=np.int64)
    np.add.at(out, (layout.glabel1[g], layout.glabel2[g]), e - s + 1)
    return out


def sprime_conv_flat(layout: FlatLayout, starts: np.ndarray, ends: np.ndarray, Q: int) -> np.ndarray:
    """Accumulate congruent level-0 segment lengths into s' per output slot."""
    nT = layout.dims[2]
    cong = layout.delta[starts] % Q == 0
    s, e = starts[cong], ends[cong]
    g = _groups_of(layout, s)
    return np.bincount(layout.glabel1[g], weights=(e - s + 1), minlength=nT).astype(np.int64)
