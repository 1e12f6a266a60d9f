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

from .core import (
    ConvVerificationInstance,
    VerificationInstance,
    magnitude_sum,
    narrow_int_dtype,
)

__all__ = [
    "levelmax_for",
    "matrix_layout",
    "conv_layout",
    "level_breaks",
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
    constant): a matrix layout keeps the B rows (nb, nc) and the C rows
    (na, nc) themselves, which every (i, k) group pairs up, and a conv layout
    keeps the a and b value of each cell along its diagonal. delta and
    eqhigh evaluate the active predicate per cell, gstarts are the per-group
    offsets, glabel1/glabel2 recover (i, k) or the slot, and gbase is the
    first in-range local index of each group. Values are stored in the
    narrowest signed dtype that holds M and delta; _start_deltas widens
    the gathered deltas back to int64 before any reduction mod Q.
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


def _narrowed(M: int, *values: np.ndarray) -> list:
    """The values in the narrowest signed dtype that holds M and a signed sum
    of one entry of each (delta and the high-part sums)."""
    dtype = narrow_int_dtype(max(magnitude_sum(*values), M))
    return [x.astype(dtype) for x in values]


def matrix_layout(inst: VerificationInstance) -> FlatLayout:
    M = inst.M
    A, B, C = _narrowed(M, inst.A, inst.B, inst.C)
    na, nb = A.shape
    nc = B.shape[1]
    delta = A[:, :, None] + B[None, :, :]
    delta -= C[:, None, :]
    eqhigh = (A // M)[:, :, None] + (B // M)[None, :, :] == (C // M)[:, None, :]
    G = na * nb
    gstarts = np.arange(G + 1, dtype=np.int64) * nc
    glabel1 = np.repeat(np.arange(na, dtype=np.int64), nb)
    glabel2 = np.tile(np.arange(nb, dtype=np.int64), na)
    return FlatLayout(
        kind="matrix",
        v1=B,
        v2=C,
        delta=delta.reshape(-1),
        eqhigh=eqhigh.reshape(-1),
        gstarts=gstarts,
        glabel1=glabel1,
        glabel2=glabel2,
        gbase=np.zeros(G, dtype=np.int64),
        dims=(na, nb, nc),
    )


def conv_layout(inst: ConvVerificationInstance) -> FlatLayout:
    M = inst.M
    a, b, c = _narrowed(M, inst.A.values, inst.B.values, inst.C.values)
    na, nb = len(a), len(b)
    nT = na + nb - 1
    t = np.arange(nT, dtype=np.int64)
    lo = np.maximum(0, t - (nb - 1))
    hi = np.minimum(na - 1, t)
    lens = hi - lo + 1
    gstarts = np.concatenate([[0], np.cumsum(lens)])
    i_flat = np.arange(gstarts[-1], dtype=np.int64) - np.repeat(gstarts[:-1] - lo, lens)
    v1 = a[i_flat]
    v2 = b[np.repeat(t, lens) - i_flat]
    delta = v1 + v2
    delta -= np.repeat(c, lens)
    eqhigh = v1 // M + v2 // M == np.repeat(c // M, lens)
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


def level_breaks(rows: np.ndarray, level: int) -> np.ndarray:
    """Per-row start indicator: column 0 plus every change of floor(x / 2^level)."""
    ind = np.ones(rows.shape, dtype=bool)
    f = rows >> level
    np.not_equal(f[..., 1:], f[..., :-1], out=ind[..., 1:])
    return ind


def _boundary_mask(layout: FlatLayout, level: int) -> np.ndarray:
    if layout.kind == "matrix":
        # (i, k, j) starts a segment iff j == 0 or the floor of B row k or of
        # C row i changes at j: two per-row tables OR-ed by broadcasting.
        bd = level_breaks(layout.v1, level)[None, :, :] | level_breaks(layout.v2, level)[:, None, :]
        return bd.reshape(-1)
    bd = level_breaks(layout.v1, level) | level_breaks(layout.v2, level)
    bd[layout.gstarts[:-1]] = True
    return bd


def _start_deltas(layout: FlatLayout, starts: np.ndarray) -> np.ndarray:
    """delta at the given cells as int64, ready for a reduction mod any Q."""
    return layout.delta[starts].astype(np.int64)


def segment_bounds(layout: FlatLayout, level: int):
    """All level segments as flat (starts, ends), both inclusive-exclusive free."""
    starts = np.flatnonzero(_boundary_mask(layout, level))
    ends = np.append(starts[1:], layout.size) - 1
    return starts, ends


def active_start_mask(layout: FlatLayout, starts: np.ndarray, level: int, Q: int) -> np.ndarray:
    # canonical-residue window test; if Q <= 8*2^l + 1 every residue passes,
    # which is the intended meaning (the window covers the whole ring)
    win = 4 << level
    r = _start_deltas(layout, starts) % Q
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
        out.append((_start_deltas(layout, starts), layout.eqhigh[starts]))
    return out


def _groups_of(layout: FlatLayout, starts: np.ndarray) -> np.ndarray:
    return np.searchsorted(layout.gstarts, starts, side="right") - 1


def sprime_rows_flat(layout: FlatLayout, starts: np.ndarray, ends: np.ndarray, Q: int) -> np.ndarray:
    """Accumulate congruent level-0 segments into s' per (i, j)."""
    na, _, nc = layout.dims
    cong = _start_deltas(layout, starts) % Q == 0
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
    cong = _start_deltas(layout, starts) % Q == 0
    s, e = starts[cong], ends[cong]
    g = _groups_of(layout, s)
    out = np.zeros((na, nb), dtype=np.int64)
    np.add.at(out, (layout.glabel1[g], layout.glabel2[g]), e - s + 1)
    return out


def sprime_conv_flat(layout: FlatLayout, starts: np.ndarray, ends: np.ndarray, Q: int) -> np.ndarray:
    """Accumulate congruent level-0 segment lengths into s' per output slot."""
    nT = layout.dims[2]
    cong = _start_deltas(layout, starts) % Q == 0
    s, e = starts[cong], ends[cong]
    g = _groups_of(layout, s)
    return np.bincount(layout.glabel1[g], weights=(e - s + 1), minlength=nT).astype(np.int64)
