"""Level-structured interval decompositions of monotone rows and diagonals.

For a matrix triple (A, B, C) the level-l segments of a pair (i, k) are the
maximal column intervals [j0, j1] on which both floor(B[k,j] / 2^l) and
floor(C[i,j] / 2^l) stay constant. The convolution analogue segments each
output diagonal k into maximal runs of i where floor(A[i] / 2^l) and
floor(B[k-i] / 2^l) stay constant. A segment is active when the high parts
(floor by M) disagree at its start and the start discrepancy
delta = A + B - C lands, mod Q, inside the window [-4*2^l, 4*2^l].

Both cases run through one flat engine: every (pair, column) or
(diagonal, index) cell has one position in a single flat index range, and a
family of segments is a pair of flat (starts, ends) arrays; the tests check
them against per-row linear scans. The cells themselves are never
materialised. Breaks nest -- a change of floor(x / 2^l) is a change at every
finer level -- so each cell that starts a segment at level 0 has a depth, the
number of levels 0, 1, ... at which it starts one, and the level-l starts are
the level-0 starts of depth above l. The layout lists the level-0 starts once
with their depths. Segment enumeration, refinement, the active test, the
start-delta multisets of the modulus search and the difference-array
aggregations all read that list, and evaluate delta only at the starts they
are given, from the operands.

Indices are 0-based throughout, including the convolution output slot k
(slot k holds the sum of entries whose index sum is k, i.e. position k+2
in 1-based output numbering).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ConvVerificationInstance, VerificationInstance, as_shift_modulus

__all__ = [
    "levelmax_for",
    "matrix_layout",
    "conv_layout",
    "segment_bounds",
    "active_start_mask",
    "refine_bounds",
    "active_level0_bounds",
    "StartDeltas",
    "level_start_deltas",
    "sprime_rows_flat",
    "rprime_ik_flat",
    "sprime_conv_flat",
]

# Depth of a cell that starts a segment at every level: the first cell of a
# group, and a break across a sign change.
DEPTH_ALL = np.iinfo(np.int8).max

_POWERS_OF_TWO = np.left_shift(1, np.arange(63, dtype=np.int64))

# Cells per block when delta is gathered at a list of starts; the block's
# int64 index and operand temporaries stay near 1 MB.
GATHER_BLOCK = 1 << 14


def levelmax_for(M: int) -> int:
    """The unique l with M/20 <= 2^l < M/10, for an M that as_shift_modulus
    accepts (numpy integers included); any other M is a ValueError."""
    return (as_shift_modulus(M) // 20 - 1).bit_length()


@dataclass(frozen=True, eq=False)
class FlatLayout:
    """All (pair, column) or (diagonal, index) cells as one flat index range.

    A matrix cell (i, k, j) sits at (i*nb + k)*nc + j; conv cell i of
    diagonal t sits at gstarts[t] + i - gbase[t]. x, y, z are the operands
    whose entries meet at a cell, x + y against z: A, B, C for a matrix
    layout and the arrays a, b, c for a conv layout. gstarts are the
    per-group offsets, glabel1/glabel2 recover (i, k) or the slot, and gbase
    is the first in-range local index of each group. starts lists, sorted,
    every cell that starts a level-0 segment, and depth the number of levels
    0, 1, ... at which it starts one (DEPTH_ALL at group starts). No array
    has one entry per cell.
    """

    kind: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    M: int
    starts: np.ndarray
    depth: np.ndarray
    gstarts: np.ndarray
    glabel1: np.ndarray
    glabel2: np.ndarray
    gbase: np.ndarray
    dims: tuple

    @property
    def size(self) -> int:
        return int(self.gstarts[-1])


def _break_depth(rows: np.ndarray) -> np.ndarray:
    """Per-row depth of each column as a segment start.

    depth[..., j] is the number of levels l = 0, 1, ... at which
    floor(x / 2^l) changes from column j-1 to j: the bit length of the two
    entries' xor (how many powers of two are at most it), or DEPTH_ALL
    across a sign change. Column 0 gets DEPTH_ALL.
    """
    rows = np.asarray(rows, dtype=np.int64)
    depth = np.zeros(rows.shape, dtype=np.int8)
    depth[..., :1] = DEPTH_ALL
    diff = rows[..., 1:] ^ rows[..., :-1]
    brk = np.nonzero(diff)
    v = diff[brk]
    bits = np.searchsorted(_POWERS_OF_TWO, v, side="right")
    depth[..., 1:][brk] = np.where(v < 0, DEPTH_ALL, bits)
    return depth


def matrix_layout(inst: VerificationInstance) -> FlatLayout:
    A, B, C = (np.ascontiguousarray(v, dtype=np.int64) for v in (inst.A, inst.B, inst.C))
    na, nb = A.shape
    nc = B.shape[1]
    # (i, k, j) starts a segment where B row k or C row i breaks at j, and
    # column 0 starts one at every level; its depth is the larger of the two
    # row depths.
    depth_BC = _break_depth(np.concatenate([B, C]))
    depth_B, depth_C = depth_BC[:nb], depth_BC[nb:]
    # B row k breaks at j: the cell (i, k, j) of every i
    k_B, j_B = np.nonzero(depth_B)
    pos_B = (np.arange(na, dtype=np.int64) * (nb * nc))[:, None] + (k_B * nc + j_B)[None, :]
    cell_depth_B = np.maximum(depth_B[k_B, j_B][None, :], depth_C[:, j_B])
    # C row i breaks at j >= 1: the cell (i, k, j) of every k whose B row
    # does not break at j (the others are listed above)
    i_C, j_C = np.nonzero(depth_C[:, 1:])
    j_C += 1
    brk, k = np.nonzero(depth_B.T[j_C] == 0)
    pos_C = i_C[brk]
    pos_C *= nb
    pos_C += k
    pos_C *= nc
    pos_C += j_C[brk]
    # each part is freed once merged: the sort below holds two copies
    depth = np.concatenate([cell_depth_B.reshape(-1), depth_C[i_C, j_C][brk]])
    del brk, k, cell_depth_B
    pos = np.concatenate([pos_B.reshape(-1), pos_C])
    del pos_B, pos_C
    order = np.argsort(pos, kind="stable")  # the parts are sorted runs
    G = na * nb
    glabel1, glabel2 = np.divmod(np.arange(G, dtype=np.int64), nb)
    return FlatLayout(
        kind="matrix",
        x=A,
        y=B,
        z=C,
        M=inst.M,
        starts=pos[order],
        depth=depth[order],
        gstarts=np.arange(G + 1, dtype=np.int64) * nc,
        glabel1=glabel1,
        glabel2=glabel2,
        gbase=np.zeros(G, dtype=np.int64),
        dims=(na, nb, nc),
    )


def _matrix_entries(cells: np.ndarray, nb: int, nc: int):
    """Flat indices into A, B and C of the entries A[i,k], B[k,j], C[i,j]
    that meet at the flat matrix cells (i, k, j)."""
    in_A = cells // nc
    i = in_A // nb
    return in_A, cells - i * (nb * nc), i * nc + (cells - in_A * nc)


def conv_layout(inst: ConvVerificationInstance) -> FlatLayout:
    a, b, c = inst.A.values, inst.B.values, inst.C.values
    na, nb = len(a), len(b)
    nT = na + nb - 1
    t = np.arange(nT, dtype=np.int64)
    lo = np.maximum(0, t - (nb - 1))
    lens = np.minimum(na - 1, t) - lo + 1
    gstarts = np.concatenate([[0], np.cumsum(lens)])
    off = gstarts[:-1] - lo  # cell i of diagonal t sits at off[t] + i
    # Past its first cell, diagonal t starts a segment at i where a breaks
    # between i-1 and i or b between t-i and t-i+1: depth max(da[i], db[t-i+1]).
    dab = _break_depth(np.concatenate([a, b]))
    dab[na] = DEPTH_ALL  # b[0] follows no entry of b
    da, db = dab[:na], dab[na:]
    a_rows = da[1:].nonzero()[0] + 1
    quiet_rows = (da[1:] == 0).nonzero()[0] + 1
    b_cols = db[1:].nonzero()[0]
    # a breaks at i: the cell i of every diagonal t in [i, i + nb - 2]
    pos_a = off[a_rows[:, None] + np.arange(nb - 1)]
    pos_a += a_rows[:, None]
    depth_a = np.maximum(da[a_rows][:, None], db[None, 1:])
    # b breaks between j and j+1: the cell i = t - j of every row i >= 1
    # where a does not break (the rows where it does are listed above)
    pos_b = off[quiet_rows[None, :] + b_cols[:, None]]
    pos_b += quiet_rows[None, :]
    depth_b = np.repeat(db[b_cols + 1], len(quiet_rows))
    pos = np.concatenate([gstarts[:-1], pos_a.reshape(-1), pos_b.reshape(-1)])
    depth = np.concatenate([np.full(nT, DEPTH_ALL, dtype=np.int8), depth_a.reshape(-1), depth_b])
    del pos_a, pos_b, depth_a, depth_b  # freed before the sort, which holds two copies
    order = np.argsort(pos, kind="stable")  # the parts are sorted runs
    return FlatLayout(
        kind="conv",
        x=a,
        y=b,
        z=c,
        M=inst.M,
        starts=pos[order],
        depth=depth[order],
        gstarts=gstarts,
        glabel1=t,
        glabel2=lo,
        gbase=lo,
        dims=(na, nb, nT),
    )


def _operands_at(layout: FlatLayout, cells: np.ndarray):
    """The entries x, y, z that meet at the given flat cells."""
    if layout.kind == "matrix":
        in_A, in_B, in_C = _matrix_entries(cells, *layout.dims[1:])
        return layout.x.reshape(-1)[in_A], layout.y.reshape(-1)[in_B], layout.z.reshape(-1)[in_C]
    t = _groups_of(layout, cells)
    i = cells - (layout.gstarts[:-1] - layout.gbase)[t]
    return layout.x[i], layout.y[t - i], layout.z[t]


def _start_terms(layout: FlatLayout, cells: np.ndarray):
    """delta = x + y - z (int64, ready for a reduction mod any Q) and whether
    the high parts x//M + y//M and z//M differ, at the given flat cells.
    Gathered GATHER_BLOCK cells at a time, so the temporaries do not grow
    with the number of cells."""
    delta = np.empty(cells.size, dtype=np.int64)
    differ = np.empty(cells.size, dtype=bool)
    M = layout.M
    for lo in range(0, cells.size, GATHER_BLOCK):
        sl = slice(lo, lo + GATHER_BLOCK)
        x, y, z = _operands_at(layout, cells[sl])
        delta[sl] = x + y - z
        differ[sl] = x // M + y // M != z // M
    return delta, differ


def _level_starts(layout: FlatLayout, level: int) -> np.ndarray:
    return layout.starts[layout.depth > level]


def segment_bounds(layout: FlatLayout, level: int):
    """All level segments as flat (starts, ends), both inclusive."""
    starts = _level_starts(layout, level)
    ends = np.append(starts[1:], layout.size) - 1
    return starts, ends


def active_start_mask(layout: FlatLayout, starts: np.ndarray, level: int, Q: int) -> np.ndarray:
    # canonical-residue window test; if Q <= 8*2^l + 1 every residue passes,
    # which is the intended meaning (the window covers the whole ring)
    win = 4 << level
    delta, differ = _start_terms(layout, starts)
    r = delta % Q
    return differ & ((r <= win) | (r >= Q - win))


def refine_bounds(layout: FlatLayout, starts: np.ndarray, ends: np.ndarray, level: int):
    """Children at `level` of the given parent intervals.

    Parents must be disjoint and sorted by start (any family produced by
    segment_bounds or a filtered refinement is). A parent's children start
    at its own start and at every level start inside it. Returns child
    starts, ends and the parent index of each child, sorted by start.
    """
    level_starts = _level_starts(layout, level)
    first = np.searchsorted(level_starts, starts, side="right")
    inner = np.searchsorted(level_starts, ends, side="right") - first
    per_parent = inner + 1
    child_par = np.repeat(np.arange(len(starts), dtype=np.int64), per_parent)
    # rank of each child within its parent; rank 0 is the parent's own start
    rank = np.arange(len(child_par), dtype=np.int64)
    rank -= np.repeat(np.cumsum(per_parent) - per_parent, per_parent)
    child_starts = np.repeat(starts, per_parent)
    later = rank > 0
    child_starts[later] = level_starts[first[child_par[later]] + rank[later] - 1]
    nxt_start = np.append(child_starts[1:], layout.size)
    same_par = np.append(child_par[1:] == child_par[:-1], False)
    child_ends = np.where(same_par, nxt_start - 1, ends[child_par])
    return child_starts, child_ends, child_par


def active_level0_bounds(layout: FlatLayout, lmax: int, Q: int):
    """The complete active level-0 family, reached by refining from lmax.

    Each level keeps the children of the previous level's active segments
    whose own start is active. An empty family refines to an empty family,
    so the refinement stops at the first level that leaves no segment
    active; with a searched Q that is most levels of most instances.
    """
    starts, ends = segment_bounds(layout, lmax)
    m = active_start_mask(layout, starts, lmax, Q)
    starts, ends = starts[m], ends[m]
    for level in range(lmax - 1, -1, -1):
        if not starts.size:
            break
        starts, ends, _ = refine_bounds(layout, starts, ends, level)
        m = active_start_mask(layout, starts, level, Q)
        starts, ends = starts[m], ends[m]
    return starts, ends


class StartDeltas(NamedTuple):
    """The segment-start discrepancies of levels 0..lmax, as weighted bins.

    A bin is one class of level-0 starts with the same delta, the same depth
    (capped at lmax + 1) and the same high-part test: values[b] is its
    delta, counts[b] how many starts it holds and differ[b] whether their
    high parts disagree. Bins are ordered deepest first, so the level-l
    starts fill exactly the first cut[l] bins. There is one bin per class
    that occurs, never one per (delta, level) pair.
    """

    values: np.ndarray
    counts: np.ndarray
    differ: np.ndarray
    cut: np.ndarray


def _run_heads(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from their predecessor."""
    head = np.empty(a.size, dtype=bool)
    head[:1] = True
    np.not_equal(a[1:], a[:-1], out=head[1:])
    return head


def level_start_deltas(layout: FlatLayout, lmax: int) -> StartDeltas:
    """The per-level start-delta multisets the modulus search counters read.

    One pass over the level-0 starts; the result does not depend on any Q.
    Besides the layout it holds at most about five int64 per start, when
    every start has its own delta, and far less when deltas repeat.
    """
    starts = layout.starts
    cap = lmax + 1
    delta, differ = _start_terms(layout, starts)
    distinct = np.sort(delta)
    distinct = distinct[_run_heads(distinct)]
    nd = len(distinct)
    # one key per start, (cap - capped depth, delta rank, differ), written
    # over delta: sorting the keys puts the deepest starts first
    key = delta
    for lo in range(0, starts.size, GATHER_BLOCK):
        sl = slice(lo, lo + GATHER_BLOCK)
        shallow = cap - np.minimum(layout.depth[sl], cap).astype(np.int64)
        key[sl] = (shallow * nd + np.searchsorted(distinct, key[sl])) * 2 + differ[sl]
    del delta, differ
    key.sort()
    first = _run_heads(key).nonzero()[0]
    bins = key[first]
    del key
    counts = np.empty(first.size, dtype=np.int64)
    np.subtract(first[1:], first[:-1], out=counts[:-1])
    counts[-1:] = starts.size - first[-1:]
    del first
    differ = (bins & 1).astype(bool)
    bins >>= 1
    # bins now hold shallow * nd + rank; level l holds the shallow < cap - l
    cut = np.searchsorted(bins, (cap - np.arange(cap)) * nd)
    np.remainder(bins, nd, out=bins)
    return StartDeltas(values=distinct[bins], counts=counts, differ=differ, cut=cut)


def _groups_of(layout: FlatLayout, starts: np.ndarray) -> np.ndarray:
    return np.searchsorted(layout.gstarts, starts, side="right") - 1


def _congruent(layout: FlatLayout, starts: np.ndarray, ends: np.ndarray, Q: int):
    """The given segments whose start delta is 0 mod Q, with their groups."""
    cong = _start_terms(layout, starts)[0] % Q == 0
    s, e = starts[cong], ends[cong]
    return s, e, _groups_of(layout, s)


def sprime_rows_flat(layout: FlatLayout, starts: np.ndarray, ends: np.ndarray, Q: int) -> np.ndarray:
    """Accumulate congruent level-0 segments into s' per (i, j)."""
    na, _, nc = layout.dims
    s, e, g = _congruent(layout, starts, ends, Q)
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
    s, e, g = _congruent(layout, starts, ends, Q)
    out = np.zeros((na, nb), dtype=np.int64)
    np.add.at(out, (layout.glabel1[g], layout.glabel2[g]), e - s + 1)
    return out


def sprime_conv_flat(layout: FlatLayout, starts: np.ndarray, ends: np.ndarray, Q: int) -> np.ndarray:
    """Accumulate congruent level-0 segment lengths into s' per output slot."""
    nT = layout.dims[2]
    s, e, g = _congruent(layout, starts, ends, Q)
    return np.bincount(layout.glabel1[g], weights=(e - s + 1), minlength=nT).astype(np.int64)
