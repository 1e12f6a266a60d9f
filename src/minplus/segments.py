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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import ConvVerificationInstance, PromiseViolationError, VerificationInstance, as_shift_modulus

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

# Bits under a start's flat position that carry its depth while the layout
# sorts its starts; a layout is limited to 2^(63 - DEPTH_BITS) cells.
DEPTH_BITS = 7

# Cells per block wherever a list of cells is walked: the start gather,
# the layout's fill and break depths, the run lengths of the bins. A block
# of the gather holds four int64 per cell (128 KB), and the other walks
# less. The model of one modulus search, which the tests hold it to: it
# peaks at most at the operands, 27 bytes per level-0 start, 32 bytes per
# cell of one block (GATHER_BLOCK cells, or all the starts when fewer) and
# 16 KiB. Per start that is the layout's 9 and, where deltas repeat, the
# binning's int64 key and order (25 in all), or, when every start has its
# own delta, 17 bytes of bins; at the det workloads' shapes the starts
# number one to three blocks, so the block is a third to a half of it.
GATHER_BLOCK = 1 << 12


def levelmax_for(M: int) -> int:
    """The unique l with M/20 <= 2^l < M/10, for an M that as_shift_modulus
    accepts (numpy integers included); any other M is a ValueError."""
    return (as_shift_modulus(M) // 20 - 1).bit_length()


@dataclass(frozen=True, eq=False)
class FlatLayout:
    """All (pair, column) or (diagonal, index) cells as one flat index range.

    A matrix cell (i, k, j) sits at (i*nb + k)*nc + j; conv cell (i, j)
    sits after the cells of the diagonals before t = i + j, at
    i - max(0, t - nb + 1) within its own (_diagonals). x, y, z are the
    operands whose entries meet at a cell, x + y against z: A, B, C for a
    matrix layout and the arrays a, b, c for a conv layout. starts lists, sorted,
    every cell that starts a level-0 segment, and depth the number of levels
    0, 1, ... at which it starts one (DEPTH_ALL at group starts). A cell's
    group, the pair i*nb + k or the diagonal, follows from dims
    (_groups_of). No array has one entry per cell, or one per group.
    """

    kind: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    M: int
    starts: np.ndarray
    depth: np.ndarray
    dims: tuple

    @property
    def size(self) -> int:
        na, nb, nc = self.dims
        return na * nb * nc if self.kind == "matrix" else na * nb

    @property
    def groups(self) -> int:
        na, nb, nc = self.dims
        return na * nb if self.kind == "matrix" else nc


def _break_depth(rows: np.ndarray) -> np.ndarray:
    """Per-row depth of each column as a segment start.

    depth[..., j] is the number of levels l = 0, 1, ... at which
    floor(x / 2^l) changes from column j-1 to j: the bit length of the two
    entries' xor, or DEPTH_ALL across a sign change. Column 0 gets
    DEPTH_ALL. The bit length is frexp's exponent of the xor as a float,
    with the xor's low ten bits cleared when it has more (which keeps its
    bit length, and below 2^62 leaves a value a float holds exactly).
    Walked in blocks of GATHER_BLOCK entries.
    """
    flat = np.ascontiguousarray(rows, dtype=np.int64).reshape(-1)
    depth = np.empty(flat.size, dtype=np.int8)
    for lo in range(1, flat.size, GATHER_BLOCK):
        hi = min(lo + GATHER_BLOCK, flat.size)
        diff = flat[lo:hi] ^ flat[lo - 1 : hi - 1]
        bits = np.frexp(np.maximum(diff & -1024, diff & 1023).astype(np.float64))[1]
        bits[diff < 0] = DEPTH_ALL
        depth[lo:hi] = bits
    depth = depth.reshape(np.shape(rows))
    depth[..., :1] = DEPTH_ALL
    return depth


def _weighted_blocks(cum: np.ndarray) -> list:
    """(lo, hi) of consecutive item ranges, each of about GATHER_BLOCK
    weight (a heavier item is a range of its own), given the running sums
    of the items' weights."""
    total = int(cum[-1]) if cum.size else 0
    cuts = cum.searchsorted(np.arange(GATHER_BLOCK, total, GATHER_BLOCK), side="right")
    edges = [0, *cuts.tolist(), cum.size]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]


def _unpacked_layout(size: int, packed: np.ndarray, **fields) -> FlatLayout:
    """The layout whose starts are listed in packed as position << DEPTH_BITS
    | depth: sorted in place (its parts are sorted runs), with no second
    copy and no permutation, then split into starts and depths."""
    if size >= 1 << (63 - DEPTH_BITS):
        raise ValueError(f"{size} cells are too many for one flat layout")
    packed.sort(kind="stable")
    depth = np.empty(packed.size, dtype=np.int8)
    np.bitwise_and(packed, DEPTH_ALL, out=depth, casting="unsafe")
    packed >>= DEPTH_BITS
    return FlatLayout(starts=packed, depth=depth, **fields)


def matrix_layout(inst: VerificationInstance) -> FlatLayout:
    A, B, C = (np.ascontiguousarray(v, dtype=np.int64) for v in (inst.A, inst.B, inst.C))
    na, nb = A.shape
    nc = B.shape[1]
    # (i, k, j) starts a segment where B row k or C row i breaks at j, and
    # column 0 starts one at every level; its depth is the larger of the two
    # row depths. A break of B row k at j is a start of every pair (i, k); a
    # break of C row i at j one of every pair (i, k) whose B row is quiet
    # at j (does not break there). Flat indices: k*nc + j into B, i*nc + j
    # into C.
    depth_BC = _break_depth(np.concatenate([B, C]))
    depth_B, depth_C = depth_BC[:nb].reshape(-1), depth_BC[nb:].reshape(-1)
    at_B, at_C = depth_B.nonzero()[0], depth_C.nonzero()[0]
    quiet = (depth_BC[:nb].T == 0).reshape(-1).nonzero()[0]  # j*nb + k, column by column
    j_q = quiet // nb
    quiet -= j_q * nb
    quiet *= nc
    quiet += j_q
    quiet <<= DEPTH_BITS  # k*nc + j, packed
    first = j_q.searchsorted(np.arange(nc + 1))  # column j's quiet pairs: quiet[first[j] : first[j + 1]]
    del j_q
    j_C = at_C % nc
    per_C = first[j_C + 1] - first[j_C]
    slots = per_C.cumsum()
    # slot s of break t reads quiet[s + shift[t]] and adds base[t], i*nb*nc packed with the depth
    shift = first[j_C] - (slots - per_C)
    base = (at_C - j_C) * (nb << DEPTH_BITS)
    base |= depth_C[at_C]
    del at_C, j_C, first
    n_B = na * at_B.size
    packed = np.empty(n_B + (int(slots[-1]) if slots.size else 0), dtype=np.int64)
    cells = packed[:n_B].reshape(na, -1)
    np.add(np.arange(0, na * nb * nc, nb * nc)[:, None], at_B, out=cells)
    cells <<= DEPTH_BITS
    cells |= np.maximum(depth_B[at_B], depth_C.reshape(na, nc)[:, at_B % nc])
    for lo, hi in _weighted_blocks(slots):
        s0, s1 = int(slots[lo] - per_C[lo]), int(slots[hi - 1])
        cells = packed[n_B + s0 : n_B + s1]
        quiet.take(np.arange(s0, s1) + shift[lo:hi].repeat(per_C[lo:hi]), out=cells)
        cells += base[lo:hi].repeat(per_C[lo:hi])
    return _unpacked_layout(na * nb * nc, packed, kind="matrix", x=A, y=B, z=C, M=inst.M, dims=(na, nb, nc))


@lru_cache(maxsize=8)
def _diagonals(na: int, nb: int):
    """(gstarts, off) of the diagonals of an na x nb convolution: diagonal t
    holds the cells i = max(0, t - nb + 1) ... from gstarts[t] on, cell i at
    off[t] + i. Shared, so read-only; the levels of one solve share n."""
    t = np.arange(na + nb - 1, dtype=np.int64)
    first = np.maximum(0, t - (nb - 1))
    gstarts = np.zeros(len(t) + 1, dtype=np.int64)
    np.cumsum(np.minimum(na - 1, t) - first + 1, out=gstarts[1:])
    off = gstarts[:-1] - first
    for v in (gstarts, off):
        v.flags.writeable = False
    return gstarts, off


def conv_layout(inst: ConvVerificationInstance) -> FlatLayout:
    a, b, c = inst.A.values, inst.B.values, inst.C.values
    na, nb = len(a), len(b)
    off = _diagonals(na, nb)[1] << DEPTH_BITS  # cell (i, j) of diagonal i + j sits at off[i + j] + i, packed
    # Cell (i, j) follows (i - 1, j + 1) on its diagonal: it starts a segment
    # where a breaks at i or b between j and j + 1, at the larger depth. The
    # first cell of a diagonal (i = 0 or j = nb - 1) starts one at every level.
    dab = _break_depth(np.concatenate([a, b]))
    da, db = dab[:na], np.concatenate([dab[na + 1 :], np.int8([DEPTH_ALL])])  # db[j]: b between j and j + 1
    rows, quiet, cols = da.nonzero()[0], (da == 0).nonzero()[0], db.nonzero()[0]
    packed = np.empty(rows.size * nb + quiet.size * cols.size, dtype=np.int64)
    o = 0
    # every cell of a row where a breaks, and the cells of the other rows
    # where b does (there the depth is b's alone)
    for part_rows, part_cols, a_depth in ((rows, np.arange(nb), da), (quiet, cols, None)):
        b_depth = db[part_cols]
        step = max(1, GATHER_BLOCK // part_cols.size)
        for r in range(0, part_rows.size, step):
            i = part_rows[r : r + step, None]
            cells = packed[o : o + i.size * part_cols.size].reshape(i.size, -1)
            off.take(i + part_cols, out=cells)
            cells += (i << DEPTH_BITS) | (b_depth if a_depth is None else np.maximum(a_depth[i], b_depth))
            o += cells.size
    return _unpacked_layout(na * nb, packed, kind="conv", x=a, y=b, z=c, M=inst.M, dims=(na, nb, na + nb - 1))


def _gathered(layout: FlatLayout, cells: np.ndarray, order: np.ndarray | None = None):
    """Yield (lo, delta, high) for each block of GATHER_BLOCK cells from lo
    on: delta = x + y - z (int64, ready for a reduction mod any Q) and
    high = x//M + y//M - z//M, nonzero where the high parts differ, at those
    cells (taken in the given order when there is one).

    A block is worked in place in four int64 arrays of its size (for a conv
    layout one is the diagonal index that searchsorted makes per block),
    and forms no other per-cell temporary; delta and high are two of them,
    valid until the next block. The positions are read from cells in place
    when there is no order. (The indices handed to take are in range: its
    "clip" mode only skips a buffered copy.)"""
    n = min(cells.size, GATHER_BLOCK)
    matrix = layout.kind == "matrix"
    buf = np.empty((4 if matrix else 3, n), dtype=np.int64)
    xf, yf, zf = layout.x.reshape(-1), layout.y.reshape(-1), layout.z.reshape(-1)
    M = layout.M
    if matrix:
        _, nb, nc = layout.dims
    else:
        gstarts, off = _diagonals(*layout.dims[:2])
        ends = gstarts[1:]
    for lo in range(0, cells.size, GATHER_BLOCK):
        spare, b0, b1, *b2 = buf if cells.size - lo >= n else buf[:, : cells.size - lo]
        # the positions, read until spare is written
        p = cells[lo : lo + n] if order is None else cells.take(order[lo : lo + n], out=spare, mode="clip")
        if matrix:
            b2 = b2[0]
            np.floor_divide(p, nc, out=b0)  # i*nb + k, the entry of x
            np.floor_divide(b0, nb, out=b1)  # i
            np.multiply(b0, nc, out=b2)
            np.subtract(p, b2, out=b2)  # j
            b1 *= nc
            b2 += b1  # i*nc + j, the entry of z
            b1 *= nb
            np.subtract(p, b1, out=b1)  # k*nc + j, the entry of y
            x = xf.take(b0, out=spare, mode="clip")
            y = yf.take(b1, out=b0, mode="clip")
            z = zf.take(b2, out=b1, mode="clip")
            delta = np.add(x, y, out=b2)
        else:
            t = ends.searchsorted(p, side="right")  # the diagonal
            off.take(t, out=b0, mode="clip")
            np.subtract(p, b0, out=b0)  # i, the entry of x
            np.subtract(t, b0, out=b1)  # the entry of y
            z = zf.take(t, out=spare, mode="clip")
            x = xf.take(b0, out=t, mode="clip")
            y = yf.take(b1, out=b0, mode="clip")
            delta = np.add(x, y, out=b1)
        delta -= z
        x //= M
        y //= M
        x += y
        z //= M
        x -= z
        yield lo, delta, x


def _start_terms(layout: FlatLayout, cells: np.ndarray):
    """delta and the high-part test (see _gathered) at the given cells, as
    whole arrays."""
    delta = np.empty(cells.size, dtype=np.int64)
    differ = np.empty(cells.size, dtype=bool)
    for lo, d, h in _gathered(layout, cells):
        delta[lo : lo + d.size] = d
        np.not_equal(h, 0, out=differ[lo : lo + h.size])
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


def _run_lengths(first: np.ndarray, total: int) -> np.ndarray:
    """The lengths of the runs that start at the sorted positions first and
    end at total, written over first block by block (no second array)."""
    for lo in range(0, first.size - 1, GATHER_BLOCK):
        hi = min(lo + GATHER_BLOCK, first.size - 1)
        first[lo:hi] = first[lo + 1 : hi + 1] - first[lo:hi]
    first[-1:] = total - first[-1:]
    return first


def _start_keys(layout: FlatLayout, order: np.ndarray) -> np.ndarray:
    """The key 2*delta + differ of each level-0 start, the starts taken in
    the given order. A delta outside [-2^62, 2^62), where the key would wrap
    and lose its sign, is a PromiseViolationError: a promised instance's
    entries lie in [0, 2^61), so its deltas never leave that range."""
    keys = np.empty(order.size, dtype=np.int64)
    for o, delta, high in _gathered(layout, layout.starts, order):
        key = np.add(delta, delta, out=keys[o : o + delta.size])
        key += np.minimum(np.abs(high, out=high), 1, out=high)  # differ, as 0 or 1
        if np.bitwise_xor(delta, key, out=delta).min() < 0:
            raise PromiseViolationError("a segment-start delta lies outside [-2^62, 2^62)")
    return keys


def level_start_deltas(layout: FlatLayout, lmax: int) -> StartDeltas:
    """The per-level start-delta multisets the modulus search counters read.

    One pass over the level-0 starts; the result does not depend on any Q.
    One stable sort of the starts' capped depths (a counting sort of int8)
    orders them deepest first, so each depth class is a run and the level-l
    starts a prefix. The gather takes the starts in that order and writes
    each one's key 2*delta + differ, which sorts as (delta, differ) does;
    a delta outside [-2^62, 2^62) is refused (_start_keys). Each class's
    keys are sorted in place and run-length coded into bins: no sorted copy
    of the deltas, no rank of one. Besides the layout it holds 16 bytes per
    start (a key and an order entry) and one gather block; the bins take 17
    bytes per start when every start has its own delta.
    """
    cap = lmax + 1
    shallow = np.minimum(layout.depth, cap)
    np.subtract(cap, shallow, out=shallow)  # 0 for the deepest class
    order = shallow.argsort(kind="stable")
    # the depth class cap - s is keys[edges[s] : edges[s + 1]]
    edges = shallow[order].searchsorted(np.arange(cap + 1, dtype=np.int8)).tolist()
    del shallow
    keys = _start_keys(layout, order)
    del order
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a > 1:
            keys[a:b].sort()
    # a run starts where the key changes and where a class does
    head = np.empty(keys.size + 1, dtype=bool)  # head[-1] takes the empty classes past the end
    np.not_equal(keys[1:], keys[:-1], out=head[1:-1])
    head[edges] = True
    head = head[:-1]
    bins = keys[head]
    del keys
    first = head.nonzero()[0]
    del head
    # level l holds the classes s < cap - l
    cut = first.searchsorted(edges[cap:0:-1])
    counts = _run_lengths(first, layout.starts.size)
    differ = np.empty(bins.size, dtype=bool)
    np.bitwise_and(bins, 1, out=differ, casting="unsafe")
    bins >>= 1
    return StartDeltas(values=bins, counts=counts, differ=differ, cut=cut)


def _groups_of(layout: FlatLayout, cells: np.ndarray) -> np.ndarray:
    """The group of each flat cell: its pair i*nb + k, or its diagonal."""
    if layout.kind == "matrix":
        return cells // layout.dims[2]
    return _diagonals(*layout.dims[:2])[0].searchsorted(cells, side="right") - 1


def _congruent(layout: FlatLayout, starts: np.ndarray, ends: np.ndarray, Q: int):
    """The given segments whose start delta is 0 mod Q, with their groups."""
    cong = _start_terms(layout, starts)[0] % Q == 0
    s, e = starts[cong], ends[cong]
    return s, e, _groups_of(layout, s)


def sprime_rows_flat(layout: FlatLayout, starts: np.ndarray, ends: np.ndarray, Q: int) -> np.ndarray:
    """Accumulate congruent level-0 segments into s' per (i, j)."""
    na, nb, nc = layout.dims
    s, e, g = _congruent(layout, starts, ends, Q)
    # a segment adds 1 from (i, j) = (i, s - g*nc) up to its end, in the
    # difference array of the rows i, each nc + 1 long, keyed i*(nc + 1) + j
    row = g // nb * (nc + 1) - g * nc
    size = na * (nc + 1)
    D = np.bincount(row + s, minlength=size) - np.bincount(row + e + 1, minlength=size)
    return np.cumsum(D.reshape(na, nc + 1)[:, :-1], axis=1)


def rprime_ik_flat(layout: FlatLayout, starts: np.ndarray, ends: np.ndarray, Q: int) -> np.ndarray:
    """Accumulate congruent level-0 segment lengths into r' per (i, k)."""
    na, nb, _ = layout.dims
    s, e, g = _congruent(layout, starts, ends, Q)
    return np.bincount(g, weights=(e - s + 1), minlength=na * nb).astype(np.int64).reshape(na, nb)


def sprime_conv_flat(layout: FlatLayout, starts: np.ndarray, ends: np.ndarray, Q: int) -> np.ndarray:
    """Accumulate congruent level-0 segment lengths into s' per output slot."""
    nT = layout.dims[2]
    s, e, g = _congruent(layout, starts, ends, Q)
    return np.bincount(g, weights=(e - s + 1), minlength=nT).astype(np.int64)
