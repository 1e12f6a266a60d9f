from collections import Counter

import numpy as np
import pytest
from helpers import cinst, layout_groups, minst, promised_conv, promised_matrix, start_deltas_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from minplus import cli, segments
from minplus.core import ConvVerificationInstance, magnitude_sum, validate_instance
from minplus.modulus import find_good_modulus
from minplus.segments import (
    active_level0_bounds,
    active_start_mask,
    conv_layout,
    level_start_deltas,
    levelmax_for,
    matrix_layout,
    refine_bounds,
    rprime_ik_flat,
    segment_bounds,
    sprime_conv_flat,
    sprime_rows_flat,
)

# A large shift modulus: ten segment levels.
BIG_M = 10000


# --- oracles -----------------------------------------------------------------

def seg_oracle_row(row1, row2, level):
    segs, s = [], 0
    for j in range(1, len(row1) + 1):
        if (
            j == len(row1)
            or (row1[j] >> level) != (row1[s] >> level)
            or (row2[j] >> level) != (row2[s] >> level)
        ):
            segs.append((s, j - 1))
            s = j
    return segs


def seg_oracle_matrix(inst, level):
    """Every level segment as (i, k, j0, j1), by per-(i, k) linear scans, in layout order."""
    return [
        (i, k, j0, j1)
        for i in range(inst.A.shape[0])
        for k in range(inst.A.shape[1])
        for j0, j1 in seg_oracle_row(inst.B[k], inst.C[i], level)
    ]


def seg_oracle_conv(inst, level):
    """Every level segment as (k, i0, i1), by per-diagonal linear scans, in layout order."""
    out = []
    for k in range(len(inst.C.values)):
        lo, hi = conv_diagonal(inst, k)
        r1 = inst.A.values[lo : hi + 1]
        r2 = np.array([inst.B.values[k - i] for i in range(lo, hi + 1)])
        out += [(k, lo + s, lo + e) for s, e in seg_oracle_row(r1, r2, level)]
    return out


def in_window(delta, level, Q):
    win = 4 << level
    r = delta % Q
    return r <= win or r >= Q - win


def active_oracle_matrix(inst, Q, level):
    A, B, C, M = inst.A, inst.B, inst.C, inst.M
    out = []
    for i in range(A.shape[0]):
        for k in range(A.shape[1]):
            for j0, j1 in seg_oracle_row(B[k], C[i], level):
                highs_differ = A[i, k] // M + B[k, j0] // M != C[i, j0] // M
                if highs_differ and in_window(int(A[i, k] + B[k, j0] - C[i, j0]), level, Q):
                    out.append((i, k, j0, j1))
    return out


def conv_diagonal(inst, k):
    a, b = inst.A.values, inst.B.values
    lo = max(0, k - (len(b) - 1))
    hi = min(len(a) - 1, k)
    return lo, hi


def active_oracle_conv(inst, Q, level):
    a, b, c, M = inst.A.values, inst.B.values, inst.C.values, inst.M
    out = []
    for k in range(len(c)):
        lo, hi = conv_diagonal(inst, k)
        r1 = a[lo : hi + 1]
        r2 = b[k - lo : k - hi - 1 if k - hi > 0 else None : -1]
        for s, e in seg_oracle_row(r1, r2, level):
            i0 = lo + s
            highs_differ = a[i0] // M + b[k - i0] // M != c[k] // M
            if highs_differ and in_window(int(a[i0] + b[k - i0] - c[k]), level, Q):
                out.append((k, lo + s, lo + e))
    return out


def sprime_oracle(inst, Q):
    A, B, C, M = inst.A, inst.B, inst.C, inst.M
    na, nc = C.shape
    out = np.zeros((na, nc), dtype=np.int64)
    for i in range(na):
        for j in range(nc):
            for k in range(A.shape[1]):
                if (A[i, k] + B[k, j] - C[i, j]) % Q == 0 and (
                    A[i, k] // M + B[k, j] // M != C[i, j] // M
                ):
                    out[i, j] += 1
    return out


def rprime_oracle(inst, Q):
    A, B, C, M = inst.A, inst.B, inst.C, inst.M
    na, nb = A.shape
    out = np.zeros((na, nb), dtype=np.int64)
    for i in range(na):
        for k in range(nb):
            for j in range(C.shape[1]):
                if (A[i, k] + B[k, j] - C[i, j]) % Q == 0 and (
                    A[i, k] // M + B[k, j] // M != C[i, j] // M
                ):
                    out[i, k] += 1
    return out


def sprime_conv_oracle(inst, Q):
    a, b, c, M = inst.A.values, inst.B.values, inst.C.values, inst.M
    out = np.zeros(len(c), dtype=np.int64)
    for k in range(len(c)):
        lo, hi = conv_diagonal(inst, k)
        for i in range(lo, hi + 1):
            if (a[i] + b[k - i] - c[k]) % Q == 0 and a[i] // M + b[k - i] // M != c[k] // M:
                out[k] += 1
    return out


def matrix_tuples(layout, starts, ends):
    """Flat matrix segments as (i, k, j0, j1)."""
    gstarts, label1, label2, _ = layout_groups(layout)
    g = np.searchsorted(gstarts, starts, side="right") - 1
    j0, j1 = starts - gstarts[g], ends - gstarts[g]
    return [
        (int(i), int(k), int(a), int(b))
        for i, k, a, b in zip(label1[g], label2[g], j0, j1)
    ]


def conv_tuples(layout, starts, ends):
    """Flat convolution segments as (k, i0, i1)."""
    gstarts, label1, _, first = layout_groups(layout)
    g = np.searchsorted(gstarts, starts, side="right") - 1
    off = first[g] - gstarts[g]
    return [
        (int(k), int(a), int(b)) for k, a, b in zip(label1[g], starts + off, ends + off)
    ]


def one_segment(start, end):
    return np.array([start], dtype=np.int64), np.array([end], dtype=np.int64)


def active_chain(inst, Q, lmax, conv=False):
    """Active segments at every level as tuples, reached by refinement from lmax."""
    layout = conv_layout(inst) if conv else matrix_layout(inst)
    label = conv_tuples if conv else matrix_tuples
    starts, ends = segment_bounds(layout, lmax)
    sets = {}
    for level in range(lmax, -1, -1):
        if level < lmax:
            starts, ends, _ = refine_bounds(layout, starts, ends, level)
        m = active_start_mask(layout, starts, level, Q)
        starts, ends = starts[m], ends[m]
        sets[level] = label(layout, starts, ends)
    return sets


# --- frozen cases ------------------------------------------------------------

@pytest.mark.parametrize("M,lmax", [(100, 3), (200, 4), (400, 5), (np.int64(100), 3), (np.uint16(400), 5)])
def test_levelmax_values(M, lmax):
    assert levelmax_for(M) == lmax


@pytest.mark.parametrize("M", [150, 0, 100.0, np.float64(200.0), True, "100", 10**30])
def test_levelmax_rejects_bad_M(M):
    with pytest.raises(ValueError):
        levelmax_for(M)


def test_level_params_consistency():
    for M in range(100, 20001, 100):
        lmax = levelmax_for(M)
        assert M / 20 <= (1 << lmax) < M / 10


def test_top_segments_constant_rows():
    inst = minst(A=[[7, 7], [7, 7]], B=[[3, 3, 3], [5, 5, 5]], C=[[1, 1, 1], [1, 1, 1]])
    layout = matrix_layout(inst)
    segs = matrix_tuples(layout, *segment_bounds(layout, 3))
    assert len(segs) == 4
    assert all(j0 == 0 and j1 == 2 for _, _, j0, j1 in segs)


def test_top_segments_floor_split():
    # floor(1/8) != floor(9/8) forces a boundary between the two columns
    inst = minst(A=[[0]], B=[[1, 9]], C=[[1, 1]])
    layout = matrix_layout(inst)
    segs = matrix_tuples(layout, *segment_bounds(layout, 3))
    assert [(j0, j1) for _, _, j0, j1 in segs] == [(0, 0), (1, 1)]


def test_active_start_mask_cases():
    def active(inst, Q):
        return bool(active_start_mask(matrix_layout(inst), np.array([0]), 0, Q)[0])

    # delta = 1001 = 7 * 143, canonical residue 0, highs 10 + 0 != 0
    assert active(minst(A=[[1000]], B=[[5]], C=[[4]]), 143)

    # high parts agree, inactive for every Q
    inst2 = minst(A=[[5]], B=[[3]], C=[[8]])
    assert not active(inst2, 143)
    assert not active(inst2, 11)

    # delta = 905, residue 47, outside the level-0 window
    assert not active(minst(A=[[1000]], B=[[5]], C=[[100]]), 143)


def active_children(inst, starts, ends, level, Q):
    """Active level-`level` children of the given parents, as (j0, j1)."""
    layout = matrix_layout(inst)
    cs, ce, _ = refine_bounds(layout, starts, ends, level)
    m = active_start_mask(layout, cs, level, Q)
    return [(j0, j1) for _, _, j0, j1 in matrix_tuples(layout, cs[m], ce[m])]


def test_refine_constant_region_single_child():
    inst = minst(A=[[1000]], B=[[0, 0, 0, 0]], C=[[0, 0, 0, 0]])
    assert active_children(inst, *one_segment(0, 3), 1, 143) == [(0, 3)]


def test_refine_splits_on_floor_boundary():
    # at level 1 the B row 0,1,2,3 splits into blocks {0,1} and {2,3}
    inst = minst(A=[[1000]], B=[[0, 1, 2, 3]], C=[[0, 0, 0, 0]])
    assert active_children(inst, *one_segment(0, 3), 1, 143) == [(0, 1), (2, 3)]


def test_aggregate_sprime_range_stamp():
    inst = minst(A=[[1001]], B=[[0, 144, 144, 500]], C=[[1, 1, 1, 1]])
    layout = matrix_layout(inst)
    # delta = 1001 + 144 - 1 = 1144 = 8 * 143 over columns [1, 2]
    got = sprime_rows_flat(layout, *one_segment(1, 2), 143)
    assert np.array_equal(got, [[0, 1, 1, 0]])
    assert np.array_equal(rprime_ik_flat(layout, *one_segment(1, 2), 143), [[2]])


def test_aggregate_skips_noncongruent():
    inst = minst(A=[[1001]], B=[[0, 150, 150, 500]], C=[[1, 1, 1, 1]])
    layout = matrix_layout(inst)
    assert not sprime_rows_flat(layout, *one_segment(1, 2), 143).any()
    assert not rprime_ik_flat(layout, *one_segment(1, 2), 143).any()


def test_aggregate_empty_set():
    inst = minst(A=[[0]], B=[[0, 0]], C=[[0, 0]])
    layout = matrix_layout(inst)
    none = np.array([], dtype=np.int64)
    assert not sprime_rows_flat(layout, none, none, 143).any()
    assert not rprime_ik_flat(layout, none, none, 143).any()


@pytest.mark.parametrize("pick", [slice(None), slice(None, None, 2), slice(1, None, 3)])
def test_row_aggregates_equal_a_sum_over_their_segments(pick):
    """s' and r' of level-0 segments over several rows, pairs and columns
    equal a plain sum over the segments given (at Q = 1 each is congruent):
    s' counts a segment on every cell (i, j) it covers, r' adds its length
    to its pair (i, k)."""
    inst = promised_matrix(np.random.default_rng(6), 5, 4, 9)
    layout = matrix_layout(inst)
    starts, ends = (x[pick] for x in segment_bounds(layout, 0))
    s_want, r_want = np.zeros((5, 9), dtype=np.int64), np.zeros((5, 4), dtype=np.int64)
    for i, k, j0, j1 in matrix_tuples(layout, starts, ends):
        s_want[i, j0 : j1 + 1] += 1
        r_want[i, k] += j1 - j0 + 1
    assert s_want.max() > 1 and starts.size > 5 * 4  # pairs of several segments
    for got, want in ((sprime_rows_flat(layout, starts, ends, 1), s_want),
                      (rprime_ik_flat(layout, starts, ends, 1), r_want)):
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_conv_single_point():
    inst = cinst([7], [8], [100])
    layout = conv_layout(inst)
    assert conv_tuples(layout, *segment_bounds(layout, 3)) == [(0, 0, 0)]


def test_conv_constant_arrays_one_segment_per_diagonal():
    inst = cinst([5, 5, 5], [5, 5, 5], [10, 10, 10, 10, 10])
    layout = conv_layout(inst)
    segs = conv_tuples(layout, *segment_bounds(layout, 3))
    assert len(segs) == 5
    for k, i0, i1 in segs:
        assert (i0, i1) == conv_diagonal(inst, k)


def test_conv_aggregate_stamp():
    # diagonal k=2 of a 3-point instance covers i in {0,1,2}
    inst = cinst([0, 0, 0], [0, 0, 0], [0, 0, 143, 0, 0], M=100)
    layout = conv_layout(inst)
    first = int(layout_groups(layout)[0][2])
    got = sprime_conv_flat(layout, *one_segment(first, first + 2), 143)
    assert np.array_equal(got, [0, 0, 3, 0, 0])


# --- randomized oracle comparisons -------------------------------------------

def test_top_segments_match_linear_scan():
    rng = np.random.default_rng(7)
    for _ in range(25):
        na, nb, nc = rng.integers(1, 6, 3)
        inst = promised_matrix(rng, na, nb, nc)
        for level in (0, 2, 3):
            layout = matrix_layout(inst)
            got = set(matrix_tuples(layout, *segment_bounds(layout, level)))
            assert got == set(seg_oracle_matrix(inst, level))


def test_conv_segments_match_linear_scan():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        inst = promised_conv(rng, n)
        for level in (0, 1, 3):
            layout = conv_layout(inst)
            got = set(conv_tuples(layout, *segment_bounds(layout, level)))
            assert got == set(seg_oracle_conv(inst, level))


def test_active_refinement_matches_direct_enumeration():
    rng = np.random.default_rng(9)
    lmax = levelmax_for(100)
    for Q in (143, 121, 11):
        for _ in range(12):
            na, nb, nc = rng.integers(1, 5, 3)
            inst = promised_matrix(rng, na, nb, nc)
            sets = active_chain(inst, Q, lmax)
            for level in range(lmax, -1, -1):
                got = set(sets[level])
                want = set(active_oracle_matrix(inst, Q, level))
                assert got == want


def test_active_refinement_conv_matches_direct_enumeration():
    rng = np.random.default_rng(10)
    lmax = levelmax_for(100)
    for Q in (143, 169):
        for _ in range(12):
            n = int(rng.integers(1, 9))
            inst = promised_conv(rng, n)
            sets = active_chain(inst, Q, lmax, conv=True)
            for level in range(lmax, -1, -1):
                got = set(sets[level])
                want = set(active_oracle_conv(inst, Q, level))
                assert got == want


def refine_every_level(layout, lmax, Q):
    """active_level0_bounds without its early stop: every level refined and
    filtered, empty or not. Returns the level-0 family and the family's size
    after each level, lmax first."""
    starts, ends = segment_bounds(layout, lmax)
    sizes = []
    for level in range(lmax, -1, -1):
        if level < lmax:
            starts, ends, _ = refine_bounds(layout, starts, ends, level)
        m = active_start_mask(layout, starts, level, Q)
        starts, ends = starts[m], ends[m]
        sizes.append(len(starts))
    return starts, ends, sizes


def early_stop_cases():
    """(instance, layout, Q): verification instances under their searched Q,
    whose family empties at lmax (staircase rows, every conv) or at a middle
    level (uniform-monotone rows), and small promised instances under
    Q = 143, most of which keep active segments down to level 0."""
    rng = np.random.default_rng(13)
    out = []
    for kind, n in (("verify-row", 6), ("verify-conv", 16)):
        for family in ("uniform-monotone", "staircase"):
            for seed in (0, 1):
                inst = cli._instance_from(cli.generate_instance(kind, n, 256, seed, family))
                out.append((inst, find_good_modulus(inst)[0]))
    out += [(promised_matrix(rng, 3, 3, 4), 143) for _ in range(4)]
    out += [(promised_conv(rng, 6), 143) for _ in range(4)]
    return [(inst, conv_layout(inst) if isinstance(inst, ConvVerificationInstance) else matrix_layout(inst), Q)
            for inst, Q in out]


def test_early_stop_equals_a_full_refinement():
    lmax = levelmax_for(100)
    emptied, kept = set(), 0
    for _, layout, Q in early_stop_cases():
        want_s, want_e, sizes = refine_every_level(layout, lmax, Q)
        got_s, got_e = active_level0_bounds(layout, lmax, Q)
        assert np.array_equal(got_s, want_s) and got_s.dtype == want_s.dtype
        assert np.array_equal(got_e, want_e) and got_e.dtype == want_e.dtype
        if 0 in sizes:
            emptied.add(lmax - sizes.index(0))
        kept += sizes[-1] > 0
    assert lmax in emptied and emptied & set(range(1, lmax)), emptied
    assert kept, "no case keeps an active segment at level 0"


def test_refinement_stops_once_the_family_is_empty(monkeypatch):
    refine = segments.refine_bounds
    calls = []

    def spy(layout, starts, ends, level):
        calls.append(len(starts))
        return refine(layout, starts, ends, level)

    monkeypatch.setattr(segments, "refine_bounds", spy)
    lmax = levelmax_for(100)
    for _, layout, Q in early_stop_cases():
        sizes = refine_every_level(layout, lmax, Q)[2]
        calls.clear()
        active_level0_bounds(layout, lmax, Q)
        # one refinement per level below lmax, each of a family that is not empty
        assert calls == sizes[: sizes.index(0) if 0 in sizes else lmax]


def test_sprime_matches_triple_loop():
    rng = np.random.default_rng(11)
    lmax = levelmax_for(100)
    for Q in (143, 121):
        for _ in range(10):
            na, nb, nc = rng.integers(1, 6, 3)
            inst = promised_matrix(rng, na, nb, nc)
            layout = matrix_layout(inst)
            s0, e0 = active_level0_bounds(layout, lmax, Q)
            assert np.array_equal(sprime_rows_flat(layout, s0, e0, Q), sprime_oracle(inst, Q))
            assert np.array_equal(rprime_ik_flat(layout, s0, e0, Q), rprime_oracle(inst, Q))


def test_sprime_conv_matches_double_loop():
    rng = np.random.default_rng(12)
    lmax = levelmax_for(100)
    for Q in (143, 121):
        for _ in range(10):
            n = int(rng.integers(1, 10))
            inst = promised_conv(rng, n)
            layout = conv_layout(inst)
            got = sprime_conv_flat(layout, *active_level0_bounds(layout, lmax, Q), Q)
            assert np.array_equal(got, sprime_conv_oracle(inst, Q))


# --- structural invariants ---------------------------------------------------

def assert_tiling(inst, level):
    na, nb = inst.A.shape
    nc = inst.C.shape[1]
    cover = {}
    layout = matrix_layout(inst)
    for i, k, j0, j1 in matrix_tuples(layout, *segment_bounds(layout, level)):
        assert j0 <= j1
        for j in range(j0, j1 + 1):
            key = (i, k, j)
            assert key not in cover, "overlap"
            cover[key] = True
    assert len(cover) == na * nb * nc


def test_segments_tile_every_level():
    rng = np.random.default_rng(14)
    for _ in range(10):
        na, nb, nc = rng.integers(1, 5, 3)
        inst = promised_matrix(rng, na, nb, nc)
        for level in range(levelmax_for(100) + 1):
            assert_tiling(inst, level)


def test_segment_count_bound():
    rng = np.random.default_rng(15)
    for _ in range(10):
        na, nb, nc = rng.integers(1, 6, 3)
        inst = promised_matrix(rng, na, nb, nc)
        U = int(max(inst.B.max(), inst.C.max(), 0))
        for level in range(levelmax_for(100) + 1):
            count = len(segment_bounds(matrix_layout(inst), level)[0])
            bound = na * nb * (2 * -(U // -(1 << level)) + 1)
            assert count <= bound


def test_nesting_unique_parent():
    rng = np.random.default_rng(16)
    lmax = levelmax_for(100)
    for Q in (143, 169):
        for _ in range(8):
            na, nb, nc = rng.integers(1, 5, 3)
            inst = promised_matrix(rng, na, nb, nc)
            for level in range(lmax):
                children = active_oracle_matrix(inst, Q, level)
                parents = active_oracle_matrix(inst, Q, level + 1)
                for (i, k, j0, j1) in children:
                    hosts = [
                        p for p in parents if p[0] == i and p[1] == k and p[2] <= j0 and j1 <= p[3]
                    ]
                    assert len(hosts) == 1


def test_refinement_produces_at_most_three_children():
    rng = np.random.default_rng(17)
    lmax = levelmax_for(100)
    for _ in range(10):
        na, nb, nc = rng.integers(1, 6, 3)
        inst = promised_matrix(rng, na, nb, nc)
        layout = matrix_layout(inst)
        starts, ends = segment_bounds(layout, lmax)
        for level in range(lmax - 1, -1, -1):
            cs, ce, par = refine_bounds(layout, starts, ends, level)
            _, counts = np.unique(par, return_counts=True)
            assert counts.max(initial=0) <= 3
            starts, ends = cs, ce


def test_active_discrepancy_at_least_7M_over_10():
    rng = np.random.default_rng(18)
    M = 100
    lmax = levelmax_for(M)
    for _ in range(10):
        na, nb, nc = rng.integers(1, 5, 3)
        inst = promised_matrix(rng, na, nb, nc, M=M)
        for level in range(lmax + 1):
            for (i, k, j0, j1) in active_oracle_matrix(inst, 143, level):
                delta = int(inst.A[i, k] + inst.B[k, j0] - inst.C[i, j0])
                assert abs(delta) >= 7 * M // 10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_sprime_property(na, nc, data):
    nb = data.draw(st.integers(min_value=1, max_value=4))
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    inst = promised_matrix(rng, na, nb, nc)
    layout = matrix_layout(inst)
    s0, e0 = active_level0_bounds(layout, levelmax_for(100), 143)
    assert np.array_equal(sprime_rows_flat(layout, s0, e0, 143), sprime_oracle(inst, 143))


# --- large entries and moduli: either side of each integer dtype limit -------

# |A|max + |B|max + |C|max either side of the int8, int16 and int32 limits, as
# close as promised entries reach: three residues of at most M/10 sum to a
# residue of at most 3M/10.
LAYOUT_EDGES = (127, 32767, 2**31 - 1)
LAYOUT_MODULI = (101, 143, 40000, 65537, 2**31 - 1)


def promised_totals(edge, M):
    """The largest promised total at most edge and the smallest above it."""
    top = 3 * (M // 10)
    h, r = divmod(edge, M)
    below = edge if r <= top else h * M + top
    h, r = divmod(edge + 1, M)
    above = edge + 1 if r <= top else (h + 1) * M
    return below, above


def split_total(draw, total, M):
    """Three promised maxima (residues at most M/10) that sum to total."""
    h, r = divmod(total, M)
    w = M // 10
    ra = draw(st.integers(max(0, r - 2 * w), min(w, r)))
    rb = draw(st.integers(max(0, r - ra - w), min(w, r - ra)))
    ha = draw(st.integers(0, h))
    hb = draw(st.integers(0, h - ha))
    return ha * M + ra, hb * M + rb, (h - ha - hb) * M + r - ra - rb


def promised(v, M):
    """The largest value at most v whose residue mod M is at most M/10."""
    return v - np.maximum(0, v % M - M // 10)


def near_congruent(rng, sums, top, Q, M):
    """sum - r*Q - s for r in {0, 1, 2} and |s| <= 4, clipped into [0, top]
    and cut down to a promised value: starts whose delta is congruent to, or
    in the window of, 0 mod Q, up to the cut."""
    shifted = sums - Q * rng.integers(0, 3, sums.shape) - rng.integers(-4, 5, sums.shape)
    return promised(np.clip(shifted, 0, top), M)


def threshold_matrix(rng, shape, tops, Q, M):
    (na, nb, nc), (ta, tb, tc) = shape, tops
    A = promised(rng.integers(0, ta + 1, (na, nb)), M)
    B = np.sort(promised(rng.integers(0, tb + 1, (nb, nc)), M), axis=1)
    A[0, 0], B[:, -1] = ta, tb
    k = rng.integers(0, nb, (na, nc))
    C = near_congruent(rng, A[np.arange(na)[:, None], k] + B[k, np.arange(nc)[None, :]], tc, Q, M)
    C = np.sort(C, axis=1)
    C[0, -1] = tc
    return minst(A, B, C, M=M)


def threshold_conv(rng, n, tops, Q, M):
    ta, tb, tc = tops
    a = np.sort(promised(rng.integers(0, ta + 1, n), M))
    b = np.sort(promised(rng.integers(0, tb + 1, n), M))
    a[-1], b[-1] = ta, tb
    t = np.arange(2 * n - 1)
    i = np.clip(t - rng.integers(0, n, 2 * n - 1), np.maximum(0, t - (n - 1)), np.minimum(n - 1, t))
    c = near_congruent(rng, a[i] + b[t - i], tc, Q, M)
    c[0] = tc
    return cinst(a, b, c, M=M)


@st.composite
def layout_case(draw):
    edge = draw(st.sampled_from(LAYOUT_EDGES))
    M = draw(st.sampled_from((100, BIG_M))) if edge > BIG_M else 100
    total = draw(st.sampled_from(promised_totals(edge, M)))
    Q = draw(st.sampled_from(LAYOUT_MODULI))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    return split_total(draw, total, M), M, Q, rng, shape


def start_deltas_oracle(inst, level, conv):
    """Multisets of delta over the linear-scan segment starts, and over those
    whose high parts disagree."""
    if conv:
        a, b, c, M = inst.A.values, inst.B.values, inst.C.values, inst.M
        triples = [(a[i0], b[k - i0], c[k]) for k, i0, _ in seg_oracle_conv(inst, level)]
    else:
        A, B, C, M = inst.A, inst.B, inst.C, inst.M
        triples = [(A[i, k], B[k, j0], C[i, j0]) for i, k, j0, _ in seg_oracle_matrix(inst, level)]
    deltas = Counter(int(x + y - z) for x, y, z in triples)
    unequal = Counter(int(x + y - z) for x, y, z in triples if x // M + y // M != z // M)
    return deltas, unequal


def multiset(values, counts):
    out = Counter()
    for v, c in zip(values.tolist(), counts.tolist()):
        out[v] += c
    return out


def assert_layout_matches_oracles(inst, layout, Q, conv):
    lmax = levelmax_for(inst.M)
    label = conv_tuples if conv else matrix_tuples
    seg_oracle = seg_oracle_conv if conv else seg_oracle_matrix
    per_level = level_start_deltas(layout, lmax)
    for level in range(lmax + 1):
        want = set(seg_oracle(inst, level))
        assert set(label(layout, *segment_bounds(layout, level))) == want
        c = per_level.cut[level]
        values, counts, differ = per_level.values[:c], per_level.counts[:c], per_level.differ[:c]
        got = multiset(values, counts), multiset(values[differ], counts[differ])
        assert got == start_deltas_oracle(inst, level, conv)
        if level < lmax:
            children = refine_bounds(layout, *segment_bounds(layout, level + 1), level)
            assert set(label(layout, *children[:2])) == want
    active_oracle = active_oracle_conv if conv else active_oracle_matrix
    for level, got in active_chain(inst, Q, lmax, conv=conv).items():
        assert set(got) == set(active_oracle(inst, Q, level))
    s0, e0 = active_level0_bounds(layout, lmax, Q)
    if conv:
        assert np.array_equal(sprime_conv_flat(layout, s0, e0, Q), sprime_conv_oracle(inst, Q))
    else:
        assert np.array_equal(sprime_rows_flat(layout, s0, e0, Q), sprime_oracle(inst, Q))
        assert np.array_equal(rprime_ik_flat(layout, s0, e0, Q), rprime_oracle(inst, Q))


@settings(max_examples=40, deadline=None)
@given(layout_case())
def test_matrix_layout_exact_across_dtype_thresholds(case):
    tops, M, Q, rng, shape = case
    inst = threshold_matrix(rng, shape, tops, Q, M)
    assert validate_instance(inst).ok and sum(tops) == magnitude_sum(inst.A, inst.B, inst.C)
    layout = matrix_layout(inst)
    assert_layout_matches_oracles(inst, layout, Q, conv=False)


@settings(max_examples=40, deadline=None)
@given(layout_case())
def test_conv_layout_exact_across_dtype_thresholds(case):
    tops, M, Q, rng, (n, _, _) = case
    inst = threshold_conv(rng, n + 1, tops, Q, M)
    assert validate_instance(inst).ok
    assert sum(tops) == magnitude_sum(inst.A.values, inst.B.values, inst.C.values)
    layout = conv_layout(inst)
    assert_layout_matches_oracles(inst, layout, Q, conv=True)


@pytest.mark.parametrize("block", [1, 3, 17])
def test_start_gathers_unchanged_by_many_blocks(monkeypatch, block):
    rng = np.random.default_rng(block)
    insts = [(promised_matrix(rng, 3, 4, 9), False) for _ in range(4)]
    insts += [(promised_conv(rng, 9), True) for _ in range(4)]
    lmax = levelmax_for(100)

    def results(inst, conv):
        layout = conv_layout(inst) if conv else matrix_layout(inst)
        d = level_start_deltas(layout, lmax)
        s0, e0 = active_level0_bounds(layout, lmax, 143)
        aggregate = sprime_conv_flat if conv else sprime_rows_flat
        return d.values, d.counts, d.differ, d.cut, s0, e0, aggregate(layout, s0, e0, 143)

    whole = [results(inst, conv) for inst, conv in insts]
    monkeypatch.setattr(segments, "GATHER_BLOCK", block)
    for (inst, conv), want in zip(insts, whole):
        for got, ref in zip(results(inst, conv), want):
            assert np.array_equal(got, ref)


# Entry ranges for the start-delta bins: small, just below 2^61 and just
# above -2^61, the largest magnitude an instance takes. Mixed, they give
# deltas from about -3*2^61 to 3*2^61 (2^62.6), and deltas that differ by
# 2^63 or more in one depth class.
ENTRY_RANGES = ((0, 40), (2**61 - 40, 2**61 - 1), (-(2**61) + 1, -(2**61) + 40))


@st.composite
def start_delta_case(draw):
    """A small matrix or conv layout whose operands each draw their entries
    from one to three of ENTRY_RANGES, or hold one value throughout (every
    delta equal); 1 x 1 x 1 and n = 1 give a single start."""
    conv = draw(st.booleans())
    shapes = [(n, n, 2 * n - 1) for n in [draw(st.integers(1, 6))]] if conv else [
        ((na, nb), (nb, nc), (na, nc)) for na, nb, nc in [[draw(st.integers(1, 4)) for _ in range(3)]]]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    constant = draw(st.sampled_from(["none", "some", "all"]))
    operands = []
    for shape in shapes[0]:
        lo, hi = np.array(draw(st.lists(st.sampled_from(ENTRY_RANGES), min_size=1, max_size=3))).T
        size = (1,) if constant == "all" or (constant == "some" and draw(st.booleans())) else shape
        pick = rng.integers(len(lo), size=size)
        operands.append(np.broadcast_to(rng.integers(lo[pick], hi[pick], endpoint=True), shape).copy())
    M = 100 * draw(st.integers(1, 10**6))
    inst = cinst(*operands, M=M) if conv else minst(*operands, M=M)
    layout = conv_layout(inst) if conv else matrix_layout(inst)
    return layout, draw(st.integers(0, 10)), draw(st.sampled_from([1, 3, segments.GATHER_BLOCK]))


@settings(max_examples=150, deadline=None)
@given(start_delta_case())
def test_start_deltas_equal_the_two_sort_reference(case):
    """One pass and one sort per part give the bins of the two-sort
    reference, byte for byte, at any lmax and gather block, deltas of
    magnitude 2^62 and more included."""
    layout, lmax, block = case
    want = start_deltas_reference(layout, lmax)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segments, "GATHER_BLOCK", block)
        got = level_start_deltas(layout, lmax)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_layout_refuses_more_cells_than_its_sort_can_pack(monkeypatch):
    """A start's position and depth share one int64 while the layout sorts
    them; a layout of 2^(63 - DEPTH_BITS) cells or more is refused."""
    inst = promised_matrix(np.random.default_rng(0), 2, 2, 2)
    monkeypatch.setattr(segments, "DEPTH_BITS", 61)
    with pytest.raises(ValueError, match="too many"):
        matrix_layout(inst)
    with pytest.raises(ValueError, match="too many"):
        conv_layout(promised_conv(np.random.default_rng(0), 2))
