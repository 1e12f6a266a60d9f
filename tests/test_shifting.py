"""The equality witness scans against the brute-force mask and the paper's
literal three-condition rule in int64, across the dtype thresholds, moduli
and block sizes, with their memory bounded by blocks; and the halving
recursion the drivers share, on fake per-level witnesses."""
import tracemalloc

import numpy as np
import pytest
from helpers import (
    cinst,
    fused_scan_conv_int64_oracle,
    fused_scan_int64_oracle,
    minst,
    settle_by_scatter_reference,
    traced_peak,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from minplus import shifting
from minplus.core import narrow_int_dtype, witness_mask_naive
from minplus.modulus import default_range_parameter
from minplus.shifting import (
    _narrow,
    antidiagonal_rows,
    congruent_witness_scan,
    congruent_witness_scan_conv,
    settle_by_halving,
)

# A large shift modulus: ten segment levels.
BIG_M = 10000
MODULI = (100, 300, 1000, BIG_M)
# Entry scales (times M/100) whose sums land on both sides of the int16 and
# int32 thresholds.
SCALES = (1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 29, 1 << 30, 1 << 31)
# Moduli from just above 7M/100 to far above M, for the literal rule.
BIG_Q = ((1 << 14) - 1, 1 << 14, 40000, 65537, (1 << 30) - 1, 1 << 30)


def with_near_misses(rng, sums, hi, M, Q):
    """Half the cells: a witness sum moved by 0, +-1, +-W, M or +-Q; the
    other half random in [0, 2 hi + 1]. Clipped at 0."""
    miss = rng.choice([0, 0, 0, 1, -1, M // 100, -(M // 100), M, Q, -Q], sums.shape)
    noise = rng.integers(0, 2 * hi + 2, sums.shape)
    return np.maximum(np.where(rng.random(sums.shape) < 0.5, sums + miss, noise), 0)


def planted_matrix(rng, shape, hi, M, Q):
    na, nb, nc = shape
    A = rng.integers(0, hi + 1, (na, nb))
    B = rng.integers(0, hi + 1, (nb, nc))
    A[0, 0] = B[-1, -1] = hi
    k = rng.integers(0, nb, (na, nc))
    sums = A[np.arange(na)[:, None], k] + B[k, np.arange(nc)[None, :]]
    return A, B, with_near_misses(rng, sums, hi, M, Q)


def planted_conv(rng, n, hi, M, Q):
    a = rng.integers(0, hi + 1, n)
    b = rng.integers(0, hi + 1, n)
    a[0] = b[-1] = hi
    t = np.arange(2 * n - 1)
    lo, top = np.maximum(0, t - (n - 1)), np.minimum(n - 1, t)
    i = lo + (rng.random(2 * n - 1) * (top - lo + 1)).astype(np.int64)
    return a, b, with_near_misses(rng, a[i] + b[t - i], hi, M, Q)


@st.composite
def scan_case(draw):
    M = draw(st.sampled_from(MODULI))
    hi = draw(st.sampled_from(SCALES)) * (M // 100) + draw(st.integers(-2, 2))
    Q = draw(st.sampled_from((7 * M // 100 + 1, M + 1) + BIG_Q))
    seed = draw(st.integers(0, 2**32 - 1))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(3))
    return M, Q, hi, np.random.default_rng(seed), shape


@settings(max_examples=60, deadline=None)
@given(scan_case())
def test_scan_matches_oracles_across_dtype_thresholds(case):
    M, Q, hi, rng, shape = case
    A, B, C = planted_matrix(rng, shape, hi, M, Q)
    inst = minst(A, B, C, M=M)
    for ax in ("ij", "ik"):
        got = congruent_witness_scan(A, B, C, query_axis=ax)[0]
        assert np.array_equal(got, fused_scan_int64_oracle(A, B, C, M, Q, ax))
        assert np.array_equal(got, witness_mask_naive(inst, ax))


@settings(max_examples=60, deadline=None)
@given(scan_case())
def test_conv_scan_matches_oracles_across_dtype_thresholds(case):
    M, Q, hi, rng, (n, _, _) = case
    a, b, c = planted_conv(rng, n + 1, hi, M, Q)
    got = congruent_witness_scan_conv(a, b, c)[0]
    assert np.array_equal(got, fused_scan_conv_int64_oracle(a, b, c, M, Q))
    assert np.array_equal(got, witness_mask_naive(cinst(a, b, c, M=M), "k"))


SHIFT_SETS = ((0,), (0, 1), (0, 1, 2), (2, 0), (1,))


@settings(max_examples=60, deadline=None)
@given(scan_case(), st.sampled_from(SHIFT_SETS), st.sampled_from((1, 7, 64, 1 << 17)))
def test_scans_with_shifts_equal_one_call_per_shifted_candidate(case, shifts, block):
    """masks[t] of one call with shifts is the single-shift mask of C + s,
    for both scans and both query axes, at block sizes that split rows."""
    M, Q, hi, rng, shape = case
    A, B, C = planted_matrix(rng, shape, hi, M, Q)
    a, b, c = planted_conv(rng, shape[0] + 1, hi, M, Q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shifting, "SCAN_BLOCK", block)
        for ax in ("ij", "ik"):
            masks = congruent_witness_scan(A, B, C, ax, shifts)
            assert masks.shape == (len(shifts),) + (C.shape if ax == "ij" else A.shape)
            for mask, s in zip(masks, shifts):
                assert np.array_equal(mask, congruent_witness_scan(A, B, C + s, ax)[0])
                assert np.array_equal(mask, witness_mask_naive(minst(A, B, C + s, M=M), ax))
        masks = congruent_witness_scan_conv(a, b, c, shifts)
        assert masks.shape == (len(shifts), c.size)
        for mask, s in zip(masks, shifts):
            assert np.array_equal(mask, congruent_witness_scan_conv(a, b, c + s)[0])
            assert np.array_equal(mask, witness_mask_naive(cinst(a, b, c + s, M=M), "k"))


@pytest.mark.parametrize("na,nb", [(3, 5), (5, 3)])
def test_conv_scan_takes_unequal_lengths(na, nb):
    rng = np.random.default_rng(na * 10 + nb)
    for _ in range(20):
        a = rng.integers(0, 6, na)
        b = rng.integers(0, 6, nb)
        c = rng.integers(0, 11, na + nb - 1)
        want = [any(a[i] + b[t - i] == c[t] for i in range(na) if 0 <= t - i < nb)
                for t in range(na + nb - 1)]
        assert congruent_witness_scan_conv(a, b, c)[0].tolist() == want


def threshold_cases():
    """Largest magnitudes (ta, tb, tc) of A, B and C, one step either side of
    each dtype edge E of max(ta + tb, tc), with the dtype the scans must
    use: both the sum and C at E, both one above, and each alone above."""
    cases = []
    for edge, below, above in ((127, np.int8, np.int16), ((1 << 15) - 1, np.int16, np.int32),
                               ((1 << 31) - 1, np.int32, np.int64)):
        ta = (edge + 1) // 2
        cases += [
            ((ta, edge - ta, edge), below),
            ((ta, edge + 1 - ta, edge + 1), above),
            ((2, 3, edge + 1), above),
            ((ta, edge + 1 - ta, 5), above),
        ]
    return cases


@pytest.mark.parametrize("tops, dtype", threshold_cases())
def test_scans_exact_on_both_sides_of_each_threshold(tops, dtype):
    ta, tb, tc = tops
    # maxima exactly ta, tb, tc; a witness at the top sum when tc = ta + tb,
    # witnesses at 2 and 5, a near miss at 4
    A = np.array([[ta, 0], [0, 2]])
    B = np.array([[tb, 1, 0], [0, 2, 3]])
    C = np.array([[tc, 2, 4], [1, 2, 5]])
    a, b, c = A[:, 0], B[0, :2], np.array([tc, 7, 1])
    assert _narrow(A, B, C, (0,))[0].dtype == dtype
    assert _narrow(a, b, c, (0,))[0].dtype == dtype
    for ax in ("ij", "ik"):
        got = congruent_witness_scan(A, B, C, query_axis=ax)[0]
        assert np.array_equal(got, fused_scan_int64_oracle(A, B, C, 100, 101, ax))
        assert np.array_equal(got, witness_mask_naive(minst(A, B, C), ax))
    got = congruent_witness_scan(A, B, C)[0]
    assert got[0, 0] == (ta + tb == tc) and got[0, 1] and got[1, 2] and not got[0, 2]
    got = congruent_witness_scan_conv(a, b, c)[0]
    assert np.array_equal(got, fused_scan_conv_int64_oracle(a, b, c, 100, 101))
    assert np.array_equal(got, witness_mask_naive(cinst(a, b, c), "k"))
    assert got[0] == (ta + tb == tc) and got[2]


def shifted_threshold_cases():
    """(ta, tb, tc), shifts and the dtype the scans must use, where
    max|C| + max(s) lands one step either side of each dtype edge E: at E
    and E + 1 with the sums small, and with a witness at the top cell for
    the largest shift (ta + tb == tc + max(s)) at E and at E + 1."""
    cases = []
    for edge, below, above in ((127, np.int8, np.int16), ((1 << 15) - 1, np.int16, np.int32),
                               ((1 << 31) - 1, np.int32, np.int64)):
        ta = (edge + 1) // 2
        for shifts in ((0, 1), (0, 1, 2)):
            top = max(shifts)
            cases += [
                ((2, 3, edge - top), shifts, below),
                ((2, 3, edge + 1 - top), shifts, above),
                ((ta, edge - ta, edge - top), shifts, below),
                ((ta, edge + 1 - ta, edge + 1 - top), shifts, above),
            ]
    return cases


@pytest.mark.parametrize("tops, shifts, dtype", shifted_threshold_cases())
def test_scans_with_shifts_exact_on_both_sides_of_each_threshold(tops, shifts, dtype):
    ta, tb, tc = tops
    A = np.array([[ta, 0], [0, 2]])
    B = np.array([[tb, 1, 0], [0, 2, 3]])
    C = np.array([[tc, 2, 4], [1, 2, 5]])
    a, b, c = A[:, 0], B[0, :2], np.array([tc, 7, 1])
    assert _narrow(A, B, C, shifts)[0].dtype == dtype
    assert _narrow(a, b, c, shifts)[0].dtype == dtype
    for ax in ("ij", "ik"):
        masks = congruent_witness_scan(A, B, C, ax, shifts)
        for mask, s in zip(masks, shifts):
            assert np.array_equal(mask, witness_mask_naive(minst(A, B, C + s), ax)), s
    masks = congruent_witness_scan(A, B, C, "ij", shifts)
    conv_masks = congruent_witness_scan_conv(a, b, c, shifts)
    for mask, conv_mask, s in zip(masks, conv_masks, shifts):
        assert mask[0, 0] == conv_mask[0] == (ta + tb == tc + s)
        assert np.array_equal(conv_mask, witness_mask_naive(cinst(a, b, c + s), "k")), s
    assert masks[-1, 0, 0] == (ta + tb == tc + max(shifts))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(MODULI),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_literal_rule_equals_equality_scan_at_every_Q(M, n, m, seed):
    """The paper's three-condition rule accepts exactly the equal triples
    for every Q > 7M/100, so the equality scans decide it without a modulus:
    one fixture, several Q up to M * R."""
    rng = np.random.default_rng(seed)
    hi = int(rng.integers(1, 4 * M))
    A, B, C = planted_matrix(rng, (n, m, n), hi, M, M + 1)
    a, b, c = planted_conv(rng, n, hi, M, M + 1)
    top = M * default_range_parameter(n)
    Qs = sorted({7 * M // 100 + 1, M, M + 1, int(rng.integers(7 * M // 100 + 1, top + 1)), top})
    for ax in ("ij", "ik"):
        want = congruent_witness_scan(A, B, C, query_axis=ax)[0]
        assert np.array_equal(want, witness_mask_naive(minst(A, B, C, M=M), ax))
        for Q in Qs:
            assert np.array_equal(fused_scan_int64_oracle(A, B, C, M, Q, ax), want), Q
    want = congruent_witness_scan_conv(a, b, c)[0]
    assert np.array_equal(want, witness_mask_naive(cinst(a, b, c, M=M), "k"))
    for Q in Qs:
        assert np.array_equal(fused_scan_conv_int64_oracle(a, b, c, M, Q), want), Q


@pytest.mark.parametrize("block", [1, 5, 37, 200])
def test_scans_unchanged_by_many_blocks(monkeypatch, block):
    rng = np.random.default_rng(block)
    A, B, C = planted_matrix(rng, (9, 7, 11), 600, 100, 113)
    a, b, c = planted_conv(rng, 23, 600, 100, 113)
    whole = [congruent_witness_scan(A, B, C, ax)[0] for ax in ("ij", "ik")]
    whole_conv = congruent_witness_scan_conv(a, b, c)[0]
    monkeypatch.setattr(shifting, "SCAN_BLOCK", block)
    for ax, want in zip(("ij", "ik"), whole):
        assert np.array_equal(congruent_witness_scan(A, B, C, ax)[0], want)
        assert np.array_equal(want, fused_scan_int64_oracle(A, B, C, 100, 113, ax))
    assert np.array_equal(congruent_witness_scan_conv(a, b, c)[0], whole_conv)
    assert np.array_equal(whole_conv, fused_scan_conv_int64_oracle(a, b, c, 100, 113))


SCAN_SHIFTS = ((0,), (0, 1), (0, 1, 2))


@pytest.mark.parametrize("query_axis", ["ij", "ik"])
def test_scan_memory_bounded_by_blocks(query_axis):
    """One matrix scan at n=256 (n^3 = 16.8M triples) allocates at most the
    three narrow operand copies, one n x n mask per shift and four
    SCAN_BLOCK temporaries, so no n^3 temporary is formed, with one, two or
    three shifts."""
    n = 256
    rng = np.random.default_rng(0)
    A = rng.integers(0, 10000, (n, n))
    B = np.sort(rng.integers(1, 10000, (n, n)), axis=1)
    C = rng.integers(0, 20000, (n, n))
    item = narrow_int_dtype(20000).itemsize
    for shifts in SCAN_SHIFTS:
        peak = traced_peak(congruent_witness_scan, A, B, C, query_axis, shifts)
        assert peak <= 3 * n * n * item + len(shifts) * n * n + 4 * shifting.SCAN_BLOCK * item, shifts


def test_conv_scan_memory_bounded_by_blocks(monkeypatch):
    """One conv scan at n=4096 (16.8M pairs) allocates at most the narrow
    copies of a, b and c, one shifted copy of c and one 2n - 1 mask per
    shift, and one block: the hits of every shift (SCAN_BLOCK bools in all)
    with either the block's sums (SCAN_BLOCK / len(shifts) narrow entries)
    or one antidiagonal fold (2 SCAN_BLOCK / len(shifts) bools). The sums
    must be freed before the fold: held through it, they exceed the bound
    for one, two and three shifts at a block of 2^20 pairs, where the block
    terms dominate numpy's fixed ufunc buffer (8192 entries) that the bound
    allows for; the default block is checked too."""
    n = 4096
    rng = np.random.default_rng(0)
    a = np.sort(rng.integers(1, 10000, n))
    b = np.sort(rng.integers(1, 10000, n))
    c = rng.integers(0, 20000, 2 * n - 1)
    item = narrow_int_dtype(20000).itemsize
    for block in (shifting.SCAN_BLOCK, 1 << 20):
        monkeypatch.setattr(shifting, "SCAN_BLOCK", block)
        for shifts in SCAN_SHIFTS:
            S = len(shifts)
            peak = traced_peak(congruent_witness_scan_conv, a, b, c, shifts)
            operands = (4 + 2 * S) * n * item + 2 * n * S
            assert peak <= operands + block + max(item, 2) * block // S + 8192 * 8, (block, shifts)


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (3, 5), (5, 3), (4, 4)])
def test_antidiagonal_rows_fold_each_antidiagonal(shape):
    # Wide, tall (folded through the transpose) and square blocks, of bools
    # and of counts: every entry lands in its antidiagonal's column once.
    R, n = shape
    rng = np.random.default_rng(R * 10 + n)
    block = rng.integers(0, 5, shape)
    want = np.zeros(R + n - 1, dtype=np.int64)
    for r in range(R):
        for j in range(n):
            want[r + j] += block[r, j]
    for hit, total in ((block, want), (block > 2, None)):
        rows = antidiagonal_rows(hit)
        assert rows.shape == (min(R, n), R + n - 1) and rows.dtype == hit.dtype
        if total is None:
            total = np.array([np.count_nonzero(np.fliplr(hit).diagonal(n - 1 - t)) for t in range(R + n - 1)])
        assert np.array_equal(rows.sum(axis=0), total), hit.dtype


# --- settle_by_halving ------------------------------------------------------------

def fake_levels(hit_at):
    """level_witnesses whose mask_of(s) is hit_at(base) == s; it logs each
    level's base and the s it was asked for, which is what the benchmark's
    scan_calls counts."""
    log = []

    def level_witnesses(A, B, base):
        asked = []
        log.append((base.copy(), asked))

        def mask_of(s):
            asked.append(s)
            return hit_at(base) == s

        return mask_of

    return level_witnesses, log


A3, B3 = np.array([[3, 0]]), np.array([[2], [1]])  # levels at (3, 2), (1, 1), (0, 0)


def test_halving_without_witnesses_raises_in_test_mode_and_fills_plus_two_otherwise():
    never = lambda base: np.full(base.shape, -1)  # noqa: E731
    with pytest.raises(AssertionError, match="candidate sandwich violated"):
        settle_by_halving(A3, B3, (1, 1), fake_levels(never)[0], test_mode=True)
    levels, log = fake_levels(never)
    got = settle_by_halving(A3, B3, (1, 1), levels, test_mode=False)
    # deepest level first: base 0 settles at 2, so the top base is 4, settling at 6
    assert [int(base[0, 0]) for base, _ in log] == [0, 4]
    assert got.tolist() == [[6]]
    assert [asked for _, asked in log] == [[0, 1], [0, 1]]


@pytest.mark.parametrize("test_mode", [True, False])
def test_halving_stops_asking_once_every_cell_settles(test_mode):
    levels, log = fake_levels(lambda base: np.zeros(base.shape))
    got = settle_by_halving(A3, B3, (1, 1), levels, test_mode)
    assert got.tolist() == [[0]]
    assert [asked for _, asked in log] == [[0], [0]]


def test_halving_asks_for_plus_two_only_in_test_mode():
    rng = np.random.default_rng(5)
    A = rng.integers(0, 40, (4, 3))
    B = rng.integers(1, 40, (3, 5))
    pattern = rng.integers(0, 3, (4, 5))
    pattern[0, 0] = 2  # some cell is pending after +1 on every level
    outs = {}
    for test_mode in (True, False):
        levels, log = fake_levels(lambda base: pattern)
        outs[test_mode] = settle_by_halving(A, B, (4, 5), levels, test_mode)
        want = [0, 1, 2] if test_mode else [0, 1]
        assert all(asked == want for _, asked in log)
        base = log[-1][0]
        assert np.array_equal(outs[test_mode], base + pattern)
    assert np.array_equal(outs[True], outs[False])


def test_halving_holds_one_level_at_a_time():
    """At bound 2^40 (40 levels) the memory in use at every level stays
    within a few n x n int64 arrays: the base, the level's A >> h and B >> h
    and the masks of one level. A recursion that keeps every level's halved
    operands until the top level settles holds about 80 of them at its
    deepest level. The last level gets the caller's own arrays."""
    n = 32
    rng = np.random.default_rng(3)
    A = rng.integers(1 << 39, 1 << 40, (n, n))
    B = rng.integers(1 << 39, 1 << 40, (n, n))
    in_use, uncopied = [], []

    def level_witnesses(A_h, B_h, base):
        in_use.append(tracemalloc.get_traced_memory()[0] - start)
        uncopied.append(A_h is A and B_h is B)
        return lambda s: np.zeros(base.shape, dtype=bool)

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        settle_by_halving(A, B, (n, n), level_witnesses, test_mode=False)
    finally:
        tracemalloc.stop()
    assert len(in_use) == 40
    assert max(in_use) <= 6 * n * n * 8, max(in_use) / (n * n * 8)
    assert uncopied == [False] * 39 + [True]


def random_levels(seed, hit_rate):
    """level_witnesses whose mask_of(s) is an independent random mask per
    level and candidate, any hit pattern, consistent with a true output or
    not; and the log of the candidates each level was asked for. Two calls
    with one seed draw the same masks when their levels are asked in the
    same order."""
    rng = np.random.default_rng(seed)
    log = []

    def level_witnesses(A, B, base):
        masks = [rng.random(base.shape) < hit_rate for _ in range(3)]
        asked = []
        log.append(asked)

        def mask_of(s):
            asked.append(s)
            return masks[s].copy()

        return mask_of

    return level_witnesses, log


@pytest.mark.parametrize("test_mode", [True, False])
@pytest.mark.parametrize("hit_rate", [0.0, 0.3, 0.7, 0.97, 1.0])
def test_settle_arithmetic_equals_the_scatter_reference(test_mode, hit_rate):
    """The arithmetic settle step gives the output of one boolean-mask
    scatter per candidate, asks for the same candidates, and raises where
    the scatter reference raises, on random mask patterns."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        shape = tuple(int(v) for v in rng.integers(1, 6, 2))
        A = rng.integers(0, 50, (shape[0], 3))
        B = rng.integers(1, 50, (3, shape[1]))
        outs = []
        for settle in (settle_by_halving, settle_by_scatter_reference):
            levels, log = random_levels(seed, hit_rate)
            try:
                out = settle(A, B, shape, levels, test_mode)
            except AssertionError as e:
                out = str(e)
            outs.append((out, log))
        (got, got_log), (want, want_log) = outs
        assert got_log == want_log, seed
        if isinstance(want, str):
            assert got == want, seed
        else:
            assert np.array_equal(got, want) and got.dtype == want.dtype, seed
