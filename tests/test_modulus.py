import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (
    active_counts_by_level,
    cinst,
    conv_level_instances,
    minst,
    promised_conv,
    promised_matrix,
    row_level_instances,
    window_table,
    y_by_window_tables,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from minplus import cli, modulus
from minplus.core import ConvVerificationInstance

from minplus.modulus import (
    ModulusReport,
    YTable,
    _active_audit,
    _counting_columns,
    compute_W,
    count_X_bruteforce,
    count_Z_bruteforce,
    find_good_modulus,
    primes_in_range,
    select_prime,
)
from minplus.segments import (
    StartDeltas,
    conv_layout,
    level_start_deltas,
    levelmax_for,
    matrix_layout,
    segment_bounds,
)

# A large shift modulus: ten segment levels.
BIG_M = 10000


def test_prime_pools():
    assert primes_in_range(16).primes == (11, 13)
    assert primes_in_range(8).primes == (5, 7)
    assert primes_in_range(4).primes == (2, 3)


def test_prime_pool_rejects_tiny_range():
    with pytest.raises(ValueError):
        primes_in_range(3)


def test_every_range_has_two_primes():
    """find_good_modulus takes the pool of R as it is, so every R from the
    floor of 4 to 3000 must hold at least two primes in [ceil(R/2), R];
    for R >= 11 this is Ramanujan's R_2 = 11."""
    assert min(len(primes_in_range(R).primes) for R in range(4, 3001)) >= 2


def W_table(level, Qp):
    """compute_W at every residue of Qp."""
    return compute_W(level, Qp, np.arange(Qp))


def test_compute_W_window_11():
    W = W_table(1, 11)
    assert W[0] == 1
    assert W[3] == 2  # s in {3, -8}
    assert W[5] == 2  # s in {5, -6}
    assert W.sum() == 17


def test_compute_W_collapsed():
    assert W_table(1, 1).tolist() == [17]


def test_compute_W_at_most_two_when_period_exceeds_halfwidth():
    rng = np.random.default_rng(0)
    for _ in range(40):
        level = int(rng.integers(0, 5))
        Qp = int(rng.integers(4 << level, 200)) + 1
        W = W_table(level, Qp)
        assert W.max() <= 2
        assert W.sum() == 8 * (1 << level) + 1


def test_compute_W_closed_form_equals_the_window_table():
    rng = np.random.default_rng(8)
    for level in range(6):
        for Qp in (1, 2, 3, 4 << level, (4 << level) + 1, 8 << level, (8 << level) + 1, 1 << 20):
            assert np.array_equal(W_table(level, Qp), window_table(level, Qp)), (level, Qp)
        Qp = int(rng.integers(1, 500))
        r = rng.integers(0, Qp, size=50)
        assert np.array_equal(compute_W(level, Qp, r), window_table(level, Qp)[r])


def test_compute_W_refuses_a_modulus_below_one():
    for Qp in (0, -3, np.array([5, 0])):
        with pytest.raises(ValueError, match="positive"):
            compute_W(1, Qp, np.arange(3))


@st.composite
def start_delta_bins(draw):
    """StartDeltas of 1 to 6 levels over up to 40 bins: deltas of either sign
    (up to 2^40), weights 1 to 9, and level cuts that shrink with the level
    and may leave the last bins out of every level."""
    levels = draw(st.integers(1, 6))
    nbins = draw(st.integers(1, 40))
    big = draw(st.sampled_from([10, 10**6, 1 << 40]))

    def column(elements, dtype):
        return np.array(draw(st.lists(elements, min_size=nbins, max_size=nbins)), dtype=dtype)

    cut = sorted(draw(st.lists(st.integers(1, nbins), min_size=levels, max_size=levels)), reverse=True)
    return StartDeltas(
        values=column(st.integers(-big, big), np.int64),
        counts=column(st.integers(1, 9), np.int64),
        differ=column(st.booleans(), bool),
        cut=np.array(cut, dtype=np.int64),
    )


# SCORE_BLOCK 1 and 5 split every table into blocks of one bin; 64 into
# blocks of a few bins.
SCORE_BLOCKS = (1, 5, 64, modulus.SCORE_BLOCK)


@settings(max_examples=80, deadline=None)
@given(start_delta_bins(), st.sampled_from([8, 16, 64]), st.integers(1, 400), st.sampled_from(SCORE_BLOCKS))
def test_one_pass_scoring_equals_one_table_per_prime_and_level(deltas, R, Q_prev, block):
    pool = primes_in_range(R)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modulus, "SCORE_BLOCK", block)
        table = _counting_columns(deltas, Q_prev, pool)
    assert table.primes == pool.primes
    assert np.array_equal(table.Y, y_by_window_tables(deltas, Q_prev, pool.primes))


@settings(max_examples=80, deadline=None)
@given(start_delta_bins(), st.integers(1, 5000), st.sampled_from(SCORE_BLOCKS))
def test_one_pass_audit_equals_one_count_per_level(deltas, Q, block):
    layout = SimpleNamespace(gstarts=np.arange(4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modulus, "SCORE_BLOCK", block)
        counts, bound = _active_audit(layout, deltas, 10, Q, 5.0)
    assert counts == active_counts_by_level(deltas, Q)
    assert bound == 5.0 * 3 * 10 / Q


@pytest.mark.parametrize("kind, n", [("verify-row", 12), ("verify-conv", 96)])
def test_search_unchanged_when_its_bins_span_many_blocks(monkeypatch, kind, n):
    """A search on real start deltas gives the same Y tables, choices and
    audit with blocks of two bins as with one block."""
    inst = cli._instance_from(cli.generate_instance(kind, n, 10**6, 3, "uniform-monotone"))
    layout = conv_layout(inst) if kind == "verify-conv" else matrix_layout(inst)
    deltas = level_start_deltas(layout, levelmax_for(inst.M))
    Q, want = find_good_modulus(inst, R=64)
    monkeypatch.setattr(modulus, "SCORE_BLOCK", 2 * len(deltas.cut) * len(want.pool.primes))
    assert len(deltas.values) > 20
    got_Q, got = find_good_modulus(inst, R=64)
    assert got_Q == Q and got.to_dict() == want.to_dict()
    for a, b in zip(got.steps, want.steps):
        assert np.array_equal(a.table.Y, b.table.Y)
        assert np.array_equal(b.table.Y, y_by_window_tables(deltas, b.Q_prev, want.pool.primes))


def test_prime_pool_is_built_once_per_range():
    assert primes_in_range(16) is primes_in_range(16)
    assert primes_in_range(64).primes == (37, 41, 43, 47, 53, 59, 61)


def counting_Y(inst, Q_prev, pool, lmax):
    """The search's Y table for one step, from the instance's start deltas."""
    conv = isinstance(inst, ConvVerificationInstance)
    layout = conv_layout(inst) if conv else matrix_layout(inst)
    return _counting_columns(level_start_deltas(layout, lmax), Q_prev, pool)


def test_Y_all_zero_matrix():
    inst = minst(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((2, 2)))
    table = counting_Y(inst, 1, primes_in_range(16), levelmax_for(100))
    # one segment per (i,k); W(0) at levels 0..3 is 1,1,3,5 for both primes
    want = np.array([[6, 6], [6, 6], [18, 18], [30, 30]])
    assert np.array_equal(table.Y, want)


def test_Y_single_cell():
    inst = minst([[1]], [[2]], [[3]])
    table = counting_Y(inst, 1, primes_in_range(8), 0)
    # delta = 0, window [-4, 4], only s=0 divisible by 5 or 7
    assert table.Y[0].tolist() == [1, 1]


def brute_Y(deltas, level, Qp):
    s = np.arange(-(4 << level), (4 << level) + 1)
    return int(((deltas[:, None] - s[None, :]) % Qp == 0).sum())


def level_deltas_of(inst, conv=False):
    """Per level, the multiset of segment-start deltas expanded to an array."""
    layout = conv_layout(inst) if conv else matrix_layout(inst)
    d = level_start_deltas(layout, levelmax_for(100))
    return [np.repeat(d.values[:c], d.counts[:c]) for c in d.cut]


def test_Y_matches_enumeration_matrix():
    rng = np.random.default_rng(1)
    pool = primes_in_range(16)
    lmax = levelmax_for(100)
    for _ in range(6):
        na, nb, nc = rng.integers(1, 5, 3)
        inst = promised_matrix(rng, na, nb, nc)
        deltas = level_deltas_of(inst)
        for Q_prev in (1, 11):
            table = counting_Y(inst, Q_prev, pool, lmax)
            for pi, p in enumerate(pool.primes):
                for level in range(lmax + 1):
                    want = brute_Y(deltas[level], level, Q_prev * p)
                    assert table.Y[level, pi] == want


def test_Y_matches_enumeration_conv():
    rng = np.random.default_rng(2)
    pool = primes_in_range(16)
    lmax = levelmax_for(100)
    for _ in range(6):
        n = int(rng.integers(1, 8))
        inst = promised_conv(rng, n)
        deltas = level_deltas_of(inst, conv=True)
        for Q_prev in (1, 13):
            table = counting_Y(inst, Q_prev, pool, lmax)
            for pi, p in enumerate(pool.primes):
                for level in range(lmax + 1):
                    want = brute_Y(deltas[level], level, Q_prev * p)
                    assert table.Y[level, pi] == want


def test_Y_conv_constant_arrays():
    # C equals the exact min-plus convolution, so every start has delta 0
    n = 4
    inst = cinst([5] * n, [5] * n, [10] * (2 * n - 1))
    table = counting_Y(inst, 1, primes_in_range(16), 0)
    assert table.Y[0].tolist() == [2 * n - 1, 2 * n - 1]


def test_select_prime_single_level():
    pool = primes_in_range(16)
    table = YTable(primes=pool.primes, Y=np.array([[5, 7]]))
    assert select_prime(table, pool) == 11


def test_select_prime_tie_takes_smallest():
    pool = primes_in_range(16)
    table = YTable(primes=pool.primes, Y=np.array([[4, 4], [9, 9]]))
    assert select_prime(table, pool) == 11


def test_select_prime_two_levels():
    pool = primes_in_range(16)
    table = YTable(primes=pool.primes, Y=np.array([[5, 6], [9, 7]]))
    # Phi(11) = max(0, 2) = 2, Phi(13) = max(1, 0) = 1
    assert select_prime(table, pool) == 13


def test_find_good_modulus_all_zero():
    inst = minst(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    Q, report = find_good_modulus(inst, R=16, test_mode=True)
    assert Q == 121
    assert report.primes == (11, 11)
    assert report.q_values == (11, 121)


def test_find_good_modulus_small_pool():
    inst = minst(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    Q, report = find_good_modulus(inst, R=4, test_mode=True)
    assert len(report.primes) <= 7
    assert 100 <= Q <= 400
    assert Q // report.primes[-1] < 100


def test_find_good_modulus_invariants_random():
    rng = np.random.default_rng(3)
    for _ in range(8):
        na, nb, nc = rng.integers(1, 6, 3)
        inst = promised_matrix(rng, na, nb, nc)
        Q, report = find_good_modulus(inst, R=16, test_mode=True)
        assert 100 <= Q <= 1600
        for step, p in zip(report.steps, report.primes):
            assert step.chosen == p
            phi = (step.table.Y - step.table.ystar[:, None]).max(axis=0)
            pi = step.table.primes.index(p)
            assert phi[pi] == phi.min()


def test_report_validates_first_crossing():
    inst = minst(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    _, report = find_good_modulus(inst, R=16, test_mode=True)
    with pytest.raises(ValueError):
        ModulusReport(
            M=report.M,
            R=report.R,
            pool=report.pool,
            primes=(11, 11, 11),
            q_values=(11, 121, 1331),
            steps=report.steps,
            Q=1331,
            active_counts=report.active_counts,
            level_segments=report.level_segments,
            audit_bounds=report.audit_bounds,
            audit_ok=True,
            slack=report.slack,
        )


def test_X_identity_matrix():
    rng = np.random.default_rng(4)
    lmax = levelmax_for(100)
    for _ in range(8):
        na, nb, nc = rng.integers(1, 6, 3)
        inst = promised_matrix(rng, na, nb, nc)
        _, report = find_good_modulus(inst, R=16, test_mode=True)
        for step in report.steps:
            for pi, p in enumerate(step.table.primes):
                for level in range(lmax + 1):
                    X = count_X_bruteforce(inst, step.Q_prev * p, level)
                    Z = count_Z_bruteforce(inst, level)
                    assert X == step.table.Y[level, pi] - Z


def test_X_identity_conv():
    rng = np.random.default_rng(5)
    lmax = levelmax_for(100)
    for _ in range(8):
        n = int(rng.integers(1, 9))
        inst = promised_conv(rng, n)
        _, report = find_good_modulus(inst, R=16, test_mode=True)
        for step in report.steps:
            for pi, p in enumerate(step.table.primes):
                for level in range(lmax + 1):
                    X = count_X_bruteforce(inst, step.Q_prev * p, level)
                    Z = count_Z_bruteforce(inst, level)
                    assert X == step.table.Y[level, pi] - Z


def test_X_all_zero_is_zero():
    inst = minst(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    for level in range(levelmax_for(100) + 1):
        assert count_X_bruteforce(inst, 121, level) == 0


def test_X_modulus_one_counts_everything_but_exact_hits():
    rng = np.random.default_rng(6)
    inst = promised_matrix(rng, 3, 3, 3)
    for level in (0, 2):
        window = 8 * (1 << level) + 1
        X = count_X_bruteforce(inst, 1, level)
        Z = count_Z_bruteforce(inst, level)
        n_segs = brute_Y(level_deltas_of(inst)[level], level, 1) // window
        assert X == n_segs * window - Z


def test_brute_force_size_guard():
    inst = minst(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        count_X_bruteforce(inst, 121, 0, limit=4)


def test_active_counts_bounded_by_X():
    rng = np.random.default_rng(7)
    for _ in range(6):
        na, nb, nc = rng.integers(1, 6, 3)
        inst = promised_matrix(rng, na, nb, nc)
        Q, report = find_good_modulus(inst, R=16, test_mode=True)
        for level, count in enumerate(report.active_counts):
            assert count <= count_X_bruteforce(inst, Q, level)


def test_report_round_trips_to_dict():
    inst = minst(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    _, report = find_good_modulus(inst, R=16, test_mode=True)
    d = report.to_dict()
    assert d["Q"] == 121
    assert d["primes"] == [11, 11]
    assert d["audit_ok"] is True


@pytest.mark.parametrize("kind, n", [("product-row", 256), ("conv", 4096)])
def test_search_memory_bounded_by_segment_starts(kind, n):
    """One search on the top level instance of a det solve allocates at most
    the operands again and 32 bytes per level-0 segment start: nothing grows
    with the n^3 (matrix) or n^2 (conv) cells, of which the starts are a few
    percent."""
    conv = kind == "conv"
    levels = conv_level_instances if conv else row_level_instances
    _, inst = next(levels(cli.generate_instance(kind, n, n, 1, "uniform-monotone")))
    operands = (inst.A.values, inst.B.values, inst.C.values) if conv else (inst.A, inst.B, inst.C)
    layout = conv_layout(inst) if conv else matrix_layout(inst)
    starts = len(segment_bounds(layout, 0)[0])
    cells = layout.size
    del layout
    tracemalloc.start()
    try:
        find_good_modulus(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = sum(x.nbytes for x in operands) + 32 * starts
    assert starts < cells // 10
    assert peak <= budget, (peak, budget)


@pytest.mark.parametrize("kind, n", [("verify-row", 48), ("verify-conv", 512)])
def test_search_memory_bounded_when_every_start_has_its_own_delta(kind, n):
    """The worst case for the start-delta bins: M = BIG_M (ten levels),
    entries up to 10^12 and a break at every column, so every cell starts a
    segment and nearly every start has a delta of its own. One search then
    allocates at most the operands, the layout's 9 bytes per start and five
    int64 per start for the deltas, their keys and the bins."""
    conv = kind == "verify-conv"
    inst = cli._instance_from(cli.generate_instance(kind, n, 10**12, 1, "uniform-monotone", M=BIG_M))
    operands = (inst.A.values, inst.B.values, inst.C.values) if conv else (inst.A, inst.B, inst.C)
    layout = conv_layout(inst) if conv else matrix_layout(inst)
    starts = len(layout.starts)
    distinct = len(np.unique(level_start_deltas(layout, levelmax_for(BIG_M)).values))
    del layout
    tracemalloc.start()
    try:
        find_good_modulus(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = sum(x.nbytes for x in operands) + (9 + 5 * 8) * starts
    assert distinct > 0.9 * starts
    assert peak <= budget, (peak, budget)
