from functools import partial

import numpy as np
import pytest
from helpers import all_shift_pairs, cinst, promised_conv
from hypothesis import given, settings
from hypothesis import strategies as st

from minplus import cli
from minplus.config import SolverConfig
from minplus.convolution import (
    _conv_level,
    _shift_instance_conv,
    compute_s_array,
    minplus_conv_monotone,
    solve_verification_conv,
)
from minplus.core import (
    INT64_GUARD,
    MonotoneTag,
    PromiseViolationError,
    minplus_convolution_naive,
    validate_instance,
    witness_mask_naive,
)
from minplus.shifting import congruent_witness_scan_conv, residue_class, settle_by_halving

TAG = MonotoneTag(axis="array-monotone", entry_bound=50)


def random_conv_inputs(rng, max_n=20, max_bound=50):
    n = int(rng.integers(1, max_n))
    bound = int(rng.integers(1, max_bound))
    a = np.sort(rng.integers(1, bound + 1, n))
    b = np.sort(rng.integers(1, bound + 1, n))
    return a, b, MonotoneTag(axis="array-monotone", entry_bound=bound)


def test_shift_entry_157_class_57():
    a = np.array([157])
    inst = _shift_instance_conv(a - 100, a - 100, np.array([0]), 100, 57, 57)
    assert inst.A.values[0] == 100


def test_shifted_arrays_stay_monotone_and_promised():
    rng = np.random.default_rng(0)
    a = np.sort(rng.integers(0, 900, 8))
    b = np.sort(rng.integers(0, 900, 8))
    c = minplus_convolution_naive(a, b).values
    live_a = set(np.unique(residue_class(a + 100, 100)).tolist())
    live_b = set(np.unique(residue_class(b + 100, 100)).tolist())
    seen = 0
    for s, t, inst in all_shift_pairs(a, b, c, conv=True):
        if s not in live_a or t not in live_b:
            continue
        seen += 1
        assert validate_instance(inst).ok
    assert seen >= 1


def test_shift_union_reproduces_naive_witnesses():
    rng = np.random.default_rng(1)
    for _ in range(3):
        n = int(rng.integers(1, 9))
        a = np.sort(rng.integers(0, 300, n))
        b = np.sort(rng.integers(0, 300, n))
        c = minplus_convolution_naive(a, b).values + rng.integers(0, 2, 2 * n - 1)
        want = witness_mask_naive(cinst(a, b, c), "k")
        got = np.zeros_like(want)
        for s, t, inst in all_shift_pairs(a, b, c, conv=True):
            got |= witness_mask_naive(inst, "k")
        assert np.array_equal(got, want)


# --- congruent-pair counting ------------------------------------------------------


def test_s_array_frozen_tiny():
    inst = cinst([1, 2], [1, 1], [2, 2, 3])
    assert compute_s_array(inst, 5).tolist() == [1, 1, 1]


def test_s_array_modulus_one_counts_valid_pairs():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 7):
        a = np.sort(rng.integers(0, 40, n))
        b = np.sort(rng.integers(0, 40, n))
        c = rng.integers(0, 80, 2 * n - 1)
        got = compute_s_array(cinst(a, b, c), 1)
        k = np.arange(2, 2 * n + 1)
        want = np.minimum(np.minimum(k - 1, 2 * n + 1 - k), n)
        assert np.array_equal(got, want)


def test_s_array_matches_double_loop():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        Q = int(rng.integers(2, 40))
        a = np.sort(rng.integers(0, 500, n))
        b = np.sort(rng.integers(0, 500, n))
        c = rng.integers(0, 1000, 2 * n - 1)
        want = np.zeros(2 * n - 1, dtype=np.int64)
        for i in range(n):
            for j in range(n):
                if (a[i] + b[j] - c[i + j]) % Q == 0:
                    want[i + j] += 1
        assert np.array_equal(compute_s_array(cinst(a, b, c), Q), want)


# --- verification solver ----------------------------------------------------------


def promised_conv_exact(rng, n, M=100, hi=4):
    """Promised instance whose C is the true convolution of A and B."""
    res = lambda k: rng.integers(0, M // 20 + 1, k, dtype=np.int64)
    a = np.sort(M * rng.integers(0, hi, n, dtype=np.int64) + res(n))
    b = np.sort(M * rng.integers(0, hi, n, dtype=np.int64) + res(n))
    c = minplus_convolution_naive(a, b).values
    return cinst(a, b, c, M=M)


def test_conv_solver_matches_witness_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 14))
        inst = promised_conv(rng, n)
        assert np.array_equal(solve_verification_conv(inst), witness_mask_naive(inst, "k"))


def test_conv_solver_all_true_on_exact_instances():
    rng = np.random.default_rng(5)
    for _ in range(10):
        inst = promised_conv_exact(rng, int(rng.integers(1, 12)))
        assert solve_verification_conv(inst).all()


def test_conv_solver_all_false_below_reach():
    rng = np.random.default_rng(6)
    inst = promised_conv_exact(rng, 8, hi=5)
    low = cinst(inst.A.values, inst.B.values, np.maximum(inst.C.values - 100, 0))
    assert not solve_verification_conv(low).any()


def test_conv_solver_single_witness():
    assert solve_verification_conv(cinst([100], [200], [300])).all()
    assert not solve_verification_conv(cinst([100], [200], [301])).any()


def test_conv_s_dominates_s_prime():
    rng = np.random.default_rng(7)
    from minplus.modulus import find_good_modulus
    from minplus.segments import active_level0_bounds, conv_layout, levelmax_for, sprime_conv_flat

    for _ in range(10):
        inst = promised_conv(rng, 9)
        Q, _ = find_good_modulus(inst)
        s = compute_s_array(inst, Q)
        layout = conv_layout(inst)
        starts, ends = active_level0_bounds(layout, levelmax_for(inst.M), Q)
        s_prime = sprime_conv_flat(layout, starts, ends, Q)
        assert (s >= s_prime).all()


def test_promised_triples_split_small_or_large():
    # every A_i + B_j - C_{i+j} on a promised instance is either within
    # 3M/10 of zero or at least 7M/10 away
    rng = np.random.default_rng(8)
    for _ in range(10):
        inst = promised_conv(rng, 10)
        a, b, c = inst.A.values, inst.B.values, inst.C.values
        n = a.shape[0]
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        d = np.abs(a[i] + b[j] - c[i + j])
        M = inst.M
        assert ((d <= 3 * M // 10) | (d >= 7 * M // 10)).all()


def test_conv_scan_matches_oracle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        a = rng.integers(0, 600, n)
        b = rng.integers(0, 600, n)
        c = rng.integers(0, 1200, 2 * n - 1)
        got = congruent_witness_scan_conv(a, b, c)[0]
        assert np.array_equal(got, witness_mask_naive(cinst(a, b, c), "k"))


# --- end-to-end driver ------------------------------------------------------------


def test_conv_frozen_tiny():
    got = minplus_conv_monotone([1, 2], [1, 1], MonotoneTag(axis="array-monotone", entry_bound=2))
    assert got.values.tolist() == [2, 2, 3]
    assert got.origin == 2


def test_conv_constant_arrays():
    got = minplus_conv_monotone([7] * 5, [7] * 5, MonotoneTag(axis="array-monotone", entry_bound=7))
    assert (got.values == 14).all()


@pytest.mark.parametrize("engine", ["det", "naive"])
def test_conv_matches_naive(engine):
    rng = np.random.default_rng(10)
    for _ in range(20):
        a, b, tag = random_conv_inputs(rng)
        cfg = SolverConfig(engine=engine, test_mode=engine != "naive")
        got = minplus_conv_monotone(a, b, tag, cfg)
        assert np.array_equal(got.values, minplus_convolution_naive(a, b).values)


def test_conv_reference_engine_matches_naive():
    # the literal per-pair pipeline is slow; keep the instances tiny
    rng = np.random.default_rng(16)
    for _ in range(8):
        a, b, tag = random_conv_inputs(rng, max_n=7, max_bound=10)
        cfg = SolverConfig(engine="det-reference", test_mode=True)
        got = minplus_conv_monotone(a, b, tag, cfg)
        assert np.array_equal(got.values, minplus_convolution_naive(a, b).values)


def test_conv_large_entries():
    rng = np.random.default_rng(11)
    bound = 10**6
    a = np.sort(rng.integers(1, bound + 1, 40))
    b = np.sort(rng.integers(1, bound + 1, 40))
    tag = MonotoneTag(axis="array-monotone", entry_bound=bound)
    got = minplus_conv_monotone(a, b, tag)
    assert np.array_equal(got.values, minplus_convolution_naive(a, b).values)


def test_conv_rejects_wrong_tag_axis():
    with pytest.raises(ValueError):
        minplus_conv_monotone([1], [1], MonotoneTag(axis="row-monotone", entry_bound=1))


def test_conv_rejects_broken_promise():
    with pytest.raises(PromiseViolationError) as exc:
        minplus_conv_monotone([2, 1], [1, 1], MonotoneTag(axis="array-monotone", entry_bound=2))
    assert exc.value.coord == (1,)


def test_conv_rejects_length_mismatch():
    from minplus.core import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        minplus_conv_monotone([1, 2], [1], MonotoneTag(axis="array-monotone", entry_bound=2))


def test_conv_output_attains_minimum():
    rng = np.random.default_rng(12)
    a, b, tag = random_conv_inputs(rng)
    out = minplus_conv_monotone(a, b, tag).values
    n = a.shape[0]
    for t in range(2 * n - 1):
        i = np.arange(max(0, t - (n - 1)), min(n - 1, t) + 1)
        sums = a[i] + b[t - i]
        assert (out[t] <= sums).all() and out[t] == sums.min()


def test_conv_deterministic_reruns():
    rng = np.random.default_rng(13)
    a, b, tag = random_conv_inputs(rng, max_n=40)
    first = minplus_conv_monotone(a, b, tag).values
    second = minplus_conv_monotone(a, b, tag).values
    assert first.tobytes() == second.tobytes()


@pytest.mark.parametrize("engine,max_n", [("det", 20), ("det-reference", 7)])
@pytest.mark.parametrize("M", [100, 300, 1000])
@pytest.mark.parametrize("bound", [9, 30000])
def test_conv_does_not_depend_on_M(engine, max_n, M, bound):
    """The driver's recursion with the shift modulus M in place of SHIFT_M
    gives the same convolution: M sets only how candidates are shifted.
    30000 is past 22500, above which M used to be picked larger than 100."""
    config = SolverConfig(engine=engine, test_mode=True)
    level = partial(_conv_level, M=M, config=config)
    rng = np.random.default_rng(bound + M)
    for _ in range(3):
        n = int(rng.integers(1, max_n))
        a = np.sort(rng.integers(1, bound + 1, n))
        b = np.sort(rng.integers(1, bound + 1, n))
        got = settle_by_halving(a, b, (2 * n - 1,), level, test_mode=True)
        assert np.array_equal(got, minplus_convolution_naive(a, b).values)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 6),
    bound=st.integers(1, 15),
)
def test_conv_matches_naive_property(data, n, bound):
    a = np.sort(np.array(data.draw(st.lists(st.integers(1, bound), min_size=n, max_size=n))))
    b = np.sort(np.array(data.draw(st.lists(st.integers(1, bound), min_size=n, max_size=n))))
    tag = MonotoneTag(axis="array-monotone", entry_bound=bound)
    got = minplus_conv_monotone(a, b, tag, SolverConfig(test_mode=True))
    assert np.array_equal(got.values, minplus_convolution_naive(a, b).values)


@pytest.mark.parametrize("family", cli.FAMILIES)
@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(1, 9),
    bound=st.one_of(st.integers(1, 64), st.integers(1, INT64_GUARD // 8 - 1), st.just(INT64_GUARD // 8 - 1)),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_driver_matches_naive_on_every_family(family, n, bound, seed):
    rng = np.random.default_rng(seed)
    a = cli._family_rows(rng, family, 1, n, bound, monotone=True)[0]
    b = cli._family_rows(rng, family, 1, n, bound, monotone=True)[0]
    tag = MonotoneTag(axis="array-monotone", entry_bound=bound)
    got = minplus_conv_monotone(a, b, tag, SolverConfig(test_mode=True))
    assert np.array_equal(got.values, minplus_convolution_naive(a, b).values)
