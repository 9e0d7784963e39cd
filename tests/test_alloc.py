import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparse_isac as si
from reference import brute_force_differences, dense_mask, fft_filled, per_symbol_indices, per_trial_member
from sparse_isac.alloc import _check_number, _hole_fill_trials, nested_params_for


def make_params(n, m=4):
    return si.OfdmParams(
        n_subcarriers=n, n_symbols=m, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9
    )


class TestOfdmParams:
    def test_derived_quantities(self):
        p = make_params(256, 32)
        assert p.symbol_core_s == 1.0 / 120e3
        assert p.symbol_dur_s == p.symbol_core_s  # no CP
        assert p.bandwidth_hz == 256 * 120e3

    def test_cp_adds_to_duration(self):
        p = si.OfdmParams(64, 4, 120e3, 24e9, cp_len_s=1e-6)
        assert p.symbol_dur_s == pytest.approx(1.0 / 120e3 + 1e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_subcarriers=1),
            dict(n_symbols=0),
            dict(subcarrier_spacing_hz=0.0),
            dict(carrier_freq_hz=-1.0),
            dict(cp_len_s=-1e-9),
            dict(subcarrier_spacing_hz=float("nan")),
            dict(subcarrier_spacing_hz=float("inf")),
            dict(carrier_freq_hz=float("-inf")),
            dict(cp_len_s=float("nan")),
            dict(cp_len_s=float("inf")),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        base = dict(
            n_subcarriers=64, n_symbols=4, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            si.OfdmParams(**base)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_subcarriers=True),
            dict(n_subcarriers=64.0),
            dict(n_symbols="4"),
            dict(subcarrier_spacing_hz="120e3"),
            dict(carrier_freq_hz=None),
            dict(cp_len_s=False),
        ],
    )
    def test_wrong_type_rejected_naming_field(self, kwargs):
        base = dict(
            n_subcarriers=64, n_symbols=4, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9
        )
        base.update(kwargs)
        with pytest.raises(TypeError, match=f"^{next(iter(kwargs))}: "):
            si.OfdmParams(**base)

    @pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024])
    def test_float_field_rejects_an_integer_beyond_float_range(self, value):
        with pytest.raises(ValueError, match="^cp_len_s: must be finite, got an integer beyond"):
            si.OfdmParams(64, 4, 120e3, 24e9, cp_len_s=value)

    def test_integers_are_compared_exactly(self):
        # never converted to float: 2**53 + 1 would round down to 2**53
        p = si.OfdmParams(64, 2**53 // 64, 120e3, 24e9, cp_len_s=10**300)
        assert p.n_symbols == 2**47 and p.cp_len_s == 10**300
        with pytest.raises(ValueError, match=r"^n_symbols: must be <= 9007199254740992, got 9007199254740993$"):
            si.OfdmParams(2, 2**53 + 1, 120e3, 24e9)
        assert _check_number("x", 2**53 + 1, integer=True, maximum=2**53 + 1) == 2**53 + 1
        with pytest.raises(ValueError, match=r"^x: must be <= 9007199254740992"):
            _check_number("x", 2**53 + 1, integer=True, maximum=2**53)

    @pytest.mark.parametrize(
        "n, m, field",
        [(10**400, 4, "n_subcarriers"), (64, 2**63, "n_symbols"), (2**27, 2**27, "n_symbols x n_subcarriers")],
    )
    def test_sizes_are_bounded(self, n, m, field):
        # the bound keeps a grid's byte count below NumPy's limit, so a larger
        # size is refused here and not by a ValueError from NumPy later
        with pytest.raises(ValueError, match=rf"^{field}: must be <= 9007199254740992, got "):
            si.OfdmParams(n, m, 120e3, 24e9)


class TestMakeAllocation:
    def test_full_pattern(self):
        alloc = si.make_allocation(make_params(8), "full")
        for idx in per_symbol_indices(alloc):
            assert np.array_equal(idx, np.arange(8))

    def test_nested_example(self):
        alloc = si.make_allocation(make_params(12), "nested", inner=3, outer=3)
        assert np.array_equal(alloc.indices, [0, 1, 2, 3, 7, 11])

    def test_nested_difference_coverage(self):
        # canonical nested construction fills every lag (brute-force check)
        alloc = si.make_allocation(make_params(12), "nested", inner=3, outer=3)
        diffs = brute_force_differences(alloc.indices)
        assert all(s in diffs for s in range(-11, 12))

    def test_random_contains_band_edges(self):
        alloc = si.make_allocation(make_params(1000), "random", n_active=200, seed=3)
        assert alloc.n_active == 200
        assert alloc.indices[0] == 0
        assert alloc.indices[-1] == 999

    def test_random_deterministic_per_seed(self):
        p = make_params(128)
        a = si.make_allocation(p, "random", n_active=32, seed=5)
        b = si.make_allocation(p, "random", n_active=32, seed=5)
        c = si.make_allocation(p, "random", n_active=32, seed=6)
        assert np.array_equal(a.indices, b.indices)
        assert not np.array_equal(a.indices, c.indices)

    def test_random_cardinality_bounds(self):
        p = make_params(16)
        with pytest.raises(ValueError):
            si.make_allocation(p, "random", n_active=1, seed=0)
        with pytest.raises(ValueError):
            si.make_allocation(p, "random", n_active=17, seed=0)

    def test_comb_pattern(self):
        alloc = si.make_allocation(make_params(16), "comb", stride=4)
        assert np.array_equal(alloc.indices, [0, 4, 8, 12])

    def test_coprime_pattern_union(self):
        alloc = si.make_allocation(make_params(36), "coprime", p=4, q=9)
        expect = np.union1d(np.arange(0, 36, 4), np.arange(0, 36, 9))
        assert np.array_equal(alloc.indices, expect)

    def test_coprime_rejects_common_factor(self):
        with pytest.raises(ValueError):
            si.make_allocation(make_params(36), "coprime", p=4, q=6)

    def test_nested_overflow_rejected(self):
        with pytest.raises(ValueError):
            si.make_allocation(make_params(12), "nested", inner=3, outer=4)

    @pytest.mark.parametrize(
        "pattern, kwargs, error",
        [
            ("random", dict(n_active=True), TypeError),
            ("random", dict(n_active=8.0), TypeError),
            ("random", dict(), TypeError),
            ("comb", dict(stride=float("nan")), TypeError),
            ("coprime", dict(p=None, q=3), TypeError),
            ("nested", dict(inner=0, outer=3), ValueError),
            ("custom", dict(indices=[1.5, 3.0]), TypeError),
            ("custom", dict(indices="x"), TypeError),
            ("custom", dict(indices={"a": 1}), TypeError),
            ("custom", dict(indices=[0, 999]), ValueError),
        ],
    )
    def test_bad_pattern_argument_named(self, pattern, kwargs, error):
        field = next(iter(kwargs), "n_active")
        with pytest.raises(error, match=f"^{field}: "):
            si.make_allocation(make_params(16), pattern, seed=0, **kwargs)

    def test_custom_per_symbol_sets_that_agree_need_two_subcarriers(self):
        params = make_params(16, m=3)
        with pytest.raises(ValueError, match="fewer than 2 active subcarriers"):
            si.make_allocation(params, "custom", indices=[[5], [5], [5]])
        alloc = si.make_allocation(params, "custom", indices=[[5, 1]] * 3)
        assert alloc.is_constant and np.array_equal(alloc.indices, [1, 5])
        assert not si.make_allocation(params, "custom", indices=[[5], [5], [6]]).is_constant

    def test_custom_deduplicates_and_sorts(self):
        alloc = si.make_allocation(make_params(16), "custom", indices=[5, 1, 5, 9])
        assert np.array_equal(alloc.indices, [1, 5, 9])

    def test_same_set_every_symbol(self):
        alloc = si.make_allocation(make_params(64, m=7), "random", n_active=10, seed=0)
        assert alloc.n_symbols == 7
        assert alloc.is_constant

    def test_nested_params_helper_fits(self):
        inner, outer = nested_params_for(64, 256)
        assert inner + outer == 64
        assert (inner + 1) * outer - 1 <= 255


@st.composite
def per_symbol_sets(draw):
    """(index lists, N): M from 1 to 70 (past one _ROW_BLOCK of symbols) and
    N from 1 to 40, as equal sets in distinct objects, sets that differ in
    one symbol only, the full band or independent sets."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 70))
    one_set = st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)
    kind = draw(st.sampled_from(["equal", "one_differs", "full", "independent"]))
    if kind == "independent":
        return draw(st.lists(one_set, min_size=m, max_size=m)), n
    base = list(range(n)) if kind == "full" else draw(one_set)
    sets = [list(base) for _ in range(m)]  # distinct objects
    if kind == "one_differs":
        sets[draw(st.integers(0, m - 1))] = draw(one_set)
    return sets, n


def check_views_against_loops(per_symbol, n):
    alloc = si.ResourceAllocation(
        per_symbol_indices=tuple(np.array(s) for s in per_symbol), n_subcarriers=n
    )
    sets = [sorted(set(s)) for s in per_symbol]
    expect_mask = dense_mask(sets, n)
    expect_cols = np.concatenate([np.array(s, dtype=np.int64) for s in sets])
    cards = [len(s) for s in sets]
    assert np.array_equal(alloc.cols, expect_cols)
    assert np.array_equal(alloc.cols, np.nonzero(expect_mask)[1])
    assert np.array_equal(alloc.rows, np.nonzero(expect_mask)[0])
    assert np.array_equal(alloc.starts, np.concatenate([[0], np.cumsum(cards)]))
    assert np.array_equal(alloc.cardinalities(), cards)
    assert np.array_equal(alloc.column_counts(), expect_mask.sum(axis=0))
    assert alloc.n_symbols == len(sets)
    assert alloc.is_constant == all(s == sets[0] for s in sets)
    assert len(per_symbol_indices(alloc)) == len(sets)
    for stored, s in zip(per_symbol_indices(alloc), sets):
        assert stored.tolist() == s
    assert not (alloc.indices if alloc.is_constant else alloc.cols).flags.writeable
    if alloc.is_constant:
        assert alloc.indices.tolist() == sets[0]
        assert alloc.n_active == len(sets[0])
    # equal to itself rebuilt from copies, and to the constant form of one set
    assert alloc == si.ResourceAllocation(tuple(np.array(s) for s in sets), n)
    assert (alloc == si.ResourceAllocation.constant(sets[0], len(sets), n)) == alloc.is_constant


PER_SYMBOL_CASES = [
    [[1, 4, 9]] * 5,  # equal content, distinct objects
    [[1, 4, 9], [0, 15], [1, 4, 9], [2, 3, 5, 7], [15]],
    [[9, 1, 4, 4], [4, 9, 1]],  # unsorted and duplicated, same set
    [[1, 4, 9]] * 3 + [[1, 4]] + [[1, 4, 9]] * 3,  # one symbol differs
    [list(range(16))] * 3,  # full band
]


class TestResourceAllocation:
    @pytest.mark.parametrize("per_symbol", PER_SYMBOL_CASES)
    def test_derived_views_match_per_symbol_loops(self, per_symbol):
        check_views_against_loops(per_symbol, 16)

    @given(per_symbol_sets())
    @settings(max_examples=150, deadline=None)
    def test_derived_views_match_per_symbol_loops_generated(self, case):
        check_views_against_loops(*case)

    def test_constant_costs_no_work_per_symbol(self):
        idx = np.arange(0, 64, 3)
        si.ResourceAllocation.constant(idx, 4, 64)  # warm up
        tracemalloc.start()
        try:
            alloc = si.ResourceAllocation.constant(idx, 10**6, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert alloc.n_symbols == 10**6 and alloc.is_constant
        assert alloc == si.ResourceAllocation.constant(idx.tolist(), 10**6, 64)
        assert alloc != si.ResourceAllocation.constant(idx, 10**6 - 1, 64)

    @pytest.mark.parametrize("per_symbol", [*PER_SYMBOL_CASES, "constant"])
    def test_mask_is_the_dense_mask(self, per_symbol):
        """The one test of `mask()`: the reference mask of the index sets,
        a new array on each call, so writing to one leaks nowhere."""
        if per_symbol == "constant":
            alloc, per_symbol = si.ResourceAllocation.constant([7, 2, 7, 0], 6, 16), [[0, 2, 7]] * 6
        else:
            alloc = si.ResourceAllocation(tuple(np.array(s) for s in per_symbol), 16)
        want = dense_mask(per_symbol, 16)
        mask = alloc.mask()
        assert mask.dtype == bool and np.array_equal(mask, want)
        mask[0] = ~mask[0]
        assert np.array_equal(alloc.mask(), want)

    def test_constant_shares_one_array(self):
        alloc = si.ResourceAllocation.constant([7, 2, 7, 0], 6, 8)
        assert alloc.is_constant
        assert alloc.indices is alloc.indices  # one stored set, not a copy per read
        assert np.array_equal(alloc.cardinalities(), [3] * 6)
        assert np.array_equal(alloc.column_counts(), [6, 0, 6, 0, 0, 0, 0, 6])

    @pytest.mark.parametrize("pattern", ["full", "random", "nested", "per_symbol"])
    def test_column_counts_match_bincount(self, pattern):
        params = make_params(64, m=7)
        if pattern == "per_symbol":
            rng = np.random.default_rng(4)
            alloc = si.ResourceAllocation(
                per_symbol_indices=tuple(rng.choice(64, size=9, replace=False) for _ in range(7)),
                n_subcarriers=64,
            )
            assert not alloc.is_constant
        else:
            kwargs = {"full": {}, "random": dict(n_active=12, seed=2), "nested": dict(inner=3, outer=4)}
            alloc = si.make_allocation(params, pattern, **kwargs[pattern])
            assert alloc.is_constant
        want = np.bincount(np.concatenate(per_symbol_indices(alloc)), minlength=64)
        got = alloc.column_counts()
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad",[[0, 8], [-1, 3], []])
    def test_bad_index_in_any_symbol_raises(self, bad):
        good = np.array([0, 3])
        for pos in range(3):
            per_symbol = [good, good, good]  # other symbols share one object
            per_symbol[pos] = np.array(bad, dtype=np.int64)
            with pytest.raises(ValueError):
                si.ResourceAllocation(per_symbol_indices=tuple(per_symbol), n_subcarriers=8)
        with pytest.raises(ValueError):
            si.ResourceAllocation.constant(bad, 4, 8)

    @pytest.mark.parametrize(
        "name, n_symbols, n_subcarriers, error",
        [
            ("n_subcarriers", 2, 2.5, TypeError),
            ("n_subcarriers", 2, float("nan"), TypeError),
            ("n_subcarriers", 2, True, TypeError),
            ("n_subcarriers", 2, 0, ValueError),
            ("n_subcarriers", 2, "8", TypeError),
            ("n_symbols", True, 8, TypeError),
            ("n_symbols", 2.5, 8, TypeError),
            ("n_symbols", float("nan"), 8, TypeError),
            ("n_symbols", 0, 8, ValueError),
            ("n_symbols", -1, 8, ValueError),
        ],
    )
    def test_bad_dimensions_raise_naming_them(self, name, n_symbols, n_subcarriers, error):
        with pytest.raises(error, match=f"^{name}: "):
            si.ResourceAllocation.constant([0, 1], n_symbols, n_subcarriers)
        if name == "n_subcarriers":
            with pytest.raises(error, match=f"^{name}: "):
                si.ResourceAllocation(per_symbol_indices=([0, 1], [1]), n_subcarriers=n_subcarriers)

    def test_no_symbols_raises(self):
        with pytest.raises(ValueError, match="^n_symbols: "):
            si.ResourceAllocation(per_symbol_indices=(), n_subcarriers=8)

    def test_input_mutation_does_not_leak(self):
        src = np.array([1, 5, 6])
        const = si.ResourceAllocation.constant(src, 3, 8)
        varying = si.ResourceAllocation(per_symbol_indices=(src, np.array([2])), n_subcarriers=8)
        src[0] = 7
        assert const.indices.tolist() == [1, 5, 6]
        assert per_symbol_indices(varying)[0].tolist() == [1, 5, 6]
        assert not const.indices.flags.writeable

    def test_equality_compares_values(self):
        params = make_params(16, m=3)
        full = si.make_allocation(params, "full")
        assert full == si.make_allocation(params, "full")  # distinct arrays, same values
        assert full == si.ResourceAllocation(
            per_symbol_indices=tuple(np.arange(16) for _ in range(3)), n_subcarriers=16
        )
        assert si.make_allocation(params, "random", n_active=5, seed=2) == si.make_allocation(
            params, "random", n_active=5, seed=2
        )
        per_symbol = (np.array([0, 3]), np.array([1]), np.array([0, 3]))
        assert si.ResourceAllocation(per_symbol, 16) == si.ResourceAllocation(
            tuple(a.copy() for a in per_symbol), 16
        )
        # unequal: one symbol differs, N differs, M differs, another type
        assert si.ResourceAllocation(per_symbol, 16) != si.ResourceAllocation(
            (np.array([0, 3]), np.array([2]), np.array([0, 3])), 16
        )
        assert si.ResourceAllocation.constant([1, 2], 3, 16) != si.ResourceAllocation.constant(
            [1, 2], 3, 17
        )
        assert si.ResourceAllocation.constant([1, 2], 3, 16) != si.ResourceAllocation.constant(
            [1, 2], 4, 16
        )
        assert full != "full"
        with pytest.raises(TypeError):
            hash(full)


class TestDifferenceSet:
    def test_perfect_four_element_set(self):
        alloc = si.ResourceAllocation.constant([0, 1, 4, 6], 1, 7)
        ap = si.difference_set(alloc)
        assert np.array_equal(ap.lags, np.arange(-6, 7))
        assert np.array_equal(ap.pair_counts, [1] * 6 + [4] + [1] * 6)
        assert ap.n_lags == 2 * 7 - 1

    def test_two_element_set(self):
        n = 32
        alloc = si.ResourceAllocation.constant([0, n - 1], 1, n)
        ap = si.difference_set(alloc)
        assert np.array_equal(ap.lags, [-(n - 1), 0, n - 1])
        assert ap.n_lags == 3

    def test_nested_set_hole_free(self):
        alloc = si.ResourceAllocation.constant([0, 1, 2, 3, 7, 11], 1, 12)
        ap = si.difference_set(alloc)
        assert ap.n_lags == 2 * 12 - 1

    def test_matches_brute_force_enumeration(self, rng):
        for _ in range(50):
            n = int(rng.integers(8, 128))
            k = int(rng.integers(2, min(n, 40)))
            idx = np.sort(rng.choice(n, size=k, replace=False))
            alloc = si.ResourceAllocation.constant(idx, 1, n)
            ap = si.difference_set(alloc)
            oracle = brute_force_differences(idx)
            assert set(ap.lags.tolist()) == set(oracle.keys())
            for lag, cnt in zip(ap.lags, ap.pair_counts):
                assert oracle[int(lag)] == int(cnt)

    def test_kept_with_the_allocation(self):
        # computed on the first call, then the same read-only aperture; the
        # kept aperture takes no part in equality
        alloc = si.ResourceAllocation.constant([0, 1, 4, 6], 3, 7)
        ap = si.difference_set(alloc)
        assert si.difference_set(alloc) is ap
        assert not ap.lags.flags.writeable and not ap.pair_counts.flags.writeable
        assert alloc == si.ResourceAllocation.constant([0, 1, 4, 6], 3, 7)
        fresh = si.difference_set(si.ResourceAllocation.constant([0, 1, 4, 6], 3, 7))
        assert fresh is not ap
        assert np.array_equal(fresh.lags, ap.lags) and np.array_equal(fresh.pair_counts, ap.pair_counts)

    def test_requires_two_indices(self):
        alloc = si.ResourceAllocation.constant([3], 1, 8)
        with pytest.raises(ValueError):
            si.difference_set(alloc)

    def test_varying_allocation_rejected(self):
        alloc = si.ResourceAllocation(
            per_symbol_indices=(np.array([0, 1]), np.array([0, 2])), n_subcarriers=4
        )
        with pytest.raises(ValueError):
            si.difference_set(alloc)

    @settings(max_examples=60, deadline=None)
    @given(
        idx=st.lists(st.integers(0, 63), min_size=2, max_size=24, unique=True),
    )
    def test_symmetry_and_count_conservation(self, idx):
        alloc = si.ResourceAllocation.constant(sorted(idx), 1, 64)
        ap = si.difference_set(alloc)
        k = len(set(idx))
        assert int(ap.pair_counts.sum()) == k * k
        assert ap.pair_counts[ap.lags == 0].tolist() == [k]
        # symmetric: the lags and their counts read the same reversed, negated
        assert np.array_equal(ap.lags[::-1], -ap.lags)
        assert np.array_equal(ap.pair_counts[::-1], ap.pair_counts)


class TestCoverageFraction:
    """A full lag cover has no holes; two endpoints cover three lags."""

    def test_perfect_set_full_coverage(self):
        alloc = si.ResourceAllocation.constant([0, 1, 4, 6], 1, 7)
        assert si.difference_set(alloc).n_lags == 2 * 7 - 1

    def test_full_allocation(self):
        p = make_params(16)
        ap = si.difference_set(si.make_allocation(p, "full"))
        assert ap.n_lags == 2 * 16 - 1

    def test_endpoints_only(self):
        n = 20
        alloc = si.ResourceAllocation.constant([0, n - 1], 1, n)
        ap = si.difference_set(alloc)
        assert ap.n_lags == 3


def fill_at(curve, lag):
    """(fill probability, 95% half-width) of a hole-fill curve at one lag."""
    return curve.fill_probability[lag - 1], curve.fill_halfwidth[lag - 1]


class TestHoleFillProbability:
    def test_full_cardinality_always_fills(self):
        curve = si.hole_fill_curve(16, 16, n_trials=10, seed=0)
        for lag in (1, 7, 15):
            assert fill_at(curve, lag) == (1.0, 0.0)

    def test_endpoints_only_cardinality(self):
        n = 16
        curve = si.hole_fill_curve(n, 2, n_trials=50, seed=0)
        assert fill_at(curve, n - 1)[0] == 1.0
        assert fill_at(curve, 5)[0] == 0.0

    def test_monotone_in_cardinality_within_bands(self):
        lag = 40
        prev_p, prev_hw = 0.0, 0.0
        for n_active in (8, 16, 32, 64, 128):
            p, hw = fill_at(si.hole_fill_curve(128, n_active, n_trials=400, seed=11), lag)
            assert p + hw >= prev_p - prev_hw
            prev_p, prev_hw = p, hw

    def test_deterministic_per_seed(self):
        a = fill_at(si.hole_fill_curve(64, 12, n_trials=200, seed=9), 17)
        b = fill_at(si.hole_fill_curve(64, 12, n_trials=200, seed=9), 17)
        assert a == b

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            si.hole_fill_curve(16, 1)

    @pytest.mark.parametrize(
        "n_trials, error",
        # past 2**53 // 64, the (64, n_trials) keys would exceed 2**53 points
        [(0, ValueError), (-1, ValueError), (2.0, TypeError), (2**53 // 64 + 1, ValueError)],
    )
    def test_curve_rejects_bad_trial_count(self, n_trials, error):
        for n_active in (16, 64):  # a random subset, and the full band
            with pytest.raises(error, match="^n_trials: "):
                si.hole_fill_curve(64, n_active, n_trials=n_trials, seed=0)

    @pytest.mark.parametrize(
        "n, error", [(2.5, TypeError), (math.nan, TypeError), (True, TypeError), (1, ValueError)]
    )
    def test_rejects_bad_subcarrier_count(self, n, error):
        with pytest.raises(error, match="^n_subcarriers: "):
            si.hole_fill_curve(n, 2)

    def test_seed_sequence_seeds_like_its_int(self):
        a = si.hole_fill_curve(32, 6, n_trials=50, seed=7)
        b = si.hole_fill_curve(32, 6, n_trials=50, seed=np.random.SeedSequence(7))
        assert np.array_equal(a.fill_probability, b.fill_probability)
        assert a.all_filled_probability == b.all_filled_probability

    def test_curve_consistent_with_single_lag(self):
        curve = si.hole_fill_curve(64, 16, n_trials=300, seed=21)
        assert curve.lags[0] == 1 and curve.lags[-1] == 63
        # pinned endpoints make the extreme lag always available
        assert curve.fill_probability[-1] == 1.0
        assert 0.0 <= curve.all_filled_probability <= curve.min_fill_probability


def two_sample_z(p, q, n_trials):
    """z of p - q for two proportions from n_trials each; 0 where both are
    0 or both are 1."""
    se = np.sqrt((p + q) * (2 - p - q) / (2 * n_trials))
    return np.divide(p - q, se, out=np.zeros_like(se), where=se > 0)


SUBSET_CASES = [
    (n, k, trials, seed)
    for n, trials, seed in ((2, 5, 0), (3, 8, 1), (16, 13, 2), (37, 64, 3), (256, 9, 4))
    for k in sorted({2, 3, n - 1, n} & set(range(2, n + 1)))
]


class TestHoleFillDraw:
    @pytest.mark.parametrize("n, n_active, n_trials, seed", SUBSET_CASES)
    def test_every_subset_has_n_active_members_and_both_endpoints(self, n, n_active, n_trials, seed):
        member, _ = _hole_fill_trials(n, n_active, n_trials, seed)
        assert member.shape == (n, n_trials)
        assert np.all(member.sum(axis=0) == n_active)
        assert member[0].all() and member[-1].all()

    @pytest.mark.parametrize(
        "n, n_active, n_trials, seed",
        SUBSET_CASES + [(64, 12, 1, 5), (64, 12, 100, 6), (100, 30, 17, 7), (257, 40, 33, 8)],
    )
    def test_bit_test_matches_fft_pair_count(self, n, n_active, n_trials, seed):
        member, filled = _hole_fill_trials(n, n_active, n_trials, seed)
        assert filled.shape == (n - 1, n_trials)
        assert np.array_equal(filled, fft_filled(member))

    @pytest.mark.parametrize("n, n_active", [(256, 32), (32, 12)])
    def test_fill_probabilities_match_per_trial_reference(self, n, n_active):
        n_trials = 4000
        curve = si.hole_fill_curve(n, n_active, n_trials=n_trials, seed=13)
        ref = fft_filled(per_trial_member(n, n_active, n_trials, 13))
        z = two_sample_z(curve.fill_probability, ref.mean(axis=1), n_trials)
        assert np.abs(z).max() < 4.5
        z_all = two_sample_z(curve.all_filled_probability, ref.all(axis=0).mean(), n_trials)
        assert abs(z_all) < 4.5


class TestVirtualApertureSize:
    def test_virtual_larger_than_physical_for_random_sets(self, rng):
        # the difference set has at least as many entries as the set itself,
        # and strictly more in the well-filled regime
        for seed in range(10):
            alloc = si.make_allocation(make_params(256), "random", n_active=64, seed=seed)
            ap = si.difference_set(alloc)
            assert ap.n_lags > alloc.n_active
