import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sparse_isac as si
from reference import (
    accumulate_cpi,
    alloc_mask,
    autocorrelate_symbol,
    bits,
    brute_force_lag_products,
    dense,
    exp_gemv_ml,
    from_dense,
    greedy_detect_peaks,
)
from sparse_isac import synth
from sparse_isac.analysis import common_exclusion_halfwidth
from sparse_isac.estimators import _pick_peaks, _zero_fill
from sparse_isac.synth import _ROW_BLOCK, _gram_statistics

C = si.SPEED_OF_LIGHT


def make_params(n=64, m=8, df=120e3):
    return si.OfdmParams(
        n_subcarriers=n, n_symbols=m, subcarrier_spacing_hz=df, carrier_freq_hz=24e9
    )


def on_grid_target(params, bin_index, amplitude=1.0, velocity=0.0, phase=0.0):
    d = bin_index * params.range_bin_m
    return si.Target(distance_m=d, velocity_mps=velocity, amplitude=amplitude, phase_rad=phase)


def noiseless_grid(params, alloc, targets, seed=0):
    return si.synthesize(si.Scene(targets=targets, noise_variance_w=0.0), alloc, params, seed=seed)


class TestZeroFillPeriodogram:
    def test_full_allocation_delta(self):
        params = make_params(n=32, m=4)
        alloc = si.make_allocation(params, "full")
        grid = noiseless_grid(params, alloc, (on_grid_target(params, 5),))
        p = si.zero_fill_periodogram(grid, oversample=1)
        assert p.argmax_bin == 5
        assert p.values[5] == pytest.approx(1.0, rel=1e-12)
        others = np.delete(p.values, 5)
        assert np.all(others < 1e-10)

    def test_sparse_kernel_closed_form(self):
        # four-element allocation: spectrum equals the four-term phasor sum
        params = make_params(n=7, m=3)
        alloc = si.make_allocation(params, "custom", indices=[0, 1, 4, 6])
        q0 = 2
        grid = noiseless_grid(params, alloc, (on_grid_target(params, q0),))
        os = 4
        p = si.zero_fill_periodogram(grid, oversample=os)
        q_bins = os * 7
        expect = np.empty(q_bins)
        for q in range(q_bins):
            acc = sum(
                np.exp(2j * np.pi * n * (q - q0 * os) / q_bins) for n in (0, 1, 4, 6)
            )
            expect[q] = abs(acc) / 4
        assert np.allclose(p.values, expect, atol=1e-12)
        assert p.argmax_bin == q0 * os

    def test_all_zero_grid(self):
        params = make_params(n=16, m=2)
        alloc = si.make_allocation(params, "full")
        grid = from_dense(np.zeros((2, 16), dtype=complex), alloc, params)
        p = si.zero_fill_periodogram(grid, oversample=2)
        assert np.all(p.values == 0.0)

    def test_axis_is_delay_in_seconds(self):
        params = make_params(n=16, m=2)
        alloc = si.make_allocation(params, "full")
        grid = noiseless_grid(params, alloc, (on_grid_target(params, 3),))
        p = si.zero_fill_periodogram(grid, oversample=2)
        assert p.axis[0] == 0.0
        assert p.bin_width == pytest.approx(1.0 / (32 * params.subcarrier_spacing_hz))
        assert p.axis[p.argmax_bin] * C / 2 == pytest.approx(3 * params.range_bin_m)

    def test_shift_covariance(self):
        params = make_params(n=64, m=4)
        alloc = si.make_allocation(params, "random", n_active=24, seed=3)
        os = 4
        p1 = si.zero_fill_periodogram(
            noiseless_grid(params, alloc, (on_grid_target(params, 10),)), oversample=os
        )
        p2 = si.zero_fill_periodogram(
            noiseless_grid(params, alloc, (on_grid_target(params, 11),)), oversample=os
        )
        assert p2.argmax_bin - p1.argmax_bin == os

    def test_oversample_validation(self):
        params = make_params(n=16, m=2)
        alloc = si.make_allocation(params, "full")
        grid = noiseless_grid(params, alloc, (on_grid_target(params, 3),))
        with pytest.raises(ValueError):
            si.zero_fill_periodogram(grid, oversample=0)


class TestMlSingleTarget:
    def test_exact_recovery_on_grid(self):
        params = make_params(n=64, m=8)
        alloc = si.make_allocation(params, "random", n_active=20, seed=1)
        target = on_grid_target(params, 9)
        grid = noiseless_grid(params, alloc, (target,))
        est = si.ml_single_target(grid, oversample=4, refine=False)
        assert est.bin_index == 9 * 4
        assert est.range_m == pytest.approx(target.distance_m, abs=1e-9)

    def test_argmax_matches_zero_fill(self):
        params = make_params(n=64, m=4)
        seeds = np.random.SeedSequence(77).spawn(20)
        for k, s in enumerate(seeds):
            alloc = si.make_allocation(params, "random", n_active=16, seed=1000 + k)
            t = si.Target(distance_m=30.0 + 11.0 * k, amplitude=1.0)
            grid = si.synthesize(si.Scene(targets=(t,), snr_db=0.0), alloc, params, seed=s)
            p = si.zero_fill_periodogram(grid, oversample=4)
            est = si.ml_single_target(grid, oversample=4, refine=False)
            assert est.bin_index == p.argmax_bin

    def test_varying_allocation_matches_zero_fill(self):
        # the active set is the union over symbols
        params = make_params(n=64, m=4)
        alloc = si.make_allocation(
            params, "custom", indices=[[0, 5, 9], [0, 20, 63], [5, 33], [9, 40, 41]]
        )
        t = si.Target(distance_m=75.0, amplitude=1.0)
        grid = si.synthesize(si.Scene(targets=(t,), snr_db=5.0), alloc, params, seed=3)
        p = si.zero_fill_periodogram(grid, oversample=4)
        est = si.ml_single_target(grid, oversample=4, refine=False)
        assert est.bin_index == p.argmax_bin

    def test_interleaved_allocations_match_isolated_calls(self):
        # fresh draws alternate with one repeated allocation; no call leaves
        # state behind, so each grid gives the bits of its call on its own
        params = make_params(n=32, m=2)
        fixed = si.make_allocation(params, "nested", inner=3, outer=4)
        scene = si.Scene(targets=(si.Target(distance_m=40.0, amplitude=1.0),), snr_db=10.0)
        grids = []
        for k in range(20):
            fresh = si.make_allocation(params, "random", n_active=8, seed=k)
            grids += [si.synthesize(scene, a, params, seed=k) for a in (fresh, fixed)]
        interleaved = [si.ml_single_target(g) for g in grids]
        for grid, got in reversed(list(zip(grids, interleaved))):
            alone = si.ml_single_target(grid)
            assert np.array_equal(bits(astuple(got)), bits(astuple(alone)))

    def test_refinement_beats_grid_quantization(self):
        params = make_params(n=128, m=8)
        alloc = si.make_allocation(params, "full")
        d_true = 100.37  # off-grid
        t = si.Target(distance_m=d_true, amplitude=1.0, phase_rad=0.2)
        grid = noiseless_grid(params, alloc, (t,))
        coarse = si.ml_single_target(grid, oversample=4, refine=False)
        fine = si.ml_single_target(grid, oversample=4, refine=True)
        assert abs(fine.range_m - d_true) < abs(coarse.range_m - d_true)
        assert abs(fine.range_m - d_true) < 0.05  # well below one bin

    def test_empty_grid_rejected(self):
        params = make_params(n=16, m=2)
        alloc = si.make_allocation(params, "full")
        grid = from_dense(np.zeros((2, 16), dtype=complex), alloc, params)
        with pytest.raises(ValueError):
            si.ml_single_target(grid)


def ml_case_grid(pattern, n, snr_db):
    """A desk-like grid (M = 32, one off-grid target) on one allocation
    shape the ML search must handle."""
    params = make_params(n=n, m=32)
    if pattern == "full":
        alloc = si.make_allocation(params, "full")
    elif pattern == "nested":
        inner, outer = si.nested_params_for(64, n)
        alloc = si.make_allocation(params, "nested", inner=inner, outer=outer)
    elif pattern == "per_symbol":  # the active columns are the union over symbols
        rng = np.random.default_rng(4)
        indices = [rng.choice(n, size=20, replace=False) for _ in range(params.n_symbols)]
        alloc = si.make_allocation(params, "custom", indices=indices)
    else:  # "random" or "k2"
        n_active = 2 if pattern == "k2" else min(64, n // 2)
        alloc = si.make_allocation(params, "random", n_active=n_active, seed=1)
    target = si.Target(distance_m=0.37 * n * params.range_bin_m, amplitude=1.0)
    scene = si.Scene(targets=(target,), snr_db=snr_db)
    return si.synthesize(scene, alloc, params, seed=9)


class TestMlIsZeroFillPeak:
    """The paper's claim: the zero-fill periodogram, scaled by the
    active-cell count M * K, is the ML objective, so its peak is the ML
    estimate.  Objectives are compared, not bins, since a bin can flip
    between near-equal neighbours."""

    @pytest.mark.parametrize("snr_db", [-5.0, 15.0, math.inf])
    @pytest.mark.parametrize("oversample", [1, 3, 4, 8])
    @pytest.mark.parametrize(
        "pattern, n",
        [
            ("full", 256),
            ("random", 256),
            ("nested", 256),
            ("per_symbol", 256),
            ("k2", 256),
            ("k2", 2),  # N = 2
            ("random", 37),  # Q = 37 * oversample is no power of two
        ],
    )
    def test_matches_exp_gemv_reference(self, pattern, n, oversample, snr_db):
        grid = ml_case_grid(pattern, n, snr_db)
        q_bins = oversample * n
        active = np.flatnonzero(grid.alloc.column_counts())
        want = exp_gemv_ml(dense(grid).sum(axis=0)[active], active, q_bins)
        zero_fill = si.zero_fill_periodogram(grid, oversample=oversample).values
        assert zero_fill.shape == (q_bins,)
        assert np.abs(zero_fill * grid.active.size - want).max() <= 1e-12 * want.max()
        est = si.ml_single_target(grid, oversample=oversample)
        assert est.n_bins == q_bins
        assert est.peak_value == pytest.approx(want.max(), rel=1e-12)
        assert want[est.bin_index] >= (1.0 - 1e-12) * want.max()

    def test_closed_form_phasor_sum(self):
        # exact sums: all-ones cells on the full band sum to M * N at q = 0
        # and vanish wherever q is a nonzero multiple of the oversample factor
        n, m, oversample = 16, 2, 3
        params = make_params(n=n, m=m)
        alloc = si.make_allocation(params, "full")
        grid = from_dense(np.ones((m, n), dtype=complex), alloc, params)
        est = si.ml_single_target(grid, oversample=oversample, refine=False)
        assert est.bin_index == 0 and est.delay_s == 0.0
        assert est.peak_value == pytest.approx(m * n, rel=1e-14)
        values = si.zero_fill_periodogram(grid, oversample=oversample).values
        assert np.all(values[oversample::oversample] < 1e-12)


class TestAutocorrelation:
    """The per-symbol physics of the virtual signal: on M=1 grids, where
    build_virtual_signal is one symbol's lag products, and on the
    per-symbol reference that it accumulates."""

    def test_noiseless_single_target_identity(self):
        # moving target: the symbol phase cancels inside each symbol
        params = make_params(n=64, m=4)
        alloc = si.make_allocation(params, "random", n_active=20, seed=5)
        amp = 0.9
        t = si.Target(distance_m=133.0, velocity_mps=14.0, amplitude=amp, phase_rad=1.1)
        grid = noiseless_grid(params, alloc, (t,))
        ap = si.difference_set(alloc)
        tau = 2 * t.distance_m / C
        expect = amp**2 * np.exp(
            -2j * np.pi * params.subcarrier_spacing_hz * ap.lags * tau
        )
        per_symbol = [autocorrelate_symbol(grid, m, ap) for m in range(4)]
        for values in per_symbol + [si.build_virtual_signal(grid)[0].values]:
            rel = np.abs(values - expect) / np.abs(expect)
            assert rel.max() < 1e-10

    def test_zero_lag_is_mean_power(self):
        params = make_params(n=32, m=1)
        alloc = si.make_allocation(params, "random", n_active=10, seed=2)
        t = si.Target(distance_m=70.0, amplitude=1.0)
        grid = si.synthesize(si.Scene(targets=(t,), snr_db=-5.0), alloc, params, seed=0)
        vs, ap = si.build_virtual_signal(grid)
        mean_power = np.mean(np.abs(dense(grid)[0, alloc.indices]) ** 2)
        zero = vs.values[ap.lags == 0][0]
        assert zero == pytest.approx(mean_power, rel=1e-12)
        assert abs(zero.imag) < 1e-15

    def test_matches_brute_force_pairs(self, rng):
        params = make_params(n=48, m=1)
        for trial in range(10):
            alloc = si.make_allocation(params, "random", n_active=12, seed=trial)
            row = rng.normal(size=48) + 1j * rng.normal(size=48)
            row[~alloc_mask(alloc)[0]] = 0.0
            grid = from_dense(row[None, :], alloc, params)
            vs, ap = si.build_virtual_signal(grid)
            oracle = brute_force_lag_products(row, alloc.indices)
            for lag, val in zip(ap.lags, vs.values):
                assert val == pytest.approx(oracle[int(lag)], rel=1e-10, abs=1e-12)

    def test_conjugate_symmetry_on_noisy_grids(self):
        params = make_params(n=64, m=3)
        alloc = si.make_allocation(params, "random", n_active=18, seed=9)
        t = si.Target(distance_m=120.0, amplitude=1.0)
        grid = si.synthesize(si.Scene(targets=(t,), snr_db=-10.0), alloc, params, seed=4)
        vs, ap = si.build_virtual_signal(grid)
        # the lags run symmetric about 0, so reversed they pair s with -s
        assert np.array_equal(ap.lags[::-1], -ap.lags)
        for values in [autocorrelate_symbol(grid, m, ap) for m in range(3)] + [vs.values]:
            assert np.allclose(values[::-1], np.conj(values), rtol=1e-12, atol=0)


class TestAccumulateCpi:
    """build_virtual_signal as the CPI mean of the per-symbol reference."""

    def test_single_symbol_identity(self):
        params = make_params(n=32, m=1)
        alloc = si.make_allocation(params, "random", n_active=10, seed=0)
        t = si.Target(distance_m=90.0, amplitude=1.0)
        grid = si.synthesize(si.Scene(targets=(t,), snr_db=0.0), alloc, params, seed=1)
        vs, ap = si.build_virtual_signal(grid)
        assert np.allclose(vs.values, autocorrelate_symbol(grid, 0, ap))

    def test_noiseless_single_target_unchanged(self):
        params = make_params(n=32, m=6)
        alloc = si.make_allocation(params, "random", n_active=10, seed=3)
        t = si.Target(distance_m=110.0, velocity_mps=9.0, amplitude=1.0, phase_rad=0.0)
        grid = noiseless_grid(params, alloc, (t,))
        vs, ap = si.build_virtual_signal(grid)
        assert np.allclose(vs.values, autocorrelate_symbol(grid, 0, ap), atol=1e-12)

    def test_cross_term_shrinks_with_accumulation(self):
        # two noiseless targets with distinct Dopplers: the co-target terms
        # are fixed, the cross term carries a rotating phasor that averages
        # down over the CPI
        params = make_params(n=64, m=64)
        alloc = si.make_allocation(params, "random", n_active=24, seed=7)
        t1 = si.Target(distance_m=100.0, velocity_mps=18.0, amplitude=1.0, phase_rad=0.3)
        t2 = si.Target(distance_m=210.0, velocity_mps=-14.0, amplitude=1.0, phase_rad=1.7)
        grid = noiseless_grid(params, alloc, (t1, t2))
        vs, ap = si.build_virtual_signal(grid)
        diag = np.zeros(ap.n_lags, dtype=complex)
        for t in (t1, t2):
            tau = 2 * t.distance_m / C
            diag += np.exp(-2j * np.pi * params.subcarrier_spacing_hz * ap.lags * tau)
        cross_one = np.linalg.norm(autocorrelate_symbol(grid, 0, ap) - diag)
        cross_acc = np.linalg.norm(vs.values - diag)
        assert cross_acc < 0.25 * cross_one


class TestBuildVirtualSignal:
    def test_composition_matches_parts(self):
        params = make_params(n=64, m=5)
        alloc = si.make_allocation(params, "random", n_active=16, seed=4)
        t = si.Target(distance_m=140.0, velocity_mps=5.0, amplitude=1.0)
        grid = si.synthesize(si.Scene(targets=(t,), snr_db=0.0), alloc, params, seed=2)
        vs, ap = si.build_virtual_signal(grid)
        manual_ap = si.difference_set(alloc)
        manual = accumulate_cpi([autocorrelate_symbol(grid, m, manual_ap) for m in range(5)])
        assert np.array_equal(ap.lags, manual_ap.lags)
        assert np.allclose(vs.values, manual, atol=1e-12)

    @pytest.mark.parametrize("pattern", ["random", "nested", "custom"])
    @pytest.mark.parametrize("scenario", ["noisy", "two_target", "moving"])
    def test_single_ifft_matches_per_symbol_reference(self, pattern, scenario):
        params = make_params(n=64, m=7)
        if pattern == "random":
            alloc = si.make_allocation(params, "random", n_active=14, seed=11)
        elif pattern == "nested":
            alloc = si.make_allocation(params, "nested", inner=5, outer=6)
        else:
            alloc = si.make_allocation(params, "custom", indices=[0, 2, 3, 17, 40, 41, 63])
        targets = {
            "noisy": (si.Target(distance_m=90.0, amplitude=1.0),),
            "two_target": (
                si.Target(distance_m=60.0, amplitude=1.0),
                si.Target(distance_m=150.0, amplitude=0.6),
            ),
            "moving": (si.Target(distance_m=120.0, velocity_mps=12.0, amplitude=1.0),),
        }[scenario]
        scene = si.Scene(targets=targets, snr_db=-3.0 if scenario == "noisy" else 10.0)
        grid = si.synthesize(scene, alloc, params, seed=5)
        vs, ap = si.build_virtual_signal(grid)
        ref = accumulate_cpi([autocorrelate_symbol(grid, m, ap) for m in range(7)])
        rel = np.max(np.abs(vs.values - ref)) / np.max(np.abs(ref))
        assert rel <= 1e-12

    @pytest.mark.parametrize("pattern", ["random", "nested"])
    def test_row_blocks_match_per_symbol_reference(self, pattern):
        m = 2 * _ROW_BLOCK + 3  # two full row blocks and a partial one
        params = make_params(n=64, m=m)
        if pattern == "random":
            alloc = si.make_allocation(params, "random", n_active=14, seed=11)
        else:
            alloc = si.make_allocation(params, "nested", inner=5, outer=6)
        targets = (
            si.Target(distance_m=60.0, velocity_mps=20.0, amplitude=1.0),
            si.Target(distance_m=150.0, amplitude=0.6),
        )
        grid = si.synthesize(si.Scene(targets=targets, snr_db=-3.0), alloc, params, seed=5)
        vs, ap = si.build_virtual_signal(grid)
        ref = accumulate_cpi([autocorrelate_symbol(grid, k, ap) for k in range(m)])
        rel = np.max(np.abs(vs.values - ref)) / np.max(np.abs(ref))
        assert rel <= 1e-12


class TestVirtualPeriodogram:
    def test_single_target_argmax(self):
        params = make_params(n=64, m=8)
        alloc = si.make_allocation(params, "random", n_active=24, seed=6)
        target = on_grid_target(params, 12)
        grid = noiseless_grid(params, alloc, (target,))
        vs, _ = si.build_virtual_signal(grid)
        p = si.virtual_periodogram(vs, params, oversample=4)
        est_range = p.axis[p.argmax_bin] * C / 2
        assert est_range == pytest.approx(target.distance_m, abs=params.range_bin_m / 2)

    def test_hole_free_kernel_matches_contiguous_aperture(self):
        # nested pattern covering every lag behaves exactly like a contiguous
        # aperture of the same virtual extent: subcarriers 0..2N-2 of a
        # 2N-subcarrier grid, whose zero-fill spectrum has the virtual
        # periodogram's oversample * 2N bins
        params = make_params(n=12, m=1)
        alloc = si.make_allocation(params, "nested", inner=3, outer=3)
        t = si.Target(distance_m=150.0, amplitude=1.0, phase_rad=0.0)
        grid = noiseless_grid(params, alloc, (t,))
        vs, ap = si.build_virtual_signal(grid)
        assert ap.n_lags == 2 * params.n_subcarriers - 1
        p_virtual = si.virtual_periodogram(vs, params, oversample=8)

        params24 = make_params(n=24, m=1)
        band23 = si.ResourceAllocation.constant(np.arange(23), 1, 24)
        grid24 = noiseless_grid(params24, band23, (t,))
        p_direct = si.zero_fill_periodogram(grid24, oversample=8)
        assert p_virtual.n_bins == p_direct.n_bins == 8 * 24
        assert np.allclose(p_virtual.values, p_direct.values, atol=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(2, 64),
        m=st.integers(1, 8),
        oversample=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        drawn=st.booleans(),
        snr_db=st.sampled_from([0.0, math.inf]),
    )
    # the exclusion zone's boundary at oversample 4, and Q = 2N exactly
    @example(n=2, m=1, oversample=4, seed=1, drawn=False, snr_db=0.0)
    @example(n=3, m=2, oversample=4, seed=2, drawn=True, snr_db=0.0)
    @example(n=4, m=3, oversample=4, seed=3, drawn=False, snr_db=math.inf)
    @example(n=5, m=4, oversample=4, seed=4, drawn=True, snr_db=0.0)
    @example(n=2, m=1, oversample=1, seed=5, drawn=True, snr_db=0.0)
    @example(n=33, m=5, oversample=1, seed=6, drawn=False, snr_db=0.0)
    @example(n=64, m=8, oversample=8, seed=7, drawn=True, snr_db=math.inf)
    def test_axis_is_half_a_zero_fill_bin(self, n, m, oversample, seed, drawn, snr_db):
        """On Q = oversample * 2N bins the real transform of the lags >= 0
        is the DTFT of the whole signal, on a synthesized grid and on a
        drawn sweep slot (_gram_statistics); lag N stays empty."""
        rng = np.random.default_rng(seed)
        params = make_params(n=n, m=m)
        alloc = si.ResourceAllocation.constant(rng.choice(n, rng.integers(2, n + 1), replace=False), m, n)
        target = si.Target(distance_m=float(rng.uniform(1.0, 1200.0)), velocity_mps=15.0, amplitude=1.0)
        grid = (_gram_statistics if drawn else si.synthesize)(
            si.Scene(targets=(target,), snr_db=snr_db), alloc, params, seed
        )
        vs, aperture = si.build_virtual_signal(grid)
        p = si.virtual_periodogram(vs, params, oversample=oversample)
        q_bins = oversample * 2 * n
        assert p.n_bins == q_bins and aperture.lags.max() < n
        want = exp_gemv_ml(vs.values, aperture.lags, q_bins) / aperture.n_lags
        assert np.max(np.abs(p.values - want)) <= 1e-12 * np.max(want)
        assert 2 * p.bin_width == _zero_fill(grid.symbol_sum, alloc, params, oversample).bin_width
        if oversample == 4:
            assert common_exclusion_halfwidth(p) == (4 if n >= 5 else 5)

    def test_amplitude_square_law(self):
        params = make_params(n=64, m=4)
        alloc = si.make_allocation(params, "random", n_active=20, seed=8)
        base = on_grid_target(params, 9, amplitude=1.0)
        loud = on_grid_target(params, 9, amplitude=2.0)
        g1 = noiseless_grid(params, alloc, (base,))
        g2 = noiseless_grid(params, alloc, (loud,))
        v1, _ = si.build_virtual_signal(g1)
        v2, _ = si.build_virtual_signal(g2)
        p1 = si.virtual_periodogram(v1, params)
        p2 = si.virtual_periodogram(v2, params)
        assert p2.values.max() == pytest.approx(4.0 * p1.values.max(), rel=1e-9)
        d1 = si.zero_fill_periodogram(g1)
        d2 = si.zero_fill_periodogram(g2)
        assert d2.values.max() == pytest.approx(2.0 * d1.values.max(), rel=1e-9)


class TestVirtualSymmetry:
    """VirtualSignal holds an exactly conjugate-symmetric signal, the one
    virtual_periodogram reads from its lags >= 0."""

    APERTURE = si.VirtualAperture(lags=[-2, -1, 0, 1, 2], pair_counts=[1, 2, 3, 2, 1], n_subcarriers=3)

    @staticmethod
    def symmetric():
        a, b = 0.5 - 0.25j, -0.125 + 1j
        return np.array([np.conj(b), np.conj(a), 3.0, a, b])

    def test_symmetric_values_construct(self):
        vs = si.VirtualSignal(values=self.symmetric(), aperture=self.APERTURE)
        assert not vs.values.flags.writeable

    @pytest.mark.parametrize("lag", [0, 1])
    def test_a_perturbed_negative_lag_raises(self, lag):
        values = self.symmetric()
        values[lag] += np.nextafter(values[lag].real, math.inf) - values[lag].real
        with pytest.raises(ValueError, match="conjugate-symmetric"):
            si.VirtualSignal(values=values, aperture=self.APERTURE)

    def test_an_imaginary_zero_lag_raises(self):
        values = self.symmetric()
        values[2] += 1e-300j
        with pytest.raises(ValueError, match="conjugate-symmetric"):
            si.VirtualSignal(values=values, aperture=self.APERTURE)

    def test_asymmetric_lags_raise(self):
        aperture = si.VirtualAperture(lags=[-2, 0, 1], pair_counts=[1, 3, 2], n_subcarriers=3)
        with pytest.raises(ValueError, match="symmetric about 0"):
            si.VirtualSignal(values=np.array([1.0, 3.0, 1.0], dtype=complex), aperture=aperture)

    def test_a_nan_pair_is_left_to_the_spectrum(self):
        values = self.symmetric()
        values[[0, 4]] = complex(math.nan, math.nan)
        vs = si.VirtualSignal(values=values, aperture=self.APERTURE)
        with pytest.raises(FloatingPointError, match="finite"):
            si.virtual_periodogram(vs, make_params(n=3, m=1))

    @pytest.mark.parametrize("route", ["fft", "gram", "gram_statistics"])
    def test_library_signals_construct(self, route, monkeypatch):
        """Both routes of the lag sums, each selected through the read gate,
        and a drawn statistics block; the FFT route's raw lag sums are
        symmetric to round-off only."""
        params = make_params(n=64, m=_ROW_BLOCK + 3)
        alloc = si.make_allocation(params, "random", n_active=20, seed=3)
        scene = si.Scene(targets=(si.Target(distance_m=120.0, velocity_mps=30.0, amplitude=1.0),), snr_db=0.0)
        monkeypatch.setattr(synth, "_gram_read", lambda rows, alloc: route != "fft")
        draw = _gram_statistics if route == "gram_statistics" else si.synthesize
        grid = draw(scene, alloc, params, 5)
        vs, aperture = si.build_virtual_signal(grid)
        assert vs.aperture is aperture
        assert np.array_equal(vs.values[::-1], vs.values.conj())
        assert vs.values[aperture.n_lags // 2].imag == 0.0


def hand_built(vals, axis=None):
    """A delay periodogram of the magnitudes `vals` on `axis` (by default
    bin q at q / (n * spacing) s), both built here, not by the library."""
    params = make_params(n=16, m=1)
    n = len(vals)
    if axis is None:
        axis = np.arange(n) / (n * params.subcarrier_spacing_hz)
    return si.Periodogram(
        axis=np.asarray(axis, dtype=float), values=np.asarray(vals, dtype=float),
        domain="delay", method="zero_fill", oversample=1, params=params,
    )


def peak_outcome(detect, p, k, min_separation):
    """What `detect` gives for p: each peak's bin and the bits of its
    magnitude and refined axis value, and `complete`; or the type of the
    exception it raises (ValueError for fewer than 2 bins, which have no
    bin width to refine on)."""
    try:
        peaks = detect(p, k=k, min_separation=min_separation)
    except Exception as exc:
        return type(exc)
    return [
        (q.bin_index, bits([q.magnitude, q.refined_axis_value]).tolist()) for q in peaks.peaks
    ], peaks.complete


class TestPeriodogramAxis:
    @pytest.mark.parametrize("axis", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]])
    def test_caller_axis_must_increase(self, axis):
        with pytest.raises(ValueError, match="strictly increasing"):
            hand_built([1.0, 2.0, 3.0, 4.0], axis)
        read_only = np.array(axis)
        read_only.setflags(write=False)
        with pytest.raises(ValueError, match="strictly increasing"):
            hand_built([1.0, 2.0, 3.0, 4.0], read_only)

    def test_library_periodograms_share_one_read_only_axis(self):
        params = make_params(n=32, m=4)
        alloc = si.make_allocation(params, "random", n_active=8, seed=3)
        g1 = noiseless_grid(params, alloc, (on_grid_target(params, 5),))
        g2 = noiseless_grid(params, alloc, (on_grid_target(params, 9),), seed=1)
        z1, z2 = si.zero_fill_periodogram(g1), si.zero_fill_periodogram(g2)
        assert z1.axis is z2.axis and not z1.axis.flags.writeable
        q = 4 * 32
        assert bits(z1.axis).tolist() == bits(np.arange(q) / (q * params.subcarrier_spacing_hz)).tolist()
        v1, v2 = (si.virtual_periodogram(si.build_virtual_signal(g)[0], params) for g in (g1, g2))
        assert v1.axis is v2.axis and v1.axis is not z1.axis
        # a hand-built periodogram on the shared axis passes its checks too
        assert hand_built(z1.values, z1.axis).axis is z1.axis


class TestDetectPeaks:
    def delta_spectrum(self, n, peaks):
        vals = np.zeros(n)
        for idx, mag in peaks:
            vals[idx] = mag
        return hand_built(vals)

    def test_single_delta(self):
        p = self.delta_spectrum(64, [(20, 1.0)])
        peaks = si.detect_peaks(p, k=1)
        assert peaks.peaks[0].bin_index == 20
        assert peaks.complete

    def test_two_separated_deltas(self):
        p = self.delta_spectrum(64, [(10, 1.0), (40, 0.8)])
        peaks = si.detect_peaks(p, k=2, min_separation=5)
        assert [q.bin_index for q in peaks.peaks] == [10, 40]

    def test_exclusion_zone_suppresses_neighbors(self):
        p = self.delta_spectrum(64, [(10, 1.0), (12, 0.9), (40, 0.5)])
        peaks = si.detect_peaks(p, k=2, min_separation=4)
        assert [q.bin_index for q in peaks.peaks] == [10, 40]

    def test_fewer_maxima_than_requested(self):
        p = self.delta_spectrum(64, [(20, 1.0)])
        peaks = si.detect_peaks(p, k=3, min_separation=2)
        assert len(peaks.peaks) == 1
        assert not peaks.complete

    def test_a_huge_k_allocates_no_more_columns_than_bins(self):
        # a row has no more peaks than bins, so k = 2**40 (8 TiB of int64
        # columns) asks for at most Q = 64 of them
        p = self.delta_spectrum(64, [(10, 1.0), (40, 0.8)])
        tracemalloc.start()
        try:
            peaks = si.detect_peaks(p, k=2**40, min_separation=5)
            traced_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [q.bin_index for q in peaks.peaks] == [10, 40]
        assert peaks.requested == 2**40 and not peaks.complete
        assert traced_peak < 2**20
        assert _pick_peaks(np.ones((3, 1)), 2**40, 1).tolist() == [[0], [0], [0]]
        assert _pick_peaks(np.ones((3, 0)), 2**40, 1).shape == (3, 0)

    @pytest.mark.parametrize("vals", [[3.0], [0.0], []], ids=["one-positive", "one-zero", "none"])
    def test_refuses_fewer_than_two_bins(self, vals):
        # a one-bin periodogram has no bin width (axis[1] - axis[0]) to
        # refine a peak on, zero or not
        p = hand_built(vals)
        with pytest.raises(ValueError, match=f"at least 2 bins, got {len(vals)}$"):
            si.detect_peaks(p)
        assert peak_outcome(greedy_detect_peaks, p, 1, 1) is ValueError

    def test_tie_breaks_to_lowest_bin(self):
        p = self.delta_spectrum(64, [(10, 1.0), (40, 1.0)])
        peaks = si.detect_peaks(p, k=1, min_separation=2)
        assert peaks.peaks[0].bin_index == 10

    def test_contiguous_aperture_first_sidelobe_level(self):
        # second-highest peak of a 200-subcarrier contiguous kernel
        params = make_params(n=200, m=1)
        alloc = si.make_allocation(params, "full")
        grid = noiseless_grid(params, alloc, (on_grid_target(params, 50),))
        p = si.zero_fill_periodogram(grid, oversample=16)
        peaks = si.detect_peaks(p, k=2, min_separation=16)
        ratio_db = 20 * math.log10(peaks.peaks[1].magnitude / peaks.peaks[0].magnitude)
        assert ratio_db == pytest.approx(-13.26, abs=0.1)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_the_greedy_reference(self, data):
        # small integer magnitudes tie often: plateaus at the maximum, across
        # the wrap past the last bin, and spectra equal or zero everywhere
        n = data.draw(st.integers(1, 59))
        vals = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        k = data.draw(st.integers(1, 3))
        min_separation = data.draw(st.integers(-1, 64))
        p = hand_built(vals)
        fast = peak_outcome(si.detect_peaks, p, k, min_separation)
        assert fast == peak_outcome(greedy_detect_peaks, p, k, min_separation)

    @pytest.mark.parametrize(
        "vals, first",
        [
            ([0, 1, 3, 3, 3, 1, 2, 0], 2),  # a plateau at the maximum: its first bin
            ([0, 3, 1, 3, 3, 0], 1),  # two plateaus at the maximum: the lower one
            ([3, 3, 0, 1, 0, 3], 5),  # wraps past the last bin: bin n-1 beats bin 0
            ([3, 0, 2, 1, 3], 4),  # the same with one bin on each side of the wrap
            ([2, 2, 2, 2, 2], 0),  # equal everywhere: the greedy's argmax
            ([0, 0, 0, 0], None),  # zero everywhere: no peak
        ],
    )
    def test_first_pick_cases(self, vals, first):
        p = hand_built(vals)
        peaks = si.detect_peaks(p, k=1)
        assert [q.bin_index for q in peaks.peaks] == ([] if first is None else [first])
        assert peaks.complete is (first is not None)
        assert peak_outcome(si.detect_peaks, p, 1, 1) == peak_outcome(greedy_detect_peaks, p, 1, 1)

    def test_refined_value_within_one_cell(self):
        params = make_params(n=128, m=2)
        alloc = si.make_allocation(params, "full")
        t = si.Target(distance_m=100.37, amplitude=1.0, phase_rad=0.0)
        grid = noiseless_grid(params, alloc, (t,))
        p = si.zero_fill_periodogram(grid, oversample=4)
        peaks = si.detect_peaks(p, k=1)
        pk = peaks.peaks[0]
        assert abs(pk.refined_axis_value - p.axis[pk.bin_index]) <= p.bin_width


class TestDopplerPeriodogram:
    def test_static_target_peaks_at_zero(self):
        params = make_params(n=32, m=16)
        alloc = si.make_allocation(params, "full")
        grid = noiseless_grid(params, alloc, (on_grid_target(params, 5),))
        p = si.doppler_periodogram(grid, oversample=4)
        assert p.domain == "doppler"
        assert p.axis[p.argmax_bin] == pytest.approx(0.0, abs=1e-9)

    def test_on_grid_doppler_recovery(self):
        params = make_params(n=32, m=16)
        alloc = si.make_allocation(params, "full")
        os = 4
        u_bins = os * 16
        fd = 3 / (u_bins * params.symbol_dur_s) * os  # 3 fundamental bins
        v = fd * C / (2 * params.carrier_freq_hz)
        t = si.Target(distance_m=5 * params.range_bin_m, velocity_mps=v, amplitude=1.0)
        grid = noiseless_grid(params, alloc, (t,))
        p = si.doppler_periodogram(grid, oversample=os)
        assert p.axis[p.argmax_bin] == pytest.approx(fd, abs=1e-9)
        assert p.values[p.argmax_bin] == pytest.approx(1.0, rel=1e-9)

    def test_ten_mps_at_24ghz(self):
        params = si.OfdmParams(64, 256, 120e3, 24e9)
        alloc = si.make_allocation(params, "full")
        t = si.Target(distance_m=100.0, velocity_mps=10.0, amplitude=1.0, phase_rad=0.0)
        grid = noiseless_grid(params, alloc, (t,))
        p = si.doppler_periodogram(grid, oversample=8)
        # direct kinematics: 2 v fc / c
        expect = 1601.10765695113
        peaks = si.detect_peaks(p, k=1)
        assert peaks.peaks[0].refined_axis_value == pytest.approx(expect, abs=p.bin_width / 4)

    @pytest.mark.parametrize(
        "delay_s, error",
        [(math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError),
         (True, TypeError), ("1e-6", TypeError)],
    )
    def test_delay_validation(self, delay_s, error):
        params = make_params(n=16, m=4)
        grid = noiseless_grid(params, si.make_allocation(params, "full"), (on_grid_target(params, 3),))
        with pytest.raises(error, match="delay_s"):
            si.doppler_periodogram(grid, delay_s=delay_s)

    def test_negative_velocity_lands_on_negative_axis(self):
        params = make_params(n=32, m=32)
        alloc = si.make_allocation(params, "full")
        t = si.Target(distance_m=100.0, velocity_mps=-25.0, amplitude=1.0)
        grid = noiseless_grid(params, alloc, (t,))
        p = si.doppler_periodogram(grid, oversample=4)
        assert p.axis[p.argmax_bin] < 0
