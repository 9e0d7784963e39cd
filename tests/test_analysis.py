import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sparse_isac as si
from reference import (
    bits,
    brute_force_fim_terms,
    crlb_delay_constant,
    lag_sum_ambiguity,
    modular_pslr,
    nearest_peak_match,
    per_call_walk,
)
from sparse_isac.analysis import (
    SweepConfig,
    _match,
    _trials,
    common_exclusion_halfwidth,
    monte_carlo_sweep,
)
from sparse_isac.cli import _exp_rmse_pslr_sweep, _write_csv
from sparse_isac import synth
from sparse_isac.synth import _ROW_BLOCK

C = si.SPEED_OF_LIGHT


def make_params(n=64, m=8, df=120e3):
    return si.OfdmParams(
        n_subcarriers=n, n_symbols=m, subcarrier_spacing_hz=df, carrier_freq_hz=24e9
    )


def const_alloc(indices, params):
    return si.ResourceAllocation.constant(indices, params.n_symbols, params.n_subcarriers)


class TestFim:
    def test_single_subcarrier_is_singular(self):
        params = make_params(n=8, m=5)
        alloc = const_alloc([0], params)
        fim = si.fim_single_target(alloc, params, 1.0, 1.0)
        w = 2 * math.pi * params.subcarrier_spacing_hz
        assert np.allclose(fim, 2.0 * 5 * np.array([[0.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(si.SingularFimError):
            si.crlb_delay(alloc, params, 1.0, 1.0)

    def test_two_subcarrier_hand_value(self):
        params = make_params(n=8, m=1)
        alloc = const_alloc([0, 1], params)
        fim = si.fim_single_target(alloc, params, 1.0, 1.0)
        w = 2 * math.pi * params.subcarrier_spacing_hz
        expect = 2.0 * np.array([[w**2, w], [w, 2.0]])
        assert np.allclose(fim, expect, rtol=1e-14)

    def test_doubles_with_symbols(self):
        params1 = make_params(n=16, m=3)
        params2 = make_params(n=16, m=6)
        idx = [0, 3, 9, 15]
        f1 = si.fim_single_target(const_alloc(idx, params1), params1, 1.2, 0.5)
        f2 = si.fim_single_target(const_alloc(idx, params2), params2, 1.2, 0.5)
        assert np.allclose(f2, 2.0 * f1, rtol=1e-14)

    def test_scales_with_snr(self):
        params = make_params(n=16, m=2)
        alloc = const_alloc([0, 5, 15], params)
        f1 = si.fim_single_target(alloc, params, 1.0, 1.0)
        f2 = si.fim_single_target(alloc, params, 2.0, 0.5)
        assert np.allclose(f2, 8.0 * f1, rtol=1e-14)


class TestFimCrlbAgainstPerSymbolLoop:
    @pytest.mark.parametrize("varying", [False, True])
    def test_matches_brute_force(self, rng, varying):
        params = make_params(n=64, m=6)
        for _ in range(10):
            if varying:
                per_symbol = tuple(
                    rng.choice(64, size=int(rng.integers(2, 40)), replace=False)
                    for _ in range(6)
                )
                alloc = si.ResourceAllocation(per_symbol_indices=per_symbol, n_subcarriers=64)
            else:
                idx = rng.choice(64, size=int(rng.integers(2, 40)), replace=False)
                alloc = const_alloc(idx, params)
            a, b, c = brute_force_fim_terms(alloc, params)
            fim = si.fim_single_target(alloc, params, 1.5, 0.5)
            expect = (2.0 * 1.5**2 / 0.5) * np.array([[a, b], [b, c]])
            assert np.allclose(fim, expect, rtol=1e-12, atol=0.0)
            crlb = si.crlb_delay(alloc, params, 1.5, 0.5)
            assert crlb == pytest.approx((0.5 / (2.0 * 1.5**2)) * c / (c * a - b**2), rel=1e-9)


class TestCrlbDelay:
    def test_two_subcarrier_hand_value(self):
        params = make_params(n=8, m=1)
        alloc = const_alloc([0, 1], params)
        w = 2 * math.pi * params.subcarrier_spacing_hz
        got = si.crlb_delay(alloc, params, 1.0, 1.0)
        assert got == pytest.approx((1.0 / 2.0) * 2.0 / w**2, rel=1e-12)

    def test_contiguous_closed_form(self):
        # power-sum closed form for the full band
        params = make_params(n=256, m=32)
        alloc = si.make_allocation(params, "full")
        w = 2 * math.pi * params.subcarrier_spacing_hz
        n, m = 256, 32
        expect = (1.0 / (2 * m)) * 12.0 / (w**2 * n * (n**2 - 1))
        assert si.crlb_delay(alloc, params, 1.0, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_edge_spread_beats_clustered(self):
        params = make_params(n=256, m=4)
        clustered = const_alloc(np.arange(64), params)
        spread = si.make_allocation(params, "random", n_active=64, seed=3)
        assert si.crlb_delay(spread, params, 1.0, 1.0) < si.crlb_delay(
            clustered, params, 1.0, 1.0
        )

    def test_general_form_reduces_to_constant_case(self, rng):
        params = make_params(n=128, m=16)
        for _ in range(20):
            k = int(rng.integers(2, 64))
            idx = np.sort(rng.choice(128, size=k, replace=False))
            alloc = const_alloc(idx, params)
            general = si.crlb_delay(alloc, params, 1.3, 0.7)
            special = crlb_delay_constant(idx, params, 16, 1.3, 0.7)
            assert abs(general - special) / special <= 1e-12

    def test_index_offset_invariance(self):
        params = make_params(n=256, m=2)
        base = np.array([0, 7, 30, 99])
        a = si.crlb_delay(const_alloc(base, params), params, 1.0, 1.0)
        b = si.crlb_delay(const_alloc(base + 100, params), params, 1.0, 1.0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_scalings(self):
        params1 = make_params(n=64, m=4)
        params2 = make_params(n=64, m=8)
        idx = [0, 9, 33, 63]
        v1 = si.crlb_delay(const_alloc(idx, params1), params1, 1.0, 1.0)
        v2 = si.crlb_delay(const_alloc(idx, params2), params2, 1.0, 1.0)
        assert v2 == pytest.approx(v1 / 2, rel=1e-12)  # 1/M
        v3 = si.crlb_delay(const_alloc(idx, params1), params1, 2.0, 1.0)
        assert v3 == pytest.approx(v1 / 4, rel=1e-12)  # 1/A^2
        v4 = si.crlb_delay(const_alloc(idx, params1), params1, 1.0, 3.0)
        assert v4 == pytest.approx(3 * v1, rel=1e-12)  # N0

    def test_consistency_with_fim_inverse(self, rng):
        params = make_params(n=128, m=8)
        for _ in range(50):
            k = int(rng.integers(2, 128))
            idx = np.sort(rng.choice(128, size=k, replace=False))
            err = si.crlb_vs_inverse_fim_check(const_alloc(idx, params), params, 1.0, 1.0)
            assert err <= 1e-9

    def test_singular_flagged(self):
        params = make_params(n=8, m=2)
        with pytest.raises(si.SingularFimError):
            si.crlb_vs_inverse_fim_check(const_alloc([3], params), params, 1.0, 1.0)

    def test_report_carries_range_floor(self):
        params = make_params(n=64, m=4)
        alloc = si.make_allocation(params, "full")
        rep = si.crlb_report(alloc, params, 1.0, 1.0)
        assert rep.crlb_range_m2 == pytest.approx(rep.crlb_delay_s2 * (C / 2) ** 2)
        assert rep.fim.shape == (2, 2)


def toy_spectrum(vals):
    """A hand-built delay periodogram of the values `vals` (N=16, 1 symbol)."""
    params = make_params(n=16, m=1)
    axis = np.arange(len(vals)) / (len(vals) * params.subcarrier_spacing_hz)
    return si.Periodogram(
        axis=axis, values=np.asarray(vals, dtype=float), domain="delay",
        method="zero_fill", oversample=1, params=params,
    )


class TestPslr:
    def test_delta_spectrum_infinite(self):
        vals = np.zeros(32)
        vals[4] = 1.0
        assert si.pslr(toy_spectrum(vals), mainlobe_halfwidth=2) == math.inf

    def test_all_zero_spectrum_is_a_numeric_failure(self):
        # a signal that underflows to 0 leaves no peak: the CLI's exit 3
        with pytest.raises(FloatingPointError, match="zero everywhere"):
            si.pslr(toy_spectrum(np.zeros(32)), mainlobe_halfwidth=2)

    def test_two_level_toy(self):
        vals = np.zeros(64)
        vals[10] = 1.0
        vals[40] = 0.1
        assert si.pslr(toy_spectrum(vals), mainlobe_halfwidth=3) == pytest.approx(20.0)

    def test_contiguous_kernel_level(self):
        params = make_params(n=128, m=1)
        alloc = si.make_allocation(params, "full")
        t = si.Target(distance_m=40 * params.range_bin_m, amplitude=1.0, phase_rad=0.0)
        grid = si.synthesize(si.Scene(targets=(t,), noise_variance_w=0.0), alloc, params, seed=0)
        p = si.zero_fill_periodogram(grid, oversample=16)
        assert si.pslr(p, mainlobe_halfwidth=16) == pytest.approx(13.26, abs=0.1)

    @pytest.mark.parametrize("halfwidth", [0, 1, 3, 7])
    def test_exclusion_zone_wraps_past_either_end(self, halfwidth):
        # shoulders above every sidelobe: a side range that takes in one
        # exclusion bin, at any peak position, reads that bin
        n = 16
        for main_idx in range(n):
            vals = np.ones(n)
            for d in range(1, halfwidth + 1):
                vals[(main_idx + d) % n] = vals[(main_idx - d) % n] = 3.0
            vals[main_idx] = 4.0
            p = toy_spectrum(vals)
            assert si.pslr(p, halfwidth) == 20.0 * math.log10(4.0)
            assert bits(si.pslr(p, halfwidth)) == bits(modular_pslr(p, halfwidth))

    def test_exclusion_zone_cannot_swallow_spectrum(self):
        vals = np.ones(16)
        with pytest.raises(ValueError):
            si.pslr(toy_spectrum(vals), mainlobe_halfwidth=8)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_the_modular_reference(self, data):
        # small integer magnitudes tie often: on plateaus, next to the peak
        # and across the wrap past the last bin
        n = data.draw(st.integers(3, 59))
        vals = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        assume(max(vals) > 0)
        halfwidth = data.draw(st.integers(0, (n - 2) // 2))
        p = toy_spectrum(vals)
        assert bits(si.pslr(p, halfwidth)) == bits(modular_pslr(p, halfwidth))


class TestMatch:
    def test_one_peak_detects_one_of_two_close_targets(self):
        vals = np.zeros(64)
        vals[10] = 1.0  # the one local maximum, so the one peak
        p = toy_spectrum(vals)
        range_bin = p.bin_width * C / 2.0
        true_ranges = np.array([9.6, 10.7]) * range_bin  # both within tol of the peak
        tol = 1.0 * range_bin
        errors, missed = _match(p, true_ranges, tol, common_exclusion_halfwidth(p))
        assert missed == 1
        assert errors == [pytest.approx(0.4 * range_bin)]
        # nearest-peak assignment lets the one peak detect both
        peaks = si.detect_peaks(p, k=2, min_separation=2 * common_exclusion_halfwidth(p))
        assert nearest_peak_match(peaks, true_ranges, tol)[1] == 0

    @pytest.mark.parametrize("distances", [(200.0,), (200.0, 330.0)])
    def test_matches_nearest_peak_reference_on_separated_targets(self, distances):
        # one target, or two more than twice the tolerance apart: the
        # nearest-peak rule cannot count one peak twice, so the two agree
        cfg = SweepConfig(
            params=si.OfdmParams(256, 32, 120e3, 24e9),
            n_active=64,
            snr_db_axis=(-28.0, 0.0),  # misses at -28 dB
            methods=si.SWEEP_METHODS,
            targets=tuple(si.Target(distance_m=d, amplitude=a) for d, a in zip(distances, (1.0, 0.8))),
            n_trials=15,
            master_seed=5,
        )
        true_ranges = np.array(distances)
        tol = cfg.miss_threshold_bins * cfg.params.range_bin_m
        assert len(distances) == 1 or np.ptp(true_ranges) > 2 * tol
        misses = 0
        for scene, ss in zip(cfg.scenes, np.random.SeedSequence(5).spawn(2)):
            for trial in _trials(cfg, scene, cfg.methods, cfg._allocations, cfg.n_trials, ss):
                for p in trial.values():
                    peaks = si.detect_peaks(
                        p, k=len(distances), min_separation=2 * common_exclusion_halfwidth(p)
                    )
                    want = nearest_peak_match(peaks, true_ranges, tol)
                    got = _match(p, true_ranges, tol, common_exclusion_halfwidth(p))
                    assert got[1] == want[1]
                    assert np.array_equal(bits(got[0]), bits(want[0]))
                    misses += got[1]
        assert misses > 0

    def test_sweep_counts_a_merged_pair_as_one_miss(self):
        # two targets 15 m apart: the 64-subcarrier contiguous band (19.5 m
        # resolution) merges them into one peak between them, the full band
        # resolves them
        cfg = SweepConfig(
            params=si.OfdmParams(256, 32, 120e3, 24e9),
            n_active=64,
            snr_db_axis=(10.0,),
            methods=("full_bandwidth", "equivalent_bandwidth"),
            targets=(si.Target(distance_m=200.0, amplitude=1.0), si.Target(distance_m=215.0, amplitude=0.8)),
            n_trials=20,
            master_seed=5,
        )
        res = monte_carlo_sweep(cfg)
        assert res.miss_rate["equivalent_bandwidth"][0] > 0.0
        assert res.miss_rate["full_bandwidth"][0] == 0.0


class TestAmbiguityFunction:
    @pytest.mark.parametrize("n", [31, 32])
    @pytest.mark.parametrize("pattern", ["random", "nested", "custom"])
    @pytest.mark.parametrize("axes", ["symmetric", "asymmetric"])
    def test_factored_surface_matches_lag_sum(self, n, pattern, axes):
        params = make_params(n=n, m=7)
        if pattern == "random":
            alloc = si.make_allocation(params, "random", n_active=9, seed=n)
        elif pattern == "nested":
            alloc = si.make_allocation(params, "nested", inner=3, outer=5)
        else:
            alloc = const_alloc([0, 2, 3, 11, n - 1], params)
        delay_bin = 1.0 / (n * params.subcarrier_spacing_hz)
        doppler_bin = 1.0 / (params.n_symbols * params.symbol_dur_s)
        if axes == "symmetric":
            delays = np.linspace(-12.0, 12.0, 97) * delay_bin
            dopplers = np.linspace(-3.0, 3.0, 25) * doppler_bin
        else:
            delays = np.linspace(-5.3, 40.1, 120) * delay_bin
            dopplers = np.linspace(-0.7, 6.2, 18) * doppler_bin
        surf = si.ambiguity_function(alloc, params, delays, dopplers)
        direct, virtual = lag_sum_ambiguity(alloc, params, delays, dopplers)
        assert surf.direct.shape == surf.virtual.shape == (dopplers.size, delays.size)
        np.testing.assert_allclose(surf.direct, direct, rtol=0, atol=1e-13)
        np.testing.assert_allclose(surf.virtual, virtual, rtol=0, atol=1e-13)

    def test_unit_peak_at_origin(self):
        params = make_params(n=32, m=4)
        alloc = si.make_allocation(params, "random", n_active=12, seed=2)
        delays = np.linspace(-2e-6, 2e-6, 41)
        dopplers = np.linspace(-4e3, 4e3, 21)
        surf = si.ambiguity_function(alloc, params, delays, dopplers)
        i0 = 10, 20
        assert surf.direct[i0] == pytest.approx(1.0, rel=1e-12)
        assert surf.virtual[i0] == pytest.approx(1.0, rel=1e-12)
        assert surf.direct.max() == pytest.approx(1.0, rel=1e-12)

    def test_full_allocation_delay_cut_is_dirichlet(self):
        params = make_params(n=16, m=2)
        alloc = si.make_allocation(params, "full")
        delays = np.linspace(-1e-6, 1e-6, 101)
        surf = si.ambiguity_function(alloc, params, delays, np.array([0.0]))
        cut = surf.direct_delay_cut()
        x = params.subcarrier_spacing_hz * delays
        with np.errstate(divide="ignore", invalid="ignore"):
            expect = np.abs(np.sin(np.pi * 16 * x) / (16 * np.sin(np.pi * x)))
        expect[np.isnan(expect)] = 1.0
        assert np.allclose(cut, expect, atol=1e-10)

    def test_virtual_cut_has_lower_max_sidelobe(self):
        params = make_params(n=64, m=2)
        delay_bin = 1.0 / (params.n_subcarriers * params.subcarrier_spacing_hz)
        delays = np.linspace(-20, 20, 801) * delay_bin
        for seed in range(5):
            alloc = si.make_allocation(params, "random", n_active=20, seed=seed)
            surf = si.ambiguity_function(alloc, params, delays, np.array([0.0]))
            direct, virtual = surf.direct_delay_cut(), surf.virtual_delay_cut()
            # exclude the shared mainlobe (one fundamental bin each side)
            inside = np.abs(delays) < delay_bin
            assert virtual[~inside].max() < direct[~inside].max()


class TestMonteCarloSweep:
    def tiny_config(self, **overrides):
        params = make_params(n=64, m=8)
        defaults = dict(
            params=params,
            n_active=16,
            snr_db_axis=(math.inf,),
            methods=("full_bandwidth", "direct_sparse", "autocorrelation"),
            targets=(si.Target(distance_m=10 * params.range_bin_m, amplitude=1.0),),
            n_trials=5,
            oversample=4,
            master_seed=3,
        )
        defaults.update(overrides)
        return SweepConfig(**defaults)

    def test_noiseless_on_grid_rmse_zero(self):
        # raw argmax recovery is exact; parabolic refinement on asymmetric
        # sparse kernels leaves a sub-millibin residual, so the tolerance is
        # a tiny fraction of one fundamental range bin
        cfg = self.tiny_config()
        res = monte_carlo_sweep(cfg)
        tol = 1e-2 * cfg.params.range_bin_m
        for m in res.config.methods:
            assert res.rmse_m[m][0] == pytest.approx(0.0, abs=tol)
            assert res.miss_rate[m][0] == 0.0

    def test_deterministic_per_master_seed(self):
        cfg = self.tiny_config(snr_db_axis=(0.0,))
        a = monte_carlo_sweep(cfg)
        b = monte_carlo_sweep(cfg)
        for m in cfg.methods:
            assert np.array_equal(a.rmse_m[m], b.rmse_m[m])
            assert np.array_equal(a.pslr_db[m], b.pslr_db[m])

    def test_threaded_matches_sequential(self):
        cfg = self.tiny_config(snr_db_axis=(0.0, 10.0))
        seq = monte_carlo_sweep(cfg, threads=1)
        par = monte_carlo_sweep(cfg, threads=2)
        for m in cfg.methods:
            assert np.array_equal(seq.rmse_m[m], par.rmse_m[m])
            assert np.array_equal(seq.pslr_db[m], par.pslr_db[m])

    def test_threaded_bitwise_across_row_blocks(self):
        # two full row blocks and a partial one: each call transforms the
        # CPI in its own workspace, so concurrent SNR points share none
        cfg = self.tiny_config(
            params=make_params(n=64, m=2 * _ROW_BLOCK + 3),
            snr_db_axis=(0.0, 10.0),
            methods=("autocorrelation", "nested"),
            n_trials=3,
        )
        seq = monte_carlo_sweep(cfg, threads=1)
        par = monte_carlo_sweep(cfg, threads=2)
        for m in cfg.methods:
            for key in ("rmse_m", "rmse_ci_m", "pslr_db", "pslr_ci_db", "miss_rate"):
                assert getattr(par, key)[m].tobytes() == getattr(seq, key)[m].tobytes()

    def test_method_results_independent_of_subset(self):
        full = monte_carlo_sweep(self.tiny_config(snr_db_axis=(0.0,)))
        solo = monte_carlo_sweep(
            self.tiny_config(snr_db_axis=(0.0,), methods=("autocorrelation",))
        )
        assert np.array_equal(
            full.pslr_db["autocorrelation"], solo.pslr_db["autocorrelation"]
        )

    @pytest.mark.parametrize("gram", [False, True])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_shared_slot_pairs_the_grid_in_any_subset(self, threads, gram, monkeypatch):
        # direct_sparse and autocorrelation read one grid per trial (its
        # statistics, with the draw opened for every constant allocation),
        # and each method's numbers do not depend on the rest of the subset
        if gram:
            monkeypatch.setattr(si.analysis, "_gram_route", lambda alloc, scene: alloc.is_constant)
            monkeypatch.setattr(synth._SignalTable, "grid", None)  # never called
        cfg = self.tiny_config(snr_db_axis=(0.0, 10.0), methods=si.analysis.SWEEP_METHODS)
        every = monte_carlo_sweep(cfg, threads=threads)
        subsets = [("direct_sparse", "autocorrelation")] + [(m,) for m in si.analysis.SWEEP_METHODS]
        for methods in subsets:
            part = monte_carlo_sweep(self.tiny_config(snr_db_axis=(0.0, 10.0), methods=methods), threads)
            for m in methods:
                for key in ("rmse_m", "pslr_db", "pslr_ci_db", "miss_rate"):
                    assert np.array_equal(getattr(part, key)[m], getattr(every, key)[m], equal_nan=True)

    def test_fixed_allocations_built_once_per_config(self, monkeypatch):
        cfg = self.tiny_config(snr_db_axis=(0.0, 10.0), methods=si.analysis.SWEEP_METHODS)
        built = cfg._allocations
        assert sorted(built) == ["equivalent_bandwidth", "full_bandwidth", "nested"]
        assert np.array_equal(built["equivalent_bandwidth"].indices, np.arange(cfg.n_active))
        assert built["nested"].n_active == built["equivalent_bandwidth"].n_active == cfg.n_active
        calls = []
        real = si.analysis.make_allocation
        monkeypatch.setattr(
            si.analysis, "make_allocation",
            lambda params, pattern, **kw: calls.append(pattern) or real(params, pattern, **kw),
        )
        monte_carlo_sweep(cfg)
        # only the random draw is redrawn, once per trial and SNR point
        assert calls == ["random"] * (cfg.n_trials * len(cfg.snr_db_axis))

    def test_only_zero_fill_slots_are_summed(self, monkeypatch):
        # slots 2 and 3 (full and equivalent band) are read through zero-fill
        # only, so only their symbol sum is drawn (the one-row statistics
        # draw, _gram_statistics with lags=False); slot 1 (the random draw)
        # and slot 4 (nested) are synthesized per cell.  A grid computes its
        # CPI lag sums only when a virtual method reads them, and its symbol
        # sum only when zero-fill reads it: slot 1 (direct_sparse), not slot 4.
        cfg = self.tiny_config(snr_db_axis=(0.0, 10.0), methods=si.analysis.SWEEP_METHODS)
        fixed = {id(a): m for m, a in cfg._allocations.items()}
        calls, lag_sums, symbol_sums = [], [], []

        def spy(real):
            def draw(table, alloc, seed, **lags):
                calls.append((fixed.get(id(alloc), "random"), lags == {"lags": False}))
                return real(table, alloc, seed, **lags)
            return draw

        kernel = synth._cpi_lags

        def counted(grid):
            lag_sums.append(fixed.get(id(grid.alloc), "random"))
            return kernel(grid)

        monkeypatch.setattr(synth._SignalTable, "grid", spy(synth._SignalTable.grid))
        monkeypatch.setattr(synth._SignalTable, "statistics", spy(synth._SignalTable.statistics))
        monkeypatch.setattr(synth, "_cpi_lags", counted)
        symbol_sum = synth.FreqGrid.symbol_sum.fget
        monkeypatch.setattr(
            synth.FreqGrid, "symbol_sum",
            property(lambda grid: symbol_sums.append(fixed.get(id(grid.alloc), "random")) or symbol_sum(grid)),
        )
        monte_carlo_sweep(cfg)
        draws = cfg.n_trials * len(cfg.snr_db_axis)
        assert len(calls) == 4 * draws
        assert set(calls) == {
            ("full_bandwidth", True),
            ("equivalent_bandwidth", True),
            ("random", False),
            ("nested", False),
        }
        # two per trial and SNR point: slots 1 and 4
        assert sorted(lag_sums) == ["nested"] * draws + ["random"] * draws
        assert symbol_sums == ["random"] * draws

        # direct_sparse reads slot 1, a virtual method's slot, so its grid is
        # synthesized as before, but nothing reads its lag sums
        calls.clear()
        lag_sums.clear()
        symbol_sums.clear()
        monte_carlo_sweep(self.tiny_config(snr_db_axis=(0.0, 10.0), methods=("direct_sparse",)))
        assert calls == [("random", False)] * draws
        assert lag_sums == []
        assert symbol_sums == ["random"] * draws

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep method"):
            self.tiny_config(methods=("direct_sparse", "music"))

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("oversample", 0, ValueError),
            ("oversample", True, TypeError),
            ("oversample", "4", TypeError),
            ("miss_threshold_bins", math.nan, ValueError),
            ("miss_threshold_bins", "x", TypeError),
            ("snr_db_axis", ("a",), TypeError),
            ("snr_db_axis", (-math.inf,), ValueError),
            ("snr_db_axis", (math.nan,), ValueError),
            ("snr_db_axis", (), ValueError),
            ("snr_db_axis", 5.0, TypeError),
            ("master_seed", -1, ValueError),
            ("master_seed", 1.5, TypeError),
            ("n_trials", 0, ValueError),
            ("n_trials", 2**53 + 1, ValueError),
            ("n_active", 100, ValueError),
            ("n_active", math.inf, TypeError),
            ("methods", (), ValueError),
            ("targets", (), ValueError),
        ],
    )
    def test_invalid_field_rejected_naming_it(self, field, value, error):
        with pytest.raises(error, match=f"^{field}"):
            self.tiny_config(**{field: value})

    def test_scene_per_snr_point(self):
        cfg = self.tiny_config(snr_db_axis=(math.inf, 0.0))
        assert [s.snr_db for s in cfg.scenes] == [math.inf, 0.0]
        assert cfg.scenes[0].noise_variance() == 0.0
        assert cfg.scenes[1].targets == cfg.targets

    def test_csv_round_trip_shape(self, tmp_path):
        table = _exp_rmse_pslr_sweep(self.tiny_config(snr_db_axis=(0.0, 5.0)))["sweep.csv"]
        path = tmp_path / "sweep.csv"
        _write_csv(path, *table)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "snr_db,method,rmse_m,rmse_ci,pslr_db,pslr_ci,miss_rate,trials"
        assert len(lines) == 2 + 2 * 3


class TestTwoTargetDemo:
    def test_small_run_reports_rates(self):
        params = si.OfdmParams(128, 32, 120e3, 24e9)
        cfg = si.TwoTargetDemoConfig(
            params=params, n_active=32, snr_db=-5.0, n_runs=8, master_seed=1,
            distances_m=(150.0, 260.0), velocities_mps=(0.0, 0.0), amplitudes=(1.0, 0.8),
        )
        res = si.two_target_demo(cfg)
        assert res.direct_success.shape == (8,)
        assert 0.0 <= res.direct_success_rate <= 1.0
        assert res.example_direct.domain == "delay"

    def test_deterministic(self):
        params = si.OfdmParams(128, 16, 120e3, 24e9)
        cfg = si.TwoTargetDemoConfig(
            params=params, n_active=32, snr_db=-8.0, n_runs=6, master_seed=5,
        )
        a = si.two_target_demo(cfg)
        b = si.two_target_demo(cfg)
        assert np.array_equal(a.direct_success, b.direct_success)
        assert np.array_equal(a.virtual_success, b.virtual_success)


    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("n_active", 1, ValueError),
            ("n_active", 1000, ValueError),
            ("n_active", True, TypeError),
            ("oversample", 0, ValueError),
            ("n_runs", 0, ValueError),
            ("n_runs", 2.0, TypeError),
            ("master_seed", -1, ValueError),
            ("snr_db", math.nan, ValueError),
            ("snr_db", -math.inf, ValueError),
            ("snr_db", "x", TypeError),
            ("distances_m", (-5.0, 10.0), ValueError),
            ("distances_m", (100.0,), ValueError),
            ("distances_m", "ab", TypeError),
            ("velocities_mps", ("a", "b"), TypeError),
            ("velocities_mps", (math.inf, 0.0), ValueError),
            ("amplitudes", (0.0, 1.0), ValueError),
            ("amplitudes", (math.nan, 1.0), ValueError),
        ],
    )
    def test_invalid_field_rejected_naming_it(self, field, value, error):
        params = si.OfdmParams(128, 16, 120e3, 24e9)
        with pytest.raises(error, match=field):
            si.TwoTargetDemoConfig(params=params, **{field: value})

    def test_builds_its_scene_once(self):
        cfg = si.TwoTargetDemoConfig(params=si.OfdmParams(128, 16, 120e3, 24e9), snr_db=math.inf)
        assert [t.distance_m for t in cfg.scene.targets] == list(cfg.distances_m)
        assert [t.amplitude for t in cfg.scene.targets] == list(cfg.amplitudes)
        assert cfg.scene.noise_variance() == 0.0


class TestCommonExclusion:
    def test_halfwidth_scales_with_oversampling(self):
        params = make_params(n=64, m=2)
        alloc = si.make_allocation(params, "full")
        t = si.Target(distance_m=100.0, amplitude=1.0)
        grid = si.synthesize(si.Scene(targets=(t,), noise_variance_w=0.0), alloc, params, seed=0)
        p4 = si.zero_fill_periodogram(grid, oversample=4)
        p8 = si.zero_fill_periodogram(grid, oversample=8)
        assert common_exclusion_halfwidth(p8) == 2 * common_exclusion_halfwidth(p4)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_sweep_refuses_the_grids_whose_spectra_pslr_refuses(self, n):
        """A sweep scores the zero-fill spectrum (Q = oversample * N) and the
        virtual one (Q = oversample * 2N) at the common exclusion zone;
        SweepConfig must reject exactly the oversamples where pslr would refuse."""
        params = make_params(n=n, m=1)

        def pslr_refuses(q, oversample):
            axis = np.arange(q) / (q * params.subcarrier_spacing_hz)
            p = si.Periodogram(
                axis=axis, values=np.ones(q), domain="delay", method="x",
                oversample=oversample, params=params,
            )
            try:
                si.pslr(p, common_exclusion_halfwidth(p))
            except ValueError as exc:
                assert "exclusion zone" in str(exc)
                return True
            return False

        for oversample in range(1, 6):
            config = partial(SweepConfig, params, 2, (0.0,), oversample=oversample)
            if any(pslr_refuses(q, oversample) for q in (oversample * n, oversample * 2 * n)):
                with pytest.raises(ValueError, match="^oversample: "):
                    config()
            else:
                config()


def spy_draws(monkeypatch):
    """Record (table, allocation, drawn) of every draw through a per-point
    table (synth._SignalTable), in order."""
    draws = []
    for name in ("grid", "statistics"):
        def spy(table, alloc, seed, real=getattr(synth._SignalTable, name), **lags):
            drawn = real(table, alloc, seed, **lags)
            draws.append((table, alloc, drawn))
            return drawn
        monkeypatch.setattr(synth._SignalTable, name, spy)
    return draws


DESK = make_params(n=256, m=32)
STILL = si.Target(distance_m=200.0, amplitude=1.0)
MOVING = si.Target(distance_m=200.0, velocity_mps=15.0, amplitude=1.0)
SECOND = si.Target(distance_m=330.0, velocity_mps=-9.0, amplitude=0.8)
PHASED = si.Target(distance_m=200.0, amplitude=1.0, phase_rad=0.7)


class TestSignalTable:
    """A sweep or demo point draws through one table of what does not
    depend on the seed (synth._SignalTable), with the bits of every draw
    built per call (reference.per_call_walk).  Each point walks two trials
    or more, so a draw that wrote into a kept unit would move a later one."""

    def assert_walk_keeps_bits(self, monkeypatch, cfg, scenes, methods, fixed, n_trials):
        draws = spy_draws(monkeypatch)
        for i, scene in enumerate(scenes):
            draws.clear()
            for _ in _trials(cfg, scene, methods, fixed, n_trials, np.random.SeedSequence([9, i])):
                pass
            want = per_call_walk(cfg, scene, methods, fixed, n_trials, np.random.SeedSequence([9, i]))
            assert len(draws) == len(want) > 0
            for (_, alloc, got), (_, ref_alloc, ref) in zip(draws, want):
                assert type(got) is type(ref)
                assert np.array_equal(alloc.indices, ref_alloc.indices)
                for read in ("symbol_sum", "cpi_lags", "block"):
                    assert np.array_equal(bits(getattr(got, read)), bits(getattr(ref, read))), read
            tables = {id(table): table for table, _, _ in draws}
            assert len(tables) == 1  # one table per point
            (table,) = tables.values()
            kept = [u for units in table._kept.values() for u in units]
            assert len(table._kept) == len({id(a) for _, a, _ in draws} & set(map(id, fixed.values())))
            projections = [p for proj in table._projections.values() for p in proj]
            phases = [a for t in table.targets for a in t[2:]]
            assert all(not a.flags.writeable for a in kept + projections + phases)

    @pytest.mark.parametrize(
        "params, n_active, targets, snr_db_axis",
        [
            pytest.param(DESK, 64, (STILL,), (0.0, math.inf), id="desk"),
            pytest.param(make_params(n=1000, m=720), 200, (STILL,), (0.0,), id="paper-gram"),
            pytest.param(make_params(n=256, m=80), 64, (MOVING,), (0.0, math.inf), id="moving-gram-d2"),
            pytest.param(DESK, 64, (MOVING, SECOND), (0.0,), id="two-targets"),
            pytest.param(make_params(n=256, m=80), 64, (MOVING, SECOND), (0.0,), id="two-targets-gram"),
            pytest.param(DESK, 64, (PHASED,), (0.0,), id="phase"),
            pytest.param(make_params(n=256, m=80), 64, (PHASED, SECOND), (0.0, math.inf), id="phase-gram"),
        ],
    )
    def test_sweep_draws_keep_the_per_call_bits(self, monkeypatch, params, n_active, targets, snr_db_axis):
        cfg = SweepConfig(
            params=params, n_active=n_active, snr_db_axis=snr_db_axis,
            methods=si.SWEEP_METHODS, targets=targets, n_trials=2,
        )
        self.assert_walk_keeps_bits(monkeypatch, cfg, cfg.scenes, cfg.methods, cfg._allocations, 2)

    @pytest.mark.parametrize("m", [32, 128])  # grids, and statistics in three dimensions
    def test_demo_draws_keep_the_per_call_bits(self, monkeypatch, m):
        cfg = si.TwoTargetDemoConfig(params=make_params(n=256, m=m), n_runs=3)
        pair = ("direct_sparse", "autocorrelation")
        self.assert_walk_keeps_bits(monkeypatch, cfg, [cfg.scene], pair, {}, 3)

    def test_aliasing_sweep_warns_once_per_point_and_kind(self):
        # a target past both unambiguous spans: 3 points of 4 trials of 4
        # draws warn once per point and kind, 6 times, not once per draw
        far = C / (2 * DESK.subcarrier_spacing_hz) * 1.5
        v_alias = 0.5 / DESK.symbol_dur_s * C / (2 * DESK.carrier_freq_hz) * 1.5
        cfg = SweepConfig(
            params=DESK, n_active=64, snr_db_axis=(0.0, 10.0, math.inf), methods=si.SWEEP_METHODS,
            targets=(si.Target(distance_m=far, velocity_mps=v_alias, amplitude=1.0),), n_trials=4,
        )
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            monte_carlo_sweep(cfg, threads=1)
        messages = [str(w.message) for w in seen]
        assert len(messages) == 6
        assert sum(m.startswith("target at ") for m in messages) == 3
        assert sum(m.startswith("target Doppler ") for m in messages) == 3
        assert all(m.endswith("it will alias") for m in messages)
