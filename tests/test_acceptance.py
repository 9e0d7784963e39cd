"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion
pass/fail lines; each test also prints a summary line (visible with -s).
"""
import json
import math
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

import sparse_isac as si
from reference import crlb_delay_constant
from sparse_isac.analysis import SweepConfig, monte_carlo_sweep

C = si.SPEED_OF_LIGHT


def desk_params(n_symbols=32):
    return si.OfdmParams(
        n_subcarriers=256,
        n_symbols=n_symbols,
        subcarrier_spacing_hz=120e3,
        carrier_freq_hz=24e9,
    )


def report(line: str):
    print(f"\n[acceptance] {line}")


def median_with_ci(samples: np.ndarray) -> tuple[float, float, float]:
    """Median plus a 95% order-statistic confidence interval."""
    x = np.sort(samples[np.isfinite(samples)])
    n = x.size
    half = 1.96 * math.sqrt(n) / 2.0
    lo = max(int(math.floor(n / 2 - half)), 0)
    hi = min(int(math.ceil(n / 2 + half)), n - 1)
    return float(np.median(x)), float(x[lo]), float(x[hi])


class TestAcceptance:
    def test_c01_crlb_closed_form_consistency(self):
        # 1000 random allocations: closed form vs inverse-FIM within 1e-9,
        # general multi-symbol form vs symbol-constant form within 1e-12
        params = desk_params()
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        worst_inv, worst_const = 0.0, 0.0
        for _ in range(1000):
            k = int(rng.integers(8, 257))
            idx = np.sort(rng.choice(256, size=k, replace=False))
            alloc = si.ResourceAllocation.constant(idx, params.n_symbols, 256)
            err = si.crlb_vs_inverse_fim_check(alloc, params, 1.0, 1.0)
            worst_inv = max(worst_inv, err)
            general = si.crlb_delay(alloc, params, 1.0, 1.0)
            special = crlb_delay_constant(idx, params, params.n_symbols, 1.0, 1.0)
            worst_const = max(worst_const, abs(general - special) / special)
        elapsed = time.perf_counter() - start
        assert worst_inv <= 1e-9
        assert worst_const <= 1e-12
        assert elapsed < 10.0
        report(
            f"criterion 1 PASS: inverse-FIM err {worst_inv:.2e} <= 1e-9, "
            f"constant-case err {worst_const:.2e} <= 1e-12, {elapsed:.1f}s < 10s"
        )

    def test_c02_ml_estimator_reaches_crlb(self):
        # single on-grid target, full allocation: refined ML range RMSE
        # within 3 dB of the CRLB floor at 0/5/10 dB, 1000 trials each
        params = desk_params()
        alloc = si.make_allocation(params, "full")
        target = si.Target(distance_m=41 * params.range_bin_m, amplitude=1.0)
        start = time.perf_counter()
        ratios = {}
        for snr_db in (0.0, 5.0, 10.0):
            scene = si.Scene(targets=(target,), snr_db=snr_db)
            sq = 0.0
            seeds = np.random.SeedSequence(202).spawn(1000)
            for s in seeds:
                grid = si.synthesize(scene, alloc, params, seed=s)
                est = si.ml_single_target(grid, oversample=8, refine=True)
                sq += (est.range_m - target.distance_m) ** 2
            rmse = math.sqrt(sq / 1000)
            noise_var = 10.0 ** (-snr_db / 10.0)
            floor = math.sqrt(si.crlb_delay(alloc, params, 1.0, noise_var)) * C / 2
            ratios[snr_db] = 20.0 * math.log10(rmse / floor)
        elapsed = time.perf_counter() - start
        for snr_db, ratio_db in ratios.items():
            assert abs(ratio_db) <= 3.0, f"{snr_db} dB point off by {ratio_db:.2f} dB"
        assert elapsed < 120.0
        pretty = ", ".join(f"{k:g} dB: {v:+.2f} dB" for k, v in ratios.items())
        report(f"criterion 2 PASS: RMSE vs CRLB floor ({pretty}), {elapsed:.1f}s < 120s")

    def test_c03_ml_argmax_equals_zero_fill_argmax(self):
        params = si.OfdmParams(128, 8, 120e3, 24e9)
        rng = np.random.default_rng(303)
        start = time.perf_counter()
        for trial, seed in enumerate(np.random.SeedSequence(303).spawn(100)):
            alloc = si.make_allocation(
                params, "random", n_active=int(rng.integers(8, 65)), seed=trial
            )
            target = si.Target(
                distance_m=float(rng.uniform(20.0, 1000.0)),
                velocity_mps=float(rng.uniform(-20.0, 20.0)),
                amplitude=1.0,
            )
            scene = si.Scene(targets=(target,), snr_db=float(rng.uniform(-5.0, 15.0)))
            grid = si.synthesize(scene, alloc, params, seed=seed)
            p = si.zero_fill_periodogram(grid, oversample=4)
            est = si.ml_single_target(grid, oversample=4, refine=False)
            assert est.bin_index == p.argmax_bin
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        report(f"criterion 3 PASS: identical argmax on 100 noisy grids, {elapsed:.1f}s < 10s")

    def test_c04_noiseless_virtual_signal_exact(self):
        # every available lag matches A^2 e^{-j 2 pi df s tau} to 1e-10
        params = desk_params(n_symbols=16)
        for seed in range(8):
            alloc = si.make_allocation(params, "random", n_active=48, seed=seed)
            amp = 0.5 + 0.25 * seed
            target = si.Target(
                distance_m=50.0 + 37.0 * seed,
                velocity_mps=-10.0 + 3.0 * seed,
                amplitude=amp,
                phase_rad=0.7,
            )
            grid = si.synthesize(
                si.Scene(targets=(target,), noise_variance_w=0.0), alloc, params, seed=seed
            )
            vs, ap = si.build_virtual_signal(grid)
            tau = 2.0 * target.distance_m / C
            expect = amp**2 * np.exp(
                -2j * np.pi * params.subcarrier_spacing_hz * ap.lags * tau
            )
            rel = np.abs(vs.values - expect) / np.abs(expect)
            assert rel.max() <= 1e-10
        report("criterion 4 PASS: virtual lags match the target phasor to 1e-10")

    def test_c05_two_target_demo_detection_rates(self):
        params = desk_params(n_symbols=128)
        cfg = si.TwoTargetDemoConfig(
            params=params, n_active=64, snr_db=-10.0, n_runs=100, master_seed=505
        )
        res = si.two_target_demo(cfg)
        assert res.virtual_success_rate >= 0.90
        direct_failures = 1.0 - res.direct_success_rate
        virtual_failures = 1.0 - res.virtual_success_rate
        assert direct_failures > virtual_failures
        report(
            f"criterion 5 PASS: virtual both-peaks rate {res.virtual_success_rate:.2f} >= 0.90, "
            f"direct fails {direct_failures:.2f} > virtual fails {virtual_failures:.2f}"
        )

    def test_c06_pslr_ordering_with_confidence(self):
        params = desk_params()
        cfg = SweepConfig(
            params=params,
            n_active=64,
            snr_db_axis=(0.0, 10.0),
            methods=("equivalent_bandwidth", "direct_sparse", "autocorrelation"),
            targets=(si.Target(distance_m=200.0, amplitude=1.0),),
            n_trials=100,
            oversample=4,
            master_seed=606,
        )
        res = monte_carlo_sweep(cfg)
        stats = {
            m: [median_with_ci(res.pslr_samples[m][i]) for i in range(2)]
            for m in cfg.methods
        }
        for i, snr in enumerate(cfg.snr_db_axis):
            v_med = stats["autocorrelation"][i][0]
            assert v_med > stats["direct_sparse"][i][0]
            assert v_med > stats["equivalent_bandwidth"][i][0]
        # non-overlapping 95% CIs at the 10 dB point
        v_lo = stats["autocorrelation"][1][1]
        assert v_lo > stats["direct_sparse"][1][2]
        assert v_lo > stats["equivalent_bandwidth"][1][2]
        report(
            "criterion 6 PASS: median PSLR at 10 dB "
            f"virtual {stats['autocorrelation'][1][0]:.2f} dB > "
            f"direct {stats['direct_sparse'][1][0]:.2f} dB > "
            f"equivalent {stats['equivalent_bandwidth'][1][0]:.2f} dB, CIs disjoint"
        )

    def test_c07_rmse_ordering_at_high_snr(self):
        # n_active above N/4 so the sparse information deficit leaves room
        # under the 2x bound (at N/4 the sparse CRLB itself sits at 2x)
        params = desk_params()
        cfg = SweepConfig(
            params=params,
            n_active=96,
            snr_db_axis=(10.0, 15.0),
            methods=(
                "full_bandwidth",
                "equivalent_bandwidth",
                "direct_sparse",
                "autocorrelation",
            ),
            targets=(si.Target(distance_m=203.7, amplitude=1.0),),
            n_trials=300,
            oversample=4,
            master_seed=707,
        )
        res = monte_carlo_sweep(cfg)
        for i, snr in enumerate(cfg.snr_db_axis):
            full = res.rmse_m["full_bandwidth"][i]
            auto = res.rmse_m["autocorrelation"][i]
            equiv = res.rmse_m["equivalent_bandwidth"][i]
            assert full <= auto <= 2.0 * full, f"at {snr} dB: {full=} {auto=}"
            assert equiv > auto, f"at {snr} dB: {equiv=} {auto=}"
        ratios = res.rmse_m["autocorrelation"] / res.rmse_m["full_bandwidth"]
        report(
            "criterion 7 PASS: autocorrelation / full RMSE = "
            + ", ".join(f"{r:.2f}x" for r in ratios)
            + " (<= 2x), equivalent above both"
        )

    def test_c08_hole_fill_curve_shape(self):
        n = 256
        grid_n_active = (16, 32, 64, 128, 200, 224)
        curves = [
            si.hole_fill_curve(n, na, n_trials=800, seed=808 + i)
            for i, na in enumerate(grid_n_active)
        ]
        # monotone non-decreasing within the confidence bands, per lag
        for prev, nxt in zip(curves, curves[1:]):
            lower_prev = prev.fill_probability - prev.fill_halfwidth
            upper_next = nxt.fill_probability + nxt.fill_halfwidth
            assert np.all(upper_next >= lower_prev)
        # some cardinality below N reaches 95% for every lag
        top = curves[-1]
        assert top.n_active < n
        assert top.min_fill_probability >= 0.95
        report(
            f"criterion 8 PASS: per-lag fill monotone within CI bands; "
            f"min fill probability {top.min_fill_probability:.3f} >= 0.95 at "
            f"n_active={top.n_active} < {n}"
        )

    def test_c09_difference_set_matches_brute_force(self):
        rng = np.random.default_rng(909)
        for _ in range(1000):
            n = int(rng.integers(8, 257))
            k = int(rng.integers(2, min(n, 64) + 1))
            idx = np.sort(rng.choice(n, size=k, replace=False))
            ap = si.difference_set(si.ResourceAllocation.constant(idx, 1, n))
            oracle = Counter(int(a) - int(b) for a in idx for b in idx)
            assert set(ap.lags.tolist()) == set(oracle.keys())
            for lag, cnt in zip(ap.lags, ap.pair_counts):
                assert oracle[int(lag)] == int(cnt)
        report("criterion 9 PASS: 1000 difference sets equal brute-force enumeration")

    def test_c10_reruns_are_byte_identical(self, tmp_path):
        cfg = {
            "experiment": "rmse_pslr_sweep",
            "seed": 1010,
            "ofdm": {
                "n_subcarriers": 64,
                "n_symbols": 8,
                "subcarrier_spacing_hz": 120e3,
                "carrier_freq_hz": 24e9,
            },
            "n_active": 16,
            "snr_db_axis": [0.0, 10.0],
            "methods": ["full_bandwidth", "direct_sparse", "autocorrelation"],
            "trials": 6,
            "scene": {"targets": [{"distance_m": 120.0, "amplitude": 1.0}]},
        }
        outputs = {}
        for name in ("a", "b"):
            out = tmp_path / name
            cfg_path = tmp_path / f"cfg_{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            proc = subprocess.run(
                [sys.executable, "-m", "sparse_isac.cli", "run",
                 "--config", str(cfg_path), "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[name] = (out / "sweep.csv").read_bytes()
        assert outputs["a"] == outputs["b"]
        report("criterion 10 PASS: re-run with identical config+seed is byte-identical")
