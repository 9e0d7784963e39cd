"""A sweep or demo point scores its trials block by block (analysis._trials):
one transform per method and block, then one peak pick, match and PSLR
for the block's stack.  Each outcome has the bits of the trials' periodograms
built one at a time from the same draws (reference.per_call_periodograms)
and scored by the slow references: the greedy peak picker, the
peak-by-peak vote and the modular PSLR mask.  A point draws its trials in
order, so a longer walk starts with the trials of a shorter one."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sparse_isac as si
from reference import bits, greedy_detect_peaks, modular_pslr, per_call_periodograms, voting_match
from sparse_isac import analysis
from sparse_isac.analysis import _TRIAL_BLOCK, _pslrs, _sweep_point, _trials, common_exclusion_halfwidth
from sparse_isac.estimators import _pick_peaks, _refined_peaks


def params(n, m):
    return si.OfdmParams(n_subcarriers=n, n_symbols=m, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9)


DESK = params(256, 32)
GRAM = params(256, 80)  # M - d > K: each virtual slot's Bartlett factor fills all K rows
MOVING = si.Target(distance_m=200.0, velocity_mps=15.0, amplitude=1.0)


def reference_scores(trials, true_ranges, tol_m):
    """Per method: (errors of the detected targets, trial by trial in target
    order, PSLR of every trial, missed targets) of per-call periodograms."""
    out = {}
    for trial in trials:
        for method, p in trial.items():
            errors, pslrs, missed = out.setdefault(method, ([], [], [0]))
            halfwidth = common_exclusion_halfwidth(p)
            peaks = greedy_detect_peaks(p, k=len(true_ranges), min_separation=2 * halfwidth)
            detected, misses = voting_match(peaks, true_ranges, tol_m)
            errors.extend(detected)
            missed[0] += misses
            pslrs.append(modular_pslr(p, halfwidth))
    return {m: (np.array(e, dtype=float), np.array(p), missed[0]) for m, (e, p, missed) in out.items()}


SWEEPS = {
    "desk": dict(
        params=DESK, n_active=64, snr_db_axis=(-10.0, 0.0, math.inf), methods=si.SWEEP_METHODS, n_trials=20,
    ),
    # past the first block, of _BLOCK_BINS // (4 * 2 * 1000) = 16 trials
    "paper": dict(params=params(1000, 720), n_active=200, snr_db_axis=(15.0,), n_trials=17),
    "close_targets": dict(
        params=DESK, n_active=64, snr_db_axis=(10.0,), methods=si.SWEEP_METHODS, n_trials=20,
        targets=(si.Target(distance_m=200.0, amplitude=1.0), si.Target(distance_m=215.0, amplitude=0.8)),
    ),
    "two_blocks": dict(
        params=DESK, n_active=64, snr_db_axis=(0.0,), n_trials=_TRIAL_BLOCK + 1,
        methods=("full_bandwidth", "direct_sparse", "autocorrelation"),
    ),
    "gram_factors": dict(
        params=GRAM, n_active=64, snr_db_axis=(0.0,), methods=si.SWEEP_METHODS, targets=(MOVING,), n_trials=3,
    ),
    "gram_noiseless": dict(  # no noise or factor stream
        params=GRAM, n_active=64, snr_db_axis=(math.inf,), methods=si.SWEEP_METHODS, targets=(MOVING,),
        n_trials=3,
    ),
}


@pytest.mark.parametrize("case", SWEEPS)
def test_sweep_keeps_the_per_call_bits(case):
    cfg = si.SweepConfig(**SWEEPS[case], master_seed=5)
    result = si.monte_carlo_sweep(cfg, threads=1)
    true_ranges = np.array([t.distance_m for t in cfg.targets])
    tol_m = cfg.miss_threshold_bins * cfg.params.range_bin_m
    n_truth = cfg.n_trials * len(cfg.targets)
    def point_seeds():  # spawning moves a SeedSequence on: fresh ones per walk
        return np.random.SeedSequence(cfg.master_seed).spawn(len(cfg.scenes))

    for i, (scene, ss) in enumerate(zip(cfg.scenes, point_seeds())):
        trials = per_call_periodograms(cfg, scene, cfg.methods, cfg.n_trials, ss)
        want = reference_scores(trials, true_ranges, tol_m)
        point = _sweep_point(cfg, scene, point_seeds()[i]) if i == 0 else None
        for m in cfg.methods:
            errors, pslrs, missed = want[m]
            assert bits(result.error_samples[m][i]).tolist() == bits(errors).tolist(), m
            assert bits(result.pslr_samples[m][i]).tolist() == bits(pslrs).tolist(), m
            assert result.miss_rate[m][i] == missed / n_truth
            if point is not None:
                got_errors, got_pslrs, got_missed = point[m]
                assert bits(got_errors).tolist() == bits(errors).tolist()
                assert bits(got_pslrs).tolist() == bits(pslrs).tolist()
                assert got_missed == missed


@pytest.mark.parametrize("m", [32, 128])  # grids, and statistics in three dimensions
def test_demo_keeps_the_per_call_bits(m):
    cfg = si.TwoTargetDemoConfig(params=params(256, m), n_runs=20, master_seed=5)
    result = si.two_target_demo(cfg)
    pair = ("direct_sparse", "autocorrelation")
    trials = per_call_periodograms(cfg, cfg.scene, pair, cfg.n_runs, np.random.SeedSequence(cfg.master_seed))
    tol_m = analysis._DEMO_MATCH_TOL_BINS * cfg.params.range_bin_m
    true_ranges = np.array(cfg.distances_m)
    success = {method: [] for method in pair}
    for trial in trials:
        for method, p in trial.items():
            peaks = greedy_detect_peaks(p, k=2, min_separation=2 * common_exclusion_halfwidth(p))
            success[method].append(voting_match(peaks, true_ranges, tol_m)[1] == 0)
    assert result.direct_success.tolist() == success["direct_sparse"]
    assert result.virtual_success.tolist() == success["autocorrelation"]
    for got, want in ((result.example_direct, trials[0]["direct_sparse"]),
                      (result.example_virtual, trials[0]["autocorrelation"])):
        assert (got.method, got.n_bins, got.bin_width) == (want.method, want.n_bins, want.bin_width)
        assert np.array_equal(bits(got.values), bits(want.values))


@pytest.mark.parametrize("grid", [DESK, GRAM], ids=["desk", "gram"])
def test_a_longer_sweep_starts_with_the_shorter_one(grid):
    # a point's trials draw in order from its streams, so the first 5
    # trials of a walk past the first block are those of a 5-trial walk
    cfg = si.SweepConfig(
        params=grid, n_active=64, snr_db_axis=(0.0,), methods=si.SWEEP_METHODS, n_trials=5, master_seed=3,
    )
    short = si.monte_carlo_sweep(cfg, threads=1)
    long = si.monte_carlo_sweep(replace(cfg, n_trials=_TRIAL_BLOCK + 3), threads=1)
    for m in cfg.methods:
        (want_errors,), (got_errors,) = short.error_samples[m], long.error_samples[m]
        assert len(want_errors) > 0
        assert bits(got_errors[: len(want_errors)]).tolist() == bits(want_errors).tolist(), m
        (want_pslrs,), (got_pslrs,) = short.pslr_samples[m], long.pslr_samples[m]
        assert bits(got_pslrs[:5]).tolist() == bits(want_pslrs).tolist(), m


def demo_walk(cfg) -> dict:
    """{method: (runs, Q) delay magnitudes} of the demo's walk (_trials)."""
    pair = ("direct_sparse", "autocorrelation")
    ss = np.random.SeedSequence(cfg.master_seed)
    walk = _trials(cfg, cfg.scene, pair, {}, cfg.n_runs, ss)
    blocks = [{m: v.copy() for m, v in block.items()} for block in walk]  # each block is cleared after use
    return {m: np.concatenate([block[m] for block in blocks]) for m in pair}


def test_a_longer_demo_starts_with_the_shorter_one():
    # both walks pass the end of the first block, _TRIAL_BLOCK runs at N = 256
    cfg = si.TwoTargetDemoConfig(params=DESK, n_runs=_TRIAL_BLOCK + 1, master_seed=5)
    short, long = demo_walk(cfg), demo_walk(replace(cfg, n_runs=_TRIAL_BLOCK + 3))
    for m, want in short.items():
        assert len(want) == _TRIAL_BLOCK + 1
        assert np.array_equal(bits(long[m][: len(want)]), bits(want)), m


def stack(rows):
    """The (T, n) magnitudes of the rows and the Periodogram of each row,
    on the axis bin q at q / (n * spacing) s."""
    v = np.array(rows, dtype=float)
    axis = np.arange(v.shape[1]) / (v.shape[1] * DESK.subcarrier_spacing_hz)
    return v, [
        si.Periodogram(
            axis=axis, values=row.copy(), domain="delay", method="zero_fill", oversample=1, params=DESK,
        )
        for row in v
    ]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_stack_rules_match_the_references_row_by_row(data):
    # small integer magnitudes tie often: plateaus at the maximum, across
    # the wrap past the last bin, rows equal or zero everywhere, and rows
    # with no strict local maximum, stacked so that rows differ in each
    n = data.draw(st.integers(2, 40))
    rows = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=1, max_size=6))
    k = data.draw(st.integers(1, 3))
    min_separation = data.draw(st.integers(-1, 2 * n))
    v, periodograms = stack(rows)
    p0 = periodograms[0]
    bins = _pick_peaks(v, k, min_separation)
    refined = _refined_peaks(v, bins, p0.bin_width, float(p0.axis[0]))
    for row_bins, row_refined, p in zip(bins, refined, periodograms):
        want = greedy_detect_peaks(p, k=k, min_separation=min_separation)
        picked = row_bins >= 0
        assert row_bins[picked].tolist() == [q.bin_index for q in want.peaks]
        assert picked.tolist() == sorted(picked.tolist(), reverse=True)  # -1 only past the last peak
        assert bits(row_refined[picked]).tolist() == bits([q.refined_axis_value for q in want.peaks]).tolist()
        assert np.isnan(row_refined[~picked]).all()
    halfwidth = data.draw(st.integers(0, (n - 2) // 2))
    assume(n > 2 * halfwidth + 1)
    if min(max(row) for row in rows) == 0:
        with pytest.raises(FloatingPointError, match="^zero_fill delay spectrum is zero everywhere$"):
            _pslrs(v, halfwidth, "zero_fill delay")
    else:
        got = _pslrs(v, halfwidth, "zero_fill delay")
        assert bits(got).tolist() == bits([modular_pslr(p, halfwidth) for p in periodograms]).tolist()


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_stack_pick_is_the_greedy_row_by_row(data):
    # small integer magnitudes tie often: plateaus at the maximum and across
    # the wrap past the last bin; every stack holds a zero row and a
    # constant row; k runs past the peaks a row can hold and min_separation
    # past half the row, where one peak strikes out every other bin
    n = data.draw(st.integers(2, 29))
    rows = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), max_size=6))
    rows += [[0] * n, [data.draw(st.integers(1, 3))] * n]
    rows = data.draw(st.permutations(rows))
    k = data.draw(st.integers(1, 6))
    min_separation = data.draw(st.integers(-1, n + 2))
    v, periodograms = stack(rows)
    bins = _pick_peaks(v, k, min_separation)
    assert bins.shape == (len(rows), min(k, n))
    for row_bins, p in zip(bins.tolist(), periodograms):
        want = [q.bin_index for q in greedy_detect_peaks(p, k=k, min_separation=min_separation).peaks]
        assert row_bins == want + [-1] * (bins.shape[1] - len(want))


def traced_peak(cfg) -> int:
    tracemalloc.start()
    try:
        _sweep_point(cfg, cfg.scenes[0], np.random.SeedSequence(1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_point_memory_is_bounded_by_the_block():
    # every method's stacks are dropped block by block, so four blocks of
    # trials peak about where one does
    cfg = si.SweepConfig(
        params=DESK, n_active=64, snr_db_axis=(0.0,), methods=si.SWEEP_METHODS, n_trials=_TRIAL_BLOCK,
    )
    one = traced_peak(cfg)
    four = traced_peak(replace(cfg, n_trials=4 * _TRIAL_BLOCK))
    assert four <= 1.5 * one, (one, four)
