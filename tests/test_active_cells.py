"""A grid stores its active cells only; every consumer against the dense grid.

Each reference (tests/reference.py) is the whole-grid formula, run on the
dense view built from the allocation's index sets.  The active-cell code
must give the same bits, except the Doppler matched sum and the Doppler
delay pre-step, whose additions run in a different order.
"""
import math
import tracemalloc

import numpy as np
import pytest

import sparse_isac as si
from reference import (
    alloc_mask,
    bits,
    dense,
    dense_doppler,
    dense_measure_snr,
    dense_ml,
    dense_noncoherent_delay,
    dense_noncoherent_profile,
    dense_synthesize,
    dense_virtual,
    dense_zero_fill,
)
from sparse_isac import synth
from sparse_isac.estimators import _noncoherent_delay, _noncoherent_profile
from sparse_isac.synth import _ROW_BLOCK, _gram_statistics

N = 40
SEED = 11


def make_params(m):
    return si.OfdmParams(
        n_subcarriers=N, n_symbols=m, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9
    )


def make_alloc(pattern, params):
    if pattern == "per_symbol":
        rng = np.random.default_rng(params.n_symbols)
        return si.ResourceAllocation(
            per_symbol_indices=tuple(
                rng.choice(N, size=rng.integers(1, 12), replace=False)
                for _ in range(params.n_symbols)
            ),
            n_subcarriers=N,
        )
    if pattern == "nested":
        return si.make_allocation(params, "nested", inner=4, outer=7)
    return si.make_allocation(params, pattern, n_active=9, seed=3)


@pytest.fixture(
    params=[
        (pattern, m, snr_db)
        for pattern in ("full", "random", "nested", "per_symbol")
        for m in (_ROW_BLOCK - 5, _ROW_BLOCK, 2 * _ROW_BLOCK + 3)
        for snr_db in (-3.0, math.inf)
    ],
    ids=lambda p: f"{p[0]}-M{p[1]}-snr{p[2]}",
)
def case(request):
    """(scene, grid) of two moving targets, one with a drawn phase."""
    pattern, m, snr_db = request.param
    params = make_params(m)
    scene = si.Scene(
        targets=(
            si.Target(distance_m=120.0, velocity_mps=30.0, amplitude=1.0),
            si.Target(distance_m=310.0, velocity_mps=-12.0, amplitude=0.4, phase_rad=2.5),
        ),
        snr_db=snr_db,
    )
    return scene, si.synthesize(scene, make_alloc(pattern, params), params, seed=SEED)


class TestAgainstDenseGrid:
    def test_samples_is_the_dense_view(self, case):
        """The one test of the dense `samples` view: the reference view, read
        only, and built anew on each access."""
        _, grid = case
        samples = grid.samples
        assert np.array_equal(bits(samples), bits(dense(grid)))
        assert not samples.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            samples[0, 0] = 1.0
        assert grid.samples is not samples

    def test_active_is_the_masked_dense_grid(self, case):
        """The active cells, in row-major order, are the whole-grid
        synthesis at the allocation's cells, bit for bit."""
        scene, grid = case
        want = dense_synthesize(scene, grid.alloc, grid.params, SEED)
        assert np.array_equal(bits(grid.active), bits(want[alloc_mask(grid.alloc)]))

    def test_layout_accessors(self, case):
        _, grid = case
        samples = dense(grid)
        rows, cols = np.nonzero(alloc_mask(grid.alloc))
        assert np.array_equal(grid.alloc.cols, cols)
        assert np.array_equal(grid.alloc.starts, np.searchsorted(rows, np.arange(grid.n_symbols + 1)))
        if grid.alloc.is_constant:
            assert np.array_equal(bits(grid.block), bits(samples[:, grid.alloc.indices]))
        else:
            with pytest.raises(ValueError, match="varies across symbols"):
                grid.block

    @pytest.mark.parametrize("oversample", [1, 4])
    def test_zero_fill(self, case, oversample):
        _, grid = case
        got = si.zero_fill_periodogram(grid, oversample=oversample).values
        assert np.array_equal(bits(got), bits(dense_zero_fill(grid, oversample)))

    def test_ml(self, case):
        _, grid = case
        got = si.ml_single_target(grid, oversample=4)
        best, peak, delay = dense_ml(grid, 4)
        assert got.bin_index == best
        assert np.array_equal(bits([got.peak_value, got.delay_s]), bits([peak, delay]))

    @pytest.mark.parametrize("gram", [False, True], ids=["fft", "gram"])
    def test_virtual_signal(self, case, gram, monkeypatch):
        """Bits on the FFT route of the lag sums; 1e-13 of the peak on the
        Gram route.  Each route is selected through the read gate."""
        _, grid = case
        monkeypatch.setattr(synth, "_gram_read", lambda rows, alloc: gram and alloc.is_constant)
        if not grid.alloc.is_constant:
            with pytest.raises(ValueError, match="varies across symbols"):
                si.build_virtual_signal(grid)
            return
        vs, aperture = si.build_virtual_signal(grid)
        want = dense_virtual(grid, aperture)
        if gram:
            assert np.max(np.abs(vs.values - want)) <= 1e-13 * np.max(np.abs(want))
        else:
            assert np.array_equal(bits(vs.values), bits(want))

    def test_noncoherent_delay(self, case):
        """The lag-sum profile adds in another order than the per-row one, so
        the refined delay may move in its last bits; the peak bin may not."""
        _, grid = case
        best, delay = dense_noncoherent_delay(grid, 4)
        assert int(np.argmax(_noncoherent_profile(grid, 4 * N))) == best
        bin_width = 1.0 / (4 * N * grid.params.subcarrier_spacing_hz)
        assert abs(_noncoherent_delay(grid, 4) - delay) <= 1e-9 * bin_width

    @pytest.mark.parametrize("delay_s", [None, 1.3e-6])
    def test_doppler_to_round_off(self, case, delay_s):
        _, grid = case
        got = si.doppler_periodogram(grid, oversample=4, delay_s=delay_s).values
        delay = _noncoherent_delay(grid, 4) if delay_s is None else delay_s
        want = dense_doppler(grid, 4, delay)
        assert np.abs(got - want).max() <= 1e-12 * want.max()

    def test_measure_snr(self, case):
        scene, grid = case
        assert bits(si.measure_snr(grid, scene)) == bits(dense_measure_snr(grid, scene))


@pytest.mark.parametrize("oversample", [1, 2, 8])  # Q < 2N - 1 folds; Q = 2N
@pytest.mark.parametrize("m", [_ROW_BLOCK - 5, 2 * _ROW_BLOCK + 3])
@pytest.mark.parametrize(
    "n, pattern",
    [(N, "full"), (N, "random"), (N, "per_symbol"), (2, "full"), (2, "per_symbol")],
)
@pytest.mark.parametrize("on_grid", [False, True], ids=["noisy", "noiseless-on-grid"])
def test_noncoherent_profile(n, pattern, m, oversample, on_grid):
    """The lag-sum profile against the per-row sum of |IFFT_Q|^2.  A
    noiseless target on a delay bin gives exact nulls (every one on a full
    allocation), which the lag-sum route may put a round-off below zero."""
    params = si.OfdmParams(n, m, 120e3, 24e9)
    if n == N:
        alloc = make_alloc(pattern, params)
    elif pattern == "full":
        alloc = si.ResourceAllocation.constant(np.arange(n), m, n)
    else:
        rng = np.random.default_rng(m)
        rows = tuple(rng.choice(n, size=rng.integers(1, n + 1), replace=False) for _ in range(m))
        alloc = si.ResourceAllocation(per_symbol_indices=rows, n_subcarriers=n)
    if on_grid:
        delay = (n // 3 + 1) / (n * params.subcarrier_spacing_hz)  # a bin at oversample 1
        target = si.Target(distance_m=delay * si.SPEED_OF_LIGHT / 2.0, amplitude=1.0)
        scene = si.Scene(targets=(target,), noise_variance_w=0.0)
    else:
        target = si.Target(distance_m=310.0, velocity_mps=15.0, amplitude=1.0)
        scene = si.Scene(targets=(target,), snr_db=0.0)
    grid = si.synthesize(scene, alloc, params, seed=7)
    q_bins = oversample * n
    got = _noncoherent_profile(grid, q_bins)
    want = dense_noncoherent_profile(grid, q_bins) * q_bins / m
    assert np.abs(got - want).max() <= 1e-13 * want.max()
    assert np.argmax(got) == np.argmax(want)


def test_calls_share_no_workspace():
    """Back-to-back calls on grids of other N and M give each call's own bits."""
    scene = si.Scene(targets=(si.Target(distance_m=120.0, velocity_mps=30.0, amplitude=1.0),), snr_db=0.0)
    shapes = (
        (make_params(2 * _ROW_BLOCK + 3), "random"),
        (si.OfdmParams(64, 7, 120e3, 24e9), "full"),
        (make_params(_ROW_BLOCK - 5), "per_symbol"),
    )
    grids = [si.synthesize(scene, make_alloc(pattern, p), p, seed=5) for p, pattern in shapes]
    calls = [(g, lambda g: si.doppler_periodogram(g).values) for g in grids] + [
        (g, lambda g: si.build_virtual_signal(g)[0].values) for g in grids if g.alloc.is_constant
    ]
    alone = [bits(call(g)) for g, call in calls]
    for order in (range(len(calls)), reversed(range(len(calls)))):
        for i in order:
            g, call = calls[i]
            assert np.array_equal(bits(call(g)), alone[i])


@pytest.mark.parametrize("pattern", ["random", "per_symbol"])
def test_readers_take_the_layout_from_the_allocation(pattern, monkeypatch):
    """Synthesis, the sweep's symbol-sum draw and every estimator read
    `cols`/`starts`/`rows` of the allocation; only the dense `samples` view
    builds the (M, N) mask."""
    params = make_params(_ROW_BLOCK + 3)
    alloc = make_alloc(pattern, params)
    target = si.Target(distance_m=120.0, velocity_mps=30.0, amplitude=1.0)
    scene = si.Scene(targets=(target,), snr_db=0.0)
    monkeypatch.setattr(si.ResourceAllocation, "mask", lambda self: pytest.fail("mask() called"))
    grid = si.synthesize(scene, alloc, params, seed=3)
    si.zero_fill_periodogram(grid)
    si.ml_single_target(grid)
    si.doppler_periodogram(grid)
    if alloc.is_constant:
        si.build_virtual_signal(grid)
        _gram_statistics(scene, alloc, params, seed=3, lags=False).symbol_sum


def test_synthesize_builds_no_dense_grid():
    params = si.OfdmParams(1000, 720, 120e3, 24e9)  # a dense grid is 11.5 MB
    alloc = si.make_allocation(params, "random", n_active=200, seed=1)
    scene = si.Scene(targets=(si.Target(distance_m=200.0, amplitude=1.0),), snr_db=0.0)
    tracemalloc.start()
    try:
        grid = si.synthesize(scene, alloc, params, seed=2)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense_bytes = 720 * 1000 * 16
    assert grid.active.nbytes == 720 * 200 * 16
    assert kept < 1.05 * grid.active.nbytes
    assert peak < dense_bytes


class TestConstructor:
    params = make_params(3)

    def test_rejects_wrong_active_length(self):
        alloc = si.make_allocation(self.params, "random", n_active=9, seed=3)
        for size in (26, 28, 3 * N):
            with pytest.raises(ValueError, match="27 active cells"):
                si.FreqGrid(np.zeros(size, complex), alloc, self.params, noise_variance=0.0)
        with pytest.raises(ValueError, match="27 active cells"):
            si.FreqGrid(np.zeros((3, 9), complex), alloc, self.params, noise_variance=0.0)

    @pytest.mark.parametrize("m, n", [(4, N), (2, N), (3, N + 1)])
    def test_rejects_allocation_params_mismatch(self, m, n):
        """Every entry point that reads an allocation against params checks
        that it spans the params' grid, with one message."""
        alloc = si.ResourceAllocation.constant(np.arange(9), m, n)
        scene = si.Scene(targets=(si.Target(distance_m=50.0, amplitude=1.0),), snr_db=0.0)
        axis = np.zeros(3)
        message = rf"allocation shape \({m}, {n}\) does not match params \(3, {N}\)"
        for call in (
            lambda: si.FreqGrid(np.zeros(9 * m, complex), alloc, self.params, noise_variance=0.0),
            lambda: si.synthesize(scene, alloc, self.params, seed=1),
            lambda: _gram_statistics(scene, alloc, self.params, 1, lags=False),
            lambda: _gram_statistics(scene, alloc, self.params, 1),
            lambda: si.fim_single_target(alloc, self.params, 1.0, 1.0),
            lambda: si.crlb_delay(alloc, self.params, 1.0, 1.0),
            lambda: si.ambiguity_function(alloc, self.params, axis, axis),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize(
        "value, error",
        [(-1.0, ValueError), (math.inf, ValueError), (math.nan, ValueError), (True, TypeError), ("x", TypeError)],
    )
    def test_rejects_invalid_noise_variance(self, value, error):
        alloc = si.make_allocation(self.params, "random", n_active=9, seed=3)
        with pytest.raises(error, match="noise_variance"):
            si.FreqGrid(np.zeros(27, complex), alloc, self.params, noise_variance=value)

    def test_active_read_only(self):
        alloc = si.make_allocation(self.params, "random", n_active=9, seed=3)
        scene = si.Scene(targets=(si.Target(distance_m=50.0, amplitude=1.0),), snr_db=0.0)
        grid = si.synthesize(scene, alloc, self.params, seed=1)
        assert not grid.active.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid.active[0] = 1.0
