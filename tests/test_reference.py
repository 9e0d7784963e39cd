"""Every public estimator against the reference paths of tests/reference.py.

One derandomized property test draws grids over what the fast paths
branch on: constant and per-symbol allocations, M around one row block of
the lag-sum kernel (1, 63, 64, 65), odd and even N, moving targets, the
noise specs, and both routes of the CPI lag sums, each selected through
the read gate.  Where the current tests pin bits the comparison is
bit for bit; elsewhere it allows their round-off.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sparse_isac as si
from reference import (
    accumulate_cpi,
    autocorrelate_symbol,
    bits,
    brute_force_differences,
    brute_force_lag_products,
    dense,
    dense_doppler,
    dense_measure_snr,
    dense_ml,
    dense_noncoherent_profile,
    dense_synthesize,
    dense_virtual,
    dense_zero_fill,
    exp_gemv_ml,
    serial_cpi_lags,
)
from sparse_isac import synth
from sparse_isac.estimators import _noncoherent_delay, _noncoherent_profile
from sparse_isac.synth import _ROW_BLOCK

NOISE = {
    "snr_low": dict(snr_db=-3.0),
    "snr_high": dict(snr_db=10.0),
    "snr_inf": dict(snr_db=math.inf),
    "variance_0": dict(noise_variance_w=0.0),
}

# (distance m, velocity m/s, amplitude, phase or None): inside the
# unambiguous delay (1249 m) and Doppler (+/-375 m/s) spans at 120 kHz, 24 GHz
targets = st.tuples(
    st.floats(1.0, 1200.0),
    st.one_of(st.just(0.0), st.floats(-300.0, 300.0)),
    st.floats(0.1, 2.0),
    st.one_of(st.none(), st.floats(0.0, 6.28)),
)
MOVING = ((120.0, 30.0, 1.0, None), (310.0, -12.0, 0.4, 2.5))


def allocation(layout, n, m, seed):
    """A random constant set of 2 to N subcarriers, or M random sets of 1 to
    N subcarriers each (per-symbol; constant after all if they agree)."""
    rng = np.random.default_rng(seed)
    if layout == "constant":
        return si.ResourceAllocation.constant(rng.choice(n, rng.integers(2, n + 1), replace=False), m, n)
    sets = tuple(rng.choice(n, rng.integers(1, n + 1), replace=False) for _ in range(m))
    return si.ResourceAllocation(sets, n)


def corner(n, m, layout, gram, noise, oversample=4, delay_s=None):
    """An explicit example of the property test, on the two moving targets."""
    return example(
        n=n, m=m, layout=layout, gram=gram, seed=n * m, noise=noise, specs=MOVING,
        oversample=oversample, delay_s=delay_s,
    )


def assert_close(got, want, rel):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def check_lag_sums(got, want, gram):
    """Bits on the FFT route; 1e-13 of the peak on the Gram route."""
    if gram:
        assert_close(got, want, 1e-13)
    else:
        assert np.array_equal(bits(got), bits(want))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 33),
    m=st.sampled_from([1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1]),
    layout=st.sampled_from(["constant", "per_symbol"]),
    gram=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from(sorted(NOISE)),
    specs=st.lists(targets, min_size=1, max_size=2),
    oversample=st.sampled_from([1, 2, 4]),
    delay_s=st.one_of(st.none(), st.floats(0.0, 8e-6)),
)
# every (M, layout, route) once, odd and even N, two moving targets
@corner(17, 1, "constant", False, noise="snr_low")
@corner(16, 1, "constant", True, noise="snr_inf", oversample=2)
@corner(31, 63, "constant", False, noise="snr_low")
@corner(24, 63, "constant", True, noise="snr_high", oversample=1, delay_s=2e-6)
@corner(20, 63, "per_symbol", False, noise="snr_low")
@corner(32, 64, "constant", False, noise="variance_0")
@corner(9, 64, "constant", True, noise="snr_low")
@corner(33, 64, "per_symbol", False, noise="snr_high", oversample=2)
@corner(2, 65, "constant", False, noise="snr_low")
@corner(27, 65, "constant", True, noise="snr_low", delay_s=1e-6)
@corner(40, 65, "per_symbol", False, noise="snr_inf", oversample=1)
def test_every_estimator_matches_the_reference(n, m, layout, gram, seed, noise, specs, oversample, delay_s):
    alloc = allocation("constant" if m == 1 else layout, n, m, seed)
    gram = gram and alloc.is_constant
    params = si.OfdmParams(n, m, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9)
    targets = (si.Target(distance_m=d, velocity_mps=v, amplitude=a, phase_rad=p) for d, v, a, p in specs)
    scene = si.Scene(targets=tuple(targets), **NOISE[noise])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "_gram_read", lambda _: gram)

        grid = si.synthesize(scene, alloc, params, seed=seed)
        samples = dense(grid)
        assert np.array_equal(bits(samples), bits(dense_synthesize(scene, alloc, params, seed)))
        assert bits(si.measure_snr(grid, scene)) == bits(dense_measure_snr(grid, scene))
        check_lag_sums(grid.cpi_lags, serial_cpi_lags(grid), gram)

        # zero-fill, and ML as its refined peak scaled by M * K (the paper's claim)
        q_bins = oversample * n
        zero_fill = si.zero_fill_periodogram(grid, oversample=oversample)
        assert np.array_equal(bits(zero_fill.values), bits(dense_zero_fill(grid, oversample)))
        est = si.ml_single_target(grid, oversample=oversample)
        best, peak, delay = dense_ml(grid, oversample)
        assert est.bin_index == best
        assert np.array_equal(bits([est.peak_value, est.delay_s]), bits([peak, delay]))
        active = np.flatnonzero(alloc.column_counts())
        objective = exp_gemv_ml(samples.sum(axis=0)[active], active, q_bins)
        assert_close(zero_fill.values * grid.active.size, objective, 1e-12)
        assert objective[est.bin_index] >= (1.0 - 1e-12) * objective.max()

        # Doppler, at a given delay and after the lag-sum delay pre-step
        profile = _noncoherent_profile(grid, q_bins)
        want = dense_noncoherent_profile(grid, q_bins) * q_bins / m
        assert_close(profile, want, 1e-13)
        assert want[np.argmax(profile)] >= (1.0 - 1e-12) * want.max()
        step = _noncoherent_delay(grid, oversample) if delay_s is None else delay_s
        doppler = si.doppler_periodogram(grid, oversample=oversample, delay_s=delay_s)
        assert_close(doppler.values, dense_doppler(grid, oversample, step), 1e-12)

        # the per-symbol reference, on the allocation's aperture or every lag
        indices = alloc.indices if alloc.is_constant else np.arange(n)
        aperture = si.difference_set(si.ResourceAllocation.constant(indices, 1, n))
        signals = [autocorrelate_symbol(grid, k, aperture) for k in range(m)]
        for k in (0, m - 1):
            oracle = brute_force_lag_products(samples[k], indices)
            want = [oracle[s] for s in aperture.lags.tolist()]
            assert np.allclose(signals[k], want, rtol=1e-10, atol=1e-12)
        accumulated = accumulate_cpi(signals)
        assert_close(accumulated, dense_virtual(grid, aperture), 1e-12)

        if not alloc.is_constant:
            with pytest.raises(ValueError, match="varies across symbols"):
                si.build_virtual_signal(grid)
            return
        vs, aperture = si.build_virtual_signal(grid)
        pairs = dict(zip(aperture.lags.tolist(), aperture.pair_counts.tolist()))
        assert pairs == brute_force_differences(indices)
        check_lag_sums(vs.values, dense_virtual(grid, aperture), gram)
        assert_close(vs.values, accumulated, 1e-12)
        virtual = si.virtual_periodogram(vs, params, oversample=oversample)
        taps = exp_gemv_ml(vs.values, aperture.lags, oversample * 2 * n) / aperture.n_lags
        assert_close(virtual.values, taps, 1e-12)
