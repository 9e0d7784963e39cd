"""Delay and Doppler estimation from a sparse frequency-domain grid.

Three estimators work off the same received grid:

* zero-fill periodogram: unused resource elements stay zero and a plain
  oversampled inverse transform maps subcarriers to delay;
* single-target ML: maximization of the matched-phasor objective on the
  same delay grid, which is the zero-fill periodogram scaled by the
  active-cell count, so the ML estimate is its refined peak;
* autocorrelation on the virtual aperture: per-symbol lag products build
  a signal on the difference set, coherent accumulation over the CPI
  suppresses the cross terms, and a real inverse transform of the lags
  >= 0 on Q = oversample * 2N points (the signal is conjugate-symmetric,
  so its spectrum is real) yields a periodogram with the virtual
  resolution, each bin half a zero-fill bin.

The library reads the accumulated lags only, as the grid's CPI lag means
(FreqGrid.cpi_lags); the per-symbol lag products are the tests' reference.

Each delay-spectrum step is written once, for a (T, Q) stack of spectra:
the transform (_delay_spectra), the magnitude checks, the peak pick and its
refinement.  The sweep and the demo run them on a block of trials at once
(analysis._trials); the public functions are their one-row calls.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .alloc import OfdmParams, ResourceAllocation, VirtualAperture, _check_number, difference_set
from .scene import SPEED_OF_LIGHT
from .synth import FreqGrid

__all__ = [
    "Periodogram",
    "DelayEstimate",
    "VirtualSignal",
    "Peak",
    "PeakList",
    "zero_fill_periodogram",
    "ml_single_target",
    "build_virtual_signal",
    "virtual_periodogram",
    "detect_peaks",
    "doppler_periodogram",
]

@dataclass(frozen=True)
class Periodogram:
    """Magnitude spectrum on a delay (s) or Doppler (Hz) axis.  Library delay
    axes are shared and read-only (_delay_axis); only an axis built elsewhere
    is checked to be strictly increasing."""

    axis: np.ndarray
    values: np.ndarray
    domain: str  # "delay" | "doppler"
    method: str
    oversample: int
    params: OfdmParams

    def __post_init__(self):
        if self.axis.shape != self.values.shape:
            raise ValueError("axis and values must align")
        spacing = self.params.subcarrier_spacing_hz
        shared = not self.axis.flags.writeable and self.axis is _delay_axis(self.n_bins, spacing)
        if not shared and np.any(np.diff(self.axis) <= 0):
            raise ValueError("axis must be strictly increasing")
        _check_magnitudes(self.values, self.method, self.domain)
        self.axis.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def n_bins(self) -> int:
        return int(self.values.size)

    @property
    def bin_width(self) -> float:
        return float(self.axis[1] - self.axis[0])

    @property
    def argmax_bin(self) -> int:
        return int(np.argmax(self.values))


def _check_magnitudes(values: np.ndarray, method: str, domain: str) -> None:
    """The magnitude checks of a Periodogram, on its values or on a (T, Q)
    stack of them (a sweep or demo block): finite, else FloatingPointError,
    and non-negative, else ValueError."""
    if not np.isfinite(values).all():
        raise FloatingPointError(f"{method} {domain} magnitudes must be finite")
    if np.any(values < 0):
        raise ValueError("magnitudes must be non-negative")


@functools.lru_cache(maxsize=4)
def _delay_axis(q_bins: int, spacing_hz: float) -> np.ndarray:
    """The delay axis q / (Q * spacing) s, q = 0..Q-1, of a Q-bin library
    periodogram: built once per (Q, spacing), read-only and shared."""
    axis = np.arange(q_bins) / (q_bins * spacing_hz)
    axis.setflags(write=False)
    return axis


@dataclass(frozen=True)
class DelayEstimate:
    """A single-target delay estimate on the Q = oversample * N bin grid.

    `bin_index` is the raw argmax among the `n_bins` = Q bins, and
    `delay_s` its (optionally refined) position in seconds.  `peak_value`
    is the unnormalised objective |sum_k z_k e^{j 2 pi q n_k / Q}| at that
    bin, z_k the symbol sum of active subcarrier n_k: M * K times the
    zero-fill periodogram's magnitude.
    """

    delay_s: float
    range_m: float
    bin_index: int
    n_bins: int
    peak_value: float


@dataclass(frozen=True)
class VirtualSignal:
    """Complex per-lag values on a virtual aperture: the CPI mean of the
    per-symbol lag products, read from the grid's CPI lag means (the
    per-symbol products are the tests' reference).

    Conjugate-symmetric, checked exactly: the aperture lags run symmetric
    about 0 and the value at -s is the conjugate of the value at s, so the
    zero lag is real (and non-negative up to round-off in a library
    signal).  virtual_periodogram reads the lags >= 0 alone.
    """

    values: np.ndarray  # complex, aligned with aperture.lags
    aperture: VirtualAperture

    def __post_init__(self):
        lags, values = self.aperture.lags, self.values
        if values.shape != lags.shape:
            raise ValueError("values must align with the aperture lag set")
        if not (lags[::-1] == -lags).all():
            raise ValueError("aperture lags must be symmetric about 0")
        mirror = values[::-1].conj()
        # a NaN pair passes, to fail as a non-finite spectrum
        if not (values == mirror).all() and not np.array_equal(values, mirror, equal_nan=True):
            raise ValueError("values must be conjugate-symmetric: at -s the conjugate of s")
        values.setflags(write=False)


@dataclass(frozen=True)
class Peak:
    bin_index: int
    refined_axis_value: float
    magnitude: float


@dataclass(frozen=True)
class PeakList:
    """Peaks ordered by magnitude descending."""

    peaks: tuple[Peak, ...]
    requested: int

    @property
    def complete(self) -> bool:
        return len(self.peaks) >= self.requested


def zero_fill_periodogram(grid: FreqGrid, oversample: int = 4) -> Periodogram:
    """Delay periodogram of the zero-filled grid.

    values[q] = |sum_m sum_n Y_m[n] e^{j 2 pi q n / Q}| / (M * K) on a
    Q = oversample * N point grid, where K is the active cardinality.  The
    axis maps bin q to delay q / (Q * subcarrier_spacing).
    """
    oversample = _check_number("oversample", oversample, integer=True, minimum=1)
    return _zero_fill(grid.symbol_sum, grid.alloc, grid.params, oversample)


def _zero_fill(
    collapsed: np.ndarray, alloc: ResourceAllocation, params: OfdmParams, oversample: int
) -> Periodogram:
    """zero_fill_periodogram of the grid whose symbol sum is `collapsed`,
    an (N,) row; the symbols combine coherently."""
    q_bins = oversample * params.n_subcarriers
    values = _delay_spectra(collapsed[None], _active_cells(alloc), q_bins, real=False)[0]
    return Periodogram(
        axis=_delay_axis(q_bins, params.subcarrier_spacing_hz),
        values=values,
        domain="delay",
        method="zero_fill",
        oversample=oversample,
        params=params,
    )


def _active_cells(alloc: ResourceAllocation) -> float:
    """M * K, the zero-fill normaliser, K the active subcarriers per symbol."""
    return alloc.n_symbols * (alloc.starts[-1] / alloc.n_symbols)


def _delay_spectra(rows: np.ndarray, scale, q_bins: int, real: bool) -> np.ndarray:
    """|IFFT_Q(r)| * Q / scale of each (N,) row r of the (T, N) stack
    `rows`, by one transform for the stack, each row with the bits of its
    own 1-D transform; `scale` is one for all rows or a (T, 1) column.
    Zero-fill: r a symbol sum, scale M * K (_active_cells), the complex
    transform.  Virtual (`real`): r the signal at lags 0..N-1, scale
    n_lags, the real transform of the conjugate-symmetric signal.
    Unchecked (_check_magnitudes)."""
    spectrum = (np.fft.irfft if real else np.fft.ifft)(rows, n=q_bins, axis=-1)
    spectrum *= q_bins
    values = np.abs(spectrum)
    values /= scale
    return values


def _refine(idx: int, vm1: float, v0: float, vp1: float) -> float:
    """Fractional bin position of the peak at bin idx, of magnitude v0
    between vm1 and vp1: the vertex of the parabola through the three
    log-magnitudes, within one bin of idx; idx where one of them is not
    positive or the parabola is flat or not finite."""
    if v0 <= 0.0 or vm1 <= 0.0 or vp1 <= 0.0:
        return float(idx)
    log_m1, log_0, log_p1 = math.log(vm1), math.log(v0), math.log(vp1)
    denom = log_m1 - 2.0 * log_0 + log_p1
    if denom == 0.0 or not math.isfinite(denom):
        return float(idx)
    delta = 0.5 * (log_m1 - log_p1) / denom
    return idx + min(max(delta, -1.0), 1.0)


def _refine_bin(values: np.ndarray, idx: int) -> float:
    """_refine of the peak at idx of one spectrum; the axis is circular."""
    n = values.size
    return _refine(idx, values[(idx - 1) % n], values[idx], values[(idx + 1) % n])


def ml_single_target(
    grid: FreqGrid, oversample: int = 4, refine: bool = True
) -> DelayEstimate:
    """Single-target ML delay estimate.

    Maximizes |sum_m sum_{n active} Y_m[n] e^{j 2 pi n df tau}| over the
    oversampled delay grid, optionally refined by a parabolic fit on
    log-magnitude.  Documented single-target assumption; nothing is
    enforced.  With the unused cells zero-filled this objective is the
    zero-fill periodogram times the active-cell count M * K, so the search
    is the argmax of zero_fill_periodogram(grid, oversample).
    """
    p = zero_fill_periodogram(grid, oversample)
    if not np.any(grid.active):
        raise ValueError("grid is empty (all-zero samples)")
    best = p.argmax_bin
    pos = _refine_bin(p.values, best) if refine else float(best)
    delay = (pos % p.n_bins) * p.bin_width
    cells = _active_cells(grid.alloc)
    return DelayEstimate(
        delay_s=delay,
        range_m=delay * SPEED_OF_LIGHT / 2.0,
        bin_index=best,
        n_bins=p.n_bins,
        peak_value=float(p.values[best] * cells),
    )


def build_virtual_signal(grid: FreqGrid) -> tuple[VirtualSignal, VirtualAperture]:
    """Full virtual-resource pipeline for one grid.

    Difference set of the (symbol-constant) allocation, per-symbol lag
    products, then coherent accumulation across the CPI.  Returns the
    accumulated virtual signal together with its aperture.

    The library reads only the accumulated lags: the CPI mean of the lag
    sums (`grid.cpi_lags`, whose route sparse_isac.synth picks), gathered
    at the aperture lags >= 0 over their pair counts, the zero lag's real
    part, and mirrored with the conjugate onto the negative lags, so the
    signal is exactly conjugate-symmetric.  So it reads only the grid's
    `alloc` and `cpi_lags`, and a sweep trial passes a drawn
    synth._GridStatistics the same way.  The per-symbol lag products,
    averaged over the symbols, are the tests' reference; they agree up to
    float round-off.
    """
    aperture = difference_set(grid.alloc)
    half = _virtual_half(grid.cpi_lags, aperture)
    vals = np.concatenate((half[:0:-1].conj(), half))
    return VirtualSignal(values=vals, aperture=aperture), aperture


def _virtual_half(cpi_lags: np.ndarray, aperture: VirtualAperture) -> np.ndarray:
    """The virtual signal at the aperture lags >= 0 (aperture.lags[zero:],
    zero = n_lags // 2, as the lags run symmetric about 0): the CPI lag
    means over their pair counts, the zero lag's real part."""
    zero = aperture.n_lags // 2
    half = cpi_lags[aperture.lags[zero:]] / aperture.pair_counts[zero:]
    half[0] = half[0].real
    return half


def virtual_periodogram(
    vs: VirtualSignal,
    params: OfdmParams,
    oversample: int = 4,
) -> Periodogram:
    """Delay periodogram of a virtual signal.

    The lag values span -(N-1)..N-1 (holes stay zero) and are transformed
    on a Q = oversample * 2N point grid, so a virtual bin is exactly half a
    zero-fill bin (lag N stays empty).  The signal is conjugate-symmetric
    (VirtualSignal), so its spectrum is real: one real inverse transform of
    the lags >= 0 gives it.  Magnitudes are scaled by the number of
    available lags so a unit noiseless target peaks at A^2.
    """
    oversample = _check_number("oversample", oversample, integer=True, minimum=1)
    aperture = vs.aperture
    n = aperture.n_subcarriers
    q_bins = oversample * 2 * n
    zero = aperture.n_lags // 2
    half = np.zeros((1, n), dtype=np.complex128)  # lags 0..N-1; irfft zero-fills the rest
    half[0, aperture.lags[zero:]] = vs.values[zero:]
    values = _delay_spectra(half, aperture.n_lags, q_bins, real=True)[0]
    return Periodogram(
        axis=_delay_axis(q_bins, params.subcarrier_spacing_hz),
        values=values,
        domain="delay",
        method="autocorrelation",
        oversample=oversample,
        params=params,
    )


def _circular_distance(i: int, j: int, n: int) -> int:
    d = abs(i - j) % n
    return min(d, n - d)


def detect_peaks(p: Periodogram, k: int = 1, min_separation: int = 1) -> PeakList:
    """Greedy peak picking with circular exclusion zones.

    Local maxima are ranked by magnitude (lowest bin wins exact ties) and
    accepted unless within min_separation bins of an already accepted
    peak.  Fewer than k peaks may come back; PeakList.complete tells.
    The one-row call of _pick_peaks and _refined_peaks.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    v = p.values
    bins = _pick_peaks(v[None], k, min_separation)
    if bins[0, 0] < 0:
        return PeakList(peaks=(), requested=k)
    refined = _refined_peaks(v[None], bins, p.bin_width, float(p.axis[0]))
    peaks = tuple(
        Peak(bin_index=b, refined_axis_value=x, magnitude=float(v[b]))
        for b, x in zip(bins[0].tolist(), refined[0].tolist())
        if b >= 0
    )
    return PeakList(peaks=peaks, requested=k)


def _pick_peaks(v: np.ndarray, k: int, min_separation: int) -> np.ndarray:
    """(T, k) bins of the greedy peak pick of each row of the (T, Q)
    magnitudes `v`, in pick order, -1 past a row's last peak.

    The greedy ranks a row's local maxima (above the left neighbour, at
    least the right one, circularly; the argmax where there is none and the
    row is not zero everywhere) by magnitude, lowest bin first on a tie,
    and accepts each one more than min_separation bins from every accepted
    one.  For k == 1 that first pick is the lowest bin at the row's maximum
    with a lower left neighbour; with none, every bin holds the maximum:
    bin 0, unless the row is zero everywhere.  That is the row's argmax,
    for the whole stack at once, but where bin 0 and bin Q-1 (its left
    neighbour, circularly) both hold the maximum.
    """
    t, n = v.shape
    if k == 1 and n:
        bins = v.argmax(axis=1)[:, None]
        vmax = v.max(axis=1)
        bins[vmax <= 0.0] = -1
        for r in np.flatnonzero(v[:, -1] == vmax).tolist():
            if bins[r, 0] == 0:
                at_max = np.flatnonzero(v[r] == vmax[r])
                bins[r, 0] = at_max[np.argmax(v[r, at_max - 1] < vmax[r])]  # bin 0 where none rises
        return bins
    bins = np.full((t, k), -1, dtype=np.intp)
    maxima = (v > np.roll(v, 1, axis=1)) & (v >= np.roll(v, -1, axis=1))
    for r in range(t):
        row, cand = v[r], np.flatnonzero(maxima[r])
        if cand.size == 0 and np.any(row > 0):
            cand = np.array([int(np.argmax(row))])
        chosen = []
        for idx in cand[np.lexsort((cand, -row[cand]))].tolist():  # magnitude desc, index asc
            if len(chosen) == k:
                break
            if all(_circular_distance(idx, c, n) > min_separation for c in chosen):
                chosen.append(idx)
        bins[r, : len(chosen)] = chosen
    return bins


def _refined_peaks(v: np.ndarray, bins: np.ndarray, bin_width: float, axis0: float) -> np.ndarray:
    """The refined axis value of each peak of _pick_peaks: its _refine_bin
    position mod Q on the axis axis0 + q * bin_width of the (T, Q)
    magnitudes `v`, peak by peak in scalar arithmetic; NaN where `bins` is -1."""
    n = v.shape[1]
    out = np.full(bins.shape, np.nan)
    for r, row_bins in enumerate(bins.tolist()):
        for j, idx in enumerate(row_bins):
            if idx >= 0:
                out[r, j] = (_refine_bin(v[r], idx) % n) * bin_width + axis0
    return out


def _noncoherent_profile(grid: FreqGrid, q_bins: int) -> np.ndarray:
    """(Q/M) sum_m |IFFT_Q(Y_m)|^2 on the Q = q_bins point delay grid.

    This symbol-incoherent power keeps moving targets visible, where a
    coherent symbol sum nulls out whenever the Doppler phase wraps whole
    cycles over the CPI.  It equals IFFT_Q(R / M), R / M the CPI mean of
    the lag sums (grid.cpi_lags) on Q taps; when Q < 2N - 1 (oversample 1)
    the lags -(N-1)..N-1 fold mod Q.  An exact null can come out a
    round-off below zero.
    """
    n = grid.n_subcarriers
    lags = grid.cpi_lags  # R[s] / M at s mod 2N
    taps = np.zeros(q_bins, dtype=np.complex128)
    taps[:n] = lags[:n]
    taps[q_bins - n + 1 :] += lags[n + 1 :]  # negative lags, onto 1..N-1 if Q = N
    return np.fft.ifft(taps).real


def _noncoherent_delay(grid: FreqGrid, oversample: int) -> float:
    """Delay at the refined peak of _noncoherent_profile: the Doppler pre-step."""
    profile = _noncoherent_profile(grid, oversample * grid.n_subcarriers)
    pos = _refine_bin(profile, int(np.argmax(profile)))
    return (pos % profile.size) / (profile.size * grid.params.subcarrier_spacing_hz)


def doppler_periodogram(
    grid: FreqGrid, oversample: int = 4, delay_s: float | None = None
) -> Periodogram:
    """Doppler periodogram on the matched delay slice.

    Each symbol is compressed at the given delay (estimated from the
    symbol-incoherent power profile when omitted), then the symbol
    sequence is transformed to Doppler on an oversampled axis centered
    on zero.
    """
    oversample = _check_number("oversample", oversample, integer=True, minimum=1)
    if delay_s is not None:
        _check_number("delay_s", delay_s)
    params = grid.params
    cols, starts = grid.alloc.cols, grid.alloc.starts[:-1]
    if delay_s is None:
        delay_s = _noncoherent_delay(grid, oversample)
    n_idx = np.arange(params.n_subcarriers)
    unwrap = np.exp(2j * np.pi * params.subcarrier_spacing_hz * delay_s * n_idx)
    # per-symbol matched sum over the active subcarriers
    slices = np.add.reduceat(grid.active * unwrap[cols], starts)
    m = params.n_symbols
    u_bins = oversample * m
    k = grid.alloc.starts[-1] / grid.alloc.n_symbols  # active subcarriers per symbol
    spectrum = np.fft.fft(slices, n=u_bins)
    values = np.abs(np.fft.fftshift(spectrum)) / (m * k)
    axis = (np.arange(u_bins) - u_bins // 2) / (u_bins * params.symbol_dur_s)
    return Periodogram(
        axis=axis,
        values=values,
        domain="doppler",
        method="zero_fill",
        oversample=oversample,
        params=params,
    )
