"""Estimation-theoretic analysis and the Monte-Carlo experiment harness.

Closed-form Fisher information and delay CRLB as functions of the active
subcarrier indices, peak-to-sidelobe ratio, the waveform ambiguity
surface for direct and virtual apertures, and seeded RMSE/PSLR-vs-SNR
sweeps comparing allocation strategies.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .alloc import (
    _AXIS_MAX_POINTS,
    OfdmParams,
    ResourceAllocation,
    _as_tuple,
    _check_fits,
    _check_number,
    make_allocation,
    nested_params_for,
)
from .scene import SPEED_OF_LIGHT, LinkBudget, Scene, Target
from .synth import (  # noqa: F401 (bench/spans.py wraps synthesize here)
    _child_rng,
    _SignalTable,
    _streams,
    synthesize,
)
from .estimators import (
    Periodogram,
    _active_cells,
    _check_magnitudes,
    _delay_axis,
    _delay_spectra,
    _pick_peaks,
    _refined_peaks,
    _virtual_half,
)

__all__ = [
    "SingularFimError",
    "CrlbReport",
    "SweepConfig",
    "SweepResult",
    "TwoTargetDemoConfig",
    "TwoTargetDemoResult",
    "AmbiguitySurface",
    "fim_single_target",
    "crlb_delay",
    "crlb_report",
    "crlb_vs_inverse_fim_check",
    "pslr",
    "ambiguity_function",
    "monte_carlo_sweep",
    "two_target_demo",
    "SWEEP_METHODS",
]

# Each sweep method maps to (slot of its draws, read through the virtual
# aperture?).  A point's slots are keyed in a fixed layout, whatever the
# method subset, so each method's streams do not depend on which others
# were requested: slot s draws from the Generators on keys (s, 0) to (s, 2)
# under the point's SeedSequence, and the random allocation that slot 1's
# grid uses from the one on key (0,) (_trials, synth._streams).  Methods
# sharing a slot share the draw of its grid's statistics, which pairs the
# direct_sparse/autocorrelation comparison, and the two-target demo walks
# the same trials with that pair.  Zero-fill reads a slot's symbol sum and
# the virtual aperture its CPI lag means (cpi_lags); the per-symbol lag
# products are the tests' reference.  Of each draw a method keeps one (N,)
# row, and a block of trials' rows is transformed and scored as one stack
# per method (_trials).
_SWEEP_TABLE = {
    "full_bandwidth": (2, False),
    "equivalent_bandwidth": (3, False),
    "direct_sparse": (1, False),
    "autocorrelation": (1, True),
    "nested": (4, True),
}
# Slots a virtual method reads (1 and 4): _trials draws their symbol sum
# and Gram matrix (synth._gram_statistics), and any other slot its symbol
# sum alone.  A point's draws read one table (synth._SignalTable),
# which keeps the unit signals of the fixed slots' draws (slots 2 to 4).
# The rule reads the table, not the requested subset, so no method's noise
# stream depends on which others were requested.  Only a slot's Bartlett
# factor, on a Generator of its own, is drawn where a requested virtual
# method reads the slot and nowhere else.
_VIRTUAL_SLOTS = {s for s, v in _SWEEP_TABLE.values() if v}
SWEEP_METHODS = tuple(_SWEEP_TABLE)


class SingularFimError(ValueError):
    """The Fisher information matrix is singular (no delay information)."""


def _fim_sums(alloc: ResourceAllocation, params: OfdmParams) -> tuple[float, float, float]:
    """(sum (w i)^2, sum w i, count) over all active elements, w = 2 pi df,
    as O(N) sums over subcarriers weighted by their per-column activity counts."""
    _check_fits(alloc, params)
    counts = alloc.column_counts().astype(np.float64)
    wi = 2.0 * math.pi * params.subcarrier_spacing_hz * np.arange(params.n_subcarriers)
    return float(counts @ (wi * wi)), float(counts @ wi), float(counts.sum())


def fim_single_target(
    alloc: ResourceAllocation, params: OfdmParams, amplitude: float, noise_var: float
) -> np.ndarray:
    """2x2 Fisher information for (delay, phase) of a single target.

    Entrywise (2 A^2 / N0) * sum_m [[sum (2 pi df i)^2, sum 2 pi df i],
    [sum 2 pi df i, |set_m|]] over the active indices of each symbol.
    """
    _check_number("amplitude", amplitude, positive=True)
    _check_number("noise_var", noise_var, positive=True)
    a, b, c = _fim_sums(alloc, params)
    return (2.0 * amplitude**2 / noise_var) * np.array([[a, b], [b, c]])


def crlb_delay(
    alloc: ResourceAllocation, params: OfdmParams, amplitude: float, noise_var: float
) -> float:
    """Closed-form delay CRLB in s^2.

    sigma_tau^2 = (N0 / 2A^2) * T / (T * g1 - g2) with T the total number
    of active elements, g1 the sum of squared angular subcarrier offsets
    and g2 the squared sum.  Raises SingularFimError when fewer than two
    distinct subcarriers are active (a single tone carries no delay
    information).
    """
    _check_number("amplitude", amplitude, positive=True)
    _check_number("noise_var", noise_var, positive=True)
    g1, lin, total = _fim_sums(alloc, params)
    denom = total * g1 - lin**2
    if denom <= 0.0:
        raise SingularFimError(
            "delay CRLB undefined: allocation spans fewer than two distinct subcarriers"
        )
    return (noise_var / (2.0 * amplitude**2)) * total / denom


@dataclass(frozen=True)
class CrlbReport:
    fim: np.ndarray
    crlb_delay_s2: float
    crlb_range_m2: float
    n_active: int
    n_symbols: int
    amplitude: float
    noise_var: float
    subcarrier_spacing_hz: float

    def to_dict(self) -> dict:
        return {
            "fim": [[float(x) for x in row] for row in self.fim],
            "crlb_delay_s2": self.crlb_delay_s2,
            "crlb_range_m2": self.crlb_range_m2,
            "range_rmse_floor_m": math.sqrt(self.crlb_range_m2),
            "n_active": self.n_active,
            "n_symbols": self.n_symbols,
            "amplitude": self.amplitude,
            "noise_var": self.noise_var,
            "subcarrier_spacing_hz": self.subcarrier_spacing_hz,
        }


def crlb_report(
    alloc: ResourceAllocation, params: OfdmParams, amplitude: float, noise_var: float
) -> CrlbReport:
    fim = fim_single_target(alloc, params, amplitude, noise_var)
    var_tau = crlb_delay(alloc, params, amplitude, noise_var)
    return CrlbReport(
        fim=fim,
        crlb_delay_s2=var_tau,
        crlb_range_m2=var_tau * (SPEED_OF_LIGHT / 2.0) ** 2,
        n_active=int(alloc.cardinalities().sum() // alloc.n_symbols),
        n_symbols=alloc.n_symbols,
        amplitude=amplitude,
        noise_var=noise_var,
        subcarrier_spacing_hz=params.subcarrier_spacing_hz,
    )


def crlb_vs_inverse_fim_check(
    alloc: ResourceAllocation, params: OfdmParams, amplitude: float, noise_var: float
) -> float:
    """Relative disagreement between the closed form and [FIM^-1]_00.

    Raises SingularFimError when the FIM cannot be inverted.
    """
    closed = crlb_delay(alloc, params, amplitude, noise_var)
    fim = fim_single_target(alloc, params, amplitude, noise_var)
    det = fim[0, 0] * fim[1, 1] - fim[0, 1] * fim[1, 0]
    if det <= 0.0:
        raise SingularFimError("FIM is singular")
    inv00 = fim[1, 1] / det
    return abs(closed - inv00) / closed


def _main_peaks(v: np.ndarray, label: str) -> np.ndarray:
    """The bin of the largest magnitude of each row of the (T, Q)
    magnitudes `v` (the lowest on a tie); raises FloatingPointError where a
    row is zero everywhere (a signal underflowed to 0), naming the
    periodogram by `label`, its "method domain"."""
    main = v.argmax(axis=1)
    if not (v[np.arange(len(v)), main] > 0.0).all():
        raise FloatingPointError(f"{label} spectrum is zero everywhere")
    return main


def _pslrs(v: np.ndarray, mainlobe_halfwidth: int, label: str) -> list[float]:
    """pslr of each row of the (T, Q) magnitudes `v` of the periodogram
    `label` (_main_peaks): one argmax and one masked maximum for the stack,
    then 20 log10(main / side) per row in scalar arithmetic."""
    t, n = v.shape
    if mainlobe_halfwidth < 0:
        raise ValueError("mainlobe_halfwidth must be >= 0")
    if 2 * mainlobe_halfwidth + 1 >= n:
        raise ValueError("exclusion zone swallows the whole spectrum")
    main = _main_peaks(v, label)
    rows = np.arange(t)
    side_bins = np.ones((t, n), dtype=bool)  # more than the halfwidth from the main peak, circularly
    offsets = np.arange(-mainlobe_halfwidth, mainlobe_halfwidth + 1)
    side_bins[rows[:, None], (main[:, None] + offsets) % n] = False
    side = v.max(axis=1, where=side_bins, initial=0.0)  # magnitudes are >= 0
    return [
        20.0 * math.log10(m / s) if s > 0.0 else math.inf
        for m, s in zip(v[rows, main].tolist(), side.tolist())
    ]


def pslr(p: Periodogram, mainlobe_halfwidth: int) -> float:
    """Peak-to-sidelobe ratio in dB.

    Main peak magnitude over the largest magnitude outside the circular
    exclusion zone of +/- mainlobe_halfwidth bins around it.  A spectrum
    that is zero outside the exclusion zone returns +inf; one that is zero
    everywhere (a signal underflowed to 0) raises FloatingPointError.  The
    one-row call of _pslrs.
    """
    return _pslrs(p.values[None], mainlobe_halfwidth, f"{p.method} {p.domain}")[0]


def common_exclusion_halfwidth(p: Periodogram) -> int:
    """Exclusion halfwidth (bins) from the first null of a contiguous
    aperture with the full-band virtual extent 2N-1.  Using one physical
    width for every method keeps PSLR comparisons on an equal footing.
    For the zero-fill methods (at most N subcarriers) that is half their
    main lobe or less: at oversample 4 its 2 bins sit inside the lobe, so
    their PSLR reads the lobe's shoulder, not their first sidelobe.  A
    virtual bin is half a zero-fill bin (Q = oversample * 2N), so at
    oversample 4 the virtual halfwidth is round(8N / (2N - 1)) bins: 4 for
    N >= 5, 5 for N = 2..4."""
    return _exclusion_halfwidth(p.params, p.bin_width)


def _exclusion_halfwidth(params: OfdmParams, bin_width: float) -> int:
    """common_exclusion_halfwidth on an axis of bin width `bin_width` s."""
    n = params.n_subcarriers
    first_null_s = 1.0 / ((2 * n - 1) * params.subcarrier_spacing_hz)
    return max(1, round(first_null_s / bin_width))


@dataclass(frozen=True)
class AmbiguitySurface:
    """Normalized delay-Doppler ambiguity magnitudes for one allocation.

    direct uses the active subcarriers as unit taps; virtual uses the
    difference-set lags weighted by their pair counts, a delay term equal to
    the direct one's squared magnitude over K**2.  Both are 1 at (0, 0).
    """

    delay_axis_s: np.ndarray
    doppler_axis_hz: np.ndarray
    direct: np.ndarray  # (n_doppler, n_delay)
    virtual: np.ndarray

    def direct_delay_cut(self) -> np.ndarray:
        return self.direct[int(np.argmin(np.abs(self.doppler_axis_hz)))]

    def virtual_delay_cut(self) -> np.ndarray:
        return self.virtual[int(np.argmin(np.abs(self.doppler_axis_hz)))]


def ambiguity_function(
    alloc: ResourceAllocation,
    params: OfdmParams,
    delay_grid_s: np.ndarray,
    doppler_grid_hz: np.ndarray,
) -> AmbiguitySurface:
    """Ambiguity magnitude over a delay x Doppler grid.

    The double sum over symbols and subcarriers factors into a Doppler
    term (common to both apertures) and a delay term D(tau), the sum of
    exp(-2j pi df tau n) over the K active indices n.  The virtual delay
    term, the sum over difference-set lags weighted by their pair counts,
    is the same sum over ordered pairs (n_a, n_b), so it equals |D(tau)|**2
    and its pair counts sum to K**2.
    """
    _check_fits(alloc, params)
    delay_grid_s = np.asarray(delay_grid_s, dtype=np.float64)
    doppler_grid_hz = np.asarray(doppler_grid_hz, dtype=np.float64)
    m, k = params.n_symbols, alloc.n_active
    dop_phase = 2j * np.pi * np.outer(doppler_grid_hz, np.arange(m)) * params.symbol_dur_s
    dop = np.exp(dop_phase).sum(axis=1)
    phase = -2j * np.pi * params.subcarrier_spacing_hz
    delay = np.exp(phase * np.outer(delay_grid_s, alloc.indices)).sum(axis=1)
    direct = np.abs(np.outer(dop, delay)) / (m * k)
    virtual = np.outer(np.abs(dop), delay.real**2 + delay.imag**2) / (m * k**2)
    return AmbiguitySurface(delay_grid_s, doppler_grid_hz, direct, virtual)


# ---------------------------------------------------------------------------
# Monte-Carlo sweep harness


@dataclass(frozen=True)
class SweepConfig:
    """Inputs of one RMSE/PSLR-vs-SNR sweep.

    snr_db entries are per-active-RE SNRs; +inf means noiseless.  The
    sparse allocation is redrawn every trial (seeded); direct_sparse and
    autocorrelation share the allocation and the symbol sum and Gram matrix
    of the grid drawn on it, so the method comparison is paired;
    full_bandwidth and equivalent_bandwidth, read by zero-fill alone, draw
    their grid's symbol sum alone.  `scenes` holds the Scene of each SNR
    point; the seed-independent allocations are built once, by sweep
    method.
    A target is detected when a peak lies within miss_threshold_bins range
    bins of it (10 by default) and nearer to it than to any other target;
    one peak detects one target at most (_match, the demo's rule too, which
    the demo applies at _DEMO_MATCH_TOL_BINS, 5).  Each method runs once.
    """

    params: OfdmParams
    n_active: int
    snr_db_axis: tuple[float, ...]
    methods: tuple[str, ...] = (
        "full_bandwidth",
        "equivalent_bandwidth",
        "direct_sparse",
        "autocorrelation",
    )
    targets: tuple[Target, ...] = (Target(distance_m=200.0, amplitude=1.0),)
    link: LinkBudget | None = None
    n_trials: int = 500
    oversample: int = 4
    master_seed: int = 0
    miss_threshold_bins: float = 10.0
    scenes: tuple[Scene, ...] = field(init=False, repr=False, compare=False)
    _allocations: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        methods = _as_tuple("methods", self.methods)
        for i, m in enumerate(methods):
            if m not in SWEEP_METHODS:
                raise ValueError(f"methods: unknown sweep method {m!r}; valid: {SWEEP_METHODS}")
            if m in methods[:i]:
                raise ValueError(f"methods[{i}]: sweep method {m!r} is listed twice")
        n = self.params.n_subcarriers
        _check_number("n_active", self.n_active, integer=True, minimum=2, maximum=n)
        _check_number("n_trials", self.n_trials, integer=True, minimum=1, maximum=_AXIS_MAX_POINTS)
        # pslr excludes 3 bins or more around the peak: oversample * N >= 4 leaves a sidelobe
        _check_delay_axes(self.params, self.oversample, minimum=-(-4 // n))
        _check_number("master_seed", self.master_seed, integer=True, minimum=0)
        _check_number("miss_threshold_bins", self.miss_threshold_bins, positive=True)
        targets = _as_tuple("targets", self.targets)
        base = Scene(targets=targets, link=self.link)
        scenes = []
        for i, snr in enumerate(_as_tuple("snr_db_axis", self.snr_db_axis)):
            try:
                scenes.append(replace(base, snr_db=_check_number("snr_db", snr, allow_inf=True)))
            except (ValueError, TypeError) as exc:
                raise type(exc)(f"snr_db_axis[{i}]: {exc}") from None
        object.__setattr__(self, "snr_db_axis", tuple(float(s.snr_db) for s in scenes))
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "scenes", tuple(scenes))
        object.__setattr__(self, "_allocations", _fixed_allocations(self.params, self.n_active))


def _check_delay_axes(params: OfdmParams, oversample, minimum: int) -> None:
    """Bound `oversample` and the subcarrier spacing by the largest delay
    spectrum, the virtual periodogram: Q = oversample * 2N bins, at most
    _AXIS_MAX_POINTS, on an axis spanning 1 / spacing s in steps of
    1 / (Q * spacing) s.  An infinite span or Q * spacing leaves that axis
    without increasing values."""
    span = 2 * params.n_subcarriers
    _check_number(
        "oversample", oversample, integer=True, minimum=minimum, maximum=_AXIS_MAX_POINTS // span
    )
    spacing = params.subcarrier_spacing_hz
    if math.isinf(oversample * span * spacing) or math.isinf(1.0 / spacing):
        raise ValueError(
            f"subcarrier_spacing_hz: {spacing} Hz overflows the virtual delay axis of "
            f"Q = oversample * 2N = {oversample * span} bins at oversample {oversample}"
        )


def _fixed_allocations(params: OfdmParams, n_active: int) -> dict[str, ResourceAllocation]:
    """The seed-independent allocations compared with a random draw of
    n_active subcarriers, keyed by sweep method: the full band, the
    contiguous band of the same cardinality and the nested pattern."""
    inner, outer = nested_params_for(n_active, params.n_subcarriers)
    return {
        "full_bandwidth": make_allocation(params, "full"),
        "equivalent_bandwidth": ResourceAllocation.constant(
            np.arange(n_active), params.n_symbols, params.n_subcarriers
        ),
        "nested": make_allocation(params, "nested", inner=inner, outer=outer),
    }


@dataclass(frozen=True)
class SweepResult:
    """Aggregated sweep metrics, plus the raw per-trial samples.

    All dict values are keyed by method name; aggregate arrays run along
    the SNR axis.  Confidence half-widths are 95%, computed from the
    per-trial samples.  `miss_rate` is the share of (trial, target) pairs
    that no peak detected (_match), so two targets that one peak merges
    count one miss; a missed target stays out of the RMSE.
    """

    config: SweepConfig
    rmse_m: dict[str, np.ndarray]
    rmse_ci_m: dict[str, np.ndarray]
    pslr_db: dict[str, np.ndarray]
    pslr_ci_db: dict[str, np.ndarray]
    miss_rate: dict[str, np.ndarray]
    pslr_samples: dict[str, list[np.ndarray]]
    error_samples: dict[str, list[np.ndarray]]


def _match(
    v: np.ndarray, bin_width: float, true_ranges: np.ndarray, tol_m: float, halfwidth: int
) -> np.ndarray:
    """Score each row of the (T, Q) delay magnitudes `v`, on the library
    delay axis of `bin_width` s, against the true target ranges (m).

    _pick_peaks asks each row for one peak per target, at least
    2 * halfwidth bins apart (common_exclusion_halfwidth, which the caller
    computes once per method); each peak votes for its nearest target (the
    first on a tie) if that target is within tol_m.  A target with a vote
    is detected, with the range error of its nearest voting peak (the first
    in peak order on a tie), so one peak detects one target at most.
    Returns the (T, targets) range errors, NaN where a target is missed.
    """
    targets = np.arange(len(true_ranges))
    bins = _pick_peaks(v, targets.size, 2 * halfwidth)
    ranges = _refined_peaks(v, bins, bin_width, 0.0) * SPEED_OF_LIGHT / 2.0  # NaN: no peak
    err = ranges[:, :, None] - true_ranges  # (T, peaks, targets)
    dist = np.abs(err)
    nearest = dist.argmin(axis=2, keepdims=True)
    votes = (np.take_along_axis(dist, nearest, 2) <= tol_m) & (nearest == targets)
    best = np.where(votes, dist, np.inf).argmin(axis=1, keepdims=True)  # per target, the first nearest
    errors = np.take_along_axis(err, best, 1)[:, 0]
    return np.where(np.take_along_axis(votes, best, 1)[:, 0], errors, np.nan)


def _periodogram_method(method: str) -> str:
    """The Periodogram method of a sweep method's delay spectra."""
    return "autocorrelation" if _SWEEP_TABLE[method][1] else "zero_fill"


def _bin_scale(q_bins: int, params: OfdmParams) -> tuple[float, int]:
    """(bin width, common_exclusion_halfwidth) of a Q-bin library delay
    periodogram: the same for every trial of a method."""
    axis = _delay_axis(q_bins, params.subcarrier_spacing_hz)
    bin_width = float(axis[1] - axis[0])
    return bin_width, _exclusion_halfwidth(params, bin_width)


# Most trials that _trials holds at once (_TRIAL_BLOCK), and most bins
# (trials x Q) of the largest spectra of a block (_BLOCK_BINS: 64 desk
# virtual spectra).  A method's stack of a block holds a (T, N) complex row
# per trial and the (T, Q) magnitudes, so the block bounds a point's memory
# whatever its trial count, and it pays the per-call cost of one transform,
# peak pick, match and PSLR per method.  Desk sweep (5 methods, 0 dB, 256
# trials, one BLAS thread, best of 11 on a 2-core x86-64 KVM guest), ms per
# trial at 1, 8, 16, 64 and 256 trials per block: 1.90, 1.37, 1.10, 1.05
# and 1.17.  At N=1000, M=720, K=200 (4 default methods, 128 trials, best
# of 5) 16 trials per block take 3.01 ms per trial, 64 take 3.15; under
# tracemalloc a point peaks at 3.7 MiB with 16, 14 MiB with 64.
_TRIAL_BLOCK = 64
_BLOCK_BINS = 64 * 2048


def _trials(
    cfg: SweepConfig | TwoTargetDemoConfig, scene: Scene, methods, fixed: dict, n_trials: int, ss
):
    """Yield, block by block of at most _TRIAL_BLOCK trials in trial order
    (fewer where their spectra would pass _BLOCK_BINS bins),
    {method: (T, Q) delay magnitudes}: row t is trial t's periodogram of the
    method, zero-fill (Q = oversample * N) or virtual (Q = oversample * 2N)
    on the library delay axis (_bin_scale), checked as a Periodogram's
    magnitudes are (_check_magnitudes) once the block's draws are done.

    A method `fixed` does not map reads the trial's random allocation; a
    block draws its T random allocations first, in trial order.  Each slot
    (_SWEEP_TABLE) is drawn once per block, all T trials at once, through
    the point's one _SignalTable, which keeps the unit signals of the
    `fixed` allocations (synth._SignalTable.statistics): a virtual slot's
    symbol sum and Gram matrix without the grid (the rows of
    _gram_statistics), any other slot's symbol sum alone, in one row
    (lags=False).  A draw keeps synthesize's phases, with other noise
    draws.  Where zero-fill reads a slot, the block's symbol sums go into
    its methods' rows in one assignment; where a requested virtual method
    reads it, each trial's Bartlett factor is drawn and its lag means read,
    trial by trial, on the route the read gate picks once for the block,
    and each random allocation is dropped once its trial is read.

    The point's streams are opened once, on children of `ss` by key: the
    random allocations draw from the Generator on key (0,), and slot s from
    those on keys (s, j) (synth._streams), j = 0 the phases, 1 the noise
    and 2 a Bartlett factor, each opened only where the slot's draw reads
    it (the factor only where a requested virtual method reads the slot).
    Trials draw from them in trial order, so the first n trials of a longer
    walk are those of an n-trial walk, and trial i cannot be drawn without
    trials 0 .. i - 1.

    Of each draw a method keeps one (N,) row: a zero-fill method's symbol
    sum over M * K (_active_cells), a virtual one's signal at its aperture
    lags >= 0 (_virtual_half, zeros off the aperture) over n_lags.  The
    block's rows of a method are transformed at once, each with the bits
    of its own zero_fill_periodogram or virtual_periodogram.
    """
    params = cfg.params
    readers = {}  # slot: the requested methods that read it
    for method in methods:
        readers.setdefault(_SWEEP_TABLE[method][0], []).append(method)
    # one table per point: an aliasing target warns once per point, from this line
    table = _SignalTable(scene, params, fixed.values())
    slots = []  # (zero-fill methods, virtual methods, fixed allocation or None, lags of its draw, streams)
    for slot, slot_methods in readers.items():
        virtual = [m for m in slot_methods if _SWEEP_TABLE[m][1]]
        zero_fill = [m for m in slot_methods if m not in virtual]
        count = 1 if table.var == 0.0 else 3 if virtual else 2  # phases, noise, a Bartlett factor
        alloc = fixed.get(slot_methods[0])
        slots.append((zero_fill, virtual, alloc, slot in _VIRTUAL_SLOTS, _streams(ss, count, (slot,))))
    alloc_rng = _child_rng(ss, (0,)) if any(alloc is None for _, _, alloc, _, _ in slots) else None
    n = params.n_subcarriers
    q_max = cfg.oversample * n * max(2 if _SWEEP_TABLE[m][1] else 1 for m in methods)
    block_trials = max(1, min(_TRIAL_BLOCK, _BLOCK_BINS // q_max))
    for first in range(0, n_trials, block_trials):
        size = min(block_trials, n_trials - first)
        randoms = None
        if alloc_rng is not None:
            randoms = [
                make_allocation(params, "random", n_active=cfg.n_active, seed=alloc_rng) for _ in range(size)
            ]
        rows = {m: np.zeros((size, n), dtype=np.complex128) for m in methods}
        norms = {m: np.empty((size, 1)) for m in methods}
        for zero_fill, virtual, alloc, lags, streams in slots:
            allocs = randoms if alloc is None else [alloc] * size
            drawn = table.statistics(allocs, streams, lags=lags)
            for method in zero_fill:
                drawn.symbol_sums(rows[method])
                norms[method][:] = _active_cells(allocs[0])
            if virtual:
                for t, aperture, lag_means in drawn.lag_means():  # drops each allocation after its trial
                    half = aperture.lags[aperture.n_lags // 2 :]  # the lags >= 0
                    signal = _virtual_half(lag_means, aperture)
                    for method in virtual:
                        rows[method][t, half] = signal
                        norms[method][t] = aperture.n_lags
        block = {}
        for method in methods:
            virtual = _SWEEP_TABLE[method][1]
            q_bins = cfg.oversample * n * (2 if virtual else 1)
            block[method] = _delay_spectra(rows.pop(method), norms[method], q_bins, real=virtual)
            _check_magnitudes(block[method], _periodogram_method(method), "delay")
        yield block
        block.clear()  # the caller is done with it: its stacks go before the next block's


def _sweep_point(cfg: SweepConfig, scene: Scene, point_ss) -> dict:
    """Per method, the samples of one SNR point: (range errors of the
    detected targets, trial by trial in target order, PSLR of every trial,
    missed targets)."""
    true_ranges = np.array([t.distance_m for t in cfg.targets])
    miss_tol_m = cfg.miss_threshold_bins * cfg.params.range_bin_m
    errs = {m: [] for m in cfg.methods}
    pslrs = {m: [] for m in cfg.methods}

    def score(method, v):
        bin_width, halfwidth = _bin_scale(v.shape[1], cfg.params)
        errs[method].append(_match(v, bin_width, true_ranges, miss_tol_m, halfwidth).ravel())
        pslrs[method] += _pslrs(v, halfwidth, f"{_periodogram_method(method)} delay")

    for block in _trials(cfg, scene, cfg.methods, cfg._allocations, cfg.n_trials, point_ss):
        for method in block:  # no name holds a stack past its block (_trials)
            score(method, block[method])
    out = {}
    for m in cfg.methods:
        errors = np.concatenate(errs[m])
        missed = np.isnan(errors)
        out[m] = (errors[~missed], np.array(pslrs[m]), int(missed.sum()))
    return out


def _mean_ci(x: np.ndarray) -> tuple[float, float]:
    """Mean of the samples and the 95% half-width of its confidence
    interval: 0 for one sample, NaN for none."""
    if x.size == 0:
        return math.nan, math.nan
    hw = 1.96 * float(np.std(x, ddof=1)) / math.sqrt(x.size) if x.size > 1 else 0.0
    return float(np.mean(x)), hw


def _aggregates(errs: np.ndarray, ps: np.ndarray, misses: int, n_truth: int) -> tuple:
    """(rmse, rmse_ci, pslr, pslr_ci, miss_rate) of one method at one SNR
    point.  The RMSE half-width is the MSE's over 2 RMSE (delta method); a
    point with no finite PSLR sample reads +inf."""
    mse, hw_mse = _mean_ci(errs**2)
    rmse = math.sqrt(mse)
    finite = ps[np.isfinite(ps)]
    pslr_mean, pslr_ci = _mean_ci(finite) if finite.size else (math.inf, 0.0)
    return rmse, hw_mse / (2.0 * rmse) if rmse > 0 else hw_mse, pslr_mean, pslr_ci, misses / n_truth


# Fewest transform points (symbols x 2N) of a grid whose sweep runs its SNR
# points in threads.  Two SNR-point threads against one, 2 SNR points of the
# 4 default methods, median of 5 alternating calls each on a 2-core x86-64
# KVM guest: at N=256, K=64 they saved no wall time up to 2.6e5 points and
# 28-38% at 2**19 (on the Gram route); at N=1000, K=200, 9-44% from 1.3e5
# points and 17-34% from 5.3e5 (on the Gram route).  They cost up to 2.7x
# the CPU time of one thread at desk size, and -1% to +37% from 2**19, the
# smallest size at which every shape tried saved wall time.
_SWEEP_THREAD_MIN_POINTS = 1 << 19


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def monte_carlo_sweep(cfg: SweepConfig, threads: int | None = None) -> SweepResult:
    """Run the seeded sweep over the SNR axis.

    Each SNR point draws from its own SeedSequence, spawned from the
    master seed, and runs whole in one thread, so any thread count gives
    identical results; a point's trials draw in trial order from its
    streams (_trials).
    `threads` distributes whole SNR points; these threads are the only ones
    the package starts.  None picks one per SNR point, up to the usable CPUs
    (the process's affinity mask), on a grid of at least
    _SWEEP_THREAD_MIN_POINTS transform points (symbols x 2N), else one.  A
    read on the Gram route of the CPI lag sums runs its one BLAS product at
    one BLAS thread, process-wide, so no BLAS workers contend with
    SNR-point threads (see the synth module docstring).
    """
    if threads is None:
        points = cfg.params.n_symbols * 2 * cfg.params.n_subcarriers
        threads = min(len(cfg.scenes), _usable_cpus()) if points >= _SWEEP_THREAD_MIN_POINTS else 1
    ss = np.random.SeedSequence(cfg.master_seed)
    point_seeds = ss.spawn(len(cfg.snr_db_axis))
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            points = list(
                pool.map(lambda args: _sweep_point(cfg, *args), zip(cfg.scenes, point_seeds))
            )
    else:
        points = [_sweep_point(cfg, scene, pss) for scene, pss in zip(cfg.scenes, point_seeds)]

    n_truth = cfg.n_trials * len(cfg.targets)
    fields = ("rmse_m", "rmse_ci_m", "pslr_db", "pslr_ci_db", "miss_rate")
    aggregates = {f: {} for f in fields}
    for m in cfg.methods:
        columns = zip(*(_aggregates(*pt[m], n_truth) for pt in points))
        for f, column in zip(fields, columns):
            aggregates[f][m] = np.array(column)
    return SweepResult(
        config=cfg,
        **aggregates,
        error_samples={m: [pt[m][0] for pt in points] for m in cfg.methods},
        pslr_samples={m: [pt[m][1] for pt in points] for m in cfg.methods},
    )


# ---------------------------------------------------------------------------
# Two-target detection demo


_DEMO_MATCH_TOL_BINS = 5.0  # a peak this many range bins from a target detects it


@dataclass(frozen=True)
class TwoTargetDemoConfig:
    """Two moving targets at low per-RE SNR on a sparse allocation.

    The velocities matter: the direct periodogram sums symbols coherently
    and decoheres over the CPI, while the per-symbol autocorrelation
    cancels the symbol phase and keeps the full integration gain.
    `scene` holds the two targets, built once from the three pair fields.
    A run matches by _match at _DEMO_MATCH_TOL_BINS (5) range bins, the sweep at 10.
    """

    params: OfdmParams
    n_active: int = 64
    snr_db: float = -10.0
    n_runs: int = 100
    master_seed: int = 0
    oversample: int = 4
    distances_m: tuple[float, float] = (200.0, 330.0)
    velocities_mps: tuple[float, float] = (12.0, -9.0)
    amplitudes: tuple[float, float] = (1.0, 0.8)
    scene: Scene = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.params.n_subcarriers
        _check_number("n_active", self.n_active, integer=True, minimum=2, maximum=n)
        _check_delay_axes(self.params, self.oversample, minimum=1)
        _check_number("n_runs", self.n_runs, integer=True, minimum=1, maximum=_AXIS_MAX_POINTS)
        _check_number("master_seed", self.master_seed, integer=True, minimum=0)
        pairs = ("distances_m", "velocities_mps", "amplitudes")
        for name in pairs:
            object.__setattr__(self, name, _as_tuple(name, getattr(self, name), 2))
        targets = []
        for i, (d, v, a) in enumerate(zip(self.distances_m, self.velocities_mps, self.amplitudes)):
            try:
                targets.append(Target(distance_m=d, velocity_mps=v, amplitude=a))
            except (ValueError, TypeError) as exc:
                raise type(exc)(f"{'/'.join(pairs)}[{i}]: {exc}") from None
        try:
            scene = Scene(targets=tuple(targets), snr_db=self.snr_db)
        except ValueError as exc:  # the SNR's reference is the first pair's amplitude
            raise ValueError(str(exc).replace("the amplitude of targets[0]", "amplitudes[0]")) from None
        object.__setattr__(self, "scene", scene)


@dataclass(frozen=True)
class TwoTargetDemoResult:
    config: TwoTargetDemoConfig
    direct_success: np.ndarray  # bool per run
    virtual_success: np.ndarray
    example_direct: Periodogram
    example_virtual: Periodogram

    @property
    def direct_success_rate(self) -> float:
        return float(self.direct_success.mean())

    @property
    def virtual_success_rate(self) -> float:
        return float(self.virtual_success.mean())


def two_target_demo(cfg: TwoTargetDemoConfig) -> TwoTargetDemoResult:
    """Seeded repetitions of the sparse two-target scenario.

    Run i is trial i of the sweep's trial walk from the master seed with
    the direct_sparse/autocorrelation pair: a fresh pinned-endpoint random
    allocation, fresh target phases and fresh noise.  It asks whether the
    direct (zero-fill) and the virtual periodograms each show both targets
    above every sidelobe: a run succeeds where the sweep's rule (_match) at
    _DEMO_MATCH_TOL_BINS misses neither, so a peak between the two targets
    detects one of them at most.  A periodogram that underflows to zero
    everywhere raises FloatingPointError, as in the sweep.
    """
    true_ranges = np.array(cfg.distances_m)
    tol_m = _DEMO_MATCH_TOL_BINS * cfg.params.range_bin_m
    pair = ("direct_sparse", "autocorrelation")
    ok = {m: [] for m in pair}
    example = {}

    def score(method, v):
        label = _periodogram_method(method)
        if method not in example:  # run 0's periodogram
            example[method] = Periodogram(
                axis=_delay_axis(v.shape[1], cfg.params.subcarrier_spacing_hz), values=v[0].copy(),
                domain="delay", method=label, oversample=cfg.oversample, params=cfg.params,
            )
        _main_peaks(v, f"{label} delay")  # a spectrum zero everywhere fails, as in the sweep's pslr
        bin_width, halfwidth = _bin_scale(v.shape[1], cfg.params)
        ok[method].append(~np.isnan(_match(v, bin_width, true_ranges, tol_m, halfwidth)).any(axis=1))

    ss = np.random.SeedSequence(cfg.master_seed)
    for block in _trials(cfg, cfg.scene, pair, {}, cfg.n_runs, ss):
        for method in block:  # no name holds a stack past its block (_trials)
            score(method, block[method])
    return TwoTargetDemoResult(
        config=cfg,
        direct_success=np.concatenate(ok["direct_sparse"]),
        virtual_success=np.concatenate(ok["autocorrelation"]),
        example_direct=example["direct_sparse"],
        example_virtual=example["autocorrelation"],
    )
