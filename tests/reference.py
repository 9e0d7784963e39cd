"""Slow reference paths of the package; no test defines one anywhere else.

Each function computes the plain way something that `sparse_isac`
computes fast: a dense (M, N) view of a grid built from its allocation's
per-symbol index sets (`cols` split at `starts`), whole-grid synthesis,
the symbol sum drawn directly as one row, a sweep trial's every draw
built per call, with no per-point table, from per-slot Generators in
trial order, and its delay periodograms
transformed one at a time, every estimator's whole-grid formula on that
view, the per-symbol lag products that the virtual signal accumulates,
the Gram route's read into fresh arrays and its lag gather at the lag
taken mod 2N, brute-force enumerations of difference sets, lag products
and Fisher sums, the modular-distance PSLR mask, the greedy peak picker
for every k, the nearest-peak and the peak-by-peak voting target
matches, the per-trial hole-fill draw, the row-at-a-time CSV writer and
the symbol-constant CRLB.  The tests compare the package with them: bit for bit (`bits`)
where the fast path does the same float operations in the same order, to
round-off where it does not.
"""
import cmath
import csv
import dataclasses
import math
from collections import Counter

import numpy as np

import sparse_isac as si
from sparse_isac.analysis import _SWEEP_TABLE, _VIRTUAL_SLOTS
from sparse_isac.estimators import Peak, PeakList, _circular_distance, _refine_bin
from sparse_isac.synth import _ROW_BLOCK, _GridStatistics, _gram_route, _one_blas_thread, _symbol_basis

C = si.SPEED_OF_LIGHT


def bits(a):
    """The raw bits of float64 (other real values are cast) or complex128
    values, so -0.0 != +0.0."""
    a = np.asarray(a)
    return np.ascontiguousarray(a if a.dtype.kind in "fc" else a.astype(np.float64)).view(np.uint64)


# ---------------------------------------------------------------------------
# dense grids


def dense_mask(per_symbol, n_subcarriers):
    """(M, N) activity mask: a loop over each symbol's index set."""
    out = np.zeros((len(per_symbol), n_subcarriers), dtype=bool)
    for m, idx in enumerate(per_symbol):
        for i in idx:
            out[m, int(i)] = True
    return out


def per_symbol_indices(alloc):
    """Each symbol's index set: `cols` split at the symbol offsets `starts`."""
    return tuple(np.split(alloc.cols, alloc.starts[1:-1]))


def alloc_mask(alloc):
    """dense_mask of an allocation's per-symbol index sets."""
    return dense_mask(per_symbol_indices(alloc), alloc.n_subcarriers)


def dense(grid):
    """The dense (M, N) grid: its active values, in row-major order, at
    the cells of alloc_mask, zeros elsewhere."""
    out = np.zeros((grid.n_symbols, grid.n_subcarriers), dtype=grid.active.dtype)
    out[alloc_mask(grid.alloc)] = grid.active
    return out


def from_dense(values, alloc, params, noise_variance=0.0):
    """The FreqGrid whose dense view is `values` on the allocation's cells."""
    return si.FreqGrid(
        active=np.asarray(values)[alloc_mask(alloc)], alloc=alloc, params=params,
        noise_variance=noise_variance,
    )


def eval_two_term_model(targets_with_phase, params, m, n):
    """The received-sample model at one cell (m, n), target by target:
    (amplitude, phase, distance, velocity) each."""
    total = 0j
    for amp, phase, dist, vel in targets_with_phase:
        tau = 2 * dist / C
        fd = 2 * vel * params.carrier_freq_hz / C
        total += (
            amp
            * cmath.exp(1j * phase)
            * cmath.exp(2j * math.pi * fd * m * params.symbol_dur_s)
            * cmath.exp(-2j * math.pi * n * params.subcarrier_spacing_hz * tau)
        )
    return total


def keyed_rng(ss, *key):
    """A Generator on the SeedSequence of the entropy of `ss` whose spawn
    key is the one of `ss` followed by `key`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=ss.entropy, spawn_key=ss.spawn_key + key))


def target_phasors(scene, params, seed):
    """The noise substream's Generator of a grid's seed (key (1,)) and the
    target terms (target_terms) of its phase substream (key (0,))."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return keyed_rng(ss, 1), target_terms(scene, params, keyed_rng(ss, 0))


def target_terms(scene, params, phase_rng):
    """Per target, (A e^{j phi}, symbol phases e^{j 2 pi f_D T m} over the
    M symbols, subcarrier phases e^{-j 2 pi df tau n} over the N
    subcarriers), with phi drawn from the Generator `phase_rng` in target
    order."""
    m_idx = np.arange(params.n_symbols)
    n_idx = np.arange(params.n_subcarriers)
    terms = []
    for t in scene.targets:
        draw = phase_rng.uniform(0.0, 2.0 * math.pi)
        phi = t.phase_rad if t.phase_rad is not None else draw
        tau, f_d = si.delay_doppler(t, params)
        terms.append((
            scene.amplitude_of(t) * np.exp(1j * phi),
            np.exp(2j * np.pi * f_d * params.symbol_dur_s * m_idx),
            np.exp(-2j * np.pi * params.subcarrier_spacing_hz * tau * n_idx),
        ))
    return terms


def dense_synthesize(scene, alloc, params, seed):
    """Whole-grid synthesis: every target phasor on all M x N cells, the
    inactive cells zeroed, and the noise from two draws of one normal per
    active cell (real parts, then imaginary parts), added at the active
    cells in row-major order."""
    noise_rng, terms = target_phasors(scene, params, seed)
    grid = np.zeros((params.n_symbols, params.n_subcarriers), dtype=np.complex128)
    for coef, sym_phase, sub_phase in terms:
        grid += coef * np.outer(sym_phase, sub_phase)
    mask = alloc_mask(alloc)
    grid[~mask] = 0.0
    var = scene.noise_variance()
    if var > 0.0:
        sigma = math.sqrt(var / 2.0)
        n_act = int(mask.sum())
        grid[mask] += noise_rng.normal(0.0, sigma, n_act) + 1j * noise_rng.normal(0.0, sigma, n_act)
    return grid


def symbol_sum_row(scene, alloc, params, seed):
    """sum_m Y_m[n] of a grid of a constant allocation, drawn directly as a
    dense (N,) row, zeros off the allocation.  Per target, an active column
    n holds A e^{j phi} S e^{-j 2 pi df tau n}, S = sum_m e^{j 2 pi f_D T m},
    plus the sum of its M cell noises, CN(0, M var): two draws of one
    normal per active column (real parts, then imaginary parts) from the
    noise substream.  The same phases as dense_synthesize."""
    noise_rng, terms = target_phasors(scene, params, seed)
    cols = alloc.indices
    row = np.zeros(params.n_subcarriers, dtype=np.complex128)
    for coef, sym_phase, sub_phase in terms:
        row[cols] += coef * (sym_phase.sum() * sub_phase[cols])
    var = scene.noise_variance()
    if var > 0.0:
        sigma = math.sqrt(alloc.n_symbols * (var / 2.0))
        row[cols] += noise_rng.normal(0.0, sigma, cols.size) + 1j * noise_rng.normal(0.0, sigma, cols.size)
    return row


def per_call_values(scene, params, streams, phasors):
    """(noise variance, values) of one draw from the (phase, noise, factor)
    Generators `streams`, every seed-independent term built anew for the
    call (target_terms): per target, the new array phasors(sym_phase,
    sub_phase) scaled in place by A e^{j phi}, the terms summed from 0.0,
    then the noise Generator's normals, all real parts, then all imaginary
    parts, each times sqrt(var / 2)."""
    phase_rng, noise_rng, _ = streams
    values = 0.0
    for coef, sym_phase, sub_phase in target_terms(scene, params, phase_rng):
        term = phasors(sym_phase, sub_phase)
        np.multiply(coef, term, out=term)
        values = np.add(values, term, out=term)
    values = values.ravel()
    var = scene.noise_variance()
    if var > 0.0:
        sigma = math.sqrt(var / 2.0)
        values.real += noise_rng.standard_normal(values.size) * sigma
        values.imag += noise_rng.standard_normal(values.size) * sigma
    return var, values


def per_call_grid(scene, alloc, params, streams):
    """A grid drawn from `streams` as synthesize draws it, with the draw
    built per call (per_call_values) and no SeedSequence."""
    rows = np.arange(params.n_symbols)[:, None] if alloc.is_constant else alloc.rows
    cols = alloc.indices if alloc.is_constant else alloc.cols
    var, values = per_call_values(
        scene, params, streams, lambda sym_phase, sub_phase: sym_phase[rows] * sub_phase[cols]
    )
    return si.FreqGrid(active=values, alloc=alloc, params=params, noise_variance=var)


def per_call_statistics(scene, alloc, params, streams, lags=True):
    """The statistics of _gram_statistics drawn from the (phase, noise,
    factor) Generators `streams`, with the draw built per call: the basis
    and its projections Q^H p of the profiles anew (per_call_values), then,
    where `lags` holds and var > 0, R's rows: two normals per entry right
    of the diagonal, row by row, re then im, then one gamma per diagonal
    entry, from the factor Generator."""
    basis = _symbol_basis(scene.targets if lags else (), params)
    (d, m), k, cols = basis.shape, alloc.n_active, alloc.indices
    var, values = per_call_values(
        scene, params, streams,
        lambda sym_phase, sub_phase: np.outer((basis.conj() * sym_phase).sum(axis=1), sub_phase[cols]),
    )
    block = values.reshape(d, k)
    if var > 0.0 and lags:
        rng = streams[2]
        r = min(m - d, k)
        upper = np.triu(np.ones((r, k), dtype=bool), 1)
        z = rng.standard_normal(2 * int(upper.sum())) * math.sqrt(var / 2.0)
        entries = np.empty(z.size // 2, dtype=np.complex128)
        entries.real, entries.imag = z[0::2], z[1::2]
        factor = np.zeros((r, k), dtype=np.complex128)
        factor[upper] = entries
        factor[np.arange(r), np.arange(r)] = np.sqrt(var * rng.standard_gamma(m - d - np.arange(r)))
        block = np.vstack([block, factor])
    return _GridStatistics(block, alloc)


def per_call_walk(cfg, scene, methods, fixed, n_trials, ss):
    """Each draw of analysis._trials, in its order, as (slot, allocation,
    drawn), every draw built per call: the slot layout of _SWEEP_TABLE, a
    virtual slot's grid (per_call_grid) or, where _gram_route holds, its
    statistics (per_call_statistics), any other slot's symbol sum alone
    (lags=False).  Each slot s draws its trials in order from its own three
    Generators, on keys (s, 0), (s, 1) and (s, 2) under `ss`, and a trial
    with a slot that `fixed` does not map draws one random allocation from
    the Generator on key (0,)."""
    slots = {}  # slot: the first requested method that reads it
    for method in methods:
        slots.setdefault(_SWEEP_TABLE[method][0], method)
    streams = {slot: [keyed_rng(ss, slot, j) for j in range(3)] for slot in slots}
    alloc_rng = keyed_rng(ss, 0)
    random = any(method not in fixed for method in slots.values())
    draws = []
    for _ in range(n_trials):
        alloc = None
        if random:
            alloc = si.make_allocation(cfg.params, "random", n_active=cfg.n_active, seed=alloc_rng)
        for slot, method in slots.items():
            slot_alloc = fixed.get(method, alloc)
            virtual = slot in _VIRTUAL_SLOTS
            args = scene, slot_alloc, cfg.params, streams[slot]
            if virtual and not _gram_route(slot_alloc, scene):
                draws.append((slot, slot_alloc, per_call_grid(*args)))
            else:
                draws.append((slot, slot_alloc, per_call_statistics(*args, lags=virtual)))
    return draws


def per_call_periodograms(cfg, scene, methods, n_trials, ss):
    """Each trial's {method: delay Periodogram} of analysis._trials, built
    one periodogram at a time from the draws of per_call_walk (the sweep's
    fixed allocations where `cfg` has them): a zero-fill method's
    |IFFT_Q(symbol sum)| * Q / (M K), Q = oversample * N, a virtual
    method's |IRFFT_Q| * Q / n_lags of build_virtual_signal's lags >= 0,
    Q = oversample * 2N."""
    params, n = cfg.params, cfg.params.n_subcarriers
    fixed = getattr(cfg, "_allocations", {})
    readers = {}  # slot: the requested methods that read it
    for method in methods:
        readers.setdefault(_SWEEP_TABLE[method][0], []).append(method)
    draws = iter(per_call_walk(cfg, scene, methods, fixed, n_trials, ss))
    trials = []
    for _ in range(n_trials):
        trial = {}
        for slot, slot_methods in readers.items():
            drawn_slot, alloc, drawn = next(draws)
            assert drawn_slot == slot
            for method in slot_methods:
                if _SWEEP_TABLE[method][1]:
                    vs, aperture = si.build_virtual_signal(drawn)
                    q_bins, half = cfg.oversample * 2 * n, np.zeros(n, dtype=np.complex128)
                    half[aperture.lags[aperture.lags >= 0]] = vs.values[aperture.lags >= 0]
                    values = np.abs(np.fft.irfft(half, n=q_bins) * q_bins) / aperture.n_lags
                    label = "autocorrelation"
                else:
                    q_bins = cfg.oversample * n
                    values = np.abs(np.fft.ifft(drawn.symbol_sum, n=q_bins) * q_bins)
                    values /= float(alloc.n_symbols * alloc.n_active)
                    label = "zero_fill"
                trial[method] = si.Periodogram(
                    axis=np.arange(q_bins) / (q_bins * params.subcarrier_spacing_hz), values=values,
                    domain="delay", method=label, oversample=cfg.oversample, params=params,
                )
        trials.append(trial)
    return trials


def dense_measure_snr(grid, scene):
    """Per-active-RE SNR in dB: the noiseless twin's mean active-cell power
    over the grid's noise variance."""
    if grid.noise_variance == 0.0:
        return math.inf
    quiet = si.Scene(targets=scene.targets, noise_variance_w=0.0)
    twin = si.synthesize(quiet, grid.alloc, grid.params, seed=grid.seed_ss)
    sig_power = float(np.mean(np.abs(dense(twin)[alloc_mask(grid.alloc)]) ** 2))
    return 10.0 * math.log10(sig_power / grid.noise_variance)


# ---------------------------------------------------------------------------
# delay and Doppler estimators on the dense grid


def exp_gemv_ml(z, active, q_bins):
    """|sum_k z_k e^{j 2 pi q n_k / Q}| for every bin q: exp of every phase,
    then one matrix-vector product.  With the active symbol sums z it is
    the ML objective; with virtual lag values on their lags, the unscaled
    virtual periodogram."""
    steering = np.exp(2j * np.pi * np.outer(np.arange(q_bins), active) / q_bins)
    return np.abs(steering @ z)


def dense_zero_fill(grid, oversample):
    """|IFFT_Q of the dense symbol sum| * Q / (M K)."""
    q_bins = oversample * grid.n_subcarriers
    spectrum = np.fft.ifft(dense(grid).sum(axis=0), n=q_bins) * q_bins
    return np.abs(spectrum) / (grid.n_symbols * grid.alloc.cardinalities().mean())


def dense_ml(grid, oversample):
    """(bin, peak value, refined delay) of the ML search: the refined peak
    of the dense zero-fill spectrum, whose peak scales back by M * K."""
    q_bins = oversample * grid.n_subcarriers
    values = dense_zero_fill(grid, oversample)
    best = int(np.argmax(values))
    pos = _refine_bin(values, best)
    bin_width = 1.0 / (q_bins * grid.params.subcarrier_spacing_hz)
    cells = grid.n_symbols * grid.alloc.cardinalities().mean()
    return best, values[best] * cells, (pos % q_bins) * bin_width


def serial_cpi_lags(grid):
    """The CPI mean of the lag sums, R[s] / M at s mod 2N: |FFT_2N|^2 of the
    dense rows summed over blocks of _ROW_BLOCK rows in symbol order (re^2
    and im^2 interleaved by bin), then one inverse transform."""
    rows, n_fft = dense(grid), 2 * grid.n_subcarriers
    power = np.zeros(n_fft)
    for r0 in range(0, grid.n_symbols, _ROW_BLOCK):
        v = np.fft.fft(rows[r0 : r0 + _ROW_BLOCK], n=n_fft, axis=-1).view(np.float64)
        s = np.einsum("mk,mk->k", v, v)
        power += s[0::2] + s[1::2]
    return np.fft.ifft(power / grid.n_symbols)


def fresh_gram_lags(block, alloc):
    """synth._gram_lags with every array made fresh: S = W^T W by `@`, the
    re, im planes by `+` and `-`, the linear lag index built from the
    allocation's indices; the same float operations, so the same bits."""
    w = np.asanyarray(block, dtype=np.complex128, order="C").view(np.float64)
    with _one_blas_thread:
        s = w.T @ w
    n, cols = alloc.n_subcarriers, alloc.indices
    lag = ((cols + (n - 1))[:, None] - cols).ravel()
    re = s[0::2, 0::2] + s[1::2, 1::2]
    im = s[1::2, 0::2] - s[0::2, 1::2]
    sums = np.bincount(lag, re.ravel(), 2 * n) + 1j * np.bincount(lag, im.ravel(), 2 * n)
    return np.concatenate((sums[n - 1 :], sums[: n - 1])) / alloc.n_symbols


def modulo_gram_lags(block, alloc):
    """synth._gram_lags with each Gram entry G[a, b] gathered at its lag
    n_a - n_b taken mod 2N by an integer modulo: the same product and the
    same bincounts, so the same bits."""
    w = np.ascontiguousarray(block, dtype=np.complex128).view(np.float64)
    with _one_blas_thread:
        s = w.T @ w
    size, cols = 2 * alloc.n_subcarriers, alloc.indices
    lag = ((cols[:, None] - cols) % size).ravel()
    re = s[0::2, 0::2] + s[1::2, 1::2]
    im = s[1::2, 0::2] - s[0::2, 1::2]
    return (np.bincount(lag, re.ravel(), size) + 1j * np.bincount(lag, im.ravel(), size)) / alloc.n_symbols


def dense_virtual(grid, aperture):
    """The accumulated virtual signal: serial_cpi_lags at the aperture lags
    over their pair counts, the value at each lag s < 0 replaced by the
    conjugate of the one at -s and the zero lag by its real part, lag by
    lag."""
    values = serial_cpi_lags(grid)[np.mod(aperture.lags, 2 * grid.n_subcarriers)] / aperture.pair_counts
    at = dict(zip(aperture.lags.tolist(), values))
    return np.array(
        [at[s] if s > 0 else np.conj(at[-s]) if s < 0 else at[0].real + 0j for s in at],
        dtype=np.complex128,
    )


def lag_products(rows, aperture):
    """Per-row lag sums R[s] = sum_{i-j=s} Y[i] * conj(Y[j]) on the aperture
    lags, normalized by the pair counts.  rows: (m, N) complex."""
    f = np.fft.fft(rows, n=2 * aperture.n_subcarriers, axis=-1)
    acf = np.fft.ifft(f * np.conj(f), axis=-1)  # the circular autocorrelation
    return acf[..., np.mod(aperture.lags, acf.shape[-1])] / aperture.pair_counts


def autocorrelate_symbol(grid, symbol, aperture):
    """Virtual signal values of one OFDM symbol, on the aperture lags.

    For every available lag s the normalized sum of pair products
    Y[i] conj(Y[j]) over index pairs with i - j = s of the dense row; a
    noiseless single target of amplitude A yields exactly
    A^2 e^{-j 2 pi df s tau} at every lag, symbol by symbol (the Doppler
    phase cancels within a symbol).
    """
    return lag_products(dense(grid)[symbol][None, :], aperture)[0]


def accumulate_cpi(signals):
    """Lag-wise mean of per-symbol virtual signal values over the CPI: the
    per-symbol reference of build_virtual_signal."""
    if len(signals) < 1:
        raise ValueError("need at least one symbol to accumulate")
    return np.stack(signals, axis=0).mean(axis=0)


def dense_noncoherent_profile(grid, q_bins):
    """sum_m |IFFT_Q(Y_m)|^2, one Q-point transform per dense row."""
    return (np.abs(np.fft.ifft(dense(grid), n=q_bins, axis=1)) ** 2).sum(axis=0)


def dense_noncoherent_delay(grid, oversample):
    """(bin, refined delay) of the symbol-incoherent power profile."""
    q_bins = oversample * grid.n_subcarriers
    profile = dense_noncoherent_profile(grid, q_bins)
    best = int(np.argmax(profile))
    pos = _refine_bin(profile, best)
    return best, (pos % q_bins) / (q_bins * grid.params.subcarrier_spacing_hz)


def dense_doppler(grid, oversample, delay_s):
    """Doppler magnitudes: each dense row matched at delay_s, the symbol
    sequence transformed at U = oversample * M, centred, over M * K."""
    params = grid.params
    n_idx = np.arange(grid.n_subcarriers)
    unwrap = np.exp(2j * np.pi * params.subcarrier_spacing_hz * delay_s * n_idx)
    u_bins = oversample * grid.n_symbols
    spectrum = np.fft.fft(dense(grid) @ unwrap, n=u_bins)
    k = grid.alloc.cardinalities().mean()
    return np.abs(np.fft.fftshift(spectrum)) / (grid.n_symbols * k)


# ---------------------------------------------------------------------------
# difference sets, lag products and Fisher sums by enumeration


def brute_force_differences(indices):
    """Pair count of every lag: every ordered pair enumerated."""
    return Counter(int(a) - int(b) for a in indices for b in indices)


def brute_force_lag_products(row, indices):
    """Mean pair product Y[i] conj(Y[j]) of every lag i - j, by enumeration."""
    sums, counts = {}, {}
    for i in indices:
        for j in indices:
            s = int(i) - int(j)
            sums[s] = sums.get(s, 0j) + row[i] * np.conj(row[j])
            counts[s] = counts.get(s, 0) + 1
    return {s: sums[s] / counts[s] for s in sums}


def brute_force_fim_terms(alloc, params):
    """(sum (w i)^2, sum w i, count) over every active cell, w = 2 pi df:
    a loop over each symbol's index set."""
    w = 2.0 * math.pi * params.subcarrier_spacing_hz
    a = b = c = 0.0
    for idx in per_symbol_indices(alloc):
        for i in idx:
            a += (w * float(i)) ** 2
            b += w * float(i)
            c += 1.0
    return a, b, c


def crlb_delay_constant(indices, params, n_symbols, amplitude, noise_var):
    """Symbol-constant special case: the one-symbol CRLB of the index set,
    divided by the number of symbols."""
    one_params = dataclasses.replace(params, n_symbols=1)
    one = si.ResourceAllocation.constant(indices, 1, params.n_subcarriers)
    return si.crlb_delay(one, one_params, amplitude, noise_var) / n_symbols


def lag_sum_ambiguity(alloc, params, delays, dopplers):
    """(direct, virtual) surface: the virtual delay term summed over the
    difference-set lags with pair-count taps, normalised by their sum."""
    ap = si.difference_set(alloc)
    dop = np.exp(
        2j * np.pi * np.outer(dopplers, np.arange(params.n_symbols)) * params.symbol_dur_s
    ).sum(axis=1)
    phase = -2j * np.pi * params.subcarrier_spacing_hz
    direct_delay = np.exp(phase * np.outer(delays, alloc.indices)).sum(axis=1)
    virt_delay = (np.exp(phase * np.outer(delays, ap.lags)) * ap.pair_counts).sum(axis=1)
    direct = np.abs(np.outer(dop, direct_delay)) / (params.n_symbols * alloc.n_active)
    virtual = np.abs(np.outer(dop, virt_delay)) / (params.n_symbols * ap.pair_counts.sum())
    return direct, virtual


# ---------------------------------------------------------------------------
# scoring a periodogram


def greedy_detect_peaks(p, k=1, min_separation=1):
    """detect_peaks by the greedy for every k: every local maximum ranked by
    magnitude (lowest bin on a tie), each accepted unless within
    min_separation bins of an accepted one.  detect_peaks takes this path
    for k > 1 and picks its first peak directly for k == 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    v = p.values
    n = v.size
    left = np.roll(v, 1)
    right = np.roll(v, -1)
    cand = np.nonzero((v > left) & (v >= right))[0]
    if cand.size == 0 and np.any(v > 0):
        cand = np.array([int(np.argmax(v))])
    order = cand[np.lexsort((cand, -v[cand]))]  # magnitude desc, index asc
    chosen: list[int] = []
    for idx in order:
        if len(chosen) == k:
            break
        if all(_circular_distance(idx, c, n) > min_separation for c in chosen):
            chosen.append(int(idx))
    peaks = []
    for idx in chosen:
        pos = _refine_bin(v, idx)
        refined_axis = (pos % n) * p.bin_width + float(p.axis[0])
        peaks.append(Peak(bin_index=idx, refined_axis_value=refined_axis, magnitude=float(v[idx])))
    return PeakList(peaks=tuple(peaks), requested=k)


def modular_pslr(p, mainlobe_halfwidth):
    """pslr with the exclusion zone as a mask of the circular distance of
    every bin from the main peak, taken by an integer modulo."""
    v = p.values
    n = v.size
    main_idx = int(np.argmax(v))
    if v[main_idx] <= 0.0:
        raise FloatingPointError("spectrum is zero everywhere")
    dist = np.abs((np.arange(n) - main_idx + n // 2) % n - n // 2)
    side = v[dist > mainlobe_halfwidth].max()
    if side <= 0.0:
        return math.inf
    return 20.0 * math.log10(v[main_idx] / side)


def nearest_peak_match(peaks, true_ranges_m, miss_tol_m):
    """Each target takes its nearest peak (the first in peak order on a
    tie), and is detected where that peak is within the tolerance: one
    peak may detect two targets.  Returns (errors of the detected targets
    in target order, count of missed targets), as analysis._match does,
    which lets each peak detect one target at most; the two agree wherever
    the targets are more than twice the tolerance apart."""
    est = np.array([p.refined_axis_value * C / 2.0 for p in peaks.peaks])
    nearest = [est[np.argmin(np.abs(est - r))] - r for r in true_ranges_m] if est.size else []
    errors = [float(err) for err in nearest if abs(err) <= miss_tol_m]
    return errors, len(true_ranges_m) - len(errors)


def voting_match(peaks, true_ranges_m, miss_tol_m):
    """Each peak in peak order votes for its nearest target (the first on a
    tie) where that target is within the tolerance; a target with a vote
    is detected, with the error of its nearest voting peak (the first in
    peak order on a tie), so one peak detects one target at most.  Returns
    (errors of the detected targets in target order, count of missed
    targets), as analysis._match does for a stack of periodograms."""
    best = {}  # target index: error of its nearest voting peak
    for peak in peaks.peaks:
        err = peak.refined_axis_value * C / 2.0 - true_ranges_m
        j = int(np.argmin(np.abs(err)))
        if abs(err[j]) <= miss_tol_m and (j not in best or abs(err[j]) < abs(best[j])):
            best[j] = float(err[j])
    return [best[j] for j in sorted(best)], len(true_ranges_m) - len(best)


# ---------------------------------------------------------------------------
# hole filling


def per_trial_member(n, n_active, n_trials, seed):
    """Per-trial draw: one child seed per trial, and `choice` of the
    n_active-2 interior indices next to the pinned 0 and N-1."""
    member = np.zeros((n, n_trials), dtype=bool)
    member[[0, n - 1]] = True
    interior = np.arange(1, n - 1)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        member[np.random.default_rng(child).choice(interior, n_active - 2, replace=False), t] = True
    return member


def fft_filled(member):
    """Fill test: lag s of column t is filled when its pair count, an FFT
    autocorrelation of the column, is nonzero."""
    n = member.shape[0]
    f = np.fft.rfft(member.astype(float), n=2 * n, axis=0)
    return np.rint(np.fft.irfft(f * np.conj(f), n=2 * n, axis=0)[1:n]) > 0.5


# ---------------------------------------------------------------------------
# artifacts


def write_csv_rows(path, header, rows, comment=None) -> None:
    """The row-at-a-time csv.writer format that `_write_csv` reproduces
    column by column: an optional `# comment` line, a header row, then the
    rows, with every float at .12g and any other cell left to csv.writer."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{x:.12g}" if isinstance(x, float) else x for x in row] for row in rows)
