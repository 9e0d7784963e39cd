"""Frequency-domain received grid synthesis with calibrated noise.

Works directly at the post-FFT per-resource-element level: each active
cell (m, n) receives the coherent sum of target phasors plus circularly
symmetric complex Gaussian noise.  Inactive cells are structural zeros,
never noisy measurements, so estimators see noise only where something
was actually observed.  A grid stores only its active cells; the dense
(M, N) array is built on request.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .alloc import OfdmParams, ResourceAllocation, _write_csv
from .scene import Scene, delay_doppler

__all__ = ["FreqGrid", "synthesize", "measure_snr"]

# Rows (OFDM symbols) per block when a grid is processed in row blocks: at
# N = 1000 a block of noise draws is 512 KB and a block of 2N-point
# transforms 2 MB, so either fits a 2 MB per-core L2 cache.
_ROW_BLOCK = 64


@dataclass(frozen=True)
class FreqGrid:
    """Received samples on the active cells of the time-frequency grid.

    `active` holds one complex value per active cell, in row-major order:
    the order of `samples[alloc.mask()]`; `cols` and `starts` give each
    value's subcarrier and each symbol's offset.  For a constant allocation
    `block` is the (M, K) active block.  Inactive cells are zeros by
    construction and are not stored.
    """

    active: np.ndarray  # complex (alloc.cardinalities().sum(),)
    alloc: ResourceAllocation
    params: OfdmParams
    noise_variance: float
    seed_ss: np.random.SeedSequence | None = None

    def __post_init__(self):
        shape = (self.alloc.n_symbols, self.alloc.n_subcarriers)
        if shape != (self.params.n_symbols, self.params.n_subcarriers):
            raise ValueError(
                f"allocation shape {shape} does not match params "
                f"({self.params.n_symbols}, {self.params.n_subcarriers})"
            )
        n_active = int(self.alloc.cardinalities().sum())
        if self.active.shape != (n_active,):
            raise ValueError(
                f"active values of shape {self.active.shape} do not match the "
                f"allocation's {n_active} active cells"
            )
        self.active.setflags(write=False)

    @property
    def n_symbols(self) -> int:
        return self.params.n_symbols

    @property
    def n_subcarriers(self) -> int:
        return self.params.n_subcarriers

    @property
    def block(self) -> np.ndarray:
        """The (M, K) active block, a read-only view of `active`; raises if
        the allocation varies per symbol."""
        return self.active.reshape(self.n_symbols, self.alloc.n_active)

    @property
    def cols(self) -> np.ndarray:
        """Subcarrier index of each entry of `active`."""
        return np.concatenate(self.alloc.per_symbol_indices)

    @property
    def starts(self) -> np.ndarray:
        """Offset in `active` of each symbol's first value."""
        cards = self.alloc.cardinalities()
        return np.cumsum(cards) - cards

    def row(self, m: int) -> np.ndarray:
        """Dense row m of `samples`, a new (N,) array built from that
        symbol's active values only."""
        idx = self.alloc.per_symbol_indices[m]
        start = self.starts[m]
        out = np.zeros(self.n_subcarriers, dtype=self.active.dtype)
        out[idx] = self.active[start : start + idx.size]
        return out

    @property
    def samples(self) -> np.ndarray:
        """Dense read-only (M, N) grid, zeros off the allocation; built anew
        on each access, so keep the result rather than reading it twice."""
        out = np.zeros((self.n_symbols, self.n_subcarriers), dtype=self.active.dtype)
        out[self.alloc.mask()] = self.active
        out.setflags(write=False)
        return out

    def dump_csv(self, path) -> None:
        """Active resource elements only, columns m, n, re, im."""
        rows = np.repeat(np.arange(self.n_symbols), self.alloc.cardinalities())
        values = self.active
        cells = zip(rows.tolist(), self.cols.tolist(), values.real.tolist(), values.imag.tolist())
        _write_csv(path, ["m", "n", "re", "im"], cells)


def _resolve_phases(scene: Scene, phase_rng: np.random.Generator) -> np.ndarray:
    """Per-target phases; draws happen in target order regardless of which
    targets carry explicit phases, so draws are stable under edits."""
    phases = np.empty(scene.n_targets)
    for i, t in enumerate(scene.targets):
        draw = phase_rng.uniform(0.0, 2.0 * math.pi)
        phases[i] = t.phase_rad if t.phase_rad is not None else draw
    return phases


def _active_signal(scene: Scene, params, phases, rows, cols) -> np.ndarray:
    """Sum of the target phasors on the active cells (rows[i], cols[i]),
    flattened in row-major order.

    Each cell gets the same floats as a whole-grid sum started from zeros:
    the sum starts from 0.0 (so a -0.0 part becomes +0.0, as on a zero
    grid), and the in-place product keeps the amplitude as the first
    operand, because a complex product can round differently with its
    operands swapped.
    """
    m_idx = np.arange(params.n_symbols)
    n_idx = np.arange(params.n_subcarriers)
    signal = 0.0
    for t, phi in zip(scene.targets, phases):
        tau, f_d = delay_doppler(t, params)
        if tau > params.symbol_core_s:
            warnings.warn(
                f"target at {t.distance_m} m has delay {tau:.3e} s beyond the "
                f"unambiguous span {params.symbol_core_s:.3e} s; it will alias",
                stacklevel=3,
            )
        if abs(f_d) > 0.5 / params.symbol_dur_s:
            warnings.warn(
                f"target Doppler {f_d:.3e} Hz beyond the unambiguous span "
                f"+/-{0.5 / params.symbol_dur_s:.3e} Hz; it will alias",
                stacklevel=3,
            )
        amp = scene.amplitude_of(t)
        sym_phase = np.exp(2j * np.pi * f_d * params.symbol_dur_s * m_idx)
        sub_phase = np.exp(-2j * np.pi * params.subcarrier_spacing_hz * tau * n_idx)
        term = sym_phase[rows] * sub_phase[cols]
        np.multiply(amp * np.exp(1j * phi), term, out=term)
        signal = np.add(signal, term, out=term)
    return signal.ravel()


def synthesize(
    scene: Scene,
    alloc: ResourceAllocation,
    params: OfdmParams,
    seed=None,
) -> FreqGrid:
    """Generate the received frequency-domain grid for a scene.

    Noise is drawn i.i.d. per active resource element with total complex
    variance from the scene's noise spec, half in each quadrature.  The
    seed feeds two independent substreams (target phases, then noise), so
    the noiseless twin of a grid shares its phase draws.

    Noise stream layout: the noise substream gives one standard normal z
    per cell of the full (M, N) grid, in row-major order, for the real
    parts, then one per cell for the imaginary parts, and cell (m, n) adds
    sigma * z from each.  That is the stream of two full-grid
    normal(0, sigma, (M, N)) draws.  Inactive cells consume their draws and
    keep none.  The draws go _ROW_BLOCK rows at a time into one reused
    buffer.  The signal is evaluated, and the grid stored, on the active
    cells only.
    """
    if alloc.n_symbols != params.n_symbols or alloc.n_subcarriers != params.n_subcarriers:
        raise ValueError("allocation dimensions do not match params")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # children derived by key, not by spawn(), so resynthesizing from the
    # stored SeedSequence (noiseless twin) reproduces the phase draws
    phase_ss = np.random.SeedSequence(entropy=ss.entropy, spawn_key=ss.spawn_key + (0,))
    noise_ss = np.random.SeedSequence(entropy=ss.entropy, spawn_key=ss.spawn_key + (1,))
    phases = _resolve_phases(scene, np.random.default_rng(phase_ss))
    n_sym, n_sub = params.n_symbols, params.n_subcarriers
    if alloc.is_constant:
        rows, cols = np.arange(n_sym)[:, None], alloc.indices
    else:
        rows, cols = np.nonzero(alloc.mask())
    values = _active_signal(scene, params, phases, rows, cols)

    var = scene.noise_variance()
    if var > 0.0:
        flat = (rows * n_sub + cols).ravel()  # ascending: row-major cell order
        rng = np.random.default_rng(noise_ss)
        sigma = math.sqrt(var / 2.0)
        block = min(_ROW_BLOCK, n_sym)
        buf = np.empty((block, n_sub))
        offset = ((rows % block) * n_sub + cols).ravel()  # position in its block
        edges = np.searchsorted(flat, np.arange(0, n_sym + block, block) * n_sub)
        for part in (values.real, values.imag):
            for r0, lo, hi in zip(range(0, n_sym, block), edges[:-1], edges[1:]):
                rng.standard_normal(out=buf[: min(block, n_sym - r0)])
                z = buf.take(offset[lo:hi])
                z *= sigma
                part[lo:hi] += z
    return FreqGrid(
        active=values,
        alloc=alloc,
        params=params,
        noise_variance=var,
        seed_ss=ss,
    )


def measure_snr(grid: FreqGrid, scene: Scene) -> float:
    """Empirical per-active-RE SNR of a synthesized grid, in dB.

    Signal power is measured from the noiseless twin (same seed, so the
    same phase draws), divided by the injected noise variance.  Returns
    +inf for a noiseless grid.
    """
    if grid.noise_variance == 0.0:
        return math.inf
    quiet = Scene(targets=scene.targets, noise_variance_w=0.0, link=scene.link)
    twin = synthesize(quiet, grid.alloc, grid.params, seed=grid.seed_ss)
    sig_power = float(np.mean(np.abs(twin.active) ** 2))
    return 10.0 * math.log10(sig_power / grid.noise_variance)
