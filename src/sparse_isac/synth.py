"""Frequency-domain received grid synthesis with calibrated noise.

Works directly at the post-FFT per-resource-element level: each active
cell (m, n) receives the coherent sum of target phasors plus circularly
symmetric complex Gaussian noise.  Inactive cells are structural zeros,
never noisy measurements, so estimators see noise only where something
was actually observed.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .alloc import OfdmParams, ResourceAllocation, _write_csv
from .scene import Scene, delay_doppler

__all__ = ["FreqGrid", "synthesize", "measure_snr"]


@dataclass(frozen=True)
class FreqGrid:
    """Received samples on the time-frequency grid, zeros off the allocation."""

    samples: np.ndarray  # complex (n_symbols, n_subcarriers)
    alloc: ResourceAllocation
    params: OfdmParams
    noise_variance: float
    seed_ss: np.random.SeedSequence | None = None

    def __post_init__(self):
        m, n = self.samples.shape
        if m != self.params.n_symbols or n != self.params.n_subcarriers:
            raise ValueError(
                f"grid shape {self.samples.shape} does not match params "
                f"({self.params.n_symbols}, {self.params.n_subcarriers})"
            )
        self.samples.setflags(write=False)

    @property
    def n_symbols(self) -> int:
        return self.samples.shape[0]

    @property
    def n_subcarriers(self) -> int:
        return self.samples.shape[1]

    def dump_csv(self, path) -> None:
        """Active resource elements only, columns m, n, re, im."""
        rows = (
            (m, n, v.real, v.imag)
            for m, idx in enumerate(self.alloc.per_symbol_indices)
            for n, v in zip(idx.tolist(), self.samples[m, idx].tolist())
        )
        _write_csv(path, ["m", "n", "re", "im"], rows)


def _resolve_phases(scene: Scene, phase_rng: np.random.Generator) -> np.ndarray:
    """Per-target phases; draws happen in target order regardless of which
    targets carry explicit phases, so draws are stable under edits."""
    phases = np.empty(scene.n_targets)
    for i, t in enumerate(scene.targets):
        draw = phase_rng.uniform(0.0, 2.0 * math.pi)
        phases[i] = t.phase_rad if t.phase_rad is not None else draw
    return phases


def _signal_grid(scene: Scene, params, phases) -> np.ndarray:
    m_idx = np.arange(params.n_symbols)
    n_idx = np.arange(params.n_subcarriers)
    grid = np.zeros((params.n_symbols, params.n_subcarriers), dtype=np.complex128)
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
        grid += amp * np.exp(1j * phi) * np.outer(sym_phase, sub_phase)
    return grid


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
    """
    if alloc.n_symbols != params.n_symbols or alloc.n_subcarriers != params.n_subcarriers:
        raise ValueError("allocation dimensions do not match params")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # children derived by key, not by spawn(), so resynthesizing from the
    # stored SeedSequence (noiseless twin) reproduces the phase draws
    phase_ss = np.random.SeedSequence(entropy=ss.entropy, spawn_key=ss.spawn_key + (0,))
    noise_ss = np.random.SeedSequence(entropy=ss.entropy, spawn_key=ss.spawn_key + (1,))
    phases = _resolve_phases(scene, np.random.default_rng(phase_ss))
    grid = _signal_grid(scene, params, phases)
    mask = alloc.mask()
    grid[~mask] = 0.0

    var = scene.noise_variance()
    if var > 0.0:
        rng = np.random.default_rng(noise_ss)
        shape = grid.shape
        sigma = math.sqrt(var / 2.0)
        noise = rng.normal(0.0, sigma, shape) + 1j * rng.normal(0.0, sigma, shape)
        grid[mask] += noise[mask]
    return FreqGrid(
        samples=grid,
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
    mask = grid.alloc.mask()
    sig_power = float(np.mean(np.abs(twin.samples[mask]) ** 2))
    return 10.0 * math.log10(sig_power / grid.noise_variance)
