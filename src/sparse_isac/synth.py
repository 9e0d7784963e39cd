"""Frequency-domain received grid synthesis with calibrated noise.

Works directly at the post-FFT per-resource-element level: each active
cell (m, n) receives the coherent sum of target phasors plus circularly
symmetric complex Gaussian noise.  Inactive cells are structural zeros,
never noisy measurements, so estimators see noise only where something
was actually observed.  A grid stores only its active cells, laid out
by its allocation; the dense (M, N) array is built on request.

A grid read only through its symbol sum sum_m Y_m[n] (the zero-fill
periodogram and the ML search) can be synthesized as that sum directly:
one value per active subcarrier, with the signal summed in closed form
and the noise drawn with the summed variance.  Such a summed grid has no
per-symbol values, and every per-symbol reader refuses it.

A per-cell grid also carries its CPI power sum_m |FFT_2N(Y_m)|^2
(`FreqGrid.cpi_power`), which both per-symbol estimators read: computed
on first read, over blocks of symbols split across the usable CPUs.
"""
from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .alloc import OfdmParams, ResourceAllocation, _write_csv
from .scene import Scene, delay_doppler

__all__ = ["FreqGrid", "synthesize", "measure_snr"]

# Symbols per block B when _cpi_power walks the CPI.  Each of its threads
# has one workspace of 2 * B * 2N complex values: 4 MB at N = 1000.
_ROW_BLOCK = 64

# Fewest transform points (symbols x 2N) per _cpi_power thread.  Two threads
# against one on a 2-core x86-64 KVM guest (NumPy 2.4.6, median of 41
# alternating calls, three rounds): at up to 1.9e5 points per thread the
# second saved no wall time (ratio 0.92-1.07) for 29-61% more CPU; from
# 2.6e5 up it saved 11-36% for 13-41% more.  The minimum sits one doubling
# above that crossover, since the ratios moved by up to 0.16 between rounds.
_MIN_POINTS_PER_THREAD = 1 << 19


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class FreqGrid:
    """Received samples on the active cells of the time-frequency grid.

    A per-cell grid holds in `active` one complex value per active cell,
    in the cell layout of `alloc`, whose `cols` and `starts` it reads.  For
    a constant allocation `block` is the (M, K) active block.  Inactive
    cells are zeros by construction and are not stored.

    A summed grid (`symbol_sum=True`) holds in `active` the symbol sum
    sum_m Y_m[n] of each active column n, in ascending subcarrier order
    (`np.flatnonzero(alloc.column_counts())`).  It has no per-cell layout:
    `block`, `cols`, `starts` and `row` raise ValueError, and `samples` is
    the (1, N) zero-filled symbol sum.
    """

    active: np.ndarray  # complex, one value per active cell (or active column)
    alloc: ResourceAllocation
    params: OfdmParams
    noise_variance: float
    seed_ss: np.random.SeedSequence | None = None
    symbol_sum: bool = False

    def __post_init__(self):
        shape = (self.alloc.n_symbols, self.alloc.n_subcarriers)
        if shape != (self.params.n_symbols, self.params.n_subcarriers):
            raise ValueError(
                f"allocation shape {shape} does not match params "
                f"({self.params.n_symbols}, {self.params.n_subcarriers})"
            )
        if self.symbol_sum:
            n_values, what = int(np.count_nonzero(self.alloc.column_counts())), "columns"
        else:
            n_values, what = int(self.alloc.starts[-1]), "cells"
        if self.active.shape != (n_values,):
            raise ValueError(
                f"active values of shape {self.active.shape} do not match the "
                f"allocation's {n_values} active {what}"
            )
        self.active.setflags(write=False)

    def _per_cell(self) -> None:
        """Raise ValueError if the grid holds only its symbol sum."""
        if self.symbol_sum:
            raise ValueError("grid holds only its symbol sum, not per-symbol values")

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
        self._per_cell()
        return self.active.reshape(self.n_symbols, self.alloc.n_active)

    @property
    def cols(self) -> np.ndarray:
        """Subcarrier index of each entry of `active`."""
        self._per_cell()
        return self.alloc.cols

    @property
    def starts(self) -> np.ndarray:
        """Offset in `active` of each symbol's first value."""
        self._per_cell()
        return self.alloc.starts[:-1]

    def row(self, m: int) -> np.ndarray:
        """Dense row m of `samples`, a new (N,) array built from that
        symbol's active values only."""
        m = range(self.n_symbols)[m]  # negative m counts from the end
        lo, hi = self.alloc.starts[m : m + 2]
        out = np.zeros(self.n_subcarriers, dtype=self.active.dtype)
        out[self.cols[lo:hi]] = self.active[lo:hi]
        return out

    @property
    def samples(self) -> np.ndarray:
        """Dense read-only grid, zeros off the allocation: (M, N), or (1, N)
        for a summed grid.  Built anew on each access, so keep the result
        rather than reading it twice."""
        if self.symbol_sum:
            out = np.zeros((1, self.n_subcarriers), dtype=self.active.dtype)
            out[0, np.flatnonzero(self.alloc.column_counts())] = self.active
        else:
            out = np.zeros((self.n_symbols, self.n_subcarriers), dtype=self.active.dtype)
            out[self.alloc.mask()] = self.active
        out.setflags(write=False)
        return out

    @property
    def cpi_power(self) -> np.ndarray:
        """sum_m |FFT_2N(Y_m)|^2, read-only, computed by _cpi_power on the
        first read and kept for the life of the grid.  Raises ValueError on
        a summed grid.

        Not functools.cached_property: before Python 3.12 its lock is one
        for all instances, so sweep threads would wait on each other's
        grids.  Two threads reading a new grid at once both compute the same
        value.
        """
        power = self.__dict__.get("_cpi_power")
        if power is None:
            power = _cpi_power(self)
            power.setflags(write=False)
            object.__setattr__(self, "_cpi_power", power)  # frozen: no field, not compared
        return power

    def dump_csv(self, path) -> None:
        """Active resource elements only, columns m, n, re, im."""
        cols, values = self.cols, self.active
        _write_csv(path, ["m", "n", "re", "im"], [self.alloc.rows, cols, values.real, values.imag])


def _cpi_threads(n_blocks: int, points: int) -> int:
    """Threads for _cpi_power: at most one per usable CPU and per block,
    each with at least _MIN_POINTS_PER_THREAD of the `points` to transform."""
    threads = min(n_blocks, points // _MIN_POINTS_PER_THREAD) if _MIN_POINTS_PER_THREAD else n_blocks
    return min(threads, _usable_cpus()) if threads > 1 else 1


def _block_powers(grid: FreqGrid, claim, work: np.ndarray, power: np.ndarray) -> None:
    """Until claim() returns None, write sum_{m in block b} |FFT_2N(Y_m)|^2
    into power[b] for the block b = claim(), in the (2, B, 2N) workspace
    `work`.

    Each block's rows are scattered from the active values into the
    zero-padded front half of `work` (a per-symbol allocation zeroes them
    first; a constant one rewrites the same columns) and forward-transformed
    into its back half with `out=`.
    """
    n_symbols, n = grid.n_symbols, grid.n_subcarriers
    rows, out = work
    if grid.alloc.is_constant:
        block, cols = grid.block, grid.alloc.indices
    else:
        cols, starts, cell_rows = grid.cols, grid.alloc.starts, grid.alloc.rows
    while (b := claim()) is not None:
        r0 = b * _ROW_BLOCK
        k = min(_ROW_BLOCK, n_symbols - r0)
        if grid.alloc.is_constant:
            rows[:k, cols] = block[r0 : r0 + k]
        else:
            lo, hi = starts[r0], starts[r0 + k]
            rows[:k, :n] = 0.0
            rows[cell_rows[lo:hi] - r0, cols[lo:hi]] = grid.active[lo:hi]
        # re^2 and im^2 summed over the block's symbols, interleaved by bin
        v = np.fft.fft(rows[:k], axis=-1, out=out[:k]).view(np.float64)
        s = np.einsum("mk,mk->k", v, v)
        np.add(s[0::2], s[1::2], out=power[b])


def _cpi_power(grid: FreqGrid) -> np.ndarray:
    """sum_m |FFT_2N(Y_m)|^2 over the rows Y_m of the dense grid: the
    transform of the CPI lag sums R[s] = sum_m sum_{i-j=s} Y_m[i] conj(Y_m[j]).

    The symbols fall into blocks of _ROW_BLOCK, which W threads
    (_cpi_threads) claim one at a time: the caller and W - 1 helpers of a
    pool made for this call.  Claiming, not a fixed share per thread, lets
    the caller take over the blocks of a helper whose CPU is busy with
    another process.  The caller allocates one (2, B, 2N) workspace per
    thread up front: two (B, 2N) arrays freed together at N = 256, and
    workspaces allocated in the helpers, were page-faulted in again on every
    call.  Each block's power goes into its own row, and the caller adds the
    rows in block order, so the sum has the same bits at any W.  Raises
    ValueError on a summed grid.
    """
    grid._per_cell()
    n_symbols, n = grid.n_symbols, grid.n_subcarriers
    n_blocks = -(-n_symbols // _ROW_BLOCK)
    threads = _cpi_threads(n_blocks, n_symbols * 2 * n)
    work = np.zeros((threads, 2, min(_ROW_BLOCK, n_symbols), 2 * n), dtype=np.complex128)
    block_power = np.empty((n_blocks, 2 * n))
    blocks, lock = iter(range(n_blocks)), threading.Lock()

    def claim():
        with lock:
            return next(blocks, None)

    if threads == 1:
        _block_powers(grid, claim, work[0], block_power)
    else:
        with ThreadPoolExecutor(max_workers=threads - 1) as pool:
            helpers = [pool.submit(_block_powers, grid, claim, w, block_power) for w in work[1:]]
            _block_powers(grid, claim, work[0], block_power)
            for helper in helpers:
                helper.result()
    power = np.zeros(2 * n)
    for row in block_power:
        power += row
    return power


def _resolve_targets(scene: Scene, params: OfdmParams, seed):
    """Split the seed, draw the phases and warn about aliasing targets.

    Returns the grid's SeedSequence, the noise substream's SeedSequence
    and, per target, (A e^{j phi}, tau, f_D).  Phases are drawn in target
    order regardless of which targets carry explicit phases, so draws are
    stable under edits.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # children derived by key, not by spawn(), so resynthesizing from the
    # stored SeedSequence (noiseless twin) reproduces the phase draws
    phase_ss = np.random.SeedSequence(entropy=ss.entropy, spawn_key=ss.spawn_key + (0,))
    noise_ss = np.random.SeedSequence(entropy=ss.entropy, spawn_key=ss.spawn_key + (1,))
    phase_rng = np.random.default_rng(phase_ss)
    terms = []
    for t in scene.targets:
        draw = phase_rng.uniform(0.0, 2.0 * math.pi)
        phi = t.phase_rad if t.phase_rad is not None else draw
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
        terms.append((scene.amplitude_of(t) * np.exp(1j * phi), tau, f_d))
    return ss, noise_ss, terms


def synthesize(
    scene: Scene,
    alloc: ResourceAllocation,
    params: OfdmParams,
    seed=None,
    *,
    symbol_sum: bool = False,
) -> FreqGrid:
    """Generate the received frequency-domain grid for a scene.

    Noise is drawn i.i.d. per active resource element with total complex
    variance from the scene's noise spec, half in each quadrature.  The
    seed feeds two independent substreams (target phases, then noise), so
    the noiseless twin of a grid shares its phase draws.

    With `symbol_sum=True` the grid holds only sum_m Y_m[n] per active
    column n (see FreqGrid).  Per target, the signal there is
    A e^{j phi} S_n e^{-j 2 pi df tau n}, where S_n sums e^{j 2 pi f_D T m}
    over the symbols m in which n is active, and the noise is the sum of
    the column's c_n = column_counts()[n] cell noises, CN(0, c_n * var).

    Noise stream layout: the noise substream gives one standard normal z
    per stored value, in the order of `active`, for the real parts, then
    one per stored value for the imaginary parts.  A cell adds sigma * z
    from each draw, sigma = sqrt(var / 2); a summed column adds
    sqrt(c_n) * sigma * z.  So a per-cell grid takes one normal per active
    cell and quadrature, and a summed grid one per active column.
    """
    if alloc.n_symbols != params.n_symbols or alloc.n_subcarriers != params.n_subcarriers:
        raise ValueError("allocation dimensions do not match params")
    ss, noise_ss, terms = _resolve_targets(scene, params, seed)
    m_idx = np.arange(params.n_symbols)
    n_idx = np.arange(params.n_subcarriers)
    if symbol_sum:
        counts = alloc.column_counts()
        cols = np.flatnonzero(counts)
    elif alloc.is_constant:
        rows, cols = m_idx[:, None], alloc.indices
    else:
        rows, cols = alloc.rows, alloc.cols
    # The in-place product keeps the amplitude as the first operand, because
    # a complex product can round differently with its operands swapped, and
    # the sum starts from 0.0, so a per-cell grid has the floats of a
    # whole-grid sum started from zeros (a -0.0 part becomes +0.0).
    values = 0.0
    for coef, tau, f_d in terms:
        sym_phase = np.exp(2j * np.pi * f_d * params.symbol_dur_s * m_idx)
        sub_phase = np.exp(-2j * np.pi * params.subcarrier_spacing_hz * tau * n_idx)
        if not symbol_sum:
            term = sym_phase[rows] * sub_phase[cols]
        elif alloc.is_constant:  # S_n is one sum over all symbols
            term = sym_phase.sum() * sub_phase[cols]
        else:  # S_n adds the phasors of the symbols in which n is active
            term = np.zeros(params.n_subcarriers, dtype=np.complex128)
            np.add.at(term, alloc.cols, sym_phase[alloc.rows])
            term = term[cols] * sub_phase[cols]
        np.multiply(coef, term, out=term)
        values = np.add(values, term, out=term)
    values = values.ravel()

    var = scene.noise_variance()
    if var > 0.0:
        scale = np.sqrt(counts[cols] * (var / 2.0)) if symbol_sum else math.sqrt(var / 2.0)
        rng = np.random.default_rng(noise_ss)
        for part in (values.real, values.imag):
            z = rng.standard_normal(values.size)
            z *= scale
            part += z
    return FreqGrid(
        active=values,
        alloc=alloc,
        params=params,
        noise_variance=var,
        seed_ss=ss,
        symbol_sum=symbol_sum,
    )


def measure_snr(grid: FreqGrid, scene: Scene) -> float:
    """Empirical per-active-RE SNR of a synthesized per-cell grid, in dB.

    Signal power is measured from the noiseless twin (same seed, so the
    same phase draws), divided by the injected noise variance.  Returns
    +inf for a noiseless grid.  Raises ValueError on a summed grid.
    """
    grid._per_cell()
    if grid.noise_variance == 0.0:
        return math.inf
    quiet = Scene(targets=scene.targets, noise_variance_w=0.0, link=scene.link)
    twin = synthesize(quiet, grid.alloc, grid.params, seed=grid.seed_ss)
    sig_power = float(np.mean(np.abs(twin.active) ** 2))
    return 10.0 * math.log10(sig_power / grid.noise_variance)
