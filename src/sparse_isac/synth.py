"""Frequency-domain received grid synthesis with calibrated noise.

Works directly at the post-FFT per-resource-element level: each active
cell (m, n) receives the coherent sum of target phasors plus circularly
symmetric complex Gaussian noise.  Inactive cells are structural zeros,
never noisy measurements, so estimators see noise only where something
was actually observed.  A grid stores only its active cells, laid out
by its allocation; the dense (M, N) array is built on request.

A grid also carries the CPI mean of its lag sums (`FreqGrid.cpi_lags`),
which both per-symbol estimators read, computed on first read by one of
two routes:

- the Gram route: the lag sums of the K x K Gram matrix of the active
  block, read from one real rank-2K update (dsyrk) of its interleaved
  re/im parts, run at one BLAS thread;
- the FFT route, the reference: one transform of length 2N per symbol,
  over blocks of 64 symbols, in the caller's thread, and one inverse
  transform of the power sum.

One cost model picks the route: the read gate (_gram_read) puts the lag
sums of a grid of a constant allocation on the Gram route where its read
costs less there, K^2 (M + _GRAM_READ_ROWS) at most _GRAM_READ_RATIO x
M 2N log2 2N.  A grid read on either route has the same values to
round-off (about 5e-16 of the peak).

While a Gram-route product runs, the BLAS thread count is held at 1
(_one_blas_thread), so its bits do not depend on the caller's count
(OpenBLAS 0.3.31's threaded dsyrk gave other bits at 2 to 4 threads for K
of 50, 150, 229 or 250) and no idle BLAS workers spin against a sweep's
SNR-point threads.  That count is process-wide: a caller's own BLAS work
in another thread also runs at one thread meanwhile.  Where no OpenBLAS
thread control is found (_openblas), the product runs at the caller's
count.  The product and its re/im planes are written into one workspace
per thread (_gram_workspace), 6 K^2 float64 held while K stays the same:
1.9 MB at K = 200, 10 MB at the read gate's K = 458 for N = 1000,
M = 720.  A sweep's SNR-point threads free theirs when the sweep ends; the
caller's thread keeps its own.

A sweep or demo trial reads two statistics of a grid only: its symbol sum
and the Gram matrix of its rows.  It takes them from one of two draws:
synthesize, the reference, or _gram_statistics, without the grid (the
Bartlett decomposition): d + min(M - d, K) rows of K values, d <= 1 + T
the dimension of the targets' symbol-phase profiles with the all-ones
vector.  A slot a virtual method reads draws the statistics where the
read gate picks the Gram route and the draw is shorter than the grid
(_gram_route: M > K + 1 + T for T targets); a slot that zero-fill alone
reads draws its symbol sum alone, in one row (lags=False).  A draw keeps
synthesize's phases, with other noise draws.  A grid and a drawn
_GridStatistics are read the same way, through `symbol_sum` and
`cpi_lags`, and _gram_lags is the one reader of a Gram block's lag means.

Every draw reads one table of what does not depend on the seed
(_SignalTable), built once per sweep or demo point, where aliasing targets
warn, and kept with the unit signals of its fixed allocations.  A draw
takes its phase, noise and Bartlett-factor Generators (_SlotStreams), each
on a child of a SeedSequence by key (_streams), draws the phases, scales
the units and adds the noise.  synthesize and _gram_statistics open theirs
per call from their seed.  A sweep or demo point opens a slot's once and
draws its trials from them in trial order (analysis._trials): a point's
first n trials are those of an n-trial run, and a trial is drawn only
after the trials before it.
"""
from __future__ import annotations

import ctypes
import functools
import math
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .alloc import OfdmParams, ResourceAllocation, _check_fits, _check_number, _pair_lags
from .scene import Scene, delay_doppler

__all__ = ["FreqGrid", "synthesize", "measure_snr"]

# Symbols per block B when _fft_lags walks the CPI: its one workspace holds
# 2 * B * 2N complex values, 4 MB at N = 1000.
_ROW_BLOCK = 64

# The read gate (_gram_read): the Gram route reads the lag sums where
# K^2 (M + _GRAM_READ_ROWS) <= _GRAM_READ_RATIO x M 2N log2 2N.  Its cost
# grows as K^2 per row of the block, plus K^2 per call (the re/im slices and
# the two bincounts), which _GRAM_READ_ROWS counts in rows; the FFT route's
# grows as 2N log2 2N per symbol.  Fitted to the crossovers of _gram_lags'
# wall time over _fft_lags' (one BLAS thread, best of 5 timed loops, 2-core
# x86-64 guest, NumPy 2.4 with OpenBLAS 0.3.31):
# - N=256, K=64: 1.05, 1.03, 0.87, 0.80, 0.42 and 0.40 at M = 12, 16, 20,
#   24, 32 and 128;
# - N=1000, K=200: 2.72, 1.62, 1.07, 0.78 and 0.50 at M = 8, 16, 24, 32, 64;
#   K=400: 2.16, 1.26 and 0.99 at M = 64, 128 and 256;
# - N=1000, M=720: 0.37, 0.62, 0.75, 0.84 and 1.41 at K = 300, 400, 430,
#   460 and 500;
# - N=256, M=1024: 0.39, 0.82, 0.81 and 1.10 at K = 128, 200, 220 and 256;
# - N=4000, M=131: 0.49 and 1.14 at K = 500 and 700.
# So at N=256, K=64 a grid of 19 symbols or more (the desk grid: M=32) reads
# on the Gram route and one of 18 or fewer on the FFT route, and at N=1000,
# M=720 the Gram route reads up to K = 458.
_GRAM_READ_ROWS = 256
_GRAM_READ_RATIO = 13

# A target's symbol-phase profile adds a dimension to the basis of
# _symbol_basis where the part of it outside the span of the vectors before
# it has a norm above this share of its own norm, sqrt(M).  Gram-Schmidt
# leaves a profile inside that span a residual of a few float64 epsilons.
_SPAN_TOL = 1e-12


@dataclass(frozen=True)
class FreqGrid:
    """Received samples on the active cells of the time-frequency grid.

    `active` holds one complex value per active cell, in the cell layout of
    `alloc` (`alloc.cols`, `alloc.starts`).  For a constant allocation
    `block` is the (M, K) active block.  Inactive cells are zeros by
    construction and are not stored.
    """

    active: np.ndarray  # complex, one value per active cell
    alloc: ResourceAllocation
    params: OfdmParams
    noise_variance: float
    seed_ss: np.random.SeedSequence | None = None

    def __post_init__(self):
        _check_fits(self.alloc, self.params)
        _check_number("noise_variance", self.noise_variance, minimum=0)
        n_cells = int(self.alloc.starts[-1])
        if self.active.shape != (n_cells,):
            raise ValueError(
                f"active values of shape {self.active.shape} do not match the "
                f"allocation's {n_cells} active cells"
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
    def samples(self) -> np.ndarray:
        """Dense read-only (M, N) grid, zeros off the allocation.  Built anew
        on each access, so keep the result rather than reading it twice."""
        out = np.zeros((self.n_symbols, self.n_subcarriers), dtype=self.active.dtype)
        out[self.alloc.mask()] = self.active
        out.setflags(write=False)
        return out

    @property
    def symbol_sum(self) -> np.ndarray:
        """sum_m Y_m[n] as a dense (N,) row, zeros where no cell is active:
        each column adds its active values in symbol order, as the symbol sum
        of the dense grid does (its inactive cells add +0.0)."""
        out = np.zeros(self.n_subcarriers, dtype=np.complex128)
        if self.alloc.is_constant:
            out[self.alloc.indices] = self.block.sum(axis=0)
        else:
            np.add.at(out, self.alloc.cols, self.active)
        return out

    @property
    def cpi_lags(self) -> np.ndarray:
        """The complex (2N,) CPI mean of the lag sums at s mod 2N, read-only,
        computed by _cpi_lags on the first read and kept for the life of
        the grid.

        On the Gram route (a constant allocation past the read gate,
        _gram_read) it agrees with the FFT route to about 5e-16 of its
        peak, and its one BLAS product runs at one BLAS thread: see the
        module docstring.

        Not functools.cached_property: before Python 3.12 its lock is one
        for all instances, so sweep threads would wait on each other's
        grids.  Two threads reading a new grid at once both compute the same
        value.
        """
        lags = self.__dict__.get("_cpi_lags")
        if lags is None:
            lags = _cpi_lags(self)
            lags.setflags(write=False)
            object.__setattr__(self, "_cpi_lags", lags)  # frozen: no field, not compared
        return lags


def _gram_read(alloc: ResourceAllocation) -> bool:
    """Whether _cpi_lags reads the lag sums of a grid on `alloc` on the Gram
    route: a constant allocation of M symbols and K active subcarriers with
    K^2 (M + _GRAM_READ_ROWS) at most _GRAM_READ_RATIO x M 2N log2 2N."""
    m, size = alloc.n_symbols, 2 * alloc.n_subcarriers
    return alloc.is_constant and (
        alloc.n_active**2 * (m + _GRAM_READ_ROWS) <= _GRAM_READ_RATIO * m * size * math.log2(size)
    )


def _gram_route(alloc: ResourceAllocation, scene: Scene) -> bool:
    """Whether a sweep or demo trial draws the statistics of a virtual slot
    on `alloc` (_gram_statistics) instead of its grid: where the read gate
    puts its lag sums on the Gram route and the drawn block, at most K + 1 +
    T rows for the T targets of `scene`, is shorter than the grid's M."""
    return _gram_read(alloc) and alloc.n_symbols > alloc.n_active + 1 + len(scene.targets)


@functools.cache
def _openblas():
    """NumPy's bundled OpenBLAS (scipy-openblas, in the wheel's numpy.libs
    or .dylibs folder) as a ctypes library whose thread-count functions
    scipy_openblas_get_num_threads64_ and scipy_openblas_set_num_threads64_
    are typed, or None where no such library has both.

    The library is already loaded, so this opens the same copy NumPy calls.
    Finding the BLAS library and calling its own thread-count symbols is
    threadpoolctl's technique (https://github.com/joblib/threadpoolctl).
    """
    here = Path(np.__file__).parent
    bundled = [*here.parent.glob("numpy.libs/*scipy_openblas*"), *here.glob(".dylibs/*scipy_openblas*")]
    for path in sorted(bundled):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return lib
    return None


class _OneBlasThread:
    """Context that holds the BLAS thread count at 1 while any thread is
    inside it.

    The first of its concurrent users saves the caller's count and sets 1;
    the last to leave restores the saved count, also on an exception, so
    SNR-point threads that enter and leave in any order cannot leave it at
    1.  The count is process-wide: meanwhile every thread's BLAS calls run
    at one thread.  Where _openblas finds no library, it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._users = 0
        self._saved = 1

    def __enter__(self):
        lib = _openblas()
        if lib is not None:
            with self._lock:
                if self._users == 0:
                    self._saved = lib.scipy_openblas_get_num_threads64_()
                    lib.scipy_openblas_set_num_threads64_(1)
                self._users += 1

    def __exit__(self, *exc_info):
        lib = _openblas()
        if lib is not None:
            with self._lock:
                self._users -= 1
                if self._users == 0:
                    lib.scipy_openblas_set_num_threads64_(self._saved)


_one_blas_thread = _OneBlasThread()


_workspace = threading.local()


def _gram_workspace(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's S (2K, 2K) and re, im (K, K) planes for _gram_lags:
    views of one float64 buffer of 6 K^2 values, kept per thread and
    replaced when K changes."""
    planes = getattr(_workspace, "planes", None)
    if planes is None or planes[1].shape[0] != k:
        buf, kk = np.empty(6 * k * k), k * k
        planes = (
            buf[: 4 * kk].reshape(2 * k, 2 * k),
            buf[4 * kk : 5 * kk].reshape(k, k),
            buf[5 * kk :].reshape(k, k),
        )
        _workspace.planes = planes
    return planes


def _gram_lags(block: np.ndarray, alloc: ResourceAllocation) -> np.ndarray:
    """The CPI mean R / M of the lag sums R of the K x K Gram matrix G =
    sum_i z_i z_i^H of the rows z_i of a (rows, K) block on the active
    subcarriers n_a of the constant allocation `alloc` (M symbols, N
    subcarriers): R[s] is the sum of the G[a, b] with n_a - n_b = s mod 2N.

    G is read from one real product S = W^T W of the (rows, 2K) float view W
    of the block, re and im interleaved, which NumPy hands to dsyrk: 4 K^2
    flops per row against 8 K^2 for a zgemm.  With z = x + i y, Re G[a, b] =
    x_a.x_b + y_a.y_b and Im G[a, b] = y_a.x_b - x_a.y_b.  The product runs
    at one BLAS thread (_one_blas_thread) into this thread's workspace
    (_gram_workspace), as the module docstring says.  The result is a new
    array: no view of the workspace is returned or kept.

    Each G[a, b] is summed at its linear lag n_a - n_b + N - 1 (_pair_lags),
    one bin per s mod 2N, and the bins are rolled by 1 - N into that layout:
    bins N - 1 .. 2N - 1 to the front, as np.roll does, without its
    overhead.
    """
    # a copy only where the block is not C-ordered complex128
    w = np.asanyarray(block, dtype=np.complex128, order="C").view(np.float64)
    s, re, im = _gram_workspace(alloc.n_active)
    with _one_blas_thread:
        np.matmul(w.T, w, out=s)
    np.add(s[0::2, 0::2], s[1::2, 1::2], out=re)
    np.subtract(s[1::2, 0::2], s[0::2, 1::2], out=im)
    n, lag = alloc.n_subcarriers, _pair_lags(alloc)
    sums = np.bincount(lag, re.ravel(), 2 * n) + 1j * np.bincount(lag, im.ravel(), 2 * n)
    return np.concatenate((sums[n - 1 :], sums[: n - 1])) / alloc.n_symbols


def _fft_lags(grid: FreqGrid) -> np.ndarray:
    """IFFT_2N((1/M) sum_m |FFT_2N(Y_m)|^2), one transform of length 2N per symbol.

    The symbols go through in blocks of _ROW_BLOCK, in one (2, B, 2N)
    workspace.  Each block's rows are scattered from the active values into
    the zero-padded front half (a per-symbol allocation zeroes them first; a
    constant one rewrites the same columns) and forward-transformed into the
    back half with `out=`, and the block's power is added to one running sum
    in symbol order.
    """
    n_symbols, n = grid.n_symbols, grid.n_subcarriers
    rows, out = np.zeros((2, min(_ROW_BLOCK, n_symbols), 2 * n), dtype=np.complex128)
    if grid.alloc.is_constant:
        block, cols = grid.block, grid.alloc.indices
    else:
        cols, starts, cell_rows = grid.alloc.cols, grid.alloc.starts, grid.alloc.rows
    power = np.zeros(2 * n)
    for r0 in range(0, n_symbols, _ROW_BLOCK):
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
        power += s[0::2] + s[1::2]
    return np.fft.ifft(power / n_symbols)


def _cpi_lags(grid: FreqGrid) -> np.ndarray:
    """The CPI lag sums R[s] = sum_m sum_{i-j=s} Y_m[i] conj(Y_m[j]) over
    the rows Y_m of the dense grid, divided by M, at s mod 2N.

    By the Gram route (_gram_lags of the (M, K) block) where the read gate
    _gram_read puts the grid's allocation, else by the FFT route (_fft_lags).
    """
    if _gram_read(grid.alloc):
        return _gram_lags(grid.block, grid.alloc)
    return _fft_lags(grid)


def _symbol_phase(f_d: float, params: OfdmParams) -> np.ndarray:
    """A target's symbol-phase profile e^{j 2 pi f_D T m} over the M symbols."""
    return np.exp(2j * np.pi * f_d * params.symbol_dur_s * np.arange(params.n_symbols))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _SlotStreams(NamedTuple):
    """The Generators a draw reads (_streams): the phases, the noise and
    the Bartlett factor of _gram_statistics, or None where the draw reads
    none from it.  A draw takes its numbers from where the draws before it
    left each Generator."""

    phase: np.random.Generator
    noise: np.random.Generator | None
    factor: np.random.Generator | None


def _child_rng(ss: np.random.SeedSequence, key: tuple) -> np.random.Generator:
    """A Generator on the child of `ss` by spawn key + `key`, not by
    spawn(), so it does not depend on the children `ss` has spawned, and a
    resynthesis from a stored SeedSequence (the noiseless twin of
    measure_snr) reproduces the phase draws."""
    return np.random.default_rng(np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + key))


def _streams(ss: np.random.SeedSequence, count: int, key: tuple = ()) -> _SlotStreams:
    """_SlotStreams whose Generator j, for j < `count`, is on the child of
    `ss` by key + (j,) (_child_rng), and None past `count`."""
    return _SlotStreams(*(_child_rng(ss, key + (j,)) if j < count else None for j in range(3)))


class _SignalTable:
    """The seed-independent part of every draw of the targets of `scene` on
    the grid of `params`, built once per sweep or demo point (_trials) and
    once per call of synthesize or _gram_statistics.  Per target: A, its
    explicit phase (None where the draw picks it), sym_phase[m] = e^{j 2 pi
    f_D T m} and sub_phase[n] = e^{-j 2 pi df tau n}.  Building it warns
    once per aliasing target and kind, blamed `stacklevel` frames up (2:
    the line that builds it).  It keeps, read-only, the projections Q^H p
    of the profiles on the basis of _symbol_basis, per `lags`, and the unit
    signals of the draws on the allocations in `fixed` (_units).
    """

    def __init__(self, scene: Scene, params: OfdmParams, fixed=(), stacklevel: int = 2):
        self.scene, self.params, self.var = scene, params, scene.noise_variance()
        self._fixed = {id(a): a for a in fixed}  # held, so their ids stay theirs
        self._kept, self._projections = {}, {}
        n_idx = np.arange(params.n_subcarriers)
        targets = []
        for t in scene.targets:
            tau, f_d = delay_doppler(t, params)
            if tau > params.symbol_core_s:
                warnings.warn(
                    f"target at {t.distance_m} m has delay {tau:.3e} s beyond the "
                    f"unambiguous span {params.symbol_core_s:.3e} s; it will alias",
                    stacklevel=stacklevel,
                )
            if abs(f_d) > 0.5 / params.symbol_dur_s:
                warnings.warn(
                    f"target Doppler {f_d:.3e} Hz beyond the unambiguous span "
                    f"+/-{0.5 / params.symbol_dur_s:.3e} Hz; it will alias",
                    stacklevel=stacklevel,
                )
            sym_phase = _read_only(_symbol_phase(f_d, params))
            sub_phase = _read_only(np.exp(-2j * np.pi * params.subcarrier_spacing_hz * tau * n_idx))
            targets.append((scene.amplitude_of(t), t.phase_rad, sym_phase, sub_phase))
        self.targets = tuple(targets)

    def _units(self, alloc: ResourceAllocation, lags: bool | None) -> list[np.ndarray]:
        """Per target, its unit signal on `alloc`: sym_phase[rows] *
        sub_phase[cols] for a grid (lags None), the rows np.outer(Q^H p,
        sub_phase[cols]) for a statistics draw.  New arrays, or for an
        allocation in `fixed` the ones kept on the first call."""
        key = (id(alloc), lags)
        if key in self._kept:
            return self._kept[key]
        if lags is None:
            if alloc.is_constant:
                rows, cols = np.arange(self.params.n_symbols)[:, None], alloc.indices
            else:
                rows, cols = alloc.rows, alloc.cols
            units = [sym[rows] * sub[cols] for _, _, sym, sub in self.targets]
        else:
            cols = alloc.indices  # raises if the allocation varies per symbol
            if lags not in self._projections:
                basis = _symbol_basis(self.scene.targets if lags else (), self.params)
                proj = [(basis.conj() * sym).sum(axis=1) for _, _, sym, _ in self.targets]
                self._projections[lags] = [_read_only(q) for q in proj]
            units = [np.outer(p, t[3][cols]) for p, t in zip(self._projections[lags], self.targets)]
        if key[0] in self._fixed:
            self._kept[key] = [_read_only(u) for u in units]
        return units

    def _draw(self, streams: _SlotStreams, units: list[np.ndarray]) -> np.ndarray:
        """A new complex array of the values: the phases drawn from
        streams.phase in target order whichever targets carry explicit ones
        (so draws are stable under edits), each unit scaled by A e^{j phi}
        (a kept one, read-only, into a new array) and the terms summed.
        Noise: streams.noise gives one standard normal z per value, in
        order, for the real parts, then one per value for the imaginary
        parts; a value adds sqrt(var / 2) * z from each.  A sweep or demo
        point passes a slot the same streams in every trial (_trials), so
        a trial's draws follow the ones of the trials before it.
        """
        # The product keeps the amplitude as the first operand, because a
        # complex product can round differently with its operands swapped,
        # and the sum starts from 0.0, so a grid has the floats of a
        # whole-grid sum started from zeros (a -0.0 part becomes +0.0).
        values = 0.0
        for (amplitude, phase, _, _), unit in zip(self.targets, units):
            draw = streams.phase.uniform(0.0, 2.0 * math.pi)
            coef = amplitude * np.exp(1j * (phase if phase is not None else draw))
            term = np.multiply(coef, unit, out=unit if unit.flags.writeable else None)
            values = np.add(values, term, out=term)
        values = values.ravel()

        if self.var > 0.0:
            sigma = math.sqrt(self.var / 2.0)
            z = np.empty(values.size)  # one buffer: the same draws as standard_normal(size)
            for part in (values.real, values.imag):
                streams.noise.standard_normal(out=z)
                z *= sigma
                part += z
        return values

    def grid(self, alloc: ResourceAllocation, streams: _SlotStreams, seed_ss=None) -> FreqGrid:
        """The grid on `alloc` drawn from `streams` (_draw), holding
        `seed_ss`, the SeedSequence of the streams where synthesize built
        them, None for a sweep or demo draw."""
        values = self._draw(streams, self._units(alloc, None))
        return FreqGrid(values, alloc, self.params, noise_variance=self.var, seed_ss=seed_ss)

    def statistics(self, alloc: ResourceAllocation, streams: _SlotStreams, lags=True) -> _GridStatistics:
        """The statistics of _gram_statistics on `alloc`, drawn from
        `streams`, its factor from streams.factor."""
        values = self._draw(streams, self._units(alloc, lags))
        var, k = self.var, alloc.n_active
        if var == 0.0 or not lags:
            return _GridStatistics(values.reshape(-1, k), alloc)
        d, m = values.size // k, self.params.n_symbols
        r = min(m - d, k)
        block = np.zeros((d + r, k), dtype=np.complex128)
        block[:d] = values.reshape(d, k)
        factor = block[d:]
        diag, upper = np.arange(r), _upper_mask(r, k)
        z = streams.factor.standard_normal(2 * np.count_nonzero(upper))
        z *= math.sqrt(var / 2.0)
        factor[upper] = z.view(np.complex128)  # re, im of each entry in turn
        factor[diag, diag] = np.sqrt(var * streams.factor.standard_gamma(m - d - diag))
        return _GridStatistics(block, alloc)


def synthesize(scene: Scene, alloc: ResourceAllocation, params: OfdmParams, seed=None) -> FreqGrid:
    """Generate the received frequency-domain grid for a scene.

    Noise is drawn i.i.d. per active resource element with total complex
    variance from the scene's noise spec, half in each quadrature: one
    standard normal per active cell and quadrature, real parts first, in
    the order of `active`.  The seed feeds two independent substreams
    (target phases, then noise), so the noiseless twin of a grid shares its
    phase draws.
    """
    _check_fits(alloc, params)
    table = _SignalTable(scene, params, stacklevel=3)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return table.grid(alloc, _streams(ss, 2 if table.var > 0.0 else 1), seed_ss=ss)


def _symbol_basis(targets, params: OfdmParams) -> np.ndarray:
    """The rows of a (d, M) array Q^T: an orthonormal basis of the all-ones
    vector, first, as 1/sqrt(M), and of the symbol-phase profiles
    e^{j 2 pi f_D T m} of `targets`, where a profile inside the span of the
    vectors before it adds none (_SPAN_TOL).  A static target adds none.

    Classical Gram-Schmidt, run twice per profile, in elementwise sums (no
    BLAS call, so the bits do not depend on the BLAS thread count).
    """
    m = params.n_symbols
    basis = np.full((1, m), 1.0 / math.sqrt(m), dtype=np.complex128)
    for t in targets:
        v = _symbol_phase(delay_doppler(t, params)[1], params)
        for _ in range(2):
            v = v - ((basis.conj() * v).sum(axis=1)[:, None] * basis).sum(axis=0)
        norm = math.sqrt(float((v.real**2 + v.imag**2).sum()))
        if len(basis) < m and norm > _SPAN_TOL * math.sqrt(m):
            basis = np.vstack([basis, v / norm])
    return basis


@dataclass(frozen=True)
class _GridStatistics:
    """The two statistics of a grid of the constant allocation `alloc` that
    a sweep or demo trial reads, held in a (rows, K) block of fewer rows
    than the grid's M (_gram_statistics): the Gram matrix of its rows has
    the law of the grid's G = sum_m y_m y_m^H, and sqrt(M) times its first
    row is the grid's symbol sum.  A draw with lags=False holds that first
    row alone, whose `cpi_lags` no reader takes.

    It is read as a FreqGrid is, through `alloc`, `symbol_sum` and
    `cpi_lags`, each computed on read.
    """

    block: np.ndarray
    alloc: ResourceAllocation

    @property
    def cpi_lags(self) -> np.ndarray:
        """The CPI mean of the lag sums, as FreqGrid.cpi_lags (_gram_lags)."""
        return _gram_lags(self.block, self.alloc)

    @property
    def symbol_sum(self) -> np.ndarray:
        """sum_m Y_m[n] as a dense (N,) row, zeros off the allocation."""
        row = np.zeros(self.alloc.n_subcarriers, dtype=np.complex128)
        row[self.alloc.indices] = math.sqrt(self.alloc.n_symbols) * self.block[0]
        return row


@functools.lru_cache(maxsize=8)
def _upper_mask(r: int, k: int) -> np.ndarray:
    """The read-only (r, K) mask of the entries right of the diagonal,
    where _gram_statistics draws its factor R, kept per (r, K)."""
    mask = np.arange(k) > np.arange(r)[:, None]
    mask.setflags(write=False)
    return mask


def _gram_statistics(
    scene: Scene, alloc: ResourceAllocation, params: OfdmParams, seed, lags: bool = True
) -> _GridStatistics:
    """The symbol sum and the Gram matrix G = sum_m y_m y_m^H of a grid of a
    constant allocation, drawn without its M x K values, by the Bartlett
    decomposition (Bartlett 1933; Goodman 1963 for the complex case).

    Q (M x d) is the basis of the symbols' signal space (_symbol_basis of
    the targets; of none where `lags` is False: the all-ones vector).  G
    is the Gram matrix of the rows of U^H Y for any unitary U = [Q, Q_perp],
    so the block holds, row for row:

    - Q^H Y (d x K): mean sum_t A e^{j phi} (Q^H p_t) e^{-j 2 pi df tau n}
      over the targets t, p_t the symbol-phase profile, plus i.i.d.
      CN(0, var) noise (_SignalTable._draw);
    - for Q_perp^H Y, an (M - d) x K i.i.d. CN(0, var) matrix, its QR
      factor sqrt(var) R: r = min(M - d, K) rows, upper trapezoidal, row i
      with sqrt(Gamma(M - d - i)) on the diagonal and CN(0, 1) right of it.
      The block holds R's rows: the Gram matrix of its columns has the
      trace of G but not its diagonal.  Absent at var = 0 or where `lags`
      is False, which leaves the one row of the symbol sum over sqrt(M).

    Same phases as synthesize(scene, alloc, params, seed), other noise
    draws: Q^H Y's from the noise substream, R's from a third substream of
    the grid's seed (spawn key + (2,)): two standard normals per entry right
    of the diagonal, row by row, re then im, then one gamma per diagonal
    entry.  A sweep or demo trial draws it in place of synthesize where
    _gram_route holds, so its d + r rows (d <= 1 + T for T targets) are
    fewer than the grid's M, and with lags=False, one row of K values, for
    a slot that zero-fill alone reads.
    """
    _check_fits(alloc, params)
    table = _SignalTable(scene, params, stacklevel=3)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return table.statistics(alloc, _streams(ss, 3), lags)


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
