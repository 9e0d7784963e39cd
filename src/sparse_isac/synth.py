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

- the Gram route: the lag sums of the K x K Gram matrix of a block of
  rows on the active subcarriers, read from one real rank-2K update
  (dsyrk) of its interleaved re/im parts, run at one BLAS thread;
- the FFT route, the reference: one transform of length 2N per row, over
  blocks of 64 rows, in the caller's thread, and one inverse transform of
  the power sum.

One cost model picks the route of every block of a constant allocation,
a grid's (M, K) block or a drawn statistics block alike: the read gate
(_gram_read) puts a block of `rows` rows on the Gram route where its read
costs less there, K^2 (rows + _GRAM_READ_ROWS) at most _GRAM_READ_RATIO x
rows 2N log2 2N.  A per-symbol allocation reads on the FFT route.  A block
read on either route has the same values to round-off (about 5e-16 of the
peak).

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
and the Gram matrix of its rows.  It draws them without the grid
(_gram_statistics, the Bartlett decomposition), in d + min(M - d, K) rows
of K values, d <= 1 + T the dimension of the targets' symbol-phase
profiles with the all-ones vector; a slot that zero-fill alone reads
draws its symbol sum alone, in one row (lags=False).  A draw keeps
synthesize's phases, with other noise draws.  A grid and a drawn
_GridStatistics are read the same way, through `symbol_sum` and
`cpi_lags`; a block of drawn trials (_StatisticsBlock) writes all its
symbol sums in one assignment and reads each trial's lag means on the
route that the read gate picks once for the block.

Every draw reads one table of what does not depend on the seed
(_SignalTable), built once per sweep or demo point, where aliasing targets
warn, and kept with the unit signals of its fixed allocations.  A draw
takes its phase, noise and Bartlett-factor Generators (_SlotStreams), each
on a child of a SeedSequence by key (_streams).  It draws T trials of one
slot at once (_SignalTable.statistics): their phases in one call, their
units scaled in one broadcast (a fixed allocation's kept units shared, the
random allocations' stacked) and their noise in one call, which gives the
numbers of T calls in turn.  Each trial's Bartlett factor still takes its
own normals, then gammas (a gamma takes a varying count of bits), drawn
as its rows are read, into one complex (d + r, K) block and one buffer of
its normals per thread (_factor_workspace: 0.96 MB at M = 720, K = 200);
no trial writes the block's zeros below the diagonal.  synthesize draws one grid and _gram_statistics
one trial's statistics the same way, from Generators opened per call from
their seed.  A sweep or demo point opens a slot's once and draws its
trials from them block by block in trial order (analysis._trials): a
point's first n trials are those of an n-trial run, and a trial is drawn
only after the trials before it.
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

from .alloc import OfdmParams, ResourceAllocation, _check_fits, _check_number, _pair_lags, difference_set
from .scene import Scene, delay_doppler

__all__ = ["FreqGrid", "synthesize", "measure_snr"]

# Rows per block B when _fft_lags walks a block: its one workspace holds
# 2 * B * 2N complex values, 4 MB at N = 1000.
_ROW_BLOCK = 64

# The read gate (_gram_read): the Gram route reads the lag sums of a block
# of `rows` rows where K^2 (rows + _GRAM_READ_ROWS) <= _GRAM_READ_RATIO x
# rows 2N log2 2N.  Its cost grows as K^2 per row of the block, plus K^2 per
# call (the re/im slices and the two bincounts), which _GRAM_READ_ROWS
# counts in rows; the FFT route's grows as 2N log2 2N per row.  Fitted to
# the crossovers of _gram_lags' wall time over _fft_lags' (one BLAS thread,
# best of 5 timed loops, 2-core x86-64 guest, NumPy 2.4 with OpenBLAS
# 0.3.31), a grid's (M, K) block read at M rows:
# - N=256, K=64: 1.05, 1.03, 0.87, 0.80, 0.42 and 0.40 at M = 12, 16, 20,
#   24, 32 and 128;
# - N=1000, K=200: 2.72, 1.62, 1.07, 0.78 and 0.50 at M = 8, 16, 24, 32, 64;
#   K=400: 2.16, 1.26 and 0.99 at M = 64, 128 and 256;
# - N=1000, M=720: 0.37, 0.62, 0.75, 0.84 and 1.41 at K = 300, 400, 430,
#   460 and 500;
# - N=256, M=1024: 0.39, 0.82, 0.81 and 1.10 at K = 128, 200, 220 and 256;
# - N=4000, M=131: 0.49 and 1.14 at K = 500 and 700.
# So at N=256, K=64 a block of 19 rows or more (the desk grid: M=32) reads
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
        the grid: of the (M, K) block of a constant allocation, of the
        dense (M, N) rows, built from `alloc.rows` and `alloc.cols`, of a
        per-symbol one.

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
            if self.alloc.is_constant:
                rows = self.block
            else:
                rows = np.zeros((self.n_symbols, self.n_subcarriers), dtype=self.active.dtype)
                rows[self.alloc.rows, self.alloc.cols] = self.active
            lags = _cpi_lags(rows, self.alloc)
            lags.setflags(write=False)
            object.__setattr__(self, "_cpi_lags", lags)  # frozen: no field, not compared
        return lags


def _gram_read(rows: int, alloc: ResourceAllocation) -> bool:
    """Whether _cpi_lags reads the lag sums of a block of `rows` rows on
    `alloc` on the Gram route: a constant allocation of K active
    subcarriers with K^2 (rows + _GRAM_READ_ROWS) at most _GRAM_READ_RATIO
    x rows 2N log2 2N."""
    size = 2 * alloc.n_subcarriers
    return alloc.is_constant and (
        alloc.n_active**2 * (rows + _GRAM_READ_ROWS) <= _GRAM_READ_RATIO * rows * size * math.log2(size)
    )


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


def _factor_workspace(d: int, r: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's complex (d + r, K) statistics block and float buffer
    of the factor's normals, for a draw whose Bartlett factor has r rows
    (_StatisticsBlock.rows), kept per thread and replaced when d, r or K
    changes.  The block's zeros below the factor's diagonal are never
    written, so each trial writes only its d rows Q^H Y and its factor's
    entries on and right of the diagonal; the buffer takes each trial's
    two normals per entry right of the diagonal."""
    key, spaces = getattr(_workspace, "factor", (None, None))
    if key != (d, r, k):
        spaces = np.zeros((d + r, k), dtype=np.complex128), np.empty(2 * np.count_nonzero(_upper_mask(r, k)))
        _workspace.factor = ((d, r, k), spaces)
    return spaces


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


def _fft_lags(block: np.ndarray, alloc: ResourceAllocation) -> np.ndarray:
    """IFFT_2N((1/M) sum_i |FFT_2N(y_i)|^2), one transform of length 2N per
    row y_i of a (rows, K) block scattered onto the active subcarriers of
    the constant allocation `alloc` (M symbols, N subcarriers), or of the
    dense (M, N) rows of a per-symbol one.

    The rows go through in blocks of _ROW_BLOCK, in one (2, B, 2N)
    workspace.  Each block's rows are scattered into the zero-padded front
    half, the same columns every time, and forward-transformed into the
    back half with `out=`, and the block's power is added to one running sum
    in row order.
    """
    n = alloc.n_subcarriers
    cols = alloc.indices if alloc.is_constant else slice(n)
    rows, out = np.zeros((2, min(_ROW_BLOCK, len(block)), 2 * n), dtype=np.complex128)
    power = np.zeros(2 * n)
    for r0 in range(0, len(block), _ROW_BLOCK):
        k = min(_ROW_BLOCK, len(block) - r0)
        rows[:k, cols] = block[r0 : r0 + k]
        # re^2 and im^2 summed over the block's rows, interleaved by bin
        v = np.fft.fft(rows[:k], axis=-1, out=out[:k]).view(np.float64)
        s = np.einsum("mk,mk->k", v, v)
        power += s[0::2] + s[1::2]
    return np.fft.ifft(power / alloc.n_symbols)


def _cpi_lags(block: np.ndarray, alloc: ResourceAllocation) -> np.ndarray:
    """The CPI lag sums R[s] = sum_i sum_{a-b=s} y_i[a] conj(y_i[b]) over
    the rows y_i of `block` on `alloc` (as _fft_lags takes them), divided
    by M, at s mod 2N.

    By the Gram route (_gram_lags) where the read gate _gram_read puts a
    block of its rows on `alloc`, else by the FFT route (_fft_lags).
    """
    if _gram_read(len(block), alloc):
        return _gram_lags(block, alloc)
    return _fft_lags(block, alloc)


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
        """Per target, its unit signal on `alloc` as one (1, cells) row:
        sym_phase[rows] * sub_phase[cols] for a grid (lags None), the rows
        np.outer(Q^H p, sub_phase[cols]) for a statistics draw
        (_row_units).  New arrays, or for an allocation in `fixed` the ones
        kept on the first call."""
        key = (id(alloc), lags)
        if key in self._kept:
            return self._kept[key]
        if lags is None:
            if alloc.is_constant:
                rows, cols = np.arange(self.params.n_symbols)[:, None], alloc.indices
            else:
                rows, cols = alloc.rows, alloc.cols
            units = [(sym[rows] * sub[cols]).reshape(1, -1) for _, _, sym, sub in self.targets]
        else:
            units = self._row_units(alloc.indices, lags)  # raises if the allocation varies per symbol
        if key[0] in self._fixed:
            self._kept[key] = [_read_only(u) for u in units]
        return units

    def _row_units(self, cols: np.ndarray, lags: bool) -> list[np.ndarray]:
        """Per target, the unit rows np.outer(Q^H p, sub_phase[cols]) of a
        statistics draw at the active subcarriers `cols`, flattened: one
        (1, d K) row for (K,) `cols`, a (T, d K) stack for the (T, K) `cols`
        of T allocations.  New arrays."""
        if lags not in self._projections:
            basis = _symbol_basis(self.scene.targets if lags else (), self.params)
            proj = [(basis.conj() * sym).sum(axis=1) for _, _, sym, _ in self.targets]
            self._projections[lags] = [_read_only(q) for q in proj]
        units = [p[:, None] * t[3][cols][..., None, :] for p, t in zip(self._projections[lags], self.targets)]
        return [u.reshape(-1, u.shape[-2] * u.shape[-1]) for u in units]

    def _draw(self, streams: _SlotStreams, units: list[np.ndarray], trials: int = 1) -> np.ndarray:
        """A new complex (trials, cells) array of `trials` draws in trial
        order.  Per trial: the phases drawn from streams.phase in target
        order whichever targets carry explicit ones (so draws are stable
        under edits), each unit scaled by A e^{j phi} and the terms summed.
        A unit is one (1, cells) row for every trial (a kept one, read-only,
        into a new array) or a (trials, cells) stack of one row per trial.
        Noise: per trial, streams.noise gives one standard normal z per
        value, in order, for the real parts, then one per value for the
        imaginary parts; a value adds sqrt(var / 2) * z from each.  So one
        draw of T trials takes the numbers that T one-trial draws take in
        turn, and a sweep or demo point, which passes a slot the same
        streams in every block (analysis._trials), draws its trials in
        trial order.
        """
        # The product keeps the amplitude as the first operand, because a
        # complex product can round differently with its operands swapped,
        # and the sum starts from 0.0, so a grid has the floats of a
        # whole-grid sum started from zeros (a -0.0 part becomes +0.0).
        phases = streams.phase.uniform(0.0, 2.0 * math.pi, size=(trials, len(self.targets)))
        values = 0.0
        for (amplitude, phase, _, _), drawn, unit in zip(self.targets, phases.T, units):
            angle = drawn[:, None] if phase is None else np.full((trials, 1), phase)
            coef = amplitude * np.exp(1j * angle)
            in_place = unit.flags.writeable and len(unit) == trials
            term = np.multiply(coef, unit, out=unit if in_place else None)
            values = np.add(values, term, out=term)

        if self.var > 0.0:
            z = streams.noise.standard_normal((trials, 2, values.shape[1]))
            z *= math.sqrt(self.var / 2.0)
            values.real += z[:, 0]
            values.imag += z[:, 1]
        return values

    def statistics(self, allocs: list, streams: _SlotStreams, lags=True) -> _StatisticsBlock:
        """The statistics of _gram_statistics of len(allocs) trials in
        trial order, trial t's on allocs[t], drawn from `streams`: the rows
        Q^H Y of every trial in one draw (_draw), of the units of one
        allocation where every trial has the same one (kept where it is in
        `fixed`), else stacked from each trial's active subcarriers.  Each
        trial's Bartlett factor is drawn from streams.factor where `lags`
        holds, the scene has noise and the streams have a factor Generator,
        when _StatisticsBlock.rows reaches the trial.  The block holds
        `allocs` itself, not a copy (_StatisticsBlock.rows)."""
        first = allocs[0]
        if all(a is first for a in allocs):
            cols, units = first.indices, self._units(first, lags)
        else:
            cols = np.stack([a.indices for a in allocs])
            units = self._row_units(cols, lags)
        values = self._draw(streams, units, len(allocs))
        factor = streams.factor if lags and self.var > 0.0 else None
        return _StatisticsBlock(
            values.reshape(len(allocs), -1, first.n_active), allocs, cols, first.n_symbols, factor, self.var
        )


class _StatisticsBlock:
    """The statistics of a block of T trials of one slot, drawn at once
    (_SignalTable.statistics).  `values` holds the (T, d, K) rows Q^H Y of
    every trial, on the active subcarriers `cols` of its allocation: (K,)
    where the trials share one, (T, K) where each has its own.  Each
    trial's Bartlett factor is drawn, in trial order, from the Generator
    `factor` (None: the block has none) as `rows` reaches the trial.
    """

    def __init__(self, values, allocs, cols, n_symbols, factor, var):
        self.values, self.allocs, self.cols = values, allocs, cols
        self._m, self._factor, self._var = n_symbols, factor, var

    def symbol_sums(self, out: np.ndarray) -> None:
        """Write each trial's symbol sum, sqrt(M) times its first row, into
        its row of the (T, N) `out` at its active subcarriers, in one
        assignment; out's other entries are left as they are."""
        out[np.arange(len(out))[:, None], self.cols] = math.sqrt(self._m) * self.values[:, 0]

    def rows(self):
        """Yield (t, its allocation, its statistics block) of each trial t in
        trial order: its (d, K) rows Q^H Y, or, with a factor, those and
        the r = min(M - d, K) rows of its Bartlett factor, drawn then, in
        this thread's workspace (_factor_workspace), whose content holds
        until the next trial is drawn in this thread.  The block drops its
        reference to each allocation once it yields the trial, so a random
        allocation held nowhere else goes with its trial."""
        trials, d, k = self.values.shape
        if self._factor is None:
            for t in range(trials):
                yield t, self._take(t), self.values[t]
            return
        rng, var, r = self._factor, self._var, min(self._m - d, k)
        block, z = _factor_workspace(d, r, k)
        factor, diag, upper = block[d:], np.arange(r), _upper_mask(r, k)
        shapes, scale = self._m - d - diag, math.sqrt(var / 2.0)
        for t in range(trials):
            block[:d] = self.values[t]
            rng.standard_normal(out=z)  # the numbers of standard_normal(z.size)
            z *= scale
            factor[upper] = z.view(np.complex128)  # re, im of each entry in turn
            factor[diag, diag] = np.sqrt(var * rng.standard_gamma(shapes))
            yield t, self._take(t), block

    def lag_means(self):
        """Yield (t, its difference set, its CPI lag means) of each trial t in
        trial order (rows), the lag sums read on the route the read gate
        picks once for the block's rows: _gram_lags where _gram_read puts
        them there, else _fft_lags.  The trials' allocations share their M,
        N and K, so one gate reads for all.  No allocation is yielded, so
        the last trial's is gone before the next trial's lag index is built.
        """
        read = None
        for t, alloc, block in self.rows():
            if read is None:
                read = _gram_lags if _gram_read(len(block), alloc) else _fft_lags
            yield t, difference_set(alloc), read(block, alloc)

    def _take(self, t: int) -> ResourceAllocation:
        alloc, self.allocs[t] = self.allocs[t], None
        return alloc


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
    values = table._draw(_streams(ss, 2 if table.var > 0.0 else 1), table._units(alloc, None))[0]
    return FreqGrid(values, alloc, params, noise_variance=table.var, seed_ss=ss)


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
    a sweep or demo trial reads, held in a (rows, K) block of at most the
    grid's M rows (_gram_statistics): the Gram matrix of its rows has the
    law of the grid's G = sum_m y_m y_m^H, and sqrt(M) times its first row
    is the grid's symbol sum.  A draw with lags=False holds that first
    row alone, whose `cpi_lags` no reader takes.

    It is read as a FreqGrid is, through `alloc`, `symbol_sum` and
    `cpi_lags`, each computed on read.
    """

    block: np.ndarray
    alloc: ResourceAllocation

    @property
    def cpi_lags(self) -> np.ndarray:
        """The CPI mean of the lag sums, as FreqGrid.cpi_lags (_cpi_lags of
        the block)."""
        return _cpi_lags(self.block, self.alloc)

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
    entry.  The one-trial call of the block draw (_SignalTable.statistics),
    its block copied out of the workspace.  A sweep or demo point draws
    every slot by that draw, once per block of trials: a slot of the
    virtual methods in d + r rows per trial (d <= 1 + T for T targets;
    d rows, without a factor, where no requested virtual method reads
    it), any other with lags=False, one row of K values.
    """
    _check_fits(alloc, params)
    table = _SignalTable(scene, params, stacklevel=3)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    _, _, block = next(table.statistics([alloc], _streams(ss, 3), lags).rows())
    return _GridStatistics(block.copy(), alloc)


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
