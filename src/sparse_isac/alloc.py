"""Sparse subcarrier allocation patterns and their difference-set (virtual) apertures.

An allocation says which subcarriers carry sensing energy in each OFDM
symbol.  Its difference set {n_i - n_j} is the lag support on which the
autocorrelation estimator can synthesize a virtual measurement, so the
quality of a sparse pattern is judged by how completely those lags cover
the full range -(N-1)..N-1.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OfdmParams",
    "ResourceAllocation",
    "VirtualAperture",
    "HoleFillCurve",
    "make_allocation",
    "difference_set",
    "hole_fill_curve",
    "nested_params_for",
]


def _check_number(
    name: str,
    value,
    *,
    integer: bool = False,
    positive: bool = False,
    minimum=None,
    maximum=None,
    allow_inf: bool = False,
):
    """Reject a bool, a non-number, NaN, -inf and (unless allow_inf) +inf,
    then apply the range checks.  Every message starts with `name`.
    Returns `value`.

    An int is compared as it is, never converted to float, so it may have
    any size; a float field rejects one beyond float range."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integer else "a number"
        raise TypeError(f"{name}: expected {kind}, got {type(value).__name__}")
    if isinstance(value, (int, np.integer)):
        if not integer and abs(value) > sys.float_info.max:
            raise ValueError(f"{name}: must be finite, got an integer beyond float range")
    elif math.isnan(value) or (math.isinf(value) and not (allow_inf and value > 0)):
        raise ValueError(f"{name}: must be finite, got {value}")
    if positive and value <= 0:
        raise ValueError(f"{name}: must be positive, got {value}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name}: must be <= {maximum}, got {value}")
    return value


# Most points of an axis, a spectrum or a grid (symbols x subcarriers, or
# subcarriers x trials) a config may ask for.  Near 2**60 points a float64
# array's byte count overflows, and NumPy then raises ValueError, not the
# MemoryError (a numeric failure) of an array merely too large.
_AXIS_MAX_POINTS = 2**53


def _as_tuple(name: str, value, length: int | None = None) -> tuple:
    """A list-like value as a tuple: non-empty, or of exactly `length` entries."""
    if isinstance(value, (str, bytes, dict)) or not hasattr(value, "__iter__"):
        raise TypeError(f"{name}: expected a list, got {type(value).__name__}")
    out = tuple(value)
    if not out:
        raise ValueError(f"{name}: expected at least one entry")
    if length is not None and len(out) != length:
        raise ValueError(f"{name}: expected {length} entries, got {len(out)}")
    return out


@dataclass(frozen=True)
class OfdmParams:
    """Static OFDM waveform constants.

    n_subcarriers          grid width in frequency (N)
    n_symbols              grid depth in time, one CPI (M)
    subcarrier_spacing_hz  inter-carrier spacing
    carrier_freq_hz        RF carrier, used for Doppler mapping and wavelength
    cp_len_s               cyclic-prefix duration, 0 allowed
    """

    n_subcarriers: int
    n_symbols: int
    subcarrier_spacing_hz: float
    carrier_freq_hz: float
    cp_len_s: float = 0.0

    def __post_init__(self):
        most = _AXIS_MAX_POINTS
        n = _check_number("n_subcarriers", self.n_subcarriers, integer=True, minimum=2, maximum=most)
        m = _check_number("n_symbols", self.n_symbols, integer=True, minimum=1, maximum=most)
        _check_number("n_symbols x n_subcarriers", int(m) * int(n), maximum=most)  # the dense grid
        _check_number("subcarrier_spacing_hz", self.subcarrier_spacing_hz, positive=True)
        _check_number("carrier_freq_hz", self.carrier_freq_hz, positive=True)
        _check_number("cp_len_s", self.cp_len_s, minimum=0)

    @property
    def symbol_core_s(self) -> float:
        """Useful symbol duration 1/subcarrier_spacing (no CP)."""
        return 1.0 / self.subcarrier_spacing_hz

    @property
    def symbol_dur_s(self) -> float:
        """Full symbol duration including cyclic prefix."""
        return self.symbol_core_s + self.cp_len_s

    @property
    def bandwidth_hz(self) -> float:
        return self.n_subcarriers * self.subcarrier_spacing_hz

    @property
    def range_bin_m(self) -> float:
        """Fundamental (non-oversampled) range resolution c/(2*B)."""
        from .scene import SPEED_OF_LIGHT

        return SPEED_OF_LIGHT / (2.0 * self.bandwidth_hz)


def _as_index_array(indices, n_subcarriers: int) -> np.ndarray:
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("indices: expected a non-empty 1-D sequence")
    if idx.dtype.kind not in "iu":
        raise TypeError(f"indices: expected integers, got {idx.dtype}")
    if idx.min() < 0 or idx.max() > n_subcarriers - 1:
        raise ValueError(
            f"indices: must lie in [0, {n_subcarriers - 1}], got range "
            f"[{idx.min()}, {idx.max()}]"
        )
    idx = np.unique(idx).astype(np.int64, copy=False)  # dedup + ascending
    idx.setflags(write=False)
    return idx


@dataclass(frozen=True, init=False)
class ResourceAllocation:
    """Active subcarrier index sets, one per OFDM symbol, and the one layout
    of the active cells: row-major, ascending within each symbol.

    Each input array is validated into an ascending, duplicate-free,
    read-only copy.  A constant allocation stores that one set in `_cols`
    (O(K) whatever M; `_starts` is None); any other stores CSR: `_cols`
    holds the subcarrier of every active cell and `_starts` the M+1 symbol
    offsets into it.  Every other view derives from these.  Only a
    constant allocation has a difference set (virtual aperture).
    """

    _cols: np.ndarray
    n_symbols: int
    n_subcarriers: int
    _starts: np.ndarray | None = None

    def __init__(self, per_symbol_indices, n_subcarriers: int):
        _check_number("n_subcarriers", n_subcarriers, integer=True, minimum=1)
        sets = tuple(per_symbol_indices)
        _check_number("n_symbols", len(sets), integer=True, minimum=1)
        cleaned = [_as_index_array(idx, n_subcarriers) for idx in sets]
        head, starts = cleaned[0], None
        if not all(np.array_equal(idx, head) for idx in cleaned[1:]):
            head, starts = np.concatenate(cleaned), np.cumsum([0] + [i.size for i in cleaned])
            head.setflags(write=False)
            starts.setflags(write=False)
        # frozen: the fields are set through __dict__, here and in constant()
        vars(self).update(
            _cols=head, _starts=starts, n_symbols=len(sets), n_subcarriers=n_subcarriers
        )

    @classmethod
    def constant(cls, indices, n_symbols: int, n_subcarriers: int):
        """The same index set in every symbol, validated once: O(K) work."""
        _check_number("n_subcarriers", n_subcarriers, integer=True, minimum=1)
        _check_number("n_symbols", n_symbols, integer=True, minimum=1)
        cols, alloc = _as_index_array(indices, n_subcarriers), cls.__new__(cls)
        vars(alloc).update(_cols=cols, n_symbols=n_symbols, n_subcarriers=n_subcarriers)
        return alloc

    def __eq__(self, other):
        """By value: the same M, N and layout.  Hashing stays the dataclass
        field hash, which arrays refuse."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.n_symbols, self.n_subcarriers) == (other.n_symbols, other.n_subcarriers)
            and np.array_equal(self._cols, other._cols)
            and np.array_equal(self.starts, other.starts)
        )

    @property
    def is_constant(self) -> bool:
        return self._starts is None

    @property
    def indices(self) -> np.ndarray:
        """The common index set; raises if the allocation varies per symbol."""
        if not self.is_constant:
            raise ValueError("allocation varies across symbols; no single index set")
        return self._cols

    @property
    def n_active(self) -> int:
        return int(self.indices.size)

    @property
    def cols(self) -> np.ndarray:
        """Subcarrier of every active cell, row-major."""
        if self.is_constant:  # np.tile, without its Python overhead at desk size
            return self._cols[None].repeat(self.n_symbols, axis=0).ravel()
        return self._cols

    @property
    def starts(self) -> np.ndarray:
        """Offset in `cols` of each symbol's first cell, then the cell count: M+1."""
        if self.is_constant:
            return np.arange(0, (self.n_symbols + 1) * self._cols.size, self._cols.size)
        return self._starts

    @property
    def rows(self) -> np.ndarray:
        """Symbol of every active cell, row-major."""
        return np.repeat(np.arange(self.n_symbols), self.cardinalities())

    def cardinalities(self) -> np.ndarray:
        starts = self.starts
        return starts[1:] - starts[:-1]  # np.diff, without its overhead

    def column_counts(self) -> np.ndarray:
        """Number of symbols in which each subcarrier is active, shape (N,)."""
        if self.is_constant:
            out = np.zeros(self.n_subcarriers, dtype=np.intp)
            out[self._cols] = self.n_symbols
            return out
        return np.bincount(self._cols, minlength=self.n_subcarriers)

    def mask(self) -> np.ndarray:
        """Boolean (n_symbols, n_subcarriers) activity mask, built anew on each call."""
        out = np.zeros((self.n_symbols, self.n_subcarriers), dtype=bool)
        out[slice(None) if self.is_constant else self.rows, self._cols] = True
        return out


def _check_fits(alloc: ResourceAllocation, params: OfdmParams) -> None:
    """Raise ValueError unless `alloc` spans the (symbols, subcarriers) grid of `params`."""
    shape = (alloc.n_symbols, alloc.n_subcarriers)
    if shape != (params.n_symbols, params.n_subcarriers):
        raise ValueError(
            f"allocation shape {shape} does not match params "
            f"({params.n_symbols}, {params.n_subcarriers})"
        )


@dataclass(frozen=True)
class VirtualAperture:
    """Lag support of an allocation's difference set.

    lags         ascending available lags, symmetric about 0
    pair_counts  ordered-pair multiplicity per lag (same length as lags)
    """

    lags: np.ndarray
    pair_counts: np.ndarray
    n_subcarriers: int

    def __post_init__(self):
        for name in ("lags", "pair_counts"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.lags.size != self.pair_counts.size:
            raise ValueError("lags and pair_counts must align")
        if 0 not in self.lags:
            raise ValueError("lag 0 must always be available")

    @property
    def n_lags(self) -> int:
        return int(self.lags.size)


def nested_params_for(n_active: int, n_subcarriers: int) -> tuple[int, int]:
    """Pick (inner, outer) block sizes for a nested pattern of the given cardinality.

    Maximizes the pattern extent (inner+1)*outer - 1 subject to fitting in
    n_subcarriers, with inner + outer == n_active.
    """
    if n_active < 2:
        raise ValueError("nested pattern needs cardinality >= 2")
    best = None
    for inner in range(1, n_active):
        outer = n_active - inner
        extent = (inner + 1) * outer - 1
        if extent <= n_subcarriers - 1:
            if best is None or extent > best[2]:
                best = (inner, outer, extent)
    if best is None:
        raise ValueError(
            f"no nested pattern of cardinality {n_active} fits in N={n_subcarriers}"
        )
    return best[0], best[1]


def _nested_indices(inner: int, outer: int, n_subcarriers: int) -> np.ndarray:
    _check_number("inner", inner, integer=True, minimum=1)
    _check_number("outer", outer, integer=True, minimum=1)
    max_index = (inner + 1) * outer - 1
    if max_index > n_subcarriers - 1:
        raise ValueError(
            f"nested(inner={inner}, outer={outer}) reaches index {max_index} "
            f"> N-1 = {n_subcarriers - 1}"
        )
    dense = np.arange(inner)
    coarse = (inner + 1) * np.arange(1, outer + 1) - 1
    return np.union1d(dense, coarse)


def _coprime_indices(p: int, q: int, n_subcarriers: int) -> np.ndarray:
    _check_number("p", p, integer=True, minimum=1)
    _check_number("q", q, integer=True, minimum=1)
    if math.gcd(p, q) != 1:
        raise ValueError(f"strides ({p}, {q}) are not co-prime")
    if min(p, q) > n_subcarriers - 1:
        raise ValueError(
            f"co-prime strides ({p}, {q}) generate only index 0 for N={n_subcarriers}"
        )
    comb_p = np.arange(0, n_subcarriers, p)
    comb_q = np.arange(0, n_subcarriers, q)
    return np.union1d(comb_p, comb_q)


def make_allocation(
    params: OfdmParams,
    pattern: str,
    *,
    n_active: int | None = None,
    stride: int | None = None,
    p: int | None = None,
    q: int | None = None,
    inner: int | None = None,
    outer: int | None = None,
    indices=None,
    seed=None,
) -> ResourceAllocation:
    """Build a ResourceAllocation, identical across all OFDM symbols.

    Patterns:
      full                 every subcarrier
      comb                 {0, stride, 2*stride, ...}
      random               n_active indices; 0 and N-1 are always forced in,
                           the rest drawn uniformly without replacement
      coprime              union of two combs with co-prime strides (p, q)
      nested               dense block of `inner` indices plus `outer` coarse
                           indices at multiples of inner+1 (shifted by -1), the
                           construction whose difference set is hole-free
      custom               explicit index list, or list of per-symbol lists

    Deterministic for a fixed seed.  `seed` is what np.random.default_rng
    takes; a Generator is drawn from as it is, so its state advances.
    """
    n = params.n_subcarriers
    if pattern == "full":
        idx = np.arange(n)
    elif pattern == "comb":
        _check_number("stride", stride, integer=True, minimum=1)
        idx = np.arange(0, n, stride)
    elif pattern == "random":
        _check_number("n_active", n_active, integer=True, minimum=2, maximum=n)
        rng = np.random.default_rng(seed)
        middle = rng.choice(np.arange(1, n - 1), size=n_active - 2, replace=False)
        idx = np.concatenate(([0, n - 1], middle))  # constant() sorts it
    elif pattern == "coprime":
        idx = _coprime_indices(p, q, n)
    elif pattern == "nested":
        idx = _nested_indices(inner, outer, n)
    elif pattern == "custom":
        if indices is None:
            raise ValueError("custom pattern needs explicit indices")
        sets = _as_tuple("indices", indices)
        idx = indices
        if np.ndim(sets[0]) >= 1:  # per-symbol list of lists
            if len(sets) != params.n_symbols:
                raise ValueError(
                    f"custom per-symbol allocation needs {params.n_symbols} index "
                    f"sets, got {len(sets)}"
                )
            alloc = ResourceAllocation(sets, n)
            if not alloc.is_constant:
                return alloc
            idx = alloc.indices  # one set after all: checked as a constant one
    else:
        raise ValueError(f"unknown pattern {pattern!r}")

    alloc = ResourceAllocation.constant(idx, params.n_symbols, n)
    if alloc.n_active < 2:
        raise ValueError(f"pattern {pattern!r} produced fewer than 2 active subcarriers")
    return alloc


def _pair_lags(alloc: ResourceAllocation) -> np.ndarray:
    """The linear lag n_a - n_b + N - 1 of each ordered pair (a, b) of the
    active subcarriers of the constant allocation `alloc`, as a flat (K^2,)
    index, computed on the first call and kept with the allocation: the
    pair counts of difference_set and the lag bins of synth._gram_lags.

    Left writeable, so np.bincount reads it without a copy; no reader
    writes to it.
    """
    lag = vars(alloc).get("_pair_lags")
    if lag is None:
        cols = alloc.indices
        lag = ((cols + (alloc.n_subcarriers - 1))[:, None] - cols).ravel()
        vars(alloc)["_pair_lags"] = lag  # frozen: no field, not compared
    return lag


def difference_set(alloc: ResourceAllocation) -> VirtualAperture:
    """All pairwise index differences of the allocation, with multiplicities.

    Requires the allocation to be symbol-constant (the autocorrelation
    estimator fixes one index set across the CPI).  Computed on the first
    call and kept with the allocation, as FreqGrid.cpi_lags is with its grid.
    """
    aperture = vars(alloc).get("_aperture")
    if aperture is not None:
        return aperture
    idx = alloc.indices  # raises if per-symbol sets differ
    if idx.size < 2:
        raise ValueError("difference set needs at least 2 active indices")
    n = alloc.n_subcarriers
    counts = np.bincount(_pair_lags(alloc), minlength=2 * n - 1)
    nonzero = np.flatnonzero(counts)
    aperture = VirtualAperture(lags=nonzero - (n - 1), pair_counts=counts[nonzero], n_subcarriers=n)
    vars(alloc)["_aperture"] = aperture  # frozen: no field, not compared
    return aperture


def _binomial_halfwidth(p_hat, n: int):
    # normal-approximation 95% half width, elementwise
    return 1.96 * np.sqrt(np.maximum(p_hat * (1.0 - p_hat), 0.0) / n)


@dataclass(frozen=True)
class HoleFillCurve:
    """Per-lag fill probabilities for one (N, n_active) Monte-Carlo run."""

    n_subcarriers: int
    n_active: int
    n_trials: int
    lags: np.ndarray  # 1..N-1
    fill_probability: np.ndarray
    fill_halfwidth: np.ndarray
    all_filled_probability: float
    all_filled_halfwidth: float

    @property
    def min_fill_probability(self) -> float:
        return float(self.fill_probability.min())


def _hole_fill_trials(n: int, n_active: int, n_trials: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """(member, filled): subcarrier i is in trial t's subset when member[i, t],
    and lag s is in that subset's difference set when filled[s - 1, t]."""
    keys = np.random.default_rng(seed).random((n, n_trials))
    keys[[0, n - 1]] = -1.0  # below every uniform key: the endpoints are always in
    member = keys <= np.partition(keys, n_active - 1, axis=0)[n_active - 1]
    bits = np.packbits(member, axis=1)  # 8 trials per byte
    lag_bits = [np.bitwise_or.reduce(bits[:-s] & bits[s:], axis=0) for s in range(1, n)]
    return member, np.unpackbits(np.array(lag_bits), axis=1, count=n_trials).astype(bool)


def hole_fill_curve(
    n_subcarriers: int,
    n_active: int,
    n_trials: int = 1000,
    seed=None,
) -> HoleFillCurve:
    """Per-lag fill probabilities plus the hole-free (all lags filled) rate.

    Trial t's subset is indices 0 and N-1 plus the n_active-2 interior
    indices with the smallest keys in column t of one (N, n_trials) matrix
    of uniform keys from `np.random.default_rng(seed)`, so `seed` is an
    int, a SeedSequence or None.  The per-lag curve and the aggregated
    curve answer different questions, so both are reported.
    """
    n = _check_number("n_subcarriers", n_subcarriers, integer=True, minimum=2)
    _check_number("n_active", n_active, integer=True, minimum=2, maximum=n)
    _check_number("n_trials", n_trials, integer=True, minimum=1, maximum=_AXIS_MAX_POINTS // n)
    filled = _hole_fill_trials(n, n_active, n_trials, seed)[1]
    p, p_all = filled.mean(axis=1), float(filled.all(axis=0).mean())
    return HoleFillCurve(
        n, n_active, n_trials, np.arange(1, n), p, _binomial_halfwidth(p, n_trials),
        p_all, float(_binomial_halfwidth(p_all, n_trials)),
    )
