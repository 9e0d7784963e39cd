"""The CPI lag-sum kernel: its FFT route against the serial loop, in the
caller's thread, its Gram route, the per-thread workspace it reads into and
the guard that runs its BLAS product at one BLAS thread, the read gate that
picks the route and the row rule by which a sweep or demo trial draws a
slot's statistics past it, the per-grid memo that both per-symbol
estimators read, and the sweep's SNR-point threads, the package's only
thread pool."""
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

from dataclasses import replace

import numpy as np
import pytest

import sparse_isac as si
from reference import bits, fresh_gram_lags, modulo_gram_lags, serial_cpi_lags
from sparse_isac import alloc as alloc_module
from sparse_isac import analysis, synth
from sparse_isac.analysis import SweepConfig, monte_carlo_sweep
from sparse_isac.alloc import nested_params_for
from sparse_isac.synth import _ROW_BLOCK, _cpi_lags, _fft_lags, _gram_lags, _gram_read, _gram_route


def make_params(n, m):
    return si.OfdmParams(
        n_subcarriers=n, n_symbols=m, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9
    )


def make_grid(n, m, pattern, seed=5, snr_db=0.0, n_active=None):
    """A one-target grid: `constant` draws n_active (default N / 4) random
    subcarriers, `nested` is the sweep's nested pattern of n_active."""
    params = make_params(n, m)
    n_active = n_active or max(2, n // 4)
    if pattern == "constant":
        alloc = si.make_allocation(params, "random", n_active=n_active, seed=seed)
    elif pattern == "nested":
        inner, outer = nested_params_for(n_active, n)
        alloc = si.make_allocation(params, "nested", inner=inner, outer=outer)
    else:  # a different index set, of a different size, in every symbol
        rng = np.random.default_rng(seed)
        sets = [np.sort(rng.choice(n, rng.integers(1, n // 2 + 1), replace=False)) for _ in range(m)]
        alloc = si.ResourceAllocation(per_symbol_indices=sets, n_subcarriers=n)
    target = si.Target(distance_m=n // 3 * params.range_bin_m, velocity_mps=15.0, amplitude=1.0)
    return si.synthesize(si.Scene(targets=(target,), snr_db=snr_db), alloc, params, seed=seed)


def assert_same_sweep(a, b):
    """Every aggregate and per-trial sample of two sweeps, bit for bit."""
    for m in a.config.methods:
        for key in ("rmse_m", "rmse_ci_m", "pslr_db", "pslr_ci_db", "miss_rate"):
            assert getattr(a, key)[m].tobytes() == getattr(b, key)[m].tobytes()
        for key in ("error_samples", "pslr_samples"):
            for x, y in zip(getattr(a, key)[m], getattr(b, key)[m], strict=True):
                assert x.tobytes() == y.tobytes()


class TestFftRoute:
    """The reference route, run directly: a constant allocation reads on it
    where the read gate keeps it (_gram_read), a per-symbol one always."""

    @pytest.mark.parametrize("pattern", ["constant", "per_symbol"])
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 2 * _ROW_BLOCK + 3, 720])
    def test_bitwise_equal_to_serial_loop(self, m, pattern):
        grid = make_grid(24, m, pattern)
        assert _fft_lags(grid).tobytes() == serial_cpi_lags(grid).tobytes()

    @pytest.mark.parametrize("pattern", ["constant", "per_symbol"])
    def test_paper_size_in_the_calling_thread(self, monkeypatch, pattern):
        grid = make_grid(1000, 720, pattern)  # K = 250
        ref = serial_cpi_lags(grid)

        def refuse(thread):
            raise AssertionError(f"the kernel started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert _fft_lags(grid).tobytes() == ref.tobytes()

    def test_threaded_sweep_bitwise_under_fast_switching(self, monkeypatch):
        # 4 SNR-point threads, more than cores, switching every few
        # microseconds, each reading the kernel on its own grids; the read
        # gate closed, so each trial synthesizes its grids and reads them on
        # the FFT route
        monkeypatch.setattr(synth, "_gram_read", lambda alloc: False)
        params = make_params(64, 2 * _ROW_BLOCK + 3)
        cfg = SweepConfig(
            params=params,
            n_active=16,
            snr_db_axis=(-5.0, 0.0, 5.0, 10.0),
            methods=("autocorrelation", "nested"),
            targets=(si.Target(distance_m=10 * params.range_bin_m, amplitude=1.0),),
            n_trials=3,
            oversample=4,
            master_seed=3,
        )
        callers = []
        kernel = synth._cpi_lags

        def counted(grid):
            callers.append(threading.get_ident())
            return kernel(grid)

        monkeypatch.setattr(synth, "_cpi_lags", counted)
        seq = monte_carlo_sweep(cfg, threads=1)
        n_kernel_calls = len(cfg.snr_db_axis) * cfg.n_trials * len(cfg.methods)
        assert callers == [threading.get_ident()] * n_kernel_calls
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            par = monte_carlo_sweep(cfg, threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert len(callers) == 2 * n_kernel_calls
        assert threading.get_ident() not in callers[n_kernel_calls:]
        assert_same_sweep(par, seq)


# _cpi_lags's bits of grids read on the Gram route, and the bits of the
# statistics draw (_gram_statistics) of two moving targets, printed by a
# fresh interpreter whose caller's BLAS count is argv[1], with the guard
# holding the product at one thread ("held") or disabled ("free").  720 is
# the paper's CPI and N=256, M=32, K=64 the desk grid; unheld, OpenBLAS
# 0.3.31's dsyrk gave other bits at K = 150 from 2 threads and at K = 229
# from 3.
GRAM_BITS = """
import contextlib, hashlib, sys
threads, guard = int(sys.argv[1]), sys.argv[2]
sys.path[:0] = sys.argv[3:]
import sparse_isac as si
from test_cpi_power import make_grid
from sparse_isac import synth
from sparse_isac.synth import _cpi_lags, _gram_read, _gram_statistics
lib = synth._openblas()
if lib is not None:  # OpenBLAS caps OPENBLAS_NUM_THREADS at the core count
    lib.scipy_openblas_set_num_threads64_(threads)
if guard == "free":
    synth._one_blas_thread = contextlib.nullcontext()
for n, m, k in ((1000, 333, 150), (1000, 720, 200), (1000, 263, 229), (256, 32, 64)):
    grid = make_grid(n, m, "constant", n_active=k)
    assert _gram_read(grid.alloc)
    print(m, k, hashlib.sha256(_cpi_lags(grid).tobytes()).hexdigest())
    targets = tuple(si.Target(distance_m=d, velocity_mps=v, amplitude=1.0) for d, v in ((200, 15), (330, -15)))
    drawn = _gram_statistics(si.Scene(targets=targets, snr_db=0.0), grid.alloc, grid.params, 5)
    print(m, k, hashlib.sha256(drawn.cpi_lags.tobytes() + drawn.symbol_sum.tobytes()).hexdigest())
"""


def make_scene(n_targets):
    """A 0 dB scene of n_targets static targets 30 m apart."""
    targets = tuple(si.Target(distance_m=100.0 + 30.0 * i, amplitude=1.0) for i in range(n_targets))
    return si.Scene(targets=targets, snr_db=0.0)


class TestGramRoute:
    """A constant allocation whose read costs less there takes its lag sums
    from the Gram matrix of its active block (the read gate, _gram_read); a
    sweep or demo trial draws the statistics of one whose drawn block is
    shorter than the grid, M > K + 1 + T for T targets (_gram_route)."""

    @pytest.mark.parametrize(
        "n, m, pattern, k, read, draw",
        [
            (256, 1, "constant", 64, False, False),
            (256, 8, "constant", 64, False, False),
            (256, 16, "constant", 64, False, False),
            (256, 32, "constant", 64, True, False),  # desk: M <= K + 2
            (256, 128, "constant", 64, True, True),  # the desk demo's grid
            (256, 32, "per_symbol", None, False, False),
            (1000, 720, "constant", 200, True, True),  # paper
            (1000, 720, "constant", 250, True, True),
            (1000, 720, "constant", 350, True, True),
            (1000, 720, "constant", 458, True, True),  # the read gate's largest K
            (1000, 720, "constant", 459, False, False),
            (1000, 720, "constant", 500, False, False),
            (256, 1024, "constant", 128, True, True),
            (256, 1024, "constant", 200, True, True),
            (256, 1024, "constant", 220, False, False),
        ],
    )
    def test_read_and_draw_gates(self, n, m, pattern, k, read, draw):
        # make_grid's grids have one target: a trial draws where the read
        # gate holds and M > K + 2
        grid = make_grid(n, m, pattern, n_active=k)
        assert _gram_read(grid.alloc) is read
        assert _gram_route(grid.alloc, make_scene(1)) is draw
        want = _gram_lags(grid.block, grid.alloc) if read else _fft_lags(grid)
        assert _cpi_lags(grid).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "n, m, pattern, k, n_targets, gram",
        [
            (256, 66, "constant", 64, 1, False),  # M = K + 1 + T
            (256, 67, "constant", 64, 1, True),
            (256, 67, "constant", 64, 2, False),
            (256, 68, "constant", 64, 2, True),
            (1000, 720, "constant", 458, 1, True),
            (1000, 720, "constant", 459, 1, False),  # FFT read
            (1000, 202, "constant", 200, 1, False),
            (1000, 203, "constant", 200, 1, True),
            (1000, 720, "nested", 200, 2, True),
            (1000, 720, "per_symbol", None, 1, False),
            (256, 1024, "per_symbol", None, 2, False),
        ],
    )
    def test_gates(self, n, m, pattern, k, n_targets, gram):
        # the row rule at its M edge for one and two targets, the read gate
        # at its K edge, and a per-symbol allocation, which never draws
        assert _gram_route(make_grid(n, m, pattern, n_active=k).alloc, make_scene(n_targets)) is gram

    @pytest.mark.parametrize("m", [66, 67])
    def test_trials_draw_exactly_where_the_rule_holds(self, monkeypatch, m):
        # a desk-width sweep of one target on both sides of the M edge: each
        # virtual slot (the random draw and nested) draws its statistics at
        # M = 67 and synthesizes its grid at M = 66; each zero-fill slot
        # (full and equivalent band) draws its symbol sum alone at both
        calls = []  # (draw, allocation, keywords) of each slot drawn

        def spying(name):  # args: the table, the allocation, the seed
            real = getattr(synth._SignalTable, name)
            return lambda *args, **kw: calls.append((name, args[1], kw)) or real(*args, **kw)

        for name in ("grid", "statistics"):
            monkeypatch.setattr(synth._SignalTable, name, spying(name))
        params = make_params(256, m)
        cfg = SweepConfig(
            params=params, n_active=64, snr_db_axis=(0.0, 10.0), methods=analysis.SWEEP_METHODS,
            targets=(si.Target(distance_m=60 * params.range_bin_m, amplitude=1.0),), n_trials=2,
        )
        monte_carlo_sweep(cfg, threads=1)
        summed = [(name, alloc) for name, alloc, kw in calls if kw == {"lags": False}]
        assert [name for name, _ in summed] == ["statistics"] * (2 * 2 * 2)
        assert {id(alloc) for _, alloc in summed} == {
            id(cfg._allocations[method]) for method in ("full_bandwidth", "equivalent_bandwidth")
        }
        virtual = [(name, alloc) for name, alloc, kw in calls if kw != {"lags": False}]
        draw = "statistics" if m == 67 else "grid"
        assert [name for name, _ in virtual] == [draw] * (2 * 2 * 2)  # points x trials x virtual slots
        for name, alloc in virtual:
            assert _gram_route(alloc, cfg.scenes[0]) is (name == "statistics")

    @pytest.mark.parametrize(
        "m, pattern, k",
        [
            (262, "constant", 200),
            (263, "constant", 200),
            (333, "constant", 200),
            (333, "constant", 229),
            (333, "constant", 230),
            (720, "constant", 200),
            (720, "constant", 300),
            (720, "nested", 200),
        ],
    )
    def test_close_to_serial_loop(self, m, pattern, k):
        grid = make_grid(1000, m, pattern, n_active=k)
        ref = serial_cpi_lags(grid)
        lags = _cpi_lags(grid)
        if _gram_read(grid.alloc):
            assert np.max(np.abs(lags - ref)) <= 1e-13 * np.max(np.abs(ref))
        else:
            assert lags.tobytes() == ref.tobytes()

    def test_linear_lag_gather_bitwise_equal_to_the_modulo_gather(self):
        # N from 2 to 299, K from 1 to N, 1 to 39 rows, every tenth block zero
        rng = np.random.default_rng(29)
        for case in range(3000):
            n = int(rng.integers(2, 300))
            k, rows = int(rng.integers(1, n + 1)), int(rng.integers(1, 40))
            alloc = si.ResourceAllocation.constant(rng.choice(n, k, replace=False), rows, n)
            block = rng.standard_normal((rows, 2 * k)).view(np.complex128)
            if case % 10 == 0:
                block[:] = 0.0
            got, want = _gram_lags(block, alloc), modulo_gram_lags(block, alloc)
            assert np.array_equal(bits(got), bits(want)), (n, k, rows)

    def test_lag_index_kept_with_the_allocation(self, monkeypatch):
        # built on the first read, then the same index, with the same bits,
        # which neither a read nor difference_set changes; it takes no part
        # in equality or repr, and the sweep's fixed nested allocation
        # builds it once per sweep
        alloc = si.ResourceAllocation.constant([0, 1, 4, 6], 3, 7)
        block = np.random.default_rng(3).standard_normal((3, 8)).view(np.complex128)
        first = _gram_lags(block, alloc)
        lag = vars(alloc)["_pair_lags"]
        before = lag.tobytes()
        assert _gram_lags(block, alloc).tobytes() == first.tobytes()
        si.difference_set(alloc)
        assert vars(alloc)["_pair_lags"] is lag
        assert lag.tobytes() == before
        assert first.tobytes() == modulo_gram_lags(block, alloc).tobytes()
        assert alloc == si.ResourceAllocation.constant([0, 1, 4, 6], 3, 7)
        assert "_pair_lags" not in repr(alloc)

        built = []
        pair_lags = alloc_module._pair_lags

        def counted(a):
            if "_pair_lags" not in vars(a):
                built.append(a)
            return pair_lags(a)

        # difference_set builds it, before the trial's read
        monkeypatch.setattr(alloc_module, "_pair_lags", counted)
        params = make_params(64, 32)
        cfg = SweepConfig(
            params=params, n_active=16, snr_db_axis=(0.0, 10.0), methods=("nested",),
            targets=(si.Target(distance_m=10 * params.range_bin_m, amplitude=1.0),), n_trials=3,
        )
        assert _gram_read(cfg._allocations["nested"])
        monte_carlo_sweep(cfg, threads=1)
        assert built == [cfg._allocations["nested"]]

    def test_same_bits_at_any_blas_thread_count(self):
        # held at one thread, the product gives one set of bits at any
        # caller's count, and they are dsyrk's own bits at one thread
        runs = [("held", "1"), ("held", "2"), ("held", "4"), ("free", "1")]
        digests = set()
        for guard, threads in runs:
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            run = subprocess.run(
                [sys.executable, "-c", GRAM_BITS, threads, guard, str(Path(__file__).parent),
                 str(Path(si.__file__).parents[1])],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            assert run.stdout.count("\n") == 8, run.stderr
            digests.add(run.stdout)
        assert len(digests) == 1


def gram_case(n, k, rows, seed):
    """A random constant allocation of k of n subcarriers and a (rows, k)
    standard normal complex block on it."""
    rng = np.random.default_rng(seed)
    alloc = si.ResourceAllocation.constant(rng.choice(n, k, replace=False), rows, n)
    return rng.standard_normal((rows, 2 * k)).view(np.complex128), alloc


class TestGramWorkspace:
    """_gram_lags reads into one workspace per thread, kept while K stays
    the same and replaced when it changes; its results own their memory
    and have the bits of a read into fresh arrays (fresh_gram_lags)."""

    def test_reads_of_changing_k_have_the_fresh_bits(self):
        for i, (n, k, rows) in enumerate(((256, 64, 32), (256, 61, 7), (1000, 200, 203), (256, 64, 128))):
            block, alloc = gram_case(n, k, rows, seed=i)
            got = _gram_lags(block, alloc)
            assert np.array_equal(bits(got), bits(fresh_gram_lags(block, alloc))), (n, k, rows)
            assert synth._workspace.planes[1].shape == (k, k)

    def test_results_share_no_memory_and_keep_their_values(self):
        block, alloc = gram_case(256, 64, 32, seed=1)
        first = _gram_lags(block, alloc)
        kept = first.tobytes()
        assert not any(np.shares_memory(first, plane) for plane in synth._workspace.planes)
        for seed, k in ((2, 64), (3, 61), (4, 64)):
            other = _gram_lags(*gram_case(256, k, 16, seed))
            assert not any(np.shares_memory(other, plane) for plane in synth._workspace.planes)
        assert first.tobytes() == kept

    def test_threads_reading_different_k_get_the_fresh_bits(self):
        # more threads than cores, switching fast, each reading its own K
        # (two share one) in turn with the others
        shapes = ((256, 64), (256, 61), (1000, 200), (256, 64))
        cases = [[gram_case(n, k, 40, 10 * i + seed) for seed in range(3)] for i, (n, k) in enumerate(shapes)]
        want = [[bits(fresh_gram_lags(*c)) for c in reads] for reads in cases]
        start, got = threading.Barrier(len(cases)), [None] * len(cases)

        def read(i):
            start.wait(timeout=60)
            got[i] = [bits(_gram_lags(*c)) for c in cases[i] * 3]

        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, reads in enumerate(want):
            assert len(got[i]) == 3 * len(reads)
            for g, w in zip(got[i], reads * 3):
                assert np.array_equal(g, w), shapes[i]

    def test_a_warm_read_allocates_less_than_one_k_squared_array(self):
        # the lag index is built with the allocation's difference set, as
        # build_virtual_signal builds it, before the read
        k = 200
        _gram_lags(*gram_case(1000, k, 203, seed=5))
        block, alloc = gram_case(1000, k, 203, seed=6)
        si.difference_set(alloc)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _gram_lags(block, alloc)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < k * k * 8

    def test_bartlett_mask_is_kept_read_only(self):
        mask = synth._upper_mask(5, 7)
        assert synth._upper_mask(5, 7) is mask
        assert not mask.flags.writeable
        assert np.array_equal(mask, np.triu(np.ones((5, 7), dtype=bool), 1))


def blas_threads():
    return synth._openblas().scipy_openblas_get_num_threads64_()


@pytest.fixture
def caller_blas_threads():
    """The caller's BLAS thread count, set to 3 for the test and put back
    after it; skips where no OpenBLAS thread control is found."""
    lib = synth._openblas()
    if lib is None:
        pytest.skip("no OpenBLAS thread control found")
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(3)
    yield 3
    lib.scipy_openblas_set_num_threads64_(before)


def probed(grid, on_product):
    """The same grid, whose active values call on_product() before each
    matrix product of the Gram route."""

    class Probe(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                on_product()
            inputs = [x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    return si.FreqGrid(
        active=grid.active.view(Probe), alloc=grid.alloc, params=grid.params,
        noise_variance=grid.noise_variance,
    )


class TestBlasGuard:
    """The Gram route's product runs at one BLAS thread, and the caller's
    count is back after it, however the product ends."""

    @pytest.fixture(autouse=True)
    def gram_reads(self, monkeypatch):
        monkeypatch.setattr(synth, "_gram_read", lambda alloc: alloc.is_constant)

    def test_product_runs_at_one_thread(self, caller_blas_threads):
        grid = make_grid(64, 8, "constant", n_active=16)
        seen = []
        lags = probed(grid, lambda: seen.append(blas_threads())).cpi_lags
        assert seen == [1]
        assert blas_threads() == caller_blas_threads
        assert lags.tobytes() == grid.cpi_lags.tobytes()

    def test_count_is_back_when_the_product_raises(self, caller_blas_threads):
        def fail():
            raise RuntimeError("product failed")

        grid = probed(make_grid(64, 8, "constant", n_active=16), fail)
        with pytest.raises(RuntimeError, match="product failed"):
            grid.cpi_lags
        assert blas_threads() == caller_blas_threads

    def test_threads_entering_and_leaving_in_any_order(self, caller_blas_threads):
        # more threads than cores, switching every few microseconds: the
        # count reads 1 inside whoever else is inside, and the caller's after
        inside, errors = [], []

        def enter_and_leave():
            try:
                for _ in range(200):
                    with synth._one_blas_thread:
                        inside.append(blas_threads())
            except BaseException as exc:
                errors.append(exc)
                raise

        workers = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers) and not errors
        assert inside == [1] * 1600
        assert blas_threads() == caller_blas_threads


class TestMemo:
    @pytest.mark.parametrize("gram", [False, True], ids=["fft", "gram"])
    def test_second_read_is_the_same_read_only_array(self, monkeypatch, gram):
        monkeypatch.setattr(synth, "_gram_read", lambda alloc: gram)
        grid = make_grid(40, 70, "constant")
        calls = []
        kernel = synth._cpi_lags
        monkeypatch.setattr(synth, "_cpi_lags", lambda g: calls.append(g) or kernel(g))
        first = grid.cpi_lags
        assert grid.cpi_lags is first
        assert not first.flags.writeable
        assert len(calls) == 1
        ref = serial_cpi_lags(grid)
        if gram:
            assert np.max(np.abs(first - ref)) <= 1e-13 * np.max(np.abs(ref))
        else:
            assert first.tobytes() == ref.tobytes()

    def test_memo_is_per_grid_and_not_compared(self):
        a = make_grid(40, 70, "constant")
        b = make_grid(40, 70, "constant")
        a.cpi_lags
        assert "_cpi_lags" not in b.__dict__
        assert b.cpi_lags is not a.cpi_lags
        assert b.cpi_lags.tobytes() == a.cpi_lags.tobytes()
        assert "_cpi_lags" not in repr(a)

    @pytest.mark.parametrize("pattern", ["constant", "per_symbol"])
    @pytest.mark.parametrize("m", [32, 2 * _ROW_BLOCK + 3])
    def test_one_pass_feeds_both_readers(self, monkeypatch, pattern, m):
        calls = []
        kernel = synth._cpi_lags
        monkeypatch.setattr(synth, "_cpi_lags", lambda g: calls.append(g) or kernel(g))
        shared = make_grid(64, m, pattern)
        doppler = si.doppler_periodogram(shared)
        if pattern == "constant":
            vs, _ = si.build_virtual_signal(shared)
        assert len(calls) == 1
        # separate passes, each on a fresh grid of the same draw
        assert doppler.values.tobytes() == si.doppler_periodogram(make_grid(64, m, pattern)).values.tobytes()
        if pattern == "constant":
            alone, _ = si.build_virtual_signal(make_grid(64, m, pattern))
            assert vs.values.tobytes() == alone.values.tobytes()
        assert len(calls) == 2 + (pattern == "constant")


class TestUsableCpus:
    def test_counts_the_cpus_this_process_may_use(self):
        cpus = analysis._usable_cpus()
        assert 1 <= cpus <= (os.cpu_count() or 1)
        if hasattr(os, "sched_getaffinity"):
            assert cpus == len(os.sched_getaffinity(0))


class TestSweepThreads:
    """monte_carlo_sweep(cfg) with threads=None: one thread per SNR point, up
    to the usable CPUs, on a grid of at least _SWEEP_THREAD_MIN_POINTS, else
    one, on either route of the lag-sum kernel.  The pool's bits equal one
    thread's, and a failed point joins every pool thread."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """max_workers of each pool the sweep opens, with 3 usable CPUs."""
        opened = []
        executor = analysis.ThreadPoolExecutor

        def recording(max_workers):
            opened.append(max_workers)
            return executor(max_workers=max_workers)

        monkeypatch.setattr(analysis, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 3)
        return opened

    @staticmethod
    def config(methods=("direct_sparse", "autocorrelation"), n_symbols=8):
        # 8 symbols x 128 points; from 20 symbols (M > K + 1 + T for up to
        # two targets) a trial draws the statistics of its virtual slots
        params = make_params(64, n_symbols)
        return SweepConfig(
            params=params,
            n_active=16,
            snr_db_axis=(-5.0, 0.0, 5.0, 10.0, 15.0),
            methods=methods,
            targets=(si.Target(distance_m=10 * params.range_bin_m, amplitude=1.0),),
            n_trials=2,
            master_seed=3,
        )

    def test_small_grid_runs_in_the_caller(self, pools, monkeypatch):
        monkeypatch.setattr(analysis, "_SWEEP_THREAD_MIN_POINTS", 8 * 128 + 1)
        monte_carlo_sweep(self.config())
        assert pools == []

    def test_large_grid_runs_one_thread_per_point_up_to_the_cpus(self, pools, monkeypatch):
        monkeypatch.setattr(analysis, "_SWEEP_THREAD_MIN_POINTS", 8 * 128)
        cfg = self.config()
        par = monte_carlo_sweep(cfg)
        assert pools == [3]
        assert_same_sweep(par, monte_carlo_sweep(cfg, threads=1))

    @pytest.mark.parametrize(
        "methods",
        [
            ("direct_sparse", "autocorrelation"),  # the random draw's grid
            ("nested",),
            ("full_bandwidth", "direct_sparse"),  # no virtual aperture read
        ],
    )
    def test_gram_route_grid_opens_the_pool(self, pools, monkeypatch, methods):
        monkeypatch.setattr(analysis, "_SWEEP_THREAD_MIN_POINTS", 32 * 128)
        cfg = self.config(methods, n_symbols=32)
        alloc = cfg._allocations.get(methods[-1]) or cfg._allocations["equivalent_bandwidth"]
        assert _gram_route(alloc, cfg.scenes[0])
        result = monte_carlo_sweep(cfg)
        assert pools == [3]
        assert_same_sweep(result, monte_carlo_sweep(cfg, threads=1))

    def test_gram_route_sweep_gives_back_the_callers_blas_count(self, pools, caller_blas_threads):
        monte_carlo_sweep(self.config(n_symbols=32), threads=3)
        assert pools == [3]
        assert blas_threads() == caller_blas_threads

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_statistics_draw_bitwise_at_any_cpu_count(self, pools, monkeypatch, cpus):
        # two moving targets on the Gram route, M = 32 > K + 3: slots 1 and
        # 4 draw their statistics, in a basis of three symbol dimensions,
        # not their grids
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(analysis, "_SWEEP_THREAD_MIN_POINTS", 1)
        monkeypatch.setattr(synth._SignalTable, "grid", None)  # never called
        cfg = self.config(analysis.SWEEP_METHODS, n_symbols=32)
        targets = tuple(
            si.Target(distance_m=d * cfg.params.range_bin_m, velocity_mps=v, amplitude=1.0)
            for d, v in ((10, 15.0), (20, -15.0))
        )
        cfg = replace(cfg, targets=targets)
        par = monte_carlo_sweep(cfg)
        assert pools == ([min(cpus, 5)] if cpus > 1 else [])
        assert_same_sweep(par, monte_carlo_sweep(cfg, threads=1))

    def test_explicit_count_is_kept(self, pools, monkeypatch):
        monkeypatch.setattr(analysis, "_SWEEP_THREAD_MIN_POINTS", 1)
        monte_carlo_sweep(self.config(), threads=1)
        assert pools == []

    @pytest.mark.parametrize("methods", [("direct_sparse", "autocorrelation"), ("nested", "full_bandwidth")])
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 2 * _ROW_BLOCK + 3, 720])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_bitwise_equal_at_any_cpu_count(self, pools, monkeypatch, cpus, m, methods):
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(analysis, "_SWEEP_THREAD_MIN_POINTS", 1)
        params = make_params(24, m)
        cfg = SweepConfig(
            params=params,
            n_active=6,
            snr_db_axis=(-5.0, 0.0, 5.0, 10.0),
            methods=methods,
            targets=(si.Target(distance_m=5 * params.range_bin_m, amplitude=1.0),),
            n_trials=2,
            master_seed=3,
        )
        par = monte_carlo_sweep(cfg)
        assert pools == ([min(cpus, 4)] if cpus > 1 else [])
        assert_same_sweep(par, monte_carlo_sweep(cfg, threads=1))

    @pytest.mark.parametrize(
        "n, m, k, cpus, threads",
        [
            (1000, 720, 250, 2, 2),  # paper size, K=250: 1.44 M points
            (1000, 720, 250, 8, 5),  # one thread per SNR point
            (1000, 720, 250, 1, 1),
            (1000, 720, 200, 8, 5),  # paper size on the Gram route
            (1000, 128, 250, 2, 1),  # two-target demo
            (256, 32, 64, 8, 1),  # desk
            (256, 1000, 200, 2, 1),  # 512,000 points
            (256, 1023, 200, 3, 1),  # one symbol short of 2**19 points
            (256, 1024, 200, 3, 3),  # 2**19 points
            (256, 1024, 64, 3, 3),  # 2**19 points, on the Gram route
            (2000, 64, 500, 8, 1),  # one block
        ],
    )
    def test_threads_need_enough_points(self, pools, monkeypatch, n, m, k, cpus, threads):
        # the rule at the real threshold; the points themselves are not run
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
        ran_in = []

        def stub_point(cfg, scene, pss):
            ran_in.append(threading.current_thread())
            # per method: (error samples, PSLR samples, misses)
            return {method: (np.zeros(0), np.zeros(0), 0) for method in cfg.methods}

        monkeypatch.setattr(analysis, "_sweep_point", stub_point)
        params = make_params(n, m)
        cfg = SweepConfig(
            params=params,
            n_active=k,
            snr_db_axis=(-5.0, 0.0, 5.0, 10.0, 15.0),
            methods=("direct_sparse", "autocorrelation"),
            targets=(si.Target(distance_m=10 * params.range_bin_m, amplitude=1.0),),
            n_trials=2,
            master_seed=3,
        )
        monte_carlo_sweep(cfg)
        assert pools == ([threads] if threads > 1 else [])
        assert len(ran_in) == 5
        assert (threading.main_thread() in ran_in) is (threads == 1)

    def test_point_exception_reaches_the_caller(self, pools, monkeypatch):
        sweep_point = analysis._sweep_point
        ran_in = []

        def failing_at_5_db(cfg, scene, pss):
            ran_in.append(threading.current_thread())
            if scene.snr_db == 5.0:
                raise RuntimeError("SNR point failed")
            return sweep_point(cfg, scene, pss)

        monkeypatch.setattr(analysis, "_sweep_point", failing_at_5_db)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="SNR point failed"):
            monte_carlo_sweep(self.config(), threads=3)
        assert pools == [3]
        assert threading.active_count() == before
        assert ran_in and threading.main_thread() not in ran_in

    def test_failed_point_still_joins_the_running_ones(self, pools, monkeypatch):
        sweep_point = analysis._sweep_point
        other_started = threading.Event()
        started, finished = [], []

        def failing_first(cfg, scene, pss):
            if scene.snr_db == cfg.snr_db_axis[0]:
                assert other_started.wait(timeout=60)
                raise RuntimeError("first SNR point failed")
            started.append(scene.snr_db)
            other_started.set()
            time.sleep(0.02)  # still running when the first point fails
            out = sweep_point(cfg, scene, pss)
            finished.append(scene.snr_db)
            return out

        monkeypatch.setattr(analysis, "_sweep_point", failing_first)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="first SNR point failed"):
            monte_carlo_sweep(self.config(), threads=3)
        assert threading.active_count() == before
        assert started and sorted(finished) == sorted(started)
