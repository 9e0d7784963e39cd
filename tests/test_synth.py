import functools
import math

import numpy as np
import pytest

import sparse_isac as si
from reference import alloc_mask, dense, dense_synthesize, eval_two_term_model, symbol_sum_row
from sparse_isac.estimators import _zero_fill
from sparse_isac.synth import _ROW_BLOCK, _gram_statistics, _symbol_basis

# the sweep's draw of a slot read by zero-fill alone: its symbol sum, in one row
one_row = functools.partial(_gram_statistics, lags=False)

C = si.SPEED_OF_LIGHT


def make_params(n=64, m=8):
    return si.OfdmParams(
        n_subcarriers=n, n_symbols=m, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9
    )


class TestSynthesize:
    def test_degenerate_target_gives_ones(self):
        # zero delay cannot happen (distance > 0), so use a tiny distance and
        # compare against the directly evaluated phasor instead of literal 1
        params = make_params()
        alloc = si.make_allocation(params, "random", n_active=16, seed=0)
        t = si.Target(distance_m=1e-9, amplitude=1.0, phase_rad=0.0)
        grid = si.synthesize(si.Scene(targets=(t,), noise_variance_w=0.0), alloc, params, seed=0)
        assert np.allclose(grid.active, 1.0, atol=1e-9)

    def test_unit_modulus_on_active_cells(self):
        params = make_params()
        alloc = si.make_allocation(params, "random", n_active=20, seed=1)
        t = si.Target(distance_m=137.0, velocity_mps=7.0, amplitude=0.8)
        grid = si.synthesize(si.Scene(targets=(t,), noise_variance_w=0.0), alloc, params, seed=3)
        assert np.allclose(np.abs(grid.active), 0.8, atol=1e-12)

    def test_zero_support_off_mask_exact(self):
        params = make_params()
        alloc = si.make_allocation(params, "random", n_active=12, seed=2)
        t = si.Target(distance_m=90.0, amplitude=1.0)
        grid = si.synthesize(si.Scene(targets=(t,), snr_db=0.0), alloc, params, seed=4)
        # one value per active cell: no cell off the mask is stored, noise included
        assert grid.active.shape == (int(alloc_mask(alloc).sum()),)

    def test_matches_direct_model_evaluation(self):
        params = make_params(n=16, m=3)
        alloc = si.make_allocation(params, "full")
        specs = [(1.0, 0.4, 120.0, 5.0), (0.7, 2.1, 260.0, -3.0)]
        targets = tuple(
            si.Target(distance_m=d, velocity_mps=v, amplitude=a, phase_rad=p)
            for a, p, d, v in specs
        )
        grid = si.synthesize(
            si.Scene(targets=targets, noise_variance_w=0.0), alloc, params, seed=0
        )
        samples = dense(grid)
        for m in range(3):
            for n in range(16):
                expect = eval_two_term_model(specs, params, m, n)
                assert samples[m, n] == pytest.approx(expect, rel=1e-12)

    def test_opposite_phases_cancel(self):
        # two equal-amplitude targets half a delay-phase cycle apart at n=1
        params = make_params(n=16, m=1)
        alloc = si.make_allocation(params, "full")
        d1 = 100.0
        # delta tau = 1/(2 df) at subcarrier 1 -> opposite phase
        d2 = d1 + C / (4 * params.subcarrier_spacing_hz)
        specs = [(1.0, 0.0, d1, 0.0), (1.0, 0.0, d2, 0.0)]
        targets = tuple(
            si.Target(distance_m=d, velocity_mps=v, amplitude=a, phase_rad=p)
            for a, p, d, v in specs
        )
        grid = si.synthesize(
            si.Scene(targets=targets, noise_variance_w=0.0), alloc, params, seed=0
        )
        expect = eval_two_term_model(specs, params, 0, 1)
        assert abs(expect) < 1e-9  # destructive by construction
        assert dense(grid)[0, 1] == pytest.approx(expect, abs=1e-9)

    def test_linearity_noise_added_once(self):
        params = make_params()
        alloc = si.make_allocation(params, "random", n_active=24, seed=5)
        t1 = si.Target(distance_m=80.0, amplitude=1.0, phase_rad=0.5)
        t2 = si.Target(distance_m=150.0, amplitude=0.6, phase_rad=1.5)
        quiet = dict(alloc=alloc, params=params, seed=7)
        g1 = dense(si.synthesize(si.Scene(targets=(t1,), noise_variance_w=0.0), **quiet))
        g2 = dense(si.synthesize(si.Scene(targets=(t2,), noise_variance_w=0.0), **quiet))
        g12 = dense(si.synthesize(si.Scene(targets=(t1, t2), noise_variance_w=0.0), **quiet))
        assert np.allclose(g12, g1 + g2, atol=1e-12)
        noisy = dense(si.synthesize(si.Scene(targets=(t1, t2), snr_db=0.0), **quiet))
        noise = noisy - g12
        rebuilt = g1 + g2 + noise
        assert np.allclose(noisy, rebuilt, atol=1e-12)

    def test_deterministic_per_seed(self):
        params = make_params()
        alloc = si.make_allocation(params, "random", n_active=16, seed=0)
        t = si.Target(distance_m=100.0, amplitude=1.0)  # random phase
        scene = si.Scene(targets=(t,), snr_db=-5.0)
        a = si.synthesize(scene, alloc, params, seed=11)
        b = si.synthesize(scene, alloc, params, seed=11)
        c = si.synthesize(scene, alloc, params, seed=12)
        assert np.array_equal(a.active, b.active)
        assert not np.array_equal(a.active, c.active)

    def test_delay_alias_warning(self):
        params = make_params()
        alloc = si.make_allocation(params, "full")
        far = C / (2 * params.subcarrier_spacing_hz) * 1.5  # beyond unambiguous span
        t = si.Target(distance_m=far, amplitude=1.0)
        with pytest.warns(UserWarning, match="alias"):
            si.synthesize(si.Scene(targets=(t,), noise_variance_w=0.0), alloc, params, seed=0)

    def test_doppler_alias_warning(self):
        params = make_params()
        alloc = si.make_allocation(params, "full")
        v_alias = 0.5 / params.symbol_dur_s * C / (2 * params.carrier_freq_hz) * 1.5
        t = si.Target(distance_m=100.0, velocity_mps=v_alias, amplitude=1.0)
        with pytest.warns(UserWarning, match="alias"):
            si.synthesize(si.Scene(targets=(t,), noise_variance_w=0.0), alloc, params, seed=0)


class TestDenseReference:
    @pytest.mark.parametrize("m", [_ROW_BLOCK - 5, _ROW_BLOCK, 2 * _ROW_BLOCK + 3])
    @pytest.mark.parametrize("pattern", ["full", "random", "per_symbol"])
    @pytest.mark.parametrize("n_targets", [1, 2])
    @pytest.mark.parametrize("noise", ["snr_db", "snr_inf", "variance_0"])
    @pytest.mark.parametrize("seed", ["int", "spawned"])
    def test_bit_identical_to_dense_reference(self, m, pattern, n_targets, noise, seed):
        params = make_params(n=40, m=m)
        if pattern == "per_symbol":
            rng = np.random.default_rng(m)
            alloc = si.ResourceAllocation(
                per_symbol_indices=tuple(
                    rng.choice(40, size=rng.integers(1, 12), replace=False) for _ in range(m)
                ),
                n_subcarriers=40,
            )
            assert not alloc.is_constant
        else:
            alloc = si.make_allocation(params, pattern, n_active=9, seed=3)
        targets = (
            si.Target(distance_m=120.0, velocity_mps=30.0, amplitude=1.0),  # drawn phase
            si.Target(distance_m=310.0, velocity_mps=-12.0, amplitude=0.4, phase_rad=2.5),
        )[:n_targets]
        scene = si.Scene(
            targets=targets,
            **{
                "snr_db": dict(snr_db=-3.0),
                "snr_inf": dict(snr_db=math.inf),
                "variance_0": dict(noise_variance_w=0.0),
            }[noise],
        )
        seed = 17 if seed == "int" else np.random.SeedSequence(17).spawn(3)[2]
        got = dense(si.synthesize(scene, alloc, params, seed=seed))
        want = dense_synthesize(scene, alloc, params, seed)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestNoiseCalibration:
    def test_noiseless_sentinel(self):
        params = make_params()
        alloc = si.make_allocation(params, "full")
        t = si.Target(distance_m=100.0, amplitude=1.0)
        scene = si.Scene(targets=(t,), noise_variance_w=0.0)
        grid = si.synthesize(scene, alloc, params, seed=0)
        assert si.measure_snr(grid, scene) == math.inf

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0])
    def test_requested_snr_calibrated(self, snr_db):
        # >= 1e5 resource elements for the law-of-large-numbers check
        params = si.OfdmParams(512, 256, 120e3, 24e9)
        alloc = si.make_allocation(params, "full")
        t = si.Target(distance_m=100.0, amplitude=1.0)
        scene = si.Scene(targets=(t,), snr_db=snr_db)
        grid = si.synthesize(scene, alloc, params, seed=99)
        assert si.measure_snr(grid, scene) == pytest.approx(snr_db, abs=0.2)
        # empirical noise power agrees with the injected variance
        quiet = si.Scene(targets=(t,), noise_variance_w=0.0)
        twin = si.synthesize(quiet, alloc, params, seed=grid.seed_ss)
        emp = float(np.mean(np.abs(grid.active - twin.active) ** 2))
        assert 10 * math.log10(emp / grid.noise_variance) == pytest.approx(0.0, abs=0.2)

    def test_noise_variance_and_whiteness(self):
        params = make_params(n=8, m=2)
        alloc = si.make_allocation(params, "full")
        t = si.Target(distance_m=77.0, amplitude=1.0, phase_rad=0.0)
        scene = si.Scene(targets=(t,), noise_variance_w=2.0)
        quiet = si.Scene(targets=(t,), noise_variance_w=0.0)
        trials = 3000
        noises = np.empty((trials, 16), dtype=complex)
        for i, s in enumerate(np.random.SeedSequence(5).spawn(trials)):
            g = si.synthesize(scene, alloc, params, seed=s)
            q = si.synthesize(quiet, alloc, params, seed=s)
            noises[i] = g.active - q.active
        var = np.mean(np.abs(noises) ** 2, axis=0)
        # per-RE variance within 3 sigma of the spec (relative std ~ 1/sqrt(trials))
        assert np.all(np.abs(var - 2.0) < 3 * 2.0 / math.sqrt(trials))
        # cross-RE covariance shrinks toward zero
        cross = np.mean(noises[:, 0] * np.conj(noises[:, 1]))
        assert abs(cross) < 3 * 2.0 / math.sqrt(trials)

    def test_real_imag_split(self):
        params = si.OfdmParams(256, 64, 120e3, 24e9)
        alloc = si.make_allocation(params, "full")
        t = si.Target(distance_m=77.0, amplitude=1.0, phase_rad=0.0)
        scene = si.Scene(targets=(t,), noise_variance_w=4.0)
        g = si.synthesize(scene, alloc, params, seed=8)
        q = si.synthesize(si.Scene(targets=(t,), noise_variance_w=0.0), alloc, params, seed=8)
        noise = g.active - q.active
        assert np.var(noise.real) == pytest.approx(2.0, rel=0.05)
        assert np.var(noise.imag) == pytest.approx(2.0, rel=0.05)


def alloc_for(pattern, params):
    if pattern == "nested":
        return si.make_allocation(params, "nested", inner=4, outer=7)
    return si.make_allocation(params, pattern, n_active=9, seed=3)


def summed_case(pattern, n_targets=1, moving=True, **noise):
    """(scene, constant allocation, params) of a symbol-sum draw."""
    params = make_params(n=40, m=13)
    alloc = alloc_for(pattern, params)
    targets = (
        si.Target(distance_m=120.0, velocity_mps=30.0 if moving else 0.0, amplitude=1.0),
        si.Target(distance_m=310.0, velocity_mps=-12.0 if moving else 0.0, amplitude=0.4,
                  phase_rad=2.5),
    )[:n_targets]
    return si.Scene(targets=targets, **(noise or dict(noise_variance_w=0.0))), alloc, params


def summed_pair(pattern, n_targets=1, moving=True, **noise):
    """(per-cell grid, symbol-sum row) of one scene, constant allocation and seed."""
    scene, alloc, params = summed_case(pattern, n_targets, moving, **noise)
    cells = si.synthesize(scene, alloc, params, seed=17)
    return cells, one_row(scene, alloc, params, seed=17).symbol_sum


class TestSymbolSum:
    """one_row: the sweep's draw of a grid's symbol sum alone, the one-row
    statistics draw (_gram_statistics, lags=False)."""

    @pytest.mark.parametrize("pattern", ["full", "random", "nested"])
    @pytest.mark.parametrize("n_targets, moving", [(1, False), (1, True), (2, True)])
    @pytest.mark.parametrize(
        "noise", [dict(noise_variance_w=0.0), dict(snr_db=0.0)], ids=["noise-free", "noisy"]
    )
    def test_matches_the_direct_draw(self, pattern, n_targets, moving, noise):
        """The same phases and the same standard normals in the same order
        as the symbol sum drawn directly (reference.symbol_sum_row): only
        round-off moves."""
        scene, alloc, params = summed_case(pattern, n_targets, moving, **noise)
        want = symbol_sum_row(scene, alloc, params, 17)
        got = one_row(scene, alloc, params, 17)
        assert got.block.shape == (1, alloc.n_active)
        assert np.all(got.symbol_sum[alloc.column_counts() == 0] == 0.0)
        assert np.max(np.abs(got.symbol_sum - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("pattern", ["full", "random", "nested"])
    @pytest.mark.parametrize("n_targets", [1, 2])
    @pytest.mark.parametrize("moving", [False, True])
    def test_noiseless_equals_per_cell_symbol_sum(self, pattern, n_targets, moving):
        cells, row = summed_pair(pattern, n_targets, moving)
        want = dense(cells).sum(axis=0)
        assert row.shape == (40,)
        assert np.all(row[cells.alloc.column_counts() == 0] == 0.0)
        assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want))

    def test_noise_variance_per_column(self):
        params = make_params(n=40, m=13)
        alloc = alloc_for("random", params)
        cols = alloc.indices
        t = si.Target(distance_m=77.0, amplitude=1.0, phase_rad=0.0)
        scene = si.Scene(targets=(t,), noise_variance_w=2.0)
        quiet = one_row(si.Scene(targets=(t,), noise_variance_w=0.0), alloc, params, None).symbol_sum
        trials = 4000
        noise = np.array([
            one_row(scene, alloc, params, s).symbol_sum - quiet
            for s in np.random.SeedSequence(23).spawn(trials)
        ])
        assert np.all(np.delete(noise, cols, axis=1) == 0.0)
        noise = noise[:, cols]
        want = 2.0 * params.n_symbols  # the sum of the column's M cell noises
        # |CN|^2 is exponential: the relative std of a mean of T is 1/sqrt(T)
        var = np.mean(np.abs(noise) ** 2, axis=0)
        assert np.all(np.abs(var / want - 1.0) < 4.0 / math.sqrt(trials))
        for part in (noise.real, noise.imag):
            half = np.mean(part**2, axis=0) / (want / 2.0)
            assert np.all(np.abs(half - 1.0) < 4.0 * math.sqrt(2.0 / trials))

    def test_per_symbol_allocation_rejected(self):
        params = make_params(n=40, m=2)
        alloc = si.make_allocation(params, "custom", indices=[[0, 5], [1, 7, 9]])
        scene = si.Scene(targets=(si.Target(distance_m=50.0, amplitude=1.0),), snr_db=0.0)
        with pytest.raises(ValueError, match="varies across symbols"):
            one_row(scene, alloc, params, 0)

    def test_constructor_checks_length(self):
        cells, row = summed_pair("random")
        with pytest.raises(ValueError, match="active cells"):
            si.FreqGrid(active=row[cells.alloc.indices], alloc=cells.alloc, params=cells.params,
                        noise_variance=0.0)

    @pytest.mark.parametrize("pattern", ["full", "random", "nested"])
    def test_zero_fill_matches_per_cell_grid(self, pattern):
        cells, row = summed_pair(pattern, n_targets=2)
        a = si.zero_fill_periodogram(cells)
        b = _zero_fill(row, cells.alloc, cells.params, a.oversample)
        assert np.array_equal(a.axis, b.axis)
        assert np.max(np.abs(a.values - b.values)) <= 1e-13 * np.max(a.values)

    def test_alias_warnings(self):
        params = make_params()
        alloc = si.make_allocation(params, "full")
        far = C / (2 * params.subcarrier_spacing_hz) * 1.5
        v_alias = 0.5 / params.symbol_dur_s * C / (2 * params.carrier_freq_hz) * 1.5
        for t in (
            si.Target(distance_m=far, amplitude=1.0),
            si.Target(distance_m=100.0, velocity_mps=v_alias, amplitude=1.0),
        ):
            scene = si.Scene(targets=(t,), noise_variance_w=0.0)
            for draw in (si.synthesize, one_row, _gram_statistics):
                with pytest.warns(UserWarning, match="alias") as record:
                    draw(scene, alloc, params, 0)
                assert record[0].filename == __file__  # blamed on the caller


def gram(rows):
    """G = sum_i z_i z_i^H of the rows z_i of a (rows, K) block."""
    return rows.T @ rows.conj()


def gram_and_sum(g, row):
    """The real draws that fix the Hermitian G and the symbol sum `row`:
    Re G on and above the diagonal, Im G above it, Re and Im of `row`."""
    upper = np.triu_indices(len(g))
    strict = np.triu_indices(len(g), 1)
    return np.concatenate([g[upper].real, g[strict].imag, row.real, row.imag])


# (N, M, active subcarriers, target velocities in m/s, basis dimension d)
STATISTICS_CASES = {
    "static": (8, 12, [0, 2, 3, 7], (0.0,), 1),
    "two_moving": (8, 12, [0, 2, 3, 7], (100.0, -100.0), 3),
    "fewer_symbols_than_subcarriers": (16, 4, [0, 1, 4, 6, 9, 15], (100.0, -100.0), 3),  # M - d < K
    "paper": (1000, 720, None, (15.0, -15.0), 3),
}


def statistics_case(name, noise_variance_w):
    """(scene, allocation, params) of a STATISTICS_CASES entry, its targets at
    fixed phases, so that the signal part of G is the same in every draw."""
    n, m, cols, velocities, _ = STATISTICS_CASES[name]
    params = make_params(n=n, m=m)
    if cols is None:
        alloc = si.make_allocation(params, "random", n_active=200, seed=5)
    else:
        alloc = si.ResourceAllocation.constant(np.array(cols), m, n)
    targets = tuple(
        si.Target(distance_m=60.0 + 90.0 * i, velocity_mps=v, amplitude=1.0 - 0.3 * i, phase_rad=0.4 + i)
        for i, v in enumerate(velocities)
    )
    return si.Scene(targets=targets, noise_variance_w=noise_variance_w), alloc, params


def assert_same_moments(x, y, z=5.0):
    """Each column of two samples (draws along axis 0) has the same mean and
    the same variance, within z standard errors of their difference; the
    standard error of a sample variance is sqrt((mu4 - var^2) / n)."""
    n = len(x)
    mx, my = x.mean(axis=0), y.mean(axis=0)
    vx, vy = x.var(axis=0), y.var(axis=0)
    assert np.all(np.abs(mx - my) <= z * np.sqrt((vx + vy) / n))
    m4x, m4y = np.mean((x - mx) ** 4, axis=0), np.mean((y - my) ** 4, axis=0)
    assert np.all(np.abs(vx - vy) <= z * np.sqrt((m4x - vx**2 + m4y - vy**2) / n))


class TestGramStatistics:
    """_gram_statistics: a Gram-route sweep slot's symbol sum and Gram matrix,
    drawn without the grid; synthesize is the reference."""

    @pytest.mark.parametrize("case", [c for c in STATISTICS_CASES if c != "paper"])
    def test_same_law_as_the_grid(self, case):
        # every entry of G, each diagonal entry on its own (the Gram matrix of
        # the factor's columns has the right trace but means 13, 11, 9, 7
        # against 10 on the diagonal at K=4, M-d=10), and the symbol sum
        scene, alloc, params = statistics_case(case, noise_variance_w=0.5)
        cols, trials = alloc.indices, 4000
        # disjoint seeds: the two draws of one seed share their first noise normals
        grids = (si.synthesize(scene, alloc, params, s) for s in range(trials))
        want = np.array([gram_and_sum(gram(g.block), g.symbol_sum[cols]) for g in grids])
        drawn = (_gram_statistics(scene, alloc, params, s) for s in range(trials, 2 * trials))
        got = np.array([gram_and_sum(gram(d.block), d.symbol_sum[cols]) for d in drawn])
        assert_same_moments(got, want)

    @pytest.mark.parametrize("case", STATISTICS_CASES)
    def test_noiseless_draw_is_the_grid_projected(self, case):
        scene, alloc, params = statistics_case(case, noise_variance_w=0.0)
        grid = si.synthesize(scene, alloc, params, 3)
        drawn = _gram_statistics(scene, alloc, params, 3)
        assert drawn.block.shape == (STATISTICS_CASES[case][-1], alloc.n_active)
        want = gram(grid.block)
        assert np.max(np.abs(gram(drawn.block) - want)) <= 1e-13 * np.max(np.abs(want))
        row = grid.symbol_sum
        assert np.all(drawn.symbol_sum[alloc.column_counts() == 0] == 0.0)
        assert np.max(np.abs(drawn.symbol_sum - row)) <= 1e-13 * np.max(np.abs(row))
        lags = grid.cpi_lags
        assert np.max(np.abs(drawn.cpi_lags - lags)) <= 1e-13 * np.max(np.abs(lags))

    @pytest.mark.parametrize("case", STATISTICS_CASES)
    def test_noisy_block_is_the_basis_rows_over_a_bartlett_factor(self, case):
        scene, alloc, params = statistics_case(case, noise_variance_w=0.5)
        block = _gram_statistics(scene, alloc, params, 3).block
        d, k = STATISTICS_CASES[case][-1], alloc.n_active
        r = min(params.n_symbols - d, k)
        assert block.shape == (d + r, k)
        factor = block[d:]
        assert np.all(np.tril(factor, -1) == 0.0)
        assert np.all(np.diagonal(factor).imag == 0.0) and np.all(np.diagonal(factor).real > 0.0)

    def test_same_draw_per_seed(self):
        scene, alloc, params = statistics_case("two_moving", noise_variance_w=0.5)
        a = _gram_statistics(scene, alloc, params, 9)
        b = _gram_statistics(scene, alloc, params, np.random.SeedSequence(9))
        assert a.block.tobytes() == b.block.tobytes()
        assert a.block.tobytes() != _gram_statistics(scene, alloc, params, 10).block.tobytes()

    def test_per_symbol_allocation_rejected(self):
        params = make_params(n=40, m=2)
        alloc = si.make_allocation(params, "custom", indices=[[0, 5], [1, 7, 9]])
        scene = si.Scene(targets=(si.Target(distance_m=50.0, amplitude=1.0),), snr_db=0.0)
        with pytest.raises(ValueError, match="varies across symbols"):
            _gram_statistics(scene, alloc, params, 0)


class TestSymbolBasis:
    @pytest.mark.parametrize(
        "m, velocities, d",
        [
            (8, (0.0,), 1),  # a static target's profile is the all-ones vector
            (8, (0.0, 0.0), 1),
            (8, (30.0,), 2),
            (8, (30.0, 30.0), 2),  # one profile, twice
            (8, (30.0, 0.0), 2),
            (8, (30.0, -30.0), 3),
            (8, (0.05, -0.05), 3),  # near-static: one Gram-Schmidt pass leaves them 1e-7 from orthogonal
            (8, (1.0, 2.0, 3.0), 4),
            (720, (15.0, -15.0, 40.0), 4),
            (2, (100.0, -100.0), 2),  # as many dimensions as symbols
            (1, (100.0,), 1),
            (8, (), 1),  # no targets: the all-ones vector alone
        ],
    )
    def test_orthonormal_basis_of_ones_and_profiles(self, m, velocities, d):
        params = make_params(m=m)
        targets = tuple(si.Target(distance_m=50.0, velocity_mps=v, amplitude=1.0) for v in velocities)
        basis = _symbol_basis(targets, params)
        assert basis.shape == (d, m)
        assert np.all(basis[0] == 1.0 / math.sqrt(m))
        assert np.max(np.abs(basis.conj() @ basis.T - np.eye(d))) <= 1e-14
        for t in targets:
            _, f_d = si.delay_doppler(t, params)
            p = np.exp(2j * np.pi * f_d * params.symbol_dur_s * np.arange(m))
            outside = p - (basis.conj() @ p) @ basis
            assert np.max(np.abs(outside)) <= 1e-13
