"""Tests for deposition-map propagation: operator, low-rank UQ, totals."""

import logging
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh

from plumeinv import uqprop
from plumeinv.errors import CalmWindError
from plumeinv.observation import DustfallJar, TimeGrid, assemble_F
from plumeinv.plume import (
    ParticleProperties,
    SourceSite,
    StabilityClass,
    plume_kernel,
    rotate_to_wind,
)
from plumeinv.uqprop import (
    CERT_TOL,
    SUBSPACE_MAX_ITER,
    DepositionGrid,
    GridSpec,
    LowRankFactors,
    annualize,
    assemble_H,
    deposition_stats,
    lowrank_truncate,
)

PARTICLE = ParticleProperties(density=2600.0, diameter=1e-5, w_dep=1.2e-2, w_set=7.8641975308642e-3)
TIMEGRID = TimeGrid(t0=0.0, dt=600.0, n_steps=8)
SITES = [
    SourceSite(id="src_a", x=0.0, y=0.0, height=5.0),
    SourceSite(id="src_b", x=60.0, y=-30.0, height=2.0),
]


def make_wind(n=TIMEGRID.n_steps, calm_step=None):
    rng = np.random.default_rng(17)
    speed = 3.5 + rng.uniform(-0.5, 0.5, n)
    angle = rng.uniform(-0.3, 0.3, n)
    u_x, u_y = speed * np.cos(angle), speed * np.sin(angle)
    if calm_step is not None:
        u_x[calm_step] = u_y[calm_step] = 0.01
    return SimpleNamespace(u_x=u_x, u_y=u_y)


class TestGridSpec:
    def test_points_layout(self):
        grid = GridSpec(x_min=0.0, x_max=2.0, y_min=10.0, y_max=11.0, n_x=3, n_y=2)
        expected = np.array([
            [0.0, 10.0], [1.0, 10.0], [2.0, 10.0],
            [0.0, 11.0], [1.0, 11.0], [2.0, 11.0],
        ])
        np.testing.assert_allclose(grid.points(), expected)
        assert grid.n_cells == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(x_min=0.0, x_max=0.0, y_min=0.0, y_max=1.0, n_x=2, n_y=2)
        with pytest.raises(ValueError):
            GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, n_x=1, n_y=2)


class TestAssembleH:
    def test_matches_unit_area_ground_jar_row(self):
        """A 1 m^2 jar at ground level integrates the same kernel column,
        so its observation row must equal the H row at that cell."""
        wind = make_wind()
        grid = GridSpec(x_min=150.0, x_max=250.0, y_min=-20.0, y_max=30.0, n_x=2, n_y=2)
        h = assemble_H(grid, SITES, wind, TIMEGRID, PARTICLE, StabilityClass.D)
        for p, (x, y) in enumerate(grid.points()):
            jar = DustfallJar(id="probe", x=x, y=y, z=0.0, area=1.0, snr=10.0)
            f = assemble_F([jar], SITES, wind, TIMEGRID, PARTICLE, StabilityClass.D)
            np.testing.assert_allclose(h[p], f[0], rtol=1e-12)

    def test_calm_steps_deposit_nothing(self):
        grid = GridSpec(x_min=100.0, x_max=200.0, y_min=-50.0, y_max=50.0, n_x=3, n_y=3)
        h = assemble_H(grid, SITES, make_wind(calm_step=2), TIMEGRID, PARTICLE, StabilityClass.D)
        n_t = TIMEGRID.n_steps
        for i in range(len(SITES)):
            assert np.all(h[:, i * n_t + 2] == 0.0)
        assert h.sum() > 0.0

    def test_matches_per_step_oracle_with_calm_step(self):
        # each entry is (w_dep dt) times the pointwise kernel, bit for bit;
        # the calm step, which has no wind frame, deposits nothing
        grid = GridSpec(x_min=-40.0, x_max=220.0, y_min=-60.0, y_max=40.0, n_x=4, n_y=3)
        wind = make_wind(calm_step=5)
        h = assemble_H(grid, SITES, wind, TIMEGRID, PARTICLE, StabilityClass.C)
        n_t = TIMEGRID.n_steps
        expected = np.zeros((grid.n_cells, len(SITES) * n_t))
        for p, (x, y) in enumerate(grid.points()):
            for i, site in enumerate(SITES):
                for j in range(n_t):
                    try:
                        lc = rotate_to_wind((x, y, 0.0), site, (wind.u_x[j], wind.u_y[j]))
                    except CalmWindError:
                        continue
                    kernel = plume_kernel(lc, PARTICLE, StabilityClass.C, site.height)
                    expected[p, i * n_t + j] = (PARTICLE.w_dep * TIMEGRID.dt) * kernel
        np.testing.assert_array_equal(h, expected)
        assert np.all(h[:, 5::n_t] == 0.0) and np.count_nonzero(h) > 0

    def test_wind_length_mismatch_raises(self):
        grid = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, n_x=2, n_y=2)
        with pytest.raises(ValueError):
            assemble_H(grid, SITES, make_wind(n=3), TIMEGRID, PARTICLE, StabilityClass.D)


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    w = rng.uniform(0.1, 2.0, n)
    q, _ = np.linalg.qr(a)
    return (q * w) @ q.T


def spd_with_spectrum(rng, eigenvalues):
    """Exactly symmetric covariance with the given eigenvalues."""
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues), len(eigenvalues))))
    cov = (q * eigenvalues) @ q.T
    return 0.5 * (cov + cov.T)


def no_dense_eigh(*args, **kwargs):
    raise AssertionError("dense eigh called")


def reference_subspace(cov, k):
    """The subspace iteration with fresh NumPy arrays each step (np.linalg.qr,
    cov @ q), the independent oracle of the fixed-workspace one."""
    n = cov.shape[0]
    block = min(k + uqprop.SUBSPACE_OVERSAMPLE, n)
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, block)))
    for iteration in range(1, SUBSPACE_MAX_ITER + 1):
        cq = cov @ q
        theta, u = np.linalg.eigh(q.T @ cq)
        lam, u = theta[::-1][:k], u[:, ::-1][:, :k]
        vectors = q @ u
        residual = np.linalg.norm(cq @ u - vectors * lam, axis=0).max() / lam[0]
        if residual <= CERT_TOL:
            return lam, vectors, iteration
        q, _ = np.linalg.qr(cq)
    raise AssertionError("reference iteration did not certify")


class TestSubspaceIteration:
    def test_decaying_spectrum_certifies_without_dense_eigh(self, monkeypatch):
        rng = np.random.default_rng(11)
        n, k = 600, 20
        cov = spd_with_spectrum(rng, 10.0 ** (-np.arange(n) / 40.0))
        monkeypatch.setattr(uqprop, "eigh", no_dense_eigh)
        fac = lowrank_truncate(cov, k)
        assert fac.method == "subspace"
        assert 1 <= fac.iterations < SUBSPACE_MAX_ITER
        assert fac.max_relative_residual <= CERT_TOL
        ref_lam, ref_vec = np.linalg.eigh(cov)
        ref_lam, ref_vec = ref_lam[::-1][:k], ref_vec[:, ::-1][:, :k]
        np.testing.assert_allclose(fac.eigenvalues, ref_lam, rtol=0.0, atol=1e-10 * ref_lam[0])
        np.testing.assert_allclose(fac.vectors.T @ fac.vectors, np.eye(k), atol=1e-12)

        grid = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, n_x=6, n_y=5)
        h = rng.standard_normal((grid.n_cells, n))
        q = rng.uniform(0.0, 1.0, n)
        got = deposition_stats(h, q, fac, grid)
        dense_var = np.diag(h @ ((ref_vec * ref_lam) @ ref_vec.T) @ h.T)
        np.testing.assert_allclose(got.std, np.sqrt(dense_var), rtol=1e-9)

    def test_matches_the_reference_iteration(self, monkeypatch):
        rng = np.random.default_rng(15)
        n, k = 700, 40
        cov = spd_with_spectrum(rng, 10.0 ** (-np.arange(n) / 50.0))
        monkeypatch.setattr(uqprop, "eigh", no_dense_eigh)
        fac = lowrank_truncate(cov, k)
        lam, vectors, iterations = reference_subspace(cov, k)
        assert (fac.method, fac.iterations) == ("subspace", iterations)
        np.testing.assert_allclose(fac.eigenvalues, lam, rtol=1e-12, atol=0.0)
        signs = np.sign(np.sum(fac.vectors * vectors, axis=0))
        np.testing.assert_allclose(fac.vectors * signs, vectors, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("rank", [30, 130])
    def test_rank_below_the_block_certifies(self, rank, monkeypatch):
        # like the scatter of a short chain: rank below the 160-column block,
        # and for rank 30 below the kept modes too
        rng = np.random.default_rng(16)
        n, k = 500, 100
        states = rng.standard_normal((rank, n)) * rng.uniform(0.5, 2.0, (rank, 1))
        cov = states.T @ states / rank
        cov = 0.5 * (cov + cov.T)
        monkeypatch.setattr(uqprop, "eigh", no_dense_eigh)
        fac = lowrank_truncate(cov, k)
        assert fac.method == "subspace" and fac.max_relative_residual <= CERT_TOL
        expected = np.maximum(np.linalg.eigvalsh(cov)[::-1][:k], 0.0)
        np.testing.assert_allclose(fac.eigenvalues, expected, rtol=0.0, atol=1e-10 * expected[0])
        np.testing.assert_allclose(fac.vectors.T @ fac.vectors, np.eye(k), atol=1e-12)

    def test_iteration_runs_in_a_fixed_workspace(self):
        # q and C q (n x block) and the residual and the result (n x n_modes);
        # no copy of the covariance and no fresh block per iteration
        rng = np.random.default_rng(17)
        n, k = 1200, 100
        cov = spd_with_spectrum(rng, 10.0 ** (-np.arange(n) / 60.0))
        block = k + uqprop.SUBSPACE_OVERSAMPLE
        workspace = (2 * n * block + 2 * n * k) * 8
        tracemalloc.start()
        try:
            fac = lowrank_truncate(cov, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fac.method == "subspace" and fac.iterations > 2
        assert peak < 1.1 * workspace, f"peak {peak / workspace:.2f} x the workspace"

    def test_flat_spectrum_falls_back_to_dense_eigh(self, caplog):
        rng = np.random.default_rng(12)
        n, k = 300, 10
        cov = spd_with_spectrum(rng, rng.uniform(1.0, 1.001, n))
        with caplog.at_level(logging.WARNING, logger="plumeinv.uqprop"):
            fac = lowrank_truncate(cov, k)
        assert "falling back" in caplog.text
        assert fac.method == "dense_fallback"
        assert fac.iterations == SUBSPACE_MAX_ITER
        lam, vec = eigh((0.5 * (cov + cov.T)).T, subset_by_index=[n - k, n - 1], overwrite_a=True)
        np.testing.assert_array_equal(fac.eigenvalues, np.maximum(lam[::-1], 0.0))
        np.testing.assert_array_equal(fac.vectors, vec[:, ::-1])

    def test_reruns_are_bit_identical_and_leave_the_input(self):
        rng = np.random.default_rng(13)
        cov = spd_with_spectrum(rng, 0.8 ** np.arange(200))
        before = cov.copy()
        first, second = lowrank_truncate(cov, 15), lowrank_truncate(cov, 15)
        np.testing.assert_array_equal(cov, before)
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.vectors, second.vectors)
        assert (first.method, first.iterations, first.max_relative_residual) == (
            second.method, second.iterations, second.max_relative_residual
        )

    @pytest.mark.parametrize("skew", [0.0, 5e-9])
    def test_pairs_of_the_symmetric_part(self, skew, monkeypatch):
        # skew = 0 keeps the input exactly symmetric; 5e-9 of the largest
        # entry is inside SYM_TOL but far above the certificate, so pairs
        # of cov itself rather than of its symmetric part would fail it
        rng = np.random.default_rng(14)
        n, k = 400, 12
        sym = spd_with_spectrum(rng, 10.0 ** (-np.arange(n) / 30.0))
        noise = rng.uniform(-1.0, 1.0, (n, n))
        cov = sym + skew * np.abs(sym).max() * (noise - noise.T)
        assert np.array_equal(cov, cov.T) == (skew == 0.0)
        monkeypatch.setattr(uqprop, "eigh", no_dense_eigh)
        fac = lowrank_truncate(cov, k)
        assert fac.method == "subspace"
        residual = np.linalg.norm(sym @ fac.vectors - fac.vectors * fac.eigenvalues, axis=0)
        assert residual.max() <= CERT_TOL * fac.eigenvalues[0]
        expected = np.linalg.eigvalsh(sym)[::-1][:k]
        np.testing.assert_allclose(fac.eigenvalues, expected, rtol=0.0, atol=1e-10 * expected[0])


class TestLowRankTruncate:
    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(0)
        cov = random_spd(rng, 20)
        fac = lowrank_truncate(cov, 20)
        recon = (fac.vectors * fac.eigenvalues) @ fac.vectors.T
        np.testing.assert_allclose(recon, cov, rtol=0.0, atol=1e-8 * np.abs(cov).max())

    def test_truncation_error_is_next_eigenvalue(self):
        """Spectral-norm optimality of the rank-k eigenexpansion."""
        rng = np.random.default_rng(1)
        cov = random_spd(rng, 30)
        k = 10
        fac = lowrank_truncate(cov, k)
        recon = (fac.vectors * fac.eigenvalues) @ fac.vectors.T
        all_eigs = np.sort(np.linalg.eigvalsh(cov))[::-1]
        gap = np.linalg.norm(cov - recon, ord=2)
        assert gap == pytest.approx(all_eigs[k], rel=1e-9)

    @pytest.mark.parametrize("k", [1, 9, 25])
    def test_eigenvalues_match_full_spectrum(self, k):
        rng = np.random.default_rng(5)
        cov = random_spd(rng, 25)
        fac = lowrank_truncate(cov, k)
        expected = np.linalg.eigvalsh(cov)[::-1][:k]
        np.testing.assert_allclose(fac.eigenvalues, expected, rtol=1e-12)
        np.testing.assert_allclose(
            cov @ fac.vectors, fac.vectors * fac.eigenvalues, atol=1e-12
        )

    def test_ordering_and_orthonormality(self):
        rng = np.random.default_rng(2)
        fac = lowrank_truncate(random_spd(rng, 15), 7)
        assert np.all(np.diff(fac.eigenvalues) <= 0)
        np.testing.assert_allclose(fac.vectors.T @ fac.vectors, np.eye(7), atol=1e-12)
        assert fac.n_modes == 7

    def test_roundoff_negatives_clamped(self):
        cov = np.diag([1.0, -1e-13])
        fac = lowrank_truncate(cov, 2)
        assert fac.eigenvalues[-1] == 0.0

    def test_asymmetric_raises(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            lowrank_truncate(bad, 1)

    def test_tiled_checks_match_full_matrix_formula(self):
        # n spans several asymmetry tiles plus a ragged last one; entries
        # of -1000 set the scale, so 1e-6 asymmetry is inside the tolerance
        rng = np.random.default_rng(8)
        n, k = 601, 12
        cov = random_spd(rng, n)
        cov[5, 590] = cov[590, 5] = -1000.0
        cov[600, 1] += 1e-6
        before = cov.copy()
        fac = lowrank_truncate(cov, k)
        np.testing.assert_array_equal(cov, before)
        assert fac.method == "dense_fallback"  # the flat spectrum does not certify
        lam, vec = eigh((0.5 * (cov + cov.T)).T, subset_by_index=[n - k, n - 1], overwrite_a=True)
        np.testing.assert_array_equal(fac.eigenvalues, np.maximum(lam[::-1], 0.0))
        np.testing.assert_array_equal(fac.vectors, vec[:, ::-1])

        cov[600, 1] += 1e-4  # now beyond 1e-8 of the largest entry
        before = cov.copy()
        with pytest.raises(ValueError, match="asymmetric"):
            lowrank_truncate(cov, k)
        np.testing.assert_array_equal(cov, before)

    def test_bad_mode_count_raises(self):
        cov = np.eye(4)
        with pytest.raises(ValueError):
            lowrank_truncate(cov, 0)
        with pytest.raises(ValueError):
            lowrank_truncate(cov, 5)

    def test_nonsquare_raises(self):
        with pytest.raises(ValueError):
            lowrank_truncate(np.ones((3, 2)), 1)


class TestLowRankFactors:
    def test_increasing_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            LowRankFactors(eigenvalues=np.array([1.0, 2.0]), vectors=np.eye(2))

    def test_negative_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            LowRankFactors(eigenvalues=np.array([1.0, -0.1]), vectors=np.eye(2))


class TestDepositionStats:
    def test_std_matches_dense_pushforward(self):
        rng = np.random.default_rng(3)
        grid = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, n_x=5, n_y=6)
        n = 24
        h = rng.standard_normal((grid.n_cells, n))
        cov = random_spd(rng, n)
        q = rng.uniform(0.0, 1.0, n)
        fac = lowrank_truncate(cov, n)
        got = deposition_stats(h, q, fac, grid)
        np.testing.assert_allclose(got.mean, h @ q, rtol=1e-12)
        dense_var = np.diag(h @ cov @ h.T)
        np.testing.assert_allclose(got.std, np.sqrt(dense_var), rtol=1e-9)

    def test_truncated_std_is_monotone_in_rank(self):
        """Adding modes only adds variance."""
        rng = np.random.default_rng(4)
        grid = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, n_x=2, n_y=3)
        h = rng.standard_normal((grid.n_cells, 12))
        cov = random_spd(rng, 12)
        q = np.zeros(12)
        stds = [
            deposition_stats(h, q, lowrank_truncate(cov, k), grid).std for k in (2, 6, 12)
        ]
        assert np.all(stds[0] <= stds[1] + 1e-15)
        assert np.all(stds[1] <= stds[2] + 1e-15)

    def test_grid_shape_validation(self):
        grid = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, n_x=2, n_y=2)
        with pytest.raises(ValueError):
            DepositionGrid(mean=np.zeros(3), std=np.zeros(3), grid=grid)
        with pytest.raises(ValueError):
            DepositionGrid(mean=np.zeros(4), std=np.array([0.0, -1.0, 0.0, 0.0]), grid=grid)


class TestAnnualize:
    def test_constant_rate_literal(self):
        # 1 kg/s for a year is 31,536,000 kg = 31,536 tonnes
        grid = TimeGrid(t0=0.0, dt=3600.0, n_steps=24)
        assert annualize(np.ones(24), grid) == pytest.approx(31536.0)

    def test_sums_over_sources(self):
        grid = TimeGrid(t0=0.0, dt=3600.0, n_steps=4)
        q = np.concatenate([np.full(4, 0.25), np.full(4, 0.75)])
        assert annualize(q, grid) == pytest.approx(31536.0)

    def test_time_mean_not_sum(self):
        grid = TimeGrid(t0=0.0, dt=3600.0, n_steps=2)
        q = np.array([0.0, 2.0])  # mean 1 kg/s
        assert annualize(q, grid) == pytest.approx(31536.0)

    def test_length_mismatch_raises(self):
        grid = TimeGrid(t0=0.0, dt=3600.0, n_steps=5)
        with pytest.raises(ValueError):
            annualize(np.ones(7), grid)
