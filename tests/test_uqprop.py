"""Tests for deposition-map propagation: operator, low-rank UQ, totals."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError, eigh, svd
from scipy.sparse import csr_array

from plumeinv import plume, uqprop
from plumeinv.errors import NumericalError
from plumeinv.observation import DustfallJar, TimeGrid, assemble_F
from plumeinv.plume import (
    ParticleProperties,
    PlumeModel,
    SourceSite,
    StabilityClass,
    kernel_profile,
)
from plumeinv.sampling import SKETCH_SIZE, CovarianceSketch, _sketch_matrix
from plumeinv.uqprop import (
    DepositionGrid,
    GridSpec,
    LowRankFactors,
    annualize,
    assemble_H,
    deposition_stats,
    lowrank_truncate,
)
from plumeinv.windprep import WindSeries

PARTICLE = ParticleProperties(w_dep=1.2e-2, w_set=7.8641975308642e-3)
TIMEGRID = TimeGrid(t0=0.0, dt=600.0, n_steps=8)
SITES = [
    SourceSite(id="src_a", x=0.0, y=0.0, height=5.0),
    SourceSite(id="src_b", x=60.0, y=-30.0, height=2.0),
]
MODEL = PlumeModel(SITES, PARTICLE, StabilityClass.D)


def make_wind(calm_step=None):
    rng = np.random.default_rng(17)
    speed = 3.5 + rng.uniform(-0.5, 0.5, TIMEGRID.n_steps)
    angle = rng.uniform(-0.3, 0.3, TIMEGRID.n_steps)
    u_x, u_y = speed * np.cos(angle), speed * np.sin(angle)
    if calm_step is not None:
        u_x[calm_step] = u_y[calm_step] = 0.01
    return WindSeries(TIMEGRID, u_x, u_y)


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
        with pytest.raises(ValueError, match="grid.n_modes"):
            GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, n_modes=SKETCH_SIZE // 2 + 1)
        assert GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, n_modes=200).n_modes == 200


def dense_h(grid, model, wind):
    """H entry by entry: (w_dep dt) times the single-wind kernel at each cell
    and step, in source-major columns. A calm step has no wind frame and
    deposits nothing."""
    n_t = wind.grid.n_steps
    cells = np.column_stack([grid.points(), np.zeros(grid.n_cells)])
    h = np.zeros((grid.n_cells, len(model.sites) * n_t))
    for j in range(n_t):
        kernels = kernel_profile(cells, model, (wind.u_x[j], wind.u_y[j]))
        for i in range(len(model.sites)):
            h[:, i * n_t + j] = (model.particle.w_dep * wind.grid.dt) * kernels[:, i]
    return h


class TestAssembleH:
    N = len(SITES) * TIMEGRID.n_steps

    def test_matches_unit_area_ground_jar_row(self):
        """A 1 m^2 jar at ground level integrates the same kernel column,
        so its observation row must equal the H row at that cell."""
        wind = make_wind()
        grid = GridSpec(x_min=150.0, x_max=250.0, y_min=-20.0, y_max=30.0, n_x=2, n_y=2)
        h = assemble_H(grid, MODEL, wind, np.eye(self.N))
        for p, (x, y) in enumerate(grid.points()):
            jar = DustfallJar(id="probe", x=x, y=y, z=0.0, area=1.0, snr=10.0)
            f = assemble_F([jar], MODEL, wind).toarray()
            np.testing.assert_allclose(h[p], f[0], rtol=1e-12)

    def test_calm_steps_deposit_nothing(self):
        grid = GridSpec(x_min=100.0, x_max=200.0, y_min=-50.0, y_max=50.0, n_x=3, n_y=3)
        h = assemble_H(grid, MODEL, make_wind(calm_step=2), np.eye(self.N))
        n_t = TIMEGRID.n_steps
        for i in range(len(SITES)):
            assert np.all(h[:, i * n_t + 2] == 0.0)
        assert h.sum() > 0.0

    def test_matches_per_step_oracle_with_calm_step(self):
        # H applied to the identity is the oracle bit for bit: each product
        # entry sums one kernel and zeros
        grid = GridSpec(x_min=-40.0, x_max=220.0, y_min=-60.0, y_max=40.0, n_x=4, n_y=3)
        wind = make_wind(calm_step=5)
        model = PlumeModel(SITES, PARTICLE, StabilityClass.C)
        h = assemble_H(grid, model, wind, np.eye(self.N))
        np.testing.assert_array_equal(h, dense_h(grid, model, wind))
        n_t = TIMEGRID.n_steps
        assert np.all(h[:, 5::n_t] == 0.0) and np.count_nonzero(h) > 0

    @pytest.mark.parametrize("block_entries", [108, 20])
    @pytest.mark.parametrize("k", [None, 1, 6])
    def test_product_matches_the_oracle_times_x(self, monkeypatch, block_entries, k):
        # 108 entries over 12 cells x 2 sources make blocks of 4 steps; 20,
        # fewer than the 24 pairs, make blocks of one step. A 1-D x gives a
        # 1-D product.
        monkeypatch.setattr(plume, "BLOCK_ENTRIES", block_entries)
        grid = GridSpec(x_min=-40.0, x_max=220.0, y_min=-60.0, y_max=40.0, n_x=4, n_y=3)
        wind = make_wind(calm_step=5)
        model = PlumeModel(SITES, PARTICLE, StabilityClass.C)
        x = np.random.default_rng(31).uniform(0.1, 2.0, (self.N,) if k is None else (self.N, k))
        hx = assemble_H(grid, model, wind, x)
        assert hx.shape == (grid.n_cells,) + x.shape[1:]
        np.testing.assert_allclose(hx, dense_h(grid, model, wind) @ x, rtol=1e-12)
        assert np.count_nonzero(hx) > 0


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


def sketch_of(cov, omega):
    """The sketch the chain would stream for the covariance ``cov`` with the
    sparse test matrix ``omega``."""
    return CovarianceSketch(diag=np.diag(cov).copy(), omega=omega, y=np.asfortranarray(cov @ omega))


def unexplained_share(factor, cov):
    return 1.0 - float(np.vdot(factor, factor)) / float(np.trace(cov))


def reference_nystrom(cov, omega, k):
    """Leading pairs of the dense n x n shifted Nystrom matrix
    Y (Omega^T (Y + nu Omega))^-1 Y^T by NumPy's eigh, with the test matrix
    made dense: the independent oracle of the factored path."""
    omega = omega.toarray()
    y = cov @ omega
    nu = np.sqrt(cov.shape[0]) * np.spacing(np.linalg.norm(y))
    core = omega.T @ (y + nu * omega)
    approx = y @ np.linalg.solve(0.5 * (core + core.T), y.T)
    lam, vectors = np.linalg.eigh(0.5 * (approx + approx.T))
    return lam[::-1][:k], vectors[:, ::-1][:, :k]


class TestSubspaceIteration:
    """The sketch Y = C Omega is one pass of block subspace iteration from the
    start Omega, here the chain's sparse sign test matrix (Halko, Martinsson
    & Tropp 2011, sec. 5.5); the Nystrom core takes the place of the
    Rayleigh-Ritz step."""

    def test_decaying_spectrum_certifies_without_dense_eigh(self):
        rng = np.random.default_rng(11)
        n, k = 600, 20
        cov = spd_with_spectrum(rng, 10.0 ** (-np.arange(n) / 20.0))
        factor = sketch_of(cov, _sketch_matrix(n)).nystrom_factor()
        assert factor.shape == (n, SKETCH_SIZE)
        # the spectrum past the sketch is below 1e-20; what is left is the
        # shift, at most nu (about 2.5e-13 here) on each of the 400 columns
        assert 0.0 <= unexplained_share(factor, cov) < 1e-10
        fac = lowrank_truncate(factor, k)
        ref_lam, ref_vec = np.linalg.eigh(cov)
        ref_lam, ref_vec = ref_lam[::-1][:k], ref_vec[:, ::-1][:, :k]
        np.testing.assert_allclose(fac.eigenvalues, ref_lam, rtol=0.0, atol=1e-10 * ref_lam[0])
        np.testing.assert_allclose(fac.vectors.T @ fac.vectors, np.eye(k), atol=1e-12)

        grid = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, n_x=6, n_y=5)
        h = rng.standard_normal((grid.n_cells, n))
        q = rng.uniform(0.0, 1.0, n)
        got = deposition_stats(h @ np.column_stack([q, fac.vectors]), fac, grid)
        dense_var = np.diag(h @ ((ref_vec * ref_lam) @ ref_vec.T) @ h.T)
        np.testing.assert_allclose(got.std, np.sqrt(dense_var), rtol=1e-9)

    def test_matches_the_reference_iteration(self):
        # a slow spectrum, where the sketch is far from exact: the factored
        # path still gives the pairs of the same Nystrom matrix
        rng = np.random.default_rng(15)
        n, k = 700, 40
        cov = spd_with_spectrum(rng, 10.0 ** (-np.arange(n) / 150.0))
        omega = _sketch_matrix(n)
        fac = lowrank_truncate(sketch_of(cov, omega).nystrom_factor(), k)
        lam, vectors = reference_nystrom(cov, omega, k)
        np.testing.assert_allclose(fac.eigenvalues, lam, rtol=1e-12, atol=0.0)
        signs = np.sign(np.sum(fac.vectors * vectors, axis=0))
        np.testing.assert_allclose(fac.vectors * signs, vectors, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("rank", [30, 130])
    def test_rank_below_the_block_certifies(self, rank):
        # like the second moment of a short chain: rank below the sketch's
        # columns, and for rank 30 below the kept modes too; the sketch is
        # then exact up to rounding
        rng = np.random.default_rng(16)
        n, k = 500, 100
        states = rng.standard_normal((rank, n)) * rng.uniform(0.5, 2.0, (rank, 1))
        cov = states.T @ states / rank
        cov = 0.5 * (cov + cov.T)
        factor = sketch_of(cov, _sketch_matrix(n)).nystrom_factor()
        # exact but for the shift: at most nu on each of the rank directions
        assert 0.0 <= unexplained_share(factor, cov) < 1e-10
        fac = lowrank_truncate(factor, k)
        lam, vectors = eigh(cov)
        lam, vectors = np.maximum(lam[::-1][:k], 0.0), vectors[:, ::-1][:, :k]
        np.testing.assert_allclose(fac.eigenvalues, lam, rtol=0.0, atol=1e-10 * lam[0])
        np.testing.assert_allclose(fac.vectors.T @ fac.vectors, np.eye(k), atol=1e-12)
        kept = min(rank, k)
        residual = np.linalg.norm(
            cov @ fac.vectors[:, :kept] - fac.vectors[:, :kept] * fac.eigenvalues[:kept], axis=0
        )
        assert residual.max() <= 1e-10 * lam[0]

    def test_iteration_runs_in_a_fixed_workspace(self):
        # the factor and the SVD hold a few n x width arrays and nothing n x n
        rng = np.random.default_rng(17)
        n, k = 3000, 100
        states = rng.standard_normal((600, n))
        sketch = sketch_of(states.T @ states / 600, _sketch_matrix(n))
        del states
        block = n * SKETCH_SIZE * 8
        tracemalloc.start()
        try:
            fac = lowrank_truncate(sketch.nystrom_factor(), k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fac.n_modes == k
        assert peak < 5 * block < n * n * 8, f"peak {peak / block:.2f} x n x width"

    def test_reruns_are_bit_identical_and_leave_the_input(self):
        # the factor is written over the sketch's Y, and over nothing else
        rng = np.random.default_rng(13)
        n = 500
        cov = spd_with_spectrum(rng, 0.8 ** np.arange(n))
        omega = _sketch_matrix(n)
        inputs = (cov, omega.data, omega.indices, omega.indptr)
        before = [a.copy() for a in inputs]
        first, second = (sketch_of(cov, omega) for _ in range(2))
        y = first.y
        factor = first.nystrom_factor()
        assert np.shares_memory(factor, y) and first.y is None
        a, b = lowrank_truncate(factor, 15), lowrank_truncate(second.nystrom_factor(), 15)
        for array, copy in zip(inputs, before):
            np.testing.assert_array_equal(array, copy)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.vectors, b.vectors)


class TestNystromFactor:
    @pytest.mark.parametrize("n", [12, 100, SKETCH_SIZE])
    def test_full_width_sketch_keeps_the_whole_trace(self, n):
        # with Omega the identity, E E^T = C (C + nu I)^-1 C: short of C by
        # at most nu per eigenvalue, never above it
        rng = np.random.default_rng(n)
        cov = random_spd(rng, n)
        factor = sketch_of(cov, csr_array(np.eye(n))).nystrom_factor()
        share = unexplained_share(factor, cov)
        assert 0.0 <= share <= 1e-12

    @pytest.mark.parametrize("decay", [10.0, 100.0, 1000.0])
    def test_share_is_never_negative(self, decay):
        rng = np.random.default_rng(int(decay))
        n = 600
        cov = spd_with_spectrum(rng, 10.0 ** (-np.arange(n) / decay))
        factor = sketch_of(cov, _sketch_matrix(n)).nystrom_factor()
        assert 0.0 <= unexplained_share(factor, cov) < 1.0

    def test_indefinite_core_raises(self):
        omega = csr_array(np.eye(3))
        sketch = CovarianceSketch(diag=-np.ones(3), omega=omega, y=-np.eye(3, order="F"))
        with pytest.raises(NumericalError, match="sketch core"):
            sketch.nystrom_factor()


class TestLowRankTruncate:
    """The pairs of E E^T for a factor E; here the Cholesky factor of C."""

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(0)
        cov = random_spd(rng, 20)
        fac = lowrank_truncate(np.linalg.cholesky(cov), 20)
        recon = (fac.vectors * fac.eigenvalues) @ fac.vectors.T
        np.testing.assert_allclose(recon, cov, rtol=0.0, atol=1e-8 * np.abs(cov).max())

    def test_truncation_error_is_next_eigenvalue(self):
        """Spectral-norm optimality of the rank-k eigenexpansion."""
        rng = np.random.default_rng(1)
        cov = random_spd(rng, 30)
        k = 10
        fac = lowrank_truncate(np.linalg.cholesky(cov), k)
        recon = (fac.vectors * fac.eigenvalues) @ fac.vectors.T
        all_eigs = np.sort(np.linalg.eigvalsh(cov))[::-1]
        gap = np.linalg.norm(cov - recon, ord=2)
        assert gap == pytest.approx(all_eigs[k], rel=1e-9)

    @pytest.mark.parametrize("k", [1, 9, 25])
    def test_eigenvalues_match_full_spectrum(self, k):
        rng = np.random.default_rng(5)
        cov = random_spd(rng, 25)
        fac = lowrank_truncate(np.linalg.cholesky(cov), k)
        expected = np.linalg.eigvalsh(cov)[::-1][:k]
        np.testing.assert_allclose(fac.eigenvalues, expected, rtol=1e-12)
        np.testing.assert_allclose(
            cov @ fac.vectors, fac.vectors * fac.eigenvalues, atol=1e-12
        )

    def test_ordering_and_orthonormality(self):
        rng = np.random.default_rng(2)
        fac = lowrank_truncate(np.linalg.cholesky(random_spd(rng, 15)), 7)
        assert np.all(np.diff(fac.eigenvalues) <= 0)
        np.testing.assert_allclose(fac.vectors.T @ fac.vectors, np.eye(7), atol=1e-12)
        assert fac.n_modes == 7

    def test_fortran_factor_is_taken_in_place_and_matches_a_copying_svd(self):
        """On a tall factor LAPACK's SVD itself starts with a QR and takes the
        SVD of R, so the eigenvalues are SciPy's s^2 bit for bit. Its U is its
        Q times all of R's vectors, formed by a GEMM, where the route applies
        Q to the kept columns: the vectors agree to rounding, sign included."""
        rng = np.random.default_rng(8)
        factor = np.asfortranarray(rng.standard_normal((300, 40)))
        before = factor.copy(order="F")
        u, s, _ = svd(before.copy(order="F"), full_matrices=False)
        fac = lowrank_truncate(factor, 12)
        np.testing.assert_array_equal(fac.eigenvalues, s[:12] ** 2)
        np.testing.assert_allclose(fac.vectors, u[:, :12], rtol=0.0, atol=1e-14)
        assert np.all(np.sum(fac.vectors * u[:, :12], axis=0) > 0)  # no column's sign flips
        # no copy was made: the QR worked in the factor's own storage
        assert not np.array_equal(factor, before)

    @pytest.mark.parametrize("n", [40, 400])
    def test_square_factor_matches_a_copying_svd(self, n):
        """A case of at most ``SKETCH_SIZE`` slots has a square factor, whose
        SVD LAPACK takes without a QR. Eigenvalues and vectors still agree to
        rounding; a vector's sign may differ, which no deposition std sees."""
        rng = np.random.default_rng(n)
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        factor = np.asfortranarray((q1 * np.geomspace(1.0, 1e-3, n)) @ q2.T)
        u, s, _ = svd(factor, full_matrices=False)
        m = n // 4
        fac = lowrank_truncate(factor, m)
        np.testing.assert_allclose(fac.eigenvalues, s[:m] ** 2, rtol=1e-13, atol=0.0)
        signs = np.sign(np.sum(fac.vectors * u[:, :m], axis=0))
        np.testing.assert_allclose(fac.vectors * signs, u[:, :m], rtol=0.0, atol=1e-13)

    def test_memory_beyond_the_factor_is_the_kept_vectors_and_a_few_small_arrays(self):
        """Beyond the n x k factor the eigensolve allocates the n x ``n_modes``
        vectors and at most five k x k arrays: R, its SVD and LAPACK's
        workspace. On 5040 x 400 with 100 modes tracemalloc read 7.94 MB,
        4.03 MB of vectors and 3.1 k^2 doubles; the thin SVD of the whole
        factor, which formed U, 5040 x 400, read 22.6 MB."""
        n, k, m = 5040, SKETCH_SIZE, 100
        factor = np.asfortranarray(np.random.default_rng(9).standard_normal((n, k)))
        tracemalloc.start()
        try:
            fac = lowrank_truncate(factor, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fac.vectors.shape == (n, m)
        bound = 8 * (n * m + 5 * k * k)
        assert peak < bound, f"eigensolve peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_factor_is_a_numerical_error(self, value):
        factor = np.asfortranarray(np.random.default_rng(4).standard_normal((50, 20)))
        factor[17, 3] = value
        with pytest.raises(NumericalError, match="eigensolve: the 50 x 20 covariance factor is not finite"):
            lowrank_truncate(factor, 5)

    def test_non_finite_r_is_a_numerical_error(self, monkeypatch):
        """An R that the QR left non-finite reaches the SVD's finiteness check."""
        geqrf = uqprop.lapack.dgeqrf

        def overflowing(a, **kwargs):
            qr, tau, work, info = geqrf(a, **kwargs)
            qr[0, 0] = np.inf
            return qr, tau, work, info

        monkeypatch.setattr(uqprop.lapack, "dgeqrf", overflowing)
        factor = np.asfortranarray(np.random.default_rng(4).standard_normal((50, 20)))
        with pytest.raises(NumericalError, match="eigensolve: the SVD of the 50 x 20"):
            lowrank_truncate(factor, 5)

    def test_svd_failure_is_a_numerical_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise LinAlgError("SVD did not converge")

        monkeypatch.setattr(uqprop, "svd", failing)
        factor = np.asfortranarray(np.random.default_rng(4).standard_normal((50, 20)))
        with pytest.raises(NumericalError, match="eigensolve: the SVD of the 50 x 20"):
            lowrank_truncate(factor, 5)

    def test_bad_mode_count_raises(self):
        with pytest.raises(ValueError):
            lowrank_truncate(np.eye(4), 0)
        with pytest.raises(ValueError):
            lowrank_truncate(np.eye(4), 5)
        with pytest.raises(ValueError):  # a 4 x 2 factor has rank 2 at most
            lowrank_truncate(np.ones((4, 2)), 3)

    def test_non_matrix_factor_raises(self):
        with pytest.raises(ValueError):
            lowrank_truncate(np.ones(3), 1)


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
        fac = lowrank_truncate(np.linalg.cholesky(cov), n)
        got = deposition_stats(h @ np.column_stack([q, fac.vectors]), fac, grid)
        np.testing.assert_allclose(got.mean, h @ q, rtol=1e-12)
        dense_var = np.diag(h @ cov @ h.T)
        np.testing.assert_allclose(got.std, np.sqrt(dense_var), rtol=1e-9)

    def test_matches_a_copying_svd_on_a_small_case(self):
        """On a case of 480 slots, more than the sketch's width, the deposition
        mean and std from the eigensolve match those from the thin SVD of a
        copy of the chain's Nystrom factor, whose whole U is formed, within
        1e-12 relative."""
        rng = np.random.default_rng(12)
        timegrid = TimeGrid(t0=0.0, dt=600.0, n_steps=240)
        speed = 3.5 + rng.uniform(-0.5, 0.5, timegrid.n_steps)
        angle = rng.uniform(-0.3, 0.3, timegrid.n_steps)
        wind = WindSeries(timegrid, speed * np.cos(angle), speed * np.sin(angle))
        n = len(SITES) * timegrid.n_steps
        factor = sketch_of(spd_with_spectrum(rng, np.geomspace(1.0, 1e-6, n)), _sketch_matrix(n)).nystrom_factor()
        assert factor.shape == (n, SKETCH_SIZE)
        u, s, _ = svd(factor.copy(order="F"), full_matrices=False)
        m = SKETCH_SIZE // 4
        oracle = LowRankFactors(eigenvalues=s[:m] ** 2, vectors=u[:, :m])
        fac = lowrank_truncate(factor, m)
        q = rng.uniform(0.0, 1.0, n)
        grid = GridSpec(x_min=-40.0, x_max=220.0, y_min=-60.0, y_max=40.0, n_x=5, n_y=4)
        got, want = (
            deposition_stats(assemble_H(grid, MODEL, wind, np.column_stack([q, f.vectors])), f, grid)
            for f in (fac, oracle)
        )
        assert np.count_nonzero(want.std) > grid.n_cells // 2  # cells upwind of every source see none
        np.testing.assert_allclose(got.mean, want.mean, rtol=1e-12)
        np.testing.assert_allclose(got.std, want.std, rtol=1e-12)

    def test_truncated_std_is_monotone_in_rank(self):
        """Adding modes only adds variance."""
        rng = np.random.default_rng(4)
        grid = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, n_x=2, n_y=3)
        h = rng.standard_normal((grid.n_cells, 12))
        cov = random_spd(rng, 12)
        q = np.zeros(12)
        stds = []
        for k in (2, 6, 12):
            fac = lowrank_truncate(np.linalg.cholesky(cov), k)
            stds.append(deposition_stats(h @ np.column_stack([q, fac.vectors]), fac, grid).std)
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
