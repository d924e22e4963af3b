"""Tests for the three estimation stages against closed-form references.

The Gaussian stage is checked against the information-form update
(C^-1 + F^T S^-1 F)^-1, which shares no code path with the production
innovation-form solve. The constant stage is checked by verifying the
KKT conditions, re-solving the discovered active set by least squares, and
against ``scipy.optimize.nnls``, a compiled implementation of the same
Lawson-Hanson method that the package itself does not import.
"""

import logging
import math
import random
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.optimize import nnls as scipy_nnls
from scipy.sparse import csr_array, issparse

from plumeinv import inversion, sampling
from plumeinv.errors import NumericalError
from plumeinv.inversion import (
    GaussianPosterior,
    PriorConfig,
    SmoothnessPrior,
    clip_positive,
    gaussian_posterior,
    make_potential,
    mle_constant,
    positive_posterior,
    whiten,
)
from plumeinv.observation import TimeGrid
from plumeinv.sampling import SKETCH_SIZE, OnlineMoments, SamplerConfig


def make_prior(n_sources=1, n_steps=6, dt=3600.0, alpha=2.0, gamma=0.05):
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=n_steps)
    return SmoothnessPrior(PriorConfig(alpha=alpha, gamma=gamma), grid, n_sources)


class TestPriorConfig:
    def test_validation(self):
        grid = TimeGrid(t0=0.0, dt=60.0, n_steps=4)
        with pytest.raises(ValueError):
            PriorConfig(alpha=0.0, gamma=0.1)
        with pytest.raises(ValueError):
            PriorConfig(alpha=1.0, gamma=-0.1)
        with pytest.raises(ValueError):
            SmoothnessPrior(PriorConfig(alpha=1.0, gamma=0.1), grid, n_sources=0)


class TestSmoothnessPrior:
    def test_l_matrix_three_step_literal(self):
        """alpha = sqrt(3), dt = 1, T = 3 makes the overall scale exactly 1."""
        grid = TimeGrid(t0=0.0, dt=1.0, n_steps=3)
        prior = SmoothnessPrior(PriorConfig(alpha=math.sqrt(3.0), gamma=0.1), grid, n_sources=1)
        # ratio (T/dt)^2 = 9; Neumann stencil diag (-1, -2, -1), off-diag 1
        expected = np.array([
            [1.9, -0.9, 0.0],
            [-0.9, 2.8, -0.9],
            [0.0, -0.9, 1.9],
        ])
        np.testing.assert_allclose(prior.l_matrix, expected, rtol=1e-12)

    def test_cov_block_is_l_inverse_squared(self):
        prior = make_prior(n_steps=8)
        l_inv = np.linalg.inv(prior.l_matrix)
        np.testing.assert_allclose(prior.cov_block(), l_inv @ l_inv, rtol=1e-9, atol=1e-14)

    def test_apply_cov_matches_dense(self):
        prior = make_prior(n_sources=3, n_steps=7)
        dense = prior.dense_cov()
        rng = np.random.default_rng(0)
        x = rng.standard_normal(prior.n)
        np.testing.assert_allclose(
            prior.apply_cov_to_rows(x.copy()), dense @ x, rtol=1e-9, atol=1e-14
        )
        xm = rng.standard_normal((prior.n, 4))
        rows = xm.T.copy()  # each column of xm as a row
        got = prior.apply_cov_to_rows(rows)
        assert np.shares_memory(got, rows)
        np.testing.assert_allclose(got.T, dense @ xm, rtol=1e-9, atol=1e-14)

    def test_apply_cov_rejects_wrong_length(self):
        prior = make_prior(n_sources=2, n_steps=5)
        with pytest.raises(ValueError):
            prior.apply_cov_to_rows(np.zeros(7))

    def test_dense_cov_is_block_diagonal(self):
        prior = make_prior(n_sources=2, n_steps=4)
        dense = prior.dense_cov()
        np.testing.assert_array_equal(dense[:4, 4:], np.zeros((4, 4)))
        np.testing.assert_allclose(dense[:4, :4], dense[4:, 4:], rtol=1e-12)

    def test_marginal_var_is_cov_diagonal(self):
        prior = make_prior(n_steps=9)
        np.testing.assert_allclose(prior.marginal_var(), np.diag(prior.cov_block()), rtol=1e-12)

    def test_sample_moments(self):
        prior = make_prior(n_sources=2, n_steps=5, alpha=1.5)
        rng = np.random.default_rng(1)
        draws = np.array([prior.sample(rng) for _ in range(6000)])
        var = prior.marginal_var()
        target = np.concatenate([var, var])
        np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=4.0 * np.sqrt(var.max() / 6000))
        np.testing.assert_allclose(draws.var(axis=0), target, rtol=0.15)
        # independent source blocks
        cross = np.corrcoef(draws[:, 2], draws[:, 7])[0, 1]
        assert abs(cross) < 0.06

    def test_block_draws_match_single_draws(self):
        """size=b draws what b single calls draw, and leaves rng where they do."""
        prior = make_prior(n_sources=3, n_steps=50, alpha=1.5, gamma=0.02)
        block_rng, single_rng = np.random.default_rng(9), np.random.default_rng(9)
        block = prior.sample(block_rng, size=13)
        singles = np.array([prior.sample(single_rng) for _ in range(13)])
        assert block.shape == (13, prior.n)
        assert block_rng.bit_generator.state == single_rng.bit_generator.state
        np.testing.assert_array_equal(block, singles)

    def test_sample_is_the_chains_fill_then_solve(self):
        """sample(rng, size) is fill_normals, place_normals and solve, bit for
        bit, also when the stream is drawn in the chain's blocks of 64."""
        prior = make_prior(n_sources=3, n_steps=50, alpha=1.5, gamma=0.02)
        want = prior.sample(np.random.Generator(np.random.Philox(4)), size=70)
        rng = np.random.Generator(np.random.Philox(4))
        for start, stop in ((0, sampling.BLOCK_SIZE), (sampling.BLOCK_SIZE, 70)):
            normals = np.empty((stop - start, *prior.normal_shape))
            prior.fill_normals(rng, normals)
            draws = np.empty((stop - start, prior.n))
            prior.place_normals(normals, draws)
            prior.solve(draws)
            np.testing.assert_array_equal(draws, want[start:stop])

    def test_block_solve_matches_banded_cholesky(self):
        """The dpttrf/dpttrs solve agrees with a banded Cholesky solve of L."""
        prior = make_prior(n_sources=2, n_steps=300, alpha=1.0, gamma=5e-3)
        l_mat = prior.l_matrix
        banded = np.zeros((2, prior.n_steps))
        banded[0, 1:] = np.diag(l_mat, 1)
        banded[1] = np.diag(l_mat)
        factor = cholesky_banded(banded)
        draws = prior.sample(np.random.default_rng(2), size=5)
        xi = np.random.default_rng(2).standard_normal((5, prior.n_steps, 2))
        for k in range(5):
            want = cho_solve_banded((factor, False), xi[k]).T.ravel()
            np.testing.assert_allclose(draws[k], want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_pointwise_variance_stable_under_refinement(self):
        """Halving dt (same span) moves pointwise prior variances < 10%."""
        coarse = make_prior(n_steps=60, dt=3600.0, alpha=5.0, gamma=5e-3)
        fine = make_prior(n_steps=120, dt=1800.0, alpha=5.0, gamma=5e-3)
        v_coarse = coarse.marginal_var()
        v_fine = fine.marginal_var()[1::2]  # matching right endpoints
        rel = np.abs(v_fine - v_coarse) / v_coarse
        assert rel.max() < 0.10

    def test_alpha_scales_variance(self):
        base = make_prior(alpha=1.0).marginal_var()
        tight = make_prior(alpha=2.0).marginal_var()
        np.testing.assert_allclose(tight, base / 4.0, rtol=1e-10)


def random_system(rng, n_sources=2, n_steps=6, n_meas=8):
    """Random positive observation model with a smoothness prior."""
    prior = make_prior(
        n_sources=n_sources,
        n_steps=n_steps,
        alpha=float(rng.uniform(0.5, 4.0)),
        gamma=float(rng.uniform(0.01, 0.2)),
    )
    f = rng.uniform(0.0, 1.0, (n_meas, prior.n)) * rng.uniform(0.5, 2.0)
    noise_var = rng.uniform(0.05, 0.5, n_meas)
    d = rng.standard_normal(n_meas)
    m = rng.standard_normal(prior.n)
    return prior, f, noise_var, d, m


def information_form(prior, f, noise_var, d, m):
    """Reference posterior via the precision-matrix route."""
    l_dense = prior.l_matrix
    l_sq = l_dense @ l_dense
    n_s = prior.n_sources
    prec_prior = np.kron(np.eye(n_s), l_sq)
    prec = prec_prior + f.T @ (f / noise_var[:, None])
    cov = np.linalg.inv(prec)
    mean = m + cov @ (f.T @ ((d - f @ m) / noise_var))
    return mean, 0.5 * (cov + cov.T)


class TestGaussianPosterior:
    def test_matches_information_form_100_trials(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n_sources = int(rng.integers(1, 4))
            n_steps = int(rng.integers(3, 9))
            n_meas = int(rng.integers(1, 13))
            prior, f, noise_var, d, m = random_system(rng, n_sources, n_steps, n_meas)
            got = gaussian_posterior(f, d, noise_var, prior, m)
            want_mean, want_cov = information_form(prior, f, noise_var, d, m)
            np.testing.assert_allclose(got.mean, want_mean, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(got.cov, want_cov, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(
                got.std, np.sqrt(np.diag(want_cov)), rtol=1e-8, atol=1e-10
            )

    def test_scalar_conjugate_update(self):
        """Observing one coordinate reduces to the textbook scalar update."""
        prior = make_prior(n_steps=4)
        c = prior.dense_cov()
        f = np.zeros((1, 4))
        f[0, 1] = 1.0
        d = np.array([2.5])
        noise = np.array([0.3])
        m = np.array([0.1, -0.2, 0.4, 0.0])
        post = gaussian_posterior(f, d, noise, prior, m)
        gain = c[:, 1] / (c[1, 1] + noise[0])
        np.testing.assert_allclose(post.mean, m + gain * (d[0] - m[1]), rtol=1e-10)
        np.testing.assert_allclose(post.cov, c - np.outer(gain, c[1, :]), rtol=1e-9, atol=1e-14)

    def test_posterior_never_exceeds_prior_variance(self):
        rng = np.random.default_rng(7)
        prior, f, noise_var, d, m = random_system(rng, 2, 6, 10)
        post = gaussian_posterior(f, d, noise_var, prior, m)
        slack = 1e-12 * prior.marginal_var().max()
        prior_diag = np.diag(prior.dense_cov())
        assert np.all(np.diag(post.cov) <= prior_diag + slack)
        # C - cov is PSD (information never hurts)
        eigs = np.linalg.eigvalsh(prior.dense_cov() - post.cov)
        assert eigs.min() > -1e-10

    def test_huge_noise_returns_prior(self):
        rng = np.random.default_rng(8)
        prior, f, _, d, m = random_system(rng)
        post = gaussian_posterior(f, d, np.full(len(d), 1e14), prior, m)
        np.testing.assert_allclose(post.mean, m, atol=1e-5)
        np.testing.assert_allclose(post.cov, prior.dense_cov(), rtol=1e-5, atol=1e-12)

    def test_tiny_noise_interpolates_data(self):
        prior = make_prior(n_steps=4)
        f = np.eye(4)
        d = np.array([1.0, 2.0, 1.5, 0.5])
        post = gaussian_posterior(f, d, np.full(4, 1e-14), prior, np.zeros(4))
        np.testing.assert_allclose(post.mean, d, rtol=1e-5)
        assert np.all(post.std < 1e-5)

    def test_singular_innovation_raises(self):
        prior = make_prior(n_steps=4)
        f = np.vstack([np.ones(4), np.ones(4)])  # duplicate rows
        with pytest.raises(NumericalError):
            gaussian_posterior(f, np.array([1.0, 1.0]), np.zeros(2), prior, np.zeros(4))

    def test_indefinite_innovation_gives_the_condition_number_of_s(self):
        """Negative noise variances on the last rows make S indefinite past
        its leading rows, so the factorization fails part-way through; the
        message gives the condition number of S itself, read from the
        triangle the factorization leaves."""
        rng = np.random.default_rng(9)
        prior, f, noise_var, d, m = random_system(rng, 2, 6, 10)
        noise_var[-3:] = -10.0 * np.max(f @ prior.dense_cov() @ f.T)
        s = f @ prior.dense_cov() @ f.T + np.diag(noise_var)
        assert np.linalg.eigvalsh(s).min() < 0 < np.linalg.eigvalsh(s[:7, :7]).min()
        with pytest.raises(NumericalError, match="innovation matrix factorization failed") as err:
            gaussian_posterior(f, d, noise_var, prior, m)
        cond = float(re.search(r"condition number ([^)]+)\)", str(err.value)).group(1))
        assert math.isfinite(cond)
        assert cond == pytest.approx(np.linalg.cond(s), rel=1e-3)

    def test_std_clips_roundoff_negatives(self):
        # W removes all of the prior variance of slot 1 plus one roundoff
        # step, and half of the variance of slot 2
        prior = make_prior(n_steps=3)
        var = prior.marginal_var()
        w = np.zeros((2, 3))
        w[0, 1] = np.sqrt(var[1]) * (1.0 + 1e-15)
        w[1, 2] = np.sqrt(0.5 * var[2])
        std = GaussianPosterior.pointwise_std(prior, np.einsum("ij,ij->j", w, w))
        assert var[1] - w[0, 1] ** 2 < 0.0
        np.testing.assert_allclose(std, np.sqrt([var[0], 0.0, 0.5 * var[2]]), rtol=1e-12)
        assert std[1] == 0.0


def windowed_f(rng, n_sources, n_steps, n_meas, width=30):
    """Sampler-like F: each row covers one window of ``width`` slots per source."""
    f = np.zeros((n_meas, n_sources * n_steps))
    for k in range(n_meas):
        start = int(rng.integers(0, n_steps - width))
        for s in range(n_sources):
            lo = s * n_steps + start
            f[k, lo : lo + width] = rng.uniform(0.1, 1.0, width)
    return f


class TestSparseF:
    """Every stage takes F as CSR; a dense F runs the same arithmetic."""

    def make_case(self, seed=21):
        rng = np.random.default_rng(seed)
        prior = make_prior(n_sources=3, n_steps=40, alpha=1.5, gamma=0.02)
        f = windowed_f(rng, 3, 40, 25, width=6)
        noise_var = rng.uniform(0.01, 0.1, 25)
        d = f @ rng.uniform(0.5, 1.5, prior.n) + rng.normal(0.0, np.sqrt(noise_var))
        return prior, f, noise_var, d

    def test_mle_constant_dense_and_csr_agree(self):
        _, f, noise_var, d = self.make_case()
        dense = mle_constant(f, d, noise_var, 3)
        sparse = mle_constant(csr_array(f), d, noise_var, 3)
        np.testing.assert_allclose(sparse.rates, dense.rates, rtol=1e-14, atol=0.0)
        assert sparse.kkt_residual == pytest.approx(dense.kkt_residual, rel=1e-14, abs=1e-300)

    def test_gaussian_posterior_dense_and_csr_agree(self):
        prior, f, noise_var, d = self.make_case()
        m = np.full(prior.n, 0.9)
        dense = gaussian_posterior(f, d, noise_var, prior, m)
        sparse = gaussian_posterior(csr_array(f), d, noise_var, prior, m)
        np.testing.assert_allclose(sparse.mean, dense.mean, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(sparse.std, dense.std, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(
            sparse.cov, dense.cov, rtol=1e-14, atol=1e-14 * dense.std.max() ** 2
        )

    def test_whiten_dense_and_csr_agree(self):
        _, f, noise_var, d = self.make_case()
        f_csr = csr_array(f)
        before = f_csr.copy()
        dense_f, dense_d = whiten(f, d, noise_var)
        sparse_f, sparse_d = whiten(f_csr, d, noise_var)
        assert sparse_f.format == dense_f.format == "csr"
        np.testing.assert_allclose(sparse_f.toarray(), dense_f.toarray(), rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(sparse_d, dense_d, rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(f_csr.toarray(), before.toarray())  # input left as it was

    def test_smooth_stage_holds_no_measurement_by_slot_array(self):
        """7 sources x 1000 slots, 300 rows: F C is formed a few rows, or one
        source's columns, at a time, so the peak stays below half of one
        (n_meas, n) array (it read 0.26; 1.27 when F C was held whole)."""
        rng = np.random.default_rng(23)
        n_sources, n_steps, n_meas = 7, 1000, 300
        prior = make_prior(n_sources=n_sources, n_steps=n_steps, dt=3600.0, alpha=1.0, gamma=5e-3)
        f = csr_array(windowed_f(rng, n_sources, n_steps, n_meas))
        noise_var = np.full(n_meas, 0.1)
        d = rng.normal(1.0, 0.3, n_meas)
        one_array = n_meas * prior.n * 8
        tracemalloc.start()
        try:
            post = gaussian_posterior(f, d, noise_var, prior, np.zeros(prior.n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * one_array, f"peak {peak / one_array:.2f} (n_meas, n) arrays"
        assert np.all(np.isfinite(post.std)) and np.all(post.std > 0)

    def test_smooth_stage_holds_one_buffer(self):
        """2 sources x 1000 slots, 300 rows: the peak stays below 1.5 (n_meas, n)
        arrays, and the posterior keeps no array of that size."""
        rng = np.random.default_rng(22)
        n_sources, n_steps, n_meas = 2, 1000, 300
        prior = make_prior(n_sources=n_sources, n_steps=n_steps, dt=3600.0, alpha=1.0, gamma=5e-3)
        f = csr_array(windowed_f(rng, n_sources, n_steps, n_meas))
        noise_var = np.full(n_meas, 0.1)
        d = rng.normal(1.0, 0.3, n_meas)
        m = np.zeros(prior.n)
        one_buffer = n_meas * prior.n * 8
        tracemalloc.start()
        try:
            post = gaussian_posterior(f, d, noise_var, prior, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * one_buffer, f"peak {peak / one_buffer:.2f} (n_meas, n) arrays"
        # no array kept is larger than (n_meas, n_meas)
        for name, value in vars(post).items():
            held = value.data.size if issparse(value) else np.size(value)
            assert held <= n_meas * n_meas, name
        assert np.all(np.isfinite(post.std)) and np.all(post.std > 0)


def constant_design(f, n_sources):
    n_meas, n_cols = f.shape
    return f.reshape(n_meas, n_sources, n_cols // n_sources).sum(axis=2)


class TestMleConstant:
    def test_recovers_noiseless_truth(self):
        rng = np.random.default_rng(0)
        n_sources, n_t = 3, 5
        f = rng.uniform(0.1, 1.0, (12, n_sources * n_t))
        p_true = np.array([0.8, 0.0, 2.5])
        d = f @ np.repeat(p_true, n_t)
        fit = mle_constant(f, d, np.full(12, 0.01), n_sources)
        np.testing.assert_allclose(fit.rates, p_true, rtol=1e-8, atol=1e-10)
        np.testing.assert_array_equal(fit.q, np.repeat(fit.rates, n_t))
        assert fit.kkt_residual <= 1e-10
        assert fit.unique

    def test_active_set_least_squares_agreement(self):
        """Re-solving the reported active set by plain least squares must
        reproduce the rates, and inactive gradients must point uphill."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            n_sources, n_t, n_meas = 4, 3, 9
            f = rng.uniform(0.0, 1.0, (n_meas, n_sources * n_t))
            d = rng.standard_normal(n_meas)  # sign-mixed: zeros likely
            noise_var = rng.uniform(0.02, 0.2, n_meas)
            fit = mle_constant(f, d, noise_var, n_sources)
            design = constant_design(f, n_sources) / np.sqrt(noise_var)[:, None]
            target = d / np.sqrt(noise_var)
            active = fit.rates > 0
            if active.any():
                ls, *_ = np.linalg.lstsq(design[:, active], target, rcond=None)
                np.testing.assert_allclose(fit.rates[active], ls, rtol=1e-8, atol=1e-10)
            grad = design.T @ (target - design @ fit.rates)
            assert np.all(grad[~active] <= 1e-8)

    def test_duplicate_sources_flagged_nonunique(self, caplog):
        rng = np.random.default_rng(5)
        n_t = 4
        col = rng.uniform(0.1, 1.0, (6, n_t))
        f = np.hstack([col, col])  # two identical sources
        d = col.sum(axis=1) * 2.0
        with caplog.at_level(logging.WARNING, logger="plumeinv.inversion"):
            fit = mle_constant(f, d, np.full(6, 0.01), 2)
        assert not fit.unique
        assert any("not unique" in r.message for r in caplog.records)

    def test_column_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            mle_constant(np.ones((3, 7)), np.ones(3), np.ones(3), 2)


class TestNnlsOracle:
    """The constant stage's own NNLS solve against ``scipy.optimize.nnls``:
    the same residual norm to 1e-12 relative, at rates that are nonnegative."""

    N_SOURCES, N_T, N_MEAS = 7, 3, 40

    def case(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.uniform(0.0, 1.0, (self.N_MEAS, self.N_SOURCES * self.N_T))
        return rng, f, rng.uniform(0.02, 0.2, self.N_MEAS)

    def solve_both(self, f, d, noise_var):
        fit = mle_constant(f, d, noise_var, self.N_SOURCES)
        design = constant_design(f, self.N_SOURCES) / np.sqrt(noise_var)[:, None]
        target = d / np.sqrt(noise_var)
        _, oracle_norm = scipy_nnls(design, target)
        assert np.all(fit.rates >= 0)
        norm = np.linalg.norm(design @ fit.rates - target)
        np.testing.assert_allclose(norm, oracle_norm, rtol=1e-12, atol=0.0)
        return fit

    def test_sign_mixed_targets(self):
        """Random targets of both signs leave some rates on the bound."""
        on_bound = off_bound = 0
        for seed in range(100):
            rng, f, noise_var = self.case(seed)
            fit = self.solve_both(f, rng.standard_normal(self.N_MEAS), noise_var)
            on_bound += int(np.sum(fit.rates == 0))
            off_bound += int(np.sum(fit.rates > 0))
        assert on_bound and off_bound

    def test_zero_column_stays_at_zero(self):
        rng, f, noise_var = self.case(101)
        f[:, self.N_T : 2 * self.N_T] = 0.0  # source 1 reaches no sensor
        d = f @ np.repeat(rng.uniform(0.5, 2.0, self.N_SOURCES), self.N_T)
        fit = self.solve_both(f, d + 0.1 * rng.standard_normal(self.N_MEAS), noise_var)
        assert fit.rates[1] == 0.0
        assert not fit.unique  # any rate of source 1 fits as well

    def test_identical_columns_are_flagged(self, caplog):
        rng, f, noise_var = self.case(102)
        f[:, self.N_T : 2 * self.N_T] = f[:, : self.N_T]  # sources 0 and 1 alike
        d = f @ np.repeat(rng.uniform(0.5, 2.0, self.N_SOURCES), self.N_T)
        d += 0.1 * rng.standard_normal(self.N_MEAS)
        with caplog.at_level(logging.WARNING, logger="plumeinv.inversion"):
            fit = self.solve_both(f, d, noise_var)
        assert not fit.unique
        assert any("not unique" in r.message for r in caplog.records)

    def test_all_negative_target_gives_zero(self):
        rng, f, noise_var = self.case(103)
        fit = self.solve_both(f, -rng.uniform(0.1, 1.0, self.N_MEAS), noise_var)
        np.testing.assert_array_equal(fit.rates, np.zeros(self.N_SOURCES))

    def test_iteration_cap_raises(self, monkeypatch):
        rng, f, noise_var = self.case(104)
        d = f @ np.repeat(rng.uniform(0.5, 2.0, self.N_SOURCES), self.N_T)
        monkeypatch.setattr(inversion, "_NNLS_ITER_PER_UNKNOWN", 0)
        with pytest.raises(NumericalError, match="constant stage's NNLS"):
            mle_constant(f, d, noise_var, self.N_SOURCES)


class TestClipAndPotential:
    def test_clip_positive(self):
        np.testing.assert_array_equal(
            clip_positive(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )

    def test_potential_hand_value(self):
        f = np.array([[1.0, 2.0], [0.0, 1.0]])
        d = np.array([1.0, 1.0])
        noise_var = np.array([4.0, 1.0])
        phi = make_potential(f, d, noise_var)
        # clip([-1, 3]) = [0, 3]; F h = [6, 3]; r = [5, 2]; whitened [2.5, 2]
        assert phi(np.array([-1.0, 3.0])) == pytest.approx(5.125, rel=1e-12)

    def test_identity_link_is_quadratic(self):
        f = np.array([[1.0, 0.5]])
        d = np.array([0.0])
        phi = make_potential(f, d, np.array([1.0]), link=lambda v: v)
        v = np.array([2.0, 2.0])
        assert phi(2.0 * v) == pytest.approx(4.0 * phi(v), rel=1e-12)

    @pytest.mark.parametrize("link", [clip_positive, lambda v: v], ids=["clip", "identity"])
    def test_matches_dense_oracle_on_sparse_f(self, link):
        """The pre-whitened sparse F gives the dense misfit, zero rows and columns included."""
        rng = np.random.default_rng(11)
        f = rng.uniform(0.0, 3.0, (40, 90)) * (rng.random((40, 90)) < 0.05)
        f[[0, 7, 31]] = 0.0
        f[:, [2, 45, 89]] = 0.0
        d = rng.normal(0.0, 1.0, 40)
        noise_var = rng.uniform(0.1, 4.0, 40)
        phi = make_potential(f, d, noise_var, link=link)
        for _ in range(5):
            v = rng.normal(0.0, 1.0, 90)
            residual = (f @ link(v) - d) / np.sqrt(noise_var)
            assert phi(v) == pytest.approx(0.5 * float(residual @ residual), rel=1e-12)


class TestChainPotential:
    @pytest.mark.parametrize("beta, level", [(0.3, 0.6), (0.02, 0.1)])
    def test_accept_loop_phi_matches_make_potential(self, monkeypatch, beta, level):
        """The data-space phi of every kept state equals the make_potential oracle,
        for states whose proposal had negative entries (clipped to zero) and
        for states without. A small beta carries F v through many short
        steps, where rounding error would build up without the per-block
        refresh."""
        rng = np.random.default_rng(12)
        # prior std about 0.25 around the mean level: some states clip, most do
        # not (the short steps of the small beta need a lower level to reach 0)
        prior = make_prior(n_sources=2, n_steps=20, alpha=6.0, gamma=0.02)
        f = rng.uniform(0.0, 0.5, (8, prior.n)) * (rng.random((8, prior.n)) < 0.5)
        noise_var = rng.uniform(0.5, 1.5, 8)
        truth = rng.uniform(0.0, 1.0, prior.n)
        d = f @ truth + rng.normal(0.0, np.sqrt(noise_var))
        prior_mean = np.full(prior.n, level)
        cfg = SamplerConfig(beta=beta, n_steps=3000, burn_in_fraction=0.1, seed=4)

        seen = []
        original = OnlineMoments.update_block

        def recording(self, rows, counts=None):
            seen.append(np.repeat(rows, np.asarray(counts, dtype=int), axis=0))
            original(self, rows, counts)

        monkeypatch.setattr(OnlineMoments, "update_block", recording)
        f_white, d_white = whiten(f, d, noise_var)
        run = sampling.pcn_chain(f_white, d_white, prior_mean, prior, cfg, clip_positive)
        states = np.concatenate(seen)  # h(v) of each kept state, in order
        assert len(states) == len(run.phi_trace) == cfg.n_steps - cfg.n_burn
        clipped = (states == 0.0).any(axis=1)
        assert 0 < clipped.sum() < len(states)
        phi = make_potential(f, d, noise_var)
        want = np.array([phi(state) for state in states])
        np.testing.assert_allclose(run.phi_trace[clipped], want[clipped], rtol=1e-12)
        np.testing.assert_allclose(run.phi_trace[~clipped], want[~clipped], rtol=1e-12)


class SleepyPrior(SmoothnessPrior):
    """A smoothness prior that pauses a seeded 0-8 ms before each normal
    fill (on the draw thread) and before each copy of the normals (on the
    main thread), so the draw thread at times lags the main thread and at
    times fills the whole ring ahead of it."""

    def __init__(self, *args, seed):
        super().__init__(*args)
        self.fill_pauses, self.place_pauses = random.Random(seed), random.Random(seed + 1)

    def fill_normals(self, rng, out):
        time.sleep(self.fill_pauses.uniform(0.0, 0.008))
        super().fill_normals(rng, out)

    def place_normals(self, normals, out):
        time.sleep(self.place_pauses.uniform(0.0, 0.008))
        super().place_normals(normals, out)


class TestDrawThread:
    @pytest.mark.parametrize("n_steps", [1017, 40, 33])
    def test_scheduling_does_not_change_the_chain(self, n_steps):
        """Pauses in either thread change nothing: the potential trace,
        acceptances, mean, diagonal and sketch match bit for bit, over many
        blocks, below one and at one chunk of draws plus a step."""
        rng = np.random.default_rng(12)
        args = (PriorConfig(alpha=6.0, gamma=0.02), TimeGrid(t0=0.0, dt=3600.0, n_steps=20), 2)
        prior = SmoothnessPrior(*args)
        f = rng.uniform(0.0, 0.5, (8, prior.n)) * (rng.random((8, prior.n)) < 0.5)
        noise_var = rng.uniform(0.5, 1.5, 8)
        d = f @ rng.uniform(0.0, 1.0, prior.n) + rng.normal(0.0, np.sqrt(noise_var))
        f_white, d_white = whiten(f, d, noise_var)
        cfg = SamplerConfig(beta=0.3, n_steps=n_steps, burn_in_fraction=0.1, seed=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter between the threads often
        try:
            runs = [
                sampling.pcn_chain(f_white, d_white, np.full(prior.n, 0.6), chain_prior, cfg,
                                   clip_positive)
                for chain_prior in (prior, SleepyPrior(*args, seed=1), SleepyPrior(*args, seed=3))
            ]
        finally:
            sys.setswitchinterval(interval)
        plain = runs[0]
        assert 0 < plain.acceptance_rate < 1
        for run in runs[1:]:
            np.testing.assert_array_equal(run.phi_trace, plain.phi_trace)
            assert run.acceptance_rate == plain.acceptance_rate
            np.testing.assert_array_equal(run.mean, plain.mean)
            np.testing.assert_array_equal(run.cov.diag, plain.cov.diag)
            np.testing.assert_array_equal(run.cov.y, plain.cov.y)


class TestPositivePosterior:
    def make_case(self, seed=0):
        """2 sources x 20 steps with data pinning a few coordinates."""
        rng = np.random.default_rng(seed)
        prior = make_prior(n_sources=2, n_steps=20, alpha=1.2, gamma=0.02)
        f = rng.uniform(0.0, 0.5, (8, prior.n))
        noise_var = rng.uniform(0.5, 1.5, 8)
        truth = rng.uniform(0.5, 1.5, prior.n)
        d = f @ truth + rng.normal(0.0, np.sqrt(noise_var))
        q_s = np.full(prior.n, float(truth.mean()))
        return prior, f, noise_var, d, q_s

    def test_identity_link_matches_gaussian_stage(self):
        """With h = identity the chain must reproduce the closed form."""
        prior, f, noise_var, d, q_s = self.make_case()
        exact = gaussian_posterior(f, d, noise_var, prior, q_s)
        cfg = SamplerConfig(beta=0.5, n_steps=60000, burn_in_fraction=0.25, seed=3)
        got = positive_posterior(
            f, d, noise_var, prior, q_s, cfg, link=lambda v: np.asarray(v, dtype=float)
        )
        tau = got.n_kept / got.ess
        se_mean = exact.std * math.sqrt(tau / got.n_kept)
        assert np.max(np.abs(got.mean - exact.mean) / se_mean) < 3.0
        se_std = exact.std * 0.5 * math.sqrt(2.0 * tau / got.n_kept)
        got_std = np.sqrt(got.cov.diag)
        assert np.max(np.abs(got_std - exact.std) / se_std) < 3.0

    def test_clipping_keeps_summaries_nonnegative(self):
        prior, f, noise_var, _, _ = self.make_case(seed=2)
        # data that drags part of the latent field negative
        d = -np.abs(np.ones(8))
        q_s = np.zeros(prior.n)
        cfg = SamplerConfig(beta=0.6, n_steps=8000, seed=1)
        got = positive_posterior(f, d, noise_var, prior, q_s, cfg)
        assert np.all(got.point >= 0.0)
        assert np.all(got.cov.diag >= -1e-15)
        # 40 dimensions fit in the sketch, so the factor keeps the whole
        # trace but for the shift, and never more than it
        factor = got.cov.nystrom_factor()
        assert factor.shape == (prior.n, prior.n)
        kept = float(np.vdot(factor, factor)) / got.cov.diag.sum()
        assert 1.0 - 1e-12 <= kept <= 1.0

    def test_pushforward_cov_recentered_at_clipped_mean(self):
        """C_sp includes the (transform mean - clipped mean) rank-1 shift."""
        prior, f, noise_var, d, q_s = self.make_case(seed=4)
        cfg = SamplerConfig(beta=0.6, n_steps=4000, seed=5)
        got = positive_posterior(f, d, noise_var, prior, q_s, cfg)
        # second moment about q_sp dominates the centered one
        assert np.all(got.cov.diag >= -1e-15)

    def test_cov_formed_without_a_second_dense_array(self):
        """The chain sketches C_sp: at n = 2 sources x 1000 slots, past the
        sketch size, the stage holds a few n x SKETCH_SIZE arrays and never
        enough memory for one n x n array."""
        rng = np.random.default_rng(8)
        prior = make_prior(n_sources=2, n_steps=1000, alpha=1.2, gamma=0.02)
        f = rng.uniform(0.0, 0.5, (8, prior.n))
        d = f @ np.ones(prior.n)
        cfg = SamplerConfig(beta=0.5, n_steps=100, seed=1)
        tracemalloc.start()
        try:
            got = positive_posterior(f, d, np.ones(8), prior, np.ones(prior.n), cfg)
            factor = got.cov.nystrom_factor()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert factor.shape == (prior.n, SKETCH_SIZE)
        assert got.cov.diag.shape == (prior.n,)
        block = prior.n * SKETCH_SIZE * 8
        assert peak < 3 * block < prior.n**2 * 8, f"peak {peak / block:.2f} x n x SKETCH_SIZE"

    def test_poor_acceptance_warns(self, caplog):
        prior, f, _, d, q_s = self.make_case(seed=6)
        tiny_noise = np.full(len(d), 1e-8)
        cfg = SamplerConfig(beta=1.0, n_steps=2000, seed=7)
        with caplog.at_level(logging.WARNING, logger="plumeinv.inversion"):
            positive_posterior(f, d, tiny_noise, prior, q_s, cfg)
        messages = [r.getMessage() for r in caplog.records]
        assert any("acceptance rate" in m and "sampler.beta or --beta" in m for m in messages)
