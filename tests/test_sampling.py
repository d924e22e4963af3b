"""Tests for the pCN chain: invariance, reproducibility, moments,
diagnostics and the draw thread. Each test sets the step size beta itself;
the package does not search it.

The chain's potential is a whitened data model 1/2 ||F h(v) - d||^2: zero
rows of F give a flat potential, rows sqrt(P) with d = sqrt(P) t give the
quadratic 1/2 (v - t)^T P (v - t), and overflowing entries a potential
that is infinite away from zero.

With a flat potential the chain is an exact AR(1) in each coordinate with
lag-one correlation sqrt(1 - beta^2), which gives closed-form Monte Carlo
standard errors; the statistical checks below size their tolerances from
that instead of guessing.
"""

import logging
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csc_array, csr_array

from plumeinv import sampling
from plumeinv.errors import NumericalError, ValidationError
from plumeinv.sampling import (
    BLOCK_SIZE,
    SKETCH_NONZEROS,
    SKETCH_SIZE,
    OnlineMoments,
    RowSplit,
    SamplerConfig,
    _sketch_matrix,
    effective_sample_size,
    pcn_chain,
    sketch_test_matrix,
    split_r_hat,
)


class NormalPrior:
    """The chain's prior N(0, R R^T) in len(R) dimensions, R the identity by default."""

    def __init__(self, dim, factor=None):
        self.normal_shape = (dim,)
        self.factor = factor

    def fill_normals(self, rng, out):
        rng.standard_normal(out=out)

    def place_normals(self, normals, out):
        np.copyto(out, normals)

    def solve(self, out):
        if self.factor is not None:
            out[...] = out @ self.factor.T


def flat(dim):
    """(F, d) of a flat potential: no data rows."""
    return np.zeros((0, dim)), np.zeros(0)


def quadratic(dim, strength=1.0):
    """(F, d) of the potential 1/2 strength v.v."""
    return math.sqrt(strength) * np.eye(dim), np.zeros(dim)


def record_kept_states(monkeypatch):
    """Patch OnlineMoments.update_block to record every kept state, in order."""
    seen = []
    original = OnlineMoments.update_block

    def recording(self, rows, counts=None):
        reps = np.ones(len(rows), dtype=int) if counts is None else np.asarray(counts, dtype=int)
        seen.append(np.repeat(np.asarray(rows), reps, axis=0))
        original(self, rows, counts)

    monkeypatch.setattr(OnlineMoments, "update_block", recording)
    return lambda: np.concatenate(seen)


def dense(sketch):
    """The covariance a sketch holds in full: below the sketch size its
    test matrix is the identity, so Y is the covariance itself."""
    assert np.array_equal(sketch.omega.toarray(), np.eye(len(sketch.diag)))
    return sketch.y


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(beta=0.0, n_steps=10)
        with pytest.raises(ValueError):
            SamplerConfig(beta=1.5, n_steps=10)
        with pytest.raises(ValueError):
            SamplerConfig(beta=0.5, n_steps=0)
        with pytest.raises(ValueError):
            SamplerConfig(beta=0.5, n_steps=10, burn_in_fraction=1.0)
        with pytest.raises(ValidationError, match="discards all"):
            SamplerConfig(beta=0.5, n_steps=1, burn_in_fraction=0.6)


class TestOnlineMoments:
    def test_matches_numpy_over_uneven_blocks(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((1000, 6)) * rng.uniform(0.5, 2.0, 6)
        om = OnlineMoments(6)
        start = 0
        for size in (1, 7, 250, 0, 3, 739):
            om.update_block(data[start : start + size])
            start += size
        assert om.count == 1000
        np.testing.assert_allclose(om.mean, data.mean(axis=0), rtol=1e-10, atol=1e-12)
        cov = om.second_moment(om.mean)
        want = np.cov(data.T, ddof=0)
        np.testing.assert_allclose(dense(cov), want, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(cov.diag, np.diag(want), rtol=1e-9, atol=1e-12)

    def test_second_moment_about_a_point_past_the_sketch_size(self):
        """n = 800 > SKETCH_SIZE: Y is the second moment about the point times
        the Gaussian test matrix, and the diagonal is exact."""
        rng = np.random.default_rng(4)
        n = 800
        data = rng.standard_normal((600, n)) * rng.uniform(0.5, 2.0, n) + rng.uniform(-1, 1, n)
        point = rng.uniform(-1.0, 1.0, n)
        om = OnlineMoments(n)
        y = om.y
        start = 0
        for size in (1, 255, 0, 300, 44):
            om.update_block(data[start : start + size])
            start += size
        got = om.second_moment(point)
        centered = data - point
        want = centered.T @ centered / len(data)
        assert got.omega.shape == (n, SKETCH_SIZE)
        want_y = want @ got.omega
        np.testing.assert_allclose(got.y, want_y, rtol=1e-9, atol=1e-12 * np.abs(want_y).max())
        np.testing.assert_allclose(got.diag, np.diag(want), rtol=1e-12)
        assert np.shares_memory(got.y, y) and om.y is None

    def test_sketch_is_updated_in_place(self):
        rng = np.random.default_rng(1)
        om = OnlineMoments(SKETCH_SIZE + 40)
        y, omega = om.y, om.omega
        for size in (5, 256, 17):
            om.update_block(rng.standard_normal((size, om.dim)))
        assert np.shares_memory(om.y, y) and om.y.flags.f_contiguous
        assert om.omega is omega and omega.format == "csr"
        assert np.all(om.diag > 0)

    def test_omega_is_fixed_and_draws_nothing_from_the_chain(self, monkeypatch):
        """Omega is the identity up to SKETCH_SIZE, and the same sparse sign
        matrix for every accumulator above it."""
        identity = OnlineMoments(SKETCH_SIZE).omega
        assert identity.format == "csr"
        np.testing.assert_array_equal(identity.toarray(), np.eye(SKETCH_SIZE))
        a, b = OnlineMoments(SKETCH_SIZE + 1), OnlineMoments(SKETCH_SIZE + 1)
        np.testing.assert_array_equal(a.omega.toarray(), b.omega.toarray())
        assert a.omega.shape == (SKETCH_SIZE + 1, SKETCH_SIZE)
        # a chain moves as it does with an Omega that draws nothing at all
        dim = SKETCH_SIZE + 1
        cfg = SamplerConfig(beta=0.5, n_steps=300, burn_in_fraction=0.0, seed=2)
        args = (*quadratic(dim, 0.01), np.zeros(dim), NormalPrior(dim), cfg)
        sketched = pcn_chain(*args)
        assert sketched.cov.omega.shape == (dim, SKETCH_SIZE)
        monkeypatch.setattr(sampling, "_sketch_matrix", lambda n: csr_array((n, SKETCH_SIZE)))
        np.testing.assert_array_equal(sketched.phi_trace, pcn_chain(*args).phi_trace)

    @pytest.mark.parametrize("dim", [SKETCH_SIZE + 1, 5040])
    def test_omega_is_a_sparse_sign_matrix(self, dim):
        """Above SKETCH_SIZE each row of Omega holds SKETCH_NONZEROS entries
        of +-1 in distinct columns, and every call gives the same matrix."""
        omega = _sketch_matrix(dim)
        assert omega.format == "csr" and omega.shape == (dim, SKETCH_SIZE)
        np.testing.assert_array_equal(np.diff(omega.indptr), SKETCH_NONZEROS)
        cols = omega.indices.reshape(dim, SKETCH_NONZEROS)
        assert all(len(np.unique(row)) == SKETCH_NONZEROS for row in cols)
        np.testing.assert_array_equal(np.abs(omega.data), 1.0)
        # both signs, and the columns spread over the whole width
        assert 0.4 < np.mean(omega.data > 0) < 0.6
        assert len(np.unique(omega.indices)) == SKETCH_SIZE
        again = _sketch_matrix(dim)
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(again, name), getattr(omega, name))

    def test_test_matrix_is_named(self):
        assert sketch_test_matrix(SKETCH_SIZE) == {"test_matrix": "identity", "nonzeros_per_row": 1}
        assert sketch_test_matrix(SKETCH_SIZE + 1) == {
            "test_matrix": "sparse_sign", "nonzeros_per_row": SKETCH_NONZEROS,
        }

    def test_counts_equal_repeated_rows(self):
        """Rows with dwell counts give the moments of the rows repeated by count."""
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((40, 30)) + rng.uniform(-2, 2, 30)
        counts = rng.integers(1, 9, 40)
        weighted, repeated = OnlineMoments(30), OnlineMoments(30)
        for part in (slice(0, 1), slice(1, 25), slice(25, 40)):
            weighted.update_block(rows[part], counts[part])
            repeated.update_block(np.repeat(rows[part], counts[part], axis=0))
        assert weighted.count == repeated.count == counts.sum()
        np.testing.assert_allclose(weighted.mean, repeated.mean, rtol=1e-12, atol=1e-12)
        point = rng.standard_normal(30)
        want, got = repeated.second_moment(point), weighted.second_moment(point)
        np.testing.assert_allclose(got.y, want.y, rtol=1e-12, atol=1e-12 * np.abs(want.y).max())
        np.testing.assert_allclose(got.diag, want.diag, rtol=1e-12)

    def test_empty_block_is_noop(self):
        om = OnlineMoments(2)
        om.update_block(np.ones((4, 2)))
        om.update_block(np.empty((0, 2)))
        assert om.count == 4

    def test_covariance_without_samples_raises(self):
        with pytest.raises(ValueError):
            OnlineMoments(2).second_moment(np.zeros(2))


class TestEffectiveSampleSize:
    def test_iid_trace_near_full_size(self):
        rng = np.random.default_rng(2)
        n = 20000
        ess = effective_sample_size(rng.standard_normal(n))
        assert 0.8 * n < ess < 1.2 * n

    def test_ar1_trace_matches_theory(self):
        rng = np.random.default_rng(3)
        n, rho = 40000, 0.9
        x = np.empty(n)
        x[0] = rng.standard_normal()
        innovations = math.sqrt(1.0 - rho**2) * rng.standard_normal(n)
        for k in range(1, n):
            x[k] = rho * x[k - 1] + innovations[k]
        # tau = (1+rho)/(1-rho) = 19
        expected = n / 19.0
        ess = effective_sample_size(x)
        assert 0.6 * expected < ess < 1.6 * expected

    def test_constant_trace_returns_length(self):
        assert effective_sample_size(np.full(500, 2.5)) == 500.0

    def test_short_trace_returns_length(self):
        assert effective_sample_size(np.array([1.0, 2.0, 3.0])) == 3.0


class TestSplitRHat:
    def test_iid_trace_near_one(self):
        rng = np.random.default_rng(5)
        r_hat = split_r_hat(rng.standard_normal(8000))
        assert abs(r_hat - 1.0) < 0.01

    def test_level_shift_flags(self):
        rng = np.random.default_rng(6)
        trace = rng.standard_normal(8000)
        trace[4000:] += 1.0
        assert split_r_hat(trace) > 1.1

    def test_scale_change_flags_through_the_folded_trace(self):
        """Parts with equal medians but different spreads: the bulk R-hat
        misses them, the folded one does not."""
        rng = np.random.default_rng(7)
        trace = rng.standard_normal(8000)
        trace[:2000] *= 4.0
        assert split_r_hat(trace) > 1.1

    def test_constant_and_short_traces(self):
        assert split_r_hat(np.full(400, 2.5)) == 1.0
        assert math.isnan(split_r_hat(np.arange(7.0)))


class TestPcnChainFlatPotential:
    def test_accepts_everything_and_reproduces_prior(self):
        """phi = 0: acceptance is exactly 1 and moments match N(0, I)."""
        dim, beta, n = 4, 0.8, 60000
        cfg = SamplerConfig(beta=beta, n_steps=n, burn_in_fraction=0.1, seed=0)
        out = pcn_chain(*flat(dim), np.zeros(dim), NormalPrior(dim), cfg)
        assert out.acceptance_rate == 1.0
        assert out.n_nonfinite == 0
        # AR(1) autocorrelation sqrt(1-beta^2) = 0.6 -> tau = 4
        tau = (1.0 + 0.6) / (1.0 - 0.6)
        se_mean = math.sqrt(tau / out.n_kept)
        assert np.max(np.abs(out.mean)) < 4.0 * se_mean
        se_var = math.sqrt(2.0 * tau / out.n_kept)
        assert np.max(np.abs(out.cov.diag - 1.0)) < 4.0 * se_var
        off = dense(out.cov)[np.triu_indices(dim, 1)]
        assert np.max(np.abs(off)) < 4.0 * se_var

    def test_beta_one_draws_prior_independently(self):
        cfg = SamplerConfig(beta=1.0, n_steps=20000, burn_in_fraction=0.0, seed=1)
        out = pcn_chain(*flat(2), np.zeros(2), NormalPrior(2), cfg)
        assert out.acceptance_rate == 1.0
        # flat phi trace has zero variance; ESS degrades to the length
        assert out.ess == out.n_kept
        assert np.max(np.abs(out.mean)) < 4.0 / math.sqrt(out.n_kept)

    def test_nonzero_prior_mean_is_respected(self):
        mean = np.array([3.0, -2.0])
        cfg = SamplerConfig(beta=0.7, n_steps=30000, seed=2)
        out = pcn_chain(*flat(2), mean, NormalPrior(2), cfg)
        tau = (1.0 + math.sqrt(1 - 0.49)) / (1.0 - math.sqrt(1 - 0.49))
        np.testing.assert_allclose(out.mean, mean, atol=4.0 * math.sqrt(tau / out.n_kept))

    def test_transform_moments(self, monkeypatch):
        """cov is the second moment of |v| about |mean of v|; here E|v|^2 = 1."""
        last = []

        def recording_abs(v):
            last[:] = [np.array(v, copy=True)]
            return np.abs(v)

        kept = record_kept_states(monkeypatch)
        cfg = SamplerConfig(beta=1.0, n_steps=40000, burn_in_fraction=0.0, seed=3)
        out = pcn_chain(*flat(3), np.zeros(3), NormalPrior(3), cfg, link=recording_abs)
        # the moments see h(v) once per kept state; the link's last call is at the chain mean of v
        seen = kept()
        assert len(seen) == out.n_kept
        np.testing.assert_array_equal(last[0], out.mean)
        shifted = seen - np.abs(out.mean)
        want = shifted.T @ shifted / out.n_kept
        np.testing.assert_allclose(dense(out.cov), want, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(out.cov.diag, np.diag(want), rtol=1e-10, atol=1e-14)
        se = math.sqrt(2.0 / out.n_kept)
        np.testing.assert_allclose(out.cov.diag, 1.0, atol=5.0 * se)

class TestPcnChainConjugateTarget:
    def test_two_dim_gaussian_posterior(self):
        """Gaussian prior + quadratic potential has a closed-form posterior."""
        prior_mean = np.array([1.0, -0.5])
        chol = np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 0.5]]))
        prior_cov = chol @ chol.T

        prior = NormalPrior(2, chol)
        prec_pot = np.array([[2.0, 0.0], [0.0, 0.5]])
        target = np.array([0.2, 1.0])
        # phi(v) = 1/2 (v - target)^T prec_pot (v - target) as a whitened data model
        root = np.sqrt(prec_pot)
        f_white, d_white = root, root @ target

        post_prec = np.linalg.inv(prior_cov) + prec_pot
        post_cov = np.linalg.inv(post_prec)
        post_mean = post_cov @ (np.linalg.solve(prior_cov, prior_mean) + prec_pot @ target)

        cfg = SamplerConfig(beta=0.5, n_steps=120000, burn_in_fraction=0.2, seed=4)
        out = pcn_chain(f_white, d_white, prior_mean, prior, cfg)
        assert 0.2 < out.acceptance_rate < 0.95
        tau = out.n_kept / out.ess
        se_mean = np.sqrt(np.diag(post_cov) * tau / out.n_kept)
        np.testing.assert_array_less(np.abs(out.mean - post_mean), 3.0 * se_mean)
        se_cov = np.sqrt(
            (np.outer(np.diag(post_cov), np.diag(post_cov)) + post_cov**2)
            * tau
            / out.n_kept
        )
        np.testing.assert_array_less(np.abs(dense(out.cov) - post_cov), 3.0 * se_cov)
        assert abs(out.r_hat - 1.0) < 0.01


def rows_with_nonzeros(rng, nonzeros, dim):
    """F with one row per entry of ``nonzeros``, holding that many random
    entries in random columns."""
    f = np.zeros((len(nonzeros), dim))
    for row, k in zip(f, nonzeros):
        row[rng.choice(dim, k, replace=False)] = rng.standard_normal(k)
    return f


# Row nonzero counts at dim 152, where the split's bar n/8 is 19: rows with
# 20 or more nonzeros are dense, rows with 19 or fewer stay sparse.
SPLIT_CASES = {
    "dense_rows": [152, 100, 20, 152],
    "sparse_rows": [1, 7, 19, 3],
    "mixed_rows": [152, 7, 100, 1, 19, 20, 60, 2],
    "zero_row": [152, 0, 50, 3],
}


class TestRowSplit:
    """The chain's products by F with its dense rows apart (``RowSplit``)
    against the dense F."""

    @staticmethod
    def split_of(case, seed=0):
        rng = np.random.default_rng(seed)
        f = rows_with_nonzeros(rng, SPLIT_CASES[case], 152)
        return f, RowSplit(csc_array(f)), rng

    @staticmethod
    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_rows_above_an_eighth_of_the_columns_are_dense(self, case):
        f, split, _ = self.split_of(case)
        dense = np.count_nonzero(f, axis=1) > f.shape[1] / 8
        assert split.n_dense == dense.sum()
        assert sorted(split.order) == list(range(len(f)))
        assert np.all(dense[split.order[: split.n_dense]])
        assert split.dense.flags.c_contiguous and split.sparse.format == "csc"

    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_products_equal_the_dense_product(self, case):
        f, split, rng = self.split_of(case)
        w = rng.standard_normal((BLOCK_SIZE, f.shape[1]))
        out = np.empty((len(f), BLOCK_SIZE))
        split.block(w, out)
        self.assert_close(out, (f @ w.T)[split.order])
        x = rng.standard_normal(f.shape[1])
        self.assert_close(split @ x, (f @ x)[split.order])
        cols = np.sort(rng.choice(f.shape[1], 9, replace=False))
        self.assert_close(split.columns(cols, x[cols]), (f[:, cols] @ x[cols])[split.order])

    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_row_scale_gives_the_split_of_the_whitened_copy(self, case):
        """Scaling rows in the split's own copies gives, bit for bit, the
        split of F with its rows scaled first, and changes no entry of F."""
        f, _, rng = self.split_of(case)
        scale = rng.uniform(0.5, 3.0, len(f))
        f_csr = csr_array(f)
        scaled = RowSplit(f_csr, row_scale=scale)
        want = RowSplit(csr_array(f * scale[:, None]))
        np.testing.assert_array_equal(scaled.order, want.order)
        np.testing.assert_array_equal(scaled.dense, want.dense)
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(scaled.sparse, name), getattr(want.sparse, name))
        np.testing.assert_array_equal(f_csr.toarray(), f)

    @pytest.mark.parametrize("b", [1, 3, 37])
    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_tail_block_columns_equal_the_dense_product(self, case, b):
        """A last block of b < BLOCK_SIZE draws runs at the full width; the
        rows past b (NaN here) touch no column before b."""
        f, split, rng = self.split_of(case, seed=b)
        w = np.full((BLOCK_SIZE, f.shape[1]), np.nan)
        w[:b] = rng.standard_normal((b, f.shape[1]))
        out = np.empty((len(f), BLOCK_SIZE))
        split.block(w, out)
        self.assert_close(out[:, :b], (f @ w[:b].T)[split.order])


class TestPcnChainMechanics:
    def test_bitwise_reproducible(self):
        cfg = SamplerConfig(beta=0.6, n_steps=5000, seed=11)
        a = pcn_chain(*quadratic(3), np.zeros(3), NormalPrior(3), cfg)
        b = pcn_chain(*quadratic(3), np.zeros(3), NormalPrior(3), cfg)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.cov.y, b.cov.y)
        np.testing.assert_array_equal(a.cov.diag, b.cov.diag)
        assert a.acceptance_rate == b.acceptance_rate
        assert a.r_hat == b.r_hat

    def test_chains_share_prefix_across_lengths(self, monkeypatch):
        """Per-step randomness depends only on the step index, so a longer
        chain passes through the shorter chain's states exactly, in order,
        also when neither length is a multiple of the block size."""
        assert 400 % BLOCK_SIZE and 1203 % BLOCK_SIZE
        states = {}
        for n in (400, 1203):
            kept = record_kept_states(monkeypatch)
            cfg = SamplerConfig(beta=0.6, n_steps=n, burn_in_fraction=0.0, seed=7)
            pcn_chain(*quadratic(2), np.zeros(2), NormalPrior(2), cfg)
            states[n] = kept()
        short, long = states[400], states[1203]
        # one kept state per step
        assert short.shape == (400, 2) and long.shape == (1203, 2)
        assert len(np.unique(short, axis=0)) > 100  # the chain moves
        np.testing.assert_array_equal(short, long[: len(short)])

    def test_chains_with_dense_rows_share_prefix_across_lengths(self, monkeypatch):
        """With 20 dense rows the block product is a GEMM, whose rounding can
        depend on its width; the 400-step chain's last block of 16 still
        gives the 1203-step chain's states and potentials bit for bit."""
        rng = np.random.default_rng(3)
        dim = 60
        f = 0.05 * rows_with_nonzeros(rng, [dim] * 20 + [3] * 30, dim)
        d = f @ rng.standard_normal(dim)
        out = {}
        for n in (400, 1203):
            kept = record_kept_states(monkeypatch)
            cfg = SamplerConfig(beta=0.5, n_steps=n, burn_in_fraction=0.0, seed=7)
            run = pcn_chain(csc_array(f), d, np.zeros(dim), NormalPrior(dim), cfg, np.abs)
            out[n] = kept(), run.phi_trace
        assert 0.1 < np.mean(np.diff(out[1203][1]) != 0) < 0.9  # the chain moves
        np.testing.assert_array_equal(out[400][0], out[1203][0][:400])
        np.testing.assert_array_equal(out[400][1], out[1203][1][:400])

    def test_transform_replaces_latent_second_moments(self):
        """The identity link gives the link-free chain's mean and cov bit for bit."""
        cfg = SamplerConfig(beta=0.6, n_steps=3000, seed=13)
        plain = pcn_chain(*quadratic(3), np.zeros(3), NormalPrior(3), cfg)
        mapped = pcn_chain(
            *quadratic(3), np.zeros(3), NormalPrior(3), cfg, link=lambda v: v.copy()
        )
        np.testing.assert_array_equal(mapped.mean, plain.mean)
        np.testing.assert_array_equal(mapped.cov.y, plain.cov.y)
        np.testing.assert_array_equal(mapped.cov.diag, plain.cov.diag)

    def test_link_runs_only_where_a_proposal_may_go_negative(self, monkeypatch):
        """With the prior mean 40 prior std above zero no proposal has a
        negative entry, so the link runs only on each distinct kept state,
        in a flush, and once on the chain mean for ``point``."""
        dim = 3
        calls = []
        seen = []
        original = OnlineMoments.update_block

        def counting_link(v):
            calls.append(len(v))
            return np.maximum(v, 0.0)

        def recording(self, rows, counts=None):
            seen.append(len(rows))
            original(self, rows, counts)

        monkeypatch.setattr(OnlineMoments, "update_block", recording)
        f, _ = quadratic(dim)
        cfg = SamplerConfig(beta=0.5, n_steps=1000, burn_in_fraction=0.1, seed=6)
        out = pcn_chain(f, np.full(dim, 40.0), np.full(dim, 40.0), NormalPrior(dim), cfg,
                        counting_link)
        assert 0.1 < out.acceptance_rate < 0.9
        assert len(calls) == sum(seen) + 1 and sum(seen) > 50

    def test_peak_memory_above_the_sketch_is_a_few_block_buffers(self):
        """At dim 2 x SKETCH_SIZE the chain's traced peak above its sketch Y
        is at most 7 (BLOCK_SIZE, dim) buffers: the ring of 1.5, the block's
        draws, the kept rows and a flush's stacked rows with their sketch
        product. Measured at 6.27 (5.73 with the draws one block ahead), so
        one more such buffer would exceed it."""
        dim = 2 * SKETCH_SIZE
        f = csr_array(0.1 * np.eye(50, dim))
        cfg = SamplerConfig(beta=0.5, n_steps=1000, burn_in_fraction=0.1, seed=2)
        one_block = BLOCK_SIZE * dim * 8
        tracemalloc.start()
        try:
            out = pcn_chain(f, np.zeros(50), np.zeros(dim), NormalPrior(dim), cfg,
                            link=lambda v: np.maximum(v, 0.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        above = (peak - out.cov.y.nbytes) / one_block
        assert above <= 7.0, f"peak {above:.2f} block buffers above Y"
        assert out.cov.y.shape == (dim, SKETCH_SIZE) and out.acceptance_rate > 0.5

    def test_streamed_sketch_past_the_sketch_size(self, monkeypatch):
        """At dim 600 > SKETCH_SIZE the chain's Y and diagonal are NumPy's
        dwell-weighted second moment of h(v) about h(mean) times Omega."""
        dim = 600
        kept = record_kept_states(monkeypatch)
        cfg = SamplerConfig(beta=0.5, n_steps=600, burn_in_fraction=0.1, seed=9)
        out = pcn_chain(
            *quadratic(dim, 0.01), np.full(dim, 0.5), NormalPrior(dim), cfg,
            link=lambda v: np.maximum(v, 0.0),
        )
        seen = kept()
        assert len(seen) == out.n_kept and len(np.unique(seen, axis=0)) > 10
        np.testing.assert_array_equal(out.point, np.maximum(out.mean, 0.0))
        centered = seen - out.point
        want = centered.T @ centered / out.n_kept
        assert out.cov.omega.shape == (dim, SKETCH_SIZE)
        want_y = want @ out.cov.omega
        np.testing.assert_allclose(out.cov.y, want_y, rtol=1e-12, atol=1e-12 * np.abs(want_y).max())
        np.testing.assert_allclose(out.cov.diag, np.diag(want), rtol=1e-12)

    def test_nonfinite_potential_auto_rejects(self, caplog):
        """Entries of 1e300 make phi overflow to inf at every v but v = 0."""
        start = np.zeros(2)
        f_white, d_white = 1e300 * np.eye(2), np.zeros(2)
        cfg = SamplerConfig(beta=0.5, n_steps=200, burn_in_fraction=0.0, seed=5)
        with caplog.at_level(logging.WARNING, logger="plumeinv.sampling"):
            out = pcn_chain(f_white, d_white, start, NormalPrior(2), cfg)
        assert out.acceptance_rate == 0.0
        assert out.n_nonfinite == 200
        np.testing.assert_array_equal(out.mean, start)
        assert any("non-finite" in r.message for r in caplog.records)

    def test_nonfinite_at_start_raises(self):
        """A potential that breaks at the prior mean is a numerical failure (exit 3)."""
        cfg = SamplerConfig(beta=0.5, n_steps=10)
        with pytest.raises(NumericalError, match="potential at the prior mean"):
            pcn_chain(1e300 * np.eye(2), np.zeros(2), np.ones(2), NormalPrior(2), cfg)

    def test_all_burn_in_raises(self):
        with pytest.raises(ValueError):
            SamplerConfig(beta=0.5, n_steps=1, burn_in_fraction=0.6)


class FillFailed(Exception):
    pass


class WatchedPrior(NormalPrior):
    """N(0, I) that counts its fills and copies, and raises on fill number
    ``fail_at`` or solve number ``solve_fails_at`` (1-based), if given."""

    def __init__(self, dim, fail_at=None, solve_fails_at=None):
        super().__init__(dim)
        self.fail_at, self.solve_fails_at = fail_at, solve_fails_at
        self.fills = self.placed = self.solves = 0

    def fill_normals(self, rng, out):
        self.fills += 1
        if self.fills == self.fail_at:
            raise FillFailed(f"fill {self.fail_at}")
        super().fill_normals(rng, out)

    def place_normals(self, normals, out):
        self.placed += 1
        super().place_normals(normals, out)

    def solve(self, out):
        self.solves += 1
        if self.solves == self.solve_fails_at:
            raise NumericalError(f"solve {self.solve_fails_at}")
        super().solve(out)


def draw_threads():
    return [t for t in threading.enumerate() if t.name.startswith("pcn-draw")]


class TestDrawThread:
    def test_fill_error_surfaces_and_no_thread_is_left(self):
        """A fill that raises on the third block raises out of pcn_chain,
        and neither a raise nor a return leaves a thread running."""
        before = threading.active_count()
        cfg = SamplerConfig(beta=0.5, n_steps=1000, seed=3)
        with pytest.raises(FillFailed, match="fill 3"):
            pcn_chain(*quadratic(3), np.zeros(3), WatchedPrior(3, fail_at=3), cfg)
        assert threading.active_count() == before
        pcn_chain(*quadratic(3), np.zeros(3), WatchedPrior(3), cfg)
        assert threading.active_count() == before


    def test_main_thread_error_drops_the_queued_draws_and_joins(self):
        """A solve that raises on the third block raises out of pcn_chain, no
        draw thread is left, and no more than the ring's three chunks were
        filled past the last chunk the main thread copied."""
        cfg = SamplerConfig(beta=0.5, n_steps=1000, seed=3)
        prior = WatchedPrior(3, solve_fails_at=3)
        with pytest.raises(NumericalError, match="solve 3"):
            pcn_chain(*quadratic(3), np.zeros(3), prior, cfg)
        assert not draw_threads()
        assert prior.placed == 3 * BLOCK_SIZE // sampling._CHUNK
        assert prior.placed <= prior.fills <= prior.placed + sampling._RING
