"""Release gate: eleven numbered end-to-end checks.

Each criterion is one test. The heavy ones (7-10) share a single run of
the bundled synthetic case through a session fixture; everything else
builds its own small instance. Every test finishes by printing one
``criterion NN: PASS`` line with the measured numbers (shown with -rA).
"""

import csv
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csr_array

from plumeinv import pipeline
from plumeinv.cli import default_config_path
from plumeinv.config import load_config
from plumeinv.inversion import (
    PriorConfig,
    SmoothnessPrior,
    clip_positive,
    gaussian_posterior,
    positive_posterior,
    whiten,
)
from plumeinv.observation import (
    DustfallJar,
    RealTimeSampler,
    TimeGrid,
    assemble_F,
    measurement_count,
    window_weight,
)
from plumeinv.plume import (
    BRIGGS_COEFFICIENTS,
    ParticleProperties,
    PlumeModel,
    SourceSite,
    StabilityClass,
    briggs_sigma,
    kernel_profile,
)
from plumeinv.sampling import CovarianceSketch, SamplerConfig, pcn_chain, tune_beta
from plumeinv.synthetic import block_average
from plumeinv.uqprop import GridSpec, deposition_stats, lowrank_truncate
from plumeinv.windprep import WindSeries


def report(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS  {detail}")


# ---------------------------------------------------------------------------
# bundled case, run once for criteria 7-10


@pytest.fixture(scope="session")
def bundled(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundled_case")
    cfg = load_config(default_config_path(), out_dir=out)
    tic = time.perf_counter()
    inversion = pipeline.run_stage(cfg, "invert")
    propagation = pipeline.run_stage(cfg, "propagate")
    wall = time.perf_counter() - tic
    return SimpleNamespace(
        cfg=cfg,
        inversion=inversion,
        propagation=propagation,
        out=cfg.resolve_out_dir(),
        wall=wall,
    )


def load_truth(path) -> dict:
    """truth_rates.csv -> {source_id: rates in time order}."""
    series: dict = {}
    with open(path) as handle:
        handle.readline()  # the "# stage_key=" line
        for row in csv.DictReader(handle):
            series.setdefault(row["source_id"], []).append(float(row["rate_kg_s"]))
    return {sid: np.array(vals) for sid, vals in series.items()}


def truth_on_inversion_grid(bundled) -> np.ndarray:
    """Stacked source-major truth block-averaged onto the inversion grid."""
    truth = load_truth(bundled.out / "truth_rates.csv")
    stacked = np.concatenate([truth[s.id] for s in bundled.cfg.sources])
    return block_average(
        stacked,
        pipeline.generation_grid(bundled.cfg),
        pipeline.inversion_grid(bundled.cfg),
    )


# ---------------------------------------------------------------------------
# criterion 1: plume mass conservation and the classical reduction


def test_criterion_01_plume_mass_and_classical_reduction():
    tic = time.perf_counter()
    inert = ParticleProperties(w_dep=0.0, w_set=0.0)
    cls = StabilityClass.D
    height, speed = 5.0, 2.3
    # one source at the origin and an eastward wind: the site frame is the
    # wind frame, so a receptor (x, y, z) is (downwind, crosswind, height)
    model = PlumeModel([SourceSite("s", 0.0, 0.0, height)], inert, cls)

    def kernels(x: float, y, z) -> np.ndarray:
        """The kernel at distance x on the (y, z) tensor grid, in one call."""
        yy, zz = np.meshgrid(y, z, indexing="ij")
        points = np.column_stack([np.full(yy.size, x), yy.ravel(), zz.ravel()])
        return kernel_profile(points, model, (speed, 0.0))[:, 0].reshape(yy.shape)

    nodes, weights = np.polynomial.legendre.leggauss(64)

    def gauss_legendre(edges) -> tuple:
        """Nodes and weights of the 64-point rule on each piece between edges."""
        lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
        half = 0.5 * (hi - lo)
        return (lo + half * (nodes + 1.0)).ravel(), (half * weights).ravel()

    def crosswind_vertical_mass(x: float) -> float:
        sy = briggs_sigma(cls, "crosswind", x)
        sz = briggs_sigma(cls, "vertical", x)
        z_top = height + 12.0 * sz
        y, w_y = gauss_legendre([0.0, 9.0 * sy])
        z, w_z = gauss_legendre(
            [0.0, max(0.0, height - 2.0 * sz), height, min(z_top, height + 2.0 * sz), z_top]
        )
        # the kernel is even in the crosswind offset
        return speed * 2.0 * (w_y @ kernels(x, y, z) @ w_z)

    masses = {x: crosswind_vertical_mass(x) for x in (10.0, 100.0, 1000.0)}
    for x, mass in masses.items():
        assert abs(mass - 1.0) < 1e-6, f"mass {mass} at x={x}"

    # without deposition or settling the kernel must equal the reflected
    # double-Gaussian evaluated from the same dispersion widths
    worst = 0.0
    for x in (25.0, 250.0, 2500.0):
        sy = briggs_sigma(cls, "crosswind", x)
        sz = briggs_sigma(cls, "vertical", x)
        ys, zs = (-30.0, 0.0, 40.0), (0.0, 1.5, 9.0)
        got = kernels(x, ys, zs)
        for a, y in enumerate(ys):
            for b, z in enumerate(zs):
                classical = (
                    math.exp(-0.5 * (y / sy) ** 2)
                    / (2.0 * math.pi * sy * sz * speed)
                    * (
                        math.exp(-0.5 * ((z - height) / sz) ** 2)
                        + math.exp(-0.5 * ((z + height) / sz) ** 2)
                    )
                )
                worst = max(worst, abs(got[a, b] - classical) / classical)
    assert worst < 1e-12
    elapsed = time.perf_counter() - tic
    assert elapsed < 1.0
    report(1, f"max |mass-1| {max(abs(m - 1) for m in masses.values()):.2e}, "
              f"classical rel dev {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: dispersion coefficient snapshot and spot widths


def test_criterion_02_dispersion_coefficient_snapshot():
    tic = time.perf_counter()
    expected = {
        (StabilityClass.A, "crosswind"): (0.22, 1.0e-4, 0.50),
        (StabilityClass.A, "vertical"): (0.20, 0.0, 0.0),
        (StabilityClass.B, "crosswind"): (1.60, 1.0e-4, 0.50),
        (StabilityClass.B, "vertical"): (1.2, 0.0, 0.0),
        (StabilityClass.C, "crosswind"): (0.11, 1.0e-4, 0.50),
        (StabilityClass.C, "vertical"): (0.08, 2.0e-4, 0.5),
        (StabilityClass.D, "crosswind"): (0.08, 1.0e-4, 0.50),
        (StabilityClass.D, "vertical"): (0.06, 1.5e-3, 0.5),
        (StabilityClass.E, "crosswind"): (0.06, 1.0e-4, 0.50),
        (StabilityClass.E, "vertical"): (0.03, 3.0e-4, 1.0),
        (StabilityClass.F, "crosswind"): (0.04, 1.0e-4, 0.50),
        (StabilityClass.F, "vertical"): (0.016, 3.0e-4, 1.0),
    }
    assert BRIGGS_COEFFICIENTS == expected

    sz_a50 = briggs_sigma(StabilityClass.A, "vertical", 50.0)
    assert abs(sz_a50 - 10.0) <= 1e-12 * 10.0
    sz_c100 = briggs_sigma(StabilityClass.C, "vertical", 100.0)
    assert abs(sz_c100 - 8.0 / math.sqrt(1.02)) <= 1e-12 * sz_c100
    assert round(sz_c100, 4) == 7.9212
    elapsed = time.perf_counter() - tic
    assert elapsed < 1.0
    report(2, f"12 coefficient triples exact, sigma_z(A,50)={sz_a50:g}, "
              f"sigma_z(C,100)={sz_c100:.4f}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: observation map versus direct quadrature


def test_criterion_03_observation_matches_direct_quadrature():
    tic = time.perf_counter()
    particle = ParticleProperties(w_dep=1.2e-2, w_set=7.86e-3)
    grid = TimeGrid(t0=0.0, dt=600.0, n_steps=10)
    sites = [
        SourceSite(id="a", x=0.0, y=0.0, height=5.0),
        SourceSite(id="b", x=80.0, y=-40.0, height=2.0),
    ]
    sensors = [
        DustfallJar(id="jar", x=150.0, y=10.0, z=1.5, area=0.02, snr=10.0),
        RealTimeSampler(id="rt1", x=200.0, y=-30.0, z=3.0, window=1200.0,
                        start_times=(0.0, 1200.0, 2400.0, 3600.0, 4800.0), snr=100.0),
        RealTimeSampler(id="rt2", x=120.0, y=60.0, z=2.0, window=600.0,
                        start_times=(600.0, 3000.0), snr=100.0),
    ]
    rng = np.random.default_rng(11)
    speeds = 3.0 + rng.uniform(-1.0, 1.0, grid.n_steps)
    angles = rng.uniform(-0.4, 0.4, grid.n_steps)
    wind = WindSeries(grid, speeds * np.cos(angles), speeds * np.sin(angles))
    q_by_source = rng.uniform(0.1, 2.0, (len(sites), grid.n_steps))
    model = PlumeModel(sites, particle, StabilityClass.D)

    f = assemble_F(sensors, model, wind)

    points = np.array([s.location for s in sensors])
    kern = np.zeros((grid.n_steps, len(sensors), len(sites)))
    for j in range(grid.n_steps):
        kern[j] = kernel_profile(points, model, (wind.u_x[j], wind.u_y[j]))
    expected = []
    for k, sensor in enumerate(sensors):
        for ell in range(measurement_count(sensor)):
            total = 0.0
            for j, t in enumerate(grid.times):
                weight = window_weight(sensor, ell, t, grid, particle.w_dep)
                for i in range(len(sites)):
                    total += weight * grid.dt * kern[j, k, i] * q_by_source[i, j]
            expected.append(total)

    got = f @ q_by_source.ravel()
    np.testing.assert_allclose(got, np.array(expected), rtol=1e-12)
    elapsed = time.perf_counter() - tic
    assert elapsed < 1.0
    rel = np.max(np.abs(got - expected) / np.abs(expected))
    report(3, f"8 measurements, max rel dev {rel:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 4: smoothing stage versus dense information form


def test_criterion_04_gaussian_stage_information_form():
    tic = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_dense = 0.0
    for _ in range(100):
        n_s = int(rng.integers(1, 4))
        n_t = int(rng.integers(4, 10))
        m = int(rng.integers(2, 15))
        dt = float(rng.choice([600.0, 1800.0, 3600.0]))
        grid = TimeGrid(0.0, dt, n_t)
        config = PriorConfig(rng.uniform(0.5, 3.0), rng.uniform(1e-3, 0.05))
        prior = SmoothnessPrior(config, grid, n_s)
        n = n_s * n_t
        f = rng.normal(0.0, 1.0, (m, n))
        noise_var = rng.uniform(0.2, 2.0, m)
        d = rng.normal(0.0, 2.0, m)
        prior_mean = rng.normal(0.0, 1.0, n)

        got = gaussian_posterior(f, d, noise_var, prior, prior_mean)

        block = prior.l_matrix @ prior.l_matrix
        precision = np.kron(np.eye(n_s), block) + f.T @ (f / noise_var[:, None])
        want_cov = np.linalg.inv(precision)
        want_mean = prior_mean + want_cov @ (f.T @ ((d - f @ prior_mean) / noise_var))
        scale = np.abs(want_mean).max()
        worst_dense = max(worst_dense, np.max(np.abs(got.mean - want_mean)) / scale)
        np.testing.assert_allclose(got.mean, want_mean, rtol=1e-8, atol=1e-8 * scale)
        np.testing.assert_allclose(
            got.cov, want_cov, rtol=1e-8, atol=1e-8 * np.abs(want_cov).max()
        )

    # scalar closed form: one observation of one coordinate is a rank-1
    # update of the prior, computable without any matrix inverse
    worst_scalar = 0.0
    for trial in range(20):
        rng_s = np.random.default_rng(500 + trial)
        grid = TimeGrid(0.0, 900.0, int(rng_s.integers(3, 8)))
        n_s = int(rng_s.integers(1, 3))
        prior = SmoothnessPrior(PriorConfig(rng_s.uniform(0.5, 2.0), 0.01), grid, n_s)
        n = n_s * grid.n_steps
        k = int(rng_s.integers(0, n))
        s = rng_s.uniform(0.5, 2.0)
        sigma2 = rng_s.uniform(0.1, 1.0)
        d = np.array([rng_s.normal()])
        mu = rng_s.normal(0.0, 1.0, n)
        f = np.zeros((1, n))
        f[0, k] = s

        got = gaussian_posterior(f, d, np.array([sigma2]), prior, mu)
        cov = prior.dense_cov()
        gain = cov[:, k] * s / (s**2 * cov[k, k] + sigma2)
        want_mean = mu + gain * (d[0] - s * mu[k])
        want_cov = cov - np.outer(gain, s * cov[k, :])
        worst_scalar = max(
            worst_scalar, np.max(np.abs(got.mean - want_mean)) / np.abs(want_mean).max()
        )
        np.testing.assert_allclose(got.mean, want_mean, rtol=1e-8,
                                   atol=1e-8 * np.abs(want_mean).max())
        np.testing.assert_allclose(got.cov, want_cov, rtol=1e-8,
                                   atol=1e-8 * np.abs(want_cov).max())
    elapsed = time.perf_counter() - tic
    assert elapsed < 5.0
    report(4, f"100 dense + 20 scalar trials, worst rel dev "
              f"{max(worst_dense, worst_scalar):.2e}, {elapsed:.2f}s")


class CorrelatedNormal:
    """The chain's prior N(0, R R^T) from a dense factor R."""

    def __init__(self, factor):
        self.factor = factor
        self.normal_shape = (len(factor),)

    def fill_normals(self, rng, out):
        rng.standard_normal(out=out)

    def place_normals(self, normals, out):
        np.copyto(out, normals)

    def solve(self, out):
        out[...] = out @ self.factor.T


# ---------------------------------------------------------------------------
# criterion 5: sampler validity on a flat potential and a conjugate target


def test_criterion_05_pcn_prior_reproduction_and_conjugate_target():
    tic = time.perf_counter()
    # flat potential: the chain is prior-invariant, acceptance is exactly 1
    grid = TimeGrid(0.0, 900.0, 15)
    prior = SmoothnessPrior(PriorConfig(1.5, 0.01), grid, 2)
    rng = np.random.default_rng(42)
    prior_mean = rng.normal(0.0, 1.0, 30)
    beta = 0.8
    cfg = SamplerConfig(beta=beta, n_steps=100_000, burn_in_fraction=0.1, seed=5)
    # no data rows: phi = 0
    out = pcn_chain(np.zeros((0, 30)), np.zeros(0), prior_mean, prior, cfg)
    assert out.acceptance_rate == 1.0

    # per-coordinate AR(1) with lag-1 correlation sqrt(1 - beta^2) gives
    # closed-form autocorrelation times for the mean and the variance
    rho = math.sqrt(1.0 - beta**2)
    tau_mean = (1.0 + rho) / (1.0 - rho)
    tau_var = (1.0 + rho**2) / (1.0 - rho**2)
    var = np.tile(prior.marginal_var(), 2)  # blocks are iid across sources
    se_mean = np.sqrt(var * tau_mean / out.n_kept)
    z_mean = np.abs(out.mean - prior_mean) / se_mean
    assert z_mean.max() < 3.0
    se_var = var * math.sqrt(2.0 * tau_var / out.n_kept)
    z_var = np.abs(out.cov.diag - var) / se_var
    assert z_var.max() < 3.0

    # 2-D conjugate target: quadratic potential, closed-form posterior
    prior_mean2 = np.array([1.0, -0.5])
    chol = np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 0.5]]))
    prior_cov2 = chol @ chol.T
    prec_pot = np.diag([2.0, 0.5])
    target = np.array([0.2, 1.0])
    # phi(v) = 1/2 (v - target)^T prec_pot (v - target) as the whitened data model
    # F = sqrt(prec_pot), d = F target
    root = np.sqrt(prec_pot)

    post_cov = np.linalg.inv(np.linalg.inv(prior_cov2) + prec_pot)
    post_mean = post_cov @ (np.linalg.solve(prior_cov2, prior_mean2) + prec_pot @ target)
    cfg2 = SamplerConfig(beta=0.5, n_steps=120_000, burn_in_fraction=0.2, seed=4)
    out2 = pcn_chain(
        root, root @ target, prior_mean2,
        CorrelatedNormal(chol), cfg2,
    )
    tau = out2.n_kept / out2.ess
    se2 = np.sqrt(np.diag(post_cov) * tau / out2.n_kept)
    z2 = np.abs(out2.mean - post_mean) / se2
    assert z2.max() < 3.0
    se_cov = np.sqrt(
        (np.outer(np.diag(post_cov), np.diag(post_cov)) + post_cov**2) * tau / out2.n_kept
    )
    # two dimensions: the sketch's test matrix is the identity, so Y is the covariance
    assert np.max(np.abs(out2.cov.y - post_cov) / se_cov) < 3.0
    elapsed = time.perf_counter() - tic
    assert elapsed < 30.0
    report(5, f"prior max |z| {z_mean.max():.2f} (mean) {z_var.max():.2f} (var), "
              f"conjugate max |z| {z2.max():.2f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: positivity stage with the identity link equals the closed form


def test_criterion_06_identity_link_equals_gaussian_stage():
    tic = time.perf_counter()
    rng = np.random.default_rng(0)
    grid = TimeGrid(0.0, 900.0, 20)
    prior = SmoothnessPrior(PriorConfig(1.2, 0.02), grid, 2)
    n = 40
    f = rng.uniform(0.0, 0.5, (8, n))
    noise_var = rng.uniform(0.5, 1.5, 8)
    truth = rng.uniform(0.5, 1.5, n)
    d = f @ truth + rng.normal(0.0, np.sqrt(noise_var))
    q_s = np.full(n, float(truth.mean()))

    exact = gaussian_posterior(f, d, noise_var, prior, q_s)
    cfg = SamplerConfig(beta=0.5, n_steps=60_000, burn_in_fraction=0.25, seed=3)
    got = positive_posterior(
        f, d, noise_var, prior, q_s, cfg, link=lambda v: np.asarray(v, dtype=float)
    )
    tau = got.n_kept / got.ess
    se_mean = exact.std * math.sqrt(tau / got.n_kept)
    z = np.abs(got.v_mean - exact.mean) / se_mean
    assert z.max() < 3.0
    elapsed = time.perf_counter() - tic
    assert elapsed < 120.0
    report(6, f"40 coordinates, max |z| {z.max():.2f}, ess {got.ess:.0f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: bundled-case recovery (constant, smooth, and positive stages)


def test_criterion_07_bundled_case_recovery(bundled):
    cfg = bundled.cfg
    inv = bundled.inversion
    n_t = inv.grid.n_steps
    source_ids = [s.id for s in cfg.sources]

    truth = load_truth(bundled.out / "truth_rates.csv")
    truth_means = {sid: truth[sid].mean() for sid in source_ids}
    ranked = sorted(source_ids, key=lambda sid: truth_means[sid], reverse=True)
    top2, bottom5 = ranked[:2], ranked[2:]

    # (a) constant stage recovers the two largest sources within 20%
    const = dict(zip(source_ids, inv.constant.rates))
    errors = {sid: abs(const[sid] - truth_means[sid]) / truth_means[sid] for sid in top2}
    assert max(errors.values()) < 0.20

    # (b) smooth stage tracks the truth in time for the two largest
    truth_ba = truth_on_inversion_grid(bundled)
    correlations = {}
    for sid in top2:
        i = source_ids.index(sid)
        sl = slice(i * n_t, (i + 1) * n_t)
        correlations[sid] = float(np.corrcoef(inv.smooth.mean[sl], truth_ba[sl])[0, 1])
    assert min(correlations.values()) > 0.8

    # (c) the positive posterior is tighter on the large sources
    std = np.sqrt(np.maximum(inv.positive.cov_diag, 0.0))
    by_source = {sid: std[source_ids.index(sid) * n_t:(source_ids.index(sid) + 1) * n_t].mean()
                 for sid in source_ids}
    top_mean = np.mean([by_source[sid] for sid in top2])
    bottom_mean = np.mean([by_source[sid] for sid in bottom5])
    assert top_mean < bottom_mean

    assert bundled.wall < 600.0
    report(7, f"const err {'/'.join(f'{errors[s]:.1%}' for s in top2)}, "
              f"corr {'/'.join(f'{correlations[s]:.3f}' for s in top2)}, "
              f"std {top_mean:.2e} < {bottom_mean:.2e}, wall {bundled.wall:.0f}s")


# ---------------------------------------------------------------------------
# criterion 8: acceptance-rate band, tuned and fixed


def test_criterion_08_acceptance_band(bundled):
    cfg = bundled.cfg
    inv = bundled.inversion
    fixed = inv.positive.acceptance_rate
    assert 0.25 <= fixed <= 0.40

    tic = time.perf_counter()
    prior = SmoothnessPrior(cfg.prior, inv.grid, len(cfg.sources))
    f_white, d_white = whiten(inv.f_matrix, inv.measurements.values, inv.noise_var)
    tuned = tune_beta(f_white, d_white, inv.smooth.mean, prior, seed=17, link=clip_positive)
    elapsed = time.perf_counter() - tic
    assert tuned.in_band
    assert 0.25 <= tuned.acceptance_rate <= 0.35
    assert bundled.wall + elapsed < 600.0
    report(8, f"fixed beta {inv.positive.beta:g} -> {fixed:.3f}, tuned beta "
              f"{tuned.beta:.3f} -> {tuned.acceptance_rate:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9: dropping the hourly sampler degrades the constant stage


def test_criterion_09_hourly_sampler_ablation(bundled):
    cfg = bundled.cfg
    tic = time.perf_counter()
    ablation = pipeline.run_invert(cfg, through="constant", drop_sensor="xact1")
    elapsed = time.perf_counter() - tic

    truth_ba = truth_on_inversion_grid(bundled)
    err_full = float(np.linalg.norm(bundled.inversion.constant.q - truth_ba))
    err_drop = float(np.linalg.norm(ablation.constant.q - truth_ba))
    assert err_drop > err_full
    assert elapsed < 300.0
    report(9, f"constant-stage L2 error {err_full:.3f} -> {err_drop:.3f} "
              f"without the hourly sampler, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 10: low-rank propagation exactness and spectrum decay


def test_criterion_10_lowrank_deposition(bundled):
    tic = time.perf_counter()
    rng = np.random.default_rng(77)
    n = 180
    basis, _ = np.linalg.qr(rng.normal(0.0, 1.0, (n, n)))
    cov = basis @ np.diag(rng.uniform(0.1, 3.0, n)) @ basis.T
    cov = 0.5 * (cov + cov.T)
    gspec = GridSpec(x_min=0.0, x_max=950.0, y_min=0.0, y_max=950.0, n_x=20, n_y=20)
    h = rng.uniform(0.0, 1e-4, (gspec.n_x * gspec.n_y, n))
    q = rng.uniform(0.0, 2.0, n)

    # a full-width sketch (the identity test matrix) keeps the whole covariance
    full = CovarianceSketch(
        diag=np.diag(cov), omega=csr_array(np.eye(n)), y=np.array(cov, order="F")
    )
    factors = lowrank_truncate(full.nystrom_factor(), n)
    dep = deposition_stats(h, q, factors, gspec)
    dense_std = np.sqrt(np.diag(h @ cov @ h.T))
    np.testing.assert_allclose(dep.std, dense_std, rtol=1e-8)
    np.testing.assert_allclose(dep.mean, h @ q, rtol=1e-12)
    elapsed = time.perf_counter() - tic

    eig = np.asarray(bundled.propagation["factors"].eigenvalues)
    assert eig.size == 100
    assert np.all(np.diff(eig) <= 1e-12 * eig[0])
    ratio = eig[-1] / eig[0]
    assert ratio < 1e-2
    assert elapsed < 120.0
    rel = np.max(np.abs(dep.std - dense_std) / dense_std)
    report(10, f"full-rank std rel dev {rel:.2e}, bundled lambda_100/lambda_1 "
               f"{ratio:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 11: prior variance is stable under time-step refinement


def test_criterion_11_prior_variance_refinement():
    tic = time.perf_counter()
    alpha, gamma = 2.0, 5e-3
    coarse = SmoothnessPrior(PriorConfig(alpha, gamma), TimeGrid(0.0, 3600.0, 60), 1)
    fine = SmoothnessPrior(PriorConfig(alpha, gamma), TimeGrid(0.0, 1800.0, 120), 1)
    v_coarse = coarse.marginal_var()
    v_fine = fine.marginal_var()[1::2]  # matching right endpoints
    rel = np.abs(v_fine - v_coarse) / v_coarse
    assert rel.max() < 0.10
    elapsed = time.perf_counter() - tic
    assert elapsed < 10.0
    report(11, f"max variance change {rel.max():.1%} when dt halves, {elapsed:.2f}s")
