"""Tests for wind regularization: components, GP regression, CV selection."""

import logging
import math
import tracemalloc

import numpy as np
import pytest

from plumeinv import windprep
from plumeinv.errors import NumericalError
from plumeinv.observation import TimeGrid
from plumeinv.windprep import (
    GPConfig,
    RawWindRecord,
    WindSeries,
    cross_validate,
    default_candidates,
    fit_wind,
    gp_posterior_mean,
    select_hyperparameters,
    to_components,
)


def dense_gp_mean(times, values, cfg, query):
    """Textbook GP mean via a dense solve, no Cholesky reuse."""
    def k(a, b):
        d = np.subtract.outer(a, b)
        return cfg.signal_var * np.exp(-(d**2) / (2.0 * cfg.length_scale**2))

    gram = k(times, times) + cfg.noise_var * np.eye(len(times))
    return k(query, times) @ np.linalg.solve(gram, values)


class TestRawWindRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            RawWindRecord(timestamp=float("nan"), speed=1.0, direction_from=0.0)
        with pytest.raises(ValueError):
            RawWindRecord(timestamp=0.0, speed=-1.0, direction_from=0.0)
        with pytest.raises(ValueError):
            RawWindRecord(timestamp=0.0, speed=1.0, direction_from=360.5)
        with pytest.raises(ValueError):
            RawWindRecord(timestamp=0.0, speed=1.0, direction_from=-5.0)

    def test_calm_zero_speed_is_legal(self):
        RawWindRecord(timestamp=0.0, speed=0.0, direction_from=0.0)


class TestToComponents:
    def test_cardinal_directions(self):
        # wind FROM north blows toward -y (south)
        ux, uy = to_components(RawWindRecord(0.0, 2.0, 0.0))
        assert (ux, uy) == pytest.approx((0.0, -2.0), abs=1e-12)
        # from east toward -x
        ux, uy = to_components(RawWindRecord(0.0, 3.0, 90.0))
        assert (ux, uy) == pytest.approx((-3.0, 0.0), abs=1e-12)
        # from southwest toward northeast
        ux, uy = to_components(RawWindRecord(0.0, math.sqrt(2.0), 225.0))
        assert (ux, uy) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_speed_preserved(self):
        for deg in (0.0, 37.0, 123.4, 359.0):
            ux, uy = to_components(RawWindRecord(0.0, 5.5, deg))
            assert math.hypot(ux, uy) == pytest.approx(5.5, rel=1e-12)


class TestWindSeries:
    def test_speed_property(self):
        grid = TimeGrid(t0=0.0, dt=600.0, n_steps=3)
        ws = WindSeries(grid=grid, u_x=np.array([3.0, 0.0, 1.0]), u_y=np.array([4.0, 2.0, 1.0]))
        np.testing.assert_allclose(ws.speed, [5.0, 2.0, math.sqrt(2.0)])

    def test_validation(self):
        grid = TimeGrid(t0=0.0, dt=600.0, n_steps=3)
        with pytest.raises(ValueError):
            WindSeries(grid=grid, u_x=np.zeros(2), u_y=np.zeros(3))
        with pytest.raises(ValueError):
            WindSeries(grid=grid, u_x=np.array([1.0, np.inf, 0.0]), u_y=np.zeros(3))


class TestGPConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GPConfig(signal_var=0.0, length_scale=1.0, noise_var=0.1)
        with pytest.raises(ValueError):
            GPConfig(signal_var=1.0, length_scale=-1.0, noise_var=0.1)
        with pytest.raises(ValueError):
            GPConfig(signal_var=1.0, length_scale=1.0, noise_var=0.0)


class TestGPPosteriorMean:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 3600.0, 40))
        values = np.sin(times / 500.0) + 0.1 * rng.standard_normal(40)
        query = np.linspace(-200.0, 3800.0, 37)
        cfg = GPConfig(signal_var=1.3, length_scale=400.0, noise_var=0.05)
        got = gp_posterior_mean(times, values, cfg, query)
        np.testing.assert_allclose(got, dense_gp_mean(times, values, cfg, query), rtol=1e-9)

        # Irregular times with a gap of 15 length scales, wider than the
        # kernel cutoff (9.12 length scales); a length scale longer than the
        # whole span, so the band is full; unsorted training input. The
        # banded path drops kernel values below 2^-60 of the signal
        # variance, hence the absolute tolerance for queries inside the gap.
        gapped = np.concatenate([times, times + 3600.0 + 15.0 * 400.0])
        gapped_values = np.sin(gapped / 500.0) + 0.1 * rng.standard_normal(gapped.size)
        gapped_query = np.linspace(-200.0, gapped[-1] + 200.0, 101)
        shuffled = rng.permutation(times.size)
        cases = [
            (gapped, gapped_values, cfg, gapped_query),
            (times, values, GPConfig(1.3, 1e5, 0.05), query),
            (times[shuffled], values[shuffled], cfg, query),
        ]
        for case_times, case_values, case_cfg, case_query in cases:
            got = gp_posterior_mean(case_times, case_values, case_cfg, case_query)
            want = dense_gp_mean(case_times, case_values, case_cfg, case_query)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-15)

    def test_training_order_does_not_matter(self):
        rng = np.random.default_rng(8)
        times = np.sort(rng.uniform(0.0, 20000.0, 150))
        values = np.cos(times / 900.0) + 0.1 * rng.standard_normal(150)
        query = np.linspace(-500.0, 20500.0, 77)
        cfg = GPConfig(signal_var=1.0, length_scale=300.0, noise_var=0.02)
        shuffled = rng.permutation(150)
        np.testing.assert_array_equal(
            gp_posterior_mean(times[shuffled], values[shuffled], cfg, query),
            gp_posterior_mean(times, values, cfg, query),
        )

    def test_each_query_independent_of_the_others(self):
        rng = np.random.default_rng(9)
        times = np.sort(rng.uniform(0.0, 20000.0, 150))
        values = np.sin(times / 700.0)
        query = rng.uniform(-1000.0, 21000.0, 60)
        cfg = GPConfig(signal_var=1.0, length_scale=250.0, noise_var=0.05)
        together = gp_posterior_mean(times, values, cfg, query)
        alone = [gp_posterior_mean(times, values, cfg, query[j : j + 1])[0] for j in range(60)]
        np.testing.assert_array_equal(together, alone)

    def test_two_point_shrinkage_closed_form(self):
        """Decorrelated points shrink toward the zero prior mean by
        s^2/(s^2+noise); cross terms are exp(-d^2/2l^2) small."""
        cfg = GPConfig(signal_var=2.0, length_scale=10.0, noise_var=0.5)
        times = np.array([0.0, 1e6])
        values = np.array([3.0, -1.0])
        got = gp_posterior_mean(times, values, cfg, np.array([0.0]))
        assert got[0] == pytest.approx(3.0 * 2.0 / 2.5, rel=1e-12)

    def test_interpolates_with_small_noise(self):
        times = np.linspace(0.0, 1000.0, 21)
        values = np.cos(times / 150.0)
        cfg = GPConfig(signal_var=1.0, length_scale=200.0, noise_var=1e-8)
        got = gp_posterior_mean(times, values, cfg, times)
        np.testing.assert_allclose(got, values, atol=1e-4)

    def test_far_extrapolation_decays_to_prior_mean(self):
        times = np.linspace(0.0, 1000.0, 21)
        values = 2.0 + np.cos(times / 150.0)
        cfg = GPConfig(signal_var=1.0, length_scale=200.0, noise_var=0.01)
        far = gp_posterior_mean(times, values, cfg, np.array([1e7]))
        assert abs(far[0]) < 1e-10

    def test_requires_two_points(self):
        cfg = GPConfig(signal_var=1.0, length_scale=100.0, noise_var=0.1)
        with pytest.raises(ValueError):
            gp_posterior_mean(np.array([0.0]), np.array([1.0]), cfg, np.array([0.5]))


class TestDefaultCandidates:
    def test_grid_size_and_scaling(self):
        times = np.linspace(0.0, 86400.0, 50)
        values = np.sin(times / 5000.0)
        cands = default_candidates(times, values)
        assert len(cands) == 45
        var = np.var(values)
        assert any(c.signal_var == pytest.approx(var) for c in cands)
        scales = {c.length_scale for c in cands}
        assert min(scales) == pytest.approx(3e-4 * 86400.0)
        assert max(scales) == pytest.approx(3e-2 * 86400.0)

    def test_flat_values_fall_back_to_unit_variance(self):
        cands = default_candidates(np.array([0.0, 100.0]), np.array([2.0, 2.0]))
        assert all(c.signal_var > 0 and c.noise_var > 0 for c in cands)


class TestCrossValidate:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.times = np.sort(rng.uniform(0.0, 20000.0, 120))
        self.values = np.sin(2.0 * np.pi * self.times / 8000.0) + 0.05 * rng.standard_normal(120)

    def test_prefers_matched_length_scale(self):
        good = GPConfig(signal_var=0.5, length_scale=1500.0, noise_var=0.01)
        too_long = GPConfig(signal_var=0.5, length_scale=1e6, noise_var=0.01)
        too_short = GPConfig(signal_var=0.5, length_scale=1.0, noise_var=0.01)
        assert cross_validate(self.times, self.values, [too_long, good, too_short]).config is good

    def test_deterministic_given_seed(self):
        cands = default_candidates(self.times, self.values)
        a = cross_validate(self.times, self.values, cands, seed=9)
        b = cross_validate(self.times, self.values, cands, seed=9)
        assert a == b

    def test_tie_breaks_to_smaller_length_scale(self):
        cfg_long = GPConfig(signal_var=0.5, length_scale=2000.0, noise_var=0.01)
        cfg_short = GPConfig(signal_var=0.5, length_scale=1000.0, noise_var=0.01)
        # same scores for identical configs; distinct scales settle by scale
        picked = cross_validate(self.times, self.values, [cfg_long, cfg_long, cfg_short, cfg_short])
        alone = cross_validate(self.times, self.values, [cfg_long, cfg_short])
        assert picked.config.length_scale == alone.config.length_scale

    def test_leave_one_out_fallback(self):
        cfg = GPConfig(signal_var=1.0, length_scale=500.0, noise_var=0.1)
        picked = cross_validate(self.times[:5], self.values[:5], [cfg])
        assert picked.config is cfg
        assert picked.runner_up_gap is None

    def test_reports_score_and_runner_up_gap(self):
        cands = default_candidates(self.times, self.values)
        scores = windprep._cv_scores(self.times, self.values, cands, 0)
        choice = cross_validate(self.times, self.values, cands)
        best, second = np.sort(scores)[:2]
        assert choice.config is cands[int(np.argmin(scores))]
        assert choice.score == best
        assert choice.runner_up_gap == (second - best) / best

    def test_zero_component_has_no_runner_up_gap(self):
        # a wind blowing steadily from north has u_x = 0 throughout: every
        # candidate predicts it exactly, so the relative gap is undefined
        zeros = np.zeros_like(self.values)
        choice = cross_validate(self.times, zeros, default_candidates(self.times, zeros))
        assert choice.score == 0.0 and choice.runner_up_gap is None

    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError):
            cross_validate(self.times, self.values, [])

    def test_scores_equal_per_candidate_oracle(self):
        rng = np.random.default_rng(17)
        times = np.sort(rng.uniform(0.0, 50000.0, 97))
        values = np.cos(times / 3000.0) + 0.2 * rng.standard_normal(97)
        cands = default_candidates(times, values)
        got = windprep._cv_scores(times, values, cands, 3)
        np.testing.assert_array_equal(got, oracle_cv_scores(times, values, cands, 3, 10))

    def test_no_trainable_fold_raises(self):
        cfg = GPConfig(signal_var=1.0, length_scale=500.0, noise_var=0.1)
        with pytest.raises(ValueError, match="two training points"):
            cross_validate(self.times[:2], self.values[:2], [cfg])

    def test_singular_gram_reaches_jitter(self, caplog):
        # a length scale far beyond the span makes the noiseless Gram matrix
        # numerically rank-deficient; CV must still score it via the jitter
        times = np.linspace(0.0, 10.0, 30)
        values = np.sin(times)
        flat = GPConfig(signal_var=1.0, length_scale=1e6, noise_var=1e-300)
        fine = GPConfig(signal_var=1.0, length_scale=2.0, noise_var=0.01)
        with caplog.at_level(logging.WARNING, logger="plumeinv.windprep"):
            scores = windprep._cv_scores(times, values, [flat, fine], 0)
        assert any("adding jitter" in r.message for r in caplog.records)
        assert np.all(np.isfinite(scores))
        np.testing.assert_array_equal(scores, oracle_cv_scores(times, values, [flat, fine], 0, 10))

    def test_gram_that_does_not_factor_after_the_jitter_is_a_numerical_error(
        self, monkeypatch, caplog
    ):
        # both factorizations fail, the plain one and the one with jitter
        calls = []

        def failing(band):
            calls.append(1)
            raise np.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(windprep, "cholesky_banded", failing)
        records, *_ = synthetic_records(n=40)
        with caplog.at_level(logging.WARNING, logger="plumeinv.windprep"):
            with pytest.raises(
                NumericalError,
                match=r"cross-validation of wind component u_x: kernel matrix at length scale "
                r"\S+ s is not positive definite after a jitter",
            ):
                select_hyperparameters(records, seed=0)
        assert len(calls) == 2
        assert any("adding jitter" in r.message for r in caplog.records)
        grid = TimeGrid(t0=0.0, dt=3600.0, n_steps=4)
        cfg = GPConfig(1.0, 3000.0, 0.1)
        with pytest.raises(NumericalError, match="fit of wind component u_x: .* 3000 s"):
            fit_wind(records, grid, (cfg, cfg))


def oracle_cv_scores(times, values, candidates, seed, n_folds):
    """Mean held-out error from one gp_posterior_mean call per (candidate, fold)."""
    n = times.size
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, min(n_folds, n))
    scores = []
    for cfg in candidates:
        errs = []
        for fold in folds:
            train = np.setdiff1d(perm, fold, assume_unique=True)
            pred = gp_posterior_mean(times[train], values[train], cfg, times[fold])
            errs.append(float(np.mean((pred - values[fold]) ** 2)))
        scores.append(float(np.mean(errs)))
    return np.array(scores)


def synthetic_records(n=200, cadence=600.0, seed=2):
    """Slowly rotating wind with noise; returns records and the clean truth."""
    rng = np.random.default_rng(seed)
    t = cadence * np.arange(n)
    speed = 3.0 + 0.8 * np.sin(2.0 * np.pi * t / 43200.0)
    direction = (280.0 + 30.0 * np.sin(2.0 * np.pi * t / 86400.0)) % 360.0
    noisy_speed = np.clip(speed + 0.15 * rng.standard_normal(n), 0.0, None)
    noisy_dir = (direction + 4.0 * rng.standard_normal(n)) % 360.0
    records = [
        RawWindRecord(timestamp=float(tt), speed=float(s), direction_from=float(d))
        for tt, s, d in zip(t, noisy_speed, noisy_dir)
    ]
    return records, t, speed, direction


def chosen_configs(records, **kwargs):
    return [choice.config for choice in select_hyperparameters(records, **kwargs)]


class TestFitWind:
    def test_tracks_clean_components(self):
        records, t, speed, direction = synthetic_records()
        grid = TimeGrid(t0=0.0, dt=3600.0, n_steps=32)
        series = fit_wind(records, grid, chosen_configs(records, seed=0))
        theta = np.radians(np.interp(grid.times, t, direction))
        clean_ux = -np.interp(grid.times, t, speed) * np.sin(theta)
        clean_uy = -np.interp(grid.times, t, speed) * np.cos(theta)
        assert np.max(np.abs(series.u_x - clean_ux)) < 0.35
        assert np.max(np.abs(series.u_y - clean_uy)) < 0.35

    def test_duplicate_timestamps_raise(self):
        # io.load_wind_csv dedupes (last row wins); the fit refuses duplicates
        records = [
            RawWindRecord(0.0, 2.0, 270.0),
            RawWindRecord(600.0, 3.0, 270.0),
            RawWindRecord(600.0, 9.0, 90.0),
            RawWindRecord(1200.0, 2.5, 270.0),
        ]
        grid = TimeGrid(t0=0.0, dt=300.0, n_steps=4)
        cfg = (GPConfig(1.0, 400.0, 0.01), GPConfig(1.0, 400.0, 0.01))
        with pytest.raises(ValueError, match="strictly increase"):
            fit_wind(records, grid, cfg)
        with pytest.raises(ValueError, match="strictly increase"):
            fit_wind(records[::-1], grid, cfg)

    def test_extrapolation_warns(self, caplog):
        records = [RawWindRecord(0.0, 2.0, 270.0), RawWindRecord(600.0, 2.0, 270.0)]
        grid = TimeGrid(t0=0.0, dt=600.0, n_steps=3)  # last time 1800 > records
        cfg = (GPConfig(1.0, 400.0, 0.01), GPConfig(1.0, 400.0, 0.01))
        with caplog.at_level(logging.WARNING, logger="plumeinv.windprep"):
            fit_wind(records, grid, cfg)
        assert any("extrapolating" in r.message for r in caplog.records)

    def test_each_component_is_its_gp_posterior_mean(self, monkeypatch):
        records, *_ = synthetic_records(n=120)
        configs = chosen_configs(records, seed=1)
        grid = TimeGrid(t0=600.0, dt=1200.0, n_steps=55)
        t = np.array([r.timestamp for r in records])
        comps = np.array([to_components(r) for r in records])
        factor_calls = []
        original = windprep.cholesky_banded
        monkeypatch.setattr(
            windprep,
            "cholesky_banded",
            lambda *a, **k: factor_calls.append(1) or original(*a, **k),
        )
        series = fit_wind(records, grid, configs)
        assert len(factor_calls) == 2  # one per component
        assert series.grid is grid
        for k, u in enumerate((series.u_x, series.u_y)):
            np.testing.assert_array_equal(
                u, gp_posterior_mean(t, comps[:, k], configs[k], grid.times)
            )

    def test_too_few_records_raise(self):
        grid = TimeGrid(t0=0.0, dt=600.0, n_steps=3)
        with pytest.raises(ValueError):
            fit_wind([RawWindRecord(0.0, 2.0, 270.0)], grid, None)

    def test_memory_grows_with_the_band_not_records_squared(self):
        n = 8000
        records = [
            RawWindRecord(600.0 * j, 3.0 + math.sin(j / 50.0), (270.0 + j / 40.0) % 360.0)
            for j in range(n)
        ]
        grid = TimeGrid(t0=0.0, dt=600.0, n_steps=n - 1)
        cfg = GPConfig(signal_var=1.0, length_scale=6000.0, noise_var=0.05)
        tracemalloc.start()
        try:
            fit_wind(records, grid, (cfg, cfg))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * n * 8


class TestRegularizeWind:
    def test_deterministic(self):
        records, *_ = synthetic_records(n=80)
        grid = TimeGrid(t0=0.0, dt=3600.0, n_steps=12)
        a = fit_wind(records, grid, chosen_configs(records, seed=4))
        b = fit_wind(records, grid, chosen_configs(records, seed=4))
        np.testing.assert_array_equal(a.u_x, b.u_x)
        np.testing.assert_array_equal(a.u_y, b.u_y)

    def test_cv_subsample_cap_still_fits_all_records(self, monkeypatch):
        monkeypatch.setattr(windprep, "CV_MAX_POINTS", 40)
        records, t, speed, direction = synthetic_records(n=150)
        grid = TimeGrid(t0=0.0, dt=3600.0, n_steps=24)
        configs = chosen_configs(records, seed=0)
        capped = fit_wind(records, grid, configs)
        assert np.all(np.isfinite(capped.u_x))
        # selection differs at most; the fit must still track the data
        theta = np.radians(np.interp(grid.times, t, direction))
        clean_ux = -np.interp(grid.times, t, speed) * np.sin(theta)
        assert np.max(np.abs(capped.u_x - clean_ux)) < 0.5

    def test_cv_subsample_takes_contiguous_runs_spread_over_the_records(self):
        runs = windprep._cv_subsample(8640, 400).reshape(windprep.CV_RUNS, -1)
        assert runs.shape == (8, 50)
        np.testing.assert_array_equal(np.diff(runs, axis=1), 1)
        assert runs[0, 0] == 0 and runs[-1, -1] == 8639
        gaps = np.diff(runs[:, 0])
        assert gaps.min() > 50 and gaps.max() - gaps.min() <= 1
        np.testing.assert_array_equal(windprep._cv_subsample(400, 400), np.arange(400))

    def test_select_hyperparameters_returns_pair(self):
        records, *_ = synthetic_records(n=60)
        choice_x, choice_y = select_hyperparameters(records, seed=0)
        for choice in (choice_x, choice_y):
            assert isinstance(choice.config, GPConfig)
            assert choice.score > 0.0 and choice.runner_up_gap >= 0.0
