"""Tests for the synthetic twin: truth signals, wind model, data generation."""

import math

import numpy as np
import pytest

from plumeinv.errors import ValidationError
from plumeinv.observation import DustfallJar, RealTimeSampler, TimeGrid
from plumeinv.observation import assemble_F, signal_variances
from plumeinv.plume import ParticleProperties, PlumeModel, SourceSite, StabilityClass
from plumeinv.synthetic import (
    Harmonic,
    SourceSignal,
    SyntheticSpec,
    WindModel,
    block_average,
    emission_series,
    generate_synthetic,
    wind_records,
    wind_series,
)
from plumeinv.windprep import WindSeries, to_components

PARTICLE = ParticleProperties(w_dep=1.2e-2, w_set=7.8641975308642e-3)


class TestSourceSignal:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            SourceSignal(amplitude=-1.0, omega=1.0, phase=0.0, offset=0.5)


class TestEmissionSeries:
    def test_literal_with_clipping(self):
        """Slot times are right endpoints, so elapsed starts at dt."""
        grid = TimeGrid(t0=100.0, dt=1.0, n_steps=4)
        sig = SourceSignal(amplitude=2.0, omega=math.pi / 2.0, phase=0.0, offset=1.0)
        got = emission_series(SyntheticSpec(signals=(sig,), clip=True), grid)
        np.testing.assert_allclose(got, [3.0, 1.0, 0.0, 1.0], atol=1e-12)

    def test_clip_disabled_keeps_negatives(self):
        grid = TimeGrid(t0=0.0, dt=1.0, n_steps=4)
        sig = SourceSignal(amplitude=2.0, omega=math.pi / 2.0, phase=0.0, offset=1.0)
        got = emission_series(SyntheticSpec(signals=(sig,), clip=False), grid)
        np.testing.assert_allclose(got, [3.0, 1.0, -1.0, 1.0], atol=1e-12)

    def test_source_major_stacking(self):
        grid = TimeGrid(t0=0.0, dt=1.0, n_steps=3)
        a = SourceSignal(amplitude=0.0, omega=1.0, phase=0.0, offset=1.0)
        b = SourceSignal(amplitude=0.0, omega=1.0, phase=0.0, offset=2.0)
        got = emission_series(SyntheticSpec(signals=(a, b)), grid)
        np.testing.assert_allclose(got, [1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(signals=())


class TestBlockAverage:
    def test_two_to_one_literal(self):
        fine = TimeGrid(t0=0.0, dt=1.0, n_steps=6)
        coarse = TimeGrid(t0=0.0, dt=2.0, n_steps=3)
        got = block_average(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), fine, coarse)
        np.testing.assert_allclose(got, [1.5, 3.5, 5.5])

    def test_multi_source(self):
        fine = TimeGrid(t0=0.0, dt=1.0, n_steps=4)
        coarse = TimeGrid(t0=0.0, dt=2.0, n_steps=2)
        q = np.array([1.0, 3.0, 5.0, 7.0, 10.0, 30.0, 50.0, 70.0])
        np.testing.assert_allclose(block_average(q, fine, coarse), [2.0, 6.0, 20.0, 60.0])

    def test_identity_when_grids_match(self):
        grid = TimeGrid(t0=0.0, dt=2.0, n_steps=3)
        q = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(block_average(q, grid, grid), q)

    def test_non_nested_grids_raise(self):
        fine = TimeGrid(t0=0.0, dt=1.0, n_steps=6)
        with pytest.raises(ValueError):
            block_average(np.zeros(6), fine, TimeGrid(t0=0.0, dt=2.5, n_steps=3))
        with pytest.raises(ValueError):
            block_average(np.zeros(6), fine, TimeGrid(t0=1.0, dt=2.0, n_steps=3))
        with pytest.raises(ValueError):
            block_average(np.zeros(6), fine, TimeGrid(t0=0.0, dt=2.0, n_steps=2))


class TestWindModel:
    def test_constant_without_harmonics(self):
        model = WindModel(speed_base=4.0, direction_base=270.0)
        elapsed = np.array([0.0, 100.0, 5000.0])
        np.testing.assert_allclose(model.speed(elapsed), 4.0)
        np.testing.assert_allclose(model.direction(elapsed), 270.0)

    def test_speed_harmonic_hand_value(self):
        model = WindModel(
            speed_base=3.0,
            direction_base=0.0,
            speed_harmonics=(Harmonic(amplitude=1.0, period=100.0, phase=0.0),),
        )
        # quarter period: sin(pi/2) = 1
        assert model.speed(np.array([25.0]))[0] == pytest.approx(4.0, rel=1e-12)

    def test_speed_floor(self):
        model = WindModel(
            speed_base=0.5,
            direction_base=0.0,
            speed_harmonics=(Harmonic(amplitude=2.0, period=100.0, phase=0.0),),
            min_speed=0.4,
        )
        assert model.speed(np.array([75.0]))[0] == 0.4

    def test_direction_wraps(self):
        model = WindModel(
            speed_base=3.0,
            direction_base=350.0,
            direction_harmonics=(Harmonic(amplitude=30.0, period=100.0, phase=0.0),),
        )
        got = model.direction(np.array([25.0]))[0]
        assert got == pytest.approx(20.0, abs=1e-9)

    def test_harmonic_validation(self):
        with pytest.raises(ValueError):
            Harmonic(amplitude=1.0, period=0.0, phase=0.0)


class TestWindRecords:
    def test_cadence_and_span(self):
        model = WindModel(speed_base=3.0, direction_base=300.0)
        recs = wind_records(model, t0=1000.0, duration=3600.0, cadence=600.0)
        assert len(recs) == 7  # inclusive endpoints
        assert recs[0].timestamp == 1000.0
        assert recs[-1].timestamp == 4600.0
        assert all(r.speed == 3.0 and r.direction_from == 300.0 for r in recs)

    def test_validation(self):
        model = WindModel(speed_base=3.0, direction_base=300.0)
        with pytest.raises(ValueError):
            wind_records(model, t0=0.0, duration=0.0, cadence=600.0)
        with pytest.raises(ValueError):
            wind_records(model, t0=0.0, duration=3600.0, cadence=-1.0)


class TestWindSeries:
    def test_is_the_model_at_the_grid_times_in_components(self):
        model = WindModel(
            speed_base=3.0,
            direction_base=300.0,
            speed_harmonics=(Harmonic(amplitude=0.8, period=7200.0, phase=0.3),),
            direction_harmonics=(Harmonic(amplitude=80.0, period=10800.0, phase=1.0),),
        )
        grid = TimeGrid(t0=1.7e9, dt=1800.0, n_steps=12)
        series = wind_series(model, grid)
        # the records at the grid cadence, less the one at t0, sit at the grid times
        records = wind_records(model, grid.t0, grid.span, grid.dt)[1:]
        assert [r.timestamp for r in records] == list(grid.times)
        want = np.array([to_components(r) for r in records])
        assert series.grid is grid
        np.testing.assert_allclose(series.u_x, want[:, 0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(series.u_y, want[:, 1], rtol=1e-12, atol=1e-12)


class TestGenerateSynthetic:
    def setup_method(self):
        self.grid = TimeGrid(t0=0.0, dt=600.0, n_steps=12)
        self.model = PlumeModel(
            [
                SourceSite(id="src_a", x=0.0, y=0.0, height=5.0),
                SourceSite(id="src_b", x=50.0, y=30.0, height=3.0),
            ],
            PARTICLE,
            StabilityClass.D,
        )
        self.sensors = [
            DustfallJar(id="jar1", x=200.0, y=0.0, z=1.5, area=0.02, snr=10.0),
            DustfallJar(id="jar2", x=250.0, y=40.0, z=1.5, area=0.02, snr=10.0),
            RealTimeSampler(
                id="rt", x=300.0, y=-20.0, z=3.0, window=1200.0,
                start_times=(0.0, 2400.0, 4800.0), snr=100.0,
            ),
        ]
        rng = np.random.default_rng(23)
        speed = 3.0 + rng.uniform(-0.5, 0.5, 12)
        ang = rng.uniform(-0.25, 0.25, 12)
        self.wind = WindSeries(self.grid, speed * np.cos(ang), speed * np.sin(ang))
        self.spec = SyntheticSpec(signals=(
            SourceSignal(amplitude=0.2, omega=2e-4, phase=0.0, offset=1.0),
            SourceSignal(amplitude=0.1, omega=3e-4, phase=1.0, offset=0.5),
        ))

    def test_truth_matches_emission_series(self):
        q, _ = generate_synthetic(self.spec, self.model, self.sensors, self.wind, seed=0)
        np.testing.assert_array_equal(q, emission_series(self.spec, self.grid))

    def test_reproducible_and_seeded(self):
        args = (self.spec, self.model, self.sensors, self.wind)
        _, m_a = generate_synthetic(*args, seed=5)
        _, m_b = generate_synthetic(*args, seed=5)
        _, m_c = generate_synthetic(*args, seed=6)
        np.testing.assert_array_equal(m_a.values, m_b.values)
        assert np.any(m_a.values != m_c.values)

    def test_noise_scale_respects_snr(self):
        """Residuals should sit at the declared noise scale, not at zero
        and not wildly above it."""
        args = (self.spec, self.model, self.sensors, self.wind)
        f = assemble_F(self.sensors, self.model, self.wind)
        q = emission_series(self.spec, self.grid)
        clean = f @ q
        resid = np.array([
            generate_synthetic(*args, seed=s)[1].values - clean for s in range(200)
        ])
        sd = np.sqrt(signal_variances(clean, self.sensors))
        z = resid / sd
        assert abs(z.mean()) < 0.1
        assert 0.85 < z.std() < 1.15

    def test_signal_site_mismatch_raises(self):
        bad = SyntheticSpec(signals=(self.spec.signals[0],))
        with pytest.raises(ValidationError):
            generate_synthetic(bad, self.model, self.sensors, self.wind, seed=0)
