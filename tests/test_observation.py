"""Tests for the observation map: window quadrature, stacking, noise model.

The reference path below rebuilds every measurement by an explicit loop
over
grid steps and window weights, so it shares no assembly code (einsum,
reshape, block stacking) with the production matrix builder.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array

from plumeinv import observation
from plumeinv.errors import ConfigurationError, NumericalError
from plumeinv.observation import (
    DustfallJar,
    MeasurementSet,
    RealTimeSampler,
    TimeGrid,
    assemble_F,
    measurement_count,
    signal_variances,
    simulate_measurements,
    window_slots,
    window_weight,
)
from plumeinv.plume import (
    ParticleProperties,
    PlumeModel,
    SourceSite,
    StabilityClass,
    kernel_profile,
)
from plumeinv.windprep import WindSeries

PARTICLE = ParticleProperties(w_dep=1.2e-2, w_set=7.8641975308642e-3)

GRID = TimeGrid(t0=0.0, dt=600.0, n_steps=10)

SITES = [
    SourceSite(id="src_a", x=0.0, y=0.0, height=5.0),
    SourceSite(id="src_b", x=80.0, y=-40.0, height=2.0),
]
MODEL = PlumeModel(SITES, PARTICLE, StabilityClass.D)

JAR = DustfallJar(id="jar_x", x=150.0, y=10.0, z=1.5, area=0.02, snr=10.0)
SAMPLER_1 = RealTimeSampler(
    id="rt_1", x=200.0, y=-30.0, z=3.0, window=1200.0,
    start_times=(0.0, 1200.0, 2400.0, 3600.0, 4800.0), snr=100.0,
)
SAMPLER_2 = RealTimeSampler(
    id="rt_2", x=120.0, y=60.0, z=2.0, window=600.0,
    start_times=(600.0, 3000.0), snr=100.0,
)
SENSORS = [JAR, SAMPLER_1, SAMPLER_2]


def make_wind(calm_step=None):
    """Varied but mostly-eastward wind; optionally one calm step."""
    rng = np.random.default_rng(7)
    speed = 3.0 + rng.uniform(-1.0, 1.0, GRID.n_steps)
    angle = rng.uniform(-0.4, 0.4, GRID.n_steps)
    u_x = speed * np.cos(angle)
    u_y = speed * np.sin(angle)
    if calm_step is not None:
        u_x[calm_step] = 0.02
        u_y[calm_step] = 0.02
    return WindSeries(GRID, u_x, u_y)


class TestTimeGrid:
    def test_times_are_right_endpoints(self):
        grid = TimeGrid(t0=100.0, dt=50.0, n_steps=4)
        np.testing.assert_allclose(grid.times, [150.0, 200.0, 250.0, 300.0])
        assert grid.span == 200.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(t0=0.0, dt=0.0, n_steps=5)
        with pytest.raises(ValueError):
            TimeGrid(t0=0.0, dt=-1.0, n_steps=5)
        with pytest.raises(ValueError):
            TimeGrid(t0=0.0, dt=60.0, n_steps=1)


class TestSensorTypes:
    def test_jar_validation(self):
        with pytest.raises(ValueError):
            DustfallJar(id="j", x=0, y=0, z=1.5, area=0.0, snr=10.0)
        with pytest.raises(ValueError):
            DustfallJar(id="j", x=0, y=0, z=1.5, area=0.02, snr=0.0)

    def test_sampler_validation(self):
        with pytest.raises(ValueError):
            RealTimeSampler(id="s", x=0, y=0, z=3, window=0.0, start_times=(0.0,), snr=100.0)
        with pytest.raises(ValueError):
            RealTimeSampler(id="s", x=0, y=0, z=3, window=600.0, start_times=(), snr=100.0)
        with pytest.raises(ValueError):
            RealTimeSampler(
                id="s", x=0, y=0, z=3, window=600.0, start_times=(0.0, 0.0), snr=100.0
            )
        with pytest.raises(ValueError):
            RealTimeSampler(
                id="s", x=0, y=0, z=3, window=600.0, start_times=(1200.0, 600.0), snr=100.0
            )

    def test_measurement_count(self):
        assert measurement_count(JAR) == 1
        assert measurement_count(SAMPLER_1) == 5
        assert measurement_count(SAMPLER_2) == 2


class TestWindowWeight:
    def test_jar_weight_inside_period(self):
        w = window_weight(JAR, 0, 300.0, GRID, PARTICLE.w_dep)
        assert w == JAR.area * PARTICLE.w_dep

    def test_jar_period_is_left_open(self):
        # t0 itself is outside, t0 + span is the last included instant
        assert window_weight(JAR, 0, GRID.t0, GRID, PARTICLE.w_dep) == 0.0
        assert window_weight(JAR, 0, GRID.t0 + GRID.span, GRID, PARTICLE.w_dep) > 0.0
        assert window_weight(JAR, 0, GRID.t0 + GRID.span + 1.0, GRID, PARTICLE.w_dep) == 0.0

    def test_sampler_window_is_left_open(self):
        w_in = window_weight(SAMPLER_1, 1, 2400.0, GRID, PARTICLE.w_dep)
        assert w_in == 1.0 / SAMPLER_1.window
        assert window_weight(SAMPLER_1, 1, 1200.0, GRID, PARTICLE.w_dep) == 0.0
        assert window_weight(SAMPLER_1, 1, 2401.0, GRID, PARTICLE.w_dep) == 0.0

    def test_bad_index_raises(self):
        with pytest.raises(IndexError):
            window_weight(JAR, 1, 300.0, GRID, PARTICLE.w_dep)
        with pytest.raises(IndexError):
            window_weight(SAMPLER_1, 5, 300.0, GRID, PARTICLE.w_dep)


def sampler(window, starts):
    return RealTimeSampler(id="s", x=0, y=0, z=3, window=window, start_times=starts, snr=100.0)


class TestWindowSlots:
    @pytest.mark.parametrize(
        "sensor",
        [
            JAR,
            SAMPLER_1,  # back to back
            SAMPLER_2,
            sampler(1800.0, (0.0, 600.0, 1200.0)),  # overlapping
            sampler(1200.0, (GRID.t0 + GRID.span - 1200.0,)),  # ends at the span
            sampler(1200.0, (GRID.t0 - 5e-7, 4800.0 + 5e-7)),  # inside the tolerance
        ],
        ids=["jar", "back_to_back", "apart", "overlapping", "end_of_span", "tolerance"],
    )
    def test_slots_are_where_the_window_weight_is_nonzero(self, sensor):
        first, stop = window_slots(sensor, GRID)
        assert len(first) == len(stop) == measurement_count(sensor)
        for ell in range(measurement_count(sensor)):
            for j, t in enumerate(GRID.times):
                weight = window_weight(sensor, ell, t, GRID, PARTICLE.w_dep)
                assert (first[ell] <= j < stop[ell]) == (weight != 0.0), (ell, j)

    def test_exact_span_is_allowed(self):
        first, stop = window_slots(sampler(GRID.span, (GRID.t0,)), GRID)
        np.testing.assert_array_equal(first, [0])
        np.testing.assert_array_equal(stop, [GRID.n_steps])

    def test_window_before_grid_raises(self):
        with pytest.raises(ConfigurationError, match="windows extend outside the time grid"):
            window_slots(sampler(600.0, (-600.0,)), GRID)

    def test_window_past_grid_raises(self):
        with pytest.raises(ConfigurationError, match="windows extend outside the time grid"):
            window_slots(sampler(1200.0, (5400.0,)), GRID)

    def test_window_missing_grid_points_raises(self):
        # (360, 600] holds the grid time 600; (660, 900] holds no multiple of 600
        with pytest.raises(ConfigurationError, match="window 1 captures no grid point"):
            window_slots(sampler(240.0, (360.0, 660.0)), GRID)


def reference_forward(q_by_source, wind):
    """Direct quadrature of every measurement, no matrix assembly.

    q_by_source: (n_sources, n_steps) rates. Returns the stacked data
    vector in sensor declaration order.
    """
    times = GRID.times
    points = np.array([s.location for s in SENSORS])
    kern = np.zeros((GRID.n_steps, len(SENSORS), len(SITES)))
    for j in range(GRID.n_steps):
        # a calm slot gives zero kernels: it transports nothing
        kern[j] = kernel_profile(points, MODEL, (wind.u_x[j], wind.u_y[j]))
    out = []
    for k, sensor in enumerate(SENSORS):
        for ell in range(measurement_count(sensor)):
            total = 0.0
            for j, t in enumerate(times):
                weight = window_weight(sensor, ell, t, GRID, PARTICLE.w_dep)
                for i in range(len(SITES)):
                    total += weight * GRID.dt * kern[j, k, i] * q_by_source[i, j]
            out.append(total)
    return np.array(out)


class TestAssembleF:
    def test_matches_direct_quadrature(self):
        """Two sources, three sensors, ten steps, varying wind."""
        wind = make_wind()
        f = assemble_F(SENSORS, MODEL, wind)
        assert f.shape == (8, 2 * GRID.n_steps)
        rng = np.random.default_rng(11)
        q_by_source = rng.uniform(0.1, 2.0, (len(SITES), GRID.n_steps))
        expected = reference_forward(q_by_source, wind)
        np.testing.assert_allclose(f @ q_by_source.ravel(), expected, rtol=1e-12)

    def test_direct_quadrature_with_calm_gap(self):
        wind = make_wind(calm_step=6)
        f = assemble_F(SENSORS, MODEL, wind)
        rng = np.random.default_rng(12)
        q_by_source = rng.uniform(0.1, 2.0, (len(SITES), GRID.n_steps))
        expected = reference_forward(q_by_source, wind)
        np.testing.assert_allclose(f @ q_by_source.ravel(), expected, rtol=1e-12)

    def test_stacking_is_source_major(self):
        """Feeding a one-hot emission vector reads out a single F column."""
        wind = make_wind()
        f = assemble_F(SENSORS, MODEL, wind)
        i, j = 1, 4  # source src_b, slot 5
        q = np.zeros(2 * GRID.n_steps)
        q[i * GRID.n_steps + j] = 1.0
        by_source = np.zeros((2, GRID.n_steps))
        by_source[i, j] = 1.0
        np.testing.assert_allclose(f @ q, reference_forward(by_source, wind), rtol=1e-12)

    def test_product_matches_dense_f(self):
        # F q from G and each sensor's M, with a jar, two samplers and a calm step
        wind = make_wind(calm_step=6)
        q = np.random.default_rng(14).uniform(0.1, 2.0, 2 * GRID.n_steps)
        fq = assemble_F(SENSORS, MODEL, wind, q)
        assert fq.shape == (8,)
        np.testing.assert_allclose(fq, assemble_F(SENSORS, MODEL, wind) @ q, rtol=1e-12)
        assert assemble_F([], MODEL, wind, q).shape == (0,)

    def test_f_is_bitwise_the_dense_window_matrix_times_g(self):
        # Each sensor's dense window matrix M, entry (l, j) = weight(t_j) * dt,
        # then F_k[l, i*n_t + j] = M[l, j] * G[j, k, i]: one product per entry.
        # F is that dense oracle's CSR conversion, array for array; the calm
        # step's exact zeros are not stored.
        wind = make_wind(calm_step=6)
        times = GRID.times
        g = kernel_profile(np.array([s.location for s in SENSORS]), MODEL, (wind.u_x, wind.u_y))
        blocks = []
        for k, sensor in enumerate(SENSORS):
            if isinstance(sensor, DustfallJar):
                inside = (times > GRID.t0) & (times <= GRID.t0 + GRID.span)
                m = np.where(inside, sensor.area * PARTICLE.w_dep, 0.0)[None, :] * GRID.dt
            else:
                starts = np.asarray(sensor.start_times)[:, None]
                covered = (times[None, :] > starts) & (times[None, :] <= starts + sensor.window)
                m = covered.astype(float) * (GRID.dt / sensor.window)
            blocks.append(np.einsum("lj,ji->lij", m, g[:, k, :]).reshape(len(m), -1))
        got, want = assemble_F(SENSORS, MODEL, wind), csr_array(np.vstack(blocks))
        assert isinstance(got, csr_array) and got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            got_part, want_part = getattr(got, name), getattr(want, name)
            assert got_part.dtype == want_part.dtype, name
            np.testing.assert_array_equal(got_part, want_part)
        assert np.count_nonzero(got) == want.nnz  # as perfbench's tracer counts F

    def test_product_holds_no_dense_window_matrix(self):
        """F q on a long hourly sampler peaks below half of its dense window matrix."""
        grid = TimeGrid(t0=0.0, dt=600.0, n_steps=2400)
        rng = np.random.default_rng(5)
        wind = WindSeries(
            grid, 3.0 + rng.uniform(-1.0, 1.0, grid.n_steps), rng.uniform(-1.0, 1.0, grid.n_steps)
        )
        hourly = RealTimeSampler(
            id="rt_h", x=200.0, y=-30.0, z=3.0, window=3600.0,
            start_times=tuple(3600.0 * k for k in range(400)), snr=100.0,
        )
        q = rng.uniform(0.1, 2.0, len(SITES) * grid.n_steps)
        dense_m_bytes = measurement_count(hourly) * grid.n_steps * 8
        tracemalloc.start()
        try:
            fq = assemble_F([hourly], MODEL, wind, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fq.shape == (400,)
        assert peak < 0.5 * dense_m_bytes, f"peak {peak / dense_m_bytes:.2f} times the dense M"

    @pytest.mark.parametrize("product", [False, True])
    def test_nonfinite_kernel_is_a_numerical_error(self, monkeypatch, product):
        def nan_kernels(points, model, wind):
            return np.full((len(wind[0]), len(points), len(model.sites)), np.nan)

        monkeypatch.setattr(observation, "kernel_profile", nan_kernels)
        q = np.ones(2 * GRID.n_steps) if product else None
        name = "product F q" if product else "F"
        with pytest.raises(NumericalError, match=f"observation map {name} has non-finite"):
            assemble_F(SENSORS, MODEL, make_wind(), q)

    def test_no_sensors(self):
        f = assemble_F([], MODEL, make_wind())
        assert f.shape == (0, 2 * GRID.n_steps)

    def test_peak_memory_stays_below_one_dense_f(self):
        """F is written as CSR from each row's slots, so no dense F, and no
        per-sensor block of it, is made: the peak, which the kernel call's
        own temporaries set, stays below three quarters of one dense F (it
        reads 0.24; a dense F is at least one)."""
        grid = TimeGrid(t0=0.0, dt=60.0, n_steps=1200)
        rng = np.random.default_rng(3)
        wind = WindSeries(
            grid, 3.0 + rng.uniform(-1.0, 1.0, grid.n_steps), rng.uniform(-1.0, 1.0, grid.n_steps)
        )
        starts = tuple(1800.0 * k for k in range(40))
        samplers = [
            RealTimeSampler(id=f"rt_{k}", x=100.0 + 20.0 * k, y=10.0 * k - 40.0, z=2.0,
                            window=600.0, start_times=starts, snr=100.0)
            for k in range(8)
        ]
        tracemalloc.start()
        try:
            f = assemble_F(samplers + [JAR], MODEL, wind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(f, csr_array) and f.shape == (8 * 40 + 1, 2 * grid.n_steps)
        dense_bytes = f.shape[0] * f.shape[1] * 8
        assert dense_bytes > 4e6
        assert peak < 0.75 * dense_bytes, f"peak {peak / dense_bytes:.2f} times a dense F"


class TestSignalVariances:
    def test_sampler_uses_own_population_variance(self):
        values = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0])
        noise = signal_variances(values, SENSORS)
        np.testing.assert_allclose(noise[1:6], np.var(values[1:6]) / SAMPLER_1.snr)
        np.testing.assert_allclose(noise[6:8], np.var(values[6:8]) / SAMPLER_2.snr)

    def test_jars_pool_network_variance(self):
        jars = [
            DustfallJar(id=f"j{k}", x=10.0 * k, y=0.0, z=1.5, area=0.02, snr=snr)
            for k, snr in enumerate([10.0, 10.0, 40.0])
        ]
        values = np.array([1.0, 2.0, 4.0])
        noise = signal_variances(values, jars)
        pooled = np.var(values)
        np.testing.assert_allclose(noise, [pooled / 10.0, pooled / 10.0, pooled / 40.0])

    def test_single_jar_falls_back_to_floor(self):
        jar = DustfallJar(id="j", x=0, y=0, z=1.5, area=0.02, snr=10.0)
        noise = signal_variances(np.array([5.0]), [jar], noise_floor=1e-9)
        np.testing.assert_allclose(noise, [1e-18])

    def test_flat_sampler_signal_falls_back_to_floor(self):
        sampler = RealTimeSampler(
            id="s", x=0, y=0, z=3, window=600.0, start_times=(0.0, 600.0), snr=100.0
        )
        noise = signal_variances(np.array([3.0, 3.0]), [sampler], noise_floor=1e-6)
        np.testing.assert_allclose(noise, [1e-12, 1e-12])


class TestMeasurementSet:
    def _fields(self, n):
        return dict(
            sensor_ids=tuple("abcdefgh"[:n]),
            indices=np.zeros(n, dtype=int),
            values=np.arange(n, dtype=float),
        )

    def test_len_and_entries(self):
        ms = MeasurementSet(**self._fields(3))
        assert len(ms) == 3
        assert ms.entries[1] == ("b", 0, 1.0)

    def test_length_mismatch_raises(self):
        fields = self._fields(3)
        fields["values"] = np.ones(2)
        with pytest.raises(ValueError):
            MeasurementSet(**fields)


class TestSimulateMeasurements:
    def setup_method(self):
        self.wind = make_wind()
        self.f = assemble_F(SENSORS, MODEL, self.wind)
        rng = np.random.default_rng(13)
        self.q = rng.uniform(0.1, 2.0, 2 * GRID.n_steps)
        self.clean = self.f @ self.q

    def test_layout_metadata(self):
        ms = simulate_measurements(self.clean, SENSORS, seed=0)
        assert ms.sensor_ids == ("jar_x",) + ("rt_1",) * 5 + ("rt_2",) * 2
        np.testing.assert_array_equal(ms.indices, [0, 0, 1, 2, 3, 4, 0, 1])

    def test_same_seed_reproduces(self):
        a = simulate_measurements(self.clean, SENSORS, seed=42)
        b = simulate_measurements(self.clean, SENSORS, seed=42)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = simulate_measurements(self.clean, SENSORS, seed=1)
        b = simulate_measurements(self.clean, SENSORS, seed=2)
        assert np.all(a.values != b.values)

    def test_noise_var_matches_signal_variances(self):
        # the draw's std is sqrt(signal_variances) of the clean signal, bit for bit
        ms = simulate_measurements(self.clean, SENSORS, seed=0)
        sd = np.sqrt(signal_variances(self.clean, SENSORS))
        noise = np.random.default_rng(0).normal(0.0, sd)
        np.testing.assert_array_equal(ms.values, self.clean + noise)

    def test_noise_is_zero_mean_with_declared_variance(self):
        n_seeds = 400
        resid = np.empty((n_seeds, len(self.clean)))
        for seed in range(n_seeds):
            ms = simulate_measurements(self.clean, SENSORS, seed=seed)
            resid[seed] = ms.values - self.clean
        noise_var = signal_variances(self.clean, SENSORS)
        sd = np.sqrt(noise_var)
        # mean within 4 standard errors, variance within 5 (chi-square SE)
        np.testing.assert_array_less(np.abs(resid.mean(axis=0)), 4.0 * sd / math.sqrt(n_seeds))
        var_err = np.abs(resid.var(axis=0) - noise_var)
        np.testing.assert_array_less(var_err, 5.0 * noise_var * math.sqrt(2.0 / n_seeds))

    def test_nonfinite_rates_raise(self):
        bad = self.q.copy()
        bad[3] = np.nan
        with pytest.raises(ValueError, match="emission vector"):
            assemble_F(SENSORS, MODEL, self.wind, bad)
        with pytest.raises(ValueError, match="clean signal"):
            simulate_measurements(self.f @ bad, SENSORS, seed=0)

    def test_row_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            simulate_measurements(self.clean[:-1], SENSORS, seed=0)
