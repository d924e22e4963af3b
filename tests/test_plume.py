"""Tests for the dispersion kernel: coefficients, geometry, closed forms.

The naive reference implementation below is a direct scalar transcription
of the deposition-corrected plume formula using exp*erfc (kept stable via
log_ndtr), so it exercises none of the production code's algebraic
rearrangements.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import log_ndtr

from plumeinv import plume
from plumeinv.errors import NumericalError
from plumeinv.plume import (
    BRIGGS_COEFFICIENTS,
    ParticleProperties,
    PlumeModel,
    SourceSite,
    StabilityClass,
    briggs_sigma,
    kernel_profile,
)

# Local copy of the power-law fit table; the snapshot test pins the
# production table against this literal and the naive kernel reads from it.
SIGMA_TABLE = {
    ("A", "crosswind"): (0.22, 1.0e-4, 0.50),
    ("A", "vertical"): (0.20, 0.0, 0.0),
    ("B", "crosswind"): (1.60, 1.0e-4, 0.50),
    ("B", "vertical"): (1.2, 0.0, 0.0),
    ("C", "crosswind"): (0.11, 1.0e-4, 0.50),
    ("C", "vertical"): (0.08, 2.0e-4, 0.5),
    ("D", "crosswind"): (0.08, 1.0e-4, 0.50),
    ("D", "vertical"): (0.06, 1.5e-3, 0.5),
    ("E", "crosswind"): (0.06, 1.0e-4, 0.50),
    ("E", "vertical"): (0.03, 3.0e-4, 1.0),
    ("F", "crosswind"): (0.04, 1.0e-4, 0.50),
    ("F", "vertical"): (0.016, 3.0e-4, 1.0),
}


def naive_sigma(cls: str, axis: str, x: float) -> float:
    a, b, c = SIGMA_TABLE[(cls, axis)]
    return a * x * (1.0 + b * x) ** (-c)


def naive_kernel(x, y, z, h, speed, w_dep, w_set, cls) -> float:
    """Scalar transcription of the kernel, independent of plumeinv.plume."""
    if x <= 1.0:
        return 0.0
    sy = naive_sigma(cls, "crosswind", x)
    sz = naive_sigma(cls, "vertical", x)
    kz = speed * sz**2 / (2.0 * x)
    wo = w_dep - 0.5 * w_set
    pref = 1.0 / (2.0 * math.pi * speed * sy * sz)
    gauss_y = math.exp(-(y**2) / (2.0 * sy**2))
    drift = math.exp(-w_set * (z - h) / (2.0 * kz) - w_set**2 * sz**2 / (8.0 * kz**2))
    direct = math.exp(-((z - h) ** 2) / (2.0 * sz**2))
    image = math.exp(-((z + h) ** 2) / (2.0 * sz**2))
    b_arg = (z + h) / (math.sqrt(2.0) * sz) + wo * sz / (math.sqrt(2.0) * kz)
    # exp(arg)*erfc(b) evaluated in log space: log erfc(b) = log 2 + log_ndtr(-sqrt(2) b)
    log_tail = math.log(2.0) + log_ndtr(-math.sqrt(2.0) * b_arg)
    dep = (
        -math.sqrt(2.0 * math.pi)
        * (wo * sz / kz)
        * math.exp(wo * (z + h) / kz + wo**2 * sz**2 / (2.0 * kz**2) + log_tail)
    )
    return pref * gauss_y * drift * (direct + image + dep)


PARTICLE = ParticleProperties(w_dep=1.2e-2, w_set=7.8641975308642e-3)


def kernel_at(x, y, z, h, speed, particle=PARTICLE, sc=StabilityClass.D):
    """kernel_profile of one source of height h at the origin, wind (speed, 0).

    Its wind frame is the site frame: (x, y) is (downwind, crosswind).
    """
    model = PlumeModel([SourceSite("s", 0.0, 0.0, h)], particle, sc)
    return kernel_profile([[x, y, z]], model, (speed, 0.0))[0, 0]


def wind_frame(point, site, wind):
    """(downwind, crosswind) offsets of ``point`` from ``site`` for a wind (u_x, u_y)."""
    dx, dy, speed = point[0] - site.x, point[1] - site.y, math.hypot(wind[0], wind[1])
    return (dx * wind[0] + dy * wind[1]) / speed, (wind[0] * dy - wind[1] * dx) / speed


class TestParticleProperties:
    def test_w_offset(self):
        p = ParticleProperties(w_dep=0.012, w_set=0.008)
        assert p.w_offset == pytest.approx(0.008, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ParticleProperties(w_dep=-0.01, w_set=0.0)
        with pytest.raises(ValueError):
            ParticleProperties(w_dep=0.01, w_set=-0.001)
        with pytest.raises(ValueError):
            ParticleProperties(w_dep=math.nan, w_set=0.0)


class TestBriggsSigma:
    def test_table_snapshot(self):
        assert len(BRIGGS_COEFFICIENTS) == 12
        for (sc, axis), coeffs in BRIGGS_COEFFICIENTS.items():
            assert coeffs == SIGMA_TABLE[(sc.value, axis)]

    def test_frozen_spot_values(self):
        assert briggs_sigma(StabilityClass.D, "crosswind", 100.0) == pytest.approx(
            7.960297521679913, rel=1e-13
        )
        assert briggs_sigma(StabilityClass.C, "vertical", 100.0) == pytest.approx(
            7.921180343813394, rel=1e-13
        )
        assert briggs_sigma(StabilityClass.D, "vertical", 100.0) == pytest.approx(
            5.595028849441883, rel=1e-13
        )
        assert briggs_sigma(StabilityClass.F, "vertical", 1000.0) == pytest.approx(
            16.0 / 1.3, rel=1e-13
        )
        assert briggs_sigma(StabilityClass.A, "crosswind", 500.0) == pytest.approx(
            107.34900802433866, rel=1e-13
        )

    def test_linear_when_b_zero(self):
        # A and B vertical rows have b = 0, so sigma is exactly a*x
        assert briggs_sigma(StabilityClass.A, "vertical", 500.0) == 0.20 * 500.0
        assert briggs_sigma(StabilityClass.B, "vertical", 50.0) == 1.2 * 50.0

    def test_vectorized_matches_scalar(self):
        # a float gives the same bits as the matching element of an array
        xs = np.concatenate([np.linspace(0.0, 100.0, 1001), np.geomspace(100.0, 5.0e4, 1000)])
        for sc, axis in BRIGGS_COEFFICIENTS:
            out = briggs_sigma(sc, axis, xs)
            scalar = np.array([briggs_sigma(sc, axis, float(xi)) for xi in xs])
            np.testing.assert_array_equal(scalar, out, err_msg=f"{sc.value} {axis}")

    def test_zero_distance(self):
        assert briggs_sigma(StabilityClass.D, "crosswind", 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            briggs_sigma(StabilityClass.D, "diagonal", 10.0)
        with pytest.raises(ValueError):
            briggs_sigma(StabilityClass.D, "crosswind", -1.0)


class TestPlumeKernel:
    def test_zero_at_and_upwind_of_cutoff(self):
        for x in (-50.0, 0.0, 0.5, 1.0):
            assert kernel_at(x, 0.0, 3.0, 3.0, 2.0) == 0.0
        # just past the cutoff the on-axis kernel is alive again
        assert kernel_at(1.0001, 0.0, 3.0, 3.0, 2.0) > 0.0

    def test_reduces_to_reflected_gaussian_without_deposition(self):
        # w_dep = w_set = 0 collapses the kernel to the textbook image form
        p0 = ParticleProperties(w_dep=0.0, w_set=0.0)
        h = 4.0
        speed = 2.5
        for x, y, z in [(50.0, 0.0, 0.0), (300.0, 20.0, 1.5), (1500.0, -60.0, 10.0)]:
            sy = naive_sigma("D", "crosswind", x)
            sz = naive_sigma("D", "vertical", x)
            expected = (
                math.exp(-(y**2) / (2 * sy**2))
                * (
                    math.exp(-((z - h) ** 2) / (2 * sz**2))
                    + math.exp(-((z + h) ** 2) / (2 * sz**2))
                )
                / (2 * math.pi * speed * sy * sz)
            )
            got = kernel_at(x, y, z, h, speed, p0)
            assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("cls", ["A", "C", "D", "F"])
    @pytest.mark.parametrize("w_dep,w_set", [(1.2e-2, 7.86e-3), (2.0e-3, 4.0e-3), (0.0, 6.0e-3)])
    def test_matches_naive_transcription(self, cls, w_dep, w_set):
        p = ParticleProperties(w_dep=w_dep, w_set=w_set)
        sc = StabilityClass(cls)
        for x in (5.0, 60.0, 400.0, 2500.0):
            for y in (0.0, 25.0):
                for z, h in [(0.0, 0.5), (1.5, 4.0), (10.0, 4.0)]:
                    for speed in (0.6, 3.0):
                        got = kernel_at(x, y, z, h, speed, p, sc)
                        want = naive_kernel(x, y, z, h, speed, w_dep, w_set, cls)
                        assert got == pytest.approx(want, rel=1e-9, abs=1e-300)

    def test_even_in_crosswind(self):
        k_pos = kernel_at(200.0, 37.0, 1.0, 2.0, 1.8, sc=StabilityClass.C)
        assert k_pos == kernel_at(200.0, -37.0, 1.0, 2.0, 1.8, sc=StabilityClass.C)
        assert k_pos > 0

    def test_nonnegative_under_strong_deposition(self):
        p = ParticleProperties(w_dep=0.5, w_set=0.0)
        for x in (10.0, 100.0, 1000.0, 10000.0):
            assert kernel_at(x, 0.0, 0.0, 2.0, 0.5, p, StabilityClass.F) >= 0.0

    def test_settling_overflow_raises(self):
        # settling far exceeding deposition at long stable-class range blows
        # up the image correction; must surface as NumericalError, not inf
        p = ParticleProperties(w_dep=0.0, w_set=0.02)
        with pytest.raises(NumericalError):
            kernel_at(5e4, 0.0, 0.0, 2.0, 0.5, p, StabilityClass.F)

    def test_same_geometry_finite_when_deposition_dominates(self):
        p = ParticleProperties(w_dep=0.02, w_set=0.02)
        assert math.isfinite(kernel_at(5e4, 0.0, 0.0, 2.0, 0.5, p, StabilityClass.F))

    def test_negative_cutoff_rejected(self):
        # sigma is undefined upwind of the source, so a negative cutoff is an error
        site = SourceSite("a", 0.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            PlumeModel([site], PARTICLE, StabilityClass.D, x_cutoff=-1.0)

    @pytest.mark.parametrize("calm", [0.0, -0.5])
    def test_nonpositive_calm_speed_rejected(self, calm):
        # a zero wind would count as live, and the kernel would divide 0 by 0
        site = SourceSite("a", 0.0, 0.0, 2.0)
        with pytest.raises(ValueError, match="calm_speed"):
            PlumeModel([site], PARTICLE, StabilityClass.D, calm_speed=calm)


class TestKernelProfile:
    SITES = [
        SourceSite("a", 0.0, 0.0, 5.0),
        SourceSite("b", -40.0, 80.0, 1.0),
        SourceSite("c", 120.0, 260.0, 4.0),
    ]

    def model(self, sites=SITES):
        return PlumeModel(sites, PARTICLE, StabilityClass.D)

    def test_matches_pointwise_kernel(self):
        # the masked array path of kernel_profile against the naive
        # transcription in each source's wind frame, at the cutoff edge too
        a, c = self.SITES[0], self.SITES[2]
        # the frame by hand: the wind maps to the downwind axis, a point
        # across the wind is at zero downwind, and offsets are from the source
        assert wind_frame((3.0, 4.0), a, (3.0, 4.0)) == pytest.approx((5.0, 0.0), abs=1e-12)
        assert wind_frame((4.0, -3.0), a, (3.0, 4.0)) == pytest.approx((0.0, -5.0), abs=1e-12)
        assert wind_frame((0.0, -10.0), a, (0.0, -2.0)) == pytest.approx((10.0, 0.0), abs=1e-12)
        assert wind_frame((180.0, 260.0), c, (2.0, 0.0)) == (60.0, 0.0)
        rng = np.random.default_rng(7)
        scattered = np.column_stack(
            [
                rng.uniform(-3000.0, 3000.0, 30),
                rng.uniform(-3000.0, 3000.0, 30),
                rng.uniform(0.0, 12.0, 30),
            ]
        )
        # on the axis of site "a" for an eastward wind: at x_cutoff, one ulp
        # past it, short of it and upwind
        edge = [
            [1.0, 0.0, 5.0],
            [np.nextafter(1.0, 2.0), 0.0, 5.0],
            [0.5, 0.0, 5.0],
            [-7.0, 3.0, 1.0],
        ]
        # on the axis of "a" for the (3, 4) and the southward wind, and at the
        # height of "c" 60 m downwind of it for an eastward one
        on_axis = [[300.0, 400.0, 5.0], [0.0, -100.0, 1.0], [180.0, 260.0, 4.0]]
        fixed = [[450.0, -260.0, 3.0], [300.0, -120.0, 4.0], [-200.0, 200.0, 2.0]]
        points = np.vstack([fixed, on_axis, scattered, edge])
        winds = [(1.3, -2.1), (2.0, 0.0), (0.5, 0.0), (3.0, 4.0), (0.0, -2.0)]
        series_wind = (np.array([w[0] for w in winds]), np.array([w[1] for w in winds]))
        for cls in "ABCDEF":
            sc = StabilityClass(cls)
            for w_dep, w_set in [(1.2e-2, 7.86e-3), (2.0e-3, 4.0e-3), (0.0, 6.0e-3)]:
                p = ParticleProperties(w_dep=w_dep, w_set=w_set)
                model = PlumeModel(self.SITES, p, sc)
                series = kernel_profile(points, model, series_wind)
                assert series.shape == (len(winds), len(points), 3)
                for step, wind in enumerate(winds):
                    prof = kernel_profile(points, model, wind)
                    assert prof.shape == (len(points), 3)
                    np.testing.assert_array_equal(series[step], prof)
                    speed = math.hypot(wind[0], wind[1])
                    for i, pt in enumerate(points):
                        for j, site in enumerate(self.SITES):
                            x, y = wind_frame(pt, site, wind)
                            want = naive_kernel(x, y, pt[2], site.height, speed, w_dep, w_set, cls)
                            assert prof[i, j] == pytest.approx(want, rel=1e-9, abs=1e-300), (
                                cls, w_dep, wind, i, j,
                            )
                    if wind[1] == 0.0:
                        at_cut, past_cut, short, upwind = prof[-4:, 0]
                        assert at_cut == 0.0 and short == 0.0 and upwind == 0.0
                        assert past_cut > 0.0

    @pytest.mark.parametrize("block_entries", [108, 20])
    def test_series_matches_single_pairs(self, monkeypatch, block_entries):
        # blocks of 3 steps (108 entries over 12 points x 3 sites) do not
        # divide the 10 steps; 20 entries, fewer than the 36 pairs, make
        # blocks of one step; two of the steps are calm
        monkeypatch.setattr(plume, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(3)
        points = np.column_stack(
            [rng.uniform(-500.0, 500.0, 12), rng.uniform(-500.0, 500.0, 12), rng.uniform(0.0, 6.0, 12)]
        )
        speed = rng.uniform(0.5, 6.0, 10)
        angle = rng.uniform(-math.pi, math.pi, 10)
        u_x, u_y = speed * np.cos(angle), speed * np.sin(angle)
        u_x[[2, 7]], u_y[[2, 7]] = 0.05, -0.03
        model = PlumeModel(self.SITES, PARTICLE, StabilityClass.C)
        series = kernel_profile(points, model, (u_x, u_y))
        assert series.shape == (10, 12, 3)
        # stored time-last: the (P, S, T) view that H reshapes is contiguous
        assert series.transpose(1, 2, 0).flags.c_contiguous
        for j in range(10):
            pair = kernel_profile(points, model, (u_x[j], u_y[j]))
            np.testing.assert_array_equal(series[j], pair)
        assert np.all(series[[2, 7]] == 0.0)
        assert np.count_nonzero(series[[0, 1, 3, 4, 5, 6, 8, 9]]) > 0

    @pytest.mark.parametrize("block_entries", [108, 20])
    def test_weights_give_the_kernels_applied_to_them(self, monkeypatch, block_entries):
        # the product is summed block by block; the identity reads the
        # kernels back bit for bit, as each entry sums one kernel and zeros
        monkeypatch.setattr(plume, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(5)
        points = np.column_stack(
            [rng.uniform(-500.0, 500.0, 12), rng.uniform(-500.0, 500.0, 12), rng.uniform(0.0, 6.0, 12)]
        )
        u_x, u_y = rng.uniform(-4.0, 4.0, 10), rng.uniform(-4.0, 4.0, 10)
        u_x[4], u_y[4] = 0.05, 0.0
        model = PlumeModel(self.SITES, PARTICLE, StabilityClass.B)
        series = kernel_profile(points, model, (u_x, u_y))
        np.testing.assert_array_equal(kernel_profile(points, model, (u_x, u_y), weights=None), series)
        dense = series.transpose(1, 2, 0).reshape(12, 3 * 10)
        np.testing.assert_array_equal(
            kernel_profile(points, model, (u_x, u_y), weights=np.eye(30)), dense
        )
        weights = rng.uniform(0.0, 1.0, (30, 4))
        product = kernel_profile(points, model, (u_x, u_y), weights=weights)
        assert product.shape == (12, 4)
        np.testing.assert_allclose(product, dense @ weights, rtol=1e-12)
        # one wind pair is a series of one step
        pair = kernel_profile(points, model, (u_x[0], u_y[0]), weights=weights[::10])
        np.testing.assert_allclose(pair, series[0] @ weights[::10], rtol=1e-12)

    def test_misses_that_would_overflow_give_zero(self):
        # a ground-level source settling at 0.2 m/s in a 0.2 m/s class F wind
        # overflows at 1 m downwind, where a miss is evaluated: the misses
        # are zeroed before the overflow check, so only a hit can raise
        p = ParticleProperties(w_dep=0.0, w_set=0.2)
        with pytest.raises(NumericalError):
            kernel_at(np.nextafter(1.0, 2.0), 0.0, 0.0, 0.0, 0.2, p, StabilityClass.F)
        model = PlumeModel([SourceSite("g", 0.0, 0.0, 0.0)], p, StabilityClass.F)
        # upwind, at the source and inside the cutoff at every step
        points = np.array([[-50.0, 0.0, 0.0], [-5.0, 3.0, 2.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        angle = np.linspace(-0.3, 0.3, 7)
        wind = (0.2 * np.cos(angle), 0.2 * np.sin(angle))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            kernels = kernel_profile(points, model, wind)
            product = kernel_profile(points, model, wind, weights=np.ones((7, 2)))
        assert kernels.shape == (7, 4, 1) and np.all(kernels == 0.0)
        assert np.all(product == 0.0)

    @pytest.mark.parametrize("k", [None, 4])
    def test_temporaries_stay_within_a_few_blocks(self, k):
        # a whole (pairs, steps) block is evaluated at once, so the peak is
        # the result and about ten block-sized temporaries (9.8 measured in
        # both modes)
        rng = np.random.default_rng(3)
        sites = [SourceSite("a", 0.0, 0.0, 5.0), SourceSite("b", 80.0, -40.0, 2.0)]
        model = PlumeModel(sites, PARTICLE, StabilityClass.D)
        points = np.array(
            [[100.0 + 20.0 * j, 10.0 * j - 40.0, 2.0] for j in range(8)] + [[150.0, 10.0, 1.5]]
        )
        wind = (3.0 + rng.uniform(-1.0, 1.0, 1200), rng.uniform(-1.0, 1.0, 1200))
        weights = None if k is None else rng.uniform(0.0, 1.0, (2 * 1200, k))
        tracemalloc.start()
        try:
            out = kernel_profile(points, model, wind, weights=weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(out) > 0
        # two blocks of 910 and 290 steps over the 18 pairs
        assert len(points) * len(sites) * 1200 > plume.BLOCK_ENTRIES
        block = 8 * plume.BLOCK_ENTRIES
        assert peak < out.nbytes + 12 * block, f"{(peak - out.nbytes) / block:.1f} blocks"

    def test_weights_of_the_wrong_shape_rejected(self):
        points = np.array([[100.0, 0.0, 2.0]])
        for bad in (np.ones((7, 2)), np.ones(6), np.ones((6, 2, 1))):
            with pytest.raises(ValueError, match="weights"):
                kernel_profile(points, self.model(), (np.ones(2), np.ones(2)), weights=bad)

    def test_mismatched_wind_series_rejected(self):
        points = np.array([[100.0, 0.0, 2.0]])
        with pytest.raises(ValueError):
            kernel_profile(points, self.model(), (np.ones(3), np.ones(2)))

    def test_upwind_receptors_zero(self):
        points = np.array([[-500.0, 0.0, 2.0]])
        prof = kernel_profile(points, self.model(self.SITES[:1]), (2.0, 0.0))
        assert prof[0, 0] == 0.0

    def test_calm_gives_zero_kernels(self):
        # a calm wind defines no plume axis; the kernels are zero, not an error
        points = np.array([[100.0, 0.0, 2.0], [300.0, 10.0, 0.0]])
        prof = kernel_profile(points, self.model(), (0.01, 0.01))
        assert prof.shape == (2, 3)
        assert np.all(prof == 0.0)

    def test_no_sites(self):
        prof = kernel_profile(np.zeros((2, 3)), self.model([]), (2.0, 0.0))
        assert prof.shape == (2, 0)

