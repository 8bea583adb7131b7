import math
import threading

import numpy as np
import pytest
import scipy.integrate

from prelog_lab import fading, spectra
from prelog_lab.errors import UnsupportedModelError


def bartlett_se(spectrum, n, lags=200):
    """MC standard-error oracle for empirical lag autocovariances of a
    stationary Gaussian path: sqrt(2 sum_m |r(m)|^2 / n)."""
    r = spectra.autocovariances(spectrum, np.arange(lags))
    return math.sqrt(2.0 * float(np.sum(np.abs(r) ** 2)) / n)


def empirical_autocov(values, lag):
    n = len(values)
    return complex(np.mean(values[lag:] * np.conj(values[: n - lag])))


class TestFirModel:
    def test_two_equal_taps_density(self):
        m = fading.fir_model([1.0, 1.0], fading.COMPLEX_GAUSSIAN)
        lams = np.linspace(-0.5, 0.5, 101)
        want = 1.0 + np.cos(2 * np.pi * lams)
        got = np.array([spectra.density_at(m.spectrum, l) for l in lams])
        assert np.allclose(got, want, atol=1e-12)
        assert abs(spectra.density_at(m.spectrum, 0.5)) < 1e-12

    def test_derived_density_integrates_to_one(self, rng):
        for _ in range(5):
            j = int(rng.integers(1, 5))
            taps = rng.standard_normal(j) + 1j * rng.standard_normal(j)
            m = fading.fir_model(taps, fading.COMPLEX_GAUSSIAN)
            piece = m.spectrum.pieces[0]
            val, _ = scipy.integrate.quad(lambda l: float(piece.density(l)),
                                          -0.5, 0.5, epsabs=1e-12, limit=200)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_autocovariance_is_filter_autocorrelation(self, rng):
        for _ in range(5):
            j = int(rng.integers(1, 5))
            taps = rng.standard_normal(j) + 1j * rng.standard_normal(j)
            m = fading.fir_model(taps, fading.UNIT_MODULUS)
            a = np.asarray(m.taps)
            for lag in range(j):
                want = np.sum(a[lag:] * np.conj(a[: j - lag]))
                got = spectra.autocovariance(m.spectrum, lag)
                assert abs(got - want) < 1e-10

    def test_same_taps_give_identical_covariances(self):
        taps = [0.8, 0.5 - 0.2j, 0.1j]
        kinds = (fading.COMPLEX_GAUSSIAN, fading.FOUR_POINT_PHASE,
                 fading.UNIT_MODULUS)
        covs = [spectra.toeplitz_covariance(
            fading.fir_model(taps, law).spectrum, 24) for law in kinds]
        assert np.max(np.abs(covs[0] - covs[1])) < 1e-12
        assert np.max(np.abs(covs[0] - covs[2])) < 1e-12

    def test_single_tap_gaussian_matches_white_gaussian_law(self):
        m = fading.fir_model([3.0], fading.COMPLEX_GAUSSIAN)
        w = fading.gaussian_model(spectra.white())
        for gamma in (0.2, 0.7, 1.0, 1.9):
            assert fading.marginal_tail(m, gamma) == pytest.approx(
                fading.marginal_tail(w, gamma), abs=1e-15)
        assert np.max(np.abs(
            spectra.toeplitz_covariance(m.spectrum, 8)
            - spectra.toeplitz_covariance(w.spectrum, 8))) < 1e-12

    def test_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            fading.fir_model([], fading.COMPLEX_GAUSSIAN)

    def test_zero_taps_rejected(self):
        with pytest.raises(ValueError):
            fading.fir_model([0.0, 0.0], fading.COMPLEX_GAUSSIAN)

    def test_unknown_innovation_rejected(self):
        with pytest.raises(ValueError):
            fading.fir_model([1.0], "bernoulli")


class TestSimulatePath:
    def test_deterministic(self):
        m = fading.fir_model([1.0, 1.0], fading.FOUR_POINT_PHASE)
        a = fading.simulate_path(m, 500, seed=7)
        b = fading.simulate_path(m, 500, seed=7)
        assert np.array_equal(a, b)
        g = fading.gaussian_model(spectra.flat_band(0.25))
        a = fading.simulate_path(g, 500, seed=7)
        b = fading.simulate_path(g, 500, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_path(self):
        g = fading.gaussian_model(spectra.flat_band(0.25))
        a = fading.simulate_path(g, 500, seed=7)
        b = fading.simulate_path(g, 500, seed=8)
        assert not np.array_equal(a, b)

    def test_four_point_single_tap_unit_modulus_exact(self):
        m = fading.fir_model([1.0], fading.FOUR_POINT_PHASE)
        p = fading.simulate_path(m, 1000, seed=3)
        assert np.all(np.abs(p) == 1.0)

    def test_gaussian_lag_autocovariances(self):
        f = spectra.flat_band(0.25)
        g = fading.gaussian_model(f)
        n = 2**16
        path = fading.simulate_path(g, n, seed=12345)
        se = bartlett_se(f, n)
        for lag in (0, 1, 2, 4, 8):
            want = spectra.autocovariance(f, lag)
            got = empirical_autocov(path, lag)
            assert abs(got - want) < 5 * se

    def test_gaussian_mean(self):
        g = fading.gaussian_model(spectra.flat_band(0.25), d=0.7 - 0.1j)
        n = 2**16
        path = fading.simulate_path(g, n, seed=99)
        assert abs(np.mean(path) - (0.7 - 0.1j)) < 4 / math.sqrt(n)

    def test_fir_lag_autocovariances(self):
        m = fading.fir_model([1.0, 1.0], fading.UNIT_MODULUS)
        n = 2**16
        path = fading.simulate_path(m, n, seed=5)
        se = bartlett_se(m.spectrum, n, lags=4)
        for lag in (0, 1, 2):
            want = spectra.autocovariance(m.spectrum, lag)
            got = empirical_autocov(path, lag)
            assert abs(got - want) < 5 * se

    def test_point_mass_spectrum_unsupported(self):
        f = spectra.mixed_spectrum([(-0.25, 0.25, 1.0)], [(0.25, 0.5)])
        with pytest.raises(UnsupportedModelError):
            fading.simulate_path(fading.gaussian_model(f), 64, seed=0)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            fading.simulate_path(fading.gaussian_model(spectra.white()), 0, seed=0)


class TestMarginalTail:
    def test_tail_at_zero_is_one(self, rng):
        models = [
            fading.gaussian_model(spectra.white()),
            fading.gaussian_model(spectra.flat_band(0.1), d=0.3),
            fading.fir_model([1.0], fading.FOUR_POINT_PHASE),
            fading.fir_model([1.0, 0.5j], fading.UNIT_MODULUS),
        ]
        for m in models:
            assert fading.marginal_tail(m, 0.0) == 1.0

    def test_rayleigh_closed_form(self):
        g = fading.gaussian_model(spectra.white())
        assert fading.marginal_tail(g, 1.0) == pytest.approx(math.exp(-1), abs=1e-15)
        assert fading.marginal_tail(g, 0.5) == pytest.approx(math.exp(-0.25), abs=1e-15)

    def test_rice_against_empirical_oracle(self, rng):
        d = 0.8 - 0.3j
        g = fading.gaussian_model(spectra.white(), d=d)
        n = 10**6
        draws = np.abs(d + (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                       / math.sqrt(2))
        for gamma in (0.5, 1.0, 1.5):
            p = fading.marginal_tail(g, gamma)
            emp = float(np.mean(draws >= gamma))
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(p - emp) < 5 * se

    def test_four_point_single_tap_step(self):
        m = fading.fir_model([1.0], fading.FOUR_POINT_PHASE)
        assert fading.marginal_tail(m, 0.5) == 1.0
        assert fading.marginal_tail(m, 1.0) == 1.0
        assert fading.marginal_tail(m, 1.0001) == 0.0

    def test_two_tap_unit_modulus_median(self):
        # |H|^2 = 1 + cos(phase difference), so P(|H| >= 1) = 1/2 exactly
        m = fading.fir_model([1.0, 1.0], fading.UNIT_MODULUS)
        p = fading.marginal_tail(m, 1.0)
        assert abs(p - 0.5) < 5 * 5e-4

    def test_nonincreasing_in_gamma(self):
        models = [
            fading.gaussian_model(spectra.white(), d=0.4),
            fading.fir_model([1.0, 1.0], fading.UNIT_MODULUS),
            fading.fir_model([0.9, 0.5, 0.1], fading.FOUR_POINT_PHASE),
        ]
        grid = np.linspace(0.0, 3.0, 31)
        for m in models:
            tails = fading.marginal_tail(m, grid)
            assert np.all(np.diff(tails) <= 1e-15)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            fading.marginal_tail(fading.gaussian_model(spectra.white()), -0.1)

    def test_empirical_tail_deterministic(self):
        m = fading.fir_model([0.9, 0.5, 0.1], fading.FOUR_POINT_PHASE)
        assert fading.marginal_tail(m, 0.8) == fading.marginal_tail(m, 0.8)

    def test_array_gamma_matches_scalar_calls(self):
        models = [
            fading.gaussian_model(spectra.white()),
            fading.gaussian_model(spectra.flat_band(0.1), d=0.7),
            fading.fir_model([1.0], fading.FOUR_POINT_PHASE, d=0.3),
            fading.fir_model([1.0j], fading.UNIT_MODULUS),
            fading.fir_model([1.0, 0.5], fading.FOUR_POINT_PHASE),
            fading.fir_model([1.0, 1.0], fading.UNIT_MODULUS),
        ]
        # 0 twice, the single-tap atoms 0.7, 1 and 1.3, and a log-spaced sweep
        points = [0.0, 0.7, 1.0, 1.3, 0.0] + list(np.logspace(-6.0, 1.0, 44))
        grid = np.array(points).reshape(7, 7)
        for m in models:
            tails = fading.marginal_tail(m, grid)
            assert isinstance(tails, np.ndarray) and tails.shape == grid.shape
            assert np.array_equal(tails, [[fading.marginal_tail(m, g) for g in row]
                                          for row in grid])
            assert tails[0, 0] == tails[0, 4] == 1.0
            assert isinstance(fading.marginal_tail(m, 0.5), float)
            bad = grid.copy()
            bad[5, 2] = -1e-9
            with pytest.raises(ValueError):
                fading.marginal_tail(m, bad)

    def test_concurrent_first_lookups_build_one_tail_table(self):
        # two threads miss the empty tail-table cache together
        m = fading.fir_model([1.0, 0.5 + 0.5j], fading.FOUR_POINT_PHASE)
        fading._marginal_samples.cache_clear()
        barrier = threading.Barrier(2, timeout=60)
        tails = []

        def lookup():
            barrier.wait()
            tails.append(fading.marginal_tail(m, 1.0))

        threads = [threading.Thread(target=lookup) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(tails) == 2 and tails[0] == tails[1]
        assert fading._marginal_samples.cache_info().misses == 1


class TestZeroMassCheck:
    def test_rayleigh_small_epsilon(self):
        g = fading.gaussian_model(spectra.white())
        est = fading.zero_mass_check(g, 0.01, 10**6, seed=5)
        want = 1 - math.exp(-1e-4)
        assert abs(est.probability - want) <= 3 * est.standard_error + 1e-12

    def test_four_point_is_exactly_zero(self):
        m = fading.fir_model([1.0], fading.FOUR_POINT_PHASE)
        for eps in (0.01, 0.5, 0.999):
            assert fading.zero_mass_check(m, eps, 10**4, seed=1).probability == 0.0

    def test_large_epsilon_covers_everything(self):
        g = fading.gaussian_model(spectra.white())
        est = fading.zero_mass_check(g, 10.0, 10**4, seed=2)
        assert est.probability == pytest.approx(1.0, abs=1e-3)

    def test_validation(self):
        g = fading.gaussian_model(spectra.white())
        with pytest.raises(ValueError):
            fading.zero_mass_check(g, 0.0, 10**4, seed=0)
        with pytest.raises(ValueError):
            fading.zero_mass_check(g, 0.01, 10, seed=0)
