import math
import pathlib
import re

import numpy as np
import pytest
import scipy.signal
from scipy import integrate, special, stats

from prelog_lab import bounds, fading, mcsim, spectra
from prelog_lab.errors import DegenerateSampleError
from prelog_lab.scenario import load_scenario

LN_PI_E = math.log(math.pi * math.e)


def exact_unit_modulus_mi(snr):
    """I(X; Y | H) for |H| = 1 by radial quadrature of the output density.

    Y is the uniform disk of radius sqrt(snr) plus CN(0, 1), so its density
    at radius r is P(|Z - y| <= sqrt(snr)) / (pi snr), a noncentral chi-square
    cdf with 2 degrees of freedom.  The density falls from its plateau to zero
    within a few units of r = sqrt(snr), so quad is split at sqrt(snr) +- 6.
    """
    root = math.sqrt(snr)

    def integrand(r):
        p = stats.ncx2.cdf(2.0 * snr, 2, 2.0 * r * r) / (math.pi * snr)
        return -2.0 * math.pi * r * special.xlogy(p, p)

    cuts = [0.0] + [c for c in (root - 6.0, root + 6.0) if c > 0] + [math.inf]
    h = sum(integrate.quad(integrand, a, b, limit=200)[0]
            for a, b in zip(cuts, cuts[1:]))
    return h - LN_PI_E


class TestSampleInputs:
    def test_peak_constraint_holds_exactly(self):
        x = mcsim.sample_inputs(10**5, 2.5, 3)
        assert np.all(np.abs(x) <= 2.5)

    def test_second_moment(self):
        # |X|^2 uniform on [0, A^2]: mean A^2/2, sd A^2/sqrt(12)
        n, peak = 10**5, 1.7
        batch = mcsim.sample_inputs(n, peak, 3)
        se = peak**2 / math.sqrt(12 * n)
        assert np.mean(np.abs(batch)**2) == pytest.approx(peak**2 / 2,
                                                                 abs=3 * se)

    def test_radial_law_kolmogorov_smirnov(self):
        n = 10**5
        batch = mcsim.sample_inputs(n, 1.0, 11)
        u = np.sort(np.abs(batch)**2)
        grid = np.arange(1, n + 1) / n
        d = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
        assert d < 1.6276 / math.sqrt(n)  # 99th percentile of the KS statistic

    def test_circular_symmetry(self):
        n = 10**5
        batch = mcsim.sample_inputs(n, 1.0, 7)
        assert abs(np.mean(batch)) < 4 * math.sqrt(0.5 / n)

    def test_determinism(self):
        a = mcsim.sample_inputs(512, 1.0, 42)
        b = mcsim.sample_inputs(512, 1.0, 42)
        c = mcsim.sample_inputs(512, 1.0, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        with pytest.raises(ValueError):
            mcsim.sample_inputs(0, 1.0, 0)
        with pytest.raises(ValueError):
            mcsim.sample_inputs(8, 0.0, 0)


class TestSimulateChannel:
    def _path(self, n, seed=9):
        model = fading.gaussian_model(spectra.white())
        return fading.simulate_path(model, n, seed)

    def test_noise_variance_with_silent_input(self):
        n = 10**5
        y = mcsim.simulate_channel(np.zeros(n, dtype=complex), self._path(n), 5)
        # |Z|^2 is exponential with mean and sd both 1
        assert np.mean(np.abs(y)**2) == pytest.approx(1.0, abs=4 / math.sqrt(n))

    def test_output_power_budget(self):
        n = 10**5
        batch = mcsim.sample_inputs(n, 1.0, 2)
        y = mcsim.simulate_channel(batch, self._path(n), 5)
        # E|Y|^2 = E|H|^2 E|X|^2 + sigma^2 = 0.5 + 1
        power = np.abs(y)**2
        se = np.std(power) / math.sqrt(n)
        assert np.mean(power) == pytest.approx(1.5, abs=4 * se)

    def test_determinism(self):
        batch = mcsim.sample_inputs(256, 1.0, 1)
        path = self._path(256)
        a = mcsim.simulate_channel(batch, path, 5)
        b = mcsim.simulate_channel(batch, path, 5)
        c = mcsim.simulate_channel(batch, path, 6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        batch = mcsim.sample_inputs(256, 1.0, 1)
        with pytest.raises(ValueError):
            mcsim.simulate_channel(batch, self._path(255), 5)


class TestKlEntropy1d:
    @pytest.mark.parametrize("k", [1, 4])
    def test_neighbour_distances_match_brute_force(self, k):
        # every point, the first and last k included, gets its exact k-th
        # neighbour distance; a wrong one would move the mean log far
        # beyond 1e-12
        x = np.sort(np.random.default_rng(200 + k).standard_normal(300))
        gaps = np.sort(np.abs(x[:, None] - x[None, :]), axis=1)
        eps = gaps[:, k]  # column 0 is the point itself
        want = (special.digamma(300) - special.digamma(k) + math.log(2.0)
                + np.mean(np.log(eps)))
        assert mcsim._kl_entropy_1d(x[::-1], k) == pytest.approx(
            want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_calibration_on_known_laws(self, seed):
        rng = np.random.default_rng([201, seed])
        n = 20000
        assert mcsim._kl_entropy_1d(rng.exponential(size=n), 4) == \
            pytest.approx(1.0, abs=0.03)
        assert mcsim._kl_entropy_1d(rng.uniform(0.0, 5.0, n), 4) == \
            pytest.approx(math.log(5.0), abs=0.03)

    def test_duplicates_beyond_one_percent_are_degenerate(self):
        x = np.random.default_rng(202).standard_normal(400)
        x[200:] = x[0]
        with pytest.raises(DegenerateSampleError):
            mcsim._kl_entropy_1d(x, 4)

    def test_isolated_duplicates_are_tolerated(self):
        x = np.random.default_rng(203).standard_normal(1000)
        x[1] = x[0]  # two zero first-neighbour distances, well under 1%
        assert math.isfinite(mcsim._kl_entropy_1d(x, 1))


class TestEstimateCoherentMi:
    WHITE = fading.gaussian_model(spectra.white())

    def test_vanishes_at_low_snr(self):
        est = mcsim.estimate_coherent_mi(self.WHITE, 1e-4, 64000, 5)
        assert est.value == pytest.approx(0.0, abs=0.05)

    def test_dominates_coherent_term_at_snr_100(self):
        est = mcsim.estimate_coherent_mi(self.WHITE, 100.0, 64000, 5)
        report = bounds.capacity_lower_bound(self.WHITE, 100.0)
        assert est.value >= report.coherent - 3 * est.standard_error

    def test_exact_unit_modulus_value(self):
        # the radial quadrature is the oracle: each estimate lies within 3 SE
        # of it and the five-seed mean within 1e-3 nats
        model = fading.fir_model([1.0], fading.UNIT_MODULUS)
        for snr, exact in ((10.0, 1.731378), (100.0, 3.735722),
                           (1000.0, 5.948440)):
            assert exact_unit_modulus_mi(snr) == pytest.approx(exact, abs=1e-6)
            values = []
            for seed in range(5):
                est = mcsim.estimate_coherent_mi(model, snr, 10**6, [seed, 17])
                assert abs(est.value - exact) <= 3.0 * est.standard_error
                values.append(est.value)
            assert abs(np.mean(values) - exact) <= 1e-3

    def test_determinism_and_seed_sensitivity(self):
        a = mcsim.estimate_coherent_mi(self.WHITE, 10.0, 10**4, [7, 3])
        b = mcsim.estimate_coherent_mi(self.WHITE, 10.0, 10**4, [7, 3])
        c = mcsim.estimate_coherent_mi(self.WHITE, 10.0, 10**4, [7, 4])
        assert a.value == b.value and a.standard_error == b.standard_error
        assert a.value != c.value

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mcsim.estimate_coherent_mi(self.WHITE, 10.0, 9999, 0)

    def test_snr_must_be_positive(self):
        with pytest.raises(ValueError, match="snr"):
            mcsim.estimate_coherent_mi(self.WHITE, 0.0, 10**4, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_snr_is_rejected_before_any_draw(self, bad, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew fading before checking the snr")

        monkeypatch.setattr(fading, "draw_marginal", refuse)
        with pytest.raises(ValueError,
                           match=re.escape(f"snr must be positive and finite, got {bad!r}")):
            mcsim.estimate_coherent_mi(self.WHITE, bad, 10**4, 0)


def scipy_welch_spectrum(values, seg):
    """empirical_spectrum as it was written on scipy.signal.welch: the oracle."""
    values = np.asarray(values)
    x = values - values.mean()
    freqs, dens = scipy.signal.welch(x, window="hann", nperseg=seg,
                                     noverlap=seg // 2, detrend=False,
                                     return_onesided=False, scaling="density")
    freqs = np.fft.fftshift(freqs)
    dens = np.fft.fftshift(dens.real)
    variance = float(np.mean(np.abs(x)**2))
    power = float(np.mean(np.abs(values)**2))
    if variance <= 1e-24 * max(power, 1.0):
        return freqs, np.zeros_like(dens)
    total = float(dens.sum() / seg)
    if total > 0:
        dens = dens * (variance / total)
    return freqs, dens


class TestEmpiricalSpectrum:
    def test_white_path_is_flat(self):
        model = fading.gaussian_model(spectra.white())
        path = fading.simulate_path(model, 2**16, 31)
        freqs, dens = mcsim.empirical_spectrum(path, 256)
        assert freqs[0] == -0.5
        assert np.allclose(np.diff(freqs), 1.0 / 256)
        assert np.mean(np.abs(dens - 1.0)) < 0.1

    def test_band_limited_path_has_no_out_of_band_power(self):
        model = fading.gaussian_model(spectra.flat_band(0.25))
        path = fading.simulate_path(model, 2**16, 31)
        freqs, dens = mcsim.empirical_spectrum(path, 256)
        outside = np.abs(freqs) > 0.25 + 1.0 / 256  # one-bin leakage slack
        assert dens[outside].sum() / dens.sum() < 0.05

    def test_grid_sum_reproduces_variance(self):
        model = fading.gaussian_model(spectra.flat_band(0.1))
        path = fading.simulate_path(model, 2**14, 8)
        _, dens = mcsim.empirical_spectrum(path, 128)
        var = np.mean(np.abs(path - path.mean())**2)
        assert dens.sum() / 128 == pytest.approx(var, rel=1e-9)

    def test_constant_path_has_zero_spectrum(self):
        _, dens = mcsim.empirical_spectrum(np.full(4096, 1.0 + 0j), 256)
        assert np.all(dens == 0.0)

    def test_validation(self):
        model = fading.gaussian_model(spectra.white())
        path = fading.simulate_path(model, 4096, 1)
        with pytest.raises(ValueError):
            mcsim.empirical_spectrum(path, 100)  # not a power of two
        with pytest.raises(ValueError):
            mcsim.empirical_spectrum(path, 1)
        with pytest.raises(ValueError):
            mcsim.empirical_spectrum(fading.simulate_path(model, 1024, 1), 256)

    # empirical_spectrum is scipy's Welch written out in numpy, operation for
    # operation; these pin its bytes to scipy.signal.welch as the oracle
    @pytest.mark.parametrize("seg", [2**k for k in range(1, 10)])
    def test_complex_paths_match_scipy_welch_bitwise(self, seg):
        rng = np.random.default_rng(seg)
        for extra in (1, seg // 2 + 1, 3 * seg // 2 - 1):  # past seg 2, n % (seg // 2) != 0
            n = 8 * seg + extra
            path = rng.standard_normal(n) + 1j * rng.standard_normal(n) + rng.uniform(-1, 1)
            freqs, dens = mcsim.empirical_spectrum(path, seg)
            ref_freqs, ref_dens = scipy_welch_spectrum(path, seg)
            assert np.array_equal(freqs, ref_freqs)
            assert np.array_equal(dens, ref_dens)

    @pytest.mark.parametrize("name", ["flat_band_rayleigh", "two_tap_fourpoint",
                                      "white_rayleigh"])
    def test_shipped_paths_match_scipy_welch_bitwise(self, name):
        root = pathlib.Path(__file__).resolve().parent.parent
        scen = load_scenario(root / "scenarios" / f"{name}.json")
        assert "spectrum-check" in scen.outputs
        path = fading.simulate_path(scen.model, scen.path_length, scen.seed)
        freqs, dens = mcsim.empirical_spectrum(path, scen.segment_length)
        ref_freqs, ref_dens = scipy_welch_spectrum(path, scen.segment_length)
        assert np.array_equal(freqs, ref_freqs)
        assert np.array_equal(dens, ref_dens)

    def test_real_paths_match_scipy_welch_to_rounding(self):
        """numpy transforms a real input on another path than scipy does, so
        a real path agrees to a few ulps of the peak, not bitwise (at most
        7.1e-16 over 300 random real paths).  Every caller passes complex."""
        rng = np.random.default_rng(7)
        for seg in (2, 16, 256):
            path = rng.standard_normal(8 * seg + 3)
            _, dens = mcsim.empirical_spectrum(path, seg)
            _, ref = scipy_welch_spectrum(path, seg)
            assert np.max(np.abs(dens - ref)) <= 1e-15 * np.max(ref)
