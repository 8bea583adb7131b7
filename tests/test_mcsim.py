import math
import pathlib
import re

import numpy as np
import pytest
import scipy.signal
from scipy import integrate, special, stats

from prelog_lab import bounds, fading, mcsim, spectra
from prelog_lab.errors import NumericalError
from prelog_lab.scenario import load_scenario

LN_PI_E = math.log(math.pi * math.e)


def disk_mi(t):
    """I(X; Y | H = h) with |h|^2 snr = t, by radial quadrature of the output density.

    Y is the uniform disk of radius sqrt(t) plus CN(0, 1), so its density at
    radius r is P(|Z - y| <= sqrt(t)) / (pi t), a noncentral chi-square cdf
    with 2 degrees of freedom.  The density falls from its plateau to zero
    within a few units of r = sqrt(t), so quad is split at sqrt(t) +- 6.
    """
    root = math.sqrt(t)

    def integrand(r):
        p = stats.ncx2.cdf(2.0 * t, 2, 2.0 * r * r) / (math.pi * t)
        return -2.0 * math.pi * r * special.xlogy(p, p)

    cuts = [0.0] + [c for c in (root - 6.0, root + 6.0) if c > 0] + [math.inf]
    h = sum(integrate.quad(integrand, a, b, limit=200)[0]
            for a, b in zip(cuts, cuts[1:]))
    return h - LN_PI_E


def exact_coherent_mi(snr, rayleigh=False):
    """I(X; Y | H): disk_mi(snr) for |H| = 1, or its mean over |H|^2 ~ Exp(1).

    The Rayleigh mean integrates disk_mi(t) e^{-t/snr} / snr in s = ln t, split
    at ln snr, where the weight e^{s - e^s/snr} / snr peaks.  The weight's mass
    below ln snr - 25 is e^{-25} (and disk_mi ~ t/2 there), above ln snr + 4.2
    it is e^{-66}: both ends are left out.
    """
    if not rayleigh:
        return disk_mi(snr)
    ln_snr = math.log(snr)

    def integrand(s):
        t = math.exp(s)
        return disk_mi(t) * t * math.exp(-t / snr) / snr

    return sum(integrate.quad(integrand, a, b, limit=200)[0]
               for a, b in ((ln_snr - 25.0, ln_snr), (ln_snr, ln_snr + 4.2)))


def complex_output_power(h, peak, n, rng):
    """|h X + Z|^2 by complex simulation, the reference for the radial law: X
    uniform on the disk of radius peak (|X|^2 uniform, uniform phase) and
    Z ~ CN(0, 1)."""
    x = peak * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = h * x + math.sqrt(0.5) * z
    return y.real * y.real + y.imag * y.imag


class SilentNoise:
    """A generator whose normals are all zero: the radial draw then returns the
    squared radial amplitudes themselves."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size):
        return self._rng.random(size)

    def standard_normal(self, size):
        return np.zeros(size)


class TestRadialPower:
    @pytest.mark.parametrize("rho", [0.0, 1.0, 30.0])
    def test_law_matches_complex_simulation(self, rho):
        # two-sample Kolmogorov-Smirnov: the radial |Y|^2 and |h X + Z|^2 of a
        # complex input and noise, with |h| sqrt(snr) = rho and h off the real axis
        n, peak = 10**5, 10.0
        h = rho / peak * complex(math.cos(0.7), math.sin(0.7))
        radial = mcsim._radial_power(rho, n, np.random.default_rng([31, int(rho)]))
        ref = complex_output_power(h, peak, n, np.random.default_rng([32, int(rho)]))
        assert stats.ks_2samp(radial, ref).pvalue > 0.01

    @pytest.mark.parametrize("rho", [0.5, 30.0])
    def test_radial_amplitudes_respect_the_peak(self, rho):
        # with the noise silenced the draw is R^2, R = rho sqrt(U): never past
        # rho, and (R / rho)^2 is uniform on [0, 1]
        n = 10**5
        amplitude = np.sqrt(mcsim._radial_power(rho, n, SilentNoise(33)))
        assert np.all(amplitude <= rho)
        assert stats.kstest((amplitude / rho) ** 2, "uniform").pvalue > 0.01


class TestSimulateChannel:
    """The output power of Y = h X + Z as the estimator simulates it, by the
    radial law of _radial_power."""

    def test_noise_variance_with_silent_input(self):
        n = 10**5
        power = mcsim._radial_power(0.0, n, np.random.default_rng(5))
        # |Z|^2 is exponential with mean and sd both 1
        assert np.mean(power) == pytest.approx(1.0, abs=4 / math.sqrt(n))

    def test_output_power_budget(self):
        # E|Y|^2 = rho^2 E U + sigma^2 = rho^2 / 2 + 1
        n = 10**5
        for rho in (1.0, 30.0):
            power = mcsim._radial_power(rho, n, np.random.default_rng([2, int(rho)]))
            se = np.std(power) / math.sqrt(n)
            assert np.mean(power) == pytest.approx(rho**2 / 2 + 1, abs=4 * se), rho


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

    def test_harmonic_constant_matches_digamma(self):
        # the estimator's constant digamma(n) - digamma(k) is the harmonic sum
        # of 1/j for j = k..n-1; scipy's digamma is the oracle, 4 ulp at k = 4
        ns = np.arange(5, 20001)
        want = special.digamma(ns) - special.digamma(4)
        found = np.array([mcsim._harmonic(4, n) for n in ns])
        assert np.all(np.abs(found - want) <= 4 * np.spacing(want))
        # evenly spaced values have first-neighbour distance 1 everywhere, so
        # the estimate is that constant plus ln 2
        for n in (2, 10, 1000, 65536):
            want = special.digamma(n) - special.digamma(1) + math.log(2.0)
            found = mcsim._kl_entropy_1d(np.arange(n, dtype=float), 1)
            assert abs(found - want) <= 4 * np.spacing(want), n

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
        with pytest.raises(NumericalError, match="more than 1% duplicate points"):
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
            assert exact_coherent_mi(snr) == pytest.approx(exact, abs=1e-6)
            values = []
            for seed in range(5):
                est = mcsim.estimate_coherent_mi(model, snr, 10**6, [seed, 17])
                assert abs(est.value - exact) <= 3.0 * est.standard_error
                values.append(est.value)
            assert abs(np.mean(values) - exact) <= 1e-3

    def test_exact_rayleigh_value(self):
        # the nested quadrature (2-3 s a value) is recomputed at snr 100 and
        # pinned at 10 and 1000; each estimate lies within 3 SE of it.  The 64
        # fading draws set the SE (0.09-0.15 nats), so a five-seed mean bound
        # would test the draws, not the k-NN bias the unit-modulus case pins
        assert exact_coherent_mi(100.0, rayleigh=True) == pytest.approx(3.260327, abs=1e-6)
        for snr, exact in ((10.0, 1.444020), (100.0, 3.260327), (1000.0, 5.403379)):
            for seed in range(5):
                est = mcsim.estimate_coherent_mi(self.WHITE, snr, 10**6, [seed, 17])
                assert abs(est.value - exact) <= 3.0 * est.standard_error

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
