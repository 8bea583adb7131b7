import math
import re

import numpy as np
import pytest
from scipy import integrate, special, stats

from prelog_lab import bounds, fading, mcsim, spectra
from prelog_lab.errors import DegenerateSampleError

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

    def test_noiseless_mode_is_exact(self):
        batch = mcsim.sample_inputs(256, 1.0, 1)
        path = self._path(256)
        y = mcsim.simulate_channel(batch, path, 0.0, 5)
        assert np.array_equal(y, path * batch)

    def test_noise_variance_with_silent_input(self):
        n = 10**5
        y = mcsim.simulate_channel(np.zeros(n, dtype=complex), self._path(n),
                                   0.25, 5)
        # |Z|^2 is exponential with mean and sd both 0.25
        assert np.mean(np.abs(y)**2) == pytest.approx(0.25,
                                                      abs=4 * 0.25 / math.sqrt(n))

    def test_output_power_budget(self):
        n = 10**5
        batch = mcsim.sample_inputs(n, 1.0, 2)
        y = mcsim.simulate_channel(batch, self._path(n), 1.0, 5)
        # E|Y|^2 = E|H|^2 E|X|^2 + sigma^2 = 0.5 + 1
        power = np.abs(y)**2
        se = np.std(power) / math.sqrt(n)
        assert np.mean(power) == pytest.approx(1.5, abs=4 * se)

    def test_determinism(self):
        batch = mcsim.sample_inputs(256, 1.0, 1)
        path = self._path(256)
        a = mcsim.simulate_channel(batch, path, 0.5, 5)
        b = mcsim.simulate_channel(batch, path, 0.5, 5)
        c = mcsim.simulate_channel(batch, path, 0.5, 6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        batch = mcsim.sample_inputs(256, 1.0, 1)
        with pytest.raises(ValueError):
            mcsim.simulate_channel(batch, self._path(255), 1.0, 5)
        with pytest.raises(ValueError):
            mcsim.simulate_channel(batch, self._path(256), -1.0, 5)


class TestEstimateEntropy:
    def test_complex_gaussian(self):
        rng = np.random.default_rng(100)
        n = 20000
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        est = mcsim.estimate_entropy(z)
        assert est.value == pytest.approx(LN_PI_E, abs=0.05)
        assert abs(est.value - LN_PI_E) < 5 * est.standard_error
        assert est.sample_count == n and est.neighbor_order == 4

    def test_uniform_disk(self):
        rng = np.random.default_rng(101)
        n = 20000
        pts = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        est = mcsim.estimate_entropy(pts)
        assert est.value == pytest.approx(math.log(math.pi), abs=0.05)

    def test_scaling_identity_is_exact(self):
        # dilating the sample by c shifts the estimator by exactly 2 ln c
        rng = np.random.default_rng(102)
        z = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        base = mcsim.estimate_entropy(z)
        scaled = mcsim.estimate_entropy(3.0 * z)
        assert scaled.value - base.value == pytest.approx(math.log(9.0),
                                                          abs=1e-9)

    def test_bias_shrinks_with_sample_size(self):
        small, big = [], []
        for s in range(20):
            rng = np.random.default_rng([909, s])
            z = (rng.standard_normal(10**5)
                 + 1j * rng.standard_normal(10**5)) / math.sqrt(2)
            big.append(mcsim._kl_entropy(z, 4) - LN_PI_E)
            small.append(mcsim._kl_entropy(z[:1000], 4) - LN_PI_E)
        assert abs(np.mean(big)) < abs(np.mean(small))

    def test_duplicates_beyond_one_percent_are_degenerate(self):
        rng = np.random.default_rng(103)
        z = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        z[200:] = z[0]
        with pytest.raises(DegenerateSampleError):
            mcsim.estimate_entropy(z)

    def test_isolated_duplicates_are_tolerated(self):
        rng = np.random.default_rng(104)
        z = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        z[1] = z[0]  # a single coincident pair, well under 1%
        est = mcsim.estimate_entropy(z)
        assert math.isfinite(est.value)

    def test_validation(self):
        rng = np.random.default_rng(105)
        z = rng.standard_normal(99) + 1j * rng.standard_normal(99)
        with pytest.raises(ValueError):
            mcsim.estimate_entropy(z)
        z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        with pytest.raises(ValueError):
            mcsim.estimate_entropy(z, k=0)
        with pytest.raises(ValueError):
            mcsim.estimate_entropy(z, k=21)


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

    def test_agrees_with_direct_estimate_for_unit_modulus_fading(self):
        # |H| = 1 and X circularly symmetric, so HX has the law of X and the
        # conditional MI equals the single unconditional run h(X + Z) - h(Z)
        model = fading.fir_model([1.0], fading.UNIT_MODULUS)
        strat = mcsim.estimate_coherent_mi(model, 100.0, 64000, 5)
        inputs = mcsim.sample_inputs(20000, math.sqrt(100.0), 77)
        rng = np.random.default_rng(78)
        z = math.sqrt(0.5) * (
            rng.standard_normal(20000) + 1j * rng.standard_normal(20000))
        direct = mcsim.estimate_entropy(inputs + z)
        mi_direct = direct.value - LN_PI_E
        assert abs(strat.value - mi_direct) < 0.04

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
