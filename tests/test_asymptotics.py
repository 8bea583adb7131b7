import math

import numpy as np
import pytest

from prelog_lab import asymptotics, bounds, fading, spectra

from conftest import random_pc_spectrum


class TestGaussianPrelog:
    def test_flat_bands(self):
        for half in (0.1, 0.25, 0.4):
            assert asymptotics.gaussian_prelog(spectra.flat_band(half)) == \
                pytest.approx(1 - 2 * half, abs=1e-12)

    def test_white_is_zero(self):
        assert asymptotics.gaussian_prelog(spectra.white()) == 0.0

    def test_two_tap_spectrum_null_zero_set(self):
        # density 1 + cos(2 pi lam) vanishes only at lam = +/- 1/2
        m = fading.fir_model([1.0, 1.0], fading.COMPLEX_GAUSSIAN)
        assert asymptotics.gaussian_prelog(m.spectrum) == 0.0

    def test_matches_zero_density_fraction_of_midpoints(self, rng):
        # oracle: the share of 10^5 midpoints where the density is exactly 0;
        # each band edge moves that share by at most 1e-5
        n = 10**5
        mids = -0.5 + (np.arange(n) + 0.5) / n
        cases = [random_pc_spectrum(rng, with_masses=m) for m in (False, True) * 2]
        cases += [fading.fir_model([1.0, 1.0]).spectrum,
                  spectra.piecewise_constant([(-0.5, 0.0, 2.0), (0.0, 0.5, 0.0)])]
        for f in cases:
            zero = sum(spectra.density_at(f, lam) == 0.0 for lam in mids.tolist())
            assert asymptotics.gaussian_prelog(f) == pytest.approx(zero / n, abs=1e-4)


class TestPenaltyRatio:
    def test_white_closed_form(self):
        got = asymptotics.penalty_ratio(spectra.white(), 1e12)
        want = math.log1p(1e12) / math.log(1e12)
        assert got == pytest.approx(want, abs=4e-14)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_flat_band_closed_form(self):
        got = asymptotics.penalty_ratio(spectra.flat_band(0.25), 1e12)
        want = 0.5 * math.log1p(2e12) / math.log(1e12)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.5125, abs=1e-4)

    def test_closer_to_limit_at_higher_snr(self, rng):
        for _ in range(4):
            f = random_pc_spectrum(rng, with_masses=bool(rng.integers(2)))
            target = 1 - spectra.flat_set_measure(f)
            e8 = abs(asymptotics.penalty_ratio(f, 1e8) - target)
            e16 = abs(asymptotics.penalty_ratio(f, 1e16) - target)
            assert e16 <= e8 + 1e-15

    def test_monotone_convergence_on_grid(self, rng):
        f = random_pc_spectrum(rng)
        target = 1 - spectra.flat_set_measure(f)
        errs = [abs(asymptotics.penalty_ratio(f, s) - target)
                for s in (1e4, 1e6, 1e8, 1e10, 1e12, 1e14)]
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))

    def test_domain_error_at_snr_e(self):
        with pytest.raises(ValueError):
            asymptotics.penalty_ratio(spectra.white(), math.e)


class TestRegimeInequalities:
    def test_monotone_regime_density_at_least_one(self, rng):
        # for F' >= 1 the ratio ln(1+s F')/ln s is nonincreasing for s >= 3
        for fp in (1.0, 1.7, 23.0):
            pairs = rng.uniform(3.0, 1e6, size=(20, 2))
            for s1, s2 in pairs:
                s1, s2 = min(s1, s2), max(s1, s2)
                if s1 == s2:
                    continue
                r1 = math.log1p(s1 * fp) / math.log(s1)
                r2 = math.log1p(s2 * fp) / math.log(s2)
                assert r2 <= r1 + 1e-12

    def test_dominated_regime_bound(self, rng):
        # for 0 < F' < 1 and snr >= e the integrand ratio stays below ln(1+e)
        for _ in range(50):
            fp = float(rng.uniform(1e-6, 1.0 - 1e-9))
            s = float(np.exp(rng.uniform(1.0, 40.0)))
            val = math.log1p(s * fp) / math.log(s)
            assert 0.0 <= val < math.log1p(s) / math.log(s) <= math.log1p(math.e)


class TestLimitRatioCheck:
    def test_flat_band_converges(self):
        rep = asymptotics.limit_ratio_check(spectra.flat_band(0.25),
                                            [1e4, 1e6, 1e8, 1e10, 1e12])
        assert rep.target == 0.5
        assert rep.converged
        assert abs(rep.ratios[-1] - rep.target) == pytest.approx(0.0125, abs=5e-4)

    def test_s3_case_needs_wider_tolerance(self):
        f = spectra.mixed_spectrum([(-0.5, 0.5, 0.5)], [(0.0, 0.5)])
        tight = asymptotics.limit_ratio_check(f, [1e8, 1e10, 1e12], tol=0.02)
        wide = asymptotics.limit_ratio_check(f, [1e8, 1e10, 1e12], tol=0.03)
        assert tight.target == 1.0
        assert not tight.converged
        assert wide.converged

    def test_pure_point_mass_is_identically_zero(self):
        f = spectra.point_mass_spectrum([(0.0, 0.6), (0.25, 0.4)])
        rep = asymptotics.limit_ratio_check(f, [1e8, 1e10, 1e12])
        assert rep.target == 0.0
        assert rep.ratios == (0.0, 0.0, 0.0)
        assert rep.converged


class TestPrelogLowerEstimate:
    GRID = (1e4, 1e6, 1e8, 1e10, 1e12, 1e14, 1e16)

    def test_flat_band_rayleigh_optimized(self):
        model = fading.gaussian_model(spectra.flat_band(0.25))
        est = asymptotics.prelog_lower_estimate(model, self.GRID)
        assert all(b >= a - 1e-12 for a, b in zip(est.ratios, est.ratios[1:]))
        assert est.intercept == pytest.approx(0.5, abs=0.05)
        assert est.intercept >= 0.5 - 0.05

    def test_white_control(self):
        model = fading.gaussian_model(spectra.white())
        est = asymptotics.prelog_lower_estimate(model, self.GRID)
        assert est.intercept == pytest.approx(0.0, abs=0.05)

    def test_fixed_gamma_four_point(self):
        model = fading.fir_model([1.0, 1.0], fading.FOUR_POINT_PHASE)
        est = asymptotics.prelog_lower_estimate(model, self.GRID,
                                                gamma=math.sqrt(math.e))
        assert est.intercept == pytest.approx(0.0, abs=0.05)

    def test_fixed_gamma_ordering_identity(self):
        # ratio >= tail - penalty_ratio - tail (1 - ln g^2)/ln snr, exactly,
        # with equality whenever the raw bound is nonnegative
        model = fading.gaussian_model(spectra.flat_band(0.25))
        gamma = 0.3
        tail = fading.marginal_tail(model, gamma)
        est = asymptotics.prelog_lower_estimate(model, self.GRID, gamma=gamma)
        for snr, ratio in zip(est.snr_grid, est.ratios):
            rhs = (tail - asymptotics.penalty_ratio(model.spectrum, snr)
                   - tail * (1 - 2 * math.log(gamma)) / math.log(snr))
            assert ratio >= rhs - 1e-12
            if rhs >= 0:
                assert ratio == pytest.approx(rhs, abs=1e-12)

    def test_degenerate_constant_ratios(self):
        # purely discrete spectrum: zero penalty; at gamma = sqrt(e) the bound
        # is exactly tail * ln snr, so every ratio equals the tail
        model = fading.gaussian_model(spectra.point_mass_spectrum([(0.0, 1.0)]))
        est = asymptotics.prelog_lower_estimate(model, self.GRID,
                                                gamma=math.sqrt(math.e))
        want = math.exp(-math.e)
        assert np.allclose(est.ratios, want, atol=1e-14)
        assert est.intercept == pytest.approx(want, abs=1e-12)

    def test_ratios_are_clamped_nonnegative(self):
        model = fading.gaussian_model(spectra.white())
        est = asymptotics.prelog_lower_estimate(model, self.GRID, gamma=1e-6)
        assert all(r >= 0 for r in est.ratios)

    def test_fit_matches_polyfit_oracle(self):
        model = fading.gaussian_model(spectra.flat_band(0.1))
        est = asymptotics.prelog_lower_estimate(model, self.GRID)
        half = len(self.GRID) // 2
        x = 1.0 / np.log(np.asarray(self.GRID[half:]))
        y = np.asarray(est.ratios[half:])
        assert est.intercept == pytest.approx(float(np.polyfit(x, y, 1)[1]),
                                              abs=1e-12)

    def test_grid_validation(self):
        model = fading.gaussian_model(spectra.white())
        with pytest.raises(ValueError):
            asymptotics.prelog_lower_estimate(model, (10.0, 100.0, 1000.0))
        with pytest.raises(ValueError):
            asymptotics.prelog_lower_estimate(model, (1.0, 10.0, 100.0, 1000.0))
        with pytest.raises(ValueError):
            asymptotics.prelog_lower_estimate(model, (100.0, 10.0, 1000.0, 1e4))


class TestPrelogEstimateInvariants:
    def test_grid_must_exceed_e(self):
        with pytest.raises(ValueError):
            asymptotics.PrelogEstimate(snr_grid=(2.0, 10.0), ratios=(0.1, 0.2),
                                       intercept=0.3)
