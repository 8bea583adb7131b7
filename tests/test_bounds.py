import math
import re

import numpy as np
import pytest
import scipy.integrate

from prelog_lab import bounds, fading, spectra
from prelog_lab.errors import NumericalError

from conftest import random_pc_spectrum


def quadrature_penalty(spectrum, snr):
    """Independent oracle: adaptive quadrature of ln(1 + snr F')."""
    total = 0.0
    for p in spectrum.pieces:
        val, _ = scipy.integrate.quad(
            lambda lam: math.log1p(snr * max(float(p.density(lam)), 0.0)),
            p.lo, p.hi, epsabs=1e-11, limit=400)
        total += val
    return total


def eig_logdet(spectrum, snr, n):
    """Independent oracle: dense eigendecomposition of the Toeplitz matrix."""
    k = spectra.toeplitz_covariance(spectrum, n)
    eigs = np.linalg.eigvalsh(k)
    return float(np.sum(np.log1p(snr * np.clip(eigs, 0.0, None))) / n)


class TestCoherentTerm:
    def test_gamma_sqrt_e_leaves_pure_log_term(self):
        for tail, snr in ((0.3, 7.0), (1.0, 1e6), (0.05, 2.0)):
            got = bounds.coherent_term(snr, math.sqrt(math.e), tail)
            assert got == pytest.approx(tail * math.log(snr), abs=1e-12)

    def test_rayleigh_point_of_vanishing(self):
        assert bounds.coherent_term(math.e, 1.0, math.exp(-1)) == \
            pytest.approx(0.0, abs=1e-15)

    def test_unit_tail_closed_form(self):
        got = bounds.coherent_term(100.0, 0.5, 1.0)
        want = math.log(100) - (1 - math.log(0.25))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(2.21888, abs=5e-6)

    def test_affine_in_log_snr_with_slope_tail(self):
        tail, gamma = 0.37, 0.8
        s1, s2 = 50.0, 5000.0
        d = bounds.coherent_term(s2, gamma, tail) - bounds.coherent_term(s1, gamma, tail)
        assert d == pytest.approx(tail * (math.log(s2) - math.log(s1)), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            bounds.coherent_term(10.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            bounds.coherent_term(10.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            bounds.coherent_term(0.0, 1.0, 0.5)


class TestPenaltySpectral:
    def test_tiny_snr_vanishes(self, rng):
        f = random_pc_spectrum(rng)
        assert bounds.penalty_spectral(f, 1e-12) <= 1e-11

    def test_full_band_unit_density(self):
        assert bounds.penalty_spectral(spectra.white(), math.e - 1) == \
            pytest.approx(1.0, abs=1e-12)

    def test_flat_band_closed_form(self):
        got = bounds.penalty_spectral(spectra.flat_band(0.25), 49.5)
        assert got == pytest.approx(0.5 * math.log(100), abs=1e-12)

    def test_against_quadrature_oracle(self, rng):
        for _ in range(5):
            f = random_pc_spectrum(rng, with_masses=bool(rng.integers(2)))
            for snr in (0.5, 10.0, 1e4):
                assert bounds.penalty_spectral(f, snr) == \
                    pytest.approx(quadrature_penalty(f, snr), abs=1e-8)

    def test_point_masses_contribute_nothing(self):
        f1 = spectra.mixed_spectrum([(-0.25, 0.25, 1.0)], [(0.4, 0.5)])
        f2 = spectra.piecewise_constant([(-0.25, 0.25, 1.0), (0.3, 0.4, 5.0)])
        got1 = bounds.penalty_spectral(f1, 10.0)
        assert got1 == pytest.approx(0.5 * math.log(11), abs=1e-12)
        assert bounds.penalty_spectral(f2, 10.0) > got1

    def test_monotone_in_snr(self, rng):
        f = random_pc_spectrum(rng, with_masses=True)
        vals = [bounds.penalty_spectral(f, s) for s in (1.0, 5.0, 50.0, 1e4, 1e8)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestPenaltyLogdet:
    def test_order_one(self, rng):
        f = random_pc_spectrum(rng, with_masses=True)
        assert bounds.penalty_logdet(f, 3.0, 1) == pytest.approx(math.log(4.0),
                                                                 abs=1e-12)

    def test_white_spectrum_any_order(self):
        for n in (1, 2, 17, 64):
            assert bounds.penalty_logdet(spectra.white(), 9.0, n) == \
                pytest.approx(math.log(10.0), abs=1e-10)

    def test_against_eigenvalue_oracle(self, rng):
        for _ in range(3):
            f = random_pc_spectrum(rng, with_masses=bool(rng.integers(2)))
            for n in (8, 64, 256):
                assert bounds.penalty_logdet(f, 100.0, n) == \
                    pytest.approx(eig_logdet(f, 100.0, n), abs=1e-9)

    def test_flat_band_high_order_near_integral(self):
        got = bounds.penalty_logdet(spectra.flat_band(0.25), 1e4, 2048)
        assert abs(got - 0.5 * math.log(1 + 2e4)) < 0.1
        assert got == pytest.approx(eig_logdet(spectra.flat_band(0.25), 1e4, 2048),
                                    abs=1e-9)

    def test_dominates_spectral_integral(self, rng):
        for _ in range(4):
            f = random_pc_spectrum(rng, with_masses=bool(rng.integers(2)))
            ps = bounds.penalty_spectral(f, 50.0)
            for n in (1, 4, 32, 128):
                assert bounds.penalty_logdet(f, 50.0, n) >= ps - 1e-10

    def test_monotone_in_snr(self, rng):
        f = random_pc_spectrum(rng)
        vals = [bounds.penalty_logdet(f, s, 64) for s in (1.0, 10.0, 1e3, 1e6)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            bounds.penalty_logdet(spectra.white(), 1.0, 0)
        with pytest.raises(ValueError):
            bounds.penalty_logdet(spectra.white(), 0.0, 4)

    def test_orders_share_one_pass(self, rng):
        f = random_pc_spectrum(rng, with_masses=True)
        orders = [1, 7, 64, 256]
        got = bounds.penalty_logdets(f, 100.0, orders)
        assert list(got) == [bounds.penalty_logdet(f, 100.0, n) for n in orders]
        for n, value in zip(orders, got):
            assert value == pytest.approx(eig_logdet(f, 100.0, n), abs=1e-9)

    @pytest.mark.parametrize("spectrum, snr", [
        (spectra.flat_band(0.25), 1e4),
        (spectra.mixed_spectrum([(-0.5, 0.5, 0.5)], [(0.0, 0.5)]), 1e10),
        (spectra.flat_band(0.25), 1e12),
    ], ids=["flat-band-1e4", "point-mass-1e10", "flat-band-1e12"])
    def test_against_mpmath_determinant(self, spectrum, snr):
        """60-digit det of I + snr K built from the double autocovariances,
        to the rounding bound of perfbench/oracles.py."""
        mpmath = pytest.importorskip("mpmath")
        n = 64
        r = spectra.autocovariances(spectrum, np.arange(n))
        with mpmath.workdps(60):
            t = [snr * mpmath.mpc(z.real, z.imag) for z in r]
            m = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    m[i, j] = (1 if i == j else 0) + (t[i - j] if i >= j
                                                      else mpmath.conj(t[j - i]))
            want = float(mpmath.re(mpmath.log(mpmath.det(m)))) / n
        norm = np.linalg.eigvalsh(spectra.toeplitz_covariance(spectrum, n))[-1]
        tol = 1e-10 + 4 * math.sqrt(n) * np.finfo(float).eps * snr * norm
        assert bounds.penalty_logdet(spectrum, snr, n) == pytest.approx(want, rel=0, abs=tol)

    def test_precision_limit_is_named(self):
        with pytest.raises(NumericalError,
                           match=r"double precision at order \d+ \(snr 1e\+16\)"):
            bounds.penalty_logdet(spectra.flat_band(0.25), 1e16, 64)


class TestCapacityLowerBound:
    def test_white_rayleigh_composition(self):
        model = fading.gaussian_model(spectra.white())
        rep = bounds.capacity_lower_bound(model, 100.0, math.sqrt(math.e))
        want = math.exp(-math.e) * math.log(100.0) - math.log(101.0)
        assert rep.bound == pytest.approx(want, abs=1e-12)
        assert rep.bound == pytest.approx(-4.3112, abs=5e-5)

    def test_negative_bound_reported_raw(self):
        model = fading.gaussian_model(spectra.white())
        rep = bounds.capacity_lower_bound(model, 2.0, 1.0)
        assert rep.bound < 0

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            bounds.BoundReport(snr=10.0, gamma=1.0, tail=0.5, coherent=1.0,
                               penalty_spectral=0.5, bound=0.7)

    def test_flat_band_ratio_near_high_snr_plateau(self):
        model = fading.gaussian_model(spectra.flat_band(0.25))
        rep = bounds.capacity_lower_bound(model, 1e12, 0.2)
        assert rep.bound / math.log(1e12) == pytest.approx(0.30, abs=0.01)

    def test_report_carries_tail_and_clamped_ratio(self):
        flat = fading.gaussian_model(spectra.flat_band(0.25))
        rep = bounds.capacity_lower_bound(flat, 1e12, 0.2)
        assert rep.bound > 0 and rep.ratio == rep.bound / math.log(1e12)
        model = fading.gaussian_model(spectra.white())
        rep = bounds.capacity_lower_bound(model, 10.0, 1.0)
        assert rep.tail == fading.marginal_tail(model, 1.0)
        assert rep.bound < 0 and rep.ratio == 0.0
        assert math.isnan(bounds.capacity_lower_bound(model, 0.5, 1.0).ratio)

    def test_gamma_none_is_the_optimized_report(self):
        model = fading.fir_model([1.0, 1.0], fading.UNIT_MODULUS)
        gamma = bounds.optimize_gamma(model, 1e4)
        rep = bounds.capacity_lower_bound(model, 1e4)
        assert rep == bounds.capacity_lower_bound(model, 1e4, gamma)
        assert rep.gamma == gamma


class TestOptimizeGamma:
    def test_never_worse_than_gamma_one(self, rng):
        models = [
            fading.gaussian_model(spectra.white()),
            fading.gaussian_model(spectra.flat_band(0.25)),
            fading.fir_model([1.0, 1.0], fading.UNIT_MODULUS),
        ]
        for model in models:
            for snr in (5.0, 100.0, 1e8):
                rep = bounds.capacity_lower_bound(model, snr)
                base = bounds.capacity_lower_bound(model, snr, 1.0)
                assert rep.bound >= base.bound - 1e-12

    def test_flat_band_high_snr_against_dense_grid(self):
        model = fading.gaussian_model(spectra.flat_band(0.25))
        rep = bounds.capacity_lower_bound(model, 1e12)
        assert rep.gamma == pytest.approx(0.2, abs=0.05)
        dense = np.logspace(-6, 3, 10001)
        obj = np.exp(-dense**2) * (math.log(1e12) - 1 + 2 * np.log(dense))
        assert rep.coherent >= float(obj.max()) - 1e-6

    def test_two_tap_unit_modulus_against_dense_grid(self):
        # exact tail: arccos((g^2 - r1^2 - r2^2) / (2 r1 r2)) / pi
        for taps in ([1.0, 1.0], [1.0, 0.5j]):
            r1, r2 = np.abs(taps) / np.linalg.norm(taps)
            model = fading.fir_model(taps, fading.UNIT_MODULUS)
            dense = np.logspace(-6, 3, 10001)
            cos_psi = (dense**2 - r1 * r1 - r2 * r2) / (2 * r1 * r2)
            tail = np.arccos(np.clip(cos_psi, -1.0, 1.0)) / math.pi
            for snr in (1e2, 1e4, 1e8):
                rep = bounds.capacity_lower_bound(model, snr)
                obj = tail * (math.log(snr) - 1 + 2 * np.log(dense))
                assert rep.coherent >= float(obj.max()) - 1e-9

    def test_step_tail_optimum_at_one(self):
        model = fading.fir_model([1.0], fading.FOUR_POINT_PHASE)
        rep = bounds.capacity_lower_bound(model, 100.0)
        assert abs(math.log(rep.gamma)) < 9 / 600 * math.log(10) + 1e-9
        assert rep.coherent == pytest.approx(math.log(100.0) - 1.0, abs=1e-9)

    def test_requires_snr_above_one(self):
        with pytest.raises(ValueError):
            bounds.optimize_gamma(fading.gaussian_model(spectra.white()), 1.0)

    # (snr, gamma repr, bound repr) written by the per-point scalar search;
    # tests/golden covers neither the Rice tail nor the empirical 1e6-draw tail
    @pytest.mark.parametrize("model, pins", [
        (fading.gaussian_model(spectra.flat_band(0.25), d=0.7),
         [(1e2, "0.7250558261462835", "-0.5223350194117291"),
          (1e6, "0.38414031795439485", "2.6986969541669357"),
          (1e12, "0.2602378883205036", "8.800461448189594")]),
        (fading.fir_model([1.0, 0.5], fading.FOUR_POINT_PHASE),
         [(1e2, "0.9999999999995302", "-1.6940849458190534"),
          (1e6, "0.4472135954995874", "-2.386296027785944"),
          (1e12, "0.4472135954995874", "-2.3862943611233014")]),
    ], ids=["rice", "empirical"])
    def test_pinned_optimum(self, model, pins):
        for snr, gamma, bound in pins:
            rep = bounds.capacity_lower_bound(model, snr)
            assert (repr(rep.gamma), repr(rep.bound)) == (gamma, bound)


SHIPPED_GRID = [1e4, 1e6, 1e8, 1e10, 1e12, 1e14, 1e16]

# one model per tail path of fading.marginal_tail
TAIL_PATHS = {
    "rayleigh": fading.gaussian_model(spectra.white()),
    "rice": fading.gaussian_model(spectra.flat_band(0.25), d=0.7),
    "fir-complex-gaussian": fading.fir_model([1.0, 0.5j]),
    "four-point-single-tap": fading.fir_model([1.0], fading.FOUR_POINT_PHASE, d=0.3),
    "unit-modulus-step": fading.fir_model([1.0], fading.UNIT_MODULUS),
    "unit-modulus-arccos": fading.fir_model([1.0, 0.5], fading.UNIT_MODULUS),
    "empirical": fading.fir_model([1.0, 0.5], fading.FOUR_POINT_PHASE),
}


class TestGridForm:
    @pytest.mark.parametrize("grid", [[2.0, 5.0, 100.0, 1e8], SHIPPED_GRID],
                             ids=["low", "shipped"])
    @pytest.mark.parametrize("path", sorted(TAIL_PATHS))
    def test_grid_equals_per_snr_calls_bitwise(self, path, grid):
        model = TAIL_PATHS[path]
        found = bounds.capacity_lower_bound(model, grid)
        assert isinstance(found, list) and len(found) == len(grid)
        assert repr(found) == repr([bounds.capacity_lower_bound(model, s) for s in grid])
        assert repr(bounds.capacity_lower_bound(model, np.array(grid))) == repr(found)
        gammas = bounds.optimize_gamma(model, grid)
        assert repr(found) == repr(bounds.capacity_lower_bound(model, grid, gammas))
        fixed = bounds.capacity_lower_bound(model, grid, 0.8)
        assert repr(fixed) == repr([bounds.capacity_lower_bound(model, s, 0.8)
                                    for s in grid])

    def test_scalar_and_one_element_grid(self):
        model = TAIL_PATHS["rayleigh"]
        gamma = bounds.optimize_gamma(model, 100.0)
        assert isinstance(gamma, float)
        gammas = bounds.optimize_gamma(model, [100.0])
        assert isinstance(gammas, np.ndarray) and gammas.tolist() == [gamma]
        report = bounds.capacity_lower_bound(model, 100.0)
        assert isinstance(report, bounds.BoundReport) and report.gamma == gamma
        assert bounds.capacity_lower_bound(model, [100.0]) == [report]
        assert bounds.capacity_lower_bound(model, np.float64(100.0), 1.0) == \
            bounds.capacity_lower_bound(model, [100.0], 1.0)[0]

    @pytest.mark.parametrize("grid", [[2.0, 1.0, 100.0], [0.5], [5.0, -3.0]])
    def test_grid_with_snr_at_most_one_is_rejected(self, grid):
        with pytest.raises(ValueError, match="snr"):
            bounds.optimize_gamma(TAIL_PATHS["rayleigh"], grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_snr_is_rejected(self, bad):
        model = TAIL_PATHS["rayleigh"]
        named = re.escape(repr(bad))
        for call in (lambda: bounds.optimize_gamma(model, bad),
                     lambda: bounds.optimize_gamma(model, [10.0, bad]),
                     lambda: bounds.capacity_lower_bound(model, bad, 1.0),
                     lambda: bounds.capacity_lower_bound(model, [10.0, bad], 1.0),
                     lambda: bounds.coherent_term(bad, 1.0, 0.5),
                     lambda: bounds.penalty_spectral(model.spectrum, bad)):
            with pytest.raises(ValueError, match=named):
                call()

    def test_grid_is_checked_before_any_tail(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fading, "marginal_tail", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="nan"):
            bounds.capacity_lower_bound(TAIL_PATHS["rayleigh"], [10.0, 20.0, math.nan], 1.0)
        assert calls == []

    def test_report_rejects_non_finite_fields(self):
        good = dict(snr=10.0, gamma=1.0, tail=0.5, coherent=1.0,
                    penalty_spectral=0.5, bound=0.5)
        bounds.BoundReport(**good)
        for field in good:
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match="finite"):
                    bounds.BoundReport(**{**good, field: bad})

    def test_shipped_grid_search_makes_few_tail_calls(self, monkeypatch):
        # the per-snr search made 56 tail calls per point: 392 on this grid
        calls = []
        tail = fading.marginal_tail

        def counted(model, gamma):
            calls.append(np.shape(gamma))
            return tail(model, gamma)

        monkeypatch.setattr(fading, "marginal_tail", counted)
        found = bounds.optimize_gamma(TAIL_PATHS["rayleigh"], SHIPPED_GRID)
        assert found.shape == (7,)
        assert len(calls) < 70


class TestMatrixSteps:
    def test_det_identity(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            b = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            d1 = np.linalg.det(np.eye(n) + a @ b)
            d2 = np.linalg.det(np.eye(m) + b @ a)
            assert abs(d1 - d2) <= 1e-9 * max(abs(d1), 1.0)

    def test_logdet_domination(self, rng):
        for _ in range(40):
            f = random_pc_spectrum(rng, with_masses=bool(rng.integers(2)))
            n = int(rng.integers(2, 12))
            k = spectra.toeplitz_covariance(f, n)
            peak = float(rng.uniform(0.5, 3.0))
            sigma2 = float(rng.uniform(0.2, 2.0))
            x = peak * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
            xkx = np.diag(x) @ k @ np.diag(np.conj(x))
            lhs = np.linalg.slogdet(np.eye(n) + xkx / sigma2)[1]
            rhs = np.linalg.slogdet(np.eye(n) + (peak**2 / sigma2) * k)[1]
            assert lhs <= rhs + 1e-10
