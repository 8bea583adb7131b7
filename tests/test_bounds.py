import itertools
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
            lambda lam: math.log1p(snr * max(float(p(lam)), 0.0)),
            p.lo, p.hi, epsabs=1e-11, limit=400)
        total += val
    return total


def fir_coeffs(taps):
    return fading.fir_model(taps).spectrum.pieces[0].coeffs


def arc_spectrum(coeffs, lo, hi):
    """The density of coeffs on [lo, hi] alone; a point mass, which has no
    penalty, makes up the unit total mass."""
    piece = spectra.Piece(lo, hi, coeffs)
    return spectra.SpectralDistribution(
        pieces=(piece,), point_masses=((0.0, max(1.0 - float(piece.fourier(0).real), 0.0)),))


def mpmath_penalty(coeffs, lo, hi, snr, splits=()):
    """Independent oracle: 20-digit tanh-sinh quadrature of ln(1 + snr p) on
    [lo, hi] with p evaluated from the double coefficients, split where p has
    a zero so that its dip of width ~1/sqrt(snr) lies at a node cluster."""
    mpmath = pytest.importorskip("mpmath")
    k = (len(coeffs) - 1) // 2
    g = [mpmath.mpc(c.real, c.imag) for c in map(complex, coeffs)]
    with mpmath.workdps(20):
        def integrand(lam):
            p = mpmath.re(sum(gm * mpmath.expj(2 * mpmath.pi * (m - k) * lam)
                              for m, gm in enumerate(g)))
            return mpmath.log(1 + snr * max(p, 0))
        return float(mpmath.quad(integrand, [lo, *splits, hi]))


# the measured domain of penalty_spectral: near a zero of the density the
# coefficients of 1 + snr p carry a rounding error ~eps * snr
ROOTS_TOL = {1e2: 1e-10, 1e4: 1e-10, 1e8: 1e-10, 1e12: 1e-10, 1e14: 5e-9, 1e16: 1e-9}

THREE_TAP = fir_coeffs([1.0, 0.6 - 0.3j, -0.4j])
# complex order 2, zero at 0.15 and at 0.35
TWO_ZEROS = fir_coeffs(np.convolve([1.0, -np.exp(2j * np.pi * 0.15)],
                                    [1.0, -np.exp(2j * np.pi * 0.35)]))


FOUR_POINT = fading.fir_model([1.0, 0.5], fading.FOUR_POINT_PHASE)
RICE = fading.gaussian_model(spectra.flat_band(0.25), d=0.7)
FOUR_POINT_PINS = [(1e2, "1.0", "-1.6945896696443872"),
                   (1e6, "0.4472135954999579", "-2.386296027784242"),
                   (1e12, "0.4472135954999579", "-2.386294361121557")]


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


class TestPenaltySpectralRoots:
    @pytest.mark.parametrize("snr", sorted(ROOTS_TOL))
    def test_two_tap_closed_form(self, snr):
        # p = 1 + cos(2 pi lam): the integral is ln((1 + s + sqrt(1 + 2 s)) / 2)
        got = bounds.penalty_spectral(fading.fir_model([1.0, 1.0]).spectrum, snr)
        want = math.log((1.0 + snr + math.sqrt(1.0 + 2.0 * snr)) / 2.0)
        assert got == pytest.approx(want, rel=0, abs=ROOTS_TOL[snr])

    @pytest.mark.parametrize("coeffs, lo, hi, splits", [
        (THREE_TAP, -0.5, 0.5, ()),
        (THREE_TAP, -0.3, 0.45, ()),
        (THREE_TAP, 0.1, 0.5, ()),
        (TWO_ZEROS, -0.2, 0.35, (0.15,)),
    ], ids=["full-circle", "arc", "arc-to-half", "complex-zero-inside-and-at-end"])
    def test_against_mpmath(self, coeffs, lo, hi, splits):
        spectrum = arc_spectrum(coeffs, lo, hi)
        for snr, tol in ROOTS_TOL.items():
            want = mpmath_penalty(coeffs, lo, hi, snr, splits)
            assert bounds.penalty_spectral(spectrum, snr) == \
                pytest.approx(want, rel=0, abs=tol), snr

    def test_rounding_below_zero_gives_log_modulus(self):
        # p = (1 + cos)/2 - 1e-10 passes the -1e-9 density floor; with
        # 1 + snr p = A + B cos and A < B, the integral of ln|A + B cos| is ln(B/2)
        spectrum = arc_spectrum((0.25, 0.5 - 1e-10, 0.25), -0.5, 0.5)
        for snr in (1e12, 1e16):
            assert bounds.penalty_spectral(spectrum, snr) == \
                pytest.approx(math.log(snr / 4.0), rel=0, abs=1e-12)

    def test_zero_top_coefficients(self):
        # g_2 = g_-2 = 0: a root of Q at 0 and a lower degree, same integral
        order_one = fir_coeffs([1.0, 0.5j])
        padded = (0.0, *order_one, 0.0)
        for lo, hi in ((-0.5, 0.5), (-0.3, 0.45)):
            want = bounds.penalty_spectral(arc_spectrum(order_one, lo, hi), 1e4)
            got = bounds.penalty_spectral(arc_spectrum(padded, lo, hi), 1e4)
            assert got == pytest.approx(want, rel=0, abs=1e-13)


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

    def test_accepts_any_positive_finite_snr(self):
        # the Rayleigh optimum is gamma*^2 = 1/W0(snr/e) with coherent term
        # W0 exp(-1/W0) at every snr > 0, below 1 too; optimize_gamma takes that
        # closed form (no search, no tie rule), and lambertw is only the oracle.
        # At 1e-3 the optimum underflows to 0 and only the term is checked
        from scipy.special import lambertw

        model = fading.gaussian_model(spectra.white())
        for snr in (1e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0):
            w = lambertw(snr / math.e).real
            rep = bounds.capacity_lower_bound(model, snr)
            assert rep.coherent == pytest.approx(w * math.exp(-1.0 / w), rel=1e-12, abs=1e-9)
            assert rep.coherent >= bounds.capacity_lower_bound(model, snr, 1.0).coherent
            if snr > 1e-3:
                assert rep.gamma == pytest.approx(1.0 / math.sqrt(w), rel=1e-8)

    # (snr, gamma repr, bound repr): the Rice pins were written by the root
    # finder on the slope, the four-point pins by the atom path; tests/golden
    # covers neither the Rice tail nor a four-point tail below its top atom.
    # test_rice_optimum_is_the_stationary_point checks the Rice gammas against
    # mpmath.  The four-point law has the 16 atoms 1/sqrt(5) (x4), 1 (x8) and
    # 3/sqrt(5) (x4); test_four_point_pins_are_atom_exact checks its pins.
    @pytest.mark.parametrize("model, pins", [
        (RICE,
         [(1e2, "0.7250558351358135", "-0.5223350194117291"),
          (1e6, "0.384140328821189", "2.698696954166939"),
          (1e12, "0.2602378950480949", "8.800461448189594")]),
        (FOUR_POINT, FOUR_POINT_PINS),
    ], ids=["rice", "four-point"])
    def test_pinned_optimum(self, model, pins):
        for snr, gamma, bound in pins:
            rep = bounds.capacity_lower_bound(model, snr)
            assert (repr(rep.gamma), repr(rep.bound)) == (gamma, bound)

    def test_rice_optimum_is_the_stationary_point(self):
        # the root of 2 T - g f (ln snr - 1 + 2 ln g) by 30-digit mpmath, with the
        # tail as a Poisson mixture of regularized upper incomplete gammas and
        # the density 2 g exp(-g^2 - d^2) I0(2 d g); the golden-section search
        # stopped 4e-9 to 3.5e-8 relative off it
        mpmath = pytest.importorskip("mpmath")
        grid = [1e2, *SHIPPED_GRID]
        found = bounds.optimize_gamma(RICE, grid)
        with mpmath.workdps(30):
            d2 = mpmath.mpf(abs(RICE.mean)) ** 2

            def slope(g, big_l):
                tail = mpmath.nsum(lambda j: mpmath.exp(-d2) * d2**j / mpmath.factorial(j)
                                   * mpmath.gammainc(j + 1, g * g, regularized=True),
                                   [0, mpmath.inf])
                density = (2 * g * mpmath.exp(-g * g - d2)
                           * mpmath.besseli(0, 2 * mpmath.sqrt(d2) * g))
                return 2 * tail - g * density * (big_l - 1 + 2 * mpmath.log(g))

            for snr, gamma in zip(grid, found.tolist()):
                root = mpmath.findroot(lambda g: slope(g, mpmath.log(snr)), mpmath.mpf(gamma))
                assert abs(gamma - root) <= 1e-13 * root, snr

    def test_inner_edge_optimum_is_the_kink_exactly(self):
        # tail 1 up to |r1 - r2| and a falling square root past it: at high snr
        # the edge is the maximizer.  |1 - 0.5| is a double, so Gamma is 0.5 to
        # the bit (the golden-section search gave 0.5000000000000576 and a tail
        # of 0.99999989 at 1e16); |1 - 0.3| is rounded down to a double
        edges = []
        for d in (0.5, 0.3):
            model = fading.fir_model([1.0], fading.UNIT_MODULUS, d=d)
            edges.append(fading.tail_kinks(model)[0])
            for rep in bounds.capacity_lower_bound(model, SHIPPED_GRID):
                assert (rep.gamma, rep.tail) == (edges[-1], 1.0), rep
        assert edges[0] == 0.5

    def test_four_point_pins_are_atom_exact(self):
        # brute force over the 16 atoms: the pinned tail, and the coherent term
        # against max over atoms a of P(|H1| >= a) (ln snr - 1 + 2 ln a)
        taps = [complex(a) for a in FOUR_POINT.taps]
        atoms = [abs(sum(a * w for a, w in zip(taps, ws)))
                 for ws in itertools.product((1, 1j, -1, -1j), repeat=2)]
        for snr, gamma, _ in FOUR_POINT_PINS:
            rep = bounds.capacity_lower_bound(FOUR_POINT, snr)
            assert rep.tail == sum(a >= float(gamma) - 1e-12 for a in atoms) / 16
            best = max(sum(b >= a for b in atoms) / 16 * (math.log(snr) - 1 + 2 * math.log(a))
                       for a in atoms)
            assert abs(rep.coherent - best) <= 4e-12

    def test_step_tail_below_every_atom_takes_the_past_last_threshold(self):
        # at snr 1 the one atom, 1, scores ln 1 - 1 = -1 nats; twice the last
        # atom has tail 0 and coherent term 0
        model = fading.fir_model([1.0], fading.FOUR_POINT_PHASE)
        for snr in (0.5, 1.0):
            rep = bounds.capacity_lower_bound(model, snr)
            assert (rep.gamma, rep.tail, rep.coherent) == (2.0, 0.0, 0.0)
        assert bounds.capacity_lower_bound(model, math.e).gamma == 1.0  # a tie at 0: the atom

    def test_lambert_w0_against_scipy_and_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        from scipy.special import lambertw

        xs = [5e-324, 1e-300, *np.logspace(-30.0, 30.0, 121).tolist(), math.e, 6.6e307]
        with mpmath.workdps(40):
            for x in xs:
                w = bounds._lambert_w0(x)
                assert w == pytest.approx(float(mpmath.lambertw(x).real), rel=1e-15, abs=0), x
                assert w == pytest.approx(lambertw(x).real, rel=1e-15, abs=0), x

    def test_rayleigh_coherent_term_tends_to_its_expansion(self):
        # W0 exp(-1/W0) = L - ln L - 2 + O(ln L / L), W0 = W0(snr/e), L = ln snr
        model = fading.gaussian_model(spectra.white())
        gaps = []
        for snr in (1e2, 1e4, 1e8, 1e16, 1e32, 1e64, 1e128, 1e300):
            big_l = math.log(snr)
            gaps.append(bounds.capacity_lower_bound(model, snr).coherent
                        - (big_l - math.log(big_l) - 2.0))
            assert 0.0 < gaps[-1] <= 2.5 * math.log(big_l) / big_l, snr
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.012

    def test_grid_ends_at_1e3_below_it(self):
        assert bounds._gamma_grid(999.0) is bounds._GAMMA_GRID

    def test_grid_reaches_the_support_at_the_same_step(self):
        top = 1e4 + 1.0
        grid = bounds._gamma_grid(top)
        assert np.array_equal(grid[:601], bounds._GAMMA_GRID)
        assert grid[-2] < top <= grid[-1]
        assert np.allclose(np.diff(np.log10(grid)), 9.0 / 600, rtol=1e-9, atol=0)

    def test_unit_modulus_past_the_old_grid_end(self):
        # |H1| = |1e4 + W| lies in [9999, 10001]; the grid that stopped at 1e3
        # gave 22.03 nats, Gamma = 9999 gives 26.63
        model = fading.fir_model([1.0], fading.UNIT_MODULUS, d=1e4)
        rep = bounds.capacity_lower_bound(model, 1e4)
        assert rep.coherent >= 26.6 and 9999.0 - 1e-6 <= rep.gamma <= 10001.0

    def test_rice_past_the_old_grid_end(self):
        model = fading.gaussian_model(spectra.white(), d=2000.0)
        assert bounds.optimize_gamma(model, 100.0) > 1000.0


SHIPPED_GRID = [1e4, 1e6, 1e8, 1e10, 1e12, 1e14, 1e16]

# one model per tail law of fading.marginal_tail, and one whose threshold
# search runs past 1e3
TAIL_PATHS = {
    "rayleigh": fading.gaussian_model(spectra.white()),
    "rice": RICE,
    "fir-complex-gaussian": fading.fir_model([1.0, 0.5j]),
    "four-point-single-tap": fading.fir_model([1.0], fading.FOUR_POINT_PHASE, d=0.3),
    "unit-modulus-step": fading.fir_model([1.0], fading.UNIT_MODULUS),
    "unit-modulus-arccos": fading.fir_model([1.0, 0.5], fading.UNIT_MODULUS),
    "unit-modulus-far": fading.fir_model([1.0], fading.UNIT_MODULUS, d=1e4),
    "unit-modulus-three-circles": fading.fir_model([1.0, 0.6, 0.3j], fading.UNIT_MODULUS),
    "four-point": FOUR_POINT,
}


class TestGridForm:
    @pytest.mark.parametrize("grid", [[2.0, 5.0, 100.0, 1e8], SHIPPED_GRID,
                                      [0.01, 0.5, 1.0, 10.0, 1e4]],
                             ids=["low", "shipped", "below-one"])
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

    @pytest.mark.parametrize("grid", [[5.0, -3.0], [0.0]])
    def test_grid_with_a_nonpositive_snr_is_rejected(self, grid):
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
        good = dict(snr=10.0, gamma=1.0, tail=0.5, coherent=1.0, penalty_spectral=0.5)
        assert bounds.BoundReport(**good).bound == 0.5
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

    @pytest.mark.parametrize("path, count", [("rayleigh", 0), ("four-point", 1), ("rice", 8)])
    def test_tail_calls_per_path(self, monkeypatch, path, count):
        # the closed form makes none, the atoms one, and the search one for the
        # log grid, one for the bracket ends and one per root-finder step (6
        # here), each for the whole snr grid; the golden-section search made 53
        calls = []
        tail = fading.marginal_tail

        def counted(model, gamma):
            calls.append(np.shape(gamma))
            return tail(model, gamma)

        monkeypatch.setattr(fading, "marginal_tail", counted)
        bounds.optimize_gamma(TAIL_PATHS[path], SHIPPED_GRID)
        assert len(calls) == count


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
