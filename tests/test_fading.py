import itertools
import math

import numpy as np
import pytest
import scipy.integrate

from prelog_lab import bounds, fading, spectra


# three circles of radii 0.83, 0.50 and 0.25: a tail by one phase integral
THREE_CIRCLES = [1.0, 0.6, 0.3j]


def bartlett_se(spectrum, n, lags=200):
    """MC standard-error oracle for empirical lag autocovariances of a
    stationary Gaussian path: sqrt(2 sum_m |r(m)|^2 / n)."""
    r = spectra.autocovariances(spectrum, np.arange(lags))
    return math.sqrt(2.0 * float(np.sum(np.abs(r) ** 2)) / n)


def phase_integral(r1, r2, r3, gamma):
    """Tail oracle for three unit-modulus circles: the two-circle arccos law of
    radii |r2 + r3 e^{i psi}| and r1, averaged over psi in [0, pi] by quad,
    split where that modulus is gamma + r1 or |gamma - r1|."""
    def integrand(psi):
        rho = abs(r2 + r3 * complex(math.cos(psi), math.sin(psi)))
        c = (gamma * gamma - rho * rho - r1 * r1) / (2.0 * rho * r1)
        return math.acos(min(1.0, max(-1.0, c))) / math.pi

    kinks = [math.acos(c) for c in ((x * x - r2 * r2 - r3 * r3) / (2.0 * r2 * r3)
                                     for x in (gamma + r1, abs(gamma - r1)))
             if -1.0 < c < 1.0]
    edges = sorted({0.0, math.pi, *kinks})
    return sum(scipy.integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12,
                                    limit=200)[0]
               for a, b in zip(edges, edges[1:])) / math.pi


def mp_circle_tail(mpmath, r1, r2, gamma):
    """P(|r1 + r2 e^{i psi}| >= gamma) by the arccos law in mpmath's precision."""
    c = (gamma * gamma - r1 * r1 - r2 * r2) / (2 * r1 * r2)
    return mpmath.acos(max(-1, min(1, c))) / mpmath.pi


def mp_three_circle_tail(mpmath, r1, r2, r3, gamma):
    """The two-circle law of radii |r1 + r2 e^{i psi}| and r3 averaged over psi
    in [0, pi] by mpmath quadrature, split where that modulus is gamma + r3 or
    |gamma - r3|."""
    r1, r2, r3, gamma = map(mpmath.mpf, (r1, r2, r3, gamma))
    cuts = [mpmath.acos(c) for c in ((x * x - r1 * r1 - r2 * r2) / (2 * r1 * r2)
                                     for x in (gamma + r3, abs(gamma - r3))) if -1 < c < 1]
    def integrand(psi):
        return mp_circle_tail(mpmath, abs(r1 + r2 * mpmath.expj(psi)), r3, gamma)

    return mpmath.quad(integrand, sorted({mpmath.mpf(0), mpmath.pi, *cuts})) / mpmath.pi


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
            val, _ = scipy.integrate.quad(lambda l: float(piece(l)),
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

    @pytest.mark.parametrize("spectrum", [spectra.white(), spectra.flat_band(0.25)],
                             ids=["white", "flat_band"])
    @pytest.mark.parametrize("n", [1, 500, 4096])
    def test_gaussian_path_keeps_its_bytes(self, spectrum, n):
        # the Gaussian branch as three lines of complex arithmetic, the oracle
        # of the one-draw, in-place form: the same draws, the same products,
        # the same transform, bit for bit
        rng = np.random.default_rng(21)
        order = 1 << max(int(np.ceil(np.log2(max(8 * n, 16)))), 4)
        while not fading._embedding_eigenvalues(spectrum, order)[1]:
            order *= 2  # a short band-limited path needs a doubling or two
        lam = fading._embedding_eigenvalues(spectrum, order)[0]
        xi = rng.standard_normal(order) + 1j * rng.standard_normal(order)
        want = (np.sqrt(order / 2.0) * np.fft.ifft(np.sqrt(lam) * xi))[:n]
        got = fading.simulate_path(fading.gaussian_model(spectrum), n, seed=21)
        assert got.tobytes() == want.tobytes()

    def test_point_mass_spectrum_unsupported(self):
        f = spectra.mixed_spectrum([(-0.25, 0.25, 1.0)], [(0.25, 0.5)])
        with pytest.raises(ValueError, match="point masses is not ergodic"):
            fading.simulate_path(fading.gaussian_model(f), 64, seed=0)

    def test_embedding_cache_is_bounded_by_bytes(self):
        # each entry holds at most _EMBED_CAP float64 eigenvalues
        entries = fading._embedding_eigenvalues.cache_info().maxsize
        assert entries * 8 * fading._EMBED_CAP <= 64 * 2**20

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

    def test_rice_is_bitwise_scipy_rice_sf(self):
        # scipy.stats serves only as the oracle: the library evaluates the
        # noncentral chi-square formula that rice.sf uses
        import scipy.stats
        gammas = np.concatenate([np.logspace(-6.0, 3.0, 10601),
                                 np.linspace(0.0, 6.0, 600)])
        for d in (0.05, 0.3, 0.7, 1.0 + 1.0j, 2.5, -4.0j):
            m = fading.gaussian_model(spectra.white(), d=d)
            want = scipy.stats.rice.sf(gammas, math.sqrt(2.0) * abs(d),
                                       scale=math.sqrt(0.5))
            want[gammas == 0] = 1.0
            assert np.array_equal(fading.marginal_tail(m, gammas), want)
            for i in (0, 1, 5000, 10600, 10700, 11200):
                assert fading.marginal_tail(m, float(gammas[i])) == want[i]

    def test_rice_mean_domain_is_named(self):
        # unchecked, chndtr returns NaN at gamma = |d| = 1e6, bounds calls that
        # NaN "tail must be a probability" at 1e10, and np.square overflows at 1e154
        for d in (1e6, -1e10j, 1e154):
            m = fading.gaussian_model(spectra.white(), d=d)
            for call in (lambda: fading.marginal_tail(m, abs(d)),
                         lambda: bounds.capacity_lower_bound(m, 1e4)):
                with pytest.raises(ValueError, match=r"exact tails cover \|mean\| <= 50000"):
                    call()

    def test_rice_tail_at_the_largest_mean_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        d = fading._RICE_MAX_MEAN

        def tail(gamma):
            # the Rice density 2r exp(-r^2 - d^2) I0(2rd) over [gamma, inf), as
            # 2r exp(-(r - d)^2) times exp(-2rd) I0(2rd), neither of which overflows
            def density(r):
                return (2 * r * mpmath.exp(-(r - d) ** 2)
                        * mpmath.besseli(0, 2 * r * d) * mpmath.exp(-2 * r * d))
            cuts = [c for c in (d - 8, d, d + 8) if c > gamma]
            return float(mpmath.quad(density, [gamma, *cuts, mpmath.inf]))

        m = fading.gaussian_model(spectra.white(), d=d * 1j)
        gammas = np.array([0.0, d - 6, d - 2, d - 0.5, d, d + 0.5, d + 2, d + 6, d + 10])
        with mpmath.workdps(30):
            want = [tail(mpmath.mpf(g)) for g in gammas]
        assert np.max(np.abs(fading.marginal_tail(m, gammas) - want)) <= 4e-16 * d + 1e-15
        # from |d| ~ 5.25e4 NaN first shows up near gamma = |d| + 18
        far = fading.marginal_tail(m, d + np.arange(10.0, 25.0, 0.1))
        assert ((far >= 0) & (far <= 1e-40)).all()

    def test_four_point_single_tap_step(self):
        m = fading.fir_model([1.0], fading.FOUR_POINT_PHASE)
        assert fading.marginal_tail(m, 0.5) == 1.0
        assert fading.marginal_tail(m, 1.0) == 1.0
        assert fading.marginal_tail(m, 1.0001) == 0.0

    def test_two_tap_unit_modulus_median(self):
        # |H|^2 = 1 + cos(phase difference), so P(|H| >= 1) = 1/2 exactly
        m = fading.fir_model([1.0, 1.0], fading.UNIT_MODULUS)
        p = fading.marginal_tail(m, 1.0)
        assert abs(p - 0.5) <= 1e-15

    def test_equal_radius_two_circles(self):
        # r1 = r2 = r: |H| = 2r |cos(psi/2)|, so P(|H| >= g) = (2/pi) arccos(g / 2r)
        for m, r in ((fading.fir_model([1.0, 1.0j], fading.UNIT_MODULUS), math.sqrt(0.5)),
                     (fading.fir_model([1.0], fading.UNIT_MODULUS, d=-1.0j), 1.0)):
            grid = np.linspace(0.01, 1.9, 40) * r
            want = 2.0 / math.pi * np.arccos(grid / (2.0 * r))
            assert np.max(np.abs(fading.marginal_tail(m, grid) - want)) <= 1e-13
            assert fading.marginal_tail(m, 2.0 * r * (1 + 1e-9)) == 0.0

    def test_two_circles_against_empirical_oracle(self, rng):
        n = 10**6
        for _ in range(3):
            d = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            taps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            for tap_list, mean in (([1.0 + 0.5j], d), (taps, 0.0)):
                a = np.asarray(tap_list) / np.linalg.norm(tap_list)
                w = np.exp(2j * np.pi * rng.random((n, len(a))))
                draws = np.abs(mean + w @ a)
                radii = sorted(np.abs([mean, *a]))[-2:]
                m = fading.fir_model(tap_list, fading.UNIT_MODULUS, d=mean)
                for gamma in np.linspace(abs(radii[1] - radii[0]), sum(radii), 7)[1:-1]:
                    p = fading.marginal_tail(m, gamma)
                    emp = float(np.mean(draws >= gamma))
                    se = math.sqrt(max(p * (1 - p), 1e-12) / n)
                    assert abs(p - emp) < 5 * se

    def test_two_circle_laws_build_no_tail_table(self, monkeypatch):
        # three circles too: no unit-modulus law builds a table or draws
        monkeypatch.setattr(fading, "draw_marginal", None)
        laws = [fading.fir_model([1.0], fading.UNIT_MODULUS),
                fading.fir_model([1.0j], fading.UNIT_MODULUS, d=0.3 - 0.2j),
                fading.fir_model([1.0, 0.4 - 0.7j], fading.UNIT_MODULUS),
                fading.fir_model(THREE_CIRCLES, fading.UNIT_MODULUS),
                fading.fir_model([1.0, 0.4 - 0.7j], fading.UNIT_MODULUS, d=0.5j),
                fading.fir_model([1.0, 1.0, 1.0], fading.UNIT_MODULUS)]
        misses = fading._marginal_samples.cache_info().misses
        for m in laws:
            fading.marginal_tail(m, np.linspace(0.0, 2.0, 9))
            fading.marginal_tail(m, 0.9)
        assert fading._marginal_samples.cache_info().misses == misses

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
        m = fading.fir_model(THREE_CIRCLES, fading.UNIT_MODULUS)
        assert fading.marginal_tail(m, 0.8) == fading.marginal_tail(m, 0.8)

    @pytest.mark.parametrize("j", [1, 2, 3, 5, 9])
    def test_four_point_tail_is_exact_enumeration(self, j, monkeypatch):
        # J <= 9: ten or more taps raise (test_ten_four_point_taps_are_unsupported)
        rng = np.random.default_rng(j)
        taps = rng.standard_normal(j) + 1j * rng.standard_normal(j)
        m = fading.fir_model(taps, fading.FOUR_POINT_PHASE, d=0.4 - 0.3j)
        monkeypatch.setattr(fading, "draw_marginal", None)  # no draws for the tail
        assert fading._marginal_samples(m).size == 4**j
        a, d = [complex(t) for t in m.taps], m.mean
        brute = np.sort([abs(d + sum(t * w for t, w in zip(a, ws)))
                         for ws in itertools.product((1, 1j, -1, -1j), repeat=j)])
        atoms = np.unique(fading._marginal_samples(m))
        gammas = np.concatenate([atoms, 0.5 * (atoms[1:] + atoms[:-1])])
        # an atom within 1e-12 below gamma counts
        counts = brute.size - np.searchsorted(brute, gammas - 1e-12, side="left")
        assert np.array_equal(fading.marginal_tail(m, gammas), counts / 4**j)

    def test_ten_four_point_taps_are_unsupported(self, monkeypatch):
        # 4^10 atoms would take 8 MiB a table; no table, no draws
        monkeypatch.setattr(fading, "draw_marginal", None)
        misses = fading._marginal_samples.cache_info().misses
        m = fading.fir_model(np.ones(10), fading.FOUR_POINT_PHASE)
        with pytest.raises(ValueError, match="with 10 taps"):
            fading.marginal_tail(m, 1.0)
        with pytest.raises(ValueError, match="with 10 taps"):
            bounds.capacity_lower_bound(m, 100.0)
        assert fading._marginal_samples.cache_info().misses == misses

    def test_three_circles_against_phase_integral(self):
        # the tail against (1/pi) int_0^pi T2(|r2 + r3 e^{i psi}|, r1, gamma) dpsi
        # by quad: the phase between the two largest circles, where the library
        # integrates over the phase between the smallest and the largest
        rng = np.random.default_rng(17)
        laws = [(THREE_CIRCLES, 0.0), ([1.0, 1.0, 1.0], 0.0), ([1.0, -1.0j], 0.5),
                ([1.0, 1.0j], 1.0), ([1.0, 1.0], 2.0), ([1.0, 1e-9, 0.5], 0.0),
                ([1e-9j, 1.0, 1.0], 0.0), ([0.5, 0.5j], 0.4)]
        while len(laws) < 32:  # three taps, or two taps and a mean
            j = 3 - len(laws) % 2
            taps = rng.standard_normal(j) + 1j * rng.standard_normal(j)
            laws.append((taps, 0.0 if j == 3 else complex(*rng.standard_normal(2))))
        for taps, d in laws:
            m = fading.fir_model(taps, fading.UNIT_MODULUS, d=d)
            r1, r2, r3 = sorted(abs(c) for c in (m.mean, *m.taps) if c)
            # a grid, and both sides of each kink (at a relative 1e-6); kinks
            # near zero are left out, where both sides meet the arccos law's
            # own rounding floor (see marginal_tail)
            kinks = [r1 + r2 + r3, r3 + r2 - r1, r3 - r2 + r1, abs(r3 - r2 - r1), r1, r2, r3]
            gammas = np.array([*np.linspace(0.0, r1 + r2 + r3, 9)[1:],
                               *(k * f for k in kinks if k > 1e-6
                                 for f in (1 - 1e-6, 1 + 1e-6))])
            want = [phase_integral(r1, r2, r3, g) for g in gammas]
            assert np.max(np.abs(fading.marginal_tail(m, gammas) - want)) <= 1e-10

    @pytest.mark.parametrize("taps, d", [(THREE_CIRCLES, 0.0), ([1.0, 1.0j], 0.6)],
                             ids=["three-taps", "two-taps-and-mean"])
    def test_three_circles_against_draws(self, taps, d, rng):
        m = fading.fir_model(taps, fading.UNIT_MODULUS, d=d)
        n = 10**6
        draws = np.abs(fading.draw_marginal(m, n, rng))
        for gamma in np.linspace(0.1, 1.5, 8):
            p = fading.marginal_tail(m, gamma)
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(p - float(np.mean(draws >= gamma))) < 5 * se

    def test_four_circles_are_unsupported(self, monkeypatch):
        monkeypatch.setattr(fading, "draw_marginal", None)
        for taps, d in (([1.0, 0.6, 0.3j, 0.2], 0.0), (THREE_CIRCLES, 0.5)):
            m = fading.fir_model(taps, fading.UNIT_MODULUS, d=d)
            with pytest.raises(ValueError, match="with 4 circles"):
                fading.marginal_tail(m, 1.0)
            with pytest.raises(ValueError, match="with 4 circles"):
                bounds.capacity_lower_bound(m, 100.0)

    @pytest.mark.parametrize("taps, innovation, d", [
        ([1.0] + [0.0] * 9, fading.FOUR_POINT_PHASE, 0.0),
        ([1.0, 0.0, 0.5], fading.FOUR_POINT_PHASE, 0.3j),
        ([1.0, 0.0], fading.UNIT_MODULUS, 0.5),
        ([0.0, 1.0, 0.0, 0.6, 0.3j], fading.UNIT_MODULUS, 0.0),
    ], ids=["four-point-ten-taps", "four-point-three-taps", "unit-modulus-tap-and-mean",
            "unit-modulus-three-circles"])
    def test_zero_taps_add_no_circle_or_atom(self, taps, innovation, d, monkeypatch):
        # a zero tap leaves H1's law as it is: the tail is that of the law
        # without it, bit for bit, and no table holds more than its atoms
        monkeypatch.setattr(fading, "draw_marginal", None)
        m = fading.fir_model(taps, innovation, d=d)
        bare = fading.fir_model([t for t in taps if t], innovation, d=d)
        grid = np.linspace(0.0, 2.5, 101)
        assert np.array_equal(fading.marginal_tail(m, grid), fading.marginal_tail(bare, grid))
        if innovation == fading.FOUR_POINT_PHASE:
            assert fading._marginal_samples(m).size == 4 ** len(bare.taps)

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


class TestCircleTailToTheLastBit:
    # the factored sides (hi - g)(hi + g) and (g - lo)(g + lo), with the rounding
    # of r1 +- r2 carried: the cosine by cancellation was 5e-9 off at the ends
    @pytest.mark.parametrize("ratio", [1.0, 0.5, 0.01, 1e-4])
    def test_two_circles_against_mpmath_at_the_support_ends(self, ratio):
        mpmath = pytest.importorskip("mpmath")
        m = fading.fir_model([1.0, ratio], fading.UNIT_MODULUS)
        r1, r2 = sorted(abs(t) for t in m.taps)
        ends = np.logspace(-15.0, -1.0, 15)
        gammas = np.concatenate([(r2 - r1) * (1 + ends), (r1 + r2) * (1 - ends),
                                 np.linspace(r2 - r1, r1 + r2, 9)])
        with mpmath.workdps(40):
            want = [float(mp_circle_tail(mpmath, mpmath.mpf(r1), mpmath.mpf(r2), mpmath.mpf(g)))
                    for g in gammas.tolist()]
        assert np.max(np.abs(fading.marginal_tail(m, gammas) - want)) <= 2.3e-16

    @pytest.mark.parametrize("taps, d, tol", [(THREE_CIRCLES, 0.0, 3e-16),
                                              ([1.0, 1.0, 1.0], 0.0, 1e-13),
                                              ([0.5, 0.5j], 0.4, 1e-15),
                                              ([1e-9j, 1.0, 1.0], 0.0, 3e-12)],
                             ids=["distinct", "equal", "two-taps-and-mean", "near-zero-radius"])
    def test_three_circles_against_mpmath_at_the_kinks(self, taps, d, tol):
        # at each kink and 1e-12 to either side; the cosine by cancellation put
        # the near-zero-radius law 1.5e-9 off there.  Equal radii leave the
        # tanh-sinh rule 4e-14 off beside the kinks
        mpmath = pytest.importorskip("mpmath")
        m = fading.fir_model(taps, fading.UNIT_MODULUS, d=d)
        r1, r2, r3 = sorted(abs(c) for c in (m.mean, *m.taps) if c)
        gammas = np.array([k * (1 + e) for k in fading.tail_kinks(m) for e in (-1e-12, 0.0, 1e-12)])
        with mpmath.workdps(20):
            want = [float(mp_three_circle_tail(mpmath, r1, r3, r2, g)) for g in gammas.tolist()]
        assert np.max(np.abs(fading.marginal_tail(m, gammas) - want)) <= tol


RICE = fading.gaussian_model(spectra.white(), d=0.7)
TWO_CIRCLES = fading.fir_model([1.0, 0.5j], fading.UNIT_MODULUS)
MEAN_AND_TAP = fading.fir_model([1.0], fading.UNIT_MODULUS, d=0.3)


class TestTailKinks:
    def test_kinks_are_the_signed_radius_sums_rounded_down(self):
        from fractions import Fraction

        # the last law has radii 0.4, 1/sqrt(2), 1/sqrt(2): 0.4 twice
        for m, count in ((TWO_CIRCLES, 2), (MEAN_AND_TAP, 2),
                         (fading.fir_model(THREE_CIRCLES, fading.UNIT_MODULUS), 4),
                         (fading.fir_model([0.5, 0.5j], fading.UNIT_MODULUS, d=0.4), 3)):
            first, *rest = [Fraction(abs(c)) for c in (m.mean, *m.taps) if c]
            exact = sorted({abs(first + sum(s * r for s, r in zip(signs, rest)))
                            for signs in itertools.product((1, -1), repeat=len(rest))})
            kinks = fading.tail_kinks(m)
            assert len(kinks) == count == len(exact)
            for k, x in zip(kinks.tolist(), exact):
                assert Fraction(k) <= x < Fraction(math.nextafter(k, math.inf))

    def test_the_tail_is_one_at_the_inner_edge(self):
        # a kink rounded down lies at or below the exact edge |r1 - r2|
        rng = np.random.default_rng(29)
        for _ in range(50):
            taps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            m = fading.fir_model(taps, fading.UNIT_MODULUS)
            inner = fading.tail_kinks(m)[0]
            assert fading.marginal_tail(m, inner) == 1.0
            assert fading.marginal_tail(m, math.nextafter(inner, math.inf)) < 1.0

    def test_gaussian_marginals_have_none_and_step_tails_raise(self):
        assert fading.tail_kinks(RICE).size == 0
        assert fading.tail_kinks(fading.fir_model([1.0, 0.5j], d=0.2)).size == 0
        for m in (fading.fir_model([1.0], fading.UNIT_MODULUS),
                  fading.fir_model([1.0, 0.5], fading.FOUR_POINT_PHASE)):
            with pytest.raises(ValueError, match="atoms"):
                fading.tail_kinks(m)
        with pytest.raises(ValueError, match="with 4 circles"):
            fading.tail_kinks(fading.fir_model(THREE_CIRCLES, fading.UNIT_MODULUS, d=0.5))


class TestMarginalDensity:
    def test_rice_and_rayleigh_against_besseli(self):
        mpmath = pytest.importorskip("mpmath")
        gammas = [0.01, 0.3, 0.7, 1.0, 2.5, 6.0, 41.0, 45.0]
        for d in (0.0, 0.05, 0.7, 3.0, 40.0):
            m = fading.gaussian_model(spectra.flat_band(0.25), d=d)
            got = fading.marginal_density(m, np.array(gammas))
            with mpmath.workdps(30):
                want = [float(2 * g * mpmath.exp(-g * g - d * d) * mpmath.besseli(0, 2 * d * g))
                        for g in map(mpmath.mpf, gammas)]
            assert np.allclose(got, want, rtol=1e-13, atol=1e-300), d

    def test_two_circles_against_the_arccos_derivative(self):
        mpmath = pytest.importorskip("mpmath")
        for m in (TWO_CIRCLES, MEAN_AND_TAP, fading.fir_model([1.0, 1.0], fading.UNIT_MODULUS)):
            r1, r2 = sorted(abs(c) for c in (m.mean, *m.taps) if c)
            lo, hi = r2 - r1, r1 + r2
            gammas = [*np.linspace(lo, hi, 11)[1:-1], lo + 1e-9 * hi, hi * (1 - 1e-9)]
            got = fading.marginal_density(m, np.array(gammas))
            with mpmath.workdps(40):
                # minus d/dg of acos(c) / pi, c = (g^2 - r1^2 - r2^2) / (2 r1 r2)
                p1, p2 = mpmath.mpf(r1), mpmath.mpf(r2)
                want = [float(g / (p1 * p2) / (mpmath.pi * mpmath.sqrt(1 - c * c)))
                        for g in map(mpmath.mpf, gammas)
                        for c in [(g * g - p1 * p1 - p2 * p2) / (2 * p1 * p2)]]
            assert np.allclose(got, want, rtol=1e-13, atol=0)
            assert fading.marginal_density(m, [0.5 * lo, lo, hi, 2 * hi]).tolist() == [0.0] * 4

    def test_three_circles_against_a_central_difference(self):
        # the tanh-sinh nodes resolve the two-circle density's inverse square
        # roots at their ends to ~1e-8; the difference step is 1e-5
        for taps, d in ((THREE_CIRCLES, 0.0), ([1.0, 1.0, 1.0], 0.0), ([1.0, 1.0j], 0.6)):
            m = fading.fir_model(taps, fading.UNIT_MODULUS, d=d)
            kinks = fading.tail_kinks(m)
            gammas = np.linspace(0.0, kinks[-1], 41)[1:-1]
            gammas = gammas[np.min(np.abs(gammas[:, None] / kinks - 1.0), axis=1) > 0.02]
            h = 1e-5
            diff = (fading.marginal_tail(m, gammas - h)
                    - fading.marginal_tail(m, gammas + h)) / (2 * h)
            assert np.max(np.abs(fading.marginal_density(m, gammas) - diff)) <= 1e-7

    def test_its_integral_to_the_end_of_the_support_is_the_tail(self):
        # tanh-sinh quadrature split at the kinks.  The two-circle density's
        # inverse square roots at the support ends hold 1e-8 of mass within an
        # ulp, so there the integral runs between points 1e-9 inside the ends;
        # the three-circle density loses ~1e-8 of mass beside its support ends
        mpmath = pytest.importorskip("mpmath")
        three = fading.fir_model(THREE_CIRCLES, fading.UNIT_MODULUS)
        laws = [(RICE, 0.0, math.inf, 1e-12), (three, 0.0, fading.tail_kinks(three)[-1], 2e-8)]
        laws += [(m, lo * (1 + 1e-9), hi * (1 - 1e-9), 1e-12)
                 for m in (TWO_CIRCLES, MEAN_AND_TAP) for lo, hi in [fading.tail_kinks(m)]]
        for m, start, end, tol in laws:
            kinks = fading.tail_kinks(m).tolist()
            for g in np.linspace(start, min(end, 4.0), 6)[:-1].tolist():
                integral = mpmath.quad(lambda x: fading.marginal_density(m, float(x)),
                                       [g, *(k for k in kinks if g < k < end), end])
                want = fading.marginal_tail(m, g) - fading.marginal_tail(m, min(end, 1e300))
                assert float(integral) == pytest.approx(want, abs=tol)

    def test_array_and_scalar_calls_and_the_unsupported_laws(self):
        gammas = np.linspace(0.0, 1.5, 12).reshape(3, 4)
        for m in (RICE, TWO_CIRCLES, fading.fir_model(THREE_CIRCLES, fading.UNIT_MODULUS)):
            got = fading.marginal_density(m, gammas)
            assert got.shape == gammas.shape
            assert got.tolist() == [[fading.marginal_density(m, g) for g in row]
                                    for row in gammas.tolist()]
            with pytest.raises(ValueError, match="nonnegative"):
                fading.marginal_density(m, -0.1)
        for m in (fading.fir_model([1.0], fading.UNIT_MODULUS),
                  fading.fir_model([1.0, 0.5], fading.FOUR_POINT_PHASE)):
            with pytest.raises(ValueError, match="no density"):
                fading.marginal_density(m, 0.5)
        with pytest.raises(ValueError, match="with 4 circles"):
            fading.marginal_density(
                fading.fir_model(THREE_CIRCLES, fading.UNIT_MODULUS, d=0.5), 0.5)


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


FOUR_POINT_TWO_TAPS = fading.fir_model([1.0, 0.5], fading.FOUR_POINT_PHASE)
RAYLEIGH = fading.gaussian_model(spectra.white())


@pytest.mark.parametrize("call, message", [
    (lambda: fading.marginal_tail(FOUR_POINT_TWO_TAPS, math.nan), "gamma must be nonnegative"),
    (lambda: fading.marginal_tail(RAYLEIGH, [0.5, math.nan]), "gamma must be nonnegative"),
    (lambda: bounds.capacity_lower_bound(FOUR_POINT_TWO_TAPS, 100.0, math.nan),
     "gamma must be nonnegative"),
    (lambda: bounds.coherent_term(100.0, math.nan, 0.5), "gamma must be positive"),
    (lambda: fading.zero_mass_check(RAYLEIGH, math.nan), "epsilon must be positive"),
], ids=["tail-atoms", "tail-rayleigh", "bound", "coherent", "zero-mass"])
def test_nan_fails_the_positivity_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# NaN fails every < and > guard, so each constructor tests finiteness itself
@pytest.mark.parametrize("call, message", [
    (lambda: spectra.mixed_spectrum([(-0.25, 0.25, math.nan)], ()), "must be finite"),
    (lambda: spectra.point_mass_spectrum([(0.0, math.nan)]), "finite and nonnegative"),
    (lambda: spectra.point_mass_spectrum([(0.0, math.inf)]), "finite and nonnegative"),
    (lambda: fading.fir_model([math.nan]), "of finite numbers"),
    (lambda: fading.fir_model([math.inf]), "of finite numbers"),
    (lambda: fading.gaussian_model(spectra.white(), d=complex(math.nan, 0.0)),
     "mean must be finite"),
], ids=["band-density", "atom-nan", "atom-inf", "taps-nan", "taps-inf", "mean"])
def test_non_finite_inputs_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
