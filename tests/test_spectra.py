import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from prelog_lab import spectra

from conftest import random_pc_spectrum


def quadrature_autocovariance(spectrum, m):
    """Independent oracle: adaptive quadrature of exp(i 2 pi m lam) dF."""
    total = 0.0 + 0.0j
    for p in spectrum.pieces:
        re, _ = scipy.integrate.quad(
            lambda lam: p(lam) * math.cos(2 * math.pi * m * lam),
            p.lo, p.hi, epsabs=1e-12, limit=400)
        im, _ = scipy.integrate.quad(
            lambda lam: p(lam) * math.sin(2 * math.pi * m * lam),
            p.lo, p.hi, epsabs=1e-12, limit=400)
        total += re + 1j * im
    for loc, w in spectrum.point_masses:
        total += w * np.exp(2j * np.pi * m * loc)
    return total


class TestDensityAt:
    def test_flat_band_inside(self):
        assert spectra.density_at(spectra.flat_band(0.25), 0.1) == 2.0

    def test_flat_band_outside_support(self):
        assert spectra.density_at(spectra.flat_band(0.25), 0.4) == 0.0

    def test_point_mass_has_no_density(self):
        f = spectra.point_mass_spectrum([(0.0, 1.0)])
        assert spectra.density_at(f, 0.3) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            spectra.density_at(spectra.white(), 0.6)


class TestFlatSetMeasure:
    def test_flat_band(self):
        assert spectra.flat_set_measure(spectra.flat_band(0.25)) == 0.5

    def test_full_band(self):
        assert spectra.flat_set_measure(spectra.white()) == 0.0

    def test_pure_point_mass(self):
        f = spectra.point_mass_spectrum([(0.0, 1.0)])
        assert spectra.flat_set_measure(f) == 1.0

    def test_zero_density_piece_counts_as_flat(self):
        f = spectra.piecewise_constant([(-0.5, 0.0, 2.0), (0.0, 0.5, 0.0)])
        assert spectra.flat_set_measure(f) == 0.5


class TestAutocovariance:
    def test_unit_variance_at_zero_lag(self, rng):
        for _ in range(5):
            f = random_pc_spectrum(rng, with_masses=bool(rng.integers(2)))
            assert spectra.autocovariance(f, 0) == pytest.approx(1.0, abs=1e-12)

    def test_flat_band_quarter_lag2_vanishes(self):
        assert abs(spectra.autocovariance(spectra.flat_band(0.25), 2)) < 1e-12

    def test_flat_band_quarter_lag1(self):
        r1 = spectra.autocovariance(spectra.flat_band(0.25), 1)
        assert r1 == pytest.approx(2 / math.pi, abs=1e-12)
        oracle = quadrature_autocovariance(spectra.flat_band(0.25), 1)
        assert abs(r1 - oracle) < 1e-9

    def test_point_mass_at_quarter(self):
        f = spectra.point_mass_spectrum([(0.25, 1.0)])
        assert spectra.autocovariance(f, 1) == pytest.approx(1j, abs=1e-12)

    def test_hermitian_symmetry_and_unit_bound(self, rng):
        for _ in range(8):
            f = random_pc_spectrum(rng, with_masses=bool(rng.integers(2)))
            for m in (0, 1, 3, 7, 19, 64):
                rp = spectra.autocovariance(f, m)
                rm = spectra.autocovariance(f, -m)
                assert abs(rm - np.conj(rp)) < 1e-12
                assert abs(rp) <= 1 + 1e-12

    def test_against_quadrature_oracle(self, rng):
        for _ in range(6):
            f = random_pc_spectrum(rng, with_masses=bool(rng.integers(2)))
            for m in (0, 1, 2, 5, 13, 34, 64):
                assert abs(spectra.autocovariance(f, m)
                           - quadrature_autocovariance(f, m)) < 1e-9

    def test_trig_piece_against_quadrature(self):
        f = spectra.SpectralDistribution(pieces=(
            spectra.Piece(-0.5, 0.5, (0.5, 1.0, 0.5)),))
        assert spectra.autocovariance(f, 1) == pytest.approx(0.5, abs=1e-12)
        for m in (0, 1, 2, 5):
            assert abs(spectra.autocovariance(f, m)
                       - quadrature_autocovariance(f, m)) < 1e-9

    def test_vectorized_matches_scalar(self, rng):
        f = random_pc_spectrum(rng, with_masses=True)
        ms = np.arange(-5, 6)
        vec = spectra.autocovariances(f, ms)
        for m, v in zip(ms, vec):
            assert abs(v - spectra.autocovariance(f, int(m))) < 1e-14


class TestToeplitzCovariance:
    def test_order_one(self, rng):
        f = random_pc_spectrum(rng)
        cov = spectra.toeplitz_covariance(f, 1)
        assert cov.shape == (1, 1)
        assert cov[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_order_two_flat_band(self):
        cov = spectra.toeplitz_covariance(spectra.flat_band(0.25), 2)
        want = np.array([[1.0, 2 / math.pi], [2 / math.pi, 1.0]])
        assert np.allclose(cov, want, atol=1e-12)

    def test_entry_structure(self, rng):
        f = random_pc_spectrum(rng, with_masses=True)
        n = 9
        cov = spectra.toeplitz_covariance(f, n)
        for j in range(n):
            for k in range(n):
                assert abs(cov[j, k]
                           - spectra.autocovariance(f, j - k)) < 1e-12
        r = spectra.autocovariances(f, np.arange(n))
        assert np.array_equal(cov, scipy.linalg.toeplitz(r, np.conj(r)))

    def test_psd_and_validate(self, rng):
        for _ in range(6):
            f = random_pc_spectrum(rng, with_masses=bool(rng.integers(2)))
            cov = spectra.toeplitz_covariance(f, 128)
            assert cov.shape == (128, 128)
            assert np.allclose(cov, cov.conj().T, atol=1e-12)
            assert np.allclose(np.diag(cov).real, 1.0, atol=1e-9)
            assert np.linalg.eigvalsh(cov).min() >= -1e-9

    def test_flat_band_64_psd(self):
        cov = spectra.toeplitz_covariance(spectra.flat_band(0.25), 64)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            spectra.toeplitz_covariance(spectra.white(), 0)


class TestValidation:
    def test_total_mass_enforced(self):
        with pytest.raises(ValueError, match="mass"):
            spectra.piecewise_constant([(-0.25, 0.25, 1.0)])

    def test_overlapping_pieces_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            spectra.piecewise_constant([(-0.25, 0.25, 1.0), (0.0, 0.5, 1.0)])

    def test_negative_density_rejected(self):
        # 1 + 1.5 cos(2 pi lam) has unit mass and dips to -1/2 at lam = 1/2
        with pytest.raises(ValueError, match="negative"):
            spectra.SpectralDistribution(pieces=(
                spectra.Piece(-0.5, 0.5, (0.75, 1.0, 0.75)),))

    def test_narrow_negative_dip_between_samples_rejected(self):
        # 1 + (1 + d) cos 2 pi (lam - lam0) dips to -d = -1e-7, 100 times the
        # rounding floor, midway between two points of a 4097-point grid on
        # [-1/2, 1/2], where a grid reads about +1.9e-7
        d, lam_min = 1e-7, 0.5 / 4096
        g1 = (1 + d) / 2 * np.exp(-2j * np.pi * (lam_min - 0.5))
        piece = spectra.Piece(-0.5, 0.5, (np.conj(g1), 1.0, g1))
        assert float(np.min(piece(np.linspace(-0.5, 0.5, 4097)))) > 1e-7
        assert piece.min_value() == pytest.approx(-d, abs=1e-15)
        with pytest.raises(ValueError, match="negative"):
            spectra.SpectralDistribution(pieces=(piece,))

    def test_min_value_never_above_a_dense_grid(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 5))
            g = rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)
            lo, hi = np.sort(rng.uniform(-0.5, 0.5, 2))
            piece = spectra.Piece(lo, hi, tuple((g + np.conj(g[::-1])) / 2))
            dense = float(np.min(piece(np.linspace(lo, hi, 20001))))
            assert piece.min_value() <= dense + 1e-12

    def test_non_hermitian_coefficients_rejected(self):
        # g = (0, 1, i) would evaluate to 1 - sin(2 pi lam) while its
        # autocovariances, r(-1) = i and r(1) = 0, belong to no real density
        with pytest.raises(ValueError, match="Hermitian"):
            spectra.Piece(-0.5, 0.5, (0.0, 1.0, 1j))
        with pytest.raises(ValueError, match="Hermitian"):
            spectra.Piece(-0.5, 0.5, (1.0 + 1e-9j,))

    def test_even_coefficient_count_rejected(self):
        # (1, 1) is Hermitian under reversal but names no harmonics m = -K..K
        with pytest.raises(ValueError, match="odd length"):
            spectra.Piece(-0.5, 0.5, (1.0, 1.0))

    def test_point_mass_location_domain(self):
        with pytest.raises(ValueError):
            spectra.point_mass_spectrum([(0.75, 1.0)])

    def test_duplicate_point_mass_locations(self):
        with pytest.raises(ValueError, match="distinct"):
            spectra.point_mass_spectrum([(0.25, 0.5), (0.25, 0.5)])

    def test_interval_outside_domain(self):
        with pytest.raises(ValueError):
            spectra.piecewise_constant([(-0.7, 0.7, 1.0)])

    def test_flat_band_half_width_domain(self):
        with pytest.raises(ValueError):
            spectra.flat_band(0.7)
