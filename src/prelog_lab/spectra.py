"""Spectral distribution functions on the frequency interval [-1/2, 1/2].

A spectral distribution is represented exactly as a collection of absolutely
continuous pieces (trigonometric-polynomial densities on disjoint
sub-intervals, a constant being the order-0 case) plus a finite set of point
masses.  Every quantity derived here -- masses, autocovariances, level-set
measures -- is computed in closed form from that representation, so flat-set
measures and the harmonic partition carry no quadrature error.

Conventions: unit total mass (unit-variance fading), natural logarithms, and
autocovariance(m) = integral of exp(i 2 pi m lambda) against the distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

MASS_TOL = 1e-12
_DENSITY_FLOOR = -1e-9  # tolerance for tiny negative rounding in derived densities


def _fourier_kernel(m, lo, hi):
    """Integral of exp(i 2 pi m lambda) over [lo, hi], for an integer array m."""
    w = 2j * np.pi * m
    safe = np.where(m == 0, 1.0, w)
    return np.where(m == 0, complex(hi - lo), (np.exp(w * hi) - np.exp(w * lo)) / safe)


@dataclass(frozen=True)
class TrigPolyDensity:
    """Density sum_m g_m exp(i 2 pi m lambda), m = -K..K, with Hermitian g.

    A constant density c is the order-0 polynomial TrigPolyDensity((c,)).
    """

    coeffs: tuple  # ordered m = -K .. K

    def __post_init__(self):
        g = np.asarray(self.coeffs, dtype=complex)
        if len(g) % 2 == 0:
            raise ValueError("trig coefficients must have odd length (m = -K..K)")
        if np.any(np.abs(g - np.conj(g[::-1])) > 1e-12):
            raise ValueError("trig coefficients must be Hermitian: g[-m] = conj(g[m])")

    @property
    def order(self):
        return (len(self.coeffs) - 1) // 2

    def _harmonics(self):
        k = self.order
        return np.arange(-k, k + 1)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        harm = self._harmonics()
        phases = np.exp(2j * np.pi * np.multiply.outer(lam, harm))
        out = np.real(phases @ np.asarray(self.coeffs, dtype=complex))
        return out if out.ndim else float(out)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def mass(self, lo, hi):
        g = np.asarray(self.coeffs, dtype=complex)
        return float(np.real(np.sum(g * _fourier_kernel(self._harmonics(), lo, hi))))

    def fourier(self, m, lo, hi):
        """Integral of exp(i 2 pi m lambda) against the density over [lo, hi],
        for an integer array m."""
        acc = np.zeros(np.shape(m), dtype=complex)
        for k, g in zip(self._harmonics(), self.coeffs):
            acc += g * _fourier_kernel(k + m, lo, hi)
        return acc

    def min_value(self, lo, hi):
        """Least value on [lo, hi], over both ends and the critical points
        inside.  With z = exp(i 2 pi lambda) the derivative is the polynomial
        sum_m i 2 pi m g_m z^m, whose roots' angles hold every critical point;
        a root off the unit circle only adds one more point to evaluate."""
        roots = np.polynomial.polynomial.polyroots(
            2j * np.pi * self._harmonics() * np.asarray(self.coeffs, dtype=complex))
        lams = np.angle(roots) / (2 * np.pi)
        points = np.concatenate([[lo, hi], lams[(lams > lo) & (lams < hi)]])
        return float(np.min(self(points)))

    def level_measures(self, lo, hi):
        """Measures of {density >= 1} and {0 < density < 1} on [lo, hi].

        The density crosses 1 where the polynomial with the m = 0 coefficient
        lowered by 1 has a root on the unit circle.
        """
        if self.is_zero:
            return (0.0, 0.0)
        g = np.array(self.coeffs, dtype=complex)
        g[self.order] -= 1.0
        if not np.any(g):
            return (hi - lo, 0.0)  # density identically 1 -> boundary set
        roots = np.polynomial.polynomial.polyroots(g)
        lams = np.angle(roots[np.abs(np.abs(roots) - 1.0) < 1e-7]) / (2 * np.pi)
        inside = np.unique(np.round(lams[(lams > lo + 1e-13) & (lams < hi - 1e-13)], 12))
        cuts = np.concatenate([[lo], inside, [hi]])
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        ge1 = self(mids) >= 1.0
        lengths = np.diff(cuts)
        return (float(lengths[ge1].sum()), float(lengths[~ge1].sum()))


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    density: TrigPolyDensity


@dataclass(frozen=True)
class HarmonicPartition:
    """Measures of the harmonic sets where the density is zero, >= 1, or in (0, 1)."""

    mu_s1: float
    mu_s2: float
    mu_s3: float

    def __post_init__(self):
        total = self.mu_s1 + self.mu_s2 + self.mu_s3
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"partition measures sum to {total!r}, expected 1")


@dataclass(frozen=True)
class SpectralDistribution:
    """Piecewise-exact spectral distribution: a.c. pieces plus point masses."""

    pieces: tuple = ()
    point_masses: tuple = ()  # ((location, weight), ...)

    def __post_init__(self):
        spans = []
        for p in self.pieces:
            if not (-0.5 - 1e-12 <= p.lo < p.hi <= 0.5 + 1e-12):
                raise ValueError(f"piece [{p.lo}, {p.hi}] outside [-1/2, 1/2]")
            if p.density.min_value(p.lo, p.hi) < _DENSITY_FLOOR:
                raise ValueError(f"negative density on [{p.lo}, {p.hi}]")
            spans.append((p.lo, p.hi))
        spans.sort()
        for (a0, b0), (a1, _) in zip(spans, spans[1:]):
            if a1 < b0 - 1e-12:
                raise ValueError("piece intervals overlap")
        locs = [loc for loc, _ in self.point_masses]
        if len(set(locs)) != len(locs):
            raise ValueError("point-mass locations must be distinct")
        for loc, w in self.point_masses:
            if not -0.5 <= loc <= 0.5:
                raise ValueError(f"point mass at {loc} outside [-1/2, 1/2]")
            if w < 0:
                raise ValueError("point-mass weights must be nonnegative")
        total = self.total_mass()
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total spectral mass is {total!r}, expected 1")

    def total_mass(self):
        ac = sum(p.density.mass(p.lo, p.hi) for p in self.pieces)
        return ac + sum(w for _, w in self.point_masses)


# ---------------------------------------------------------------------------
# constructors for common spectra
# ---------------------------------------------------------------------------

def flat_band(half_width):
    """Uniform density 1/(2*half_width) on [-half_width, half_width]."""
    if not 0 < half_width <= 0.5:
        raise ValueError("half_width must lie in (0, 1/2]")
    return mixed_spectrum([(-half_width, half_width, 1.0 / (2.0 * half_width))], ())


def white():
    """Flat unit density over the whole interval (memoryless fading)."""
    return flat_band(0.5)


def piecewise_constant(bands):
    """Spectrum from (lo, hi, density) triples; densities must integrate to 1."""
    return mixed_spectrum(bands, ())


def point_mass_spectrum(masses):
    """Purely discrete spectrum from (location, weight) pairs."""
    return mixed_spectrum((), masses)


def mixed_spectrum(bands, masses):
    """Constant-density (lo, hi, density) bands plus (location, weight) point
    masses, total mass 1."""
    pieces = tuple(Piece(lo, hi, TrigPolyDensity((float(c),))) for lo, hi, c in bands)
    return SpectralDistribution(pieces=pieces,
                                point_masses=tuple((float(l), float(w)) for l, w in masses))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def density_at(spectrum, lam):
    """Density of the absolutely continuous part at lam (point masses excluded)."""
    if not -0.5 <= lam <= 0.5:
        raise ValueError(f"lambda {lam} outside [-1/2, 1/2]")
    for p in spectrum.pieces:
        if p.lo <= lam <= p.hi:
            return float(p.density(lam))
    return 0.0


def flat_set_measure(spectrum):
    """Lebesgue measure of the harmonic set where the density vanishes."""
    support = sum(p.hi - p.lo for p in spectrum.pieces if not p.density.is_zero)
    return max(0.0, 1.0 - support)


def partition_measures(spectrum):
    """Exact measures of the sets {density = 0}, {density >= 1}, {0 < density < 1}."""
    mu2 = 0.0
    mu3 = 0.0
    for p in spectrum.pieces:
        m2, m3 = p.density.level_measures(p.lo, p.hi)
        mu2 += m2
        mu3 += m3
    return HarmonicPartition(flat_set_measure(spectrum), mu2, mu3)


def autocovariance(spectrum, m):
    """Fourier-Stieltjes coefficient: integral of exp(i 2 pi m lambda) dF."""
    return complex(autocovariances(spectrum, np.asarray([m]))[0])


def autocovariances(spectrum, ms):
    """Vectorized autocovariance over an integer lag array."""
    ms = np.asarray(ms)
    out = np.zeros(ms.shape, dtype=complex)
    for p in spectrum.pieces:
        out += p.density.fourier(ms, p.lo, p.hi)
    for loc, w in spectrum.point_masses:
        out += w * np.exp(2j * np.pi * ms * loc)
    return out


def toeplitz_covariance(spectrum, n):
    """Covariance matrix of n consecutive samples, entry (j, k) = autocov(j - k)."""
    if n < 1:
        raise ValueError("matrix order must be at least 1")
    r = autocovariances(spectrum, np.arange(n))
    return scipy.linalg.toeplitz(r, np.conj(r))


def cumulative(spectrum, lam):
    """Right-continuous distribution function F(lam) with F(-1/2) = 0 for a.c. parts."""
    if not -0.5 <= lam <= 0.5:
        raise ValueError(f"lambda {lam} outside [-1/2, 1/2]")
    acc = 0.0
    for p in spectrum.pieces:
        if lam > p.lo:
            acc += p.density.mass(p.lo, min(lam, p.hi))
    acc += sum(w for loc, w in spectrum.point_masses if loc <= lam)
    return acc
