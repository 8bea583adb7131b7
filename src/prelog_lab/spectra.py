"""Spectral distribution functions on the frequency interval [-1/2, 1/2].

A spectral distribution is represented exactly as a collection of absolutely
continuous pieces (trigonometric-polynomial densities on disjoint
sub-intervals, a constant being the order-0 case) plus a finite set of point
masses.  Masses, autocovariances and flat-set measures are computed in closed
form from that representation, so they carry no quadrature error.

Conventions: unit total mass (unit-variance fading), natural logarithms, and
autocovariance(m) = integral of exp(i 2 pi m lambda) against the distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASS_TOL = 1e-12
_DENSITY_FLOOR = -1e-9  # tolerance for tiny negative rounding in derived densities


def _fourier_kernel(m, lo, hi):
    """Integral of exp(i 2 pi m lambda) over [lo, hi], for an integer array m."""
    w = 2j * np.pi * m
    safe = np.where(m == 0, 1.0, w)
    return np.where(m == 0, complex(hi - lo), (np.exp(w * hi) - np.exp(w * lo)) / safe)


@dataclass(frozen=True)
class Piece:
    """Density sum_m g_m exp(i 2 pi m lambda), m = -K..K, with Hermitian g,
    on the interval [lo, hi] of [-1/2, 1/2].

    A constant density c on [lo, hi] is the order-0 piece Piece(lo, hi, (c,)).
    """

    lo: float
    hi: float
    coeffs: tuple  # ordered m = -K .. K

    def __post_init__(self):
        if not -0.5 - 1e-12 <= self.lo < self.hi <= 0.5 + 1e-12:
            raise ValueError(f"piece [{self.lo}, {self.hi}] needs -1/2 <= lo < hi <= 1/2")
        g = np.asarray(self.coeffs, dtype=complex)
        if len(g) % 2 == 0:
            raise ValueError("trig coefficients must have odd length (m = -K..K)")
        if not np.isfinite(g).all():
            raise ValueError("trig coefficients must be finite")
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

    def fourier(self, m):
        """Integral of exp(i 2 pi m lambda) against the density over [lo, hi],
        for an integer array m; m = 0 gives the piece's mass."""
        acc = np.zeros(np.shape(m), dtype=complex)
        for k, g in zip(self._harmonics(), self.coeffs):
            acc += g * _fourier_kernel(k + m, self.lo, self.hi)
        return acc

    def min_value(self):
        """Least value on [lo, hi], over both ends and the critical points
        inside.  With z = exp(i 2 pi lambda) the derivative is the polynomial
        sum_m i 2 pi m g_m z^m, whose roots' angles hold every critical point;
        a root off the unit circle only adds one more point to evaluate."""
        roots = np.polynomial.polynomial.polyroots(
            2j * np.pi * self._harmonics() * np.asarray(self.coeffs, dtype=complex))
        lams = np.angle(roots) / (2 * np.pi)
        lo, hi = self.lo, self.hi
        points = np.concatenate([[lo, hi], lams[(lams > lo) & (lams < hi)]])
        return float(np.min(self(points)))


@dataclass(frozen=True)
class SpectralDistribution:
    """Piecewise-exact spectral distribution: a.c. pieces plus point masses."""

    pieces: tuple = ()
    point_masses: tuple = ()  # ((location, weight), ...)

    def __post_init__(self):
        for p in self.pieces:
            if p.min_value() < _DENSITY_FLOOR:
                raise ValueError(f"negative density on [{p.lo}, {p.hi}]")
        spans = sorted((p.lo, p.hi) for p in self.pieces)
        for (_, b0), (a1, _) in zip(spans, spans[1:]):
            if a1 < b0 - 1e-12:
                raise ValueError("piece intervals overlap")
        locs = [loc for loc, _ in self.point_masses]
        if len(set(locs)) != len(locs):
            raise ValueError("point-mass locations must be distinct")
        for loc, w in self.point_masses:
            if not -0.5 <= loc <= 0.5:
                raise ValueError(f"point mass at {loc} outside [-1/2, 1/2]")
            if not 0 <= w < np.inf:
                raise ValueError("point-mass weights must be finite and nonnegative")
        total = self.total_mass()
        if not abs(total - 1.0) <= MASS_TOL:
            raise ValueError(f"total spectral mass is {total!r}, expected 1")

    def total_mass(self):
        ac = sum(float(p.fourier(0).real) for p in self.pieces)
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
    pieces = tuple(Piece(lo, hi, (float(c),)) for lo, hi, c in bands)
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
            return float(p(lam))
    return 0.0


def flat_set_measure(spectrum):
    """Lebesgue measure of the harmonic set where the density vanishes."""
    support = sum(p.hi - p.lo for p in spectrum.pieces if not p.is_zero)
    return max(0.0, 1.0 - support)


def autocovariance(spectrum, m):
    """Fourier-Stieltjes coefficient: integral of exp(i 2 pi m lambda) dF."""
    return complex(autocovariances(spectrum, np.asarray([m]))[0])


def autocovariances(spectrum, ms):
    """Vectorized autocovariance over an integer lag array."""
    ms = np.asarray(ms)
    out = np.zeros(ms.shape, dtype=complex)
    for p in spectrum.pieces:
        out += p.fourier(ms)
    for loc, w in spectrum.point_masses:
        out += w * np.exp(2j * np.pi * ms * loc)
    return out


def toeplitz_covariance(spectrum, n):
    """Covariance matrix of n consecutive samples, entry (j, k) = autocov(j - k)."""
    if n < 1:
        raise ValueError("matrix order must be at least 1")
    r = autocovariances(spectrum, np.arange(n))
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    k = r[np.abs(lag)]
    return np.where(lag >= 0, k, np.conj(k))  # autocov(-m) = conj(autocov(m))

