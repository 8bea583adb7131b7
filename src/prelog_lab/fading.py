"""Stationary ergodic fading laws with a prescribed spectral distribution.

Two families are provided.  Gaussian models take an arbitrary spectral
distribution and realize the (unique) circularly-symmetric Gaussian process
with that spectrum; paths are drawn exactly by circulant embedding.  Filtered
models push IID unit-variance innovations (complex Gaussian, uniform-phase
unit modulus, or the four-point phase alphabet {1, i, -1, -i}) through a
finite filter, which yields non-Gaussian stationary ergodic processes whose
spectral density is an exact trigonometric polynomial.  Both carry an optional
mean d; the centered process always has unit variance.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import NumericalError, UnsupportedModelError

GAUSSIAN = "gaussian"
FIR = "fir"

COMPLEX_GAUSSIAN = "complex_gaussian"
UNIT_MODULUS = "unit_modulus"
FOUR_POINT_PHASE = "four_point_phase"
INNOVATION_LAWS = (COMPLEX_GAUSSIAN, UNIT_MODULUS, FOUR_POINT_PHASE)

# exact alphabet so that |H_k| = 1 holds to the last bit for single-tap models
_FOUR_POINTS = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])

_EMPIRICAL_N = 10**6
_FOUR_POINT_MAX_TAPS = 9  # 4^9 = 262,144 atoms; 4^10 would outgrow the 1e6-draw table
_EMPIRICAL_SEED = 181_451_339  # fixed: cached marginal CDFs must not depend on callers
_TABLE_LOCK = threading.Lock()
_EMBED_CAP = 2**20
_EMBED_CLIP_TOL = 1e-4  # relative eigenvalue mass clipped to zero in the embedding


@dataclass(frozen=True)
class FadingModel:
    """Immutable fading law; hashable so derived tables can be cached."""

    kind: str
    mean: complex
    spectrum: spectra.SpectralDistribution
    taps: tuple | None = None
    innovation: str | None = None


@dataclass(frozen=True)
class ZeroMassEstimate:
    """Empirical P(|H1| < eps) with its binomial standard error."""

    probability: float
    standard_error: float
    epsilon: float
    sample_count: int


def gaussian_model(spectrum, d=0.0):
    """Circularly-symmetric Gaussian fading with the given spectrum, plus mean d."""
    return FadingModel(kind=GAUSSIAN, mean=complex(d), spectrum=spectrum)


def fir_spectrum(taps):
    """Exact trigonometric-polynomial spectrum |sum_j tap_j e^{-i 2 pi j lam}|^2."""
    a = np.asarray(taps, dtype=complex)
    corr = np.correlate(a, a, mode="full")  # filter autocorrelation, lag m at index J-1+m
    piece = spectra.Piece(-0.5, 0.5, spectra.TrigPolyDensity(tuple(corr[::-1])))
    return spectra.SpectralDistribution(pieces=(piece,))


def fir_model(taps, innovation=COMPLEX_GAUSSIAN, d=0.0):
    """H_k = d + sum_j tap_j W_{k-j} with IID unit-variance innovations W.

    Taps are normalized to unit total power so the centered process has unit
    variance; the derived spectral density is exact, so a Gaussian and a
    non-Gaussian model built from the same taps share the same spectrum by
    construction.
    """
    a = np.asarray(taps, dtype=complex)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("taps must be a nonempty 1-d sequence")
    if innovation not in INNOVATION_LAWS:
        raise ValueError(f"unknown innovation law {innovation!r}")
    power = np.sum(np.abs(a) ** 2)
    if power == 0:
        raise ValueError("taps must not be all zero")
    a = a / np.sqrt(power)
    return FadingModel(kind=FIR, mean=complex(d), spectrum=fir_spectrum(a),
                       taps=tuple(a), innovation=innovation)


def _draw_innovations(rng, law, count):
    if law == COMPLEX_GAUSSIAN:
        z = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        return z / np.sqrt(2.0)
    if law == UNIT_MODULUS:
        return np.exp(2j * np.pi * rng.random(count))
    return _FOUR_POINTS[rng.integers(0, 4, size=count)]


def draw_marginal(model, count, rng):
    """IID draws from the marginal law of H1 (no path machinery involved)."""
    if model.kind == GAUSSIAN:
        return model.mean + _draw_innovations(rng, COMPLEX_GAUSSIAN, count)
    taps = np.asarray(model.taps)
    w = _draw_innovations(rng, model.innovation, count * taps.size)
    return model.mean + w.reshape(count, taps.size) @ taps


@functools.lru_cache(maxsize=8)
def _embedding_eigenvalues(spectrum, order):
    """Eigenvalues of the order-point circulant embedding, clipped to >= 0.

    Returns (eigenvalues, ok): ok is True when the clipped (negative) eigenvalue
    mass is at most a 1e-4 fraction of the total, which bounds the covariance
    error of the sampled path by the same fraction.  Strictly band-limited
    densities never embed exactly PSD at any finite order, so a small clipped
    mass is accepted instead of demanding min eigenvalue >= 0.  The cache
    holds 8 entries of at most _EMBED_CAP = 2^20 doubles each, so at most
    64 MiB, like _marginal_samples' 8 tables of 1e6 doubles.
    """
    half = order // 2
    r = spectra.autocovariances(spectrum, np.arange(half + 1))
    first_row = np.concatenate([r, np.conj(r[half - 1:0:-1])])
    lam = np.fft.fft(first_row).real
    clipped = -float(lam[lam < 0].sum())
    ok = clipped <= _EMBED_CLIP_TOL * float(np.abs(lam).sum())
    return np.clip(lam, 0.0, None), ok


def _gaussian_path(spectrum, n, rng):
    order = 1 << max(int(np.ceil(np.log2(max(8 * n, 16)))), 4)
    while True:
        lam, ok = _embedding_eigenvalues(spectrum, order)
        if ok:
            break
        if order >= _EMBED_CAP:
            raise NumericalError(
                f"circulant embedding still not PSD at order {order}")
        order *= 2
    xi = rng.standard_normal(order) + 1j * rng.standard_normal(order)
    path = np.sqrt(order / 2.0) * np.fft.ifft(np.sqrt(lam) * xi)
    return path[:n]


def simulate_path(model, n, seed):
    """Length-n stationary sample path, deterministic in (model, n, seed).

    Gaussian models use circulant embedding of the autocovariance sequence
    (embedding order at least 8n, doubled as needed); filtered models draw
    n + len(taps) - 1 innovations and convolve.
    """
    if n < 1:
        raise ValueError("path length must be at least 1")
    rng = np.random.default_rng(seed)
    if model.kind == FIR:
        taps = np.asarray(model.taps)
        w = _draw_innovations(rng, model.innovation, n + taps.size - 1)
        return model.mean + np.convolve(w, taps, mode="valid")
    if model.spectrum.point_masses:
        raise UnsupportedModelError(
            "Gaussian fading with spectral point masses is not ergodic; "
            "path simulation is not supported for such models")
    return model.mean + _gaussian_path(model.spectrum, n, rng)


@functools.lru_cache(maxsize=8)
def _marginal_samples(model):
    """Sorted, equally weighted support of |H1| for laws without a closed-form
    tail: the 4^J atoms |d + sum_j a_j w_j|, w in {1, i, -1, -i}^J, of a
    four-point law (marginal_tail caps J at 9), else 1e6 draws at a fixed
    seed for a unit-modulus law of three or more circles."""
    taps = np.asarray(model.taps)
    if model.innovation == FOUR_POINT_PHASE:
        w = _FOUR_POINTS[np.indices((4,) * taps.size).reshape(taps.size, -1).T]
        return np.sort(np.abs(model.mean + w @ taps))
    rng = np.random.default_rng([_EMPIRICAL_SEED])
    return np.sort(np.abs(draw_marginal(model, _EMPIRICAL_N, rng)))


def marginal_tail(model, gamma):
    """P(|H1| >= gamma), elementwise: a float for a scalar gamma, else an array
    of gamma's shape.

    Exact for:
    - Gaussian marginals, Rayleigh or Rice (filtered complex Gaussian
      innovations included, since a unit-power filter preserves the law);
    - unit modulus made of two circles, one tap with any mean or two taps
      with zero mean: |H1| = |r1 + r2 e^{i psi}| with psi uniform, so the
      tail is arccos((gamma^2 - r1^2 - r2^2) / (2 r1 r2)) / pi, clipped to
      [0, 1], or a step at r2 when r1 = 0;
    - four-point phase with up to 9 taps: k / 4^J for the k of its 4^J
      equally likely atoms at or above gamma.
    Four-point laws with 10 or more taps raise UnsupportedModelError.
    Unit-modulus laws of three or more circles read an empirical tail from
    1e6 cached draws, whose standard error is at most 5e-4.  Tables count an
    atom within 1e-12 below gamma (|(1 + i)/sqrt(2)| = 1 may round an ulp
    low), so optimize_gamma may return a threshold up to ~1e-12 above an
    atom.  A negative or NaN gamma raises ValueError.
    """
    g = np.asarray(gamma, dtype=float)
    if not (g >= 0).all():
        raise ValueError("gamma must be nonnegative")
    if model.kind == GAUSSIAN or model.innovation == COMPLEX_GAUSSIAN:
        if model.mean == 0:
            tail = np.exp(-g * g)
        else:
            import scipy.special  # here, not at the top: only a Rice tail needs it

            # scipy.stats.rice.sf(g, sqrt(2)|d|, scale=sqrt(1/2)), by its own formula
            tail = 1.0 - scipy.special.chndtr(np.square(g / np.sqrt(0.5)), 2,
                                              np.square(np.sqrt(2.0) * abs(model.mean)))
    elif model.innovation == UNIT_MODULUS and len(model.taps) + (model.mean != 0) <= 2:
        # the moduli of the two terms of H1; a zero mean is the r1 = 0 of one tap
        r1, r2 = sorted(abs(c) for c in (model.mean, *model.taps))[-2:]
        if r1 == 0:
            tail = (r2 >= g - 1e-12).astype(float)
        else:
            cos_psi = (g * g - r1 * r1 - r2 * r2) / (2.0 * r1 * r2)
            tail = np.arccos(np.clip(cos_psi, -1.0, 1.0)) / np.pi
    else:
        if model.innovation == FOUR_POINT_PHASE and len(model.taps) > _FOUR_POINT_MAX_TAPS:
            raise UnsupportedModelError(
                f"four-point phase with {len(model.taps)} taps: exact tails "
                f"enumerate 4^J atoms for at most {_FOUR_POINT_MAX_TAPS} taps")
        with _TABLE_LOCK:  # concurrent first calls for one model build one table
            support = _marginal_samples(model)
        tail = (support.size - np.searchsorted(support, g - 1e-12)) / support.size
    tail = np.where(g == 0, 1.0, tail)
    return float(tail) if tail.ndim == 0 else tail


def zero_mass_check(model, epsilon, n_samples=10**6, seed=0):
    """Empirical P(|H1| < epsilon), certifying continuity of the law at zero."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if n_samples < 10**3:
        raise ValueError("need at least 1000 samples")
    rng = np.random.default_rng(seed)
    hits = np.abs(draw_marginal(model, n_samples, rng)) < epsilon
    p = float(np.mean(hits))
    se = float(np.sqrt(p * (1.0 - p) / n_samples))
    return ZeroMassEstimate(probability=p, standard_error=se,
                            epsilon=float(epsilon), sample_count=int(n_samples))
