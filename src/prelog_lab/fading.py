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
from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import NumericalError

GAUSSIAN = "gaussian"
FIR = "fir"

COMPLEX_GAUSSIAN = "complex_gaussian"
UNIT_MODULUS = "unit_modulus"
FOUR_POINT_PHASE = "four_point_phase"
INNOVATION_LAWS = (COMPLEX_GAUSSIAN, UNIT_MODULUS, FOUR_POINT_PHASE)

# exact alphabet so that |H_k| = 1 holds to the last bit for single-tap models
_FOUR_POINTS = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])

_FOUR_POINT_MAX_TAPS = 9  # 4^9 = 262,144 atoms, 2 MiB a table; each tap more quadruples it
_RICE_MAX_MEAN = 5e4  # from |d| ~ 5.25e4 chndtr returns NaN for some gamma near |d| + 18
_GAUSSIAN_TAIL_MARGIN = 10.0  # P(|H1| >= |d| + 10) <= P(|CN(0, 1)| >= 10) = e^-100
_EMBED_CAP = 2**20
_EMBED_CLIP_TOL = 1e-4  # relative eigenvalue mass clipped to zero in the embedding
# tanh-sinh rule for a mean over [0, 1]: nodes s = (1 + tanh(pi/2 sinh t)) / 2, t on 96 points
# of step h in [-3.1, 3.1], crowd the ends, where kinks sit; the weights h ds/dt sum to 1
_DE_T, _DE_H = np.linspace(-3.1, 3.1, 96, retstep=True)
_PHASE_S = (1.0 + np.tanh(np.pi / 2.0 * np.sinh(_DE_T))) / 2.0
_PHASE_W = _DE_H * np.pi * _PHASE_S * (1.0 - _PHASE_S) * np.cosh(_DE_T)


@dataclass(frozen=True)
class FadingModel:
    """Immutable fading law; hashable so derived tables can be cached."""

    kind: str
    mean: complex
    spectrum: spectra.SpectralDistribution
    taps: tuple | None = None
    innovation: str | None = None

    def __post_init__(self):
        if not np.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")


@dataclass(frozen=True)
class ZeroMassEstimate:
    """Empirical P(|H1| < eps) with its binomial standard error."""

    probability: float
    standard_error: float
    sample_count: int


def gaussian_model(spectrum, d=0.0):
    """Circularly-symmetric Gaussian fading with the given spectrum, plus mean d."""
    return FadingModel(kind=GAUSSIAN, mean=complex(d), spectrum=spectrum)


def fir_spectrum(taps):
    """Exact trigonometric-polynomial spectrum |sum_j tap_j e^{-i 2 pi j lam}|^2."""
    a = np.asarray(taps, dtype=complex)
    corr = np.correlate(a, a, mode="full")  # filter autocorrelation, lag m at index J-1+m
    piece = spectra.Piece(-0.5, 0.5, tuple(corr[::-1]))
    return spectra.SpectralDistribution(pieces=(piece,))


def fir_model(taps, innovation=COMPLEX_GAUSSIAN, d=0.0):
    """H_k = d + sum_j tap_j W_{k-j} with IID unit-variance innovations W.

    Taps are scaled to unit total power, so the centered process has unit
    variance; taps within 1e-12 of it are kept, so a model's own taps rebuild
    it bit for bit.  The derived spectral density is exact, so a Gaussian and a
    non-Gaussian model built from the same taps share the same spectrum.
    """
    a = np.asarray(taps, dtype=complex)
    if a.ndim != 1 or a.size == 0 or not np.isfinite(a).all():
        raise ValueError("taps must be a nonempty 1-d sequence of finite numbers")
    if innovation not in INNOVATION_LAWS:
        raise ValueError(f"unknown innovation law {innovation!r}")
    power = np.sum(np.abs(a) ** 2)
    if power == 0:
        raise ValueError("taps must not be all zero")
    a = a if abs(power - 1.0) <= 1e-12 else a / np.sqrt(power)
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
    64 MiB; _marginal_samples' 8 atom tables hold at most 4^9 doubles each.
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
    a, b = rng.standard_normal(2 * order).reshape(2, order)  # the stream of two draws
    root = np.sqrt(lam)
    xi = np.empty(order, dtype=complex)
    np.multiply(root, a, out=xi.real)
    np.multiply(root, b, out=xi.imag)
    return np.sqrt(order / 2.0) * np.fft.ifft(xi)[:n]


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
        raise ValueError(
            "Gaussian fading with spectral point masses is not ergodic; "
            "path simulation is not supported for such models")
    return model.mean + _gaussian_path(model.spectrum, n, rng)


@functools.lru_cache(maxsize=8)
def _marginal_samples(model):
    """Sorted support of |H1| for a four-point law: its 4^J equally likely
    atoms |d + sum_j a_j w_j|, w in {1, i, -1, -i}^J, over its J nonzero taps."""
    taps = np.array([t for t in model.taps if t])
    w = _FOUR_POINTS[np.indices((4,) * taps.size).reshape(taps.size, -1).T]
    return np.sort(np.abs(model.mean + w @ taps))


def _four_point_support(model):
    """_marginal_samples(model), once the tap count is known to be in range."""
    nonzero = sum(1 for t in model.taps if t)
    if nonzero > _FOUR_POINT_MAX_TAPS:
        raise ValueError(
            f"four-point phase with {nonzero} taps: exact tails "
            f"enumerate 4^J atoms for at most {_FOUR_POINT_MAX_TAPS} taps")
    return _marginal_samples(model)


def _radii(model):
    """The circles of a unit-modulus law: |c| for each nonzero term of d + sum_j a_j W_j."""
    return sorted(abs(c) for c in (model.mean, *model.taps) if c)


def gaussian_marginal(model):
    """Whether H1 is complex Gaussian (Rayleigh, or Rice with a mean): Gaussian
    models, and filtered complex Gaussian innovations, whose law a unit-power
    filter preserves."""
    return model.kind == GAUSSIAN or model.innovation == COMPLEX_GAUSSIAN


def support_bound(model):
    """A Gamma past which P(|H1| >= Gamma) is 0: |d| + sum_j |a_j| for unit
    modulus and four-point phase; for Gaussian marginals, whose support is
    unbounded, |d| + 10, past which the tail is below e^-100."""
    if gaussian_marginal(model):
        return abs(model.mean) + _GAUSSIAN_TAIL_MARGIN
    return abs(model.mean) + sum(abs(t) for t in model.taps)


def tail_atoms(model):
    """The sorted distinct positive values of |H1| when its tail is a step
    function: the atoms of a four-point law, or the radius of a one-circle
    unit-modulus law.  None for every other law.  A four-point law with more
    than 9 nonzero taps raises ValueError before any atom is built."""
    if model.innovation == FOUR_POINT_PHASE:
        support = _four_point_support(model)
        return np.unique(support[support > 0])
    if model.innovation == UNIT_MODULUS and len(radii := _radii(model)) == 1:
        return np.array(radii)
    return None


def _circle_tail(r1, r2, g):
    """P(|r1 + r2 e^{i psi}| >= g) for psi uniform: the two-circle arccos law."""
    cos_psi = (g * g - r1 * r1 - r2 * r2) / (2.0 * r1 * r2)
    return np.arccos(np.clip(cos_psi, -1.0, 1.0)) / np.pi


def _three_circle_tail(r1, r2, r3, g):
    """Mean over psi in [0, pi] of _circle_tail(|r1 + r2 e^{i psi}|, r3, g): 1 up to
    the kink psi = pi lo, [g < r3] past psi = pi hi, the tanh-sinh mean between."""
    g = g[..., None]
    lo, hi = _circle_tail(r1, r2, g + r3), _circle_tail(r1, r2, np.abs(g - r3))
    rho = np.abs(r1 + r2 * np.exp(1j * np.pi * (lo + (hi - lo) * _PHASE_S)))
    inner = (_circle_tail(rho, r3, g) * _PHASE_W).sum(-1, keepdims=True)  # same bits in any batch
    return (lo + (hi - lo) * inner + (1.0 - hi) * (g < r3))[..., 0]


@np.errstate(over="ignore")  # a square of gamma past 1e154 is inf, where the tail is 0
def marginal_tail(model, gamma):
    """P(|H1| >= gamma), elementwise: a float for a scalar gamma, else an array
    of gamma's shape.

    - Gaussian marginals are Rayleigh or Rice, exact (filtered complex Gaussian
      innovations too: a unit-power filter preserves the law).  A Rice mean
      needs |d| <= 5e4, where the tail is within 4e-16 |d| + 1e-15 of 30-digit
      quadrature at every gamma; a larger |d| raises ValueError.
    - Unit modulus has a circle per nonzero term of d + sum_j a_j W_j: a step at
      r for one; for two, |H1| = |r1 + r2 e^{i psi}| with psi uniform and tail
      arccos((gamma^2 - r1^2 - r2^2) / (2 r1 r2)) / pi clipped to [0, 1], which
      rounding of the cosine perturbs by up to 5e-9 at its support ends (1e-7
      for r1 = 1e-4 r2); three average that law over a phase by a 96-node
      tanh-sinh rule, within 1e-10 of adaptive quadrature save near kinks of
      laws with equal or near-zero radii (3e-10); four or more raise ValueError.
    - Four-point phase with J <= 9 nonzero taps is exactly k / 4^J for the k of
      its 4^J equally likely atoms at or above gamma (one within 1e-12 below counts:
      |(1 + i)/sqrt(2)| = 1 may round an ulp low); more taps raise ValueError.
    A negative or NaN gamma raises ValueError.
    """
    g = np.asarray(gamma, dtype=float)
    if not (g >= 0).all():
        raise ValueError("gamma must be nonnegative")
    if gaussian_marginal(model):
        if model.mean == 0:
            tail = np.exp(-g * g)
        else:
            if abs(model.mean) > _RICE_MAX_MEAN:
                raise ValueError(f"Rice tail with |mean| {abs(model.mean):.6g}: exact "
                                 f"tails cover |mean| <= {_RICE_MAX_MEAN:g}")
            import scipy.special  # here, not at the top: only a Rice tail needs it

            # scipy.stats.rice.sf(g, sqrt(2)|d|, scale=sqrt(1/2)), by its own formula
            tail = 1.0 - scipy.special.chndtr(np.square(g / np.sqrt(0.5)), 2,
                                              np.square(np.sqrt(2.0) * abs(model.mean)))
    elif model.innovation == UNIT_MODULUS:
        radii = _radii(model)
        if len(radii) == 1:
            tail = (radii[0] >= g - 1e-12).astype(float)
        elif len(radii) == 2:
            tail = _circle_tail(*radii, g)
        elif len(radii) == 3:  # the middle circle outermost: |r1 - r2| > 0 unless all equal
            tail = _three_circle_tail(radii[0], radii[2], radii[1], g)
        else:
            raise ValueError(f"unit modulus with {len(radii)} circles: "
                             f"exact tails cover at most three")
    else:
        support = _four_point_support(model)
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
    return ZeroMassEstimate(probability=p, standard_error=se, sample_count=int(n_samples))
