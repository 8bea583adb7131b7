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
import itertools
import math
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


def _circles(model):
    """The radii of a unit-modulus law, |c| for each nonzero term of
    d + sum_j a_j W_j, in the order its tail takes them: sorted, but the middle
    one last for three, so that |r1 - r2| > 0 unless all are equal; () for
    every other law.  Four or more circles raise ValueError."""
    if model.innovation != UNIT_MODULUS:
        return ()
    radii = sorted(abs(c) for c in (model.mean, *model.taps) if c)
    if len(radii) > 3:
        raise ValueError(f"unit modulus with {len(radii)} circles: "
                         f"exact tails cover at most three")
    return tuple(radii) if len(radii) < 3 else (radii[0], radii[2], radii[1])


def _step_support(model):
    """The sorted support of |H1| when its tail is a step function, else None:
    the 4^J atoms of a four-point law (more than 9 nonzero taps raise
    ValueError before any atom is built), or the radius of a one-circle
    unit-modulus law."""
    if model.innovation == FOUR_POINT_PHASE:
        nonzero = sum(1 for t in model.taps if t)
        if nonzero > _FOUR_POINT_MAX_TAPS:
            raise ValueError(
                f"four-point phase with {nonzero} taps: exact tails "
                f"enumerate 4^J atoms for at most {_FOUR_POINT_MAX_TAPS} taps")
        return _marginal_samples(model)
    radii = _circles(model)
    return np.array(radii) if len(radii) == 1 else None


def gaussian_marginal(model):
    """Whether H1 is complex Gaussian (Rayleigh, or Rice with a mean): Gaussian
    models, and filtered complex Gaussian innovations, whose law a unit-power
    filter preserves."""
    return model.kind == GAUSSIAN or model.innovation == COMPLEX_GAUSSIAN


def tail_atoms(model):
    """The sorted distinct positive values of |H1| when its tail is a step
    function: the atoms of a four-point law, or the radius of a one-circle
    unit-modulus law.  None for every other law.  A four-point law with more
    than 9 nonzero taps raises ValueError before any atom is built, as does a
    unit-modulus law with four or more circles."""
    support = _step_support(model)
    return None if support is None else np.unique(support[support > 0])


def _two_sum(a, b):
    """(s, e) with s = a + b rounded and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _circle_roots(r1, r2, g):
    """sqrt((r1 + r2)^2 - g^2) and sqrt(g^2 - (r1 - r2)^2), 0 where negative: the
    sides 2 sqrt(r1 r2) sin(psi/2) and 2 sqrt(r1 r2) cos(psi/2) at the psi where
    |r1 + r2 e^{i psi}| = g.  Each square is factored, (hi - g)(hi + g), with the
    rounding error of hi = r1 + r2 or lo = |r1 - r2| carried, so neither cancels
    at an end of the support [lo, hi]."""
    hi, hi_err = _two_sum(r1, r2)
    lo, lo_err = _two_sum(np.maximum(r1, r2), -np.minimum(r1, r2))
    outer = (hi - g + hi_err) * (hi + g + hi_err)
    inner = (g - lo - lo_err) * (g + lo + lo_err)
    return np.sqrt(np.maximum(outer, 0.0)), np.sqrt(np.maximum(inner, 0.0))


def _circle_tail(r1, r2, g):
    """P(|r1 + r2 e^{i psi}| >= g) for psi uniform: the two-circle arccos law,
    psi / pi with psi = 2 atan2(sin(psi/2), cos(psi/2))."""
    return np.arctan2(*_circle_roots(r1, r2, g)) / (np.pi / 2.0)


def _circle_density(r1, r2, g):
    """The density of |r1 + r2 e^{i psi}| at g: 2 g / (pi sqrt((hi^2 - g^2)(g^2 - lo^2)))
    inside the support, 0 outside it and at its ends."""
    outer, inner = _circle_roots(r1, r2, g)
    root = outer * inner
    return 2.0 * g / (np.pi * np.where(root > 0.0, root, np.inf))


def _phase_nodes(r1, r2, r3, g):
    """The three-circle rule's pieces at g (one trailing axis added): the phase
    fractions lo and hi, below which |r1 + r2 e^{i psi}| >= g + r3 and past which it
    is at most |g - r3|, and that modulus on the tanh-sinh nodes between them."""
    g = g[..., None]
    lo, hi = _circle_tail(r1, r2, g + r3), _circle_tail(r1, r2, np.abs(g - r3))
    rho = np.abs(r1 + r2 * np.exp(1j * np.pi * (lo + (hi - lo) * _PHASE_S)))
    return g, lo, hi, rho


def _three_circle_tail(r1, r2, r3, g):
    """Mean over psi in [0, pi] of _circle_tail(|r1 + r2 e^{i psi}|, r3, g): 1 up to
    the kink psi = pi lo, [g < r3] past psi = pi hi, the tanh-sinh mean between."""
    g, lo, hi, rho = _phase_nodes(r1, r2, r3, g)
    inner = (_circle_tail(rho, r3, g) * _PHASE_W).sum(-1, keepdims=True)  # same bits in any batch
    return (lo + (hi - lo) * inner + (1.0 - hi) * (g < r3))[..., 0]


def _three_circle_density(r1, r2, r3, g):
    """Minus the g-derivative of _three_circle_tail: the mean of _circle_density over
    the same nodes, since the two-circle density vanishes outside [lo, hi]."""
    g, lo, hi, rho = _phase_nodes(r1, r2, r3, g)
    inner = (_circle_density(rho, r3, g) * _PHASE_W).sum(-1, keepdims=True)
    return ((hi - lo) * inner)[..., 0]


def _sum_down(terms):
    """|sum of terms|, exact, rounded down to a double: fsum rounds the sum to
    nearest, and fsum of the terms less that rounding has the residual's sign."""
    total = math.fsum(terms)
    if total < 0.0:
        terms, total = [-t for t in terms], -total
    return total if math.fsum([*terms, -total]) >= 0.0 else math.nextafter(total, 0.0)


def tail_kinks(model):
    """The sorted positive Gamma where P(|H1| >= Gamma) is continuous but not
    smooth, each the largest double at or below its exact value, so a tail
    of 1 there is exactly 1: |r1 - r2| and r1 + r2 for two unit-modulus circles,
    the distinct |r1 +- r2 +- r3| for three; none for Gaussian marginals.  Step
    tails (four-point phase, one circle) raise ValueError: their tail_atoms are
    jumps, not kinks."""
    if gaussian_marginal(model):
        return np.empty(0)
    radii = _circles(model)
    if len(radii) < 2:
        raise ValueError("a step tail has atoms (tail_atoms), not kinks")
    kinks = {_sum_down([r * sign for r, sign in zip(radii, (1.0, *signs))])
             for signs in itertools.product((1.0, -1.0), repeat=len(radii) - 1)}
    return np.array(sorted(k for k in kinks if k > 0.0))


@np.errstate(over="ignore")  # a square of gamma past 1e154 is inf, where the tail is 0
def marginal_tail(model, gamma):
    """P(|H1| >= gamma), elementwise: a float for a scalar gamma, else an array
    of gamma's shape.

    - Gaussian marginals are Rayleigh or Rice, exact (filtered complex Gaussian
      innovations too: a unit-power filter preserves the law).  A Rice mean
      needs |d| <= 5e4, where the tail is within 4e-16 |d| + 1e-15 of 30-digit
      quadrature at every gamma; a larger |d| raises ValueError.
    - Unit modulus has a circle per nonzero term of d + sum_j a_j W_j: a step at
      r for one, the four-point rule below with r its one atom; for two,
      |H1| = |r1 + r2 e^{i psi}| with psi uniform and tail
      arccos((gamma^2 - r1^2 - r2^2) / (2 r1 r2)) / pi, within 2.3e-16 of
      40-digit mpmath on all of [|r1 - r2|, r1 + r2], its ends too, and exactly
      1 at the kink tail_kinks gives for |r1 - r2|; three average that law over
      a phase by a 96-node tanh-sinh rule, within 1e-15 of 30-digit mpmath
      (4e-14 beside the kinks of equal radii, 2e-12 beside those of a radius
      1e-9 times the others); four or more raise ValueError.
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
    elif (support := _step_support(model)) is not None:
        tail = (support.size - np.searchsorted(support, g - 1e-12)) / support.size
    elif len(radii := _circles(model)) == 2:
        tail = _circle_tail(*radii, g)
    else:
        tail = _three_circle_tail(*radii, g)
    tail = np.where(g == 0, 1.0, tail)
    return float(tail) if tail.ndim == 0 else tail


@np.errstate(over="ignore")  # as in marginal_tail: the density is 0 where a square overflows
def marginal_density(model, gamma):
    """The density of |H1| at gamma, minus the derivative of marginal_tail,
    elementwise: a float for a scalar gamma, else an array of gamma's shape.

    - Rice (Rayleigh at d = 0): 2 gamma exp(-(gamma - |d|)^2) i0e(2 gamma |d|),
      where i0e(x) = exp(-x) I0(x) comes from scipy.special.
    - Two unit-modulus circles: 2 gamma / (pi sqrt((hi^2 - gamma^2)(gamma^2 - lo^2)))
      on the open support (lo, hi), lo = |r1 - r2|, hi = r1 + r2, and 0 elsewhere.
    - Three circles: the two-circle density averaged by the tail's own tanh-sinh
      rule, within 5e-8 of 30-digit quadrature a relative 1e-3 or more from a
      kink; closer, the nodes do not resolve the two-circle density's inverse
      square roots, and the error grows to 2e-6 at 1e-6 and 3e-5 at 1e-8.
    Step tails (four-point phase, one circle) have no density and raise
    ValueError, as do four or more circles and a negative or NaN gamma.
    """
    g = np.asarray(gamma, dtype=float)
    if not (g >= 0).all():
        raise ValueError("gamma must be nonnegative")
    if gaussian_marginal(model):
        import scipy.special  # here, not at the top: only a Gaussian marginal needs it

        d = abs(model.mean)
        density = 2.0 * g * np.exp(-np.square(g - d)) * scipy.special.i0e(2.0 * d * g)
    elif len(radii := _circles(model)) < 2:
        raise ValueError("a step tail has no density")
    elif len(radii) == 2:
        density = _circle_density(*radii, g)
    else:
        density = _three_circle_density(*radii, g)
    return float(density) if density.ndim == 0 else density


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
