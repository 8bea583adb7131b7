"""Monte Carlo channel simulation and nonparametric information estimates.

These routines validate the analytic chain numerically: the peak-limited
input ensemble (circularly symmetric, |X|^2 uniform on [0, A^2]), the channel
Y = H X + Z, the stratified estimate of the coherent mutual information
I(X1; Y1 | H1), and a Welch spectral check of simulated fading paths.  The
coherent MI uses the circular symmetry of Y given H: h(Y) = h(|Y|^2) + ln pi,
with a 1-D k-nearest-neighbor entropy estimate on the sorted |Y|^2.
Everything is a pure function of its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fading
from .errors import NumericalError

_STRATA = 64


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    standard_error: float

    def __post_init__(self):
        if not self.standard_error > 0:
            raise ValueError("standard error must be positive")


def sample_inputs(n, peak, seed):
    """IID circularly-symmetric inputs with |X|^2 uniform on [0, peak^2]."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 < peak < math.inf:
        raise ValueError("peak amplitude must be positive and finite")
    rng = np.random.default_rng(seed)
    radius = peak * np.sqrt(rng.random(n))
    return radius * np.exp(2j * np.pi * rng.random(n))


def simulate_channel(x, h, seed):
    """Y_k = H_k X_k + Z_k with fresh unit-variance circularly-symmetric
    Gaussian noise: the MI depends on the channel only through the snr."""
    if len(x) != len(h):
        raise ValueError("input and fading sequences must have equal length")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
    return h * x + math.sqrt(0.5) * z


def _kl_entropy_1d(values, k):
    """Kozachenko-Leonenko estimate of differential entropy on the line.

    On the sorted values the k nearest neighbours of a point, with the point
    itself, fill one of the k + 1 windows of k + 1 consecutive values that
    contain it, so its k-th neighbour distance is the smallest reach of those
    windows.  Both ends are padded with k infinities, which no window can
    pick, so no tree is built and no end point is a special case.  Zero
    distances are left out of the mean log distance; beyond 1% zeros the
    sample is rejected: the law has atoms.  The constant digamma(n) -
    digamma(k) is, for integers, the harmonic sum of 1/j for j = k..n-1.
    """
    x = np.sort(values)
    n = len(x)
    pad = np.full(k, np.inf)
    padded = np.concatenate([-pad, x, pad])
    eps = np.full(n, np.inf)
    for j in range(k + 1):
        reach = np.maximum(padded[k + j:k + j + n] - x, x - padded[j:j + n])
        np.minimum(eps, reach, out=eps)
    positive = eps > 0
    if np.count_nonzero(~positive) > 0.01 * n:
        raise NumericalError(
            "more than 1% duplicate points; differential entropy of a law "
            "with atoms is not defined")
    return float(np.sum(1.0 / np.arange(k, n)) + math.log(2.0)
                 + np.mean(np.log(eps[positive])))


def estimate_coherent_mi(model, snr, n_samples, seed):
    """Stratified MC estimate of I(X1; Y1 | H1) under the peak-limited ensemble.

    The MI depends on the channel only through snr = A^2 / sigma^2, so the
    noise has unit variance and the peak amplitude is A = sqrt(snr).  The
    conditioning expectation over H is stratified: 64 fading draws, each
    with its own block of channel samples and its own seed stream derived from
    (seed, stratum index), so the result is independent of execution order.
    Given H, Y is circularly symmetric, so each stratum's h(Y) is the 1-D
    k-NN entropy of |Y|^2 plus ln pi.  The estimate is mean stratum entropy
    minus ln(pi e); its standard error is the stratum spread over sqrt(64).
    """
    if not 0 < snr < math.inf:
        raise ValueError(f"snr must be positive and finite, got {snr!r}")
    if n_samples < 10**4:
        raise ValueError(f"need at least 10000 samples, got {n_samples}")
    base = [int(s) for s in seed] if np.iterable(seed) else [int(seed)]
    per = n_samples // _STRATA
    peak = math.sqrt(snr)

    def stratum(m):
        rng = np.random.default_rng(base + [m])
        h = fading.draw_marginal(model, 1, rng)[0]
        x = sample_inputs(per, peak, rng)
        y = simulate_channel(x, np.full(per, h), rng)
        power = y.real * y.real + y.imag * y.imag
        return _kl_entropy_1d(power, k=4) + math.log(math.pi)

    entropies = np.array([stratum(m) for m in range(_STRATA)])
    mi = float(entropies.mean() - math.log(math.pi * math.e))
    se = float(entropies.std(ddof=1) / math.sqrt(_STRATA))
    return EntropyEstimate(value=mi, standard_error=se)


def empirical_spectrum(values, segment_length):
    """Welch density estimate of a fading path on the shifted frequency grid.

    Hann window, 50% overlap, mean removed, renormalized so that the grid sum
    times the bin width reproduces the sample variance.  Returns (grid, density).
    The averaged periodogram repeats scipy 1.17's `welch` operation for
    operation (window, scale, segments, |FFT|^2, mean over a C-contiguous
    array), so it has scipy's bytes on a complex path.  That order is the
    contract: simpler orders move the 12th digit of a shipped CSV.
    """
    values = np.asarray(values)
    seg = int(segment_length)
    if seg < 2 or seg & (seg - 1):
        raise ValueError("segment length must be a power of two")
    if len(values) < 8 * seg:
        raise ValueError("path must cover at least 8 segments")
    x = values - values.mean()
    phi = np.linspace(-np.pi, np.pi, seg + 1)[:-1]
    w = 0.5 * np.cos(0 * phi) + 0.5 * np.cos(phi)  # periodic Hann
    w = w * (1 / np.sqrt(sum(w * w)))  # builtin sum, then a multiply
    spec = np.fft.fft(w * np.lib.stride_tricks.sliding_window_view(x, seg)[::seg // 2]).T
    periodograms = np.ascontiguousarray(spec.real**2 + spec.imag**2)
    freqs = np.fft.fftshift(np.fft.fftfreq(seg))
    dens = np.fft.fftshift(periodograms.mean(axis=-1))
    variance = float(np.mean(np.abs(x)**2))
    power = float(np.mean(np.abs(values)**2))
    if variance <= 1e-24 * max(power, 1.0):
        # centered variance at mean-subtraction rounding level: the path is
        # constant and its centered spectrum is identically zero
        return freqs, np.zeros_like(dens)
    total = float(dens.sum() / seg)
    if total > 0:
        dens = dens * (variance / total)
    return freqs, dens
