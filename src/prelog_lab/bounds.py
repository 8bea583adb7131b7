"""Capacity lower bound for peak-limited non-coherent fading channels.

For a fading law with marginal tail p = P(|H1| >= Gamma) and spectral
distribution F, the bound at a given SNR is

    bound = p * ln(SNR) - p * (1 - ln Gamma^2) - integral ln(1 + SNR F'(lam)) dlam

in nats per channel use.  The first two terms lower-bound the coherent mutual
information I(X1; Y1 | H1) under the peak-limited input ensemble; the integral
is the high-n limit of the penalty (1/n) ln det(I + SNR K), the information the
outputs leak about the fading.  Both penalty forms are provided; the bound uses
the spectral integral, while the finite-n log-determinant supports convergence
studies: Schur, O(n^2), all orders in one pass (`penalty_logdets`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate

from . import fading, spectra
from .errors import NumericalError


@dataclass(frozen=True)
class BoundReport:
    snr: float
    gamma: float
    tail: float  # P(|H1| >= gamma)
    coherent: float
    penalty_spectral: float
    bound: float

    def __post_init__(self):
        if abs(self.bound - (self.coherent - self.penalty_spectral)) > 1e-12:
            raise ValueError("bound must equal coherent - penalty_spectral")
        if self.penalty_spectral < 0:
            raise ValueError("penalty must be nonnegative")

    @property
    def ratio(self):
        """max(bound, 0) / ln(snr), whose high-snr limit is the pre-log; nan at snr <= 1."""
        return max(self.bound, 0.0) / math.log(self.snr) if self.snr > 1 else float("nan")


def coherent_term(snr, gamma, tail):
    """tail * ln(snr) - tail * (1 - ln gamma^2): the coherent MI lower bound."""
    if snr <= 0:
        raise ValueError("snr must be positive")
    if gamma <= 0:
        raise ValueError("gamma must be positive (ln gamma^2 is undefined at 0)")
    if not 0.0 <= tail <= 1.0:
        raise ValueError("tail must be a probability")
    return tail * math.log(snr) - tail * (1.0 - 2.0 * math.log(gamma))


def penalty_spectral(spectrum, snr):
    """integral over [-1/2, 1/2] of ln(1 + snr * F'(lam)).

    Constant (order-0) pieces integrate in closed form; higher-order
    trigonometric pieces use adaptive quadrature with absolute tolerance 1e-9.
    Point masses have no density and contribute nothing.
    """
    if snr <= 0:
        raise ValueError("snr must be positive")
    total = 0.0
    for p in spectrum.pieces:
        dens = p.density
        if dens.order == 0:
            total += (p.hi - p.lo) * math.log1p(snr * dens.coeffs[0].real)
        else:
            # clamp rounding noise at density zeros: snr * (-1e-17) matters at 1e16
            val, _ = scipy.integrate.quad(
                lambda lam: math.log1p(snr * max(float(dens(lam)), 0.0)),
                p.lo, p.hi, epsabs=1e-9, limit=200)
            total += val
    return total


def penalty_logdets(spectrum, snr, orders):
    """(1/n) ln det(I + snr K_n) for every order n in `orders`, where K_n is
    the order-n Toeplitz covariance, from one Schur pass up to max(orders).

    The pass never builds a matrix: it runs on the generators of
    T = I + snr K, g1 = t / sqrt(t0) and g2 = g1 with g2[0] = 0, where t is
    the first column of T.  Each step applies one hyperbolic rotation in the
    mixed form (Bojanczyk, Brent, de Hoog and Sweet 1995), which is as stable
    as Cholesky.  Its pivots, the squared Cholesky diagonal of T, shrink by
    the factor (1 - |rho|)(1 + |rho|) at each step, where rho is the step's
    reflection coefficient, and the sum of their logs gives ln det of every
    leading block.  O(n^2) time and O(n) memory for n = max(orders).

    Double precision bounds the domain: the small eigenvalues of K_n are
    lost to rounding once snr * ||K|| nears 1 / eps.  Measured against
    eigvalsh and 60-digit mpmath references on random piecewise-constant
    spectra, it works for bands through snr 1e12 at n = 2048 and for spectra
    with point masses through 1e10; the error is that of the dense Cholesky,
    up to 1e-2 nats at 1e12, 3e-4 at 1e10 and 5e-9 at 1e6 and below.
    Point masses at 1e12 and bands at 1e14 and 1e16 fail, as a dense
    Cholesky of I + snr K does, and the failure raises NumericalError with
    the order and the snr.
    """
    if snr <= 0:
        raise ValueError("snr must be positive")
    orders = [int(n) for n in orders]
    if not orders or min(orders) < 1:
        raise ValueError("matrix order must be at least 1")
    n_max = max(orders)
    t = snr * spectra.autocovariances(spectrum, np.arange(n_max))
    t0 = t[0] = 1.0 + t[0].real
    a = t / math.sqrt(t0)
    b = a.copy()
    b[0] = 0.0
    log_pivots = np.empty(n_max)
    log_pivots[0] = math.log(t0)
    # a is kept unshifted: at step k its live part a[:n_max - k] holds rows
    # k.. of the shifted generator, beside b[k:]
    for k in range(1, n_max):
        av, bv = a[:n_max - k], b[k:]
        a0 = complex(av[0])
        rho = complex(bv[0]) / a0 if a0 else math.inf  # a zero pivot fails too
        r = abs(rho)
        if not r < 1.0:
            raise NumericalError(
                f"I + snr*K is not positive definite in double precision at "
                f"order {k + 1} (snr {snr:g}): rounding of snr*K swamps its "
                f"smallest eigenvalues; lower the snr or the order")
        s = math.sqrt((1.0 - r) * (1.0 + r))
        av -= rho.conjugate() * bv
        av *= 1.0 / s  # a scalar product is faster than complex division
        bv *= s
        bv -= rho * av
        # pivot_k = pivot_{k-1} (1 - r^2), in logs that stay exact as r -> 0
        log_pivots[k] = log_pivots[k - 1] + math.log1p(-r) + math.log1p(r)
    return np.array([np.sum(log_pivots[:n]) / n for n in orders])


def penalty_logdet(spectrum, snr, n):
    """(1/n) ln det(I + snr * K) for the order-n Toeplitz covariance K."""
    return float(penalty_logdets(spectrum, snr, [n])[0])


def capacity_lower_bound(model, snr, gamma=None):
    """BoundReport at one snr and threshold gamma; gamma=None takes the
    threshold from optimize_gamma.  The raw bound may be negative, and
    capacity satisfies C >= max(bound, 0)."""
    if gamma is None:
        return optimize_gamma(model, snr)[1]
    tail = fading.marginal_tail(model, gamma)
    coherent = coherent_term(snr, gamma, tail)
    penalty = penalty_spectral(model.spectrum, snr)
    return BoundReport(snr=float(snr), gamma=float(gamma), tail=tail,
                       coherent=coherent, penalty_spectral=penalty,
                       bound=coherent - penalty)


_GAMMA_GRID = np.logspace(-6.0, 3.0, 601)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_gamma(model, snr):
    """Best threshold for the bound at this snr: grid search over
    [1e-6, 1e3] (601 log-spaced points, Gamma = 1 among them) refined by
    golden-section on the bracketing interval; ties go to the smaller Gamma.

    The penalty does not depend on Gamma, so only the coherent term is
    searched.  The returned bound is never below the bound at Gamma = 1.
    """
    if snr <= 1:
        raise ValueError("snr must exceed 1 so that ln snr > 0")
    lsnr = math.log(snr)

    def objective(g):
        return fading.marginal_tail(model, g) * (lsnr - 1.0 + 2.0 * np.log(g))

    values = objective(_GAMMA_GRID)
    i = int(np.argmax(values))  # argmax takes the first = smallest gamma on ties
    a = math.log(_GAMMA_GRID[max(i - 1, 0)])
    b = math.log(_GAMMA_GRID[min(i + 1, len(_GAMMA_GRID) - 1)])
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(math.exp(c)), objective(math.exp(d))
    for _ in range(50):
        if fc >= fd:  # keep the left subinterval on ties
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(math.exp(d))
    refined = math.exp(0.5 * (a + b))
    candidates = [(float(_GAMMA_GRID[i]), float(values[i])),
                  (refined, objective(refined)),
                  (1.0, objective(1.0))]
    best_g, best_v = candidates[0]
    for g, v in candidates[1:]:
        # near-ties (within 1e-9 nats) count as ties and go to the smaller gamma
        if v > best_v + 1e-9 or (v >= best_v - 1e-9 and g < best_g):
            best_g, best_v = g, v
    return best_g, capacity_lower_bound(model, snr, best_g)
