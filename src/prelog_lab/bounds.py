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

from . import fading, spectra
from .errors import NumericalError


@dataclass(frozen=True)
class BoundReport:
    snr: float
    gamma: float
    tail: float  # P(|H1| >= gamma)
    coherent: float
    penalty_spectral: float

    def __post_init__(self):
        values = (self.snr, self.gamma, self.tail, self.coherent, self.penalty_spectral)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"report fields must be finite: {self}")
        if self.penalty_spectral < 0:
            raise ValueError("penalty must be nonnegative")

    @property
    def bound(self):
        """coherent - penalty_spectral, the raw (possibly negative) bound."""
        return self.coherent - self.penalty_spectral

    @property
    def ratio(self):
        """max(bound, 0) / ln(snr), whose high-snr limit is the pre-log; nan at snr <= 1."""
        return max(self.bound, 0.0) / math.log(self.snr) if self.snr > 1 else float("nan")


def _check_snr(snr):
    if not 0 < snr < math.inf:
        raise ValueError(f"snr must be positive and finite, got {snr!r}")


def coherent_term(snr, gamma, tail):
    """tail * ln(snr) - tail * (1 - ln gamma^2): the coherent MI lower bound."""
    _check_snr(snr)
    if not gamma > 0:
        raise ValueError("gamma must be positive (ln gamma^2 is undefined at 0)")
    if not 0.0 <= tail <= 1.0:
        raise ValueError("tail must be a probability")
    return tail * math.log(snr) - tail * (1.0 - 2.0 * math.log(gamma))


def penalty_spectral(spectrum, snr):
    """integral over [-1/2, 1/2] of ln(1 + snr * F'(lam)), in closed form.

    Point masses have no density and contribute nothing; an order-0 piece c
    on [lo, hi] gives (hi - lo) ln(1 + snr c).  For a trigonometric piece
    sum_m g_m z^m (m = -K..K, z = exp(i 2 pi lam)), 1 + snr p(lam) is
    |Q(z)| on the unit circle, where Q has the coefficients c = snr g with 1
    added at m = 0, degree 2K and roots z_j.  So the integral is
    (hi - lo) ln|c_K| + sum_j A(z_j), with A(z) the integral of
    ln|exp(i 2 pi lam) - z| over [lo, hi]:

    - on the full circle, ln max(1, |z|) by Jensen's formula, and the whole
      integral is the Mahler measure of Q;
    - on an arc, with w = 1/z for |z| > 1 and w = conj(z) otherwise,
      (hi - lo) ln max(1, |z|) - [Im Li2(w exp(i 2 pi lam))]_lo^hi / (2 pi),
      where Li2(u) = scipy.special.spence(1 - u).

    Measured against 20- to 40-digit mpmath quadrature: within 1e-14 for
    densities bounded away from zero, through snr 1e16, and within 1e-10
    through snr 1e12 for densities with zeros.  Past 1e12 the double
    coefficients set the error: where the density has a zero, |Q| dips to 1
    while the rounding of snr g is ~eps * snr, and the roots of a double
    zero, ~1/sqrt(snr) off the circle, move by ~eps * sqrt(snr).  The
    measured error there is up to 5e-9 at 1e14 and 1e-9 at 1e16.  A density
    may dip below zero by rounding, to spectra's floor of -1e-9; where
    snr p < -1 there, the integrand is ln|1 + snr p|, not the ln 1 = 0 of a
    clamped density.
    """
    _check_snr(snr)
    total = 0.0
    for p in spectrum.pieces:
        if p.order == 0:
            total += (p.hi - p.lo) * math.log1p(snr * p.coeffs[0].real)
            continue
        c = snr * np.asarray(p.coeffs, dtype=complex)
        c[p.order] += 1.0
        roots = np.polynomial.polynomial.polyroots(c)
        lead = abs(c[np.flatnonzero(c)[-1]])  # polyroots drops zero top coefficients
        outside = np.abs(roots) > 1.0
        jensen = math.log(lead) + float(np.sum(np.log(np.abs(roots[outside]))))
        total += (p.hi - p.lo) * jensen
        if p.hi - p.lo < 1.0:  # on the full circle the arc terms cancel
            import scipy.special  # here, not at the top: only an arc piece needs it

            w = np.conj(roots)
            w[outside] = 1.0 / roots[outside]
            ends = np.exp(2j * np.pi * np.array([p.lo, p.hi]))
            li2 = scipy.special.spence(1.0 - np.multiply.outer(w, ends))
            total -= float(np.sum(li2[:, 1].imag - li2[:, 0].imag)) / (2.0 * math.pi)
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
    _check_snr(snr)
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


def _snr_values(snr):
    """snr as a 1-d float array, every entry checked before any work."""
    snrs = np.atleast_1d(np.asarray(snr, dtype=float))
    if snrs.ndim != 1:
        raise ValueError("snr must be a number or a 1-d grid")
    for s in snrs.tolist():
        _check_snr(s)
    return snrs


def capacity_lower_bound(model, snr, gamma=None):
    """BoundReport at snr and threshold gamma, elementwise in snr: one report
    for a number, a list with one report per snr for a 1-d grid.

    gamma is one threshold for every snr, one threshold per snr, or None for
    the thresholds of optimize_gamma.  The tail is computed once for the
    whole grid.  The raw bound may be negative, and capacity satisfies
    C >= max(bound, 0).
    """
    snrs = _snr_values(snr)
    if gamma is None:
        gamma = optimize_gamma(model, snrs)
    gammas = np.broadcast_to(np.asarray(gamma, dtype=float), snrs.shape)
    tails = fading.marginal_tail(model, gammas)
    reports = []
    for s, g, tail in zip(snrs.tolist(), gammas.tolist(), tails.tolist()):
        reports.append(BoundReport(snr=s, gamma=g, tail=tail,
                                   coherent=coherent_term(s, g, tail),
                                   penalty_spectral=penalty_spectral(model.spectrum, s)))
    return reports[0] if np.ndim(snr) == 0 else reports


_GAMMA_GRID = np.logspace(-6.0, 3.0, 601)
_LN_GAMMA_GRID = np.array([math.log(g) for g in _GAMMA_GRID])
_GRID_DECADES = 9.0 / 600  # the grid's log10 step
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _exp(x):
    """math.exp elementwise, so each point rounds as the scalar search's did."""
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _lambert_w0(x):
    """The principal branch W0 of w e^w = x for x > 0, by Halley steps on
    w - x e^-w, which neither overflows nor cancels: from ln x - ln ln x past
    e and x / (1 + x) below.  At most 4 steps; within 2.2e-16 relative of
    40-digit mpmath from x = 1e-30 to 1e30, and at 5e-324 and 6.6e307."""
    w = math.log(x) - math.log(math.log(x)) if x > math.e else x / (1.0 + x)
    for _ in range(8):
        q = x * math.exp(-w)
        f, slope = w - q, 1.0 + q
        step = 2.0 * f * slope / (2.0 * slope * slope + f * q)
        w -= step
        if abs(step) <= 2.2e-16 * w:
            break
    return w


def _best_atom(model, atoms, lsnr):
    """The best of the atoms of a step tail, per snr, or twice the largest atom
    (tail 0, coherent term 0) where every atom scores below 0; the smaller
    threshold on ties."""
    candidates = np.append(atoms, 2.0 * atoms[-1])
    values = fading.marginal_tail(model, candidates) * (lsnr - 1.0 + 2.0 * np.log(candidates))
    return candidates[np.argmax(values, axis=1)]


def _gamma_grid(top):
    """_GAMMA_GRID and its logs, extended past 1e3 at the same log step to a
    point at or past top."""
    if top <= _GAMMA_GRID[-1]:
        return _GAMMA_GRID, _LN_GAMMA_GRID
    extra = math.ceil(math.log10(top / _GAMMA_GRID[-1]) / _GRID_DECADES)
    more = np.logspace(3.0, 3.0 + extra * _GRID_DECADES, extra + 1)[1:]
    return (np.append(_GAMMA_GRID, more),
            np.append(_LN_GAMMA_GRID, [math.log(g) for g in more.tolist()]))


def _search(model, lsnr, grid, ln_grid):
    """Per snr, the best grid point refined by 50 golden-section steps, or
    Gamma = 1 when it is as good (see optimize_gamma)."""

    def objective(g):
        return fading.marginal_tail(model, g) * (lsnr - 1.0 + 2.0 * np.log(g))

    values = objective(grid)
    i = np.argmax(values, axis=1)  # argmax takes the first = smallest gamma on ties
    a = ln_grid[np.maximum(i - 1, 0), None]
    b = ln_grid[np.minimum(i + 1, grid.size - 1), None]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = np.hsplit(objective(_exp(np.hstack([c, d]))), 2)
    for _ in range(50):
        left = fc >= fd  # keep the left subinterval on ties
        a, b = np.where(left, a, c), np.where(left, d, b)
        step = _GOLDEN * (b - a)
        x = np.where(left, b - step, a + step)
        fx = objective(_exp(x))
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    refined = _exp(0.5 * (a + b))
    f_refined, f_one = np.hsplit(objective(np.hstack([refined, np.ones_like(refined)])), 2)
    gammas = np.empty(lsnr.size)
    for k, j in enumerate(i.tolist()):
        candidates = [(float(grid[j]), float(values[k, j])),
                      (float(refined[k, 0]), float(f_refined[k, 0])),
                      (1.0, float(f_one[k, 0]))]
        best_g, best_v = candidates[0]
        for g, v in candidates[1:]:
            # near-ties count as ties and go to the smaller gamma
            tol = 1e-9 * min(1.0, abs(best_v))
            if v > best_v + tol or (v >= best_v - tol and g < best_g):
                best_g, best_v = g, v
        gammas[k] = best_g
    return gammas


def optimize_gamma(model, snr):
    """The best threshold for the bound at snr, elementwise in snr: a float
    for a number, an array with one threshold per snr for a 1-d grid.

    The penalty does not depend on Gamma, so only the coherent term
    P(|H1| >= Gamma) (L - 1 + 2 ln Gamma), L = ln snr, is maximized, by one
    of three paths chosen by the law:

    - Zero-mean complex-Gaussian marginals (Rayleigh: GAUSSIAN, or FIR with
      complex Gaussian innovations, mean 0) take the stationary point
      Gamma*^2 = 1/W0(snr/e) of exp(-Gamma^2) (L - 1 + 2 ln Gamma), the
      unique maximum at every positive finite snr; there the coherent term is
      W0 exp(-1/W0) = L - ln L - 2 + O(ln L / L).
    - Step tails (four-point phase with at most 9 nonzero taps, and unit
      modulus with one circle) drop only at their atoms, and between atoms
      the objective grows with Gamma, so the best of the distinct positive
      atoms is exact.  Where every atom scores below 0 (snr < e / a_max^2),
      the threshold is 2 a_max, past the last atom, with tail and coherent
      term 0.  One tail call scores every atom for the whole snr grid; exact
      ties go to the smaller threshold.
    - Every other law (Rice, two- and three-circle unit modulus) is searched:
      a log grid from 1e-6 with Gamma = 1 among its points, 601 points to
      1e3, extended at the same step to fading.support_bound(model) when
      that lies past 1e3, then 50 golden-section steps on the interval
      around the best grid point.  The tail does not depend on snr, so one
      tail call scores the grid for every snr, and each golden-section step
      makes one tail call for the whole snr grid.  The tie rules are per
      snr: the first (smallest) grid maximizer, the left subinterval on
      ties, and among the grid point, the refined point and Gamma = 1,
      values within 1e-9 * min(1, |best|) nats of the best so far tie and go
      to the smaller Gamma.  So the bound is never below the bound at
      Gamma = 1; the grid brackets optima down to Gamma = 1e-6.

    Every element equals the one-snr call bit for bit, on every path.
    """
    snrs = _snr_values(snr)
    lsnr = np.array([math.log(s) for s in snrs.tolist()])[:, None]  # one row per snr
    if fading.gaussian_marginal(model) and model.mean == 0:
        gammas = np.array([1.0 / math.sqrt(_lambert_w0(s / math.e)) for s in snrs.tolist()])
    elif (atoms := fading.tail_atoms(model)) is not None:
        gammas = _best_atom(model, atoms, lsnr)
    else:
        gammas = _search(model, lsnr, *_gamma_grid(fading.support_bound(model)))
    return float(gammas[0]) if np.ndim(snr) == 0 else gammas
