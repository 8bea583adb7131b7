"""High-SNR behavior of the capacity lower bound.

The penalty-to-ln(SNR) ratio converges to the Lebesgue measure of the set
where the spectral density is positive; splitting that set at density 1
separates the monotone regime (density >= 1, ratio decreasing for SNR >= e)
from the dominated regime (0 < density < 1, integrand bounded by ln(1 + e)).
Consequently max(bound, 0)/ln(SNR) tends to the measure of the flat set
{F' = 0} for fading laws whose |H1| distribution is continuous at zero.  The
deviation from that limit is not O(1/ln SNR) in general: for Rayleigh fading
the optimized threshold term is L - ln L - 2 + o(1) with L = ln SNR, so the
ratio's deviation has a (ln L)/L part.  The affine fit in 1/ln(SNR) that
extrapolates the pre-log from a finite SNR grid is therefore a desk-scale
extrapolation, not an exact rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, spectra


@dataclass(frozen=True)
class PrelogEstimate:
    snr_grid: tuple
    ratios: tuple
    intercept: float
    partition: spectra.HarmonicPartition

    def __post_init__(self):
        _validated_grid(self.snr_grid)
        if not np.all(np.isfinite(np.asarray(self.ratios))):
            raise ValueError("ratios must be finite")


@dataclass(frozen=True)
class LimitRatioReport:
    ratios: tuple
    target: float
    converged: bool
    tol: float


def _validated_grid(snr_grid):
    grid = np.asarray(list(snr_grid), dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("snr grid must be strictly increasing")
    if grid[0] <= math.e:
        raise ValueError("snr grid must stay above e")
    return grid


def gaussian_prelog(spectrum):
    """Pre-log of Gaussian fading with this spectrum: the flat-set measure."""
    return spectra.flat_set_measure(spectrum)


def penalty_ratio(spectrum, snr):
    """penalty_spectral / ln(snr); defined on the monotone regime snr > e."""
    if snr <= math.e:
        raise ValueError("snr must exceed e")
    return bounds.penalty_spectral(spectrum, snr) / math.log(snr)


def limit_ratio_check(spectrum, snr_grid, tol=0.02):
    """Ratios against the limit mu(S2) + mu(S3) = mu({F' > 0}).

    converged requires the last ratio within tol of the target and the error
    nonincreasing over the last three grid points.
    """
    grid = _validated_grid(snr_grid)
    ratios = tuple(penalty_ratio(spectrum, s) for s in grid)
    part = spectra.partition_measures(spectrum)
    target = part.mu_s2 + part.mu_s3
    errs = [abs(r - target) for r in ratios[-3:]]
    monotone = all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
    converged = abs(ratios[-1] - target) < tol and monotone
    return LimitRatioReport(ratios=ratios, target=float(target),
                            converged=bool(converged), tol=float(tol))


def prelog_lower_estimate(model, snr_grid, gamma=None):
    """Extrapolated pre-log lower bound over an SNR grid.

    gamma=None optimizes the threshold at every grid point, in one lockstep
    search over the grid; a positive value fixes it, mirroring the
    fixed-threshold form of the asymptotic argument.  The
    capacity-nonnegativity clamp max(bound, 0) is applied before fitting and
    the affine fit in 1/ln(snr) uses the last half of the grid, where the
    penalty term has settled into its asymptotic regime.
    """
    grid = _validated_grid(snr_grid)
    if grid.size < 4:
        raise ValueError("snr grid needs at least 4 points")
    ratios = tuple(r.ratio for r in bounds.capacity_lower_bound(model, grid, gamma))
    half = grid.size // 2
    y = np.asarray(ratios[half:])
    if np.all(np.abs(y - y[0]) <= 1e-15):
        intercept = float(y[0])
    else:
        x = 1.0 / np.log(grid[half:])
        intercept = float(np.polyfit(x, y, 1)[1])
    return PrelogEstimate(snr_grid=tuple(float(s) for s in grid), ratios=ratios,
                          intercept=intercept,
                          partition=spectra.partition_measures(model.spectrum))
