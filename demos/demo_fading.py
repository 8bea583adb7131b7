"""Fading models: Gaussian and FIR laws, simulated paths, marginal tails.

A fading model is a stationary ergodic law for H with a prescribed spectral
distribution.  Gaussian models are simulated by circulant embedding; FIR
models push iid innovations through a unit-power filter and support
non-Gaussian marginals (unit-modulus or four-point phase).
"""
import math

import numpy as np

from prelog_lab import fading, spectra

rayleigh = fading.gaussian_model(spectra.flat_band(0.25))
two_tap = fading.fir_model([1.0, 1.0], fading.FOUR_POINT_PHASE)
ricean = fading.gaussian_model(spectra.white(), d=0.8)

print("simulated paths, n = 65536")
for name, model in (("flat-band Rayleigh", rayleigh),
                    ("two-tap four-point", two_tap),
                    ("white Ricean", ricean)):
    h = fading.simulate_path(model, 65536, seed=3)
    print(f"  {name:20s} mean={np.mean(h):+.4f}  E|H|^2={np.mean(np.abs(h)**2):.4f}"
          f"  lag-1 corr={np.mean(h[1:] * np.conj(h[:-1])):+.4f}")

# the two-tap four-point model keeps |H| on a discrete set
path = fading.simulate_path(two_tap, 4096, seed=1)
seen = sorted({float(v) for v in np.round(np.abs(path), 9)})
print(f"\ntwo-tap |H| values seen: {seen}")

print("\nmarginal tails P(|H1| >= gamma)")
for gamma in (0.5, 1.0, 1.5):
    print(f"  gamma={gamma:.1f}  rayleigh={fading.marginal_tail(rayleigh, gamma):.4f}"
          f"  four-point={fading.marginal_tail(two_tap, gamma):.4f}"
          f"  ricean={fading.marginal_tail(ricean, gamma):.4f}")
print(f"  (rayleigh closed form at 1.0: {math.exp(-1.0):.4f})")

print("\nmass near zero, epsilon = 0.01 (continuity of the law at zero)")
for name, model in (("rayleigh", rayleigh),
                    ("unit-modulus", fading.fir_model([1.0], fading.UNIT_MODULUS))):
    est = fading.zero_mass_check(model, 0.01, n_samples=10**5, seed=2)
    print(f"  {name:13s} P(|H| < eps) = {est.probability:.2e}"
          f" +/- {est.standard_error:.1e}")
