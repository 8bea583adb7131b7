"""Spectral distributions: densities, flat sets, autocovariances, Toeplitz forms.

The spectral distribution F on [-1/2, 1/2] carries everything about the fading
memory.  Its flat set {F' = 0} is where the pre-log lives, and its Fourier
coefficients populate the channel covariance matrix.
"""
import numpy as np

from prelog_lab import spectra

fb = spectra.flat_band(0.25)          # density 2 on [-1/4, 1/4]
wh = spectra.white()                  # memoryless: density 1 everywhere
mixed = spectra.mixed_spectrum([(-0.5, 0.5, 0.5)], [(0.0, 0.5)])

print("densities at a few frequencies")
for lam in (-0.4, -0.2, 0.0, 0.2, 0.4):
    print(f"  lam={lam:+.1f}  flat_band={spectra.density_at(fb, lam):.3f}"
          f"  white={spectra.density_at(wh, lam):.3f}"
          f"  mixed={spectra.density_at(mixed, lam):.3f}")

print("\nflat-set measures (= Gaussian pre-logs)")
for name, f in (("flat_band(1/4)", fb), ("white", wh), ("mixed", mixed)):
    mu_flat = spectra.flat_set_measure(f)
    print(f"  {name:15s} mu_flat={mu_flat:.3f}  1 - mu_flat={1 - mu_flat:.3f}")

print("\nautocovariances of the flat band (sampled sinc)")
lags = np.arange(6)
for m, r in zip(lags, spectra.autocovariances(fb, lags)):
    print(f"  r[{m}] = {r.real:+.6f}")

# the order-n Toeplitz matrix is Hermitian PSD with unit diagonal
cov = spectra.toeplitz_covariance(fb, 6)
eigs = np.linalg.eigvalsh(cov)
print(f"\ntoeplitz_covariance(6): min eig = {eigs.min():.6f},"
      f" max eig = {eigs.max():.6f}")

# point masses shift mass out of the density without touching the flat set
print(f"\nmixed spectrum total mass = "
      f"{0.5 + sum(w for _, w in mixed.point_masses):.1f}"
      f" (density 0.5 + atom 0.5 at lam=0)")
