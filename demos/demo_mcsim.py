"""Monte Carlo checks: entropy estimation, coherent MI, spectral fidelity.

The k-NN entropy estimator is calibrated on laws with known differential
entropy, then drives a stratified estimate of I(X1; Y1 | H1) that must
dominate the analytic coherent term.  A Welch periodogram closes the loop
on the path simulator.
"""
import math

import numpy as np

from prelog_lab import bounds, fading, mcsim, spectra

rng = np.random.default_rng(0)
n = 20000

z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
est = mcsim.estimate_entropy(z)
print(f"entropy of CN(0,1):   {est.value:.4f} +/- {est.standard_error:.4f}"
      f"   (ln pi e = {math.log(math.pi * math.e):.4f})")

disk = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
est = mcsim.estimate_entropy(disk)
print(f"entropy of unit disk: {est.value:.4f} +/- {est.standard_error:.4f}"
      f"   (ln pi   = {math.log(math.pi):.4f})")

print("\ncoherent MI vs analytic term, white Rayleigh fading")
model = fading.gaussian_model(spectra.white())
print(f"{'snr':>6s} {'mi_hat':>8s} {'se':>8s} {'coherent*':>10s} {'margin':>8s}")
for snr in (10.0, 100.0, 1000.0):
    mi = mcsim.estimate_coherent_mi(model, snr, 10**5, seed=4)
    rep = bounds.capacity_lower_bound(model, snr)
    print(f"{snr:6.0f} {mi.value:8.4f} {mi.standard_error:8.4f}"
          f" {rep.coherent:10.4f} {mi.value - rep.coherent:8.4f}")

print("\nWelch spectrum of a flat-band path against the model density")
band = fading.gaussian_model(spectra.flat_band(0.25))
path = fading.simulate_path(band, 2**16, seed=9)
freqs, dens = mcsim.empirical_spectrum(path, 256)
inside = np.abs(freqs) <= 0.25
print(f"  mean density in band:  {dens[inside].mean():.4f}  (model: 2.0)")
print(f"  mass outside the band: {dens[~inside].sum() / dens.sum():.2e}")
