"""Monte Carlo checks: entropy estimation, coherent MI, spectral fidelity.

The stratified estimate of I(X1; Y1 | H1), a 1-D k-NN entropy of |Y|^2 per
fading draw with |Y|^2 drawn from its radial law, is calibrated on
unit-modulus fading, where the exact value comes from a radial quadrature of
the output density; it then must dominate the analytic coherent term under
Rayleigh fading (whose exact values, 1.444020 / 3.260327 / 5.403379 nats at
snr 10 / 100 / 1000, the tests pin).  A Welch periodogram closes the loop on
the path simulator.
"""
import numpy as np

from prelog_lab import bounds, fading, mcsim, spectra

print("coherent MI vs exact value, unit-modulus fading")
unit = fading.fir_model([1.0], fading.UNIT_MODULUS)
print(f"{'snr':>6s} {'mi_hat':>8s} {'se':>8s} {'exact':>9s}")
for snr, exact in ((10.0, 1.731378), (100.0, 3.735722), (1000.0, 5.948440)):
    mi = mcsim.estimate_coherent_mi(unit, snr, 10**5, seed=4)
    print(f"{snr:6.0f} {mi.value:8.4f} {mi.standard_error:8.4f} {exact:9.6f}")

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
