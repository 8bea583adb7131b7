"""Finite-n log-determinant penalties converging to the spectral integral.

The penalty at blocklength n is (1/n) ln det(I + snr K_n) with K_n the
order-n Toeplitz covariance.  As n grows it approaches the integral of
ln(1 + snr F') -- and it approaches from above, so finite-n truncation
never understates the bound's penalty.
"""
from prelog_lab import bounds, spectra

snr = 1e4
spectrum = spectra.flat_band(0.25)
integral = bounds.penalty_spectral(spectrum, snr)

print(f"flat band, snr = {snr:.0e}, spectral integral = {integral:.6f}")
print(f"{'n':>6s} {'logdet/n':>12s} {'gap':>10s}")
orders = (16, 64, 128, 256, 512, 1024, 2048)
# one Schur pass up to the largest order gives every order on the way
for n, logdet in zip(orders, bounds.penalty_logdets(spectrum, snr, orders)):
    print(f"{n:6d} {logdet:12.6f} {logdet - integral:10.6f}")

print("\nwhite spectrum: K_n is the identity and the gap is zero at every n")
white = spectra.white()
integral = bounds.penalty_spectral(white, snr)
for n, logdet in zip((1, 8, 64), bounds.penalty_logdets(white, snr, (1, 8, 64))):
    print(f"  n={n:3d}  logdet/n={logdet:.12f}  integral={integral:.12f}")

# an atom in the spectrum contributes nothing to the integral but adds a
# rank-one ridge to every K_n, so the gap decays only like ln(snr w n)/n
mixed = spectra.mixed_spectrum([(-0.5, 0.5, 0.5)], [(0.0, 0.5)])
integral = bounds.penalty_spectral(mixed, 100.0)
print("\npoint mass at lam = 0, snr = 100")
for n, logdet in zip((4, 16, 64), bounds.penalty_logdets(mixed, 100.0, (4, 16, 64))):
    print(f"  n={n:3d}  gap={logdet - integral:.4f}")
