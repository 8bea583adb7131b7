"""The capacity lower bound and its threshold optimization.

bound(snr, gamma) = p ln(snr) - p (1 - ln gamma^2) - integral ln(1 + snr F')
with p = P(|H1| >= gamma).  The threshold gamma trades tail mass against the
offset; the penalty integral is gamma-free, so optimizing gamma only moves
the coherent term.
"""
import math

from prelog_lab import bounds, fading, spectra

model = fading.gaussian_model(spectra.flat_band(0.25))

print("flat-band Rayleigh, gamma fixed at 1")
print(f"{'snr':>8s} {'coherent':>10s} {'penalty':>10s} {'bound':>10s} {'ratio':>8s}")
for snr in (1e2, 1e4, 1e8, 1e12, 1e16):
    rep = bounds.capacity_lower_bound(model, snr, 1.0)
    ratio = max(rep.bound, 0.0) / math.log(snr)
    print(f"{snr:8.0e} {rep.coherent:10.4f} {rep.penalty_spectral:10.4f}"
          f" {rep.bound:10.4f} {ratio:8.4f}")

print("\nsame channel with the threshold optimized per snr")
print(f"{'snr':>8s} {'gamma*':>8s} {'tail':>8s} {'bound':>10s} {'ratio':>8s}")
for snr in (1e2, 1e4, 1e8, 1e12, 1e16):
    rep = bounds.capacity_lower_bound(model, snr)  # gamma=None: optimized
    print(f"{snr:8.0e} {rep.gamma:8.4f} {rep.tail:8.4f} {rep.bound:10.4f} {rep.ratio:8.4f}")

# the small optimal gamma keeps almost all tail mass while the offset
# -p (1 - ln gamma^2) stays bounded; the ratio climbs toward the pre-log 1/2
print("\nwhite-spectrum control: memory-free fading has no pre-log")
white = fading.gaussian_model(spectra.white())
for snr in (1e4, 1e8, 1e16):
    rep = bounds.capacity_lower_bound(white, snr)
    print(f"  snr={snr:.0e}  bound={rep.bound:+.4f}  clamped ratio={rep.ratio:.4f}")
