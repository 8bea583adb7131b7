"""Pre-log asymptotics: the bound's growth rate meets the flat-set measure.

For Gaussian fading the capacity pre-log equals mu{F' = 0}.  The bound's
ratio to ln(snr) climbs toward that value; extrapolating the ratios in
1/ln(snr) recovers it to a few percent at desk-scale snr.
"""
from prelog_lab import asymptotics, fading, spectra

grid = (1e4, 1e6, 1e8, 1e10, 1e12, 1e14, 1e16)

for name, half in (("flat_band(0.1)", 0.1), ("flat_band(0.25)", 0.25),
                   ("flat_band(0.4)", 0.4)):
    spectrum = spectra.flat_band(half)
    model = fading.gaussian_model(spectrum)
    est = asymptotics.prelog_lower_estimate(model, grid)
    target = asymptotics.gaussian_prelog(spectrum)
    print(f"{name}: target pre-log = {target:.2f}")
    for snr, ratio in zip(est.snr_grid, est.ratios):
        print(f"  snr={snr:8.0e}  ratio={ratio:.4f}")
    print(f"  extrapolated intercept = {est.intercept:.4f}\n")

# the penalty_ratio decomposition explains the gap: the integral divided by
# ln(snr) tends to 1 - mu_flat, the complement of the flat set
spectrum = spectra.flat_band(0.25)
report = asymptotics.limit_ratio_check(spectrum, [1e6, 1e9, 1e12], tol=0.02)
print(f"penalty/ln(snr) -> 1 - mu_flat = {report.target:.2f}:"
      f" ratios {[round(r, 4) for r in report.ratios]}"
      f" converged={report.converged}")

white = fading.gaussian_model(spectra.white())
est = asymptotics.prelog_lower_estimate(white, grid)
print(f"\nwhite control intercept = {est.intercept:.6f} (no memory, no pre-log)")
