"""Capacity lower bounds and pre-log asymptotics for peak-power-limited
non-coherent fading channels with memory.

The package evaluates, at desk scale, the capacity lower bound

    C(SNR) >= P(|H1| >= G) ln SNR - P(|H1| >= G)(1 - ln G^2)
              - integral ln(1 + SNR F'(lam)) dlam        [nats/channel use]

for stationary ergodic fading with spectral distribution F, together with the
pieces needed to study its high-SNR pre-log: exact spectral representations
(`spectra`), Gaussian and non-Gaussian fading models of a given spectrum
(`fading`), the bound and its Toeplitz log-det penalty (`bounds`), ratio
limits and pre-log extrapolation (`asymptotics`), and Monte Carlo validation
of the coherent term (`mcsim`).  The `prelog-lab` CLI drives everything from
declarative scenario files.
"""

from .asymptotics import (LimitRatioReport, PrelogEstimate, gaussian_prelog,
                          limit_ratio_check, penalty_ratio,
                          prelog_lower_estimate)
from .bounds import (BoundReport, capacity_lower_bound, coherent_term,
                     optimize_gamma, penalty_logdet, penalty_logdets,
                     penalty_spectral)
from .errors import DegenerateSampleError, NumericalError, UnsupportedModelError
from .fading import (FadingModel, ZeroMassEstimate, draw_marginal, fir_model,
                     fir_spectrum, gaussian_model, marginal_tail, simulate_path,
                     zero_mass_check)
from .mcsim import (EntropyEstimate, empirical_spectrum, estimate_coherent_mi,
                    estimate_entropy, sample_inputs, simulate_channel)
from .scenario import (Scenario, ScenarioError, load_scenario, save_scenario,
                       scenario_from_dict, scenario_to_dict)
from .spectra import (HarmonicPartition, Piece, SpectralDistribution,
                      TrigPolyDensity, autocovariance, autocovariances,
                      cumulative, density_at, flat_band, flat_set_measure,
                      mixed_spectrum, partition_measures, piecewise_constant,
                      point_mass_spectrum, toeplitz_covariance, white)

__version__ = "0.1.0"

__all__ = [
    # asymptotics
    "LimitRatioReport", "PrelogEstimate", "gaussian_prelog", "limit_ratio_check",
    "penalty_ratio", "prelog_lower_estimate",
    # bounds
    "BoundReport", "capacity_lower_bound", "coherent_term", "optimize_gamma",
    "penalty_logdet", "penalty_logdets", "penalty_spectral",
    # errors
    "DegenerateSampleError", "NumericalError", "UnsupportedModelError",
    # fading
    "FadingModel", "ZeroMassEstimate", "draw_marginal", "fir_model",
    "fir_spectrum", "gaussian_model", "marginal_tail", "simulate_path",
    "zero_mass_check",
    # mcsim
    "EntropyEstimate", "empirical_spectrum", "estimate_coherent_mi",
    "estimate_entropy", "sample_inputs", "simulate_channel",
    # scenario
    "Scenario", "ScenarioError", "load_scenario", "save_scenario",
    "scenario_from_dict", "scenario_to_dict",
    # spectra
    "HarmonicPartition", "Piece", "SpectralDistribution", "TrigPolyDensity",
    "autocovariance", "autocovariances", "cumulative", "density_at",
    "flat_band", "flat_set_measure", "mixed_spectrum", "partition_measures",
    "piecewise_constant", "point_mass_spectrum", "toeplitz_covariance", "white",
]
