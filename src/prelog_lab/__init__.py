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
declarative scenario files.  Import the layers by name, e.g.
`from prelog_lab import bounds, fading, spectra`.
"""

__version__ = "0.1.0"
