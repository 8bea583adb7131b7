"""Acceptance gate: one test per release criterion, tolerances stated inline.

The terminal summary hook in conftest.py prints a PASS/FAIL line per criterion
at the end of the run.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from prelog_lab import asymptotics, bounds, cli, fading, mcsim, spectra


def test_01_gaussian_prelog_formula():
    """Flat-set measure formula on 10 piecewise-constant spectra, exact to 1e-12."""
    cases = [
        (spectra.flat_band(0.1), 0.8),
        (spectra.flat_band(0.25), 0.5),
        (spectra.flat_band(0.4), 0.2),
        (spectra.white(), 0.0),
        (spectra.piecewise_constant([(-0.5, 0.0, 0.0), (0.0, 0.5, 2.0)]), 0.5),
        (spectra.piecewise_constant([(-0.5, -0.3, 2.5), (-0.3, 0.2, 1.0),
                                     (0.2, 0.5, 0.0)]), 0.3),
        (spectra.mixed_spectrum([(-0.5, -0.1, 0.0), (-0.1, 0.1, 3.0),
                                 (0.1, 0.5, 0.0)], [(0.3, 0.4)]), 0.8),
        (spectra.piecewise_constant([(-0.5, -0.1, 1.25), (-0.1, 0.1, 0.0),
                                     (0.1, 0.5, 1.25)]), 0.2),
        (spectra.piecewise_constant([(-0.5, -0.4, 3.0), (-0.4, 0.3, 0.0),
                                     (0.3, 0.4, 3.0), (0.4, 0.5, 4.0)]), 0.7),
        (spectra.point_mass_spectrum([(0.0, 0.5), (0.25, 0.5)]), 1.0),
    ]
    assert len(cases) == 10
    for spectrum, expected in cases:
        assert abs(asymptotics.gaussian_prelog(spectrum) - expected) <= 1e-12


def test_02_szego_convergence():
    """Log-det penalty approaches the spectral integral: gap nonincreasing over
    n in {128..2048} and below 0.1 nats at n = 2048 (flat band, snr 1e4)."""
    spectrum = spectra.flat_band(0.25)
    snr = 1e4
    integral = bounds.penalty_spectral(spectrum, snr)
    gaps = [abs(bounds.penalty_logdet(spectrum, snr, n) - integral)
            for n in (128, 256, 512, 1024, 2048)]
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.1


def test_03_limit_decomposition():
    """penalty_ratio converges to 1 - mu_flat (within 0.02, or 0.03 for a
    density below 1 everywhere) with nonincreasing error over snr in
    {1e8, 1e10, 1e12}."""
    grid = [1e8, 1e10, 1e12]
    cases = [
        (spectra.flat_band(0.25), 0.02),   # half the band flat
        (spectra.white(), 0.02),           # no flat set
        (spectra.mixed_spectrum([(-0.5, 0.5, 0.5)], [(0.0, 0.5)]), 0.03),  # density 0.5
    ]
    for spectrum, tol in cases:
        report = asymptotics.limit_ratio_check(spectrum, grid, tol=tol)
        assert report.converged
        errors = [abs(r - report.target) for r in report.ratios]
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))


def test_04_prelog_extrapolation_desk_scale():
    """Optimized-threshold bound ratios for the flat-band Rayleigh channel are
    nondecreasing and extrapolate to within 0.05 of the pre-log 1/2 (one-sided:
    intercept >= 0.45); the white-spectrum control extrapolates to 0."""
    grid = (1e4, 1e6, 1e8, 1e10, 1e12, 1e14, 1e16)
    model = fading.gaussian_model(spectra.flat_band(0.25))
    est = asymptotics.prelog_lower_estimate(model, grid)
    assert all(b >= a - 1e-12 for a, b in zip(est.ratios, est.ratios[1:]))
    assert abs(est.intercept - 0.5) <= 0.05
    assert est.intercept >= 0.45
    control = asymptotics.prelog_lower_estimate(
        fading.gaussian_model(spectra.white()), grid)
    assert abs(control.intercept) <= 0.05


def test_05_coherent_inequality():
    """MC mutual information dominates the analytic coherent term for every
    threshold on a 10-point grid, with 3 standard errors of margin, at
    snr in {10, 100, 1000}, N = 1e6, over 5 seeds and both fading laws."""
    models = [fading.gaussian_model(spectra.white()),
              fading.fir_model([1.0], fading.UNIT_MODULUS)]
    gammas = np.logspace(-1.0, 0.5, 10)
    violations = 0
    for model in models:
        for snr in (10.0, 100.0, 1000.0):
            terms = [bounds.coherent_term(snr, g, fading.marginal_tail(model, g))
                     for g in gammas]
            for seed in range(5):
                est = mcsim.estimate_coherent_mi(model, snr, 10**6,
                                                 [seed, 17])
                floor = est.value + 3.0 * est.standard_error
                violations += sum(term > floor for term in terms)
    assert violations == 0


def test_06_matrix_step_properties(rng):
    """det(I + AB) = det(I + BA) to relative 1e-9, and log-det monotonicity
    under the peak constraint to 1e-10, on 200 random instances each."""
    for _ in range(200):
        m, k = rng.integers(1, 8, size=2)
        a = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / 2
        b = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / 2
        d1 = np.linalg.det(np.eye(m) + a @ b)
        d2 = np.linalg.det(np.eye(k) + b @ a)
        assert abs(d1 - d2) <= 1e-9 * max(abs(d1), abs(d2), 1.0)

    for _ in range(200):
        n = int(rng.integers(2, 10))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cov = g @ g.conj().T / n
        peak = float(rng.uniform(0.5, 2.0))
        x = (peak * np.sqrt(rng.random(n))
             * np.exp(2j * np.pi * rng.random(n)))
        dx = np.diag(x)
        inner = np.eye(n) + dx @ cov @ dx.conj().T
        outer = np.eye(n) + peak**2 * cov
        ld_inner = np.linalg.slogdet(inner)[1]
        ld_outer = np.linalg.slogdet(outer)[1]
        assert ld_inner <= ld_outer + 1e-10


def test_07_simulation_fidelity():
    """Simulated paths match their law: lag-{0,1,2,4,8} autocovariances within
    5 standard errors at n = 2^16, under 5% Welch mass outside the band, and
    identical covariance matrices for same-spectrum Gaussian and
    four-point-phase models to 1e-12."""
    spectrum = spectra.flat_band(0.25)
    model = fading.gaussian_model(spectrum)
    n = 2**16
    values = fading.simulate_path(model, n, 29)
    tail_lags = np.arange(1, 400)
    tail_r = spectra.autocovariances(spectrum, tail_lags)
    for lag in (0, 1, 2, 4, 8):
        want = spectra.autocovariance(spectrum, lag)
        got = np.mean(values[lag:] * np.conj(values[:n - lag]))
        se = math.sqrt((1.0 + 2.0 * float(np.sum(np.abs(tail_r)**2))) / n)
        assert abs(got - want) <= 5 * se

    freqs, dens = mcsim.empirical_spectrum(values, 256)
    outside = np.abs(freqs) > 0.3
    assert dens[outside].sum() / dens.sum() < 0.05

    taps = [1 / math.sqrt(2), 1 / math.sqrt(2)]
    four_point = fading.fir_model(taps, fading.FOUR_POINT_PHASE)
    gauss = fading.gaussian_model(fading.fir_spectrum(taps))
    k_fp = spectra.toeplitz_covariance(four_point.spectrum, 64)
    k_g = spectra.toeplitz_covariance(gauss.spectrum, 64)
    direct = scipy.linalg.toeplitz(np.r_[1.0, 0.5, np.zeros(62)])
    assert np.max(np.abs(k_fp - k_g)) <= 1e-12
    assert np.max(np.abs(k_g - direct)) <= 1e-12


def test_08_zero_mass_check():
    """Continuity of the fading law at zero: Rayleigh mass below 0.01 within
    3 standard errors of 1 - exp(-1e-4); exactly zero for unit-modulus fading."""
    rayleigh = fading.gaussian_model(spectra.white())
    est = fading.zero_mass_check(rayleigh, 0.01, seed=5)
    want = 1.0 - math.exp(-1e-4)
    assert abs(est.probability - want) <= 3 * max(est.standard_error,
                                                  math.sqrt(want / est.sample_count))
    unit = fading.fir_model([1.0], fading.UNIT_MODULUS)
    assert fading.zero_mass_check(unit, 0.01, seed=5).probability == 0.0


def test_09_cli_determinism(tmp_path, capsys):
    """Each CLI subcommand is byte-identical across repeat runs for a fixed
    scenario and seed."""
    scenario_path = tmp_path / "determinism.json"
    scenario_path.write_text(json.dumps({
        "name": "determinism",
        "model": {"kind": "gaussian",
                  "spectrum": {"pieces": [{"lo": -0.25, "hi": 0.25,
                                           "density": {"kind": "constant",
                                                       "value": 2.0}}]}},
        "snr_grid": [1e4, 1e6, 1e8, 1e10],
        "outputs": ["bound", "prelog", "szego", "mi", "spectrum-check"],
        "seed": 13,
        "mc_samples": 10000,
        "n_list": [16, 32],
        "path_length": 4096,
        "segment_length": 128,
    }))
    for command in ("bound", "prelog", "szego", "mi", "spectrum-check"):
        outputs = set()
        for _ in range(2):
            code = cli.main([command, "--scenario", str(scenario_path)])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            outputs.add(captured.out)
        assert len(outputs) == 1, f"{command} output varies across runs"
