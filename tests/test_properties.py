"""Laws that hold for every input, checked by hypothesis.

The examples are derandomized and no example database is kept, so the suite
stays deterministic; conftest.py keeps hypothesis's other files in pytest's
cache directory, or in a temporary one when that cache is off.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prelog_lab import bounds, fading, scenario, spectra

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=50)

snrs = st.floats(1.0, 8.0).map(lambda e: 10.0**e)
coefficients = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                                  allow_nan=False, allow_infinity=False)
means = st.complex_numbers(min_magnitude=0.05, max_magnitude=2.0,
                           allow_nan=False, allow_infinity=False)


@st.composite
def piecewise_constant_spectra(draw):
    """Bands on a 1/64 grid of [-1/2, 1/2], some of them empty (flat set)."""
    cuts = draw(st.sets(st.integers(-31, 31), max_size=6))
    edges = [-0.5, *(c / 64 for c in sorted(cuts)), 0.5]
    weights = draw(st.lists(st.integers(0, 4), min_size=len(edges) - 1,
                            max_size=len(edges) - 1))
    weights[0] = max(weights[0], 1)
    total = sum(w * (hi - lo) for w, lo, hi in zip(weights, edges, edges[1:]))
    return spectra.piecewise_constant([(lo, hi, w / total) for w, lo, hi
                                       in zip(weights, edges, edges[1:]) if w])


@PROPERTY
@given(piecewise_constant_spectra(), snrs)
def test_logdet_penalty_falls_to_the_spectral_integral(spectrum, snr):
    # the Schur pivots shrink by 1 - |rho|^2, so their running mean cannot
    # rise, and it tends to the Szego limit from above
    logdets = bounds.penalty_logdets(spectrum, snr, range(1, 257))
    assert np.all(np.diff(logdets) <= 1e-12)
    assert logdets.min() >= bounds.penalty_spectral(spectrum, snr) - 1e-12


# one strategy per code path of marginal_tail
TAIL_PATHS = {
    "rayleigh": st.just(fading.gaussian_model(spectra.white())),
    "rice": means.map(lambda d: fading.gaussian_model(spectra.white(), d=d)),
    "step": coefficients.map(lambda a: fading.fir_model([a], fading.UNIT_MODULUS)),
    "arccos": st.one_of(
        st.tuples(coefficients, means).map(
            lambda am: fading.fir_model([am[0]], fading.UNIT_MODULUS, d=am[1])),
        st.lists(coefficients, min_size=2, max_size=2).map(
            lambda a: fading.fir_model(a, fading.UNIT_MODULUS))),
    "atoms": st.tuples(st.lists(coefficients, min_size=1, max_size=4),
                       st.just(0.0) | means).map(
        lambda ad: fading.fir_model(ad[0], fading.FOUR_POINT_PHASE, d=ad[1])),
    "three-circles": st.one_of(
        st.lists(coefficients, min_size=3, max_size=3).map(
            lambda a: fading.fir_model(a, fading.UNIT_MODULUS)),
        st.tuples(st.lists(coefficients, min_size=2, max_size=2), means).map(
            lambda ad: fading.fir_model(ad[0], fading.UNIT_MODULUS, d=ad[1]))),
}


def refuse_draws(*args):
    raise AssertionError("marginal_tail drew samples")


@pytest.mark.parametrize("path", TAIL_PATHS)
@PROPERTY
@given(data=st.data())
def test_tail_is_a_survival_function(path, data):
    model = data.draw(TAIL_PATHS[path], label="model")
    grid = np.sort(data.draw(st.lists(st.floats(0.0, 4.0), min_size=1,
                                      max_size=40), label="gammas"))
    with mock.patch.object(fading, "draw_marginal", refuse_draws):
        tails = fading.marginal_tail(model, grid)
        assert fading.marginal_tail(model, 0.0) == 1.0
    assert np.all((tails >= 0.0) & (tails <= 1.0))
    assert np.all(np.diff(tails) <= 1e-15)


@pytest.mark.parametrize("path", TAIL_PATHS)
@settings(PROPERTY, max_examples=20)
@given(data=st.data())
def test_optimized_threshold_beats_every_grid_point(path, data):
    # the bound at optimize_gamma's threshold is at least the bound at Gamma = 1
    # and at each of its 601 grid points, up to its 1e-9 tie rule; the penalty
    # does not depend on Gamma, so the coherent terms are compared
    model = data.draw(TAIL_PATHS[path], label="model")
    grid = np.sort(data.draw(st.lists(snrs, min_size=1, max_size=3, unique=True),
                             label="snrs"))
    gammas = np.append(np.logspace(-6.0, 3.0, 601), 1.0)
    tails = fading.marginal_tail(model, gammas)
    for report in bounds.capacity_lower_bound(model, grid):
        ln_snr = np.log(report.snr)
        coherent = tails * ln_snr - tails * (1.0 - 2.0 * np.log(gammas))
        assert report.coherent >= coherent.max() - 1e-9


def pair(z):
    return [z.real, z.imag]


@st.composite
def scenario_dicts(draw):
    """Scenario files the schema accepts: Gaussian models on constant and
    trigonometric bands with point masses, FIR models of every innovation law
    (zero taps included), snr grids as lists and as logspace dicts, and a
    fixed or an optimized threshold; each optional field present or not."""
    if draw(st.booleans(), label="gaussian"):
        cuts = draw(st.sets(st.integers(-31, 31), max_size=4), label="cuts")
        edges = [-0.5, *(c / 64 for c in sorted(cuts)), 0.5]
        weights = draw(st.lists(st.integers(1, 4), min_size=len(edges) - 1,
                                max_size=len(edges) - 1), label="weights")
        point_mass = draw(st.sampled_from([0.0, 0.25]), label="point mass")
        total = sum(w * (hi - lo) for w, lo, hi in zip(weights, edges, edges[1:]))
        pieces = [{"lo": lo, "hi": hi, "density": {"kind": "constant",
                                                   "value": (1 - point_mass) * w / total}}
                  for w, lo, hi in zip(weights, edges, edges[1:])]
        if draw(st.booleans(), label="trig"):  # 1 + 2 Re(c e^{i 2 pi lam}), |c| <= 1/2
            c = draw(st.complex_numbers(max_magnitude=0.5), label="c") * (1 - point_mass)
            pieces = [{"lo": -0.5, "hi": 0.5, "density": {
                "kind": "trig", "coeffs": [pair(c.conjugate()), 1 - point_mass, pair(c)]}}]
        spectrum = {"pieces": pieces}
        if point_mass:
            spectrum["point_masses"] = [[draw(st.floats(-0.5, 0.5), label="at"), point_mass]]
        model = {"kind": "gaussian", "spectrum": spectrum}
    else:
        taps = draw(st.lists(coefficients | st.just(0j), min_size=1, max_size=5)
                    .filter(any), label="taps")
        model = {"kind": "fir", "taps": [pair(t) for t in taps],
                 "innovation": draw(st.sampled_from(fading.INNOVATION_LAWS))}
    if draw(st.booleans(), label="has mean"):
        model["mean"] = pair(draw(means, label="mean"))
    if draw(st.booleans(), label="logspace"):
        start = draw(snrs, label="start")
        grid = {"start": start, "stop": start * draw(st.floats(1.5, 1e4)),
                "points": draw(st.integers(1, 8))}
    else:
        grid = sorted(draw(st.lists(snrs, min_size=1, max_size=6, unique=True)))
    data = {"name": draw(st.text(min_size=1, max_size=8)), "model": model,
            "snr_grid": grid,
            "outputs": draw(st.lists(st.sampled_from(["bound", "prelog", "szego", "mi",
                                                      "spectrum-check"]),
                                     min_size=1, max_size=5, unique=True))}
    optional = {
        "gamma_mode": st.just("optimized") | st.floats(0.01, 10.0),
        "seed": st.integers(0, 2**32),
        "tolerances": st.floats(1e-3, 1.0).map(lambda fit: {"fit": fit}),
        "snr": snrs,
        "n_list": st.lists(st.integers(1, 4096), min_size=1, max_size=4),
        "mc_samples": st.integers(1, 10**6),
        "path_length": st.integers(16, 2**16),
        "segment_length": st.integers(2, 1024),
    }
    for key, values in optional.items():
        if draw(st.booleans(), label=f"has {key}"):
            data[key] = draw(values, label=key)
    return data


@settings(PROPERTY, max_examples=25)
@given(scenario_dicts())
def test_scenario_dump_then_load_is_the_identity(data):
    scen = scenario.scenario_from_dict(data)
    dumped = json.dumps(scenario.scenario_to_dict(scen))
    again = scenario.scenario_from_dict(json.loads(dumped))
    assert again == scen
    assert json.dumps(scenario.scenario_to_dict(again)) == dumped


def test_no_cacheprovider_run_writes_no_hypothesis_dir(tmp_path):
    # without pytest's cache, conftest.py gives hypothesis a temporary home
    # and removes it, so the checkout gets no ./.hypothesis
    tests = pathlib.Path(__file__).resolve().parent
    (tmp_path / "tests").mkdir()
    (tmp_path / "tmp").mkdir()
    shutil.copy(tests / "conftest.py", tmp_path / "tests")
    (tmp_path / "tests" / "test_one.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "@settings(derandomize=True, database=None, max_examples=5)\n"
        "@given(st.integers())\n"
        "def test_any(i):\n"
        "    assert i == i\n")
    env = {**os.environ, "PYTHONPATH": str(tests.parent / "src"),
           "TMPDIR": str(tmp_path / "tmp")}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "tests"], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not (tmp_path / ".hypothesis").exists()
    assert list((tmp_path / "tmp").iterdir()) == []
