"""Laws that hold for every input, checked by hypothesis.

The examples are derandomized and no example database is kept, so the suite
stays deterministic; conftest.py keeps hypothesis's other files in pytest's
cache directory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prelog_lab import bounds, fading, spectra

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
    # each new law costs a 1e6-draw table, so two laws serve every example
    "draws": st.sampled_from([
        fading.fir_model([1.0, 0.6, 0.3j], fading.UNIT_MODULUS),
        fading.fir_model([0.5, 0.5j], fading.UNIT_MODULUS, d=0.4)]),
}


@pytest.mark.parametrize("path", TAIL_PATHS)
@PROPERTY
@given(data=st.data())
def test_tail_is_a_survival_function(path, data):
    model = data.draw(TAIL_PATHS[path], label="model")
    grid = np.sort(data.draw(st.lists(st.floats(0.0, 4.0), min_size=1,
                                      max_size=40), label="gammas"))
    tails = fading.marginal_tail(model, grid)
    assert np.all((tails >= 0.0) & (tails <= 1.0))
    assert np.all(np.diff(tails) <= 1e-15)
    assert fading.marginal_tail(model, 0.0) == 1.0
