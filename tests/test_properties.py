"""Laws that hold for every input, checked by hypothesis.

The examples are derandomized and no example database is kept, so the suite
stays deterministic; conftest.py keeps hypothesis's other files in pytest's
cache directory, or in a temporary one when that cache is off.
"""

import copy
import functools
import itertools
import json
import math
import operator
import os
import pathlib
import shutil
import subprocess
import sys
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prelog_lab import bounds, fading, mcsim, scenario, spectra

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=50)

snrs = st.floats(1.0, 8.0).map(lambda e: 10.0**e)
any_snrs = st.floats(-3.0, 8.0).map(lambda e: 10.0**e)  # optimize_gamma's snr > 0, below 1 too
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
    grid = np.sort(data.draw(st.lists(any_snrs, min_size=1, max_size=3, unique=True),
                             label="snrs"))
    gammas = np.append(np.logspace(-6.0, 3.0, 601), 1.0)
    tails = fading.marginal_tail(model, gammas)
    for report in bounds.capacity_lower_bound(model, grid):
        ln_snr = np.log(report.snr)
        coherent = tails * ln_snr - tails * (1.0 - 2.0 * np.log(gammas))
        assert report.coherent >= coherent.max() - 1e-9


@pytest.mark.parametrize("path", ["atoms", "step"])
@settings(PROPERTY, max_examples=40)
@given(data=st.data())
def test_step_tail_threshold_is_the_best_atom(path, data):
    # the coherent term is at least the best atom's value, by brute force over
    # the 4^J phase patterns (one circle: its radius): it is that value at an
    # atom, or 0 past the last atom where every atom scores below 0
    model = data.draw(TAIL_PATHS[path], label="model")
    grid = np.sort(data.draw(st.lists(any_snrs, min_size=1, max_size=3, unique=True),
                             label="snrs"))
    taps = [complex(t) for t in model.taps]
    phases = (1, 1j, -1, -1j) if path == "atoms" else (1,)
    atoms = sorted(abs(model.mean + sum(t * w for t, w in zip(taps, ws)))
                   for ws in itertools.product(phases, repeat=len(taps)))
    for report in bounds.capacity_lower_bound(model, grid):
        ln_snr = math.log(report.snr)
        best = max(sum(b >= a for b in atoms) / len(atoms) * (ln_snr - 1.0 + 2.0 * math.log(a))
                   for a in atoms if a > 0)
        assert abs(report.coherent - max(best, 0.0)) <= 4e-12
        assert min(abs(report.gamma - a) for a in [*atoms, 2.0 * atoms[-1]]) \
            <= 1e-12 * report.gamma


@pytest.mark.parametrize("path", TAIL_PATHS)
@settings(PROPERTY, max_examples=20)
@given(data=st.data())
def test_tail_of_an_array_is_the_scalar_tails(path, data):
    model = data.draw(TAIL_PATHS[path], label="model")
    gammas = data.draw(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=20),
                       label="gammas")
    scalars = np.array([fading.marginal_tail(model, g) for g in gammas])
    assert fading.marginal_tail(model, np.array(gammas)).tobytes() == scalars.tobytes()


@settings(PROPERTY, max_examples=25)
@given(piecewise_constant_spectra(), snrs,
       st.lists(st.integers(1, 200), min_size=1, max_size=6))
def test_logdets_of_many_orders_are_the_one_order_calls(spectrum, snr, orders):
    singles = np.array([bounds.penalty_logdet(spectrum, snr, n) for n in orders])
    assert bounds.penalty_logdets(spectrum, snr, orders).tobytes() == singles.tobytes()


def pair(z):
    return [z.real, z.imag]


@st.composite
def scenario_dicts(draw):
    """Scenario files that load: Gaussian models on constant and
    trigonometric bands with point masses, FIR models of every innovation law
    (zero taps included), snr grids as lists and as logspace dicts, and a
    fixed or an optimized threshold; each optional field present or not, and
    within the rules that mi and spectrum-check put on it."""
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
        "snr": snrs,
        "n_list": st.lists(st.integers(1, 4096), min_size=1, max_size=4),
        "mc_samples": st.integers(mcsim.MIN_SAMPLES, 10**6),
        "path_length": st.integers(mcsim.MIN_SEGMENTS * 1024, 2**16),
        "segment_length": st.integers(1, 10).map(lambda k: 2**k),
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


def _property_names(node):
    """Every key that some object of the schema declares."""
    if isinstance(node, list):
        return set().union(*map(_property_names, node))
    if not isinstance(node, dict):
        return set()
    return set(node.get("properties", {})).union(*map(_property_names, node.values()))


SCHEMA = json.loads(
    (pathlib.Path(scenario.__file__).parent / "schema" / "scenario.schema.json").read_text())
SCHEMA_KEYS = _property_names(SCHEMA)
# a valid field that the other kind of the same object reads
FOREIGN = {"gaussian": {"taps": [[1.0, 0.0]], "innovation": "unit_modulus"},
           "fir": {"spectrum": {}}, "constant": {"coeffs": [1.0]}, "trig": {"value": 1.0}}


def scenario_objects(data):
    """(path, object, required keys) for every object of a scenario dict."""
    model = data["model"]
    out = [((), data, {"name", "model", "snr_grid", "outputs"}),
           (("model",), model, {"kind", "spectrum" if model["kind"] == "gaussian" else "taps"})]
    if isinstance(data["snr_grid"], dict):
        out.append((("snr_grid",), data["snr_grid"], {"start", "stop", "points"}))
    if "spectrum" in model:
        out.append((("model", "spectrum"), model["spectrum"], set()))
        for i, piece in enumerate(model["spectrum"]["pieces"]):
            out.append((("model", "spectrum", "pieces", i), piece, {"lo", "hi", "density"}))
            dens = piece["density"]
            out.append((("model", "spectrum", "pieces", i, "density"), dens,
                        {"kind", "value" if dens["kind"] == "constant" else "coeffs"}))
    return out


@st.composite
def rejected_scenarios(draw):
    """A scenario_dicts() example with one fault in one of its objects: an
    unknown key, a field of the other kind, a dropped required key, a value of
    no allowed type, or no kind but both kinds' fields.  Returns the scenario,
    the object's path and the offending key."""
    data = draw(scenario_dicts())
    path, obj, required = draw(st.sampled_from(scenario_objects(data)[::-1]), label="object")
    faults = ["other kind", "no kind"] * ("kind" in obj) + ["missing"] * bool(required)
    faults += ["wrong type", "unknown"]
    fault = draw(st.sampled_from(faults), label="fault")
    if fault == "unknown":
        key = draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in SCHEMA_KEYS),
                   label="key")
        obj[key] = 0
    elif fault == "wrong type":
        key = draw(st.sampled_from(sorted(obj)), label="key")
        obj[key] = draw(st.sampled_from([None, True]), label="value")
    elif fault == "missing":
        key = draw(st.sampled_from(sorted(required)), label="key")
        del obj[key]
    elif fault == "other kind":
        key, value = draw(st.sampled_from(sorted(FOREIGN[obj["kind"]].items())), label="key")
        obj[key] = copy.deepcopy(value)
    else:
        kinds = ("gaussian", "fir") if obj["kind"] in ("gaussian", "fir") else ("constant", "trig")
        for kind in kinds:
            for field, value in FOREIGN[kind].items():
                obj.setdefault(field, copy.deepcopy(value))
        key = "kind"
        del obj[key]
    return data, path, key


@settings(PROPERTY, max_examples=100)
@given(rejected_scenarios())
def test_rejected_scenario_names_the_offending_field(case):
    # the error sits at the faulty object and names the key after that location,
    # as the next path element or quoted in the message
    data, path, key = case
    with pytest.raises(scenario.ScenarioError) as info:
        scenario.scenario_from_dict(data)
    loc = "$" + "".join(f"[{p!r}]" for p in path)
    text = str(info.value)
    assert text.startswith(loc) and repr(key) in text[len(loc):], text


ORACLE = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def _words(node):
    """Every string the schema's enums and consts allow."""
    if isinstance(node, list):
        return set().union(*map(_words, node))
    if not isinstance(node, dict):
        return set()
    own = set(node.get("enum", ())) | ({node["const"]} if "const" in node else set())
    return own.union(*map(_words, node.values()))


# replacement nodes: JSON values of every type, made of words and keys the
# schema knows, so that a replacement often passes the outer checks
json_values = st.recursive(
    st.none() | st.booleans() | st.sampled_from([0, 1, -1, 1.0, 0.5, 2.5, 1e9])
    | st.sampled_from(sorted(_words(SCHEMA) | {""})),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(sorted(SCHEMA_KEYS | {"x"})), inner, max_size=3),
    max_leaves=6)


def _node_paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _node_paths(child, path + (key,))


@st.composite
def mutated_scenarios(draw):
    """A scenario_dicts() example with 1-3 of its nodes replaced or deleted."""
    data = draw(scenario_dicts())
    for _ in range(draw(st.integers(1, 3), label="mutations")):
        path = draw(st.sampled_from(list(_node_paths(data))[1:]), label="node")
        parent = functools.reduce(operator.getitem, path[:-1], data)
        if draw(st.booleans(), label="delete"):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values, label="value")
    return data


def oracle_location(data):
    """The path of jsonschema's best error, with the field that a false
    subschema rejects appended (jsonschema's path stops at its object)."""
    error = jsonschema.exceptions.best_match(ORACLE.iter_errors(data))
    path = list(error.absolute_path)
    if error.validator is None:
        obj = functools.reduce(operator.getitem, path, data)
        path.append(next(k for k, v in obj.items() if v is error.instance))
    return tuple(path)


@pytest.mark.parametrize("cases", [scenario_dicts(), rejected_scenarios().map(lambda c: c[0]),
                                   mutated_scenarios()],
                         ids=["accepted", "one fault", "mutated"])
@settings(PROPERTY, max_examples=60)
@given(data=st.data())
def test_schema_interpreter_agrees_with_jsonschema(cases, data):
    # accept and reject as jsonschema does; where both find one fault, at the
    # same location (best_match descends into the oneOf branch meant).  With
    # several faults jsonschema reports the shallowest, the interpreter the first.
    doc = data.draw(cases, label="scenario")
    faults = list(scenario._faults(scenario._schema(), doc))
    errors = list(ORACLE.iter_errors(doc))
    assert bool(faults) == bool(errors), (faults, errors)
    if len(faults) == len(errors) == 1:
        assert faults[0][0] == oracle_location(doc), (faults, errors[0].message)


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
