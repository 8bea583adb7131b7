"""Scenario files: declarative JSON descriptions of a fading model plus the
study parameters, validated against the schema shipped with the package (read
and interpreted here, keyword by keyword) and against the rules that the
runners of the listed outputs put on their fields.

Loading normalizes the description (complex numbers as [re, im] pairs, SNR
grids expanded to explicit lists, filter taps in their unit-power form) and
resolves every omitted field to its default, once, so a load -> dump -> load
round trip is the identity on every field.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import fading, mcsim, spectra

DEFAULT_N_LIST = (128, 256, 512, 1024, 2048)
DEFAULT_PATH_LENGTH = 65536
DEFAULT_SEGMENT_LENGTH = 256


class ScenarioError(ValueError):
    """A scenario failed validation; the message carries a location."""


@dataclass(frozen=True)
class Scenario:
    name: str
    model: fading.FadingModel
    snr_grid: tuple
    gamma: float | None  # the fixed threshold, None when optimized per snr
    outputs: tuple
    seed: int
    snr: float  # the szego snr, the first grid point unless given
    n_list: tuple
    mc_samples: int | None
    path_length: int
    segment_length: int

    def with_seed(self, seed):
        if seed < 0:
            raise ScenarioError("seed must be nonnegative")
        return replace(self, seed=int(seed))


@functools.lru_cache(maxsize=1)
def _schema():
    """The shipped schema, read once per process.  It is checked against its
    metaschema in tests/test_scenario.py, not here."""
    from importlib import resources

    return json.loads(
        (resources.files("prelog_lab") / "schema" / "scenario.schema.json").read_text())


# The schema is interpreted here, keyword by keyword, because importing a
# JSON Schema library costs a CLI job more than the job computes.  The tests
# check this interpreter against such a library.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _same(a, b):
    """JSON equality: 1.0 is 1, but True is not 1."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _resolve(schema):
    """A local reference "#/$defs/name" as the schema it names."""
    while "$ref" in schema:
        schema = functools.reduce(dict.__getitem__, schema["$ref"][2:].split("/"), _schema())
    return schema


def _at(*path):
    """The location of a JSON value as every rejection prints it: $['model']['taps'][0]."""
    return "$" + "".join(f"[{p!r}]" if isinstance(p, str) else f"[{p}]" for p in path)


def _valid(schema, value):
    return next(_faults(schema, value), None) is None


def _faults(schema, value, path=()):
    """Yield (path, message) for each way `value` breaks `schema`, in document
    order.  A value of the wrong type yields that alone; an object yields its
    missing keys, then its members in the order they appear."""
    schema = _resolve(schema)
    if "type" in schema and not _TYPES[schema["type"]](value):
        yield path, f"{value!r} is not of type {schema['type']!r}"
        return
    if "enum" in schema and not any(_same(value, e) for e in schema["enum"]):
        yield path, f"{value!r} is not one of {schema['enum']!r}"
    if "const" in schema and not _same(value, schema["const"]):
        yield path, f"{schema['const']!r} was expected"
    if _TYPES["number"](value):
        if value < schema.get("minimum", -math.inf):
            yield path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if value > schema.get("maximum", math.inf):
            yield path, f"{value!r} is greater than the maximum of {schema['maximum']!r}"
        if value <= schema.get("exclusiveMinimum", -math.inf):
            yield path, (f"{value!r} is less than or equal to the minimum of "
                         f"{schema['exclusiveMinimum']!r}")
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        yield path, f"{value!r} is too short"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, f"{value!r} is too short"
        if len(value) > schema.get("maxItems", math.inf):
            yield path, f"{value!r} is too long"
        if schema.get("uniqueItems") and any(_same(a, b) for i, a in enumerate(value)
                                             for b in value[:i]):
            yield path, f"{value!r} has non-unique elements"
        if "items" in schema:
            for i, item in enumerate(value):
                yield from _faults(schema["items"], item, path + (i,))
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        properties = schema.get("properties", {})
        for key, item in value.items():
            if properties.get(key) is False:  # only the kind rules forbid a key
                yield path + (key,), f"not allowed for kind {value['kind']!r}"
            elif key in properties:
                yield from _faults(properties[key], item, path + (key,))
            elif schema.get("additionalProperties") is False:
                yield path, f"Additional properties are not allowed ({key!r} was unexpected)"
    if "oneOf" in schema:
        branches = [_resolve(b) for b in schema["oneOf"]]
        valid = sum(_valid(b, value) for b in branches)
        typed = [b for b in branches if "type" in b and _TYPES[b["type"]](value)]
        if valid == 0 and len(typed) == 1:  # the fault inside the branch meant
            yield from _faults(typed[0], value, path)
        elif valid == 0:
            yield path, f"{value!r} is not valid under any of the given schemas"
        elif valid > 1:
            yield path, f"{value!r} is valid under more than one of the given schemas"
    for rule in schema.get("allOf", ()):
        yield from _faults(rule, value, path)
    if "if" in schema and _valid(schema["if"], value):
        yield from _faults(schema.get("then", {}), value, path)


def _complex_from(value):
    return complex(float(value[0]), float(value[1]))


def _piece_from_dict(data, where):
    dens = data["density"]
    if dens["kind"] == "constant":
        coeffs = (float(dens["value"]),)
    else:
        coeffs = tuple(_complex_from(c) if isinstance(c, list) else complex(float(c))
                       for c in dens["coeffs"])
    try:
        return spectra.Piece(float(data["lo"]), float(data["hi"]), coeffs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _spectrum_from_dict(data):
    pieces = tuple(_piece_from_dict(p, _at("model", "spectrum", "pieces", i))
                   for i, p in enumerate(data.get("pieces", [])))
    masses = tuple((float(loc), float(w)) for loc, w in data.get("point_masses", []))
    return spectra.SpectralDistribution(pieces=pieces, point_masses=masses)


def _density_to_dict(piece):
    if piece.order == 0 and piece.coeffs[0].imag == 0:
        return {"kind": "constant", "value": piece.coeffs[0].real}
    return {"kind": "trig", "coeffs": [[c.real, c.imag] for c in piece.coeffs]}


def _spectrum_to_dict(spectrum):
    out = {}
    if spectrum.pieces:
        out["pieces"] = [{"lo": p.lo, "hi": p.hi, "density": _density_to_dict(p)}
                         for p in spectrum.pieces]
    if spectrum.point_masses:
        out["point_masses"] = [[loc, w] for loc, w in spectrum.point_masses]
    return out


def _model_from_dict(data):
    mean = _complex_from(data.get("mean", [0.0, 0.0]))
    try:
        if data["kind"] == "gaussian":
            return fading.gaussian_model(_spectrum_from_dict(data["spectrum"]), mean)
        taps = [_complex_from(t) for t in data["taps"]]
        return fading.fir_model(taps, data.get("innovation", fading.COMPLEX_GAUSSIAN), mean)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"$['model']: {exc}") from None


def _model_to_dict(model):
    out = {"kind": model.kind, "mean": [model.mean.real, model.mean.imag]}
    if model.kind == fading.GAUSSIAN:
        out["spectrum"] = _spectrum_to_dict(model.spectrum)
    else:
        out["taps"] = [[t.real, t.imag] for t in model.taps]
        out["innovation"] = model.innovation
    return out


def _grid_from(data):
    if isinstance(data, dict):
        if data["points"] > 1 and data["stop"] <= data["start"]:
            raise ScenarioError("$['snr_grid']: stop must exceed start")
        grid = np.logspace(math.log10(data["start"]), math.log10(data["stop"]),
                           int(data["points"]))  # an integer may be written 3.0
    else:
        grid = np.asarray(data, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ScenarioError("$['snr_grid']: must be strictly increasing")
    return tuple(float(s) for s in grid)


def _runner_faults(scen):
    """(field, reason) for each rule that a listed output's runner puts on the
    scenario beyond the schema; the runners check the same thresholds."""
    samples = scen.mc_samples
    if "mi" in scen.outputs and samples is not None and samples < mcsim.MIN_SAMPLES:
        yield "mc_samples", f"mi needs at least {mcsim.MIN_SAMPLES} samples"
    if "spectrum-check" in scen.outputs:
        fault = mcsim.welch_fault(scen.path_length, scen.segment_length)
        if fault is not None:
            yield fault


def scenario_from_dict(data):
    for path, message in _faults(_schema(), data):
        raise ScenarioError(f"{_at(*path)}: {message}")
    gamma_mode = data.get("gamma_mode", "optimized")
    snr_grid = _grid_from(data["snr_grid"])
    scen = Scenario(
        name=data["name"],
        model=_model_from_dict(data["model"]),
        snr_grid=snr_grid,
        gamma=None if gamma_mode == "optimized" else float(gamma_mode),
        outputs=tuple(data["outputs"]),
        seed=int(data.get("seed", 0)),
        snr=float(data.get("snr", snr_grid[0])),
        n_list=tuple(int(n) for n in data.get("n_list", DEFAULT_N_LIST)),
        mc_samples=int(data["mc_samples"]) if "mc_samples" in data else None,
        path_length=int(data.get("path_length", DEFAULT_PATH_LENGTH)),
        segment_length=int(data.get("segment_length", DEFAULT_SEGMENT_LENGTH)),
    )
    for field, reason in _runner_faults(scen):
        raise ScenarioError(f"{_at(field)}: {reason}")
    return scen


def scenario_to_dict(scen):
    """Canonical JSON form; load(dump(s)) reproduces s field-by-field."""
    out = {
        "name": scen.name,
        "model": _model_to_dict(scen.model),
        "snr_grid": list(scen.snr_grid),
        "gamma_mode": "optimized" if scen.gamma is None else scen.gamma,
        "outputs": list(scen.outputs),
        "seed": scen.seed,
        "snr": scen.snr,
        "n_list": list(scen.n_list),
        "path_length": scen.path_length,
        "segment_length": scen.segment_length,
    }
    if scen.mc_samples is not None:
        out["mc_samples"] = scen.mc_samples
    return out


def _finite(token):
    """A JSON number as a float, rejecting NaN, Infinity and overflows like 1e999."""
    value = float(token)
    if not math.isfinite(value):
        raise ScenarioError(f"non-finite number {token} is not allowed")
    return value


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return scenario_from_dict(
            json.loads(text, parse_float=_finite, parse_constant=_finite))
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def save_scenario(scen, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scen), fh, indent=2)
        fh.write("\n")
