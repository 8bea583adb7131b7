"""Scenario files: declarative JSON descriptions of a fading model plus the
study parameters, validated against the schema shipped with the package.

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

import jsonschema
import numpy as np

from . import fading, spectra

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
def _validator():
    """Validator for the shipped schema, built once per process.  The schema
    is checked against its metaschema in tests/test_scenario.py, not here."""
    from importlib import resources

    text = (resources.files("prelog_lab") / "schema" / "scenario.schema.json").read_text()
    schema = json.loads(text)
    return jsonschema.validators.validator_for(schema)(schema)


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
    pieces = tuple(_piece_from_dict(p, f"$.model.spectrum.pieces[{i}]")
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
        raise ScenarioError(f"$.model: {exc}") from None


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
            raise ScenarioError("$.snr_grid: stop must exceed start")
        grid = np.logspace(math.log10(data["start"]), math.log10(data["stop"]),
                           data["points"])
    else:
        grid = np.asarray(data, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ScenarioError("$.snr_grid: must be strictly increasing")
    return tuple(float(s) for s in grid)


def scenario_from_dict(data):
    error = jsonschema.exceptions.best_match(_validator().iter_errors(data))
    if error is not None:
        path, message = list(error.absolute_path), error.message
        if error.validator is None:  # a kind rule's {field: false}; the path lost the field
            obj = functools.reduce(lambda node, key: node[key], path, data)
            path.append(next(k for k, v in obj.items() if v is error.instance))
            message = f"not allowed for kind {obj['kind']!r}"
        loc = "$" + "".join(f"[{p!r}]" if isinstance(p, str) else f"[{p}]" for p in path)
        raise ScenarioError(f"{loc}: {message}")
    gamma_mode = data.get("gamma_mode", "optimized")
    snr_grid = _grid_from(data["snr_grid"])
    return Scenario(
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
