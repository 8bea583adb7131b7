import json
import math
import pathlib

import jsonschema
import pytest

from prelog_lab import fading, scenario, spectra
from prelog_lab.scenario import ScenarioError

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


def minimal_dict(**overrides):
    data = {
        "name": "unit",
        "model": {"kind": "gaussian",
                  "spectrum": {"pieces": [{"lo": -0.5, "hi": 0.5,
                                           "density": {"kind": "constant",
                                                       "value": 1.0}}]}},
        "snr_grid": [10.0, 100.0],
        "outputs": ["bound"],
    }
    data.update(overrides)
    return data


def test_shipped_schema_is_valid_under_its_metaschema():
    # loading trusts the shipped schema, so its metaschema check lives here
    path = ROOT / "src" / "prelog_lab" / "schema" / "scenario.schema.json"
    schema = json.loads(path.read_text())
    jsonschema.validators.validator_for(schema).check_schema(schema)


class TestRoundTrips:
    def test_shipped_scenarios_round_trip(self, tmp_path):
        files = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(files) == 4
        for f in files:
            scen = scenario.load_scenario(f)
            again = scenario.scenario_from_dict(scenario.scenario_to_dict(scen))
            assert again == scen
            out = tmp_path / f.name
            scenario.save_scenario(scen, out)
            assert scenario.load_scenario(out) == scen

    def test_fir_model_round_trip(self):
        data = minimal_dict(model={"kind": "fir",
                                   "taps": [[3.0, 0.0], [0.0, 4.0]],
                                   "innovation": "four_point_phase"})
        scen = scenario.scenario_from_dict(data)
        assert scen.model.kind == fading.FIR
        assert scen.model.innovation == fading.FOUR_POINT_PHASE
        # taps come back normalized to unit power
        assert abs(scen.model.taps[0] - 0.6) < 1e-12
        assert abs(scen.model.taps[1] - 0.8j) < 1e-12
        again = scenario.scenario_from_dict(scenario.scenario_to_dict(scen))
        assert again == scen

    def test_defaults_are_applied(self):
        scen = scenario.scenario_from_dict(minimal_dict())
        assert scen.gamma is None
        assert scen.seed == 0
        assert scen.snr == scen.snr_grid[0] == 10.0
        assert scen.mc_samples is None
        assert scen.n_list == scenario.DEFAULT_N_LIST
        assert scen.path_length == scenario.DEFAULT_PATH_LENGTH
        assert scen.segment_length == scenario.DEFAULT_SEGMENT_LENGTH

    def test_minimal_scenario_dumps_its_resolved_defaults(self):
        scen = scenario.scenario_from_dict(minimal_dict())
        out = scenario.scenario_to_dict(scen)
        assert out["snr"] == out["snr_grid"][0] == 10.0
        assert out["gamma_mode"] == "optimized"
        assert "mc_samples" not in out and "tolerances" not in out
        assert scenario.scenario_from_dict(out) == scen


class TestGridExpansion:
    def test_logspace_dict(self):
        scen = scenario.scenario_from_dict(
            minimal_dict(snr_grid={"start": 10.0, "stop": 1000.0, "points": 3}))
        assert scen.snr_grid == pytest.approx((10.0, 100.0, 1000.0))

    def test_nonincreasing_list_rejected(self):
        with pytest.raises(ScenarioError,
                           match=r"^\$\['snr_grid'\]: must be strictly increasing$"):
            scenario.scenario_from_dict(minimal_dict(snr_grid=[100.0, 10.0]))

    def test_integral_float_points(self):
        # JSON Schema counts 3.0 as an integer, so the grid takes it as 3
        scen = scenario.scenario_from_dict(
            minimal_dict(snr_grid={"start": 10.0, "stop": 1000.0, "points": 3.0}))
        assert scen.snr_grid == pytest.approx((10.0, 100.0, 1000.0))

    def test_bad_range_rejected(self):
        with pytest.raises(ScenarioError, match=r"^\$\['snr_grid'\]: stop must exceed start$"):
            scenario.scenario_from_dict(
                minimal_dict(snr_grid={"start": 10.0, "stop": 1.0, "points": 3}))


class TestValidationMessages:
    def test_schema_violation_carries_json_path(self):
        data = minimal_dict()
        del data["model"]["spectrum"]
        with pytest.raises(ScenarioError, match=r"\$\['model'\]"):
            scenario.scenario_from_dict(data)

    def test_unknown_output_rejected(self):
        with pytest.raises(ScenarioError, match=r"\$\['outputs'\]\[0\]"):
            scenario.scenario_from_dict(minimal_dict(outputs=["bogus"]))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError):
            scenario.scenario_from_dict(minimal_dict(extra_field=1))

    def test_semantic_mass_error_is_located(self):
        data = minimal_dict()
        data["model"]["spectrum"]["pieces"][0]["density"]["value"] = 0.5
        with pytest.raises(ScenarioError, match=r"^\$\['model'\]: total spectral mass"):
            scenario.scenario_from_dict(data)

    def test_json_syntax_error_carries_line_and_column(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",\n  oops\n}')
        with pytest.raises(ScenarioError, match=r"bad\.json:2:3: invalid JSON"):
            scenario.load_scenario(bad)

    def test_load_errors_carry_file_path(self, tmp_path):
        f = tmp_path / "missing_mass.json"
        data = minimal_dict()
        data["model"]["spectrum"]["pieces"][0]["density"]["value"] = 0.5
        f.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="missing_mass.json"):
            scenario.load_scenario(f)

    def test_even_trig_coefficient_count_rejected(self):
        data = minimal_dict()
        data["model"]["spectrum"]["pieces"][0]["density"] = {
            "kind": "trig", "coeffs": [[0.0, 0.0], [1.0, 0.0]]}
        with pytest.raises(ScenarioError,
                           match=r"^\$\['model'\]\['spectrum'\]\['pieces'\]\[0\]: .*odd length"):
            scenario.scenario_from_dict(data)

    def test_non_hermitian_trig_coefficients_rejected(self):
        data = minimal_dict()
        data["model"]["spectrum"]["pieces"][0]["density"] = {
            "kind": "trig", "coeffs": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
        with pytest.raises(ScenarioError,
                           match=r"^\$\['model'\]\['spectrum'\]\['pieces'\]\[0\]: .*Hermitian"):
            scenario.scenario_from_dict(data)

    def test_polynomial_density_rejected(self):
        data = minimal_dict()
        data["model"]["spectrum"]["pieces"][0]["density"] = {
            "kind": "polynomial", "coeffs": [1.0]}
        with pytest.raises(ScenarioError,
                           match=r"\$\['model'\]\['spectrum'\]\['pieces'\]\[0\]"
                                 r"\['density'\]\['kind'\]"):
            scenario.scenario_from_dict(data)

    def test_misspelt_piece_field_rejected(self):
        data = minimal_dict()
        data["model"]["spectrum"]["pieces"][0]["hii"] = 0.5
        with pytest.raises(ScenarioError,
                           match=r"\$\['model'\]\['spectrum'\]\['pieces'\]\[0\]: .*'hii'"):
            scenario.scenario_from_dict(data)

    def test_tolerances_rejected(self):
        # the prelog verdict's margin is fixed; a scenario cannot set it
        with pytest.raises(ScenarioError, match=r"^\$: .*'tolerances' was unexpected"):
            scenario.scenario_from_dict(minimal_dict(tolerances={"fit": 0.1}))

    def test_gamma_mode_accepts_number_or_optimized(self):
        scen = scenario.scenario_from_dict(minimal_dict(gamma_mode=0.5))
        assert scen.gamma == 0.5
        scen = scenario.scenario_from_dict(minimal_dict(gamma_mode="optimized"))
        assert scen.gamma is None
        with pytest.raises(ScenarioError):
            scenario.scenario_from_dict(minimal_dict(gamma_mode="best"))
        with pytest.raises(ScenarioError):
            scenario.scenario_from_dict(minimal_dict(gamma_mode=-1.0))

    # a field that the model's or density's kind does not read is an error,
    # not silently dropped, and the message names the field
    def test_gaussian_model_rejects_taps_and_innovation(self):
        for extra in ({"taps": [[1.0, 0.0]]}, {"innovation": "unit_modulus"}):
            data = minimal_dict()
            data["model"].update(extra)
            field, = extra
            with pytest.raises(ScenarioError,
                               match=rf"\$\['model'\]\['{field}'\]: not allowed"):
                scenario.scenario_from_dict(data)

    def test_fir_model_rejects_spectrum(self):
        data = minimal_dict()
        data["model"].update(kind="fir", taps=[[1.0, 0.0]])
        with pytest.raises(ScenarioError,
                           match=r"\$\['model'\]\['spectrum'\]: not allowed for kind 'fir'"):
            scenario.scenario_from_dict(data)

    def test_density_rejects_the_other_kinds_field(self):
        for density, extra in (({"kind": "constant", "value": 1.0, "coeffs": [2.0]},
                                "coeffs"),
                               ({"kind": "trig", "coeffs": [1.0], "value": 2.0}, "value")):
            data = minimal_dict()
            data["model"]["spectrum"]["pieces"][0]["density"] = density
            with pytest.raises(ScenarioError,
                               match=rf"\['density'\]\['{extra}'\]: not allowed for kind"):
                scenario.scenario_from_dict(data)

    def test_rejected_model_field_is_named(self):
        # the whole message: the field's location and the kind that rejects it
        data = minimal_dict()
        data["model"]["taps"] = [[1, 0]]
        with pytest.raises(ScenarioError) as exc:
            scenario.scenario_from_dict(data)
        assert str(exc.value) == "$['model']['taps']: not allowed for kind 'gaussian'"

    def test_rejected_density_field_is_named(self):
        data = minimal_dict()
        pieces = data["model"]["spectrum"]["pieces"]
        pieces[0]["hi"] = 0.0
        pieces.append({"lo": 0.0, "hi": 0.5,
                       "density": {"kind": "trig", "coeffs": [1.0], "value": 1.0}})
        with pytest.raises(ScenarioError) as exc:
            scenario.scenario_from_dict(data)
        assert str(exc.value) == ("$['model']['spectrum']['pieces'][1]['density']['value']: "
                                  "not allowed for kind 'trig'")

    # without a kind, no kind rule applies: both kinds' fields draw only the
    # missing-kind error, never a crash looking up the kind
    def test_model_without_kind_but_both_kinds_fields(self):
        data = minimal_dict()
        del data["model"]["kind"]
        data["model"]["taps"] = [[1, 0]]
        with pytest.raises(ScenarioError) as exc:
            scenario.scenario_from_dict(data)
        assert str(exc.value) == "$['model']: 'kind' is a required property"

    def test_density_without_kind_but_both_kinds_fields(self):
        data = minimal_dict()
        data["model"]["spectrum"]["pieces"][0]["density"] = {"value": 1, "coeffs": [2]}
        with pytest.raises(ScenarioError) as exc:
            scenario.scenario_from_dict(data)
        assert str(exc.value) == ("$['model']['spectrum']['pieces'][0]['density']: "
                                  "'kind' is a required property")

    def test_density_needs_its_kinds_field(self):
        for density, missing in (({"kind": "constant"}, "value"),
                                 ({"kind": "trig"}, "coeffs")):
            data = minimal_dict()
            data["model"]["spectrum"]["pieces"][0]["density"] = density
            with pytest.raises(ScenarioError,
                               match=rf"\['density'\]: '{missing}' is a required property"):
                scenario.scenario_from_dict(data)

    @pytest.mark.parametrize("output, field, value", [("mi", "mc_samples", 1),
                                                      ("spectrum-check", "segment_length", 100),
                                                      ("spectrum-check", "path_length", 16)])
    def test_runner_rule_applies_when_its_output_is_listed(self, output, field, value):
        scen = scenario.scenario_from_dict(minimal_dict(**{field: value}))
        assert getattr(scen, field) == value
        with pytest.raises(ScenarioError, match=rf"^\$\['{field}'\]: "):
            scenario.scenario_from_dict(minimal_dict(outputs=["bound", output],
                                                     **{field: value}))

    def test_interpreter_reads_every_keyword_of_the_schema(self):
        # the package interprets its schema itself: a keyword it does not read
        # would check nothing
        def keywords(node):
            if isinstance(node, list):
                return set().union(*map(keywords, node))
            if not isinstance(node, dict):
                return set()
            subschemas = [v for k, v in node.items() if k not in ("properties", "$defs")]
            subschemas += [v for k in ("properties", "$defs") for v in node.get(k, {}).values()]
            return set(node).union(*map(keywords, subschemas))

        interpreted = {"type", "enum", "const", "minimum", "maximum", "exclusiveMinimum",
                       "minLength", "minItems", "maxItems", "uniqueItems", "items",
                       "required", "properties", "additionalProperties", "oneOf", "allOf",
                       "if", "then", "$ref"}
        annotations = {"$schema", "$id", "title", "description", "$defs"}
        assert keywords(scenario._schema()) <= interpreted | annotations

    @pytest.mark.parametrize("value, accepted", [(True, False), (1.0, True), (1, True),
                                                 (1.5, False), ("1", False)])
    def test_integer_and_bool_as_json_schema_counts_them(self, value, accepted):
        # a bool is not a number; 1.0 is an integer
        data = minimal_dict(seed=value)
        if accepted:
            assert scenario.scenario_from_dict(data).seed == 1
        else:
            with pytest.raises(ScenarioError, match=r"^\$\['seed'\]: .* is not of type 'integer'"):
                scenario.scenario_from_dict(data)

    def test_enum_tells_true_from_one(self):
        schema = {"enum": [1, [1]], "const": 1}
        assert list(scenario._faults(schema, 1)) == []
        assert list(scenario._faults(schema, 1.0)) == []
        assert [p for p, _ in scenario._faults(schema, True)] == [(), ()]
        assert [p for p, _ in scenario._faults({"enum": [[1]]}, [True])] == [()]

    def test_schema_has_no_format_keyword(self):
        # the validator runs no format checker, so a "format" would check nothing
        def format_keywords(node, path):
            if isinstance(node, dict):
                for key, value in node.items():
                    if key == "format" and path[-1:] != ("properties",):
                        yield path
                    yield from format_keywords(value, path + (key,))
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    yield from format_keywords(value, path + (i,))

        schema = json.loads(pathlib.Path(scenario.__file__).with_name("schema")
                            .joinpath("scenario.schema.json").read_text())
        assert list(format_keywords(schema, ())) == []


class TestScenarioObject:
    def test_with_seed(self):
        scen = scenario.scenario_from_dict(minimal_dict(seed=4))
        bumped = scen.with_seed(9)
        assert bumped.seed == 9 and scen.seed == 4
        assert bumped.model == scen.model
        with pytest.raises(ScenarioError):
            scen.with_seed(-1)

    def test_trig_spectrum_parses_to_model(self):
        data = minimal_dict()
        data["model"]["spectrum"] = {
            "pieces": [{"lo": -0.5, "hi": 0.5,
                        "density": {"kind": "trig",
                                    "coeffs": [[0.5, 0.0], [1.0, 0.0],
                                               [0.5, 0.0]]}}]}
        scen = scenario.scenario_from_dict(data)
        piece = scen.model.spectrum.pieces[0]
        assert isinstance(piece, spectra.Piece)
        assert piece(0.0) == pytest.approx(2.0)
        assert piece(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_round_trip(self):
        data = minimal_dict(model={
            "kind": "gaussian",
            "spectrum": {"pieces": [{"lo": -0.5, "hi": 0.5,
                                     "density": {"kind": "constant",
                                                 "value": 0.5}}],
                         "point_masses": [[0.25, 0.5]]}})
        scen = scenario.scenario_from_dict(data)
        assert scen.model.spectrum.point_masses == ((0.25, 0.5),)
        again = scenario.scenario_from_dict(scenario.scenario_to_dict(scen))
        assert again == scen

    def test_shipped_gamma_mode_sqrt_e(self):
        scen = scenario.load_scenario(SCENARIO_DIR / "two_tap_fourpoint.json")
        assert scen.gamma == pytest.approx(math.sqrt(math.e), abs=1e-12)
