import json
import math
import pathlib

import pytest

from prelog_lab import fading, scenario, spectra
from prelog_lab.scenario import ScenarioError

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


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
        assert scen.fit_tolerance == scenario.DEFAULT_FIT_TOLERANCE == 0.05
        assert scen.snr == scen.snr_grid[0] == 10.0
        assert scen.mc_samples is None
        assert scen.n_list == scenario.DEFAULT_N_LIST
        assert scen.path_length == scenario.DEFAULT_PATH_LENGTH
        assert scen.segment_length == scenario.DEFAULT_SEGMENT_LENGTH

    def test_minimal_scenario_dumps_its_resolved_defaults(self):
        scen = scenario.scenario_from_dict(minimal_dict())
        out = scenario.scenario_to_dict(scen)
        assert out["snr"] == out["snr_grid"][0] == 10.0
        assert out["tolerances"] == {"fit": 0.05}
        assert out["gamma_mode"] == "optimized"
        assert "mc_samples" not in out
        assert scenario.scenario_from_dict(out) == scen


class TestGridExpansion:
    def test_logspace_dict(self):
        scen = scenario.scenario_from_dict(
            minimal_dict(snr_grid={"start": 10.0, "stop": 1000.0, "points": 3}))
        assert scen.snr_grid == pytest.approx((10.0, 100.0, 1000.0))

    def test_nonincreasing_list_rejected(self):
        with pytest.raises(ScenarioError, match="strictly increasing"):
            scenario.scenario_from_dict(minimal_dict(snr_grid=[100.0, 10.0]))

    def test_bad_range_rejected(self):
        with pytest.raises(ScenarioError, match="stop must exceed start"):
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
        with pytest.raises(ScenarioError, match=r"\$\.model: total spectral mass"):
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
                           match=r"\$\.model\.spectrum\.pieces\[0\]\.density: .*odd length"):
            scenario.scenario_from_dict(data)

    def test_non_hermitian_trig_coefficients_rejected(self):
        data = minimal_dict()
        data["model"]["spectrum"]["pieces"][0]["density"] = {
            "kind": "trig", "coeffs": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
        with pytest.raises(ScenarioError,
                           match=r"\$\.model\.spectrum\.pieces\[0\]\.density: .*Hermitian"):
            scenario.scenario_from_dict(data)

    def test_polynomial_density_rejected(self):
        data = minimal_dict()
        data["model"]["spectrum"]["pieces"][0]["density"] = {
            "kind": "polynomial", "coeffs": [1.0]}
        with pytest.raises(ScenarioError,
                           match=r"\$\['model'\]\['spectrum'\]\['pieces'\]\[0\]"
                                 r"\['density'\]\['kind'\]"):
            scenario.scenario_from_dict(data)

    def test_misspelt_tolerance_rejected(self):
        with pytest.raises(ScenarioError, match=r"\$\['tolerances'\]: .*'fitt'"):
            scenario.scenario_from_dict(minimal_dict(tolerances={"fitt": 0.5}))

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
    # not silently dropped
    def test_gaussian_model_rejects_taps_and_innovation(self):
        data = minimal_dict()
        data["model"].update(taps=[[1.0, 0.0]], innovation="unit_modulus")
        with pytest.raises(ScenarioError,
                           match=r"\$\['model'\]: False schema does not allow"):
            scenario.scenario_from_dict(data)

    def test_fir_model_rejects_spectrum(self):
        data = minimal_dict()
        data["model"].update(kind="fir", taps=[[1.0, 0.0]])
        with pytest.raises(ScenarioError,
                           match=r"\$\['model'\]: False schema does not allow \{'pieces'"):
            scenario.scenario_from_dict(data)

    def test_density_rejects_the_other_kinds_field(self):
        for density, extra in (({"kind": "constant", "value": 1.0, "coeffs": [2.0]},
                                r"\[2\.0\]"),
                               ({"kind": "trig", "coeffs": [1.0], "value": 2.0}, r"2\.0")):
            data = minimal_dict()
            data["model"]["spectrum"]["pieces"][0]["density"] = density
            with pytest.raises(ScenarioError,
                               match=rf"\['density'\]: False schema does not allow {extra}$"):
                scenario.scenario_from_dict(data)

    def test_density_needs_its_kinds_field(self):
        for density, missing in (({"kind": "constant"}, "value"),
                                 ({"kind": "trig"}, "coeffs")):
            data = minimal_dict()
            data["model"]["spectrum"]["pieces"][0]["density"] = density
            with pytest.raises(ScenarioError,
                               match=rf"\['density'\]: '{missing}' is a required property"):
                scenario.scenario_from_dict(data)

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

    def test_tolerance_accessor(self):
        scen = scenario.scenario_from_dict(minimal_dict(tolerances={"fit": 0.1}))
        assert scen.fit_tolerance == 0.1
        default = scenario.scenario_from_dict(minimal_dict())
        assert default.fit_tolerance == 0.05

    def test_trig_spectrum_parses_to_model(self):
        data = minimal_dict()
        data["model"]["spectrum"] = {
            "pieces": [{"lo": -0.5, "hi": 0.5,
                        "density": {"kind": "trig",
                                    "coeffs": [[0.5, 0.0], [1.0, 0.0],
                                               [0.5, 0.0]]}}]}
        scen = scenario.scenario_from_dict(data)
        dens = scen.model.spectrum.pieces[0].density
        assert isinstance(dens, spectra.TrigPolyDensity)
        assert dens(0.0) == pytest.approx(2.0)
        assert dens(0.5) == pytest.approx(0.0, abs=1e-12)

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
