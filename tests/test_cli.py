import csv
import importlib
import io
import json
import math
import os
import pathlib
import pkgutil
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import prelog_lab
from prelog_lab import bounds, cli, scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_scenario(tmp_path, name="t.json", **overrides):
    data = {
        "name": "cli-test",
        "model": {"kind": "gaussian",
                  "spectrum": {"pieces": [{"lo": -0.5, "hi": 0.5,
                                           "density": {"kind": "constant",
                                                       "value": 1.0}}]}},
        "snr_grid": [100.0],
        "outputs": ["bound", "prelog", "szego", "mi", "spectrum-check"],
        "seed": 7,
        "path_length": 4096,
        "segment_length": 128,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestBoundCommand:
    def test_fixed_gamma_white_rayleigh(self, tmp_path, capsys):
        g = math.sqrt(math.e)
        path = write_scenario(tmp_path, gamma_mode=g)
        code, out, _ = run(capsys, ["bound", "--scenario", path])
        assert code == 0
        header, rows = parse(out)
        assert header == ["snr", "gamma", "tail", "coherent_nats",
                          "penalty_nats", "bound_nats", "bound_clamped_nats",
                          "ratio"]
        row = dict(zip(header, map(float, rows[0])))
        tail = math.exp(-math.e)
        assert row["snr"] == 100.0
        assert row["gamma"] == pytest.approx(g, abs=1e-12)
        assert row["tail"] == pytest.approx(tail, abs=1e-12)
        # at gamma = sqrt(e) the offset term vanishes: coherent = tail ln snr
        assert row["coherent_nats"] == pytest.approx(tail * math.log(100.0),
                                                     abs=1e-11)
        assert row["penalty_nats"] == pytest.approx(math.log(101.0), abs=1e-11)
        assert row["bound_nats"] == pytest.approx(
            row["coherent_nats"] - row["penalty_nats"], abs=1e-11)
        assert row["bound_clamped_nats"] == 0.0  # white fading: no pre-log
        assert row["ratio"] == 0.0

    def test_optimized_gamma_reports_the_maximizer(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code, out, _ = run(capsys, ["bound", "--scenario", path])
        assert code == 0
        header, rows = parse(out)
        row = dict(zip(header, map(float, rows[0])))
        model = scenario.load_scenario(path).model
        report = bounds.capacity_lower_bound(model, 100.0)
        assert row["gamma"] == pytest.approx(report.gamma, abs=1e-12)
        assert row["coherent_nats"] == pytest.approx(report.coherent, abs=1e-11)

    def test_out_file(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        dest = tmp_path / "table.csv"
        code, out, _ = run(capsys, ["bound", "--scenario", path,
                                    "--out", str(dest)])
        assert code == 0
        assert out == ""
        header, rows = parse(dest.read_text())
        assert header[0] == "snr" and len(rows) == 1

    def test_bits_rescales_log_columns(self, tmp_path, capsys):
        path = write_scenario(tmp_path, gamma_mode=0.5)
        _, nats_out, _ = run(capsys, ["bound", "--scenario", path])
        _, bits_out, _ = run(capsys, ["bound", "--scenario", path, "--bits"])
        nh, nr = parse(nats_out)
        bh, br = parse(bits_out)
        assert bh == ["snr", "gamma", "tail", "coherent_bits", "penalty_bits",
                      "bound_bits", "bound_clamped_bits", "ratio"]
        nats = dict(zip(nh, map(float, nr[0])))
        bits = dict(zip(bh, map(float, br[0])))
        ln2 = math.log(2.0)
        assert bits["coherent_bits"] == pytest.approx(nats["coherent_nats"] / ln2,
                                                      rel=1e-10)
        assert bits["penalty_bits"] == pytest.approx(nats["penalty_nats"] / ln2,
                                                     rel=1e-10)
        # dimensionless columns are untouched
        assert bits["snr"] == nats["snr"]
        assert bits["gamma"] == nats["gamma"]
        assert bits["ratio"] == nats["ratio"]

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        _, first, _ = run(capsys, ["bound", "--scenario", path])
        _, second, _ = run(capsys, ["bound", "--scenario", path])
        assert first == second


class TestPrelogCommand:
    def test_flat_band_passes(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            model={"kind": "gaussian",
                   "spectrum": {"pieces": [{"lo": -0.25, "hi": 0.25,
                                            "density": {"kind": "constant",
                                                        "value": 2.0}}]}},
            snr_grid={"start": 1e4, "stop": 1e16, "points": 7})
        code, out, _ = run(capsys, ["prelog", "--scenario", path])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "snr,ratio"
        summary = lines[-1]
        assert summary.startswith("prelog_estimate=")
        assert summary.endswith("target=0.5 PASS")
        estimate = float(summary.split("=")[1].split("±")[0])
        assert estimate == pytest.approx(0.460224392714, abs=1e-9)

    def test_short_grid_is_a_validation_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, snr_grid=[1e4, 1e6, 1e8])
        code, out, err = run(capsys, ["prelog", "--scenario", path])
        assert code == 2
        assert "at least 4" in err


class TestSzegoCommand:
    def test_white_gap_is_identically_zero(self, tmp_path, capsys):
        path = write_scenario(tmp_path, n_list=[1, 2, 4])
        code, out, _ = run(capsys, ["szego", "--scenario", path])
        assert code == 0
        header, rows = parse(out)
        assert header == ["n", "penalty_logdet_nats", "penalty_spectral_nats",
                          "gap_nats", "warning"]
        for row in rows:
            # columns carry 12 significant digits
            assert float(row[1]) == pytest.approx(math.log(101.0), rel=1e-11)
            assert float(row[3]) == pytest.approx(0.0, abs=1e-10)
            assert row[4] == ""

    def test_snr_field_overrides_grid(self, tmp_path, capsys):
        path = write_scenario(tmp_path, n_list=[1], snr=9.0)
        code, out, _ = run(capsys, ["szego", "--scenario", path])
        assert code == 0
        _, rows = parse(out)
        assert float(rows[0][2]) == pytest.approx(math.log(10.0), rel=1e-11)

    def test_point_mass_warning(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            model={"kind": "gaussian",
                   "spectrum": {"pieces": [{"lo": -0.5, "hi": 0.5,
                                            "density": {"kind": "constant",
                                                        "value": 0.5}}],
                                "point_masses": [[0.0, 0.5]]}},
            n_list=[1, 2])
        code, out, _ = run(capsys, ["szego", "--scenario", path])
        assert code == 0
        _, rows = parse(out)
        assert all(r[4] == "point-masses-excluded-from-integral" for r in rows)

    @pytest.mark.parametrize("taps, snr", [
        ([1.0, 1.0], 1e2),
        ([1.0, 0.6 - 0.3j, -0.4j], 1e2),
        ([1.0, 0.6 - 0.3j, -0.4j], 1e6),
    ], ids=["two-tap", "three-tap", "three-tap-1e6"])
    def test_fir_gap_meets_the_strong_szego_constant(self, tmp_path, capsys, taps, snr):
        """n * gap -> E = -sum_ij ln(1 - w_i conj(w_j)) for a FIR spectrum, with
        w = 1/z over the roots z of 1 + snr p outside the unit circle (strong
        Szego); the rate holds for smooth spectra only, so band spectra, whose
        jumps add a (ln n)/n term, are not checked here."""
        model = {"kind": "fir", "mean": [0.0, 0.0], "innovation": "complex_gaussian",
                 "taps": [[complex(t).real, complex(t).imag] for t in taps]}
        orders = [64, 128, 256]
        path = write_scenario(tmp_path, model=model, snr=snr, n_list=orders)
        piece = scenario.load_scenario(path).model.spectrum.pieces[0]
        c = snr * np.asarray(piece.coeffs, dtype=complex)
        c[piece.order] += 1.0
        z = np.polynomial.polynomial.polyroots(c)
        w = 1.0 / z[np.abs(z) > 1.0]
        constant = -np.sum(np.log(1.0 - np.multiply.outer(w, np.conj(w)))).real
        code, out, _ = run(capsys, ["szego", "--scenario", path])
        assert code == 0
        _, rows = parse(out)
        for n, row in zip(orders, rows):
            assert n * float(row[3]) == pytest.approx(constant, rel=0, abs=1e-6), n

    def test_precision_limit_exits_one(self, tmp_path, capsys):
        band = {"kind": "gaussian",
                "spectrum": {"pieces": [{"lo": -0.25, "hi": 0.25,
                                         "density": {"kind": "constant",
                                                     "value": 2.0}}]}}
        path = write_scenario(tmp_path, model=band, snr=1e16, n_list=[16, 64])
        code, out, err = run(capsys, ["szego", "--scenario", path])
        assert code == 1
        assert out == ""
        assert err.startswith("numerical error: ")
        assert "double precision at order" in err and "snr 1e+16" in err


class TestMiCommand:
    def test_fixed_gamma_analytic_column(self, tmp_path, capsys):
        path = write_scenario(tmp_path, snr_grid=[10.0], mc_samples=10000,
                              gamma_mode=1.0)
        code, out, _ = run(capsys, ["mi", "--scenario", path])
        assert code == 0
        header, rows = parse(out)
        assert header == ["snr", "mi_estimate_nats", "se_nats",
                          "analytic_bound_nats", "margin_nats", "pass"]
        row = rows[0]
        analytic = math.exp(-1.0) * (math.log(10.0) - 1.0)
        assert float(row[3]) == pytest.approx(analytic, abs=1e-11)
        assert float(row[4]) == pytest.approx(float(row[1]) - analytic,
                                              abs=1e-10)
        assert row[5] == "true"

    def test_one_bound_call_for_the_grid(self, tmp_path, capsys, monkeypatch):
        # mi's analytic column is bound's coherent column cell for cell, below
        # snr 1 too, from one capacity_lower_bound call for the whole grid
        path = write_scenario(tmp_path, snr_grid=[0.5, 10.0, 100.0], mc_samples=10000)
        code, out, _ = run(capsys, ["bound", "--scenario", path])
        assert code == 0
        header, rows = parse(out)
        coherent = [row[header.index("coherent_nats")] for row in rows]
        calls = []
        grid_bound = bounds.capacity_lower_bound
        monkeypatch.setattr(bounds, "capacity_lower_bound",
                            lambda *args: calls.append(args) or grid_bound(*args))
        code, out, _ = run(capsys, ["mi", "--scenario", path])
        assert code == 0 and len(calls) == 1
        header, rows = parse(out)
        assert [row[header.index("analytic_bound_nats")] for row in rows] == coherent

    def test_seed_override_moves_mi_but_not_bound(self, tmp_path, capsys):
        path = write_scenario(tmp_path, snr_grid=[10.0], mc_samples=10000)
        _, mi_a, _ = run(capsys, ["mi", "--scenario", path])
        _, mi_b, _ = run(capsys, ["mi", "--scenario", path, "--seed", "99"])
        assert mi_a != mi_b
        _, bd_a, _ = run(capsys, ["bound", "--scenario", path])
        _, bd_b, _ = run(capsys, ["bound", "--scenario", path, "--seed", "99"])
        assert bd_a == bd_b

    def test_missing_or_small_mc_samples(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code, _, err = run(capsys, ["mi", "--scenario", path])
        assert code == 2 and "mc_samples" in err
        path = write_scenario(tmp_path, mc_samples=500)
        code, _, err = run(capsys, ["mi", "--scenario", path])
        assert code == 2 and "10000" in err


class TestSpectrumCheckCommand:
    def test_columns_and_analytic_density(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            model={"kind": "gaussian",
                   "spectrum": {"pieces": [{"lo": -0.25, "hi": 0.25,
                                            "density": {"kind": "constant",
                                                        "value": 2.0}}]}})
        code, out, _ = run(capsys, ["spectrum-check", "--scenario", path])
        assert code == 0
        header, rows = parse(out)
        assert header == ["lambda", "empirical_density", "analytic_density"]
        assert len(rows) == 128
        for lam, _, analytic in ((float(a), float(b), float(c))
                                 for a, b, c in rows):
            assert float(analytic) == (2.0 if abs(lam) <= 0.25 else 0.0)


class TestErrorPaths:
    COMMANDS = ("bound", "prelog", "szego", "mi", "spectrum-check")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_artifact_not_listed(self, tmp_path, capsys, command):
        others = [c for c in self.COMMANDS if c != command]
        path = write_scenario(tmp_path, outputs=others, mc_samples=10000)
        code, out, err = run(capsys, [command, "--scenario", path])
        assert code == 2 and out == ""
        assert f"does not list the {command!r} artifact" in err

    # unit modulus with four circles: exact tails cover at most three
    FOUR_CIRCLES = {"kind": "fir", "innovation": "unit_modulus", "mean": [0.5, 0.0],
                    "taps": [[1.0, 0.0], [0.6, 0.0], [0.0, 0.3]]}

    @pytest.mark.parametrize("command", ["bound", "prelog", "mi"])
    def test_four_circles_are_a_validation_error(self, tmp_path, capsys, command):
        path = write_scenario(tmp_path, model=self.FOUR_CIRCLES, mc_samples=10000,
                              snr_grid=[1e2, 1e3, 1e4, 1e5])
        csv_path = tmp_path / "out.csv"
        for argv in ([], ["--out", str(csv_path)]):
            code, out, err = run(capsys, [command, "--scenario", path, *argv])
            assert code == 2 and out == ""
            assert "error: unit modulus with 4 circles" in err
        assert not csv_path.exists()

    def test_rice_mean_past_its_domain_is_a_validation_error(self, tmp_path, capsys):
        # unchecked, chndtr returns NaN here and bounds blames the tail
        white = {"pieces": [{"lo": -0.5, "hi": 0.5,
                             "density": {"kind": "constant", "value": 1.0}}]}
        model = {"kind": "gaussian", "mean": [2.2e9, 0.0], "spectrum": white}
        path = write_scenario(tmp_path, model=model, snr_grid=[1e4])
        code, out, err = run(capsys, ["bound", "--scenario", path])
        assert code == 2 and out == ""
        assert "error: Rice tail with |mean| 2.2e+09: exact tails cover |mean| <= 50000" in err

    @pytest.mark.parametrize("command", ["szego", "spectrum-check"])
    def test_four_circles_run_jobs_without_a_tail(self, tmp_path, capsys, command):
        path = write_scenario(tmp_path, model=self.FOUR_CIRCLES)
        code, out, err = run(capsys, [command, "--scenario", path])
        assert code == 0 and err == ""
        assert len(parse(out)[1]) > 1

    @pytest.mark.parametrize("where, token", [("snr_grid", "[NaN]"),
                                              ("snr", "Infinity"),
                                              ("density", "-Infinity"),
                                              ("snr_grid", "[1e999]")])
    def test_non_finite_number_is_a_validation_error(self, tmp_path, capsys,
                                                     where, token):
        text = pathlib.Path(write_scenario(tmp_path)).read_text()
        if where == "density":
            text = text.replace('"value": 1.0', f'"value": {token}')
        elif where == "snr":
            text = text.replace('"seed": 7', f'"seed": 7, "snr": {token}')
        else:
            text = text.replace('"snr_grid": [100.0]', f'"snr_grid": {token}')
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for command in ("bound", "mi", "szego"):
            code, out, err = run(capsys, [command, "--scenario", str(bad)])
            assert code == 2 and out == ""
            assert "bad.json: non-finite number " + token.strip("[]") in err

    # rules of a runner that the schema cannot state, each named at its field
    @pytest.mark.parametrize("command, overrides, message", [
        ("mi", {"mc_samples": 1}, "$['mc_samples']: mi needs at least 10000 samples"),
        ("spectrum-check", {"segment_length": 100},
         "$['segment_length']: segment length must be a power of two"),
        ("spectrum-check", {"path_length": 16},
         "$['path_length']: path must cover at least 8 segments"),
        ("prelog", {"snr_grid": [1e2, 1e3, 1e4]},
         "$['snr_grid']: snr grid needs at least 4 points"),
        ("prelog", {"snr_grid": [2.0, 3.0, 4.0, 5.0]}, "$['snr_grid']: snr grid must stay above e"),
        ("mi", {}, "$['mc_samples']: mi needs a sample count"),
    ], ids=["mc_samples", "segment_length", "path_length", "short-grid", "grid-below-e",
            "no-mc_samples"])
    def test_runner_domain_is_a_located_validation_error(self, tmp_path, capsys, command,
                                                          overrides, message):
        path = write_scenario(tmp_path, **overrides)
        code, out, err = run(capsys, [command, "--scenario", path])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.endswith(f": {message}\n")

    @pytest.mark.parametrize("model", [
        {"kind": "gaussian", "spectrum": {"pieces": [
            {"lo": -0.5, "hi": 0.5, "density": {"kind": "constant", "value": 1.0}}]}},
        {"kind": "gaussian", "mean": [0.5, 0.0], "spectrum": {"pieces": [
            {"lo": -0.5, "hi": 0.5, "density": {"kind": "constant", "value": 1.0}}]}},
        {"kind": "fir", "taps": [[1.0, 0.0], [0.5, 0.0]], "innovation": "unit_modulus"},
    ], ids=["rayleigh", "rice", "two-circles"])
    def test_huge_fixed_threshold_has_tail_zero_without_warning(self, tmp_path, capsys,
                                                                 model):
        # gamma^2 overflows past 1e154; the tail there is 0 and says nothing
        path = write_scenario(tmp_path, model=model, gamma_mode=1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            code, out, err = run(capsys, ["bound", "--scenario", path])
        assert code == 0 and err == ""
        header, rows = parse(out)
        assert [row[header.index("tail")] for row in rows] == ["0"]

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, ["bound", "--scenario", str(bad)])
        assert code == 2
        assert "invalid JSON" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, ["bound", "--scenario",
                                    str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in err

    def test_schema_violation(self, tmp_path, capsys):
        path = write_scenario(tmp_path, outputs=["nope"])
        code, _, err = run(capsys, ["bound", "--scenario", path])
        assert code == 2
        assert "$['outputs']" in err


class TestSerial:
    @pytest.mark.parametrize("command", ["bound", "prelog", "mi"])
    def test_starts_no_python_thread(self, tmp_path, capsys, monkeypatch, command):
        def refuse(thread):
            raise AssertionError(f"{command} started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        path = write_scenario(tmp_path, snr_grid=[1e2, 1e3, 1e4, 1e5],
                              mc_samples=10000)
        code, _, err = run(capsys, [command, "--scenario", path])
        assert code == 0, err


# Runs in a fresh interpreter: imports the CLI, runs the jobs given in argv
# as command, scenario pairs, and prints the modules of scipy and of a JSON
# Schema library (jsonschema, referencing, attrs) loaded after the import and
# after each job, one JSON list per line.
LOADED_OPTIONAL = """
import contextlib, io, json, sys
import prelog_lab.cli
def optional_modules():
    roots = {"scipy", "jsonschema", "referencing", "attrs"}
    return sorted(m for m in sys.modules if m.split(".")[0] in roots)
print(json.dumps(optional_modules()))
for command, path in zip(sys.argv[1::2], sys.argv[2::2]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert prelog_lab.cli.main([command, "--scenario", path]) == 0, (command, path)
    print(json.dumps(optional_modules()))
"""


def loaded_optional(jobs):
    """scipy and JSON Schema modules after `import prelog_lab.cli`, then after
    each (command, scenario path) job."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [arg for job in jobs for arg in job]
    proc = subprocess.run([sys.executable, "-c", LOADED_OPTIONAL, *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


class TestImportSet:
    def test_no_shipped_job_loads_scipy_or_jsonschema(self):
        # every output of every shipped scenario (zero-mean Gaussian and FIR
        # laws, no arc pieces) uses only numpy: the closed forms, the numpy
        # Welch of spectrum-check and mi's harmonic-sum entropy constant; the
        # scenario is validated by the package's own reading of its schema
        jobs = [(command, str(path))
                for path in sorted((ROOT / "scenarios").glob("*.json"))
                for command in json.loads(path.read_text())["outputs"]]
        assert {pathlib.Path(path).stem for _, path in jobs} == {
            "flat_band_rayleigh", "mixed_point_mass", "two_tap_fourpoint",
            "white_rayleigh"}
        assert {command for command, _ in jobs} == set(cli._COMMANDS)
        assert loaded_optional(jobs) == [[]] * (1 + len(jobs))

    def test_searched_laws_load_scipy_only_for_rice(self, tmp_path):
        # the two-circle tail, density and kinks are numpy and fractions; the
        # Rice tail and density read scipy.special
        grid = [1e4, 1e6, 1e8, 1e10, 1e12, 1e14, 1e16]
        circles = write_scenario(tmp_path, "circles.json", snr_grid=grid, model={
            "kind": "fir", "taps": [[1.0, 0.0], [0.4, -0.7]], "innovation": "unit_modulus"})
        rice = write_scenario(tmp_path, "rice.json", snr_grid=grid, model={
            "kind": "gaussian", "mean": [0.7, 0.0],
            "spectrum": {"pieces": [{"lo": -0.5, "hi": 0.5,
                                     "density": {"kind": "constant", "value": 1.0}}]}})
        loaded = loaded_optional([("bound", circles), ("prelog", circles), ("bound", rice)])
        assert loaded[:3] == [[]] * 3
        assert "scipy.special" in loaded[3]


class TestParserReuse:
    # main parses every call with one parser built at import
    def test_bits_does_not_carry_into_the_next_run(self, capsys):
        scen = str(ROOT / "scenarios" / "white_rayleigh.json")
        _, bits_out, _ = run(capsys, ["bound", "--scenario", scen, "--bits"])
        code, nats_out, _ = run(capsys, ["bound", "--scenario", scen])
        assert code == 0
        assert parse(bits_out)[0][3] == "coherent_bits"
        header, _ = parse(nats_out)
        assert [h for h in header if h.endswith("_nats")] == [
            "coherent_nats", "penalty_nats", "bound_nats", "bound_clamped_nats"]

    def test_seed_override_does_not_carry_into_the_next_run(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        _, first, _ = run(capsys, ["spectrum-check", "--scenario", path])
        _, seeded, _ = run(capsys, ["spectrum-check", "--scenario", path, "--seed", "99"])
        code, again, _ = run(capsys, ["spectrum-check", "--scenario", path])
        assert code == 0
        assert seeded != first and again == first


class TestCommandLine:
    # one parser: the command is a positional, the options are declared once
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["nope", "--scenario", "absent.json"])
        assert exc.value.code == 2
        assert "argument command: invalid choice: 'nope'" in capsys.readouterr().err

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name, (_, help_text) in cli._COMMANDS.items():
            assert f"  {name:<16}{help_text}" in out


class TestModuleEntryPoint:
    def test_python_m_prints_the_same_csv(self, capsys):
        scen = str(ROOT / "scenarios" / "white_rayleigh.json")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "prelog_lab.cli", "bound", "--scenario", scen],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, out, _ = run(capsys, ["bound", "--scenario", scen])
        assert code == 0
        assert proc.stdout == out


# Runs in a fresh interpreter: imports one layer and prints every loaded
# module name as a JSON list.
LOADED_BY_BOUNDS = "import json, sys, prelog_lab.bounds; print(json.dumps(sorted(sys.modules)))"


class TestLayerImports:
    def test_a_layer_loads_only_itself_and_its_imports(self):
        # the package namespace re-exports nothing, so the bound loads no
        # schema validator, scenario files, Monte Carlo or CLI
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-c", LOADED_BY_BOUNDS],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert "prelog_lab.bounds" in loaded
        assert not loaded & {"jsonschema", "referencing", "attrs", "prelog_lab.scenario",
                             "prelog_lab.mcsim", "prelog_lab.cli"}

    def test_deleted_names_stay_gone(self):
        layers = [importlib.import_module(f"prelog_lab.{m.name}")
                  for m in pkgutil.iter_modules(prelog_lab.__path__)]
        assert len(layers) == 9
        for gone in ("ChannelParams", "SamplePath", "InputBatch", "CovarianceMatrix",
                     "estimate_entropy", "partition_measures", "HarmonicPartition",
                     "cumulative", "support_bound", "__all__"):
            for module in [prelog_lab, *layers]:
                assert not hasattr(module, gone), (module.__name__, gone)
        assert not hasattr(prelog_lab.spectra.Piece, "level_measures")
