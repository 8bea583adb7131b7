"""Tests of the benchmark itself: generator, oracles, tracing, bare checkout."""

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for entry in (str(BENCH), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import oracles  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from prelog_lab import cli  # noqa: E402


def _tree_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_byte_deterministic_in_its_seed(tmp_path, workload):
    for probe in (False, True):
        a = workloads.write_jobs(workload, 7, tmp_path / f"a{probe}", probe)
        b = workloads.write_jobs(workload, 7, tmp_path / f"b{probe}", probe)
        c = workloads.write_jobs(workload, 8, tmp_path / f"c{probe}", probe)
        assert [job[0] for job in a] == [job[0] for job in b]
        assert _tree_bytes(tmp_path / f"a{probe}") == _tree_bytes(tmp_path / f"b{probe}")
        if a:
            assert _tree_bytes(tmp_path / f"a{probe}") != _tree_bytes(tmp_path / f"c{probe}")


def test_job_mix_does_not_depend_on_the_seed():
    for workload in workloads.WORKLOADS:
        mixes = {tuple((cmd, kind) for cmd, kind, _ in sorted(
            workloads.generate(workload, seed), key=lambda job: (job[0], job[1])))
            for seed in range(4)}
        assert len(mixes) == 1


def _scenario(tmp_path, name, model, **extra):
    scen = {"name": name, "model": model, "gamma_mode": "optimized",
            "outputs": ["bound", "prelog", "szego", "mi", "spectrum-check"], "seed": 5}
    scen.update(extra)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scen))
    return scen, str(path)


def _run(cmd, path):
    _, code, text, err = worker._run_job(cli, cmd, path)
    assert code == 0, err
    return text


RAYLEIGH = {"kind": "gaussian", "spectrum": {"pieces": [
    {"lo": -0.2, "hi": 0.1, "density": {"kind": "constant", "value": 2.0}},
    {"lo": 0.2, "hi": 0.3, "density": {"kind": "constant", "value": 4.0}}]}}
FOUR_POINT = {"kind": "fir", "taps": [[0.9, 0.2], [0.4, -0.3]],
              "innovation": "four_point_phase"}
POINT_MASS = {"kind": "gaussian", "spectrum": {
    "pieces": [{"lo": -0.25, "hi": 0.25, "density": {"kind": "constant", "value": 1.6}}],
    "point_masses": [[0.3, 0.2]]}}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real CLI output of every subcommand on small scenarios."""
    tmp = tmp_path_factory.mktemp("oracle")
    out = {}
    for label, model in (("rayleigh", RAYLEIGH), ("four-point", FOUR_POINT)):
        scen, path = _scenario(tmp, label, model, snr_grid=workloads.SWEEP_GRID)
        bound = _run("bound", path)
        out[f"bound-{label}"] = ("bound", scen, bound, None)
        out[f"prelog-{label}"] = ("prelog", scen, _run("prelog", path), bound)
    scen, path = _scenario(tmp, "szego", POINT_MASS, snr_grid=[1e4], snr=1e4,
                           n_list=[16, 32, 64])
    out["szego"] = ("szego", scen, _run("szego", path), None)
    scen, path = _scenario(tmp, "mi", RAYLEIGH, snr_grid=workloads.MI_SNR,
                           mc_samples=10**4)
    out["mi"] = ("mi", scen, _run("mi", path), None)
    scen, path = _scenario(tmp, "spectrum", RAYLEIGH, snr_grid=[10.0],
                           path_length=8192, segment_length=128)
    out["spectrum-check"] = ("spectrum-check", scen, _run("spectrum-check", path), None)
    return out


def _bump(value, start=0):
    """Change the first digit of `value` at or after `start`."""
    i = re.compile(r"\d").search(value, start).start()
    return value[:i] + ("8" if value[i] == "9" else str(int(value[i]) + 1)) + value[i + 1:]


def _perturb(text, column):
    """Change one digit: the first of `column` in the first data row, or of the
    extrapolated pre-log in the summary line."""
    lines = text.splitlines(keepends=True)
    if column == "summary":
        lines[-1] = _bump(lines[-1], lines[-1].index("="))
        return "".join(lines)
    index = lines[0].rstrip("\n").split(",").index(column)
    cells = lines[1].rstrip("\n").split(",")
    cells[index] = _bump(cells[index])
    lines[1] = ",".join(cells) + "\n"
    return "".join(lines)


# the columns each oracle pins down; Monte Carlo columns (se_nats,
# empirical_density) are only checked through identities and aggregates
PINNED = {
    "bound-rayleigh": ["snr", "gamma", "tail", "coherent_nats", "penalty_nats",
                       "bound_nats", "bound_clamped_nats", "ratio"],
    "bound-four-point": ["gamma", "tail", "coherent_nats", "penalty_nats", "bound_nats"],
    "prelog-rayleigh": ["ratio", "summary"],
    "prelog-four-point": ["ratio", "summary"],
    "szego": ["n", "penalty_logdet_nats", "penalty_spectral_nats", "gap_nats"],
    "mi": ["snr", "mi_estimate_nats", "analytic_bound_nats", "margin_nats"],
    "spectrum-check": ["lambda", "analytic_density"],
}


@pytest.mark.parametrize("label", sorted(PINNED))
def test_oracle_accepts_output_and_rejects_one_changed_digit(outputs, label):
    cmd, scen, text, bound_text = outputs[label]
    assert oracles.check_job(cmd, scen, text, bound_text) == []
    for column in PINNED[label]:
        perturbed = _perturb(text, column)
        assert perturbed != text
        assert oracles.check_job(cmd, scen, perturbed, bound_text), column


def test_traced_and_untraced_runs_give_the_same_csv(tmp_path):
    _, path = _scenario(tmp_path, "trace", FOUR_POINT, snr_grid=workloads.SWEEP_GRID)
    original = cli.main

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    untraced = digest(_run("bound", path))
    with spans.Tracer() as tracer:
        tracer.begin_pass()
        traced = digest(_run("bound", path))
        tracer.end_pass()
        assert cli.main is not original
    assert cli.main is original
    assert traced == untraced
    names = set(tracer.names)
    assert {"cli.main", "bounds.optimize_gamma", "fading.marginal_tail",
            "_parallel.parallel_map"} <= names
    metrics = tracer.layer_metrics()
    assert metrics["fading.marginal_tail_calls"] > 0
    assert metrics["parallel.maps"] == 1
    assert metrics["fading.tail_table_models"] == 1


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
