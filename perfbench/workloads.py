"""Seeded scenario generators for the three benchmark workloads.

Each workload is a fixed list of (subcommand, scenario) jobs.  The seed
changes the parameters of every scenario (band edges, densities, taps,
means, scenario seeds) but never the composition of the list, so the cost
of one pass over the list is nearly the same for every seed.  The
generator writes plain JSON; it does not import the library under test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SWEEP_GRID = [1e4, 1e6, 1e8, 1e10, 1e12, 1e14, 1e16]  # the shipped 7-point grid
SZEGO_N_LIST = [128, 256, 512, 1024, 2048]  # the shipped n_list
MI_SNR = [10.0, 100.0, 1000.0]  # test_05's snr values

# The seed varies phases, band edges, densities and tap values.  Magnitudes
# that set the cost of a job (the Rice mean, tap counts) are fixed, so one
# pass costs about the same for every seed.
RICE_MEAN = 0.7

# Per workload: the tail percentile reported as job_tail_ms.  It is the
# highest of 50/75/80/90/95/99 that leaves at least 10 jobs above it at the
# job count of a 20 s run at the first baseline; a run keeps going until
# that many jobs lie beyond it.
TAIL_PERCENTILE = {"sweep": 90, "szego": 75, "montecarlo": 80}

WORKLOADS = ("sweep", "szego", "montecarlo")


def min_jobs(workload):
    """Smallest job count that leaves at least 10 jobs beyond the tail percentile."""
    return math.ceil(10 / (1 - TAIL_PERCENTILE[workload] / 100) - 1e-9)


def _cplx(z):
    return [float(z.real), float(z.imag)]


def _pc_spectrum(rng, max_bands=3, mass=1.0):
    """Random piecewise-constant spectrum on [-1/2, 1/2] with zero-density gaps."""
    k = int(rng.integers(1, max_bands + 1))
    cuts = np.sort(rng.uniform(-0.45, 0.45, size=2 * k))
    bands = [(float(cuts[2 * i]), float(cuts[2 * i + 1])) for i in range(k)
             if cuts[2 * i + 1] - cuts[2 * i] > 0.02]
    if not bands:
        half = float(rng.uniform(0.1, 0.35))
        bands = [(-half, half)]
    weights = rng.uniform(0.2, 1.0, size=len(bands))
    weights = weights / weights.sum() * mass
    pieces = [{"lo": lo, "hi": hi,
               "density": {"kind": "constant", "value": float(w / (hi - lo))}}
              for (lo, hi), w in zip(bands, weights)]
    return {"pieces": pieces}


def _flat_band(rng):
    half = float(rng.uniform(0.1, 0.35))
    return {"pieces": [{"lo": -half, "hi": half,
                        "density": {"kind": "constant", "value": 0.5 / half}}]}


def _point_mass_spectrum(rng):
    """Constant-density bands plus two point masses."""
    pm = float(rng.uniform(0.1, 0.4))
    spectrum = _pc_spectrum(rng, max_bands=2, mass=1.0 - pm)
    locs = rng.uniform(-0.5, 0.5, size=2)
    split = float(rng.uniform(0.3, 0.7))
    spectrum["point_masses"] = [[float(locs[0]), pm * split],
                                [float(locs[1]), pm * (1.0 - split)]]
    return spectrum


def _taps(rng, count):
    z = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return [_cplx(t) for t in z]


def _mean(rng, magnitude):
    return _cplx(magnitude * np.exp(2j * np.pi * rng.uniform()))


def _gaussian(spectrum, mean=None):
    model = {"kind": "gaussian", "spectrum": spectrum}
    if mean is not None:
        model["mean"] = mean
    return model


def _fir(taps, innovation, mean=None):
    model = {"kind": "fir", "taps": taps, "innovation": innovation}
    if mean is not None:
        model["mean"] = mean
    return model


def _sweep(rng):
    models = []
    models += [("rayleigh", _gaussian(_pc_spectrum(rng))) for _ in range(3)]
    models += [("rice", _gaussian(_pc_spectrum(rng), _mean(rng, RICE_MEAN)))
               for _ in range(2)]
    models += [("fir-gauss", _fir(_taps(rng, 3), "complex_gaussian")) for _ in range(3)]
    # nine distinct empirical-tail models: the library caches 8 tail tables,
    # so the models cycle through the cache and every pass rebuilds them
    empirical = [
        ("four-point", _fir(_taps(rng, 2), "four_point_phase")),
        ("four-point", _fir(_taps(rng, 3), "four_point_phase")),
        ("four-point", _fir(_taps(rng, 3), "four_point_phase")),
        ("four-point-mean", _fir(_taps(rng, 2), "four_point_phase",
                                 _mean(rng, 0.5))),
        ("unit-modulus", _fir(_taps(rng, 2), "unit_modulus")),
        ("unit-modulus", _fir(_taps(rng, 2), "unit_modulus")),
    ] + [("unit-modulus-mean", _fir(_taps(rng, 1), "unit_modulus",
                                    _mean(rng, 0.5))) for _ in range(3)]
    models += empirical
    scenarios = []
    for i in rng.permutation(len(models)):
        kind, model = models[i]
        scenarios.append((kind, {
            "name": f"sweep-{len(scenarios):02d}-{kind}",
            "model": model,
            "snr_grid": SWEEP_GRID,
            "gamma_mode": "optimized",
            "outputs": ["bound", "prelog"],
            "seed": int(rng.integers(0, 2**31)),
        }))
    # bound then prelog on the same scenario, so prelog reuses the tail table
    return [(cmd, kind, scen) for kind, scen in scenarios for cmd in ("bound", "prelog")]


def _szego(rng):
    low_snr = [1e2, 1e4, 1e6]
    specs = []
    specs += [("pc", _gaussian(_pc_spectrum(rng)), low_snr[i % 3]) for i in range(3)]
    specs += [("fir-trig", _fir(_taps(rng, 3), "complex_gaussian"), low_snr[i % 3])
              for i in range(3)]
    specs += [("point-mass", _gaussian(_point_mass_spectrum(rng)), low_snr[i % 3])
              for i in range(2)]
    # at and above 1e10 double precision starts to limit the dense log-det;
    # these two still factor for every seed tried (see _szego_probe)
    specs += [("pc-high-snr", _gaussian(_pc_spectrum(rng)), 1e12),
              ("point-mass-high-snr", _gaussian(_point_mass_spectrum(rng)), 1e10)]
    return _szego_jobs(rng, specs, "szego")


def _szego_jobs(rng, specs, prefix):
    jobs = []
    for i in rng.permutation(len(specs)):
        kind, model, snr = specs[i]
        jobs.append(("szego", kind, {
            "name": f"{prefix}-{len(jobs):02d}-{kind}",
            "model": model,
            "snr_grid": [snr],
            "snr": snr,
            "gamma_mode": "optimized",
            "outputs": ["szego"],
            "n_list": SZEGO_N_LIST,
            "seed": int(rng.integers(0, 2**31)),
        }))
    return jobs


def _szego_probe(rng):
    """Szego jobs past the precision limit of the dense Cholesky log-det.

    At the parent commit the Cholesky of I + snr K raises for most seeds of
    these (point masses at 1e12, constant bands at 1e14 and 1e16).  They run
    once, untimed, after the timed loop and are reported apart from the
    timed jobs, so the known defect shows without failing the benchmark.
    """
    specs = [("point-mass-1e12", _gaussian(_point_mass_spectrum(rng)), 1e12),
             ("pc-1e14", _gaussian(_pc_spectrum(rng)), 1e14),
             ("pc-1e16", _gaussian(_pc_spectrum(rng)), 1e16)]
    return _szego_jobs(rng, specs, "probe")


def _montecarlo(rng):
    def models():
        return [
            ("rayleigh", _gaussian(_flat_band(rng))),
            ("rice", _gaussian(_flat_band(rng), _mean(rng, RICE_MEAN))),
            ("unit-modulus", _fir(_taps(rng, 2), "unit_modulus")),
            ("four-point", _fir(_taps(rng, 3), "four_point_phase")),
        ]

    plan = [("mi", kind, model, 10**5) for kind, model in models()]
    # one Rayleigh job at test_05's sample size
    plan.append(("mi", "rayleigh-1e6", _gaussian(_flat_band(rng)), 10**6))
    for _ in range(2):
        plan += [("spectrum-check", kind, model, None) for kind, model in models()]
    jobs = []
    for i in rng.permutation(len(plan)):
        cmd, kind, model, samples = plan[i]
        scen = {
            "name": f"montecarlo-{len(jobs):02d}-{cmd}-{kind}",
            "model": model,
            "snr_grid": MI_SNR,
            "gamma_mode": "optimized",
            "outputs": [cmd],
            "seed": int(rng.integers(0, 2**31)),
            "path_length": 65536,
            "segment_length": 256,
        }
        if samples is not None:
            scen["mc_samples"] = samples
        jobs.append((cmd, kind, scen))
    return jobs


_GENERATORS = {"sweep": _sweep, "szego": _szego, "montecarlo": _montecarlo}


def generate(workload, seed, probe=False):
    """Job list [(subcommand, kind, scenario dict)], deterministic in (workload, seed).

    probe=True gives the untimed precision-probe jobs instead (szego only).
    """
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload), int(probe)])
    if probe:
        return _szego_probe(rng) if workload == "szego" else []
    return _GENERATORS[workload](rng)


def write_jobs(workload, seed, directory, probe=False):
    """Write one scenario file per distinct scenario; return [(cmd, kind, path, dict)]."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for cmd, kind, scen in generate(workload, seed, probe):
        path = directory / f"{scen['name']}.json"
        path.write_text(json.dumps(scen, sort_keys=True, indent=1) + "\n",
                        encoding="utf-8")
        out.append((cmd, kind, str(path), scen))
    return out
