"""Shared fixtures and the acceptance-criteria summary.

After the run, one PASS/FAIL line is printed per acceptance criterion
(the tests in test_acceptance.py), so the gate can be read off directly.
"""

import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from prelog_lab import spectra


def pytest_configure(config):
    # hypothesis caches the constants it reads from the library's source in
    # its home directory, ./.hypothesis unless told otherwise: pytest's cache,
    # or a temporary directory removed at exit under -p no:cacheprovider
    if getattr(config, "cache", None) is not None:
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
    else:
        home = tempfile.TemporaryDirectory(prefix="hypothesis-")
        config.add_cleanup(home.cleanup)
        set_hypothesis_home_dir(home.name)


def random_pc_spectrum(rng, with_masses=False):
    """Random valid piecewise-constant spectrum (optionally with point masses)."""
    k = int(rng.integers(1, 4))
    cuts = np.sort(rng.uniform(-0.5, 0.5, size=2 * k))
    bands = [(float(cuts[2 * i]), float(cuts[2 * i + 1])) for i in range(k)
             if cuts[2 * i + 1] - cuts[2 * i] > 1e-3]
    if not bands:
        bands = [(-0.25, 0.25)]
    weights = rng.uniform(0.2, 1.0, size=len(bands))
    mass = 1.0
    masses = ()
    if with_masses:
        pm = float(rng.uniform(0.05, 0.3))
        locs = rng.uniform(-0.5, 0.5, size=2)
        masses = ((float(locs[0]), pm / 2), (float(locs[1]), pm / 2))
        mass -= pm
    weights = weights / weights.sum() * mass
    return spectra.mixed_spectrum(
        [(lo, hi, w / (hi - lo)) for (lo, hi), w in zip(bands, weights)], masses)


@pytest.fixture
def rng():
    return np.random.default_rng(20260813)


def _criterion(nodeid):
    name = nodeid.split("::")[-1]
    return name if "test_acceptance.py" in nodeid else None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for rep in terminalreporter.stats.get("passed", []):
        name = _criterion(getattr(rep, "nodeid", ""))
        if name:
            results.setdefault(name, True)
    for key in ("failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            name = _criterion(getattr(rep, "nodeid", ""))
            if name:
                results[name] = False
    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(results):
        verdict = "PASS" if results[name] else "FAIL"
        terminalreporter.write_line(f"{name}: {verdict}")
