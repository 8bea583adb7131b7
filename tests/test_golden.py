"""Byte-level pins of the shipped scenarios' bound, prelog and mi CSVs.

The files under tests/golden/ were written by `prelog-lab <command> --scenario
scenarios/<name>.json`; a refactor of the bound path must reproduce them byte
for byte.  Regenerate one only for a change that is meant to alter numbers.
"""

import json
import pathlib

import pytest

from prelog_lab import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.csv"))


def test_every_listed_output_is_pinned():
    want = set()
    for path in (ROOT / "scenarios").glob("*.json"):
        outputs = json.loads(path.read_text())["outputs"]
        want |= {f"{path.stem}.{c}.csv" for c in ("bound", "prelog", "mi")
                 if c in outputs}
    assert {g.name for g in GOLDEN} == want


@pytest.mark.parametrize("golden", GOLDEN, ids=[g.stem for g in GOLDEN])
def test_shipped_scenario_csv_is_byte_identical(golden, capsys):
    name, command = golden.stem.split(".")
    code = cli.main([command, "--scenario", str(ROOT / "scenarios" / f"{name}.json")])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == golden.read_text(encoding="utf-8")
