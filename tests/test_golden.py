"""Pins of the shipped scenarios' bound, prelog, mi, spectrum-check and szego
CSVs.

The files under tests/golden/ were written by `prelog-lab <command> --scenario
scenarios/<name>.json`; a refactor must reproduce the bound, prelog, mi and
spectrum-check files byte for byte.  In the szego files every cell is pinned
byte for byte but the log-det columns: a change of factorization moves their
rounding, so they are pinned to 1e-12 nats plus one unit in the 12th
significant digit, the last one the CSV prints.  Regenerate a file only for a
change that is meant to alter numbers.
"""

import csv
import io
import json
import math
import pathlib

import pytest

from prelog_lab import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.csv"))
BYTE_GOLDEN = [g for g in GOLDEN if not g.stem.endswith(".szego")]
SZEGO_GOLDEN = [g for g in GOLDEN if g.stem.endswith(".szego")]
SZEGO_NEAR = {"penalty_logdet_nats", "gap_nats"}


def run_shipped(golden, capsys):
    name, command = golden.stem.split(".")
    code = cli.main([command, "--scenario", str(ROOT / "scenarios" / f"{name}.json")])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def test_every_listed_output_is_pinned():
    want = set()
    for path in (ROOT / "scenarios").glob("*.json"):
        outputs = json.loads(path.read_text())["outputs"]
        want |= {f"{path.stem}.{c}.csv" for c in outputs}
    assert {g.name for g in GOLDEN} == want


@pytest.mark.parametrize("golden", BYTE_GOLDEN, ids=[g.stem for g in BYTE_GOLDEN])
def test_shipped_scenario_csv_is_byte_identical(golden, capsys):
    assert run_shipped(golden, capsys) == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("golden", SZEGO_GOLDEN, ids=[g.stem for g in SZEGO_GOLDEN])
def test_shipped_szego_csv_matches(golden, capsys):
    got = list(csv.reader(io.StringIO(run_shipped(golden, capsys))))
    want = list(csv.reader(io.StringIO(golden.read_text(encoding="utf-8"))))
    assert got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        for column, g, w in zip(want[0], got_row, want_row):
            if column in SZEGO_NEAR:
                w = float(w)
                last_digit = 10.0 ** (math.floor(math.log10(abs(w))) - 11) if w else 0.0
                assert float(g) == pytest.approx(w, rel=0, abs=1e-12 + last_digit), column
            else:
                assert g == w, column
