"""Pins of the demos' printed output.

Each script in demos/ runs in this process (runpy, so no interpreter start
or package import per demo) and its stdout must equal
tests/golden/demos/<name>.txt byte for byte.  The demos print rounded
numbers, so a refactor that keeps the library's results keeps these files;
regenerate one only for a change that is meant to alter what a demo shows.
"""

import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def test_every_demo_is_pinned():
    assert {d.stem for d in DEMOS} == {g.stem for g in GOLDEN.glob("*.txt")}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_byte_identical(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    want = (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
