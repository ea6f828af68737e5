"""Every demo script runs to completion and prints its tour."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_three_demos_are_found():
    assert [path.name for path in DEMOS] == ["affine_tour.py", "nilhecke_tour.py", "stanley_tour.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
