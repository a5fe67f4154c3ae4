"""Every demo runs to its end in-process.

The demos use the public API as a reader would, so a renamed or removed
name fails here rather than in front of the reader.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
