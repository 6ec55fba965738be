"""Each demo runs to completion and prints exactly its pinned output.

The demos are seeded, so their stdout guards the whole pipeline end to end:
sampling, detection, scoring, windows, tilts, nu and thresholds. The pinned
text lives in tests/data/demos/<demo>.out; after a change that is meant to
move a printed figure, regenerate it with

    PYTHONPATH=src python demos/<demo>.py > tests/data/demos/<demo>.out
"""

import pathlib
import subprocess
import sys

import pytest

from conftest import child_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("0*.py"))


def test_every_demo_is_pinned(data_dir):
    assert DEMOS == sorted(p.stem for p in (data_dir / "demos").glob("*.out"))


@pytest.mark.parametrize("demo", DEMOS)
def test_stdout_matches_pinned(demo, data_dir):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (data_dir / "demos" / f"{demo}.out").read_text()
