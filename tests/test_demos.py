"""Each demo prints the same bytes as its golden file in ``demo_output/``.

The demos run as a user runs them, in a fresh interpreter from the
repository root with ``PYTHONPATH=src``, so a change anywhere in the
library that moves a printed digit, count or pair shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "demo_output"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_golden_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / (demo.stem + ".txt")).read_text()
