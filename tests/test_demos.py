"""Each demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Files each demo writes to its working directory.
WRITES = {
    "02_reids_recipe.py": {"recipe_11.svg", "recipe_12.svg"},
    "05_quiver_rigidity.py": {"quiver_band.svg"},
}


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in tmp_path.iterdir()} == WRITES.get(script.name, set())
    for name in WRITES.get(script.name, ()):
        assert (tmp_path / name).read_text().startswith("<svg")
