import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import targetset

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# sha256 of each CSV a demo writes next to itself; pins run_bench -> write_csv.
GOLDEN_CSV = {
    "threshold_sweep.py": {
        "sweep_threshold.csv": "17c3f4e0eeef988134d97d788162663ee5cb82178a887ddc745c135565fc38c7",
        "sweep_density.csv": "80dd7c976de1418e15b8ec9a8b548e13708d7c7ec3a5321f4187b91eb2d704e3",
    },
}


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Run a copy, so a demo's output files land in tmp_path, not in the checkout.
    script = shutil.copy(demo, tmp_path)
    src = str(Path(targetset.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, str(script)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    expected = GOLDEN_CSV.get(demo.name, {})
    written = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected}
    assert written == expected
