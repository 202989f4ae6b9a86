"""The quick demos run to completion against the package as it is.

Each runs as its own process in a scratch directory, so a change to a public
name or result field a demo reads (demo 02 prints ``cv_curve``) fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_synthetic_designs.py", "02_bandwidth_selection.py", "03_snr_distribution.py",
         "04_block_size_selection.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
