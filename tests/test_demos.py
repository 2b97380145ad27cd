"""The demo scripts run end to end. Each writes under out/ in its working directory.

04_gradient_checking.py is left out: it takes about half a minute on two cores.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_synthetic_channel.py", "02_split_geometries.py",
                                  "03_train_and_evaluate.py"])
def test_demo_runs(tmp_path, demo):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out").is_dir()
