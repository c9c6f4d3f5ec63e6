"""The traced benchmark wraps mmcplace names from outside; a renamed or
deleted name breaks it. Install its tracer against the package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_against_the_package():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c",
         "import tracer; tracer.install(tracer.Tracer()); print('installed')"],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "installed"
