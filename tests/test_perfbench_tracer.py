"""The benchmark calls and wraps mmcplace names from outside; a renamed
or deleted name, or a changed signature, breaks it. Install its tracer
against the package, run its per-arrival grid, and run one exact-ref,
one fullscale-sim and one desk-sweep repetition against their stored
fingerprints."""

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


def test_arrival_grid_runs_against_the_package():
    """arrival_grid builds DistanceContext from hooks and calls
    place_on_arrival without a ledger on the capacity/backend DP: one
    finite median per (K, T, M) point, 36 in all."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    script = ("import json, math, grid\n"
              "out = grid.arrival_grid(1)\n"
              "print(json.dumps([len(out), all(map(math.isfinite, "
              "out.values()))]))\n")
    done = subprocess.run([sys.executable, "-c", script],
                          cwd=ROOT / "perfbench", env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[36, true]"


def test_exact_ref_repetition_matches_its_fingerprint():
    """exact_rep calls run_online with positional arguments and reads
    place_on_arrival(..., want_cost=False).matrix."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    script = ("import json, workload\n"
              "rep = workload.exact_rep(1)\n"
              "ref = json.loads(workload.REFERENCE.read_text())\n"
              "workload.check_reference(ref['exact-ref']['1'], rep)\n"
              "print(json.dumps(rep.failures))\n")
    done = subprocess.run([sys.executable, "-c", script],
                          cwd=ROOT / "perfbench", env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_fullscale_sim_repetition_matches_its_fingerprint(tmp_path):
    """fullscale_rep runs `simulate --policy all` and reads summary.csv, so
    every policy's charge is checked against the seed-1 fingerprint. Its
    CSVs go to tmp_path."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    script = ("import json, pathlib, sys, workload\n"
              "workload.OUT = pathlib.Path(sys.argv[1])\n"
              "rep = workload.fullscale_rep(1)\n"
              "ref = json.loads(workload.REFERENCE.read_text())\n"
              "workload.check_reference(ref['fullscale-sim']['1'], rep)\n"
              "print(json.dumps(rep.failures))\n")
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          cwd=ROOT / "perfbench", env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "fullscale-10000" / "summary.csv").is_file()


def test_desk_sweep_repetition_matches_its_fingerprint(tmp_path):
    """desk_rep runs policy e over T = 1..30 at two betas, a window start
    every 1 to 30 slots, and checks every cell's cost against the seed-1
    fingerprint. Its sweep CSV goes to tmp_path."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    script = ("import json, pathlib, sys, workload\n"
              "workload.OUT = pathlib.Path(sys.argv[1])\n"
              "rep = workload.desk_rep(1)\n"
              "ref = json.loads(workload.REFERENCE.read_text())\n"
              "workload.check_reference(ref['desk-sweep']['1'], rep)\n"
              "print(json.dumps(rep.failures))\n")
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          cwd=ROOT / "perfbench", env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "sweep-1.csv").is_file()
