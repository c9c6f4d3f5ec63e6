"""Golden outputs: every policy on the desk config, seeds 1-3, on the
fullscale config (K = 92) over its first 40 slots at seed 1, and the
greedy-vs-fractional ratio curve.

The per-slot rows of results.csv (actual cost, active and migrated
instance counts) and the summary.csv average cost per policy are pinned
in tests/golden/ at full float precision and checked at rel <= 1e-12, so
a refactor that changes any placement decision shows up here. The
ratio.csv of `mmcplace ratio-curve --arrivals 200 --seeds 3
--sample-every 10` is pinned byte for byte, which pins the greedy costs
and the fractional lower bound at every sample.

Regenerate after a deliberate behaviour change with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from mmcplace.cli import main
from mmcplace.config import parse_config
from mmcplace.simulator import POLICIES, build_scenario, run_policy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DESK_INI = ROOT / "configs" / "desk.ini"
FULLSCALE_INI = ROOT / "configs" / "fullscale.ini"
SEEDS = (1, 2, 3)
FULLSCALE_SLOTS = 40
# golden name -> (config, seed, horizon override or None)
CASES = {f"desk_seed{s}": (DESK_INI, s, None) for s in SEEDS}
CASES[f"fullscale_seed1_s{FULLSCALE_SLOTS}"] = (FULLSCALE_INI, 1,
                                                FULLSCALE_SLOTS)
REL = 1e-12
RATIO_ARGS = ["--arrivals", "200", "--seeds", "3", "--sample-every", "10"]
RATIO_GOLDEN = GOLDEN / "ratio_a200_s3.csv"


def _run(name):
    path, seed, slots = CASES[name]
    config = parse_config(str(path))
    if slots:
        config.horizon = slots
    scn = build_scenario(config, seed)
    return [run_policy(scn, policy) for policy in POLICIES]


def _results_rows(results):
    return [(t, res.policy, res.slot_costs[t], res.num_active.get(t, 0),
             res.num_migrations.get(t, 0))
            for res in results for t in sorted(res.slot_costs)]


def _write(name):
    results = _run(name)
    GOLDEN.mkdir(exist_ok=True)
    with open(GOLDEN / f"{name}_results.csv", "w", newline="") as fh:
        fh.write("slot,policy,actual_cost,num_active,num_migrations\n")
        for t, policy, cost, active, moved in _results_rows(results):
            fh.write(f"{t},{policy},{cost!r},{active},{moved}\n")
    with open(GOLDEN / f"{name}_summary.csv", "w", newline="") as fh:
        fh.write("policy,avg_cost\n")
        for res in results:
            fh.write(f"{res.policy},{res.avg_cost!r}\n")


def _ratio_csv(out_dir):
    assert main(["ratio-curve", *RATIO_ARGS, "--out-dir", str(out_dir)]) == 0
    return Path(out_dir) / "ratio.csv"


def _read(name):
    with open(GOLDEN / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _check(name):
    results = _run(name)
    want = _read(f"{name}_results.csv")
    got = _results_rows(results)
    assert len(got) == len(want)
    for (t, policy, cost, active, moved), row in zip(got, want):
        assert (t, policy) == (int(row["slot"]), row["policy"])
        assert cost == pytest.approx(float(row["actual_cost"]), rel=REL,
                                     abs=0.0), (t, policy)
        assert (active, moved) == (int(row["num_active"]),
                                   int(row["num_migrations"])), (t, policy)
    summary = _read(f"{name}_summary.csv")
    assert [row["policy"] for row in summary] == [r.policy for r in results]
    for res, row in zip(results, summary):
        assert res.avg_cost == pytest.approx(float(row["avg_cost"]), rel=REL,
                                             abs=0.0), res.policy


@pytest.mark.parametrize("seed", SEEDS)
def test_desk_outputs_match_golden(seed):
    _check(f"desk_seed{seed}")


def test_fullscale_outputs_match_golden():
    _check(f"fullscale_seed1_s{FULLSCALE_SLOTS}")


def test_ratio_curve_matches_golden(tmp_path):
    assert _ratio_csv(tmp_path).read_bytes() == RATIO_GOLDEN.read_bytes()


if __name__ == "__main__":
    for case in CASES:
        _write(case)
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copyfile(_ratio_csv(tmp), RATIO_GOLDEN)
    sys.exit(0)
