"""Golden outputs: every policy on the desk config, seeds 1-3.

The per-slot rows of results.csv (actual cost, active and migrated
instance counts) and the summary.csv average cost per policy are pinned
in tests/golden/ at full float precision and checked at rel <= 1e-12, so
a refactor that changes any placement decision shows up here.

Regenerate after a deliberate behaviour change with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import sys
from pathlib import Path

import pytest

from mmcplace.config import parse_config
from mmcplace.simulator import POLICIES, build_scenario, run_policy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DESK_INI = ROOT / "configs" / "desk.ini"
SEEDS = (1, 2, 3)
REL = 1e-12


def _run(seed):
    scn = build_scenario(parse_config(str(DESK_INI)), seed)
    return [run_policy(scn, policy) for policy in POLICIES]


def _results_rows(results):
    return [(t, res.policy, res.slot_costs[t], res.num_active.get(t, 0),
             res.num_migrations.get(t, 0))
            for res in results for t in sorted(res.slot_costs)]


def _write(seed):
    results = _run(seed)
    GOLDEN.mkdir(exist_ok=True)
    with open(GOLDEN / f"desk_seed{seed}_results.csv", "w", newline="") as fh:
        fh.write("slot,policy,actual_cost,num_active,num_migrations\n")
        for t, policy, cost, active, moved in _results_rows(results):
            fh.write(f"{t},{policy},{cost!r},{active},{moved}\n")
    with open(GOLDEN / f"desk_seed{seed}_summary.csv", "w", newline="") as fh:
        fh.write("policy,avg_cost\n")
        for res in results:
            fh.write(f"{res.policy},{res.avg_cost!r}\n")


def _read(name):
    with open(GOLDEN / name, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("seed", SEEDS)
def test_desk_outputs_match_golden(seed):
    results = _run(seed)
    want = _read(f"desk_seed{seed}_results.csv")
    got = _results_rows(results)
    assert len(got) == len(want)
    for (t, policy, cost, active, moved), row in zip(got, want):
        assert (t, policy) == (int(row["slot"]), row["policy"])
        assert cost == pytest.approx(float(row["actual_cost"]), rel=REL,
                                     abs=0.0), (t, policy)
        assert (active, moved) == (int(row["num_active"]),
                                   int(row["num_migrations"])), (t, policy)
    summary = _read(f"desk_seed{seed}_summary.csv")
    assert [row["policy"] for row in summary] == [r.policy for r in results]
    for res, row in zip(results, summary):
        assert res.avg_cost == pytest.approx(float(row["avg_cost"]), rel=REL,
                                             abs=0.0), res.policy


if __name__ == "__main__":
    for s in SEEDS:
        _write(s)
    sys.exit(0)
