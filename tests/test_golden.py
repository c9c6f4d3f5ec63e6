"""Golden outputs: every policy on the desk config, seeds 1-3, on the
fullscale config (K = 92) over its first 40 slots at seed 1, and the
greedy-vs-fractional ratio curve, and the exact solvers on seeded
windows of every cost family.

The per-slot rows of results.csv (actual cost, active and migrated
instance counts) and the summary.csv average cost per policy are pinned
in tests/golden/ at full float precision and checked at rel <= 1e-12, so
a refactor that changes any placement decision shows up here. The
ratio.csv of `mmcplace ratio-curve --arrivals 200 --seeds 3
--sample-every 10` is pinned byte for byte, which pins the greedy costs
and the fractional lower bound at every sample. exact_paths.csv pins,
in float.hex and checked for equality, the offline DP's and the brute
force's cost, matrix and work count on a few seeded windows per cost
family (linear, polynomial, capacity/backend with distances, perturbed
polynomial), and the per-slot and total cost of run_online on the
generic per-arrival DP (polynomial and linear costs under prediction
noise). gap_constants.csv pins, in float.hex and checked for equality,
phi, psi, the window cost with and without the slot t0-1 loads and every
gradient entry of the gap-constant code on seeded windows (linear and
polynomial costs, t0 = 1 to 3, with and without a prev_config, and load
maxima of once and twice the loads).

The goldens were written with numpy 2.4.6, the version CI installs:
NumPy keeps RandomState streams fixed but may change Generator
algorithms in a feature release, so every golden failure names the
numpy that ran.

Regenerate after a deliberate behaviour change with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import itertools
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mmcplace.cli import main
from mmcplace.config import parse_config
from mmcplace.core import (ConfigurationMatrix, ServiceInstance, Window,
                           feasible_sequences)
from mmcplace.costs import (DistanceContext, LinearCostModel,
                            MmcBackendCostModel, PerturbedCostModel,
                            PolynomialCostModel, placement_loads)
from mmcplace.offline import solve_window_offline
from mmcplace.online import run_online
from mmcplace.oracle import (brute_force_offline, gap_constants,
                             grad_window_cost, loads_from_matrix,
                             window_cost_from_loads)
from mmcplace.predictor import CostOracle, PowerLawErrorBound
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
EXACT_GOLDEN = GOLDEN / "exact_paths.csv"
EXACT_FAMILIES = ("linear", "polynomial", "backend", "perturbed")
EXACT_SEEDS = (1, 2, 3)
GAP_GOLDEN = GOLDEN / "gap_constants.csv"
NUMPY = f"numpy {np.__version__} (goldens written with 2.4.6)"


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


def _exact_model(family, rng, K):
    """A seeded model of one family over clouds 1..K, with the distance
    context it is priced with (None but for the capacity/backend one)."""
    if family == "linear":
        return LinearCostModel(np.r_[0.0, rng.uniform(0.5, 2.0, K)],
                               float(rng.uniform(0.0, 0.5)),
                               float(rng.uniform(0.0, 0.5)),
                               float(rng.uniform(0.2, 1.0))), None
    if family == "backend":
        model = MmcBackendCostModel(K=K, capacity=2.5, backend_local_rate=3.0,
                                    backend_migration_rate=2.0,
                                    distance_local_weight=0.3,
                                    distance_migration_weight=0.2)
        return model, DistanceContext(
            user_cell_of=lambda iid, t: 1 + (iid + t) % (K - 1),
            cloud_cell_distance=lambda k, c: abs(k - c),
            cloud_pair_distance=lambda k, l: abs(k - l), backend=K)
    ucoeffs = np.zeros((K + 1, 4))
    ucoeffs[1:, 1] = rng.uniform(0.2, 2.0, K)
    ucoeffs[1:, 2] = rng.uniform(0.0, 1.0, K)
    ucoeffs[1:, 3] = rng.uniform(0.0, 0.3, K)
    model = PolynomialCostModel(ucoeffs, [(0, 0, 1, 0.6), (1, 0, 1, 0.2),
                                          (0, 1, 2, 0.1)])
    if family == "perturbed":
        model = PerturbedCostModel(model, {t: rng.uniform(-0.3, 0.3, K + 1)
                                           for t in range(1, 6)})
    return model, None


def _matrix_text(matrix):
    return "|".join(".".join(map(str, row)) for row in matrix.data.tolist())


def _exact_rows():
    """(case, quantity, value) of every pinned exact-solver output."""
    rows = []
    for family in EXACT_FAMILIES:
        for seed in EXACT_SEEDS:
            rng = np.random.default_rng([seed, 23])
            K = 3
            model, distance = _exact_model(family, rng, K)
            t0, T = int(rng.integers(1, 3)), int(rng.integers(2, 4))
            w = Window(t0, T)
            insts = [ServiceInstance(
                id=j, arrival_slot=int(rng.integers(1, t0 + 2)),
                max_lifetime=int(rng.integers(1, T + 2)),
                local_demand=float(rng.uniform(0.3, 1.2)),
                migration_demand=float(rng.uniform(0.3, 1.2)))
                for j in range(1, 4)]
            prev = {i.id: int(rng.integers(1, K + 1)) for i in insts
                    if i.arrival_slot < t0}
            dp = solve_window_offline(w, insts, prev, model, distance)
            bf = brute_force_offline(w, insts, prev, model, distance)
            case = f"{family}_seed{seed}"
            rows += [(case, "dp.cost", dp.cost.hex()),
                     (case, "dp.matrix", _matrix_text(dp.matrix)),
                     (case, "dp.relaxations", str(dp.relaxations)),
                     (case, "bf.cost", bf.cost.hex()),
                     (case, "bf.matrix", _matrix_text(bf.matrix)),
                     (case, "bf.evaluated", str(bf.evaluated))]
    for family in ("polynomial", "linear"):
        rng = np.random.default_rng([7, 23])
        model, _ = _exact_model(family, rng, 4)
        insts = []
        for j in range(1, 13):
            arrival = int(rng.integers(1, 13))
            life = int(rng.integers(2, 8)) if rng.random() < 0.4 else math.inf
            leave = (min(12, arrival + int(rng.integers(0, 6)))
                     if rng.random() < 0.5 else None)
            insts.append(ServiceInstance(
                id=j, arrival_slot=arrival, max_lifetime=life,
                local_demand=float(rng.uniform(0.3, 1.0)),
                migration_demand=float(rng.uniform(0.3, 1.0)),
                actual_departure_slot=leave))
        run = run_online(12, 4, insts, CostOracle(
            model, PowerLawErrorBound(0.2, 1.1), seed=5))
        case = f"online_{family}"
        rows += [(case, f"slot{t}", run.actual_by_slot[t].hex())
                 for t in sorted(run.actual_by_slot)]
        rows.append((case, "total", run.total_cost.hex()))
    return rows


def _write_exact():
    with open(EXACT_GOLDEN, "w", newline="") as fh:
        fh.write("case,quantity,value\n")
        for row in _exact_rows():
            fh.write(",".join(row) + "\n")


def _gap_rows():
    """(case, quantity, value) of every pinned gap-constant output."""
    rows = []
    for family, t0, with_prev, scale in itertools.product(
            ("linear", "polynomial"), (1, 2, 3), (False, True), (1.0, 2.0)):
        case = f"{family}_t{t0}_{'prev' if with_prev else 'cold'}_x{scale:g}"
        rng = np.random.default_rng([t0, with_prev, int(scale), 25])
        K = 3
        model, _ = _exact_model(family, rng, K)
        w = Window(t0, int(rng.integers(2, 4)))
        insts = [ServiceInstance(
            id=j, arrival_slot=int(rng.integers(max(1, t0 - 1), t0 + 2)),
            max_lifetime=int(rng.integers(2, w.T + 3)),
            local_demand=float(rng.uniform(0.3, 1.2)),
            migration_demand=float(rng.uniform(0.3, 1.2)))
            for j in range(1, 4)]
        # at t0 = 1 every instance present at slot 1 gets a cloud at slot 0
        prev = ({i.id: int(rng.integers(1, K + 1)) for i in insts
                 if i.arrival_slot < max(t0, 2)} if with_prev else None)
        matrix = ConfigurationMatrix(w, [i.id for i in insts])
        for inst in insts:
            seqs = feasible_sequences(inst, w, K)
            matrix.set_column(inst.id, seqs[int(rng.integers(len(seqs)))])
        y, z = loads_from_matrix(model, matrix, insts, prev)
        y_max = y * scale
        z_max = [{key: v * scale for key, v in d.items()} for d in z]
        placed = [i for i in insts if i.id in (prev or {})]
        y_before = placement_loads(t0 - 1, placed,
                                   [prev[i.id] for i in placed], K).y
        phi, psi = gap_constants(model, w, insts, y, z, y_max, z_max, prev)
        rows += [(case, "phi", phi.hex()),
                 (case, "psi", "None" if psi is None else psi.hex()),
                 (case, "cost", window_cost_from_loads(model, w, y, z).hex()),
                 (case, "cost.before", window_cost_from_loads(
                     model, w, y, z, y_before).hex())]
        for name, yb in (("grad", None), ("grad.before", y_before)):
            dy, dz = grad_window_cost(model, w, y_max, z_max, yb)
            rows += [(case, f"{name}.dy{q}.{k}", float(dy[q, k]).hex())
                     for q, k in itertools.product(range(w.T), range(K + 1))]
            rows += [(case, f"{name}.dz{q}.{k}-{l}", v.hex())
                     for q in range(w.T) for (k, l), v in dz[q].items()]
    return rows


def _write_gap():
    with open(GAP_GOLDEN, "w", newline="") as fh:
        fh.write("case,quantity,value\n")
        for row in _gap_rows():
            fh.write(",".join(row) + "\n")


def _read(name):
    with open(GOLDEN / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _check(name):
    results = _run(name)
    want = _read(f"{name}_results.csv")
    got = _results_rows(results)
    assert len(got) == len(want), NUMPY
    for (t, policy, cost, active, moved), row in zip(got, want):
        assert (t, policy) == (int(row["slot"]), row["policy"]), NUMPY
        assert cost == pytest.approx(float(row["actual_cost"]), rel=REL,
                                     abs=0.0), (t, policy, NUMPY)
        assert (active, moved) == (int(row["num_active"]),
                                   int(row["num_migrations"])), (t, policy,
                                                                 NUMPY)
    summary = _read(f"{name}_summary.csv")
    assert [row["policy"] for row in summary] == [r.policy for r in results]
    for res, row in zip(results, summary):
        assert res.avg_cost == pytest.approx(float(row["avg_cost"]), rel=REL,
                                             abs=0.0), (res.policy, NUMPY)


@pytest.mark.parametrize("seed", SEEDS)
def test_desk_outputs_match_golden(seed):
    _check(f"desk_seed{seed}")


def test_fullscale_outputs_match_golden():
    _check(f"fullscale_seed1_s{FULLSCALE_SLOTS}")


def test_ratio_curve_matches_golden(tmp_path):
    assert (_ratio_csv(tmp_path).read_bytes()
            == RATIO_GOLDEN.read_bytes()), NUMPY


def test_exact_solvers_match_golden():
    """Offline DP, brute force and the generic online DP, bit for bit."""
    want = [(row["case"], row["quantity"], row["value"])
            for row in _read(EXACT_GOLDEN.name)]
    assert _exact_rows() == want, NUMPY


def test_gap_constants_match_golden():
    """phi, psi, the window costs and every gradient entry, bit for bit."""
    want = [(row["case"], row["quantity"], row["value"])
            for row in _read(GAP_GOLDEN.name)]
    assert _gap_rows() == want, NUMPY


if __name__ == "__main__":
    for case in CASES:
        _write(case)
    _write_exact()
    _write_gap()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copyfile(_ratio_csv(tmp), RATIO_GOLDEN)
    sys.exit(0)
