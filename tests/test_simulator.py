import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from mmcplace.config import ScenarioConfig
from mmcplace.scenario import HexTopology
from mmcplace.simulator import (POLICIES, build_scenario, pick_window,
                                run_policy, synthetic_ratio_experiment,
                                write_results_csv, write_summary_csv)


def small_config(**kw):
    base = dict(n_cells=7, horizon=30, n_users=4, T_max=10)
    base.update(kw)
    return ScenarioConfig(**base)


def test_build_scenario_deterministic():
    cfg = small_config()
    a = build_scenario(cfg, 3)
    b = build_scenario(cfg, 3)
    assert [i.id for i in a.instances] == [i.id for i in b.instances]
    assert np.array_equal(a.cells, b.cells)
    c = build_scenario(cfg, 4)
    assert not np.array_equal(a.cells, c.cells)


def test_backend_policy_hand_check():
    """Policy c cost is just the backend linear rate times total demand."""
    cfg = small_config()
    scn = build_scenario(cfg, 1)
    res = run_policy(scn, "c")
    for t, cost in res.slot_costs.items():
        n = res.num_active[t]
        assert cost == pytest.approx(cfg.backend_local_rate * n
                                     * cfg.local_demand)
    assert sum(res.num_migrations.values()) == 0


def test_stay_put_policy_never_migrates():
    scn = build_scenario(small_config(), 2)
    res = run_policy(scn, "a")
    assert sum(res.num_migrations.values()) == 0
    res_b = run_policy(scn, "b")
    assert res_b.policy == "b"


def _charged_maps(monkeypatch):
    """Record the placement maps every policy hands to the charger, whose
    one call site is online.run_windows."""
    from mmcplace import costs, online

    seen = []

    def recording(model, placements, instances, distance=None):
        seen.append(placements)
        return costs.charge_placements(model, placements, instances, distance)

    monkeypatch.setattr(online, "charge_placements", recording)
    return seen


@pytest.mark.parametrize("policy", POLICIES)
def test_active_counts_match_instance_spans(policy, monkeypatch):
    """Runtime invariants of every policy, slot by slot, on the maps it is
    charged for: each active instance placed exactly once and nothing else
    placed, migrations equal to the placement diffs, every cost finite."""
    scn = build_scenario(small_config(lifetime=12.0), 5)
    seen = _charged_maps(monkeypatch)
    res = run_policy(scn, policy)
    [placements] = seen
    horizon = scn.config.horizon
    assert sorted(placements) == list(range(1, horizon + 1))
    for t in range(1, horizon + 1):
        active = {i.id for i in scn.instances
                  if i.arrival_slot <= t <= i.actual_departure_slot
                  and t <= i.planned_end}
        placed = placements[t]
        assert set(placed) == active, t
        assert all(1 <= k <= scn.model.K for k in placed.values())
        assert res.num_active[t] == len(active)
        before = placements.get(t - 1, {})
        assert res.num_migrations[t] == sum(
            1 for iid, k in placed.items() if before.get(iid, 0) not in (0, k))
        assert math.isfinite(res.slot_costs[t])
    assert any(i.planned_end < i.actual_departure_slot for i in scn.instances)


def test_policy_d_plans_no_placement_past_an_instance_stay(monkeypatch):
    """Policy d knows every departure: with a finite declared lifetime, no
    placement it plans reaches past an instance's last_slot, the earlier
    of its planned end and its actual departure."""
    from mmcplace import online

    scn = build_scenario(small_config(lifetime=12.0), 5)
    last = {i.id: i.last_slot for i in scn.instances}
    place, placed = online.place_on_arrival, []

    def checked(*args, **kwargs):
        out = place(*args, **kwargs)
        m = out.matrix
        for j, iid in enumerate(m.instance_ids):
            on = np.flatnonzero(m.data[:, j])
            assert not on.size or m.window.t0 + on[-1] <= last[iid], iid
        placed.append(args[0].id)
        return out

    monkeypatch.setattr(online, "place_on_arrival", checked)
    run_policy(scn, "d")
    assert len(placed) == len(scn.instances)
    assert any(i.planned_end < i.actual_departure_slot for i in scn.instances)


def test_online_policies_run_and_record_window():
    scn = build_scenario(small_config(), 1)
    d = run_policy(scn, "d")
    assert d.window_T == scn.config.horizon
    e = run_policy(scn, "e")
    assert e.window_T == pick_window(scn.config)
    assert set(d.slot_costs) == set(range(1, 31))
    # at beta = 0 policy e plans on the actual costs; beta < 0 is refused
    from mmcplace.online import run_online
    from mmcplace.predictor import ZERO_BOUND, CostOracle

    cfg = scn.config
    zero = run_policy(scn, "e", beta=0.0)
    plain = run_online(cfg.horizon, cfg.T_max, scn.instances,
                       CostOracle(scn.model, ZERO_BOUND), scn.distance)
    assert zero.window_T == cfg.T_max
    assert zero.slot_costs == plain.actual_by_slot
    with pytest.raises(ValueError):
        run_policy(scn, "e", beta=-0.1)


def test_pick_window_override_and_zero_beta():
    assert pick_window(small_config(window_T=7)) == 7
    assert pick_window(small_config(beta=0.0)) == 10


def test_unknown_policy():
    scn = build_scenario(small_config(), 1)
    with pytest.raises(ValueError):
        run_policy(scn, "z")


def test_ratio_experiment_bounds():
    samples, ints, fracs, ratio = synthetic_ratio_experiment(
        n_arrivals=60, seeds=range(1, 3), sample_every=20)
    assert samples[0] == 1 and samples[-1] == 60
    for m in samples:
        assert ints[m] >= fracs[m] - 1e-9
        assert ratio[m] >= 1.0 - 1e-9
    # a one-shot iterable of seeds averages over the same seeds
    assert synthetic_ratio_experiment(
        n_arrivals=60, seeds=iter(range(1, 3)), sample_every=20) == (
        samples, ints, fracs, ratio)
    with pytest.raises(ValueError):
        synthetic_ratio_experiment(n_arrivals=60, seeds=[])


@pytest.mark.parametrize("kwargs", [
    dict(n_arrivals=0), dict(n_arrivals=-5), dict(sample_every=0),
    dict(sample_every=-3), dict(n_clouds=1), dict(n_clouds=0)])
def test_ratio_experiment_rejects_bad_arguments(kwargs):
    """A negative sample_every once sampled only arrivals 1 and n."""
    args = dict(n_arrivals=20, seeds=[1], sample_every=5) | kwargs
    with pytest.raises(ValueError):
        synthetic_ratio_experiment(**args)


def test_ratio_experiment_smallest_arguments():
    samples, ints, fracs, ratio = synthetic_ratio_experiment(
        n_arrivals=1, seeds=[1], n_clouds=2, sample_every=1)
    assert samples == [1] and ratio[1] >= 1.0 - 1e-9


def test_csv_writers_deterministic(tmp_path):
    scn = build_scenario(small_config(horizon=12), 1)
    results = [run_policy(scn, p) for p in ("a", "c")]
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_results_csv(p1, results)
    write_results_csv(p2, [run_policy(scn, p) for p in ("a", "c")])
    assert p1.read_bytes() == p2.read_bytes()
    s = tmp_path / "s.csv"
    write_summary_csv(s, results)
    lines = s.read_text().splitlines()
    assert lines[0] == "policy,avg_cost,runtime_ms"
    assert len(lines) == 3


def _all_policies(cfg, seed=1):
    scn = build_scenario(cfg, seed)
    return scn, [run_policy(scn, p) for p in POLICIES]


def test_edge_no_users_costs_nothing():
    scn, results = _all_policies(small_config(n_users=0))
    assert scn.instances == []
    for res in results:
        assert res.slot_costs == {t: 0.0 for t in range(1, 31)}
        assert set(res.num_active.values()) == {0}


def test_edge_trace_without_coverage_costs_nothing(tmp_path):
    trace = tmp_path / "far.csv"
    trace.write_text("user_id,timestamp,lat,lon\n"
                     "1,0,0.0,0.0\n1,60,0.0,0.001\n2,30,10.0,10.0\n")
    scn, results = _all_policies(small_config(mobility="trace",
                                              trace_file=str(trace)))
    assert scn.instances == []
    for res in results:
        assert res.slot_costs == {t: 0.0 for t in range(1, 31)}


def test_trace_users_renumbered_not_dropped(tmp_path):
    """Trace users 5 and 9 are in coverage and become rows 1 and 2; user 2,
    never in coverage, takes no row. Both rows get instances."""
    c1, c2 = HexTopology.build(7).cells[:2]
    trace = tmp_path / "ids.csv"
    trace.write_text("user_id,timestamp,lat,lon\n"
                     "2,0,0.0,0.0\n2,60,0.0,0.001\n"
                     f"9,0,{c2.lat},{c2.lon}\n5,0,{c1.lat},{c1.lon}\n")
    scn, results = _all_policies(small_config(mobility="trace",
                                              trace_file=str(trace),
                                              mean_off_slots=0.0))
    assert scn.cells.shape == (3, 32)
    # fixes at t=0, stale after 600 s: slots 1..11
    assert scn.cells[1, 1:12].tolist() == [c1.id] * 11
    assert scn.cells[2, 1:12].tolist() == [c2.id] * 11
    assert not scn.cells[:, 12:].any()
    assert {i.user_id for i in scn.instances} == {1, 2}
    assert all(i.arrival_slot == 1 for i in scn.instances)
    assert results[0].num_active[1] == 2


def test_malformed_trace_rows_are_counted_in_a_warning(tmp_path, caplog):
    """A trace whose rows are all malformed still runs as an empty
    scenario, and the skipped rows are logged with their count."""
    trace = tmp_path / "bad.csv"
    trace.write_text("user_id,timestamp,lat,lon\n"
                     "1,0,north,west\n2,60,x,y\n")
    with caplog.at_level(logging.WARNING, logger="mmcplace"):
        scn, results = _all_policies(small_config(mobility="trace",
                                                  trace_file=str(trace)))
    assert scn.instances == []
    assert all(res.avg_cost == 0.0 for res in results)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("mmcplace.simulator", logging.WARNING,
         f"trace {trace}: skipped 2 malformed rows")]


@pytest.mark.parametrize("text", [
    "", "user_id,timestamp,lat,lon\n",
    "user_id,timestamp,lat,lon\n1,0,0.0,0.0\n1,60,0.0,0.001\n",
], ids=["0-byte", "header-only", "out-of-coverage"])
def test_trace_with_no_active_user_warns(tmp_path, caplog, text):
    """A trace that yields no user active in any slot (a 0-byte file, a
    header alone, fixes all out of coverage) runs as an empty scenario
    that costs 0 in every slot, with one warning that says so."""
    trace = tmp_path / "empty.csv"
    trace.write_text(text)
    with caplog.at_level(logging.WARNING, logger="mmcplace"):
        scn, results = _all_policies(small_config(mobility="trace",
                                                  trace_file=str(trace)))
    assert scn.instances == []
    for res in results:
        assert res.slot_costs == {t: 0.0 for t in range(1, 31)}
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("mmcplace.simulator", logging.WARNING,
         f"trace {trace}: no user is active in any of the 30 slots")]


@pytest.mark.parametrize("overrides", [dict(horizon=3, window_T=10),
                                       dict(n_cells=1)])
def test_edge_short_horizon_and_single_cell_are_finite(overrides):
    scn, results = _all_policies(small_config(**overrides))
    assert scn.instances
    for res in results:
        assert sorted(res.slot_costs) == list(range(1, scn.config.horizon + 1))
        assert all(math.isfinite(c) for c in res.slot_costs.values())
    assert results[-1].window_T == overrides.get("window_T",
                                                 pick_window(scn.config))


def test_edge_demand_at_capacity_goes_to_backend():
    """An instance as large as an MMC's capacity fits nowhere but the
    backend: every policy pays the backend rate, none pays inf, also
    when moving costs nothing (migration demand 0)."""
    for migration_demand in (1.0, 0.0):
        cfg = small_config(local_demand=5.0, capacity=5.0,
                           migration_demand=migration_demand)
        scn, results = _all_policies(cfg)
        for res in results:
            assert res.avg_cost == pytest.approx(59.5, rel=1e-12)
            for t, n in res.num_active.items():
                assert res.slot_costs[t] == pytest.approx(
                    cfg.backend_local_rate * cfg.local_demand * n)
        # a places each instance once, b every instance in every slot
        overflows = {res.policy: res.overflows for res in results}
        slots = sum(results[0].num_active.values())
        assert overflows == {"a": len(scn.instances), "b": slots,
                             "c": 0, "d": 0, "e": 0}
        assert slots > len(scn.instances) > 0


@pytest.mark.parametrize("cfg, seed", [
    (small_config(), 1), (small_config(), 2), (small_config(), 3),
    (small_config(local_demand=5.0, capacity=5.0), 1),
    (small_config(local_demand=2.5, migration_demand=0.0), 1),
    (small_config(local_demand=5.0, capacity=5.0, migration_demand=0.0), 1)])
def test_capacity_backend_runs_never_take_the_generic_dp(cfg, seed,
                                                         monkeypatch):
    """Policies d and e route every arrival of a scenario by the fast DP,
    and their ledgers never refuse a frozen MMC load at capacity. The
    patch fires on a regression: where _fast_base no longer recognizes
    the oracle's PerturbedCostModel, every case fails."""
    from mmcplace import online

    def generic_steps(*args):
        raise AssertionError("an arrival took the generic DP")

    monkeypatch.setattr(online, "_generic_steps", generic_steps)
    scn = build_scenario(cfg, seed)
    assert scn.instances
    for policy in ("d", "e"):
        run_policy(scn, policy)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_power_of_two_scaling_scales_every_slot_cost(seed):
    """Desk with both distance weights 0: multiplying the capacity and
    both demands by 2^k (k = -1, 1, 2) leaves every load's ratio to
    capacity as it was, so every slot cost of policies a-d scales by 2^k
    bit for bit and the active and migration counts stay equal. Policy e
    is left out: its noise offsets are absolute, not scaled."""
    from pathlib import Path

    from mmcplace.config import parse_config

    root = Path(__file__).resolve().parent.parent
    cfg = parse_config(str(root / "configs" / "desk.ini"))
    cfg.distance_local_weight = cfg.distance_migration_weight = 0.0

    def run(k):
        scaled = replace(cfg, capacity=math.ldexp(cfg.capacity, k),
                         local_demand=math.ldexp(cfg.local_demand, k),
                         migration_demand=math.ldexp(cfg.migration_demand, k))
        scn = build_scenario(scaled, seed)
        return [run_policy(scn, policy) for policy in "abcd"]

    base = run(0)
    assert any(sum(res.num_migrations.values()) for res in base)
    for k in (-1, 1, 2):
        for want, got in zip(base, run(k)):
            assert got.slot_costs == {t: math.ldexp(c, k)
                                      for t, c in want.slot_costs.items()}
            assert got.num_active == want.num_active
            assert got.num_migrations == want.num_migrations
