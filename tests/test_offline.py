import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcplace.core import ServiceInstance, Window
from mmcplace.costs import LinearCostModel, MmcBackendCostModel
from mmcplace.offline import (StateBudgetExceeded, run_offline,
                              solve_window_offline)
from mmcplace.oracle import EnumerationBudgetExceeded, brute_force_offline
from mmcplace.predictor import ZERO_BOUND, CostOracle


def mmc(K=3, Y=5.0):
    return MmcBackendCostModel(K=K, capacity=Y, backend_local_rate=3.0,
                               backend_migration_rate=3.0)


def random_instances(rng, n, T, with_prev=False):
    insts = []
    prev = {}
    for j in range(1, n + 1):
        arr = int(rng.integers(1, T + 1))
        life = int(rng.integers(1, T + 1))
        insts.append(ServiceInstance(
            id=j, arrival_slot=arr, max_lifetime=life,
            local_demand=float(rng.uniform(0.5, 2.0)),
            migration_demand=float(rng.uniform(0.5, 2.0))))
        if with_prev and arr == 1 and rng.random() < 0.5:
            prev[j] = int(rng.integers(1, 4))
    return insts, prev


@given(st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_dp_matches_enumeration(seed):
    """The layered DP and exhaustive enumeration agree, tie-break included."""
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 4))
    w = Window(1, T)
    insts, prev = random_instances(rng, int(rng.integers(1, 4)), T,
                                   with_prev=True)
    model = mmc()
    dp = solve_window_offline(w, insts, prev, model)
    bf = brute_force_offline(w, insts, prev, model)
    assert dp.cost == pytest.approx(bf.cost, rel=1e-9, abs=1e-9)
    assert np.array_equal(dp.matrix.data, bf.matrix.data)


def test_dp_matches_enumeration_linear_migrations():
    rng = np.random.default_rng(12)
    w = Window(1, 3)
    insts, _ = random_instances(rng, 3, 3)
    model = LinearCostModel(np.array([0, 2.0, 1.0, 3.0]), 0.0, 0.0, 0.7)
    dp = solve_window_offline(w, insts, None, model)
    bf = brute_force_offline(w, insts, None, model)
    assert dp.cost == pytest.approx(bf.cost)
    assert np.array_equal(dp.matrix.data, bf.matrix.data)


def test_state_budget_guard():
    w = Window(1, 2)
    insts = [ServiceInstance(id=j, arrival_slot=1) for j in range(1, 8)]
    with pytest.raises(StateBudgetExceeded):
        solve_window_offline(w, insts, None, mmc(K=10), state_budget=1000)


def test_relaxation_count_single_instance():
    """One instance active all T slots: K first-layer inits then K^2 per
    boundary."""
    model = mmc(K=4)
    w = Window(1, 3)
    insts = [ServiceInstance(id=1, arrival_slot=1)]
    sol = solve_window_offline(w, insts, None, model)
    assert sol.relaxations == 4 + 2 * 16


def test_run_offline_windows_chain():
    """Placements chain across windows: slot costs match an end-to-end
    recount and migration baselines carry over."""
    model = mmc(K=3)
    oracle = CostOracle(model, ZERO_BOUND, seed=0)
    insts = [ServiceInstance(id=1, arrival_slot=1, actual_departure_slot=6),
             ServiceInstance(id=2, arrival_slot=3, actual_departure_slot=6)]
    sols, actual = run_offline(6, 3, insts, oracle)
    assert len(sols) == 2
    assert sorted(actual) == list(range(1, 7))
    total = sum(actual.values())
    whole = solve_window_offline(Window(1, 6), insts, None, model)
    # chained 3-slot windows can only do as well as one 6-slot solve
    assert total >= whole.cost - 1e-9


def test_budget_guards_raise_before_enumerating(monkeypatch):
    """One instance over 30 slots at K = 10: 10^30 candidate sequences for
    the brute force, and with six more instances in slot 1, 10^7 joint
    states there. Both guards raise from sizes alone, without listing."""
    from mmcplace import offline, oracle

    def never(*_args, **_kwargs):
        raise AssertionError("enumerated before the budget check")

    monkeypatch.setattr(offline, "_slot_states", never)
    monkeypatch.setattr(oracle, "feasible_sequences", never)
    w = Window(1, 30)
    long_one = ServiceInstance(id=1, arrival_slot=1)
    with pytest.raises(EnumerationBudgetExceeded):
        brute_force_offline(w, [long_one], None, mmc(K=10))
    with pytest.raises(StateBudgetExceeded) as info:
        solve_window_offline(w, [long_one], None, mmc(K=10), state_budget=9)
    assert info.value.required == 10
    crowd = [long_one] + [ServiceInstance(id=j, arrival_slot=1,
                                          max_lifetime=1)
                          for j in range(2, 8)]
    with pytest.raises(StateBudgetExceeded) as info:
        solve_window_offline(w, crowd, None, mmc(K=10))
    assert info.value.required == 10 ** 7
    with pytest.raises(EnumerationBudgetExceeded):
        brute_force_offline(w, crowd, None, mmc(K=10))
