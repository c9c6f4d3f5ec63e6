import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcplace.core import ServiceInstance, Window
from mmcplace.costs import (DistanceContext, LinearCostModel,
                            MmcBackendCostModel,
                            PerturbedCostModel, PolynomialCostModel,
                            window_cost)
from mmcplace.offline import (StateBudgetExceeded, run_offline,
                              solve_window_offline)
from mmcplace.oracle import EnumerationBudgetExceeded, brute_force_offline
from mmcplace.predictor import ZERO_BOUND, CostOracle, PowerLawErrorBound


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


@pytest.mark.parametrize("dear_end", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_dp_tie_break_matches_enumeration_on_tied_costs(seed, dear_end):
    """Equal local rates and uniform migration rates make many placements
    cost exactly the same; the DP must still pick enumeration's matrix
    (smallest per-slot state path among the cheapest) and relax every
    pair of consecutive joint states once. With dear_end, cloud 1 costs
    more in the last slot, so leaving it one slot earlier or later ties:
    the tie-break then also decides which predecessor a state keeps."""
    rng = np.random.default_rng(seed)
    K, M, T = 3, int(rng.integers(1, 4)), int(rng.integers(1, 4))
    w = Window(2, T)                     # t0 > 1: window-start moves cost
    insts = [ServiceInstance(id=j, arrival_slot=2,
                             local_demand=float(rng.choice([0.5, 1.0])),
                             migration_demand=float(rng.choice([0.5, 1.0])))
             for j in range(1, M + 1)]
    prev = {j: int(rng.integers(1, K + 1)) for j in range(1, M + 1)
            if rng.random() < 0.7}
    kappa = float(rng.choice([0.0, 0.5]))
    model = LinearCostModel(np.array([0.0, 1.0, 1.0, 1.0]), kappa, kappa, 1.0)
    if dear_end:
        model = PerturbedCostModel(
            model, {w.end: np.array([0.0, 8.0, 0.0, 0.0])})
    dp = solve_window_offline(w, insts, prev, model)
    bf = brute_force_offline(w, insts, prev, model)
    assert dp.cost == bf.cost
    assert dp.matrix == bf.matrix
    assert dp.relaxations == K ** M + (T - 1) * K ** (2 * M)


def test_state_budget_guard(monkeypatch):
    from mmcplace import offline

    w = Window(1, 2)
    insts = [ServiceInstance(id=j, arrival_slot=1) for j in range(1, 8)]
    monkeypatch.setattr(offline, "DEFAULT_STATE_BUDGET", 1000)
    with pytest.raises(StateBudgetExceeded):
        solve_window_offline(w, insts, None, mmc(K=10))


def test_wide_layer_memory_stays_per_state():
    """243 joint states per slot (K = 3, five instances, two slots): the
    solver keeps an entry per joint state, not per pair of consecutive
    states, so its tracemalloc peak stays under 2 MB (a per-pair memo
    would hold 243^2 entries, over 8 MB)."""
    import tracemalloc

    rng = np.random.default_rng(5)
    K, M = 3, 5
    ucoeffs = np.zeros((K + 1, 3))
    ucoeffs[1:, 1] = rng.uniform(0.2, 2.0, K)
    ucoeffs[1:, 2] = rng.uniform(0.0, 1.0, K)
    model = PolynomialCostModel(ucoeffs, [(0, 0, 1, 0.6), (0, 0, 2, 0.2)])
    w = Window(4, 2)
    insts = [ServiceInstance(id=j, arrival_slot=4,
                             local_demand=float(rng.uniform(0.3, 1.0)),
                             migration_demand=float(rng.uniform(0.3, 1.0)))
             for j in range(1, M + 1)]
    prev = {1: 2, 3: 1, 4: 3}
    tracemalloc.start()
    try:
        sol = solve_window_offline(w, insts, prev, model)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.relaxations == K ** M + (K ** M) ** 2
    assert peak < 2 * 2 ** 20


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


def test_run_offline_charges_by_instance_id():
    """The actual charge pairs each matrix column with its own instance,
    whatever the order of the caller's list."""
    model = LinearCostModel([0, 1, 4], 0, 0, 1)
    insts = [ServiceInstance(id=1, arrival_slot=1, local_demand=3.0),
             ServiceInstance(id=2, arrival_slot=1, local_demand=1.0),
             ServiceInstance(id=3, arrival_slot=2, local_demand=0.5)]
    oracle = CostOracle(model, ZERO_BOUND, seed=0)
    _sols, in_order = run_offline(4, 2, insts, oracle)
    _sols, reversed_ = run_offline(4, 2, insts[::-1], oracle)
    assert in_order[1] == 4.0          # instances 1 and 2 on cloud 1
    assert reversed_ == in_order
    w = Window(1, 2)
    sol = solve_window_offline(w, insts, None, model)
    assert (window_cost(model, sol.matrix, insts[::-1])
            == window_cost(model, sol.matrix, insts) == sol.cost)


def test_run_offline_plans_what_it_charges():
    """With exact predictions, a window's planned cost is its charge.
    Instances 1 and 2 share MMC 1 in window [1, 2] and 1 departs at the
    end of slot 2; in window [3] MMC 1 is dear, so 2 moves 1 -> 2, and
    both the plan and the charge read y_1(2) = 2 for that move."""
    dear = {t: np.array([0.0, 0.0, 10.0, 0.0]) for t in (1, 2)}
    dear[3] = np.array([0.0, 10.0, 0.0, 0.0])
    actual = PerturbedCostModel(mmc(K=3), dear)
    insts = [ServiceInstance(id=1, arrival_slot=1, actual_departure_slot=2),
             ServiceInstance(id=2, arrival_slot=1)]
    sols, charged = run_offline(3, 2, insts, CostOracle(actual, ZERO_BOUND))
    assert sols[1].cost == pytest.approx(charged[3], rel=1e-12)


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
    crowd = [long_one] + [ServiceInstance(id=j, arrival_slot=1,
                                          max_lifetime=1)
                          for j in range(2, 8)]
    with pytest.raises(StateBudgetExceeded) as info:
        solve_window_offline(w, crowd, None, mmc(K=10))
    assert info.value.required == 10 ** 7
    with pytest.raises(EnumerationBudgetExceeded):
        brute_force_offline(w, crowd, None, mmc(K=10))
    monkeypatch.setattr(offline, "DEFAULT_STATE_BUDGET", 9)
    with pytest.raises(StateBudgetExceeded) as info:
        solve_window_offline(w, [long_one], None, mmc(K=10))
    assert info.value.required == 10


def test_relaxation_guard_raises_before_enumerating(monkeypatch):
    """The state guard bounds one slot, but the DP relaxes every pair of
    consecutive joint states. Four instances over two slots at K = 10
    hold 10^4 states per slot, under the state budget, yet need
    10^4 + 10^8 relaxations (minutes of work); five over three slots need
    about 2 * 10^10. Both raise from the layer sizes alone, naming
    relaxations; 10^3 + 10^6 relaxations pass the guard."""
    from mmcplace import offline

    class Enumerated(Exception):
        pass

    def enumerated(*_args, **_kwargs):
        raise Enumerated

    monkeypatch.setattr(offline, "_slot_states", enumerated)
    for M, T, want in ((4, 2, 10 ** 4 + 10 ** 8),
                       (5, 3, 10 ** 5 + 2 * 10 ** 10)):
        insts = [ServiceInstance(id=j, arrival_slot=1) for j in range(1, M + 1)]
        with pytest.raises(StateBudgetExceeded, match="relaxations") as info:
            solve_window_offline(Window(1, T), insts, None, mmc(K=10))
        assert (info.value.required, info.value.budget) == (
            want, offline.RELAXATION_BUDGET)
    insts = [ServiceInstance(id=j, arrival_slot=1) for j in (1, 2, 3)]
    with pytest.raises(Enumerated):
        solve_window_offline(Window(1, 2), insts, None, mmc(K=10))


_RUN_CAP = 2000      # candidate matrices per window for the brute force


def _window_combos(insts, horizon, T, K):
    """Largest brute-force candidate count over run_offline's windows."""
    worst = 1
    for t0 in range(1, horizon + 1, T):
        w = Window(t0, min(T, horizon - t0 + 1))
        n = 1
        for inst in insts:
            span = inst.active_span(w)
            n *= 1 if span is None else K ** (span[1] - span[0] + 1)
        worst = max(worst, n)
    return worst


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["polynomial",
                                                     "backend"]))
@settings(max_examples=80, deadline=None)
def test_run_offline_windows_equal_enumeration(seed, family):
    """A whole run_offline, window by window: each window's DP solution
    equals brute_force_offline on the same window, model, columns and
    t0-1 placements, cost in float.hex and matrix. Tiny runs: K 2-4,
    1-4 instances with finite and infinite lifetimes, horizon up to 6,
    any window size, polynomial costs or the capacity/backend family
    with distances, under prediction noise."""
    from mmcplace import offline

    rng = np.random.default_rng(seed)
    K, M = int(rng.integers(2, 5)), int(rng.integers(1, 5))
    horizon = int(rng.integers(1, 7))
    insts = []
    for j in range(1, M + 1):
        arrival = int(rng.integers(1, horizon + 1))
        insts.append(ServiceInstance(
            id=j, arrival_slot=arrival,
            max_lifetime=(math.inf if rng.random() < 0.4
                          else int(rng.integers(1, horizon + 1))),
            local_demand=float(rng.uniform(0.3, 1.5)),
            migration_demand=float(rng.uniform(0.3, 1.5)),
            actual_departure_slot=(int(rng.integers(arrival, horizon + 1))
                                   if rng.random() < 0.3 else None)))
    T = int(rng.integers(1, horizon + 1))
    while _window_combos(insts, horizon, T, K) > _RUN_CAP:
        T -= 1
    distance = None
    if family == "polynomial":
        ucoeffs = np.zeros((K + 1, 3))
        ucoeffs[1:, 1:] = rng.uniform(0.2, 1.5, (K, 2))
        model = PolynomialCostModel(ucoeffs, [(0, 0, 1, 0.5), (1, 0, 1, 0.2)])
    else:
        model = MmcBackendCostModel(K=K, capacity=2.0, backend_local_rate=3.0,
                                    backend_migration_rate=2.0,
                                    distance_local_weight=0.3,
                                    distance_migration_weight=0.2)
        distance = DistanceContext(
            user_cell_of=lambda iid, t: 1 + (iid * 7 + t) % max(1, K - 1),
            cloud_cell_distance=lambda k, c: abs(k - c) + 1,
            cloud_pair_distance=lambda k, l: abs(k - l), backend=K)
    solve = offline.solve_window_offline
    checked = []

    def against_enumeration(window, columns, prev_config, model_, dist):
        dp = solve(window, columns, prev_config, model_, dist)
        bf = brute_force_offline(window, columns, prev_config, model_, dist)
        assert float(dp.cost).hex() == float(bf.cost).hex()
        assert dp.matrix == bf.matrix
        checked.append(window)
        return dp

    oracle = CostOracle(model, PowerLawErrorBound(0.2, 1.1), seed=seed)
    try:
        offline.solve_window_offline = against_enumeration
        sols, actual = run_offline(horizon, T, insts, oracle, distance)
    finally:
        offline.solve_window_offline = solve
    assert len(checked) == len(sols) == -(-horizon // T)
    assert sorted(actual) == list(range(1, horizon + 1))


def _unpruned_dp(window, instances, prev_config, model, distance=None):
    """The joint-state DP relaxing every pair of consecutive states, in
    lexicographic predecessor order: (cost, matrix, relaxations), for
    checking solve_window_offline against."""
    from mmcplace.core import ConfigurationMatrix
    from mmcplace.costs import WindowCostEvaluator
    from mmcplace.offline import _active_flags, _path, _slot_states

    instances = sorted(instances, key=lambda i: i.id)
    layers = _slot_states(_active_flags(window, instances), model.K)
    ev = WindowCostEvaluator(window, instances, model, prev_config, distance)
    relax = 0
    best = {ev.prior: 0.0}
    links = []
    for t, layer in zip(window.slots, layers):
        nxt, link = {}, {}
        for state in layer:
            local = ev.local(t, state)
            cur = via = None
            for prev_state, pcost in best.items():
                relax += 1
                cand = pcost + local + ev.transition(t, prev_state, state)
                if cur is None or cand < cur or (
                        cand == cur and _path(links, prev_state)
                        < _path(links, via)):
                    cur, via = cand, prev_state
            nxt[state] = cur
            link[state] = via
        links.append(link)
        best = nxt
    end = cost = None
    for state, c in best.items():
        if end is None or c < cost or (
                c == cost and _path(links, state) < _path(links, end)):
            end, cost = state, c
    matrix = ConfigurationMatrix(window, [i.id for i in instances])
    for q, state in enumerate(_path(links, end)[1:]):
        matrix.data[q, :] = state
    return cost, matrix, relax


def _differential_case(family, seed):
    """A seeded random window for one cost family: K 2-4, M 1-3, T 1-3,
    t0 1-2, with or without t0-1 placements."""
    rng = np.random.default_rng([seed, ["linear", "polynomial", "backend",
                                        "perturbed"].index(family)])
    K, M = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    T, t0 = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    w = Window(t0, T)
    insts = [ServiceInstance(
        id=j, arrival_slot=(t0 if rng.random() < 0.5 else
                            int(rng.integers(max(1, t0 - 1), t0 + T))),
        max_lifetime=int(rng.integers(1, T + 2)),
        local_demand=float(rng.uniform(0.5, 2.0)),
        migration_demand=float(rng.uniform(0.5, 2.0)))
        for j in range(1, M + 1)]
    prev = None
    if rng.random() < 0.6:
        prev = {i.id: int(rng.integers(1, K + 1)) for i in insts
                if i.arrival_slot <= t0 and rng.random() < 0.7}
    distance = None
    if family in ("linear", "perturbed"):
        # tied rates: many placements cost the same, exactly or up to
        # the order in which their demands are summed
        kappa = float(rng.choice([0.0, 0.5]))
        model = LinearCostModel(np.full(K + 1, 1.0), kappa, kappa, 1.0)
        if family == "perturbed":
            model = PerturbedCostModel(model, {
                t: rng.uniform(-2.0, 0.5, K + 1)
                for t in range(t0 - 1, w.end + 1)})
    elif family == "polynomial":
        ucoeffs = np.zeros((K + 1, 3))
        ucoeffs[1:, 1:] = rng.uniform(0.2, 1.5, (K, 2))
        model = PolynomialCostModel(ucoeffs, [(0, 0, 1, 0.5), (1, 0, 1, 0.2)])
    else:
        # capacity 1 under demands of 0.5-2: any two instances sharing an
        # MMC, and some alone, cost inf
        model = MmcBackendCostModel(K=K, capacity=1.0, backend_local_rate=3.0,
                                    backend_migration_rate=2.0,
                                    distance_local_weight=0.3,
                                    distance_migration_weight=0.2)
        distance = DistanceContext(
            user_cell_of=lambda iid, t: 1 + (iid * 7 + t) % max(1, K - 1),
            cloud_cell_distance=lambda k, c: abs(k - c) + 1,
            cloud_pair_distance=lambda k, l: abs(k - l), backend=K)
    return w, insts, prev, model, distance


@pytest.mark.parametrize("seed", range(50))
@pytest.mark.parametrize("family", ["linear", "polynomial", "backend",
                                    "perturbed"])
def test_dp_matches_unpruned_relaxation(family, seed):
    """solve_window_offline equals the DP that relaxes every pair of
    consecutive joint states: cost in float.hex, matrix and relaxations."""
    w, insts, prev, model, distance = _differential_case(family, seed)
    cost, matrix, relax = _unpruned_dp(w, insts, prev, model, distance)
    dp = solve_window_offline(w, insts, prev, model, distance)
    assert float(dp.cost).hex() == float(cost).hex()
    assert dp.matrix == matrix
    assert dp.relaxations == relax
    assert dp.priced <= dp.relaxations


def test_walk_goes_past_predecessors_tied_with_the_best():
    """Tied rates sum the same demands in different orders, so the joint
    states' costs differ in the last bits. Here a predecessor whose cost
    plus the state's local cost equals the best candidate so far still
    wins through a move-free transition and the tie-break: the walk
    stops only strictly above the best."""
    model = LinearCostModel(np.full(5, 1.0), 0.5, 0.5, 1.0)
    insts = [ServiceInstance(id=1, arrival_slot=2, max_lifetime=1,
                             local_demand=1.0626039337332007),
             ServiceInstance(id=2, arrival_slot=1, max_lifetime=2,
                             local_demand=1.467397054182466),
             ServiceInstance(id=3, arrival_slot=2, max_lifetime=2,
                             local_demand=1.307445855475807)]
    w = Window(2, 2)
    cost, matrix, relax = _unpruned_dp(w, insts, None, model)
    dp = solve_window_offline(w, insts, None, model)
    assert float(dp.cost).hex() == float(cost).hex()
    assert dp.matrix == matrix
    assert matrix.data.tolist() == [[1, 1, 1], [0, 0, 1]]

def test_wide_layer_prices_a_third_of_its_pairs():
    """243 joint states per slot (K = 3, five instances, two slots): the
    ranked predecessor walk stops early for most states, so the DP prices
    under 40% of the K^5 + K^10 pairs it reports as relaxations."""
    rng = np.random.default_rng(5)
    K, M = 3, 5
    ucoeffs = np.zeros((K + 1, 3))
    ucoeffs[1:, 1] = rng.uniform(0.2, 2.0, K)
    ucoeffs[1:, 2] = rng.uniform(0.0, 1.0, K)
    model = PolynomialCostModel(ucoeffs, [(0, 0, 1, 0.6), (0, 0, 2, 0.2)])
    insts = [ServiceInstance(id=j, arrival_slot=4,
                             local_demand=float(rng.uniform(0.3, 1.0)),
                             migration_demand=float(rng.uniform(0.3, 1.0)))
             for j in range(1, M + 1)]
    sol = solve_window_offline(Window(4, 2), insts, {1: 2, 3: 1, 4: 3},
                               model)
    assert sol.relaxations == K ** M + (K ** M) ** 2
    assert sol.priced < 0.4 * sol.relaxations


def test_negative_migration_cost_raises():
    """The early stop relies on w >= 0. A model whose w is a shipped
    family's negated makes the DP raise, not return a wrong optimum."""
    from mmcplace.costs import CostModel

    class NegatedW(CostModel):
        def __init__(self, base):
            self.base = base
            self.K = base.K

        def u(self, k, t, y, r=0.0):
            return self.base.u(k, t, y, r)

        def w(self, k, l, t, y_from, y_to, z, s=0.0):
            return -self.base.w(k, l, t, y_from, y_to, z, s)

    model = NegatedW(LinearCostModel([0, 1.0, 2.0, 3.0], 0.5, 0.5, 1.0))
    insts = [ServiceInstance(id=1, arrival_slot=1),
             ServiceInstance(id=2, arrival_slot=2)]
    with pytest.raises(ValueError, match="w >= 0"):
        solve_window_offline(Window(2, 2), insts, {1: 1}, model)
