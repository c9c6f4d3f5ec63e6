import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcplace.core import ConfigurationMatrix, ServiceInstance, Window
from mmcplace.costs import (CostModel, DistanceContext, LinearCostModel,
                            MmcBackendCostModel, PerturbedCostModel,
                            WindowCostEvaluator)
from mmcplace.online import handle_departure, place_on_arrival, run_online
from mmcplace.predictor import ZERO_BOUND, CostOracle, PowerLawErrorBound


def mmc(K=4, Y=5.0):
    return MmcBackendCostModel(K=K, capacity=Y, backend_local_rate=3.0,
                               backend_migration_rate=3.0)


def grid_distance(K):
    """Toy line topology: MMC k sits at coordinate k, backend is cloud K."""
    def cell_of(iid, t):
        return 1 + (iid + t) % (K - 1)
    return DistanceContext(
        user_cell_of=cell_of,
        cloud_cell_distance=lambda k, c: abs(k - c),
        cloud_pair_distance=lambda k, l: abs(k - l),
        backend=K)


def random_setup(rng, K=4, T=4, n=3, distance=False, perturb=False,
                 dist_weights=(0.0, 0.0)):
    model = MmcBackendCostModel(K=K, capacity=6.0, backend_local_rate=3.0,
                                backend_migration_rate=3.0,
                                distance_local_weight=dist_weights[0],
                                distance_migration_weight=dist_weights[1])
    if perturb:
        offs = {t: np.zeros(K + 1) for t in range(1, T + 1)}
        for t in offs:
            offs[t][1 + int(rng.integers(K - 1))] = float(rng.uniform(-0.5, 0.5))
        model = PerturbedCostModel(model, offs)
    w = Window(1, T)
    insts = []
    prev = {}
    for j in range(1, n + 1):
        arr = int(rng.integers(1, T + 1))
        insts.append(ServiceInstance(
            id=j, arrival_slot=arr,
            max_lifetime=int(rng.integers(1, T + 1)),
            local_demand=float(rng.uniform(0.3, 1.5)),
            migration_demand=float(rng.uniform(0.3, 1.5))))
        if arr == 1 and rng.random() < 0.5:
            prev[j] = 1 + int(rng.integers(K))
    m = ConfigurationMatrix(w, [i.id for i in insts])
    # freeze all but the last column with arbitrary feasible placements
    for inst in insts[:-1]:
        span = inst.active_span(w)
        if span is None:
            continue
        col = np.zeros(T, dtype=int)
        for t in range(span[0], span[1] + 1):
            col[t - 1] = 1 + int(rng.integers(K))
        m.set_column(inst.id, col)
    d = grid_distance(K) if distance else None
    return model, w, insts, prev, m, d


def enumerate_best(instance, t, matrix, instances, model, prev, distance):
    """Oracle: try every path for the one free column, frozen others."""
    w = matrix.window
    ev = WindowCostEvaluator(w, sorted(instances, key=lambda i: i.id),
                             model, prev, distance)
    t_e = int(min(t + instance.max_lifetime - 1, w.end))
    span = range(t, t_e + 1)
    best = None
    import itertools
    for path in itertools.product(range(1, model.K + 1), repeat=len(span)):
        m2 = matrix.copy()
        for q, s in enumerate(span):
            m2.set(instance.id, s, path[q])
        cost = ev.path_cost([m2.slot_state(s) for s in w.slots])
        cand = (cost, tuple(m2.slot_state(s) for s in w.slots))
        if best is None or cand < best:
            best = (cand[0], cand[1], m2)
    return best


@given(st.integers(0, 2 ** 31), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_single_column_dp_is_optimal(seed, use_distance, use_perturb):
    """Greedy placement equals exhaustive search over the free column."""
    rng = np.random.default_rng(seed)
    dw = (0.2, 0.1) if use_distance else (0.0, 0.0)
    model, w, insts, prev, m, d = random_setup(
        rng, distance=use_distance, perturb=use_perturb, dist_weights=dw)
    inst = insts[-1]
    t = inst.arrival_slot
    out = place_on_arrival(inst, t, m, insts, model, prev, d)
    cost, _states, _m2 = enumerate_best(inst, t, m, insts, model, prev, d)
    if math.isfinite(cost):
        assert out.predicted_cost == pytest.approx(cost, rel=1e-9, abs=1e-9)
    else:
        assert out.saturated


@given(st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_fast_path_matches_generic(seed):
    """Vectorized DP and the generic per-state DP land the same cost."""
    from mmcplace.online import (WindowLedger, _fast_base, _place_fast,
                                 _place_generic)

    rng = np.random.default_rng(seed)
    model, w, insts, prev, m, d = random_setup(
        rng, distance=bool(seed % 2), perturb=bool(seed % 3 == 0),
        dist_weights=(0.2, 0.1) if seed % 2 else (0.0, 0.0))
    inst = insts[-1]
    t = inst.arrival_slot
    insts_sorted = sorted(insts, key=lambda i: i.id)
    ev = WindowCostEvaluator(w, insts_sorted, model, prev, d)
    j = next(i for i, x in enumerate(insts_sorted) if x.id == inst.id)
    t_e = int(min(t + inst.max_lifetime - 1, w.end))
    base = _fast_base(model)
    assert base is not None
    ledger = WindowLedger(m, insts_sorted, model.K, base.backend, prev, d)
    fast = _place_fast(inst, t, t_e, ledger, model, base)
    gen = _place_generic(inst, t, t_e, m, insts_sorted, model, ev, j,
                         model.K)

    def path_cost(path):
        m2 = m.copy()
        for q, s in enumerate(range(t, t_e + 1)):
            m2.set(inst.id, s, path[q])
        return ev.path_cost([m2.slot_state(s) for s in w.slots])

    cf, cg = path_cost(fast[0]), path_cost(gen[0])
    if math.isfinite(cg):
        assert cf == pytest.approx(cg, rel=1e-9, abs=1e-9)
    assert fast[2] == gen[2]        # saturation flag agrees


@given(st.integers(0, 2 ** 31))
@settings(max_examples=100, deadline=None)
def test_fast_path_matches_generic_near_capacity(seed):
    """Frozen columns that hop between MMCs next to capacity, where the
    congestion corrections for frozen migrations decide the route."""
    from mmcplace.online import (WindowLedger, _fast_base, _place_fast,
                                 _place_generic)

    rng = np.random.default_rng(seed)
    K, capacity = 4, 3.0
    w = Window(2, 4)              # after slot 1, so migrations are charged
    model = MmcBackendCostModel(K=K, capacity=capacity,
                                backend_local_rate=3.0,
                                backend_migration_rate=3.0,
                                distance_local_weight=0.2,
                                distance_migration_weight=0.1)
    if seed % 3 == 0:
        model = PerturbedCostModel(model, {
            t: rng.uniform(-0.5, 0.5, K + 1) * (np.arange(K + 1) > 0)
            for t in w.slots})
    frozen = [ServiceInstance(id=j, arrival_slot=1,
                              local_demand=float(rng.uniform(0.5, 1.2)),
                              migration_demand=float(rng.uniform(0.5, 2.0)))
              for j in range(1, 6)]
    life = int(rng.integers(1, 5)) if seed % 2 else math.inf
    inst = ServiceInstance(id=6, arrival_slot=int(rng.integers(2, 6)),
                           max_lifetime=life, local_demand=1.0,
                           migration_demand=float(rng.uniform(0.5, 2.0)))
    insts = frozen + [inst]
    m = ConfigurationMatrix(w, [i.id for i in insts])
    prev = {}
    for t in range(1, w.end + 1):
        # every frozen instance on an MMC with room, or on the backend
        load = np.zeros(K + 1)
        for f in frozen:
            room = [k for k in range(1, K)
                    if load[k] + f.local_demand < capacity]
            k = int(rng.choice(room)) if room else K
            load[k] += f.local_demand
            if t < w.t0:
                prev[f.id] = k
            else:
                m.set(f.id, t, k)
    d = grid_distance(K) if seed % 4 < 2 else None
    base = _fast_base(model)
    ev = WindowCostEvaluator(w, insts, model, prev, d)
    t = inst.arrival_slot
    t_e = int(min(t + life - 1, w.end))
    fast = _place_fast(inst, t, t_e, WindowLedger(m, insts, K, base.backend,
                                                  prev, d), model, base)
    gen = _place_generic(inst, t, t_e, m, insts, model, ev, 5, K)

    def path_cost(path):
        m2 = m.copy()
        for q, s in enumerate(range(t, t_e + 1)):
            m2.set(inst.id, s, path[q])
        return ev.path_cost([m2.slot_state(s) for s in w.slots])

    assert path_cost(fast[0]) == pytest.approx(path_cost(gen[0]), rel=1e-9,
                                               abs=1e-9)
    assert fast[2] is gen[2] is False


def test_relaxation_count_formula():
    """relax = K + K^2 (L-1) for an L-slot column."""
    model = mmc(K=5)
    w = Window(1, 4)
    inst = ServiceInstance(id=1, arrival_slot=1, max_lifetime=3)
    m = ConfigurationMatrix(w, [1])
    out = place_on_arrival(inst, 1, m, [inst], model)
    assert out.relaxations == 5 + 25 * 2


def test_arrival_outside_window_rejected():
    model = mmc()
    w = Window(2, 3)
    inst = ServiceInstance(id=1, arrival_slot=9)
    m = ConfigurationMatrix(w, [1])
    with pytest.raises(ValueError):
        place_on_arrival(inst, 9, m, [inst], model)


def test_departure_unknown_id_warns(caplog):
    w = Window(1, 3)
    m = ConfigurationMatrix(w, [1])
    m.set_column(1, [1, 1, 1])
    with caplog.at_level(logging.WARNING):
        out = handle_departure(42, 1, m)
    assert "unknown instance 42" in caplog.text
    assert np.array_equal(out.data, m.data)
    out = handle_departure(1, 2, m)
    assert out.column(1).tolist() == [1, 1, 0]


def test_run_online_departure_frees_capacity():
    """After a departure the freed cloud is reusable next slot."""
    model = MmcBackendCostModel(K=2, capacity=1.5, backend_local_rate=50.0,
                                backend_migration_rate=0.0)
    insts = [ServiceInstance(id=1, arrival_slot=1, actual_departure_slot=1,
                             local_demand=1.0),
             ServiceInstance(id=2, arrival_slot=2, actual_departure_slot=3,
                             local_demand=1.0)]
    run = run_online(3, 3, insts, CostOracle(model, ZERO_BOUND))
    assert run.placements[1] == {1: 1}
    assert run.placements[2] == {2: 1}      # cloud 1 free again


def test_run_online_carried_rearrival_keeps_baseline():
    """A carried instance pays migration cost only if it actually moves."""
    model = mmc(K=3)
    insts = [ServiceInstance(id=1, arrival_slot=1, actual_departure_slot=4)]
    run = run_online(4, 2, insts, CostOracle(model, ZERO_BOUND))
    clouds = [run.placements[t][1] for t in range(1, 5)]
    assert len(set(clouds)) == 1            # no reason to move, so it stays
    assert sum(run.migrations_by_slot.values()) == 0


def test_run_online_lifetime_expiry_departs():
    model = mmc(K=3)
    insts = [ServiceInstance(id=1, arrival_slot=1, max_lifetime=2)]
    run = run_online(5, 5, insts, CostOracle(model, ZERO_BOUND))
    assert 1 in run.placements[2]
    assert 1 not in run.placements.get(3, {})
    assert run.actual_by_slot[4] == 0.0


def test_run_online_noise_changes_placement_not_accounting():
    """Actual per-slot costs always come from the unperturbed model."""
    model = mmc(K=3)
    insts = [ServiceInstance(id=j, arrival_slot=j, actual_departure_slot=6)
             for j in range(1, 4)]
    clean = run_online(6, 3, insts, CostOracle(model, ZERO_BOUND))
    noisy = run_online(6, 3, insts, CostOracle(
        model, PowerLawErrorBound(0.4, 1.1), seed=5))
    ev = WindowCostEvaluator(Window(1, 6), insts, model)
    for run in (clean, noisy):
        prev = None
        for t in range(1, 7):
            state = tuple(run.placements[t].get(i.id, 0) for i in insts)
            expect = ev.local(t, state) + ev.transition(t, prev, state)
            assert run.actual_by_slot[t] == pytest.approx(expect)
            prev = state


class _Delegating(CostModel):
    """The same costs behind the plain CostModel interface, so
    place_on_arrival takes the generic full-state DP."""

    def __init__(self, inner):
        self.inner = inner
        self.K = inner.K

    def u(self, k, t, y, r=0.0):
        return self.inner.u(k, t, y, r)

    def w(self, k, l, t, y_from, y_to, z, s=0.0):
        return self.inner.w(k, l, t, y_from, y_to, z, s)


class _GenericOracle:
    def __init__(self, oracle):
        self.actual = oracle.actual
        self.oracle = oracle

    def predicted_model(self, t0, window):
        return _Delegating(self.oracle.predicted_model(t0, window))


def _whole_run_case(seed):
    """Several windows on a small MMC grid: distance terms, instances
    carried across windows, departures, finite lifetimes and (for most
    seeds) a perturbed predicted model."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(4, 7))
    horizon = 14
    insts = []
    for j in range(1, int(rng.integers(6, 11)) + 1):
        arrival = int(rng.integers(1, horizon + 1))
        life = int(rng.integers(1, 9)) if rng.random() < 0.4 else math.inf
        departure = (min(horizon, arrival + int(rng.integers(0, 8)))
                     if rng.random() < 0.6 else None)
        insts.append(ServiceInstance(
            id=j, arrival_slot=arrival, max_lifetime=life,
            actual_departure_slot=departure,
            local_demand=float(rng.uniform(0.3, 1.5)),
            migration_demand=float(rng.uniform(0.3, 1.5))))
    model = MmcBackendCostModel(K=K, capacity=float(rng.uniform(2.5, 4.0)),
                                backend_local_rate=3.0,
                                backend_migration_rate=3.0,
                                distance_local_weight=0.2,
                                distance_migration_weight=0.1)
    bound = (PowerLawErrorBound(0.3, 1.1) if seed % 4 else ZERO_BOUND)
    oracle = CostOracle(model, bound, seed=seed)
    return horizon, int(rng.integers(2, 6)), insts, oracle


def tie_free_distance(K):
    """grid_distance with a small per-cloud skew, so that no two clouds are
    ever the same distance from a user or from a cloud."""
    line = grid_distance(K)
    return DistanceContext(
        user_cell_of=line.user_cell_of,
        cloud_cell_distance=lambda k, c: abs(k - c) + k / 7,
        cloud_pair_distance=lambda k, l: abs(k - l) + (2 * k + l) / 11,
        backend=K)


def _fresh_rows(matrix, instances, model, prev_config, distance):
    """Ledger rows rebuilt from state_loads / transition_loads."""
    from mmcplace.online import _fast_base

    backend = _fast_base(model).backend
    w = matrix.window
    ev = WindowCostEvaluator(w, sorted(instances, key=lambda i: i.id),
                             model, prev_config, distance)
    zero = np.zeros(model.K + 1)
    y, r, zout, zin = [ev._y_before], [zero], [zero], [zero]
    prev_state = None
    for t in w.slots:
        state = matrix.slot_state(t)
        loads = ev.state_loads(t, state)
        ev.transition_loads(t, prev_state, loads, state)
        out, into = zero.copy(), zero.copy()
        for (k, l), zv in loads.z.items():
            if backend not in (k, l):
                out[k] += zv
                into[l] += zv
        y.append(loads.y)
        r.append(loads.r)
        zout.append(out)
        zin.append(into)
        prev_state = state
    return {"y": y, "r": r, "zout": zout, "zin": zin}


def _checked_fast_run(monkeypatch, horizon, T, insts, oracle, distance):
    """run_online on the fast DP, with the ledger checked against a fresh
    aggregation after every placement and departure, and every arrival
    also routed by the generic DP on the same frozen matrix: both routes
    must cost the same. Returns the run."""
    from mmcplace import online

    checked = {"place": 0, "depart": 0}
    context = {}

    def assert_fresh(ledger, matrix):
        want = _fresh_rows(matrix, *context["args"])
        for name, rows in want.items():
            assert np.array_equal(getattr(ledger, name), np.array(rows)), name

    place, depart = online.place_on_arrival, online.handle_departure

    def checked_place(instance, t, matrix, instances, model, prev_config,
                      distance, want_cost=True, *, ledger=None):
        out = place(instance, t, matrix, instances, model, prev_config,
                    distance, want_cost, ledger=ledger)
        if ledger is not None:
            context["args"] = (instances, model, prev_config, distance)
            assert_fresh(ledger, out.matrix)
            checked["place"] += 1
            ours = place(instance, t, matrix, instances, model, prev_config,
                         distance).predicted_cost
            ref = place(instance, t, matrix, instances, _Delegating(model),
                        prev_config, distance).predicted_cost
            if math.isfinite(ref):
                assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)
            else:
                assert not math.isfinite(ours)
        return out

    def checked_depart(instance_id, t, matrix, *, ledger=None):
        out = depart(instance_id, t, matrix, ledger=ledger)
        if ledger is not None:
            assert_fresh(ledger, out)
            checked["depart"] += 1
        return out

    monkeypatch.setattr(online, "place_on_arrival", checked_place)
    monkeypatch.setattr(online, "handle_departure", checked_depart)
    run = run_online(horizon, T, insts, oracle, distance)
    monkeypatch.undo()
    assert checked["place"] == len(run.relaxations_per_arrival) > 0
    assert checked["depart"] > 0
    return run


@pytest.mark.parametrize("seed", range(24))
def test_whole_run_fast_matches_generic(seed, monkeypatch):
    """Whole runs on the fast and on the generic DP land the same cost.

    Distances are tie-free: where two routes cost the same, the two DPs
    may pick different ones (argmin order against lexicographic order on
    sums rounded differently), and the runs then go separate ways."""
    horizon, T, insts, oracle = _whole_run_case(seed)
    distance = tie_free_distance(oracle.actual.K)
    fast = _checked_fast_run(monkeypatch, horizon, T, insts, oracle, distance)
    generic = run_online(horizon, T, insts, _GenericOracle(oracle), distance)
    assert fast.relaxations_per_arrival == generic.relaxations_per_arrival
    assert fast.total_cost == pytest.approx(generic.total_cost, rel=1e-9)
    assert fast.saturated_events == generic.saturated_events


@pytest.mark.parametrize("seed", range(12))
def test_whole_run_with_ties_matches_per_arrival(seed, monkeypatch):
    """On the line topology, where equidistant clouds tie, every arrival
    of a fast run still costs what the generic DP finds for it."""
    horizon, T, insts, oracle = _whole_run_case(seed)
    _checked_fast_run(monkeypatch, horizon, T, insts, oracle,
                      grid_distance(oracle.actual.K))


def test_ledger_sums_migrations_per_pair_first():
    """Two frozen moves share a (k, l) pair and a third leaves the same k
    (or enters the same l) between them. transition_loads sums per pair
    before per cloud, which rounds differently from instance order here:
    (0.1 + 0.4) + 0.1 != (0.1 + 0.1) + 0.4. The ledger must match it."""
    from mmcplace.online import WindowLedger

    mig = (0.1, 0.1, 0.4)
    assert (mig[0] + mig[2]) + mig[1] != (mig[0] + mig[1]) + mig[2]
    model = mmc(K=5)
    w = Window(2, 3)
    insts = [ServiceInstance(id=j, arrival_slot=1, migration_demand=z)
             for j, z in enumerate(mig, start=1)]
    m = ConfigurationMatrix(w, [1, 2, 3])
    prev = {1: 1, 2: 1, 3: 1}
    # out of cloud 1 at the window start, back into it before slot 4
    for iid, k in zip((1, 2, 3), (2, 3, 2)):
        m.set(iid, 2, k)
        m.set(iid, 3, k)
        m.set(iid, 4, 1)
    ledger = WindowLedger(m, insts, model.K, model.backend, prev,
                          grid_distance(model.K))
    want = _fresh_rows(m, insts, model, prev, grid_distance(model.K))
    for name, rows in want.items():
        assert np.array_equal(getattr(ledger, name), np.array(rows)), name
    assert ledger.zout[1, 1] == (mig[0] + mig[2]) + mig[1]
    assert ledger.zin[3, 1] == (mig[0] + mig[2]) + mig[1]
