import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcplace.core import ConfigurationMatrix, ServiceInstance, Window
from mmcplace.costs import (DistanceContext, LinearCostModel,
                            MmcBackendCostModel, PerturbedCostModel,
                            PolynomialCostModel, WindowCostEvaluator,
                            charge_placements, placement_loads, window_cost)


def linear2(gamma=(0, 3.0, 1.0), k1=0.5, k2=0.5, k3=1.0):
    return LinearCostModel(np.array(gamma), k1, k2, k3)


def test_linear_hand_sum():
    model = linear2()
    assert model.u(1, 1, 2.0) == 6.0
    assert model.w(1, 2, 2, 1.0, 2.0, 1.0) == 0.5 + 1.0 + 1.0
    assert model.w(1, 2, 2, 1.0, 2.0, 0.0) == 0.0


def test_zero_conventions():
    model = linear2()
    w = Window(1, 2)
    m = ConfigurationMatrix(w, [])
    assert window_cost(model, m, []) == 0.0
    # migration in the very first slot of the run costs nothing
    inst = ServiceInstance(id=1, arrival_slot=1)
    ev = WindowCostEvaluator(w, [inst], model, {1: 2})
    assert ev.transition(1, ev.prior, (1,)) == 0.0
    ev2 = WindowCostEvaluator(Window(2, 1), [inst], model, {1: 2})
    assert ev2.transition(2, ev2.prior, (1,)) > 0.0


def test_aggregate_loads_recount():
    """Brute-force recount of y and z from the defining sums."""
    rng = np.random.default_rng(0)
    w = Window(1, 3)
    insts = [ServiceInstance(id=j, arrival_slot=1,
                             local_demand=float(rng.uniform(0.5, 2)),
                             migration_demand=float(rng.uniform(0.5, 2)))
             for j in range(1, 5)]
    model = linear2()
    m = ConfigurationMatrix(w, [j.id for j in insts])
    for inst in insts:
        m.set_column(inst.id, rng.integers(1, 3, size=3))
    before = (0,) * len(insts)
    for t in w.slots:
        state = m.slot_state(t)
        loads = placement_loads(t, insts, state, model.K, before=before)
        for k in (1, 2):
            expect = sum(i.local_demand for i in insts if m.get(i.id, t) == k)
            assert loads.y[k] == pytest.approx(expect)
        z = {}
        moved = 0
        if t > 1:
            for i in insts:
                a, b = m.get(i.id, t - 1), m.get(i.id, t)
                if a and b and a != b:
                    z[(a, b)] = z.get((a, b), 0.0) + i.migration_demand
                    moved += 1
        assert loads.z == pytest.approx(z)
        assert loads.moved == moved
        before = state


def test_mmc_capacity_sentinel():
    model = MmcBackendCostModel(K=3, capacity=5.0, backend_local_rate=3.0,
                                backend_migration_rate=3.0)
    assert model.u(1, 1, 4.0) == pytest.approx(4 * 5.0)   # R(4) = 5
    assert model.u(1, 1, 5.0) == math.inf
    assert model.u(1, 1, 6.0) == math.inf
    assert model.u(3, 1, 100.0) == 300.0                  # backend stays linear
    assert model.w(1, 2, 2, 5.0, 1.0, 1.0) == math.inf
    assert model.w(3, 1, 2, 100.0, 1.0, 2.0) == 6.0       # backend pair: h~ * z
    assert model.w(1, 3, 2, 1.0, 100.0, 2.0) == 6.0


@pytest.mark.parametrize("name, value", [
    ("capacity", math.nan), ("capacity", 0.0), ("capacity", -1.0),
    ("backend_local_rate", math.nan), ("backend_migration_rate", math.nan),
    ("distance_local_weight", math.nan), ("distance_local_weight", -0.1),
    ("distance_migration_weight", math.nan),
    ("distance_migration_weight", -0.1)])
def test_mmc_constructor_rejects_nan_and_non_positive_parameters(name,
                                                                 value):
    """A capacity of NaN, 0 or -1 once built a model whose u(1, 1, 1.0)
    was nan, inf or inf; NaN rates and negative weights were accepted
    too. Each now raises, naming the parameter."""
    args = dict(K=4, capacity=5.0, backend_local_rate=3.0,
                backend_migration_rate=3.0, distance_local_weight=0.2,
                distance_migration_weight=0.1)
    args[name] = value
    with pytest.raises(ValueError, match=name):
        MmcBackendCostModel(**args)


@pytest.mark.parametrize("g", [0.0, 0.2])
def test_mmc_array_forms_equal_the_scalar_forms_next_to_capacity(g):
    """R_array and u_array equal R and u entry for entry, the backend
    column included, at and around capacity. A clamp of y at Y(1 - 1e-15)
    once gave R = 9.007e14 at the largest load below Y, where R is
    4.504e15."""
    Y = 5.0
    model = MmcBackendCostModel(K=3, capacity=Y, backend_local_rate=3.0,
                                backend_migration_rate=3.0,
                                distance_local_weight=g)
    loads = [0.0, 1.0, float(np.nextafter(Y, 0.0)), Y, Y + 1.0]
    y = np.repeat(np.array(loads)[:, None], model.K + 1, axis=1)
    r = np.full(y.shape, 2.0)
    R = model.R_array(y)
    u = model.u_array(np.ones(len(loads), dtype=int), y, r)
    for i, v in enumerate(loads):
        for k in range(model.K + 1):
            assert R[i, k] == model.R(v)
            assert u[i, k] == model.u(k, 1, v, 2.0)
    assert R[2, 1] > 4.5e15 and R[3, 1] == R[4, 1] == math.inf
    assert u[4, 3] == 3.0 * (Y + 1.0)                   # backend stays linear


def test_inv_marginal_array_is_the_scalar_rule_per_entry():
    """Each entry is the inverse marginal's scalar formula: an MMC takes
    min(cap, Y(1 - 1/sqrt(mu))) from mu = 1 on, the backend and a linear
    cloud all of cap once mu reaches their rate, else nothing."""
    Y = 5.0
    model = MmcBackendCostModel(K=3, capacity=Y, backend_local_rate=3.0,
                                backend_migration_rate=3.0)
    mus = [0.0, 0.5, 1.0, 2.0, 3.0, float(np.nextafter(3.0, 0.0)), 1e9]
    cap = np.array([[4.0, 0.5, 7.0]] * len(mus))
    got = model.inv_marginal_array(np.array(mus), cap)
    for i, mu in enumerate(mus):
        for k in (0, 1):
            want = (0.0 if mu < 1.0 else
                    min(cap[i, k], Y * (1.0 - 1.0 / math.sqrt(mu))))
            assert got[i, k] == want
        assert got[i, 2] == (7.0 if mu >= 3.0 else 0.0)
    lin = linear2()                                # rates 3 and 1
    got = lin.inv_marginal_array(np.array(mus), cap[:, :2])
    for i, mu in enumerate(mus):
        assert got[i].tolist() == [4.0 if mu >= 3.0 else 0.0,
                                   0.5 if mu >= 1.0 else 0.0]


def test_mmc_distance_terms():
    model = MmcBackendCostModel(K=3, capacity=5.0, backend_local_rate=3.0,
                                backend_migration_rate=3.0,
                                distance_local_weight=0.2,
                                distance_migration_weight=0.1)
    base = model.u(1, 1, 1.0, 0.0)
    assert model.u(1, 1, 1.0, 4.0) == pytest.approx(base + 0.8)
    plain = model.w(1, 2, 2, 1.0, 1.0, 1.0, 0.0)
    assert model.w(1, 2, 2, 1.0, 1.0, 1.0, 3.0) == pytest.approx(plain + 0.3)


def test_perturbed_offsets_respect_idle_clouds():
    base = linear2()
    offs = {2: np.array([0.0, 0.5, -0.25])}
    model = PerturbedCostModel(base, offs)
    assert model.u(1, 2, 1.0) == pytest.approx(3.0 + 0.5)
    assert model.u(1, 2, 0.0) == 0.0          # u(0)=0 survives the offset
    assert model.u(1, 3, 1.0) == 3.0          # untouched slot
    assert model.w(1, 2, 2, 1, 1, 1) == base.w(1, 2, 2, 1, 1, 1)


def test_polynomial_assumption_flags():
    with pytest.raises(ValueError):
        # no positive linear y term
        PolynomialCostModel(np.array([[0, 0, 1.0], [0, 0, 1.0]]),
                            [(0, 0, 1, 1.0)])
    with pytest.raises(ValueError):
        # migration term constant in z would break w(.,.,0)=0
        PolynomialCostModel(np.array([[0, 0], [0, 1.0]]), [(1, 0, 0, 1.0)])
    m = PolynomialCostModel(np.array([[0, 0, 0], [0, 1.0, 2.0]]),
                            [(0, 0, 1, 1.0), (1, 0, 1, 0.5)])
    assert m.order() == 2
    assert m.u(1, 1, 2.0) == pytest.approx(2.0 + 8.0)


@given(st.floats(0, 4.9), st.floats(0, 4.9))
@settings(max_examples=300, deadline=None)
def test_mmc_local_cost_midpoint_convex(y1, y2):
    model = MmcBackendCostModel(K=2, capacity=5.0, backend_local_rate=3.0,
                                backend_migration_rate=3.0)
    mid = model.u(1, 1, (y1 + y2) / 2)
    assert mid <= (model.u(1, 1, y1) + model.u(1, 1, y2)) / 2 + 1e-9


@given(st.integers(0, 2 ** 31), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_linear_cost_additive_over_instance_sets(seed, T):
    """Disjoint instance sets with a shared baseline: costs add up."""
    rng = np.random.default_rng(seed)
    model = LinearCostModel(np.concatenate(([0], rng.uniform(0.5, 2, 2))),
                            0.0, 0.0, float(rng.uniform(0.1, 1)))
    w = Window(1, T)
    insts = [ServiceInstance(id=j, arrival_slot=1,
                             local_demand=float(rng.uniform(0.5, 2)))
             for j in range(1, 5)]
    m = ConfigurationMatrix(w, [i.id for i in insts])
    for i in insts:
        m.set_column(i.id, rng.integers(1, 3, size=T))
    total = window_cost(model, m, insts)
    part = 0.0
    for group in (insts[:2], insts[2:]):
        sub = ConfigurationMatrix(w, [i.id for i in group])
        for i in group:
            sub.set_column(i.id, m.column(i.id))
        part += window_cost(model, sub, group)
    assert total == pytest.approx(part, rel=1e-9)


def test_window_cost_monotone_in_loads():
    """Adding load never lowers the cost for convex nondecreasing models."""
    model = MmcBackendCostModel(K=2, capacity=10.0, backend_local_rate=3.0,
                                backend_migration_rate=3.0)
    w = Window(1, 2)
    small = ServiceInstance(id=1, arrival_slot=1, local_demand=1.0)
    big = ServiceInstance(id=1, arrival_slot=1, local_demand=2.0)
    m = ConfigurationMatrix(w, [1])
    m.set_column(1, [1, 1])
    assert window_cost(model, m, [big]) >= window_cost(model, m, [small])


def test_evaluator_hands_out_copies_of_priced_states():
    """Filling and overwriting the SlotLoads of state_loads leaves the
    evaluator's own prices as a fresh evaluator computes them, bit for
    bit, whether the state was priced before the call or by it."""
    model = MmcBackendCostModel(K=4, capacity=5.0, backend_local_rate=3.0,
                                backend_migration_rate=3.0,
                                distance_local_weight=0.2,
                                distance_migration_weight=0.1)
    distance = DistanceContext(
        user_cell_of=lambda iid, t: 1 + (iid + t) % 3,
        cloud_cell_distance=lambda k, c: abs(k - c),
        cloud_pair_distance=lambda k, l: abs(k - l),
        backend=4)
    w = Window(2, 2)
    insts = [ServiceInstance(id=j, arrival_slot=1, local_demand=0.5 * j,
                             migration_demand=0.3 * j) for j in (1, 2, 3)]
    prev = {1: 2, 2: 2, 3: 4}
    first, second = (1, 2, 1), (2, 3, 1)

    ev = WindowCostEvaluator(w, insts, model, prev, distance)
    ev.local(3, second)                         # priced before the call
    for t, before, state in ((2, ev.prior, first), (3, first, second)):
        loads = ev.state_loads(t, state)
        ev.transition_loads(t, before, loads, state)
        loads.y[:] = 99.0
        loads.r[:] = 99.0
    fresh = WindowCostEvaluator(w, insts, model, prev, distance)
    for t, before, state in ((2, fresh.prior, first), (3, first, second)):
        assert ev.local(t, state) == fresh.local(t, state)
        assert ev.transition(t, before, state) == fresh.transition(
            t, before, state)
        assert np.array_equal(ev.state_loads(t, state).y,
                              placement_loads(t, insts, state, 4).y)


def _charge_reference(model, placements, instances, distance=None):
    """charge_placements slot by slot, from placement_loads, local_total
    and migration_total: the reference for its one array pass."""
    by_id = {inst.id: inst for inst in instances}
    cost, moved = {}, {}
    prev_t, y_prev = None, None
    for t in sorted(placements):
        placed = placements[t]
        before = placements.get(t - 1, {})
        loads = placement_loads(t, [by_id[iid] for iid in placed],
                                placed.values(), model.K, distance,
                                [before.get(iid, 0) for iid in placed])
        if prev_t != t - 1:
            y_prev = placement_loads(t - 1, [by_id[iid] for iid in before],
                                     before.values(), model.K).y
        cost[t] = (model.local_total(t, loads)
                   + model.migration_total(t, y_prev, loads))
        moved[t] = loads.moved
        prev_t, y_prev = t, loads.y
    return cost, moved


def _assert_charge_matches_reference(model, placements, instances,
                                     distance=None):
    cost, moved = charge_placements(model, placements, instances, distance)
    want_cost, want_moved = _charge_reference(model, placements, instances,
                                              distance)
    assert list(cost) == list(want_cost)
    assert ([float(c).hex() for c in cost.values()]
            == [float(c).hex() for c in want_cost.values()])
    assert moved == want_moved


def _recorded_charges(monkeypatch, run):
    """The arguments of every charge_placements call that run() makes."""
    from mmcplace import online, simulator

    seen = []

    def recording(*args):
        seen.append(args)
        return charge_placements(*args)

    for module in (simulator, online):
        monkeypatch.setattr(module, "charge_placements", recording)
    run()
    monkeypatch.undo()
    return seen


def _config_runs(name, seed, horizon=None):
    """Every policy on a shipped config: the charges they make."""
    from pathlib import Path

    from mmcplace.config import parse_config
    from mmcplace.simulator import POLICIES, build_scenario, run_policy

    cfg = parse_config(str(Path(__file__).resolve().parent.parent
                           / "configs" / name))
    if horizon:
        cfg.horizon = horizon
    scn = build_scenario(cfg, seed)
    return lambda: [run_policy(scn, p) for p in POLICIES]


@pytest.mark.parametrize("name, seed, horizon", [
    ("desk.ini", 1, None), ("desk.ini", 2, None), ("desk.ini", 3, None),
    ("fullscale.ini", 1, 30)])
def test_charge_matches_per_slot_reference_on_every_policy(
        name, seed, horizon, monkeypatch):
    charges = _recorded_charges(monkeypatch,
                                _config_runs(name, seed, horizon))
    assert len(charges) == 5
    for args in charges:
        _assert_charge_matches_reference(*args)


def test_charge_matches_per_slot_reference_on_polynomial_costs(monkeypatch):
    """An online run on predicted polynomial costs with no distance, over
    several windows with departures and finite lifetimes: the charge goes
    through the base class's array forms."""
    from mmcplace.online import run_online
    from mmcplace.predictor import CostOracle, PowerLawErrorBound

    rng = np.random.default_rng(708)
    K, M, H = 6, 40, 40
    ucoeffs = np.zeros((K + 1, 3))
    ucoeffs[1:, 1] = rng.uniform(0.2, 2.0, K)
    ucoeffs[1:, 2] = rng.uniform(0.0, 1.0, K)
    model = PolynomialCostModel(ucoeffs, [(0, 0, 1, 0.6), (0, 0, 2, 0.3)])
    insts = []
    for j in range(1, M + 1):
        arrival = int(rng.integers(1, H + 1))
        life = int(rng.integers(2, H)) if rng.random() < 0.3 else math.inf
        departure = (min(H, arrival + int(rng.integers(0, 16)))
                     if rng.random() < 0.6 else None)
        insts.append(ServiceInstance(
            id=j, arrival_slot=arrival, max_lifetime=life,
            local_demand=float(rng.uniform(0.3, 1.0)),
            migration_demand=float(rng.uniform(0.3, 1.0)),
            actual_departure_slot=departure))
    oracle = CostOracle(model, PowerLawErrorBound(0.2, 1.1), seed=3)
    charges = _recorded_charges(monkeypatch,
                                lambda: run_online(H, 8, insts, oracle))
    (args,) = charges
    assert args[3] is None
    assert sum(charge_placements(*args)[1].values()) > 0
    _assert_charge_matches_reference(*args)


def _hand_maps():
    """K = 4 (backend 4), capacity 2. Slot 3 is absent, so slot 4 has no
    y(t-1); instance 4 moves with migration demand 0; MMC 2 is at capacity
    in slot 2 and over it in slot 5, where a move into it costs inf too;
    slot 8 moves into and out of the backend."""
    insts = [ServiceInstance(id=1, arrival_slot=1, local_demand=1.5,
                             migration_demand=0.7),
             ServiceInstance(id=2, arrival_slot=1, local_demand=0.5,
                             migration_demand=1.1),
             ServiceInstance(id=3, arrival_slot=1, local_demand=0.3,
                             migration_demand=0.9),
             ServiceInstance(id=4, arrival_slot=1, local_demand=0.2,
                             migration_demand=0.0)]
    placements = {
        1: {1: 1, 2: 2, 4: 1},
        2: {1: 2, 2: 2, 3: 1, 4: 3},
        4: {3: 3, 1: 2, 4: 1},
        5: {1: 2, 3: 2, 2: 2, 4: 2},
        6: {},
        7: {1: 4, 2: 1, 3: 1, 4: 3},
        8: {1: 2, 2: 4, 3: 3, 4: 1},
    }
    return insts, placements


def _hand_models():
    mmc = MmcBackendCostModel(K=4, capacity=2.0, backend_local_rate=3.0,
                              backend_migration_rate=2.5,
                              distance_local_weight=0.2,
                              distance_migration_weight=0.3)
    poly = PolynomialCostModel(
        np.array([[0, 0, 0]] + [[0, 1.0 + k / 3, 0.5] for k in range(4)]),
        [(0, 0, 1, 0.8), (1, 1, 1, 0.1)])
    offsets = {t: np.array([0.0, 0.3, -0.2, 0.1, 0.0]) for t in (2, 5, 7)}
    return {"mmc": mmc, "linear": linear2((0, 3.0, 1.0, 2.0, 4.0)),
            "polynomial": poly, "perturbed": PerturbedCostModel(mmc, offsets)}


@pytest.mark.parametrize("family", ["mmc", "linear", "polynomial",
                                    "perturbed"])
@pytest.mark.parametrize("with_distance", [True, False])
def test_charge_matches_per_slot_reference_on_hand_made_maps(
        family, with_distance):
    insts, placements = _hand_maps()
    model = _hand_models()[family]
    distance = None
    if with_distance:
        distance = DistanceContext(
            user_cell_of=lambda iid, t: (None if iid == 3
                                         else 1 + (iid + t) % 3),
            cloud_cell_distance=lambda k, c: abs(k - c) + k / 7,
            cloud_pair_distance=lambda k, l: abs(k - l) + (2 * k + l) / 11,
            backend=4)
    _assert_charge_matches_reference(model, placements, insts, distance)
    cost, moved = charge_placements(model, placements, insts, distance)
    assert moved == {1: 0, 2: 2, 4: 0, 5: 2, 6: 0, 7: 0, 8: 4}
    assert cost[6] == 0.0
    if family == "mmc":
        assert cost[2] == cost[5] == math.inf
        assert math.isfinite(cost[8])       # moves to and from the backend
    with pytest.raises(KeyError):
        charge_placements(model, placements, insts[:3], distance)


def test_charge_puts_no_migration_cost_on_slot_1():
    """W = 0 at t <= 1 even where a map before slot 1 gives the move a
    baseline; the move is still counted."""
    insts, _ = _hand_maps()
    model = _hand_models()["mmc"]
    placements = {0: {1: 2, 2: 3}, 1: {1: 1, 2: 3}, 2: {1: 2, 2: 3}}
    _assert_charge_matches_reference(model, placements, insts)
    cost, moved = charge_placements(model, placements, insts)
    assert moved == {0: 0, 1: 1, 2: 1}
    local = charge_placements(model, {1: placements[1]}, insts)[0][1]
    assert cost[1] == local < cost[2]
