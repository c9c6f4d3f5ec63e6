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


_NAN_MODELS = {
    "gamma": lambda: LinearCostModel([0, math.nan, 1.0], 0.0, 0.0, 1.0),
    "kappa1": lambda: LinearCostModel([0, 2.0, 1.0], math.nan, 0.0, 1.0),
    "kappa2": lambda: LinearCostModel([0, 2.0, 1.0], 0.0, math.nan, 1.0),
    "kappa3": lambda: LinearCostModel([0, 2.0, 1.0], 0.0, 0.0, math.nan),
    "ucoeffs": lambda: PolynomialCostModel([[0, 0], [0, math.nan]],
                                           [(0, 0, 1, 1.0)]),
    "wterms": lambda: PolynomialCostModel([[0, 0], [0, 1.0]],
                                          [(0, 0, 1, 1.0),
                                           (1, 0, 1, math.nan)])}


@pytest.mark.parametrize("name", _NAN_MODELS)
def test_linear_and_polynomial_constructors_reject_nan(name):
    """Each of these once constructed and priced u or w as nan. Each now
    raises, naming the parameter."""
    with pytest.raises(ValueError, match=name):
        _NAN_MODELS[name]()


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
        cost[t] = (model.local_total(t, loads.y, loads.r)
                   + model.migration_total(t, y_prev.tolist(),
                                           loads.y.tolist(), loads.z, loads.s))
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
    """The arguments of every charge_placements call that run() makes,
    all of them in online.run_windows."""
    from mmcplace import online

    seen = []

    def recording(*args):
        seen.append(args)
        return charge_placements(*args)

    monkeypatch.setattr(online, "charge_placements", recording)
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
    slot 8 moves into and out of the backend; into slot 10, instance 4
    moves 1 -> 3 first in the map, then 1 and 3 (3 over the same pair)."""
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
        9: {1: 2, 3: 1, 4: 1},
        10: {4: 3, 1: 1, 3: 3},
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
    assert moved == {1: 0, 2: 2, 4: 0, 5: 2, 6: 0, 7: 0, 8: 4, 9: 1, 10: 3}
    assert cost[6] == 0.0
    # a move of demand 0 counts in moved, but not in its pair's z and s
    by_id = {inst.id: inst for inst in insts}
    loads = placement_loads(10, [by_id[i] for i in placements[10]],
                            placements[10].values(), 4, distance,
                            [placements[9][i] for i in placements[10]])
    assert loads.moved == 3
    assert list(loads.z.items()) == [((2, 1), 0.7), ((1, 3), 0.9)]
    assert loads.s == ({} if distance is None else {
        (2, 1): distance.pair_hops[2, 1], (1, 3): distance.pair_hops[1, 3]})
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


# --- the scalar formulas, bit for bit against the numpy forms -------------

_LOADS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.0 ** -1074 * 3, 1e-300, 1e6]),
    st.floats(1e-300, 1e6))


@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4),
       st.floats(1e-3, 1e3), st.one_of(_LOADS, st.integers(0, 10 ** 6)),
       st.sampled_from([float, int, np.float64]))
@settings(max_examples=300, deadline=None)
def test_polynomial_u_is_polyval_bit_for_bit(higher, linear, load, kind):
    """u runs np.polyval's Horner steps on plain floats: orders 1 to 4,
    loads from 0 through subnormals to 1e6, given as float, int or
    np.float64, priced equal in float.hex, and always a Python float."""
    row = [0.0, linear] + higher[:-1]
    model = PolynomialCostModel([[0.0] * len(row), row], [(0, 0, 1, 1.0)])
    y = kind(load)
    got = model.u(1, 1, y)
    assert type(got) is float
    assert got.hex() == float(np.polyval(model.ucoeffs[1][::-1], y)).hex()


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(1, 3), st.floats(0.0, 10.0)),
                max_size=4),
       _LOADS, _LOADS, st.one_of(_LOADS, st.just(-1.0)))
@settings(max_examples=300, deadline=None)
def test_polynomial_w_is_the_sum_form_bit_for_bit(terms, y_from, y_to, z):
    """w adds its terms in a loop from int 0, as sum() over the term
    generator does."""
    model = PolynomialCostModel([[0.0, 0.0], [0.0, 1.0]],
                                [(0, 0, 1, 0.5)] + terms)
    want = 0.0 if z <= 0 else sum(c * y_from ** p1 * y_to ** p2 * z ** p3
                                  for p1, p2, p3, c in model.wterms)
    assert float(model.w(1, 1, 2, y_from, y_to, z)).hex() == want.hex()


def _numpy_transition(ev, t, prev_state, state):
    """W(t) as migration_total once priced it: numpy y from
    placement_loads, a SlotLoads, and every argument of w through
    float()."""
    if t <= 1:
        return 0.0
    model = ev.model
    y_prev = placement_loads(t - 1, ev.instances, prev_state, model.K,
                             ev.distance).y
    loads = placement_loads(t, ev.instances, state, model.K, ev.distance,
                            prev_state)
    total = 0.0
    for (k, l), zv in loads.z.items():
        if zv > 0:
            total += model.w(k, l, t, float(y_prev[k]), float(loads.y[l]),
                             float(zv), float(loads.s.get((k, l), 0.0)))
    return total


def _family(name, rng, K):
    if name == "linear":
        return LinearCostModel(np.r_[0.0, rng.uniform(0.5, 2.0, K)],
                               0.3, 0.2, 0.9)
    if name == "backend":
        return MmcBackendCostModel(K=K, capacity=3.0, backend_local_rate=3.0,
                                   backend_migration_rate=2.0,
                                   distance_local_weight=0.2,
                                   distance_migration_weight=0.1)
    ucoeffs = np.zeros((K + 1, 4))
    ucoeffs[1:, 1:] = rng.uniform(0.1, 1.0, (K, 3))
    model = PolynomialCostModel(ucoeffs, [(0, 0, 1, 0.6), (1, 1, 1, 0.2),
                                          (2, 0, 2, 0.1)])
    if name == "perturbed":
        model = PerturbedCostModel(model, {3: rng.uniform(-0.5, 0.5, K + 1)})
    return model


@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["linear", "polynomial", "backend", "perturbed"]),
       st.booleans())
@settings(max_examples=120, deadline=None)
def test_transition_equals_the_numpy_formula_bit_for_bit(seed, family,
                                                         with_distance):
    """transition prices random pairs of joint states (clouds 0..K, 0 =
    not running) as the numpy-load formula does, in float.hex, for every
    cost family, with and without distances."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 5))
    model = _family(family, rng, K)
    distance = None
    if with_distance:
        distance = DistanceContext(
            user_cell_of=lambda iid, t: 1 + (iid + t) % (K - 1),
            cloud_cell_distance=lambda k, c: abs(k - c) + 1,
            cloud_pair_distance=lambda k, l: abs(k - l), backend=K)
    insts = [ServiceInstance(id=j, arrival_slot=1,
                             local_demand=float(rng.uniform(0.1, 1.5)),
                             migration_demand=float(rng.uniform(0.1, 1.5)))
             for j in range(1, int(rng.integers(1, 6)) + 1)]
    ev = WindowCostEvaluator(Window(2, 3), insts, model, None, distance)
    for _ in range(10):
        t = int(rng.integers(1, 5))
        prev_state, state = (tuple(rng.integers(0, K + 1, len(insts)).tolist())
                             for _ in range(2))
        got = ev.transition(t, prev_state, state)
        want = _numpy_transition(ev, t, prev_state, state)
        assert float(got).hex() == float(want).hex()


# Column pricing: a DP step over column j prices K joint states that agree
# outside j with one price_column call and their K^2 pairs with one
# transitions call. Both must equal local and transition bit for bit.

def _column_states(frozen, j, clouds):
    """Joint states equal to `frozen` outside column j, one per cloud."""
    return [frozen[:j] + (c,) + frozen[j + 1:] for c in clouds]


def _hex(values):
    return [float(v).hex() for v in values]


def _assert_column_pricing(make_ev, t, prev_frozen, frozen, j, K,
                           prev_first):
    """price_column and transitions over every cloud 0..K of column j, on
    one evaluator, against local and transition of a fresh one per
    value; the table entries price_column fills (y, r and local) are
    compared too. prev_first prices the t-1 states with price_column
    before transitions reads them. Returns transitions' [l][k] rows."""
    ev = make_ev()
    clouds = range(K + 1)
    states = _column_states(frozen, j, clouds)
    prevs = _column_states(prev_frozen, j, clouds)
    if prev_first:
        assert _hex(ev.price_column(t - 1, prevs, j)) == _hex(
            make_ev().local(t - 1, p) for p in prevs)
    got = ev.price_column(t, states, j)
    assert _hex(got) == _hex(make_ev().local(t, s) for s in states)
    for state in states:
        y, r, local = ev._price(t, state)
        y0, r0, local0 = make_ev()._price(t, state)
        assert _hex(y) == _hex(y0) and _hex(r) == _hex(r0)
        assert float(local).hex() == float(local0).hex()
    got = ev.transitions(t, prevs, states, j)
    assert [_hex(row) for row in got] == [
        _hex(make_ev().transition(t, p, s) for p in prevs) for s in states]
    # one state on either side: a step's entry and its tail
    assert [_hex(row) for row in ev.transitions(t, [prev_frozen], states,
                                                 j)] == [
        _hex([make_ev().transition(t, prev_frozen, s)]) for s in states]
    assert _hex(ev.transitions(t, prevs, [frozen], j)[0]) == _hex(
        make_ev().transition(t, p, frozen) for p in prevs)
    return got


def _column_model(family):
    K = 3
    if family == "linear":
        return LinearCostModel([0.0, 1.0, 2.0, 3.0], 0.3, 0.2, 0.9)
    if family == "capacity":
        return MmcBackendCostModel(K=K, capacity=1.0, backend_local_rate=3.0,
                                   backend_migration_rate=2.0,
                                   distance_local_weight=0.2,
                                   distance_migration_weight=0.1)
    ucoeffs = np.zeros((K + 1, 3))
    ucoeffs[1:, 1] = (0.3, 0.7, 1.1)
    ucoeffs[1:, 2] = (0.5, 0.1, 0.9)
    model = PolynomialCostModel(ucoeffs, [(0, 0, 1, 0.6), (1, 1, 1, 0.2),
                                          (2, 0, 2, 0.1)])
    if family == "perturbed":
        model = PerturbedCostModel(model, {
            1: np.array([0.0, -2.0, 0.5, -0.3]),
            2: np.array([0.0, -1.7, -2.0, 0.4]),
            3: np.array([0.0, 0.25, -0.6, -2.0])})
    return model


# Six columns. At t-1 column 0 sits on cloud 2, column 3 is not running
# and the rest are on 1; at t column 0 is on 1, column 5 on 3 and the
# rest on 2. So columns before and after a middle j move over 1 -> 2, the
# pair j takes when it moves 1 -> 2, and the loads of cloud 2 at t sum
# 0.1, 0.2 and 0.7 on both sides of j: adding j's terms out of instance
# order changes bits.
_COLUMN_LOCAL = (0.7, 0.1, 0.2, 0.7, 0.1, 0.2)
_COLUMN_MIGRATION = (0.2, 0.1, 0.7, 0.2, 0.7, 0.1)
_COLUMN_PREV = (2, 1, 1, 0, 1, 1)
_COLUMN_NOW = (1, 2, 2, 2, 2, 3)


@pytest.mark.parametrize("family", ["linear", "polynomial", "perturbed",
                                    "capacity"])
@pytest.mark.parametrize("j", [0, 2, 5])
@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("with_distance", [True, False])
def test_column_pricing_equals_per_state_and_per_pair_bit_for_bit(
        family, j, t, with_distance):
    """price_column equals local per state and transitions equals
    transition per pair in float.hex, for column j first, in the middle
    and last, at t = 1 (W = 0), at the window start t0 = 2 (the t-1
    states are the prior row, from prev_config) and inside the window."""
    model = _column_model(family)
    distance = None
    if with_distance:
        distance = DistanceContext(
            user_cell_of=lambda iid, t: 1 + (iid + t) % 2,
            cloud_cell_distance=lambda k, c: abs(k - c) + 0.3 * k,
            cloud_pair_distance=lambda k, l: abs(k - l) + 0.1 * l,
            backend=3)
    insts = [ServiceInstance(id=i + 1, arrival_slot=1, local_demand=a,
                             migration_demand=b)
             for i, (a, b) in enumerate(zip(_COLUMN_LOCAL,
                                            _COLUMN_MIGRATION))]
    prev_config = {i + 1: k for i, k in enumerate(_COLUMN_PREV) if k}

    def make_ev():
        return WindowCostEvaluator(Window(2, 2), insts, model, prev_config,
                                   distance)

    assert make_ev().prior == _COLUMN_PREV
    for prev_first in (False, True):
        got = _assert_column_pricing(make_ev, t, _COLUMN_PREV, _COLUMN_NOW,
                                     j, model.K, prev_first)
    flat = [v for row in got for v in row]
    if t == 1:
        assert set(flat) == {0.0}
    else:
        assert any(v > 0 for v in flat)
    if family == "capacity":
        loads = make_ev().price_column(t, _column_states(_COLUMN_NOW, j,
                                                         range(4)), j)
        assert math.inf in loads                # cloud 2 at or over capacity


@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["linear", "polynomial", "backend", "perturbed"]),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_column_pricing_on_random_states_bit_for_bit(seed, family,
                                                     with_distance):
    """price_column and transitions on random frozen rows (clouds 0..K),
    a random column j and slot t, equal local and transition of a fresh
    evaluator in float.hex, for every cost family."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 5))
    model = _family(family, rng, K)
    distance = None
    if with_distance:
        distance = DistanceContext(
            user_cell_of=lambda iid, t: 1 + (iid + t) % (K - 1),
            cloud_cell_distance=lambda k, c: abs(k - c) + 1,
            cloud_pair_distance=lambda k, l: abs(k - l), backend=K)
    demands = (0.1, 0.2, 0.4, 0.7, 1.0)
    M = int(rng.integers(1, 8))
    insts = [ServiceInstance(id=i, arrival_slot=1,
                             local_demand=float(rng.choice(demands)),
                             migration_demand=float(rng.choice(demands)))
             for i in range(1, M + 1)]
    prev_frozen, frozen = (tuple(rng.integers(0, K + 1, M).tolist())
                           for _ in range(2))
    prev_config = {i + 1: k for i, k in enumerate(prev_frozen) if k}

    def make_ev():
        return WindowCostEvaluator(Window(2, 3), insts, model, prev_config,
                                   distance)

    _assert_column_pricing(make_ev, int(rng.integers(1, 5)), prev_frozen,
                           frozen, int(rng.integers(M)), K,
                           bool(rng.integers(2)))
