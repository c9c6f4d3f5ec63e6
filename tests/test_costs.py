import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcplace.core import ConfigurationMatrix, ServiceInstance, Window
from mmcplace.costs import (DistanceContext, LinearCostModel,
                            MmcBackendCostModel, PerturbedCostModel,
                            PolynomialCostModel, WindowCostEvaluator,
                            placement_loads, window_cost)


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
