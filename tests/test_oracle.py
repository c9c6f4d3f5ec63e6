import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcplace.core import ServiceInstance, Window
from mmcplace.costs import (LinearCostModel, MmcBackendCostModel,
                            PerturbedCostModel, PolynomialCostModel)
from mmcplace.oracle import (EnumerationBudgetExceeded, brute_force_offline,
                             fractional_lower_bound_single_slot, gap_constants,
                             grad_window_cost, loads_from_matrix,
                             window_cost_from_loads)


def mmc(K=3, Y=5.0):
    return MmcBackendCostModel(K=K, capacity=Y, backend_local_rate=3.0,
                               backend_migration_rate=3.0)


def test_brute_force_deterministic_and_budgeted(monkeypatch):
    from mmcplace import oracle

    w = Window(1, 2)
    insts = [ServiceInstance(id=j, arrival_slot=1) for j in (1, 2)]
    model = mmc()
    a = brute_force_offline(w, insts, None, model)
    b = brute_force_offline(w, insts, None, model)
    assert a.cost == b.cost
    assert np.array_equal(a.matrix.data, b.matrix.data)
    assert a.evaluated == (3 ** 2) ** 2
    monkeypatch.setattr(oracle, "DEFAULT_ENUM_BUDGET", 10)
    with pytest.raises(EnumerationBudgetExceeded):
        brute_force_offline(w, insts, None, model)


def grid_min(total, model, n=4000):
    """Dense grid search over fractional splits, K <= 3."""
    K = model.K
    best = math.inf
    if K == 2:
        for i in range(n + 1):
            y1 = total * i / n
            c = model.u(1, 1, y1) + model.u(2, 1, total - y1)
            best = min(best, c)
    else:
        m = int(math.sqrt(n))
        for i in range(m + 1):
            for j in range(m + 1 - i):
                y1 = total * i / m
                y2 = total * j / m
                c = (model.u(1, 1, y1) + model.u(2, 1, y2)
                     + model.u(3, 1, total - y1 - y2))
                best = min(best, c)
    return best


@given(st.floats(0.1, 12.0))
@settings(max_examples=60, deadline=None)
def test_fractional_bound_matches_grid_two_clouds(total):
    model = mmc(K=2)          # one MMC, linear backend
    got = fractional_lower_bound_single_slot(total, model)
    assert got == pytest.approx(grid_min(total, model), rel=1e-3, abs=1e-3)


@given(st.floats(0.1, 9.0))
@settings(max_examples=40, deadline=None)
def test_fractional_bound_matches_grid_three_clouds(total):
    model = mmc(K=3)
    got = fractional_lower_bound_single_slot(total, model)
    grid = grid_min(total, model, n=10000)
    assert got <= grid + 1e-6
    assert got == pytest.approx(grid, rel=5e-3, abs=5e-3)


def test_fractional_bound_linear_model():
    model = LinearCostModel(np.array([0, 2.0, 5.0]), 0, 0, 1.0)
    # everything goes to the cheap cloud
    assert fractional_lower_bound_single_slot(3.0, model) == pytest.approx(6.0)


def test_fractional_bound_rejects_nonconvex():
    """A model without inv_marginal_array: a bare one, the predicted
    (perturbed) family, and the convex polynomial family, which has only
    du."""
    class NoMarginal:
        K = 1
    with pytest.raises(ValueError):
        fractional_lower_bound_single_slot(1.0, NoMarginal())

    perturbed = PerturbedCostModel(mmc(K=3), {1: np.array([0, 1.0, 0, 0])})
    with pytest.raises(ValueError):
        fractional_lower_bound_single_slot(1.0, perturbed)

    poly = PolynomialCostModel(np.array([[0, 0], [0, 1.0]]), [(0, 0, 1, 1.0)])
    with pytest.raises(ValueError):
        fractional_lower_bound_single_slot(1.0, poly)


def test_fractional_bound_never_exceeds_integral():
    """Lower bound property against any integral single-slot placement."""
    model = mmc(K=3)
    rng = np.random.default_rng(2)
    for _ in range(50):
        demands = rng.uniform(0.3, 1.2, size=4)
        frac = fractional_lower_bound_single_slot(float(demands.sum()), model)
        best = math.inf
        import itertools
        for combo in itertools.product((1, 2, 3), repeat=4):
            y = np.zeros(4)
            for d, k in zip(demands, combo):
                y[k] += d
            best = min(best, sum(model.u(k, 1, float(y[k]))
                                 for k in (1, 2, 3) if y[k] > 0))
        assert frac <= best + 1e-9


def finite_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_gradients_match_finite_differences():
    model = LinearCostModel(np.array([0, 2.0, 1.5, 3.0]), 0.3, 0.2, 0.9)
    w = Window(2, 3)
    rng = np.random.default_rng(4)
    y = np.zeros((3, 4))
    y[:, 1:] = rng.uniform(0.5, 2.0, size=(3, 3))
    z = [{(1, 2): 0.7}, {(2, 3): 0.4}, {(3, 1): 0.9}]
    dy, dz = grad_window_cost(model, w, y, z)
    for q in range(3):
        for k in (1, 2, 3):
            def f(v, q=q, k=k):
                y2 = y.copy()
                y2[q, k] = v
                return window_cost_from_loads(model, w, y2, z)
            assert dy[q, k] == pytest.approx(finite_diff(f, y[q, k]), abs=1e-4)
        for key, zv in z[q].items():
            def g(v, q=q, key=key):
                z2 = [dict(d) for d in z]
                z2[q][key] = v
                return window_cost_from_loads(model, w, y, z2)
            assert dz[q][key] == pytest.approx(finite_diff(g, zv), abs=1e-4)


def test_gradients_polynomial():
    from mmcplace.costs import PolynomialCostModel
    model = PolynomialCostModel(np.array([[0.0, 0, 0], [0, 1.0, 0.5],
                                          [0, 2.0, 0.0]]),
                                [(0, 0, 1, 0.1), (0, 1, 1, 0.3),
                                 (0, 0, 2, 0.2)])
    w = Window(2, 2)
    y = np.array([[0, 1.2, 0.8], [0, 0.5, 1.7]], dtype=float)
    z = [{}, {(1, 2): 0.6}]
    dy, dz = grad_window_cost(model, w, y, z)
    def f(v):
        y2 = y.copy()
        y2[1, 2] = v
        return window_cost_from_loads(model, w, y2, z)
    assert dy[1, 2] == pytest.approx(finite_diff(f, y[1, 2]), abs=1e-4)
    def g(v):
        return window_cost_from_loads(model, w, y, [{}, {(1, 2): v}])
    assert dz[1][(1, 2)] == pytest.approx(finite_diff(g, 0.6), abs=1e-4)


def test_gap_constants_linear_costs_are_tight():
    """Pure-z linear migration cost: the gradient is the same constant at
    the current loads and at the maxima, so phi = 1 and psi = 1."""
    model = LinearCostModel(np.array([0, 2.0, 1.0]), 0.0, 0.0, 0.8)
    w = Window(1, 2)
    insts = [ServiceInstance(id=1, arrival_slot=1, local_demand=1.0,
                             migration_demand=1.0)]
    from mmcplace.core import ConfigurationMatrix
    m = ConfigurationMatrix(w, [1])
    m.set_column(1, [1, 2])
    y, z = loads_from_matrix(model, m, insts)
    phi, psi = gap_constants(model, w, insts, y, z, y, z)
    assert phi == pytest.approx(1.0)
    assert psi == pytest.approx(1.0)


def test_gap_constants_polynomial_order_bound():
    """psi <= polynomial order; phi grows with load headroom."""
    from mmcplace.costs import PolynomialCostModel
    model = PolynomialCostModel(np.array([[0.0, 0, 0], [0, 1.0, 1.0],
                                          [0, 1.0, 1.0]]),
                                [(0, 0, 1, 0.5)])
    w = Window(1, 2)
    insts = [ServiceInstance(id=1, arrival_slot=1, local_demand=1.0,
                             migration_demand=1.0)]
    from mmcplace.core import ConfigurationMatrix
    m = ConfigurationMatrix(w, [1])
    m.set_column(1, [1, 1])
    y, z = loads_from_matrix(model, m, insts)
    y_max = y * 3.0
    phi, psi = gap_constants(model, w, insts, y, z, y_max, z)
    assert psi is not None and psi <= model.order() + 1e-9
    assert phi >= 1.0


def test_gap_constants_price_the_window_start_from_prev_config():
    """Instances 1 and 2 sit at cloud 1 in slot 1 and leave it for cloud 2
    in window [2, 3], one per slot. The move into slot 2 reads y_1(1) = 2:
    the window costs 12, not the 11 of a pre-window load of zero. psi's
    cost is that 12 (grad . (y, z) = 11 on these linear costs)."""
    from mmcplace.core import ConfigurationMatrix
    from mmcplace.costs import window_cost

    model = LinearCostModel([0, 1, 2], 0.5, 0.5, 1)
    w = Window(2, 2)
    insts = [ServiceInstance(id=j, arrival_slot=1) for j in (1, 2)]
    prev = {1: 1, 2: 1}
    m = ConfigurationMatrix(w, [1, 2])
    m.data[:] = [[2, 1], [2, 2]]
    y, z = loads_from_matrix(model, m, insts, prev)
    assert window_cost_from_loads(model, w, y, z) == 11.0
    y_before = np.array([0.0, 2.0, 0.0])
    assert window_cost_from_loads(model, w, y, z, y_before) == 12.0
    assert window_cost(model, m, insts, prev) == 12.0
    _phi, psi = gap_constants(model, w, insts, y, z, y, z, prev_config=prev)
    assert psi == pytest.approx(11.0 / 12.0, rel=1e-12)


def test_gap_constants_refuse_an_enumeration_over_budget(monkeypatch):
    """One instance over a 3-slot window on K = 3 has 27 feasible
    sequences: with the budget at 10, gap_constants and
    brute_force_offline both raise before they list any sequence, and at
    27 both run. Each reads the budget when called."""
    from mmcplace import oracle
    from mmcplace.core import ConfigurationMatrix

    model = LinearCostModel(np.array([0, 2.0, 1.0, 1.5]), 0.1, 0.1, 0.8)
    w = Window(2, 3)
    insts = [ServiceInstance(id=1, arrival_slot=2)]
    m = ConfigurationMatrix(w, [1])
    m.set_column(1, [1, 2, 2])
    y, z = loads_from_matrix(model, m, insts)
    listed = []
    sequences = oracle.feasible_sequences

    def spy(*args):
        listed.append(args)
        return sequences(*args)

    monkeypatch.setattr(oracle, "feasible_sequences", spy)
    monkeypatch.setattr(oracle, "DEFAULT_ENUM_BUDGET", 10)
    with pytest.raises(EnumerationBudgetExceeded):
        gap_constants(model, w, insts, y, z, y, z)
    with pytest.raises(EnumerationBudgetExceeded):
        brute_force_offline(w, insts, None, model)
    assert listed == []
    monkeypatch.setattr(oracle, "DEFAULT_ENUM_BUDGET", 27)
    phi, _psi = gap_constants(model, w, insts, y, z, y, z)
    assert phi >= 1.0 and len(listed) == 1
    assert brute_force_offline(w, insts, None, model).evaluated == 27
