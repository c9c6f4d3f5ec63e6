import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcplace.core import ServiceInstance, Window
from mmcplace.costs import MmcBackendCostModel, WindowCostEvaluator
from mmcplace.predictor import (ZERO_BOUND, CostOracle, PowerLawErrorBound,
                                TabulatedErrorBound)


def test_power_law_values():
    b = PowerLawErrorBound(0.4, 1.1)
    assert b.epsilon(0) == pytest.approx(0.4)
    assert b.epsilon(1) == pytest.approx(0.4 * (2 ** 1.1 - 1))
    assert b.F(0) == 0.0
    assert b.F(2) == pytest.approx(0.4 * 2 ** 1.1)
    with pytest.raises(ValueError):
        PowerLawErrorBound(0.4, 1.0)


def test_tabulated_lookup_and_extension():
    b = TabulatedErrorBound((0.1, 0.2, 0.4))
    assert b.epsilon(1) == 0.2
    assert b.epsilon(7) == 0.4
    assert b.F(2) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        TabulatedErrorBound((0.3, 0.2))


@given(st.floats(0.01, 2), st.floats(1.01, 2.0), st.integers(0, 50))
@settings(max_examples=200, deadline=None)
def test_epsilon_monotone_and_F_convex(beta, alpha, tau):
    b = PowerLawErrorBound(beta, alpha)
    assert b.epsilon(tau) <= b.epsilon(tau + 1) + 1e-12
    assert (b.F(tau + 2) - b.F(tau + 1)) >= (b.F(tau + 1) - b.F(tau)) - 1e-12


def _model(K=6):
    return MmcBackendCostModel(K=K, capacity=5.0, backend_local_rate=3.0,
                               backend_migration_rate=3.0)


def test_offsets_budget_and_past():
    oracle = CostOracle(_model(), PowerLawErrorBound(0.4, 1.1), seed=3)
    for t0 in (1, 5, 11):
        for t in range(1, 20):
            off = oracle.offsets(t0, t)
            if t < t0:
                assert not off.any()
            else:
                assert np.abs(off).sum() <= oracle.bound.epsilon(t - t0) + 1e-12
            assert off[0] == 0.0


def test_offsets_deterministic():
    a = CostOracle(_model(), PowerLawErrorBound(0.4, 1.1), seed=9)
    b = CostOracle(_model(), PowerLawErrorBound(0.4, 1.1), seed=9)
    assert np.array_equal(a.offsets(4, 7), b.offsets(4, 7))
    c = CostOracle(_model(), PowerLawErrorBound(0.4, 1.1), seed=10)
    assert not np.array_equal(a.offsets(4, 7), c.offsets(4, 7))


def test_zero_bound_returns_actual_model():
    model = _model()
    oracle = CostOracle(model, ZERO_BOUND, seed=1)
    assert oracle.predicted_model(1, Window(1, 5)) is model


@given(st.integers(0, 2 ** 31))
@settings(max_examples=50, deadline=None)
def test_prediction_gap_within_bound_random_states(seed):
    """|A - D| <= epsilon(t - t0) for random joint configurations."""
    rng = np.random.default_rng(seed)
    model = _model()
    bound = PowerLawErrorBound(0.4, 1.1)
    oracle = CostOracle(model, bound, seed=seed % 1000)
    t0 = int(rng.integers(1, 6))
    window = Window(t0, int(rng.integers(1, 8)))
    insts = [ServiceInstance(id=j, arrival_slot=t0) for j in range(1, 5)]
    predicted = oracle.predicted_model(t0, window)
    ev_a = WindowCostEvaluator(window, insts, model)
    ev_d = WindowCostEvaluator(window, insts, predicted)
    for t in window.slots:
        state = tuple(int(rng.integers(1, model.K + 1)) for _ in insts)
        gap = abs(ev_a.local(t, state) - ev_d.local(t, state))
        assert gap <= bound.epsilon(t - t0) + 1e-9


def test_predicted_model_offsets_equal_offsets():
    """The per-window draw gives offsets(t0, t) bit for bit, every slot."""
    bound = PowerLawErrorBound(0.4, 1.1)
    for seed in (1, 7):
        oracle = CostOracle(_model(K=20), bound, seed=seed)
        for t0 in range(1, 30, 3):
            window = Window(t0, 30)
            predicted = oracle.predicted_model(t0, window)
            for t in window.slots:
                assert np.array_equal(predicted.offsets[t],
                                      oracle.offsets(t0, t))
