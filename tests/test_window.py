import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcplace.predictor import PowerLawErrorBound, TabulatedErrorBound
from mmcplace.window import (WindowObjective, closed_form_T0,
                             optimal_window_binary_search, phi_discrete, theta)


def scan_argmin(obj, T_m):
    return min(range(1, T_m + 1), key=lambda T: (theta(obj, T), T))


def test_theta_definition():
    obj = WindowObjective(1.5, 2.0, PowerLawErrorBound(0.4, 1.1))
    assert theta(obj, 1) == pytest.approx((2.5 * 0.4 + 2.0) / 1)
    with pytest.raises(ValueError):
        theta(obj, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bounds_and_objective_reject_non_finite_values(bad):
    """NaN passes every `x < 0` check, so each constructor tests the
    allowed range itself: a non-finite beta, alpha, epsilon, gamma or
    sigma raises."""
    bound = PowerLawErrorBound(0.4, 1.1)
    for build in (lambda: PowerLawErrorBound(bad, 1.1),
                  lambda: PowerLawErrorBound(0.4, bad),
                  lambda: TabulatedErrorBound((0.1, bad)),
                  lambda: TabulatedErrorBound((bad,)),
                  lambda: WindowObjective(bad, 2.0, bound),
                  lambda: WindowObjective(1.5, bad, bound)):
        with pytest.raises(ValueError):
            build()
    WindowObjective(1.5, 2.0, TabulatedErrorBound((0.0, 0.1)))


def test_phi_sign_change_brackets_minimum():
    obj = WindowObjective(1.5, 2.0, PowerLawErrorBound(0.4, 1.1))
    Tstar = scan_argmin(obj, 200)
    assert phi_discrete(obj, Tstar) >= 0
    if Tstar > 1:
        assert phi_discrete(obj, Tstar - 1) < 0


@given(gamma=st.floats(1.0, 5.0), sigma=st.floats(0.0, 20.0),
       beta=st.floats(0.01, 2.0), alpha=st.floats(1.01, 1.8))
@settings(max_examples=200, deadline=None)
def test_binary_search_matches_scan(gamma, sigma, beta, alpha):
    obj = WindowObjective(gamma, sigma, PowerLawErrorBound(beta, alpha))
    T_m = 200
    got = optimal_window_binary_search(obj, T_m)
    assert theta(obj, got) == pytest.approx(theta(obj, scan_argmin(obj, T_m)))


def test_binary_search_tabulated_bound():
    obj = WindowObjective(2.0, 3.0, TabulatedErrorBound((0.1, 0.5, 1.5, 4.0)))
    got = optimal_window_binary_search(obj, 50)
    assert theta(obj, got) == pytest.approx(theta(obj, scan_argmin(obj, 50)))


@given(gamma=st.floats(1.0, 5.0), sigma=st.floats(0.01, 20.0),
       beta=st.floats(0.01, 2.0), alpha=st.floats(1.01, 1.8))
@settings(max_examples=300, deadline=None)
def test_closed_form_brackets_scan_argmin(gamma, sigma, beta, alpha):
    """The discrete argmin is floor or ceil of the continuous minimizer."""
    T0, Tstar = closed_form_T0(gamma, sigma, beta, alpha)
    obj = WindowObjective(gamma, sigma, PowerLawErrorBound(beta, alpha))
    T_m = max(2 * Tstar, math.ceil(T0) + 2, 10)
    scan = scan_argmin(obj, T_m)
    assert scan in {max(1, math.floor(T0)), max(1, math.ceil(T0))}
    assert theta(obj, Tstar) == pytest.approx(theta(obj, scan))


def test_reference_parameter_values():
    T0, Tstar = closed_form_T0(1.5, 2.0, 0.4, 1.1)
    assert T0 == pytest.approx((2.0 / (2.5 * 0.4 * 0.1)) ** (1 / 1.1))
    assert Tstar in (15, 16)
    obj = WindowObjective(1.5, 2.0, PowerLawErrorBound(0.4, 1.1))
    assert Tstar == scan_argmin(obj, 200)
