"""Look-ahead window sizing.

theta(T) = ((Gamma+1) * F(T) + sigma) / T balances cumulative prediction
error against per-window migration overhead; its discrete argmin is the
window size to run with. theta is unimodal for convex F, so a binary
search over the theta(T) vs theta(T+1) ordering finds the argmin; for
power-law F a closed form brackets it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .predictor import ErrorBound, PowerLawErrorBound


@dataclass(frozen=True)
class WindowObjective:
    gamma: float      # competitive-ratio tuning parameter, >= 1
    sigma: float      # max per-slot actual migration cost, >= 0
    bound: ErrorBound

    def __post_init__(self):
        if not 1 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 1")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and >= 0")


def theta(obj: WindowObjective, T: int) -> float:
    if T < 1:
        raise ValueError("window length must be >= 1")
    return ((obj.gamma + 1) * obj.bound.F(T) + obj.sigma) / T


def phi_discrete(obj: WindowObjective, T: int) -> float:
    """Forward-difference stationarity residual of theta at T.

    Negative while theta is still decreasing, nonnegative past the
    minimum; non-decreasing in T whenever F is convex.
    """
    if T < 1:
        raise ValueError("window length must be >= 1")
    g = obj.gamma + 1
    return g * T * (obj.bound.F(T + 1) - obj.bound.F(T)) - g * obj.bound.F(T) - obj.sigma


def optimal_window_binary_search(obj: WindowObjective, T_m: int) -> int:
    """argmin of theta over {1..T_m} via binary search on the slope sign."""
    if T_m < 1:
        raise ValueError("T_m must be >= 1")
    lo, hi = 1, T_m
    while lo < hi:
        mid = (lo + hi) // 2
        if theta(obj, mid + 1) < theta(obj, mid):
            lo = mid + 1      # still descending
        else:
            hi = mid
    return lo


def closed_form_T0(gamma: float, sigma: float, beta: float,
                   alpha: float) -> tuple[float, int]:
    """Continuous minimizer T0 for F = beta*T^alpha and its discrete argmin.

    T0 = (sigma / ((gamma+1) * beta * (alpha-1)))^(1/alpha); the discrete
    optimum is floor or ceil of T0 (clamped to >= 1), whichever gives the
    smaller theta.
    """
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if gamma < 1 or sigma < 0:
        raise ValueError("need gamma >= 1 and sigma >= 0")
    T0 = (sigma / ((gamma + 1) * beta * (alpha - 1))) ** (1.0 / alpha)
    obj = WindowObjective(gamma, sigma, PowerLawErrorBound(beta, alpha))
    cands = sorted({max(1, math.floor(T0)), max(1, math.ceil(T0))})
    Tstar = min(cands, key=lambda T: (theta(obj, T), T))
    return T0, Tstar
