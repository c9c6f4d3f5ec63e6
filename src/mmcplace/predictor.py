"""Prediction-error envelopes and bound-respecting predicted costs.

epsilon(tau) caps how far a cost predicted tau slots ahead may deviate
from the actual cost of the same configuration; F(T) is its cumulative
sum. The oracle turns an actual cost model into per-window predicted
models by drawing additive per-cloud offsets whose absolute sum never
exceeds epsilon, so the deviation bound holds for every configuration by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Window
from .costs import CostModel, PerturbedCostModel


class ErrorBound:
    def epsilon(self, tau: int) -> float:
        raise NotImplementedError

    def F(self, T: int) -> float:
        """Cumulative bound over a window of length T; F(0) = 0."""
        if T < 0:
            raise ValueError("T must be >= 0")
        return sum(self.epsilon(tau) for tau in range(T))


@dataclass(frozen=True)
class PowerLawErrorBound(ErrorBound):
    """F(T) = beta * T^alpha with alpha > 1, so F is convex increasing."""

    beta: float
    alpha: float

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.alpha <= 1:
            raise ValueError("alpha must be > 1")

    def F(self, T: int) -> float:
        if T < 0:
            raise ValueError("T must be >= 0")
        return self.beta * T ** self.alpha

    def epsilon(self, tau: int) -> float:
        if tau < 0:
            raise ValueError("lookahead must be >= 0")
        return self.F(tau + 1) - self.F(tau)


@dataclass(frozen=True)
class TabulatedErrorBound(ErrorBound):
    """Explicit epsilon table; the last entry extends to all larger lookaheads."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("need at least one epsilon value")
        if any(v < 0 for v in vals):
            raise ValueError("epsilon must be nonnegative")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("epsilon must be non-decreasing in lookahead")
        object.__setattr__(self, "values", vals)

    def epsilon(self, tau: int) -> float:
        if tau < 0:
            raise ValueError("lookahead must be >= 0")
        return self.values[min(tau, len(self.values) - 1)]


ZERO_BOUND = TabulatedErrorBound((0.0,))


class CostOracle:
    """Actual cost model plus deterministic bounded prediction noise.

    Offsets for slot t, generated at window start t0, are a sparse signed
    per-cloud vector with sum(|offset|) <= epsilon(t - t0). Slots before
    t0 are never perturbed (the past is known). The sign/cloud pattern is
    drawn once per window (it depends only on (seed, t0)) and its
    magnitude scales with epsilon as the lookahead grows, so a cloud that
    looks too cheap at the window start stays wrongly cheap for the whole
    window; errors accumulate instead of cancelling. Regenerating a
    window is reproducible and two windows never share noise.
    """

    def __init__(self, actual: CostModel, bound: ErrorBound, seed: int = 0,
                 noise_shape: str = "uniform", spread: int = 3):
        if noise_shape not in ("uniform", "truncated-gaussian"):
            raise ValueError(f"unknown noise shape: {noise_shape}")
        self.actual = actual
        self.bound = bound
        self.seed = int(seed)
        self.noise_shape = noise_shape
        self.spread = max(1, int(spread))

    def _pattern(self, t0: int):
        """The window's noise pattern: (scale, clouds, signs * weights)."""
        K = self.actual.K
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=[self.seed, t0]))
        if self.noise_shape == "uniform":
            scale = rng.uniform(0.5, 1.0)
        else:
            # |N(0, 1/2)| clipped to [0, 1]
            scale = min(abs(rng.normal(0.0, 0.5)), 1.0)
        m = min(self.spread, K)
        clouds = rng.choice(np.arange(1, K + 1), size=m, replace=False)
        weights = rng.dirichlet(np.ones(m))
        signs = rng.choice((-1.0, 1.0), size=m)
        return scale, clouds, signs * weights

    def _slot_offsets(self, pattern, eps: float) -> np.ndarray:
        out = np.zeros(self.actual.K + 1)
        if eps > 0:
            scale, clouds, signed = pattern
            out[clouds] = signed * (scale * eps)
        return out

    def offsets(self, t0: int, t: int) -> np.ndarray:
        """Per-cloud additive local-cost offsets for slot t seen from t0."""
        eps = self.bound.epsilon(t - t0) if t >= t0 else 0.0
        if eps <= 0:
            return np.zeros(self.actual.K + 1)
        return self._slot_offsets(self._pattern(t0), eps)

    def predicted_model(self, t0: int, window: Window) -> CostModel:
        """Cost model seen by a planner deciding at the start of window.

        The noise pattern is drawn once for the window; each slot scales
        it by its own epsilon, exactly as offsets(t0, t) does.
        """
        eps = {t: self.bound.epsilon(t - t0) if t >= t0 else 0.0
               for t in window.slots}
        if all(e <= 0 for e in eps.values()):
            return self.actual
        pattern = self._pattern(t0)
        offs = {t: self._slot_offsets(pattern, e) for t, e in eps.items()}
        if all(not off.any() for off in offs.values()):
            return self.actual
        return PerturbedCostModel(self.actual, offs)


def predicted_cost_params(oracle: CostOracle, t0: int, t: int) -> np.ndarray:
    """The perturbed per-slot parameters: per-cloud local-cost offsets."""
    if t < 1:
        raise ValueError("slots start at 1")
    return oracle.offsets(t0, t)
