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
        if not 0 <= self.beta < math.inf:
            raise ValueError("beta must be finite and >= 0")
        if not 1 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and > 1")

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
        if not all(0 <= v < math.inf for v in vals):
            raise ValueError("epsilon must be finite and nonnegative")
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

    Offsets for slot t, generated at window start t0, are a signed vector
    on at most 3 clouds with sum(|offset|) = scale * epsilon(t - t0), the
    scale uniform in [0.5, 1). Slots before t0 are never perturbed (the
    past is known). The pattern is drawn once per window (it depends only
    on (seed, t0)) and its magnitude scales with epsilon as the lookahead
    grows, so a cloud that looks too cheap at the window start stays
    wrongly cheap for the whole window; errors accumulate instead of
    cancelling. Regenerating a window is reproducible and two windows
    never share noise.
    """

    def __init__(self, actual: CostModel, bound: ErrorBound, seed: int = 0):
        self.actual = actual
        self.bound = bound
        self.seed = int(seed)

    def _pattern(self, t0: int):
        """The window's noise pattern: (scale, clouds, signs * weights)."""
        K = self.actual.K
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=[self.seed, t0]))
        scale = rng.uniform(0.5, 1.0)
        m = min(3, K)
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
        it by its own epsilon, exactly as offsets(t0, t) does. With every
        epsilon 0 the window sees the actual model itself.
        """
        eps = {t: self.bound.epsilon(t - t0) if t >= t0 else 0.0
               for t in window.slots}
        if all(e <= 0 for e in eps.values()):
            return self.actual
        pattern = self._pattern(t0)
        return PerturbedCostModel(
            self.actual,
            {t: self._slot_offsets(pattern, e) for t, e in eps.items()})

