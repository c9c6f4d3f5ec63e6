"""Exact per-window placement by shortest path over joint configurations.

Each slot contributes a layer of joint states (one cloud choice per
instance active in that slot, inactive instances pinned to 0); edges carry
local plus migration cost. The DP keeps, per state, the cheapest (cost,
path) reached so far, with path comparison as a deterministic
lexicographic tie-break.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import ConfigurationMatrix, ServiceInstance, Window
from .costs import CostModel, DistanceContext, WindowCostEvaluator

DEFAULT_STATE_BUDGET = 200_000


class StateBudgetExceeded(Exception):
    def __init__(self, required: int, budget: int):
        super().__init__(
            f"joint state space needs {required} states per slot, "
            f"budget is {budget}; use the online solver instead")
        self.required = required
        self.budget = budget


@dataclass
class OfflineSolution:
    matrix: ConfigurationMatrix
    cost: float
    relaxations: int


def _active_flags(window: Window, instances: list[ServiceInstance]):
    """Per slot, whether each instance is active there."""
    spans = [inst.active_span(window) for inst in instances]
    return [[span is not None and span[0] <= t <= span[1] for span in spans]
            for t in window.slots]


def _slot_states(active, K: int):
    """Per-slot joint state lists, lexicographically ordered."""
    layers = []
    for flags in active:
        choices = [range(1, K + 1) if on else (0,) for on in flags]
        layers.append([tuple(s) for s in itertools.product(*choices)])
    return layers


def solve_window_offline(window: Window, instances: list[ServiceInstance],
                         prev_config: dict[int, int] | None,
                         model: CostModel,
                         distance: DistanceContext | None = None,
                         state_budget: int = DEFAULT_STATE_BUDGET) -> OfflineSolution:
    """Minimum-cost placement matrix for one window, exactly.

    Ties in total cost resolve to the lexicographically smallest per-slot
    state path. Raises StateBudgetExceeded before doing exponential work.
    """
    instances = sorted(instances, key=lambda i: i.id)
    K = model.K
    active = _active_flags(window, instances)
    widest = max(K ** sum(flags) for flags in active)
    if widest > state_budget:
        raise StateBudgetExceeded(widest, state_budget)
    layers = _slot_states(active, K)

    ev = WindowCostEvaluator(window, instances, model, prev_config, distance)
    relax = 0
    # best[state] = (cost, path); path is the tuple of states up to here
    best: dict = {}
    for q, t in enumerate(window.slots):
        nxt: dict = {}
        for state in layers[q]:
            local = ev.local(t, state)
            if q == 0:
                relax += 1
                cand = (local + ev.transition(t, None, state), (state,))
                if state not in nxt or cand < nxt[state]:
                    nxt[state] = cand
            else:
                cur = None
                for prev_state, (pcost, ppath) in best.items():
                    relax += 1
                    cand = (pcost + local + ev.transition(t, prev_state, state),
                            ppath + (state,))
                    if cur is None or cand < cur:
                        cur = cand
                nxt[state] = cur
        best = nxt

    cost, path = min(best.values())
    matrix = ConfigurationMatrix(window, [i.id for i in instances])
    for q, state in enumerate(path):
        matrix.data[q, :] = state
    return OfflineSolution(matrix=matrix, cost=cost, relaxations=relax)


def run_offline(horizon: int, window_size: int,
                instances: list[ServiceInstance], oracle,
                distance: DistanceContext | None = None,
                state_budget: int = DEFAULT_STATE_BUDGET):
    """Window-by-window offline placement over a full horizon.

    oracle supplies predicted costs per window (predictor.CostOracle);
    the prior window's final placements seed each window's migration
    baseline. Returns (per-window solutions, per-slot actual costs).
    """
    from .costs import window_cost  # local import to avoid cycle noise

    prev_config: dict[int, int] = {}
    solutions = []
    actual_by_slot: dict[int, float] = {}
    t0 = 1
    while t0 <= horizon:
        window = Window(t0, min(window_size, horizon - t0 + 1))
        active = [i for i in instances if i.active_span(window) is not None]
        model = oracle.predicted_model(t0, window)
        sol = solve_window_offline(window, active, prev_config, model,
                                   distance, state_budget)
        solutions.append(sol)
        ev = WindowCostEvaluator(window, active, oracle.actual, prev_config,
                                 distance)
        prev_state = None
        for q, t in enumerate(window.slots):
            state = sol.matrix.slot_state(t)
            actual_by_slot[t] = (ev.local(t, state)
                                 + ev.transition(t, prev_state, state))
            prev_state = state
        last = window.end
        prev_config = {i.id: sol.matrix.get(i.id, last) for i in active
                       if sol.matrix.get(i.id, last) != 0}
        t0 += window_size
    return solutions, actual_by_slot
