"""Exact per-window placement by shortest path over joint configurations.

Each slot contributes a layer of joint states (one cloud choice per
instance active in that slot, inactive instances pinned to 0); edges carry
local plus migration cost. The DP keeps, per state, the cheapest cost
reached so far and a back-pointer to the state before it; the path is
rebuilt from the back-pointers at the end. The search starts from the
evaluator's prior, the joint state at t0-1. Ties in cost resolve to the
lexicographically smallest per-slot state path: on an exact tie both
candidates' paths are rebuilt and compared, so no path is copied per
relaxation.

Each layer's predecessors are ranked once by their best cost, and each
state walks them cheapest first, stopping at the first one whose cost
plus the state's local cost already exceeds the best candidate found.
The stop is exact: every cost family's w is nonnegative, so W >= 0, and
IEEE addition is monotone, so no later predecessor's (cost + local) + W
can fall below or tie the best. The minimum over (cost, path) does not
depend on the visiting order, so the costs, the tie-break and the
back-pointers are those of relaxing every pair. relaxations counts
every pair of consecutive states all the same; priced counts the
transitions actually priced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import ConfigurationMatrix, ServiceInstance, Window
from .costs import CostModel, DistanceContext, WindowCostEvaluator
from .online import run_windows

DEFAULT_STATE_BUDGET = 200_000
RELAXATION_BUDGET = 10_000_000   # pairs of consecutive states per window


class StateBudgetExceeded(Exception):
    def __init__(self, required: int, budget: int,
                 what: str = "states per slot"):
        super().__init__(
            f"joint state space needs {required} {what}, "
            f"budget is {budget}; use the online solver instead")
        self.required = required
        self.budget = budget


@dataclass
class OfflineSolution:
    matrix: ConfigurationMatrix
    cost: float
    relaxations: int     # pairs of consecutive states the DP covers
    priced: int          # transitions it actually priced, <= relaxations


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
                         distance: DistanceContext | None = None
                         ) -> OfflineSolution:
    """Minimum-cost placement matrix for one window, exactly.

    Ties in total cost resolve to the lexicographically smallest per-slot
    state path. Raises StateBudgetExceeded before doing exponential work:
    above DEFAULT_STATE_BUDGET joint states in a slot, or above
    RELAXATION_BUDGET relaxations (|L_1| + sum of |L_q-1| |L_q|, the count
    it reports as relaxations), both module constants read at call time.
    Each state walks the previous layer cheapest first and stops once a
    predecessor's cost plus the state's local cost exceeds the best
    candidate: priced reports the transitions priced before those stops.
    The stop needs W >= 0, so a negative priced W raises ValueError
    instead of returning a wrong optimum.
    """
    instances = sorted(instances, key=lambda i: i.id)
    K = model.K
    active = _active_flags(window, instances)
    sizes = [K ** sum(flags) for flags in active]
    if max(sizes) > DEFAULT_STATE_BUDGET:
        raise StateBudgetExceeded(max(sizes), DEFAULT_STATE_BUDGET)
    pairs = sum(a * b for a, b in zip([1] + sizes, sizes))
    if pairs > RELAXATION_BUDGET:
        raise StateBudgetExceeded(pairs, RELAXATION_BUDGET, "relaxations")
    layers = _slot_states(active, K)

    ev = WindowCostEvaluator(window, instances, model, prev_config, distance)
    priced = 0
    best: dict = {ev.prior: 0.0}   # state -> cost of the cheapest path to it
    links: list = []     # links[q][state] = predecessor of layer q's state
    for t, layer in zip(window.slots, layers):
        nxt: dict = {}
        link: dict = {}
        ranked = sorted(best, key=best.__getitem__)
        for state in layer:
            local = ev.local(t, state)
            cur = via = None
            for prev_state in ranked:
                base = best[prev_state] + local
                if cur is not None and base > cur:
                    break            # W >= 0: no later predecessor can win
                priced += 1
                W = ev.transition(t, prev_state, state)
                if W < 0:
                    raise ValueError(
                        f"migration cost {W} < 0 into slot {t}: the DP "
                        "needs w >= 0 (CostModel.w)")
                cand = base + W
                if cur is None or cand < cur or (
                        cand == cur and _path(links, prev_state)
                        < _path(links, via)):
                    cur, via = cand, prev_state
            nxt[state] = cur
            link[state] = via
        links.append(link)
        best = nxt

    end = cost = None
    for state, c in best.items():
        if end is None or c < cost or (
                c == cost and _path(links, state) < _path(links, end)):
            end, cost = state, c
    matrix = ConfigurationMatrix(window, [i.id for i in instances])
    for q, state in enumerate(_path(links, end)[1:]):
        matrix.data[q, :] = state
    return OfflineSolution(matrix=matrix, cost=cost, relaxations=pairs,
                           priced=priced)


def _path(links, state):
    """The state path that the back-pointers lead to `state` along."""
    path = [state]
    for link in reversed(links):
        state = link[state]
        path.append(state)
    return tuple(reversed(path))


def run_offline(horizon: int, window_size: int,
                instances: list[ServiceInstance], oracle,
                distance: DistanceContext | None = None):
    """Window-by-window offline placement over a full horizon.

    online.run_windows runs the windows: each one is solved exactly on
    the oracle's predicted costs (predictor.CostOracle) from the slot
    t0-1 placements, and the actual costs are charged from the per-slot
    placements by costs.charge_placements. Returns (per-window solutions,
    per-slot actual costs).
    """
    solutions = []

    def solve(window, model, prev_config, columns, run):
        solutions.append(solve_window_offline(window, columns, prev_config,
                                              model, distance))
        return solutions[-1].matrix

    run = run_windows(horizon, window_size, instances, oracle, distance,
                      solve)
    return solutions, run.actual_by_slot
