"""Ground-truth references used to validate the solvers.

Exhaustive enumeration of all feasible placement paths, the single-slot
fractional (splittable-load) lower bound via marginal-cost equalization,
and the gap constants (phi, psi) bounding the greedy online solution
against the scaled offline optimum.

The fractional bound bisects a whole array of demands at once on the
model's inv_marginal_array; a scalar demand is a one-element array. Each
demand keeps its own bracket and branch rules, so its bound does not
depend on the batch it is priced in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationMatrix, ServiceInstance, Window, feasible_sequences
from .costs import (CostModel, DistanceContext, WindowCostEvaluator,
                    placement_loads)

DEFAULT_ENUM_BUDGET = 1_000_000


class EnumerationBudgetExceeded(Exception):
    pass


@dataclass
class BruteForceSolution:
    matrix: ConfigurationMatrix
    cost: float
    evaluated: int


def brute_force_offline(window: Window, instances: list[ServiceInstance],
                        prev_config: dict[int, int] | None,
                        model: CostModel,
                        distance: DistanceContext | None = None
                        ) -> BruteForceSolution:
    """Exact minimum over the Cartesian product of per-instance sequences.

    Tie-break matches the DP solver: smallest (cost, per-slot state path).
    Raises EnumerationBudgetExceeded, before listing any sequence, when
    the candidate matrices outnumber DEFAULT_ENUM_BUDGET (read at call
    time, as in gap_constants).
    """
    instances = sorted(instances, key=lambda i: i.id)
    K = model.K
    total = 1
    for inst in instances:
        span = inst.active_span(window)
        total *= 1 if span is None else K ** (span[1] - span[0] + 1)
        if total > DEFAULT_ENUM_BUDGET:
            raise EnumerationBudgetExceeded(
                f"{total}+ candidate matrices exceeds budget "
                f"{DEFAULT_ENUM_BUDGET}")
    seq_sets = [feasible_sequences(i, window, K) for i in instances]
    ev = WindowCostEvaluator(window, instances, model, prev_config, distance)
    best = None
    count = 0
    for combo in itertools.product(*seq_sets):
        # combo[j][q] is instance j's cloud at window slot q
        path = [tuple(col[q] for col in combo) for q in range(window.T)]
        cand = (ev.path_cost(path), tuple(path))
        count += 1
        if best is None or cand < best:
            best = cand
    cost, path = best
    matrix = ConfigurationMatrix(window, [i.id for i in instances])
    for q, state in enumerate(path):
        matrix.data[q, :] = state
    return BruteForceSolution(matrix, cost, count)


def fractional_lower_bound_single_slot(total_demand, model: CostModel):
    """Min of sum_k u_k(y_k) over fractional splits with sum y_k = demand.

    total_demand is a scalar (the bound is a float) or a 1-D array of
    demands (an array of bounds). Water-filling on a shared marginal mu:
    each cloud absorbs load until its slot-1 marginal cost reaches mu, as
    the model's inv_marginal_array says; bisection drives the total
    allocation to the demand. Requires inv_marginal_array (the convex
    linear and capacity/backend families); a cloud whose cost is
    infinite at the demand is capped just below the model's capacity
    wall. A demand <= 0 costs 0, +inf costs inf, NaN raises ValueError.
    """
    if not hasattr(model, "inv_marginal_array"):
        raise ValueError("fractional bound needs an inv_marginal_array")
    demand = np.asarray(total_demand, dtype=float)
    if demand.ndim > 1:
        raise ValueError("total_demand must be a scalar or a 1-D array")
    if np.isnan(demand).any():
        raise ValueError("total_demand is NaN")
    flat = demand.reshape(-1)
    bound = np.where(flat == math.inf, math.inf, 0.0)
    live = (flat > 0) & (flat < math.inf)
    if live.any():
        bound[live] = _water_fill(flat[live], model)
    return float(bound[0]) if demand.ndim == 0 else bound


def _water_fill(d: np.ndarray, model: CostModel) -> np.ndarray:
    """The bound for positive finite demands d, all bisected at once.

    Each demand keeps its own bracket [lo, hi] and takes the same steps a
    bisection of it alone would take, so every bound is the same however
    the demands are batched. An allocation sums its clouds in cloud order;
    a split's total sums a row of the (n, K) block as numpy sums a 1-D
    array of K loads.
    """
    n, K = d.size, model.K
    slots = np.ones(n, dtype=np.int64)
    block = np.repeat(d[:, None], K + 1, axis=1)     # column 0: no cloud
    zero = np.zeros_like(block)
    capped = ~np.isfinite(model.u_array(slots, block, zero)[:, 1:])
    caps = block[:, 1:].copy()
    if capped.any():
        # largest load with finite cost, minus a hair
        caps[capped] = model.capacity * (1.0 - 1e-12)

    def alloc(mu):
        return np.cumsum(model.inv_marginal_array(mu, caps), axis=1)[:, -1]

    lo = np.zeros(n)
    hi = np.ones(n)
    for _ in range(200):
        short = alloc(hi) < d
        if not short.any():
            break
        hi[short] *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        up = alloc(mid) >= d
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    ys = model.inv_marginal_array(hi, caps)
    # flat-marginal clouds (e.g. a linear backend) can overshoot at mu;
    # scale the slack absorbers back so the total matches the demand
    excess = ys.sum(axis=1) - d
    over = excess > 0
    if over.any():
        slack = ys[over] - model.inv_marginal_array(lo[over], caps[over])
        room = slack.sum(axis=1)
        fix = room > 0
        rows = over.nonzero()[0][fix]
        ys[rows] -= slack[fix] * (excess[rows] / room[fix])[:, None]
    # everything capped below the demand: spill is impossible to place
    spill = ~over & (ys.sum(axis=1) < d * (1 - 1e-6))
    np.clip(ys, 0.0, None, out=ys)
    total = ys.sum(axis=1)
    fill = total > 0
    ys[fill] *= (d[fill] / total[fill])[:, None]
    block[:, 0] = 0.0
    block[:, 1:] = ys
    u = model.u_array(slots, block, zero)
    cost = np.cumsum(u[:, 1:], axis=1)[:, -1]
    cost[spill] = math.inf
    return cost


def _stacked(model: CostModel, y, y_before):
    """One load array for a window: row 0 is slot t0-1 (y_before, zero
    when None) and row q + 1 is window slot q, so every slot's boundary
    reads its previous row."""
    return np.vstack([np.zeros(model.K + 1) if y_before is None
                      else y_before, y])


def grad_window_cost(model: CostModel, window: Window, y, z, y_before=None):
    """Analytic gradient of the window cost wrt loads.

    y: array (T, K+1); z: list of dicts {(k,l): load} per slot (the dict
    for slot index q describes the boundary into slot t0+q). y_before is
    the fixed pre-window load profile (a constant, so it contributes no
    gradient). Returns (dy, dz) with shapes matching (y, z). Only models
    exposing du/dw (linear, polynomial) are supported.
    """
    if not hasattr(model, "du"):
        raise ValueError("gradients need a differentiable cost family")
    ys = _stacked(model, y, y_before)
    dy = np.zeros(ys.shape)
    dz = [dict() for _ in range(window.T)]
    for q, t in enumerate(window.slots, start=1):
        for k in range(1, model.K + 1):
            dy[q, k] = model.du(k, t, float(ys[q, k]))
        if t <= 1:
            continue
        for (k, l), zv in z[q - 1].items():
            if zv <= 0:
                continue
            d_from, d_to, d_z = model.dw(k, l, t, float(ys[q - 1, k]),
                                         float(ys[q, l]), float(zv))
            dy[q - 1, k] += d_from
            dy[q, l] += d_to
            dz[q - 1][(k, l)] = d_z
    return dy[1:], dz


def window_cost_from_loads(model: CostModel, window: Window, y, z,
                           y_before=None) -> float:
    """Window cost evaluated directly on load arrays (same layout as above),
    priced per slot by the model's local_total and migration_total, on the
    rows as float lists, with no distance terms."""
    rows = _stacked(model, y, y_before).tolist()
    zero = [0.0] * (model.K + 1)
    total = 0.0
    for q, t in enumerate(window.slots, start=1):
        total += model.local_total(t, rows[q], zero)
        total += model.migration_total(t, rows[q - 1], rows[q], z[q - 1], {})
    return total


def _dot(total: float, dz, z) -> float:
    """total plus dz . z, added pair by pair in z's order (0 where dz
    lacks the pair)."""
    for dz_q, z_q in zip(dz, z):
        for key, zv in z_q.items():
            total += dz_q.get(key, 0.0) * zv
    return total


def gap_constants(model: CostModel, window: Window,
                  instances: list[ServiceInstance],
                  y, z, y_max, z_max,
                  prev_config: dict[int, int] | None = None):
    """Constants (phi, psi) for the online-vs-offline gap bound.

    phi is the worst ratio, over instances and their feasible sequences,
    of the cost gradient at the load maxima shifted by that sequence's
    demand against the gradient at the current loads, each dotted with the
    sequence's demand increment, which loads_from_matrix counts on the
    sequence's own column. psi is grad . (y, z) / cost at the current
    loads; None when the cost is zero. The window-start moves out of
    prev_config are priced with the load of slot t0-1 that it places.
    Raises EnumerationBudgetExceeded, before listing any sequence, when
    the instances have more than DEFAULT_ENUM_BUDGET of them in all.
    """
    prev_config = prev_config or {}
    K = model.K
    instances = sorted(instances, key=lambda i: i.id)
    spans = [i.active_span(window) for i in instances]
    count = sum(K ** (s[1] - s[0] + 1) if s else 1 for s in spans)
    if count > DEFAULT_ENUM_BUDGET:
        raise EnumerationBudgetExceeded(
            f"{count} sequences exceeds budget {DEFAULT_ENUM_BUDGET}")
    placed = [i for i in instances if i.id in prev_config]
    y_before = placement_loads(window.t0 - 1, placed,
                               [prev_config[i.id] for i in placed], K).y
    ys = _stacked(model, y, y_before)
    dy_cur, dz_cur = grad_window_cost(model, window, y, z, y_before)
    cost = window_cost_from_loads(model, window, y, z, y_before)
    psi = (_dot(float((dy_cur * y).sum()), dz_cur, z) / cost if cost > 0
           else None)

    phi = 1.0
    for inst in instances:
        column = ConfigurationMatrix(window, [inst.id])
        for seq in feasible_sequences(inst, window, K):
            column.set_column(inst.id, seq)
            a, b = loads_from_matrix(model, column, [inst], prev_config)
            z_hi = [z_q | {key: z_q.get(key, 0.0) + bv
                           for key, bv in b_q.items()}
                    for z_q, b_q in zip(z_max, b)]
            dy_hi, dz_hi = grad_window_cost(model, window, y_max + a, z_hi,
                                            y_before)
            num = _dot(float((dy_hi * a).sum()), dz_hi, b)
            den = float((dy_cur * a).sum())
            for q, t in enumerate(window.slots):
                for (k, l), bv in b[q].items():
                    # current-state gradient may lack this migration term
                    d_z = dz_cur[q].get((k, l))
                    if d_z is None:
                        d_z = model.dw(k, l, t, float(ys[q, k]),
                                       float(ys[q + 1, l]), 0.0)[2]
                    den += d_z * bv
            if den > 0:
                phi = max(phi, num / den)
    return phi, psi


def loads_from_matrix(model: CostModel, matrix: ConfigurationMatrix,
                      instances: list[ServiceInstance],
                      prev_config: dict[int, int] | None = None):
    """(y, z) arrays in the layout grad_window_cost expects. No move into
    slot 1 is listed: W(1) = 0."""
    by_id = {inst.id: inst for inst in instances}
    columns = [by_id[iid] for iid in matrix.instance_ids]
    prev_config = prev_config or {}
    before = ([prev_config.get(iid, 0) for iid in matrix.instance_ids]
              if matrix.window.t0 > 1 else None)
    y = np.zeros((matrix.window.T, model.K + 1))
    z = []
    for q, t in enumerate(matrix.window.slots):
        state = matrix.slot_state(t)
        loads = placement_loads(t, columns, state, model.K, before=before)
        y[q, :] = loads.y
        z.append(loads.z)
        before = state
    return y, z
