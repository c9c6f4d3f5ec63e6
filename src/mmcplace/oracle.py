"""Ground-truth references used to validate the solvers.

Exhaustive enumeration of all feasible placement paths, the single-slot
fractional (splittable-load) lower bound via marginal-cost equalization,
and the gap constants (phi, psi) bounding the greedy online solution
against the scaled offline optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationMatrix, ServiceInstance, Window, feasible_sequences
from .costs import (CostModel, DistanceContext, LinearCostModel,
                    PolynomialCostModel, WindowCostEvaluator)

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
                        distance: DistanceContext | None = None,
                        budget: int = DEFAULT_ENUM_BUDGET) -> BruteForceSolution:
    """Exact minimum over the Cartesian product of per-instance sequences.

    Tie-break matches the DP solver: smallest (cost, per-slot state path).
    """
    instances = sorted(instances, key=lambda i: i.id)
    K = model.K
    total = 1
    for inst in instances:
        span = inst.active_span(window)
        total *= 1 if span is None else K ** (span[1] - span[0] + 1)
        if total > budget:
            raise EnumerationBudgetExceeded(
                f"{total}+ candidate matrices exceeds budget {budget}")
    seq_sets = [feasible_sequences(i, window, K) for i in instances]
    ev = WindowCostEvaluator(window, instances, model, prev_config, distance)
    best = None
    count = 0
    if not instances:
        matrix = ConfigurationMatrix(window, [])
        cost = ev.path_cost([() for _ in window.slots])
        return BruteForceSolution(matrix, cost, 1)
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


def fractional_lower_bound_single_slot(total_demand: float, model: CostModel,
                                       t: int = 1, tol: float = 1e-9,
                                       max_iter: int = 100) -> float:
    """Min of sum_k u_k(y_k) over fractional splits with sum y_k = demand.

    Water-filling on a shared marginal mu: each cloud absorbs load until
    its marginal cost du/dy reaches mu; bisection drives the total
    allocation to the demand. Requires a convex model; capacity walls
    (infinite cost) act as hard caps.
    """
    if not getattr(model, "convex_nondecreasing", False):
        raise ValueError("fractional bound needs a convex cost model")
    if total_demand <= 0:
        return 0.0
    K = model.K

    if hasattr(model, "du"):
        def marginal(k: int, y: float) -> float:
            return model.du(k, t, y)
    else:
        def marginal(k: int, y: float) -> float:
            h = 1e-7 * max(1.0, abs(y))
            a = model.u(k, t, y + h)
            b = model.u(k, t, max(0.0, y - h))
            if not math.isfinite(a):
                return math.inf
            return (a - b) / (h + min(y, h))

    def cap(k: int) -> float:
        # largest load with finite cost, minus a hair
        lo, hi = 0.0, total_demand
        if math.isfinite(model.u(k, t, hi)):
            return hi
        wall = getattr(model, "capacity", None)
        if wall is not None and k != getattr(model, "backend", None):
            return min(hi, wall * (1.0 - 1e-12))
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if math.isfinite(model.u(k, t, mid)):
                lo = mid
            else:
                hi = mid
        return lo

    caps = [cap(k) for k in range(1, K + 1)]

    if hasattr(model, "inv_marginal"):
        def alloc_one(k: int, mu: float) -> float:
            return min(model.inv_marginal(k, t, mu, caps[k - 1]), caps[k - 1])
    else:
        def alloc_one(k: int, mu: float) -> float:
            # largest y in [0, cap] with marginal(y) <= mu
            ck = caps[k - 1]
            if marginal(k, 0.0) > mu:
                return 0.0
            if marginal(k, ck) <= mu:
                return ck
            lo, hi = 0.0, ck
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if marginal(k, mid) <= mu:
                    lo = mid
                else:
                    hi = mid
            return lo

    def alloc(mu: float) -> float:
        return sum(alloc_one(k, mu) for k in range(1, K + 1))

    lo_mu = 0.0
    hi_mu = 1.0
    for _ in range(200):
        if alloc(hi_mu) >= total_demand:
            break
        hi_mu *= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (lo_mu + hi_mu)
        if alloc(mid) >= total_demand:
            hi_mu = mid
        else:
            lo_mu = mid
    mu = hi_mu
    ys = np.array([alloc_one(k, mu) for k in range(1, K + 1)])
    # flat-marginal clouds (e.g. a linear backend) can overshoot at mu;
    # scale the slack absorbers back so the total matches the demand
    excess = ys.sum() - total_demand
    if excess > 0:
        lower = np.array([alloc_one(k, lo_mu) for k in range(1, K + 1)])
        slack = ys - lower
        if slack.sum() > 0:
            ys = ys - slack * (excess / slack.sum())
    elif ys.sum() < total_demand * (1 - 1e-6):
        # everything capped below the demand: spill is impossible to place
        return math.inf
    ys = np.clip(ys, 0.0, None)
    if ys.sum() > 0:
        ys *= total_demand / ys.sum()
    return float(sum(model.u(k, t, float(ys[k - 1])) for k in range(1, K + 1)))


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
    T = window.T
    K = model.K
    if y_before is None:
        y_before = np.zeros(K + 1)
    dy = np.zeros((T, K + 1))
    dz = [dict() for _ in range(T)]
    for q in range(T):
        t = window.t0 + q
        for k in range(1, K + 1):
            dy[q, k] = model.du(k, t, float(y[q, k]))
        if t <= 1:
            continue
        for (k, l), zv in z[q].items():
            if zv <= 0:
                continue
            y_from = float(y[q - 1, k]) if q > 0 else float(y_before[k])
            d_from, d_to, d_z = model.dw(k, l, t, y_from, float(y[q, l]),
                                         float(zv))
            if q > 0:
                dy[q - 1, k] += d_from
            dy[q, l] += d_to
            dz[q][(k, l)] = d_z
    return dy, dz


def window_cost_from_loads(model: CostModel, window: Window, y, z,
                           y_before=None) -> float:
    """Window cost evaluated directly on load arrays (same layout as above)."""
    total = 0.0
    if y_before is None:
        y_before = np.zeros(model.K + 1)
    for q in range(window.T):
        t = window.t0 + q
        for k in range(1, model.K + 1):
            if y[q, k] > 0:
                total += model.u(k, t, float(y[q, k]))
        if t > 1:
            for (k, l), zv in z[q].items():
                if zv > 0:
                    y_from = float(y[q - 1, k]) if q > 0 else float(y_before[k])
                    total += model.w(k, l, t, y_from, float(y[q, l]), float(zv))
    return total


def _sequence_load_delta(inst: ServiceInstance, seq, window: Window,
                         prev_cloud: int, K: int):
    """Load increments (a, b) a single instance/sequence contributes."""
    T = window.T
    a = np.zeros((T, K + 1))
    b = [dict() for _ in range(T)]
    prev = prev_cloud
    for q in range(T):
        k = seq[q]
        if k:
            a[q, k] += inst.local_demand
            if prev and prev != k and window.t0 + q > 1:
                b[q][(prev, k)] = b[q].get((prev, k), 0.0) + inst.migration_demand
        prev = k if k else 0
    return a, b


def gap_constants(model: CostModel, window: Window,
                  instances: list[ServiceInstance],
                  y, z, y_max, z_max,
                  prev_config: dict[int, int] | None = None,
                  sample_rng: np.random.Generator | None = None,
                  max_sequences: int = 2000):
    """Constants (phi, psi) for the online-vs-offline gap bound.

    phi is the worst ratio, over instances and their feasible sequences,
    of the cost gradient at the load maxima shifted by that sequence's
    demand against the gradient at the current loads, each dotted with the
    sequence's demand increment. psi is grad . (y, z) / cost at the
    current loads; None when the cost is zero.
    """
    prev_config = dict(prev_config or {})
    K = model.K
    dy_cur, dz_cur = grad_window_cost(model, window, y, z)
    cost = window_cost_from_loads(model, window, y, z)
    if cost > 0:
        num = float((dy_cur * y).sum())
        for q in range(window.T):
            for key, zv in z[q].items():
                num += dz_cur[q].get(key, 0.0) * zv
        psi = num / cost
    else:
        psi = None

    phi = 1.0
    for inst in sorted(instances, key=lambda i: i.id):
        seqs = feasible_sequences(inst, window, K)
        if sample_rng is not None and len(seqs) > max_sequences:
            idx = sample_rng.choice(len(seqs), size=max_sequences, replace=False)
            seqs = [seqs[i] for i in sorted(idx)]
        prev_cloud = prev_config.get(inst.id, 0)
        for seq in seqs:
            a, b = _sequence_load_delta(inst, seq, window, prev_cloud, K)
            y_hi = y_max + a
            z_hi = [dict(z_max[q]) for q in range(window.T)]
            for q in range(window.T):
                for key, bv in b[q].items():
                    z_hi[q][key] = z_hi[q].get(key, 0.0) + bv
            dy_hi, dz_hi = grad_window_cost(model, window, y_hi, z_hi)
            num = float((dy_hi * a).sum())
            den = float((dy_cur * a).sum())
            for q in range(window.T):
                for key, bv in b[q].items():
                    num += dz_hi[q].get(key, 0.0) * bv
                    # current-state gradient may lack this migration term
                    if key in dz_cur[q]:
                        den += dz_cur[q][key] * bv
                    else:
                        y_from = float(y[q - 1, key[0]]) if q > 0 else 0.0
                        d_from, d_to, d_z = model.dw(
                            key[0], key[1], window.t0 + q,
                            y_from, float(y[q, key[1]]), 0.0)
                        den += d_z * bv
            if den > 0:
                phi = max(phi, num / den)
    return phi, psi


def loads_from_matrix(model: CostModel, matrix: ConfigurationMatrix,
                      instances: list[ServiceInstance],
                      prev_config: dict[int, int] | None = None):
    """(y, z) arrays in the layout grad_window_cost expects."""
    from .costs import aggregate_loads
    slot_loads = aggregate_loads(matrix, instances, model, prev_config)
    T = matrix.window.T
    y = np.zeros((T, model.K + 1))
    z = []
    for q in range(T):
        y[q, :] = slot_loads[q].y
        z.append(dict(slot_loads[q].z))
    return y, z
