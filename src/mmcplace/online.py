"""Greedy per-instance placement under arrivals and departures.

Each arriving instance is routed by a single-instance shortest-path DP
over the remainder of the window, with every other column frozen; the
control loop processes slots in order, re-presents carried-over instances
as arrivals at each window start, and zeroes columns on departure without
re-optimizing survivors.

Two equivalent DP implementations: a generic one that works for any cost
model (and carries the lexicographic tie-break used in exactness tests),
and a vectorized one for the capacity/backend family, whose migration
cost is linear in the migration loads so per-candidate deltas reduce to
row/column corrections.

The vectorized DP reads every frozen load from a WindowLedger: per-slot
local loads and user-distance sums, per-boundary MMC-to-MMC migration
out- and in-sums, each user's cell looked up once per window, and the
distance tables of the DistanceContext. run_online keeps one ledger per
window and refreshes only the rows a placement or a departure touches,
recomputing each from the matrix in instance order, so a row always
equals a fresh WindowCostEvaluator aggregation bit for bit. No joint
state tuple is built and no cost function is called per cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationMatrix, ServiceInstance, Window
from .costs import (CostModel, DistanceContext, MmcBackendCostModel,
                    PerturbedCostModel, WindowCostEvaluator)


@dataclass
class PlacementOutcome:
    matrix: ConfigurationMatrix
    predicted_cost: float      # full window cost after the placement
    relaxations: int
    saturated: bool            # True when every route carried infinite cost


def _place_generic(instance, t, t_e, matrix, instances, model, ev, j, K):
    """Reference DP: per-candidate full-state cost evaluation."""

    def joint(t_abs: int, k: int) -> tuple[int, ...]:
        state = list(matrix.slot_state(t_abs))
        state[j] = k
        return tuple(state)

    window = matrix.window
    relax = 0
    best: dict[int, tuple] = {}
    for s in range(t, t_e + 1):
        nxt: dict[int, tuple] = {}
        for k in range(1, K + 1):
            state = joint(s, k)
            local = ev.local(s, state)
            if s == t:
                # frozen columns' state at t-1 is the migration baseline for
                # a mid-window arrival; at the window start it comes from
                # prev_config (None sentinel)
                prior = None if s == window.t0 else matrix.slot_state(s - 1)
                relax += 1
                nxt[k] = (local + ev.transition(s, prior, state), (k,))
            else:
                cur = None
                for kp, (pcost, ppath) in best.items():
                    relax += 1
                    cand = (pcost + local + ev.transition(s, joint(s - 1, kp), state),
                            ppath + (k,))
                    if cur is None or cand < cur:
                        cur = cand
                nxt[k] = cur
        best = nxt
    if t_e + 1 <= window.end:
        # frozen migrations over the next boundary still feel the load we
        # leave behind at t_e
        tail_state = matrix.slot_state(t_e + 1)
        best = {k: (c + ev.transition(t_e + 1, joint(t_e, k), tail_state), p)
                for k, (c, p) in best.items()}
    _cost, path = min(best.values())
    saturated = not math.isfinite(min(v[0] for v in best.values()))
    return path, relax, saturated


def _fast_base(model):
    """The capacity/backend model behind `model`, if that is its family."""
    if type(model) is MmcBackendCostModel:
        return model
    if type(model) is PerturbedCostModel and type(
            model.base) is MmcBackendCostModel:
        return model.base
    return None


class WindowLedger:
    """Per-window load aggregates of a placement matrix, for the fast DP.

    Ledger row i stands for window slot t0 + i - 1; row 0 is the slot just
    before the window. y[i] and r[i] equal WindowCostEvaluator.state_loads
    of that slot's joint state, and y[0] the pre-window load from
    prev_config. zout[i] / zin[i] hold, per MMC, the migration load that
    leaves / enters it in MMC-to-MMC moves over the boundary into slot i,
    summed per (k, l) pair first and then per cloud in first-seen pair
    order, as transition_loads groups them. Every user cell is looked up
    once, when the ledger is built; refresh() recomputes whole rows from
    the matrix in instance order, so the sums match a fresh aggregation
    bit for bit.
    """

    def __init__(self, matrix: ConfigurationMatrix,
                 instances: list[ServiceInstance], K: int, backend: int,
                 prev_config: dict[int, int] | None = None,
                 distance: DistanceContext | None = None):
        window = matrix.window
        self.window = window
        self.K = K
        self.backend = backend
        self.col = matrix._col
        by_id = {i.id: i for i in instances}
        cols = [by_id[iid] for iid in matrix.instance_ids]
        self.loc = np.array([i.local_demand for i in cols], dtype=float)
        self.mig = np.array([i.migration_demand for i in cols], dtype=float)
        prev_config = prev_config or {}
        self.prev = np.array([prev_config.get(iid, 0)
                              for iid in matrix.instance_ids], dtype=np.int64)
        # user cell of each (slot, instance) as a row of `hops`, rows in
        # order of first sight; row 0 is the all-zero row of an unknown cell
        shape = (window.T, len(cols))
        if distance is None:
            self.cell_row = np.zeros(shape, dtype=np.int32)
            self.hops = np.zeros((1, K + 1))
            self.pairD = np.zeros((K + 1, K + 1))
        else:
            row_of = {None: 0}
            self.cell_row = np.fromiter(
                (row_of.setdefault(distance.user_cell_of(iid, t), len(row_of))
                 for t in window.slots for iid in matrix.instance_ids),
                dtype=np.int32, count=shape[0] * shape[1]).reshape(shape)
            self.hops = np.vstack([np.zeros(K + 1)]
                                  + [distance.cell_column(c, K)
                                     for c in list(row_of)[1:]])
            self.pairD = distance.pair_table(K)
        rows = window.T + 1
        self.y = np.zeros((rows, K + 1))
        self.r = np.zeros((rows, K + 1))
        self.zout = np.zeros((rows, K + 1))
        self.zin = np.zeros((rows, K + 1))
        self.y[0] = np.bincount(self.prev, self.loc, K + 1)
        self.y[0, 0] = 0.0
        self.refresh(matrix, window.t0, window.end)

    def refresh(self, matrix: ConfigurationMatrix, lo: int, hi: int) -> None:
        """Recompute slots lo..hi and the boundaries into lo..hi+1."""
        t0, T, K1 = self.window.t0, self.window.T, self.K + 1
        a, b = lo - t0, hi - t0 + 1              # matrix rows [a, b)
        n = b - a
        q, j = np.nonzero(matrix.data[a:b])      # row-major: instance order
        k = matrix.data[a + q, j]
        bins = q * K1 + k
        self.y[a + 1:b + 1] = np.bincount(bins, self.loc[j],
                                          n * K1).reshape(n, K1)
        self.r[a + 1:b + 1] = np.bincount(
            bins, self.hops[self.cell_row[a + q, j], k], n * K1).reshape(n, K1)

        b = min(b + 1, T)                        # boundaries into rows [a, b)
        n = b - a
        to = matrix.data[a:b]
        frm = (matrix.data[a - 1:b - 1] if a > 0
               else np.vstack((self.prev, matrix.data[:b - 1])))
        moved = ((to != 0) & (frm != 0) & (frm != to)
                 & (to != self.backend) & (frm != self.backend))
        self.zout[a + 1:b + 1] = 0.0
        self.zin[a + 1:b + 1] = 0.0
        q, j = np.nonzero(moved)                 # row-major: instance order
        if not q.size:
            return
        pair = (q * K1 + frm[q, j]) * K1 + to[q, j]
        keys, first = np.unique(pair, return_index=True)
        z = np.bincount(np.searchsorted(keys, pair), self.mig[j], keys.size)
        seen = np.argsort(first, kind="stable")
        keys, z = keys[seen], z[seen]
        row = keys // (K1 * K1)
        self.zout[a + 1:b + 1] = np.bincount(
            row * K1 + keys // K1 % K1, z, n * K1).reshape(n, K1)
        self.zin[a + 1:b + 1] = np.bincount(
            row * K1 + keys % K1, z, n * K1).reshape(n, K1)


# The helpers below run inside _place_fast's np.errstate: where a load
# reaches capacity, 1/0 and inf - inf are expected and masked or kept, as
# the scalar cost functions produce them.

def _congestion(y, capacity):
    """R(y) = 1/(1 - y/Y) per cloud, inf at or over capacity; column 0 is 0."""
    out = np.where(
        y < capacity,
        1.0 / (1.0 - np.minimum(y, capacity * (1 - 1e-15)) / capacity),
        np.inf)
    out[..., 0] = 0.0
    return out


def _mmc_u(base, y, r):
    """MmcBackendCostModel.u over a (slots, K+1) load block, same operations."""
    u = np.where(y >= base.capacity, np.inf,
                 y * (1.0 / (1.0 - y / base.capacity)) + base.g * r)
    u[:, base.backend] = base.g_backend * y[:, base.backend]
    return u


def _local_delta(model, base, slots, y, r, d, a):
    """Local-cost change per slot and cloud from adding load a there.

    y, r: frozen loads of the slots; d: the instance's hops to its user.
    PerturbedCostModel offsets apply only where the cloud hosts load.
    """
    y_plus = y + a
    u_plus = _mmc_u(base, y_plus, r + d)
    u_now = _mmc_u(base, y, r)
    if model is not base:
        zero = np.zeros(base.K + 1)
        off = np.array([model.offsets.get(s, zero) for s in slots])
        u_plus = np.where(y_plus > 0, u_plus + off, u_plus)
        u_now = u_now + off
    return np.where(y > 0, u_plus - u_now, u_plus)


def _shift(diff, weight):
    """weight * diff where weight > 0, else 0 (so inf only where it matters)."""
    return np.where(weight > 0, diff * weight, 0.0)


def _place_fast(instance, t, t_e, ledger, model, base):
    """Vectorized DP, exact for the capacity/backend cost family.

    Works on cost deltas relative to the frozen columns: adding load a to
    cloud l shifts u there; a k->l hop adds its own migration cost plus,
    since w is linear in the migration load, a congestion correction for
    every frozen MMC-to-MMC migration leaving k or entering l. All frozen
    loads come from the ledger. Arrays of length K hold clouds 1..K.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return _min_path(instance, t, t_e, ledger, model, base)


def _min_path(instance, t, t_e, ledger, model, base):
    a = instance.local_demand
    b = instance.migration_demand
    K = ledger.K
    b0 = base.backend - 1                     # backend position in 1..K arrays
    window = ledger.window
    j = ledger.col[instance.id]
    i, i_e = t - window.t0 + 1, t_e - window.t0 + 1   # ledger rows of t, t_e

    # ledger rows i-1..i_e: congestion with our load added, and its change
    y = ledger.y[i - 1:i_e + 1]
    R_plus = _congestion(y + a, base.capacity)
    diff = np.where(np.isfinite(R_plus),
                    R_plus - _congestion(y, base.capacity), np.inf)[:, 1:]
    R_plus = R_plus[:, 1:]
    hD = base.h * ledger.pairD[1:, 1:]
    hop_backend = base.h_backend * b
    ld = _local_delta(model, base, range(t, t_e + 1), y[1:],
                      ledger.r[i:i_e + 1],
                      ledger.hops[ledger.cell_row[i - 1:i_e, j]], a)[:, 1:]
    zin = ledger.zin[:, 1:]
    zout = ledger.zout[:, 1:]

    nu = ld[0].copy()
    if t > 1:
        if zin[i].any():
            nu += _shift(diff[1], zin[i])
        k_prev = ledger.prev[j] if t == window.t0 else 0
        if k_prev:
            # carried instance: its load already sits in the pre-window
            # profile at k_prev, so no +a on that side
            if k_prev - 1 == b0:
                hop = np.full(K, hop_backend)
            else:
                Rp = base.R(float(y[0, k_prev]))
                hop = b * (Rp + R_plus[1]) + base.h * ledger.pairD[k_prev, 1:]
                hop[b0] = hop_backend
            hop[k_prev - 1] = 0.0
            nu += hop
    relax = K
    back: list[np.ndarray] = []
    columns = np.arange(K)
    for q in range(1, t_e - t + 1):
        # cand[k, l]: reach k by slot t+q-1, then hop k->l over the boundary
        # into slot t+q (ledger row i+q)
        cand = R_plus[q, :, None] + R_plus[q + 1, None, :]
        cand *= b
        cand += hD
        cand[b0, :] = hop_backend
        cand[:, b0] = hop_backend
        cand.flat[::K + 1] = 0.0
        if zout[i + q].any():
            cand += (_shift(diff[q], zout[i + q])[:, None]
                     + _shift(diff[q + 1], zin[i + q])[None, :])
        cand += nu[:, None]
        choice = np.argmin(cand, axis=0)
        nu = cand[choice, columns] + ld[q]
        back.append(choice)
        relax += K * K
    # leaving a congested cloud after the column ends still shifts frozen
    # migrations over the next boundary
    if t_e + 1 <= window.end and zout[i_e + 1].any():
        nu = nu + _shift(diff[-1], zout[i_e + 1])

    end = int(np.argmin(nu))
    path = [end]
    for choice in reversed(back):
        path.append(int(choice[path[-1]]))
    path.reverse()
    saturated = not math.isfinite(float(nu[end]))
    return tuple(k + 1 for k in path), relax, saturated


def place_on_arrival(instance: ServiceInstance, t: int,
                     matrix: ConfigurationMatrix,
                     instances: list[ServiceInstance],
                     model: CostModel,
                     prev_config: dict[int, int] | None = None,
                     distance: DistanceContext | None = None,
                     want_cost: bool = True, *,
                     ledger: WindowLedger | None = None) -> PlacementOutcome:
    """Fill one instance's column over [t, t_e] optimally, others frozen.

    t_e = min(t + lifetime - 1, window end). The DP state per slot is the
    instance's cloud id; transition costs are evaluated on the full joint
    state (frozen columns included), so congestion effects are exact.
    Ties resolve to the smallest cloud-id path.

    ledger, when given, must describe `matrix` (run_online keeps one per
    window); it is refreshed for the returned matrix. Without one, the
    capacity/backend path builds a throwaway ledger from the matrix.
    """
    window = matrix.window
    if not (window.t0 <= t <= window.end):
        raise ValueError("arrival slot outside window")
    instances = sorted(instances, key=lambda i: i.id)
    if instance.id not in matrix._col:
        raise ValueError("matrix has no column for the arriving instance")
    t_e = int(min(t + instance.max_lifetime - 1, window.end))
    K = model.K

    base = _fast_base(model)
    ev = None
    if base is None or want_cost:
        ev = WindowCostEvaluator(window, instances, model, prev_config,
                                 distance)
    if base is not None:
        fast_ledger = ledger if ledger is not None else WindowLedger(
            matrix, instances, K, base.backend, prev_config, distance)
        path, relax, saturated = _place_fast(instance, t, t_e, fast_ledger,
                                             model, base)
    else:
        j = next(idx for idx, i in enumerate(instances)
                 if i.id == instance.id)
        path, relax, saturated = _place_generic(
            instance, t, t_e, matrix, instances, model, ev, j, K)

    out = matrix.copy()
    out.data[t - window.t0:t_e - window.t0 + 1, out._col[instance.id]] = path
    if ledger is not None:
        ledger.refresh(out, t, t_e)
    total = math.nan
    if want_cost:
        total = ev.path_cost([out.slot_state(s) for s in window.slots])
    return PlacementOutcome(matrix=out, predicted_cost=total,
                            relaxations=relax, saturated=saturated)


def handle_departure(instance_id: int, t: int,
                     matrix: ConfigurationMatrix, *,
                     ledger: WindowLedger | None = None) -> ConfigurationMatrix:
    """Zero an instance's column strictly after slot t (departure at end of t).

    ledger, when given, is refreshed for the slots that change.
    """
    out = matrix.copy()
    if instance_id not in out._col:
        import logging
        logging.getLogger(__name__).warning(
            "departure for unknown instance %d ignored", instance_id)
        return out
    q = out.window.index_of(t)
    cleared = np.flatnonzero(out.data[q + 1:, out._col[instance_id]])
    out.zero_after(instance_id, t)
    if ledger is not None and cleared.size:
        ledger.refresh(out, t + 1, t + 1 + int(cleared[-1]))
    return out


@dataclass
class OnlineRun:
    actual_by_slot: dict[int, float]
    placements: dict[int, dict[int, int]]   # slot -> {instance id -> cloud}
    migrations_by_slot: dict[int, int]
    relaxations_per_arrival: list[int]
    saturated_events: int = 0

    @property
    def total_cost(self) -> float:
        return sum(self.actual_by_slot.values())


def run_online(horizon: int, window_size: int,
               instances: list[ServiceInstance], oracle,
               distance: DistanceContext | None = None,
               lifetime_override=None) -> OnlineRun:
    """Full-horizon online control loop.

    instances carry their true arrival/departure slots; the loop only
    reveals them at those slots. Carried-over instances re-enter as
    arrivals at each window start (keeping their prior placement as the
    migration baseline). lifetime_override, when given, maps (instance, t)
    to the lifetime the planner should assume (policy D passes the true
    remaining stay; the default uses the declared lifetime's remainder).
    """
    arrivals_at: dict[int, list[ServiceInstance]] = {}
    for inst in sorted(instances, key=lambda i: i.id):
        arrivals_at.setdefault(inst.arrival_slot, []).append(inst)

    run = OnlineRun({}, {}, {}, [])
    prev_config: dict[int, int] = {}
    running: dict[int, ServiceInstance] = {}
    t0 = 1
    while t0 <= horizon:
        window = Window(t0, min(window_size, horizon - t0 + 1))
        model = oracle.predicted_model(t0, window)
        # everything that may appear in this window gets a column up front
        pending = [i for ts in range(t0, window.end + 1)
                   for i in arrivals_at.get(ts, [])]
        window_instances = sorted(list(running.values()) + pending,
                                  key=lambda i: i.id)
        matrix = ConfigurationMatrix(window, [i.id for i in window_instances])
        base = _fast_base(model)
        ledger = (None if base is None else
                  WindowLedger(matrix, window_instances, model.K,
                               base.backend, prev_config, distance))
        actual_ev = WindowCostEvaluator(window, window_instances, oracle.actual,
                                        prev_config, distance)
        prev_state = None
        for t in window.slots:
            todo = []
            if t == t0:
                todo.extend(running.values())       # carried-over re-arrivals
            todo.extend(arrivals_at.get(t, []))
            for inst in sorted(todo, key=lambda i: i.id):
                if lifetime_override is not None:
                    life = lifetime_override(inst, t)
                elif math.isfinite(inst.max_lifetime):
                    life = max(1, int(inst.planned_end) - t + 1)
                else:
                    life = math.inf
                planner_view = ServiceInstance(
                    id=inst.id, arrival_slot=t,
                    local_demand=inst.local_demand,
                    migration_demand=inst.migration_demand,
                    max_lifetime=life, user_id=inst.user_id)
                outcome = place_on_arrival(planner_view, t, matrix,
                                           window_instances, model,
                                           prev_config, distance,
                                           want_cost=False, ledger=ledger)
                matrix = outcome.matrix
                run.relaxations_per_arrival.append(outcome.relaxations)
                if outcome.saturated:
                    run.saturated_events += 1
                running[inst.id] = inst

            state = matrix.slot_state(t)
            run.actual_by_slot[t] = (actual_ev.local(t, state)
                                     + actual_ev.transition(t, prev_state, state))
            placed = {i.id: matrix.get(i.id, t) for i in window_instances
                      if matrix.get(i.id, t) != 0}
            run.placements[t] = placed
            before = prev_config if prev_state is None else run.placements.get(t - 1, {})
            run.migrations_by_slot[t] = sum(
                1 for iid, k in placed.items()
                if before.get(iid, 0) not in (0, k))
            prev_state = state

            # departures take effect at the end of the slot; a declared
            # lifetime running out departs the instance just the same
            for iid in [iid for iid, inst in running.items()
                        if inst.actual_departure_slot == t
                        or inst.planned_end == t]:
                matrix = handle_departure(iid, t, matrix, ledger=ledger)
                del running[iid]

        last = window.end
        prev_config = {iid: matrix.get(iid, last) for iid in running
                       if matrix.get(iid, last) != 0}
        t0 += window.T
    return run
