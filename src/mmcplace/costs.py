"""Cost families and the one path from placements to local/migration costs.

Per-slot cost is C(t) = U(t) + W(t): U sums u_k(y_k) over clouds, W sums
w_kl(y_k(t-1), y_l(t), z_kl) over ordered cloud pairs with migration
traffic. Conventions baked in everywhere: u(0) = 0, w(.,.,0) = 0, and
W = 0 in the very first slot of the whole run (t = 1). A move of demand
0 is a migration but enters no pair's z, s or count, so it costs nothing.

placement_loads turns one concrete placement into SlotLoads; its two
halves, the slot's occupancy (y, r) and the boundary moves (z, s, moved),
are also what WindowCostEvaluator calls. charge_placements charges a whole
run from its per-slot placement maps (every policy and control loop goes
through it) in one array pass, with the same sums in the same order as
placement_loads, local_total and migration_total slot by slot;
WindowCostEvaluator prices joint states inside one window for the
solvers, each state once per solver call and each pair of states on
plain floats. online.WindowLedger keeps a vectorized mirror for the fast
DP.

Every family has scalar u and w, and array forms u_array and w_array for
the charge, by default the scalar ones applied per entry.
MmcBackendCostModel has its own: R_array and u_from_R run the operations
of R and u element for element, so they agree bit for bit, and they are
the one array copy of those formulas; the fast DP prices arrivals with
them too. The linear and capacity/backend families also have
inv_marginal_array, the inverse marginal cost that the oracle's
fractional bound water-fills with, in array form only.

The slot t0-1 before a window is an ordinary joint state for the
planners (WindowCostEvaluator.prior, ledger row 0): the control loops
give every instance placed in t0-1 a window column, so y(t0-1) counts
the whole slot t0-1 map, as charge_placements does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .core import ConfigurationMatrix, ServiceInstance, Window


@dataclass
class SlotLoads:
    """Aggregated loads for one slot plus the transition into it.

    y[k]: local resource consumption at cloud k (index 0 unused).
    r[k]: instance-user distance sum at cloud k (0 when no topology).
    z[(k, l)]: migration resource moved k -> l at the slot boundary.
    s[(k, l)]: pair distance times number of moves with positive demand.
    moved: number of instances that changed cloud, whatever their demand.
    """

    y: np.ndarray
    r: np.ndarray
    z: dict = field(default_factory=dict)
    s: dict = field(default_factory=dict)
    moved: int = 0


@dataclass(frozen=True)
class DistanceContext:
    """Topology hooks the load aggregator needs for distance-aware costs.

    user_cell_of(instance_id, t) -> cell id hosting the instance's user at
    slot t (or None when unknown); cloud_cell_distance(k, cell) -> hops
    from MMC k to a cell; cloud_pair_distance(k, l) -> hops between MMCs.
    The backend cloud never contributes distance terms.

    The backend is the last cloud (K = backend), the cells 1..backend-1.
    pair_hops and cell_hops tabulate the two hooks over those ids, each
    entry computed once, on first use of its table.
    """

    user_cell_of: Callable[[int, int], int | None]
    cloud_cell_distance: Callable[[int, int], float]
    cloud_pair_distance: Callable[[int, int], float]
    backend: int

    @cached_property
    def pair_hops(self) -> np.ndarray:
        """[k, l]: MMC-pair hops; 0 on the diagonal and at 0 and backend."""
        table = np.zeros((self.backend + 1, self.backend + 1))
        for k, l in itertools.permutations(range(1, self.backend), 2):
            table[k, l] = self.cloud_pair_distance(k, l)
        return table

    @cached_property
    def cell_hops(self) -> np.ndarray:
        """[c, k]: hops from MMC k to cell c; 0 at cell 0 and the backend."""
        table = np.zeros((self.backend + 1, self.backend + 1))
        for c, k in itertools.product(range(1, self.backend), repeat=2):
            table[c, k] = self.cloud_cell_distance(k, c)
        return table


class CostModel:
    """Abstract cost family: per-cloud local cost u and pair migration cost w."""

    K: int

    def u(self, k: int, t: int, y: float, r: float = 0.0) -> float:
        raise NotImplementedError

    def w(self, k: int, l: int, t: int, y_from: float, y_to: float,
          z: float, s: float = 0.0) -> float:
        """Migration cost of z moving from cloud k to cloud l into slot t.

        Contract: w >= 0 (and 0 at z = 0). offline.solve_window_offline
        stops scanning predecessors on it and raises ValueError when a
        priced transition is negative. z and s leave out moves of demand
        0, which cost nothing.
        """
        raise NotImplementedError

    def local_total(self, t: int, y, r) -> float:
        """U(t): u over the clouds with y > 0, in cloud order. y and r are
        per-cloud loads and distance sums at t."""
        total = 0.0
        for k in range(1, self.K + 1):
            if y[k] > 0:
                total += self.u(k, t, float(y[k]), float(r[k]))
        return total

    def migration_total(self, t: int, y_prev, y, z: dict, s: dict) -> float:
        """W(t): w over z's pairs with z > 0, in z's order. y_prev and y
        are per-cloud loads at t-1 and t, z and s per-(k, l) floats."""
        if t <= 1:
            return 0.0
        total = 0.0
        for (k, l), zv in z.items():
            if zv > 0:
                total += self.w(k, l, t, y_prev[k], y[l], zv,
                                s.get((k, l), 0.0))
        return total

    # Array forms, for charge_placements: by default the scalar u and w
    # per entry.

    def u_array(self, slots: np.ndarray, y: np.ndarray,
                r: np.ndarray) -> np.ndarray:
        """u over an (n, K+1) load block, row i at slot slots[i]: [i, k] =
        u(k, slots[i], y[i, k], r[i, k]) where y[i, k] > 0, and 0 (u(0))
        where the cloud is empty."""
        out = np.zeros(y.shape)
        for i, k in zip(*np.nonzero(y > 0)):
            out[i, k] = self.u(int(k), int(slots[i]), float(y[i, k]),
                               float(r[i, k]))
        return out

    def w_array(self, slots: np.ndarray, k: np.ndarray, l: np.ndarray,
                y_from: np.ndarray, y_to: np.ndarray, z: np.ndarray,
                s: np.ndarray) -> np.ndarray:
        """w per migration entry, all arguments 1-D and aligned: [e] =
        w(k[e], l[e], slots[e], y_from[e], y_to[e], z[e], s[e])."""
        return np.array([self.w(*args) for args in zip(
            k.tolist(), l.tolist(), slots.tolist(), y_from.tolist(),
            y_to.tolist(), z.tolist(), s.tolist())], dtype=float)


class LinearCostModel(CostModel):
    """u = gamma_k * y; w = kappa1_kl*y_from + kappa2_kl*y_to + kappa3_kl*z."""

    def __init__(self, gamma, kappa1, kappa2, kappa3):
        gamma = np.asarray(gamma, dtype=float)
        self.K = gamma.shape[0] - 1
        self.gamma = gamma

        def pairify(x):
            x = np.asarray(x, dtype=float)
            if x.ndim == 0:
                x = np.full((self.K + 1, self.K + 1), float(x))
            return x

        self.kappa1 = pairify(kappa1)
        self.kappa2 = pairify(kappa2)
        self.kappa3 = pairify(kappa3)
        # written so that NaN fails each check
        for name, ok, want in (("gamma", gamma[1:] > 0, "positive"),
                               ("kappa1", self.kappa1 >= 0, "nonnegative"),
                               ("kappa2", self.kappa2 >= 0, "nonnegative"),
                               ("kappa3", self.kappa3 > 0, "positive")):
            if not ok.all():
                raise ValueError(f"{name} must be {want}")

    def u(self, k, t, y, r=0.0):
        return self.gamma[k] * y

    def w(self, k, l, t, y_from, y_to, z, s=0.0):
        if z <= 0:
            return 0.0
        return (self.kappa1[k, l] * y_from + self.kappa2[k, l] * y_to
                + self.kappa3[k, l] * z)

    # analytic partials, used by the gap-constant computation
    def du(self, k, t, y):
        return float(self.gamma[k])

    def dw(self, k, l, t, y_from, y_to, z):
        """Partials of w wrt (y_from, y_to, z) at a point with z > 0."""
        return (float(self.kappa1[k, l]), float(self.kappa2[k, l]),
                float(self.kappa3[k, l]))

    def inv_marginal_array(self, mu, cap):
        """Largest load with marginal cost <= mu (flat slope: all or
        nothing), for the fractional bound: mu is (n,), cap (n, K) over
        clouds 1..K, and [i, k - 1] is cloud k's load at mu[i]."""
        return np.where(mu[:, None] >= self.gamma[1:], cap, 0.0)


class PolynomialCostModel(CostModel):
    """Polynomial costs: u_k(y) = sum_rho c[k][rho] y^rho (rho >= 1);
    w(y_from, y_to, z) = sum c * y_from^p1 * y_to^p2 * z^p3 with p3 >= 1
    so that zero migration traffic always costs zero.

    order() is the largest total degree with a positive coefficient.
    """

    def __init__(self, ucoeffs, wterms):
        ucoeffs = np.asarray(ucoeffs, dtype=float)
        if ucoeffs.ndim != 2:
            raise ValueError("ucoeffs must be (K+1, max_order+1)")
        self.K = ucoeffs.shape[0] - 1
        # written so that NaN fails each check
        if not (ucoeffs >= 0).all():
            raise ValueError("ucoeffs: coefficients must be nonnegative")
        if ucoeffs.shape[1] > 0 and np.any(ucoeffs[:, 0] != 0):
            raise ValueError("constant term would violate u(0)=0")
        self.ucoeffs = ucoeffs
        self.wterms = [(int(p1), int(p2), int(p3), float(c)) for p1, p2, p3, c in wterms]
        for p1, p2, p3, c in self.wterms:
            if not c >= 0:
                raise ValueError("wterms: coefficients must be nonnegative")
            if p3 < 1:
                raise ValueError("migration terms need z degree >= 1 (w(.,.,0)=0)")
        if ucoeffs.shape[1] < 2 or not (ucoeffs[1:, 1] > 0).all():
            raise ValueError("need positive linear y term in every u_k")
        if not any(p1 == 0 and p2 == 0 and p3 == 1 and c > 0
                   for p1, p2, p3, c in self.wterms):
            raise ValueError("need a positive pure-z linear migration term")

    def order(self) -> int:
        o = 0
        for k in range(1, self.K + 1):
            for rho, c in enumerate(self.ucoeffs[k]):
                if c > 0:
                    o = max(o, rho)
        for p1, p2, p3, c in self.wterms:
            if c > 0:
                o = max(o, p1 + p2 + p3)
        return o

    @cached_property
    def _horner(self) -> list[list[float]]:
        """Per cloud, u's coefficients highest degree first: u runs
        np.polyval's Horner steps over them, from 0.0, on floats."""
        return [row[::-1].tolist() for row in self.ucoeffs]

    def u(self, k, t, y, r=0.0):
        out = 0.0
        for c in self._horner[k]:
            out = out * y + c
        return float(out)

    def w(self, k, l, t, y_from, y_to, z, s=0.0):
        if z <= 0:
            return 0.0
        total = 0                            # from int 0, as sum() adds
        for p1, p2, p3, c in self.wterms:
            total += c * y_from ** p1 * y_to ** p2 * z ** p3
        return total

    def du(self, k, t, y):
        c = self.ucoeffs[k]
        return float(sum(rho * c[rho] * y ** (rho - 1) for rho in range(1, len(c))))

    def dw(self, k, l, t, y_from, y_to, z):
        d1 = d2 = d3 = 0.0
        for p1, p2, p3, c in self.wterms:
            if p1 >= 1:
                d1 += c * p1 * y_from ** (p1 - 1) * y_to ** p2 * z ** p3
            if p2 >= 1:
                d2 += c * y_from ** p1 * p2 * y_to ** (p2 - 1) * z ** p3
            d3 += c * y_from ** p1 * y_to ** p2 * p3 * z ** (p3 - 1)
        return d1, d2, d3


class MmcBackendCostModel(CostModel):
    """Capacity-limited micro-clouds plus a linear backend cloud.

    Each MMC has congestion factor R(y) = 1/(1 - y/Y), infinite at or
    beyond capacity Y. Local cost at an MMC is y*R(y) + g*r; at the
    backend it is backend_local_rate * y. Migration between MMCs costs
    z*(R(y_from) + R(y_to)) + h*s; any pair touching the backend costs
    backend_migration_rate * z.
    """

    def __init__(self, K, capacity, backend_local_rate, backend_migration_rate,
                 distance_local_weight=0.0, distance_migration_weight=0.0):
        # written so that NaN fails each check
        if not capacity > 0:
            raise ValueError("capacity must be positive")
        for name, value in (("backend_local_rate", backend_local_rate),
                            ("backend_migration_rate", backend_migration_rate),
                            ("distance_local_weight", distance_local_weight),
                            ("distance_migration_weight",
                             distance_migration_weight)):
            if not value >= 0:
                raise ValueError(f"{name} must be nonnegative")
        self.K = K
        self.capacity = float(capacity)
        self.backend = K
        self.g_backend = float(backend_local_rate)
        self.h_backend = float(backend_migration_rate)
        self.g = float(distance_local_weight)
        self.h = float(distance_migration_weight)

    def R(self, y: float) -> float:
        if y >= self.capacity:
            return math.inf
        return 1.0 / (1.0 - y / self.capacity)

    # The array forms run R's and u's operations element for element, so
    # each entry equals the scalar's bit for bit. online._fast_steps and
    # charge_placements both use them.

    def R_array(self, y: np.ndarray) -> np.ndarray:
        """R over an array of loads: inf at or over capacity."""
        full = y >= self.capacity
        out = y / self.capacity
        np.subtract(1.0, out, out=out)
        np.copyto(out, 1.0, where=full)          # no division by zero
        np.divide(1.0, out, out=out)
        np.copyto(out, math.inf, where=full)
        return out

    def u_from_R(self, y: np.ndarray, r: np.ndarray,
                 R: np.ndarray) -> np.ndarray:
        """u over a load block whose last column is the backend (clouds
        0..K or 1..K), given R = R_array(y). No capacity mask: y * inf
        is inf."""
        out = y * R
        out += self.g * r
        out[..., -1] = self.g_backend * y[..., -1]
        return out

    def u_array(self, slots, y, r):
        """u over a (..., K+1) load block, every entry: u(0) is g * r."""
        return self.u_from_R(y, r, self.R_array(y))

    def u(self, k, t, y, r=0.0):
        if k == self.backend:
            return self.g_backend * y
        if y >= self.capacity:
            return math.inf
        return y * self.R(y) + self.g * r

    def w(self, k, l, t, y_from, y_to, z, s=0.0):
        if z <= 0:
            return 0.0
        if k == self.backend or l == self.backend:
            return self.h_backend * z
        if y_from >= self.capacity or y_to >= self.capacity:
            return math.inf
        return z * (self.R(y_from) + self.R(y_to)) + self.h * s

    def inv_marginal_array(self, mu, cap):
        """Largest load with marginal <= mu, as LinearCostModel's: an MMC
        takes min(cap, Y (1 - 1/sqrt(mu))) from mu = 1 on, the backend
        all of cap from mu = g_backend on."""
        wall = self.capacity * (1.0 - 1.0 / np.sqrt(np.maximum(mu, 1.0)))
        out = np.minimum(cap, wall[:, None])
        out[mu < 1.0] = 0.0
        out[:, -1] = np.where(mu >= self.g_backend, cap[:, -1], 0.0)
        return out


class PerturbedCostModel(CostModel):
    """Wraps a base model with additive per-cloud local-cost offsets.

    offsets maps absolute slot t to a (K+1,) array; the offset for cloud k
    is charged only while the cloud hosts load (so u(0) = 0 still holds).
    Migration costs pass through unchanged. This is the shape predicted
    costs take: same formulas, shifted per-slot parameters.
    """

    def __init__(self, base: CostModel, offsets: dict[int, np.ndarray]):
        self.base = base
        self.K = base.K
        self.offsets = offsets

    def u(self, k, t, y, r=0.0):
        v = self.base.u(k, t, y, r)
        off = self.offsets.get(t)
        if off is not None and y > 0:
            v += off[k]
        return v

    def w(self, k, l, t, y_from, y_to, z, s=0.0):
        return self.base.w(k, l, t, y_from, y_to, z, s)


def placement_loads(t: int, instances, clouds, K: int,
                    distance: DistanceContext | None = None,
                    before=None) -> SlotLoads:
    """Loads of slot t from a concrete placement: the one aggregation.

    instances[j] runs at cloud clouds[j] (0 = not running). y sums local
    demands per cloud and r the hops from each MMC to its instances'
    users. before[j], when given, is instance j's cloud at t-1 and fills
    z (migration demand per (k, l) pair, in order of first sight), s (pair
    hops times moves, MMC-to-MMC only) and moved (instances that changed
    cloud). Sums run in instance order.
    """
    y, r = _occupancy(t, instances, clouds, K, distance)
    loads = SlotLoads(y=y, r=r)
    if before is not None:
        loads.z, loads.s, loads.moved = _moves(instances, clouds, before,
                                               distance)
    return loads


def _occupancy(t, instances, clouds, K, distance):
    """The y and r half of placement_loads."""
    y = np.zeros(K + 1)
    r = np.zeros(K + 1)
    for inst, k in zip(instances, clouds):
        if k == 0:
            continue
        y[k] += inst.local_demand
        if distance is not None and k != distance.backend:
            cell = distance.user_cell_of(inst.id, t) or 0
            r[k] += distance.cell_hops[cell, k]
    return y, r


def _moves(instances, clouds, before, distance):
    """The boundary half of placement_loads: (z, s, moved). A move of
    demand 0 counts in moved only."""
    z: dict = {}
    count: dict = {}
    moved = 0
    for inst, l, k in zip(instances, clouds, before):
        if l == 0 or k == 0 or k == l:
            continue
        moved += 1
        demand = inst.migration_demand
        if demand > 0:
            key = (k, l)
            z[key] = z.get(key, 0.0) + demand
            count[key] = count.get(key, 0) + 1
    return z, _pair_hops(count, distance), moved


def _add_move(z, count, key, demand):
    """One move of `demand` over pair `key`, as _moves adds it."""
    z[key] = z.get(key, 0.0) + demand
    count[key] = count.get(key, 0) + 1


def _pair_hops(count, distance):
    """_moves' s: pair hops times moves per MMC-to-MMC pair, in count's
    order; empty without a topology."""
    if distance is None:
        return {}
    pair = distance.pair_hops
    return {(k, l): float(pair[k, l]) * n for (k, l), n in count.items()
            if k != distance.backend and l != distance.backend}


def charge_placements(model: CostModel,
                      placements: dict[int, dict[int, int]],
                      instances: list[ServiceInstance],
                      distance: DistanceContext | None = None):
    """Actual cost and migration count of every slot of a run.

    placements maps slot -> {instance id: cloud} for the running instances.
    C(t) = U(t) + W(t) is charged from each slot's map, with the whole map
    of slot t-1 (empty when absent) as y(t-1) and the migration baseline.
    Returns (cost by slot, migrations by slot).

    The run is charged in one array pass over its (slot, instance, cloud,
    cloud at t-1) entries, each slot in its map's order, with the same
    sums as placement_loads, local_total and migration_total slot by slot:
    y and r per (slot, cloud) are bincounts in entry order; U sums u over
    the loaded clouds in cloud order; z and the move count per (slot, k, l)
    pair are bincounts in entry order, and W sums w over the pairs in
    first-seen order. U is a cumsum along each slot's row and W a bincount
    over the slot's pairs; both add in order from 0.0, as the scalar loops
    do.
    """
    slots = sorted(placements)
    n, K1 = len(slots), model.K + 1
    ids, to, frm = [], [], []
    for t in slots:
        placed, before = placements[t], placements.get(t - 1, {})
        ids.extend(placed)
        to.extend(placed.values())
        frm.extend(map(before.get, placed, itertools.repeat(0)))
    ids, to, frm = (np.array(v, dtype=np.int64) for v in (ids, to, frm))
    row = np.repeat(np.arange(n), [len(placements[t]) for t in slots])
    slot = np.array(slots, dtype=np.int64)
    loc, mig = _demands(instances, ids)

    # U: y and r per (slot, cloud), u summed over the loaded clouds
    bins = row * K1 + to
    y = np.bincount(bins, loc, n * K1).reshape(n, K1)
    r = np.zeros((n, K1))
    if distance is not None:
        mmc = (to != 0) & (to != distance.backend)
        cells = [distance.user_cell_of(iid, t) or 0 for iid, t in
                 zip(ids[mmc].tolist(), slot[row[mmc]].tolist())]
        r = np.bincount(bins[mmc], distance.cell_hops[cells, to[mmc]],
                        n * K1).reshape(n, K1)
    y[:, 0] = r[:, 0] = 0.0                    # cloud 0: not running
    local = np.where(y > 0, model.u_array(slot, y, r), 0.0)
    local = np.cumsum(local, axis=1)[:, -1]

    # W: z and the move count per (slot, k, l) pair, over positive demands
    moving = (to != 0) & (frm != 0) & (frm != to)
    moved = np.bincount(row[moving], minlength=n)
    moving &= mig > 0
    pair = (row[moving] * K1 + frm[moving]) * K1 + to[moving]
    keys, first, of = np.unique(pair, return_index=True, return_inverse=True)
    z = np.bincount(of, mig[moving], keys.size)
    count = np.bincount(of, minlength=keys.size)
    seen = np.argsort(first, kind="stable")
    keys, z, count = keys[seen], z[seen], count[seen]
    q, k, l = keys // (K1 * K1), keys // K1 % K1, keys % K1
    s = (np.zeros(keys.size) if distance is None  # pair_hops: 0 at the backend
         else distance.pair_hops[k, l] * count)
    # y(t-1) is the y of the run's slot t-1, zero when it has none
    y_prev = np.zeros((n, K1))
    follows = np.flatnonzero(slot[1:] - 1 == slot[:-1]) + 1
    y_prev[follows] = y[follows - 1]
    w = model.w_array(slot[q], k, l, y_prev[q, k], y[q, l], z, s)
    migration = np.bincount(q, w, n)         # each slot's pairs, in order
    migration[slot <= 1] = 0.0
    cost = local + migration
    return (dict(zip(slots, cost.tolist())),
            dict(zip(slots, moved.tolist())))


def _demands(instances, ids: np.ndarray):
    """(local, migration) demand arrays of the instances with these ids."""
    by_id = {inst.id: inst for inst in instances}
    known = np.array(sorted(by_id), dtype=np.int64)
    at = np.searchsorted(known, ids)
    if ids.size and (at.max() == known.size or (known[at] != ids).any()):
        raise KeyError("placements hold an instance not in `instances`")
    table = np.array([(by_id[i].local_demand, by_id[i].migration_demand)
                      for i in known.tolist()], dtype=float).reshape(-1, 2)
    return table[at, 0], table[at, 1]


class WindowCostEvaluator:
    """Evaluates predicted/actual window costs from joint placement states.

    A state is a tuple of cloud ids aligned with the instance list. prior
    is the joint state at t0-1: each instance's cloud in the externally
    supplied prev_config (instance id -> cloud at t0-1; 0 when absent). It
    is priced like every other state, so the window-start migration is
    transition(t0, prior, state) and y(t0-1) is state_loads(t0-1, prior).y.
    Loads come from placement_loads' two halves.

    Each joint state is priced once: a private table maps (t, state) to
    its y and r, as tuples of floats, and its local cost, filled on first
    use and kept for the life of the evaluator, which is one solver call;
    state_loads builds fresh arrays from them. transition reads both
    ends' y from the table, aggregates only the boundary (z, s) with
    _moves and prices it with one migration_total call, so a state's
    loads are not recounted per neighbour and no array or SlotLoads is
    made per pair. Nothing is kept per (t, prev, state) pair: a DP prices
    each pair at most once, and a layer of n states has n^2 of them.

    The online DP's states differ in one column j only: price_column
    fills the table for a slot's states from one walk over the other
    columns' loads, and transitions prices a boundary's pairs from one
    listing of the other columns' moves. Both add j's term at its turn
    in instance order, so every sum adds the same terms in the same
    order as _occupancy, _moves and migration_total do per state and
    pair, and both equal local and transition bit for bit.
    """

    def __init__(self, window: Window, instances: list[ServiceInstance],
                 model: CostModel, prev_config: dict[int, int] | None = None,
                 distance: DistanceContext | None = None):
        self.window = window
        self.instances = list(instances)
        self.model = model
        self.distance = distance
        prev_config = prev_config or {}
        self.prior = tuple(prev_config.get(inst.id, 0)
                           for inst in self.instances)
        self._priced: dict = {}

    def _price(self, t: int, state: tuple[int, ...]):
        """(y, r, local cost) of a joint state at slot t, from the table."""
        entry = self._priced.get((t, state))
        if entry is None:
            y, r = _occupancy(t, self.instances, state, self.model.K,
                              self.distance)
            y, r = tuple(y.tolist()), tuple(r.tolist())
            entry = (y, r, self.model.local_total(t, y, r))
            self._priced[(t, state)] = entry
        return entry

    def state_loads(self, t: int, state: tuple[int, ...]) -> SlotLoads:
        y, r, _local = self._price(t, state)
        return SlotLoads(y=np.array(y), r=np.array(r))

    def transition_loads(self, t: int, prev_state: tuple[int, ...],
                         loads: SlotLoads, state: tuple[int, ...]) -> None:
        """Fill loads.z / loads.s for the boundary into slot t from
        prev_state, the joint state at t-1 (prior at the window start)."""
        loads.z, loads.s, loads.moved = _moves(
            self.instances, state, prev_state, self.distance)

    def local(self, t: int, state: tuple[int, ...]) -> float:
        return self._price(t, state)[2]

    def transition(self, t: int, prev_state: tuple[int, ...],
                   state: tuple[int, ...]) -> float:
        """Migration cost W(t) between the states at t-1 and t."""
        if t <= 1:
            return 0.0
        y = self._price(t, state)[0]
        z, s, _moved = _moves(self.instances, state, prev_state,
                              self.distance)
        return self.model.migration_total(
            t, self._price(t - 1, prev_state)[0], y, z, s)

    def price_column(self, t: int, states: list[tuple[int, ...]],
                     j: int) -> list[float]:
        """local(t, state) of each of `states`, joint states that agree
        outside column j. Unpriced states enter the table with the y and
        r that _occupancy gives them: each cloud sums the columns before
        j, then j's load where the state puts it, then the later ones."""
        K, distance = self.model.K, self.distance

        def term(inst, k):
            # (y, r) that a column adds to cloud k; r is None where
            # _occupancy adds none
            h = None
            if distance is not None and k != distance.backend:
                cell = distance.user_cell_of(inst.id, t) or 0
                h = float(distance.cell_hops[cell, k])
            return inst.local_demand, h

        def add(yr, terms):
            y, r = yr
            for d, h in terms:
                y += d
                if h is not None:
                    r += h
            return y, r

        head = [[] for _ in range(K + 1)]       # per cloud: terms before j
        tail = [[] for _ in range(K + 1)]       # and after j
        for col, (inst, k) in enumerate(zip(self.instances, states[0])):
            if k and col != j:
                (head if col < j else tail)[k].append(term(inst, k))
        pre = [add((0.0, 0.0), head[k]) for k in range(K + 1)]
        y_rest, r_rest = zip(*(add(pre[k], tail[k]) for k in range(K + 1)))
        out = []
        for state in states:
            entry = self._priced.get((t, state))
            if entry is None:
                y, r, c = list(y_rest), list(r_rest), state[j]
                if c:
                    y[c], r[c] = add(pre[c], [term(self.instances[j], c),
                                              *tail[c]])
                y, r = tuple(y), tuple(r)
                entry = (y, r, self.model.local_total(t, y, r))
                self._priced[(t, state)] = entry
            out.append(entry[2])
        return out

    def transitions(self, t: int, prevs: list[tuple[int, ...]],
                    states: list[tuple[int, ...]],
                    j: int) -> list[list[float]]:
        """[l][k] = transition(t, prevs[k], states[l]), where prevs (at
        t-1) and states (at t) are each joint states that agree outside
        column j. The other columns' moves over the boundary are listed
        once, split at j; each pair's z sums those before j, then j's
        move, then those after j, in _moves' order, and is priced by one
        migration_total call."""
        if t <= 1:
            return [[0.0] * len(prevs) for _ in states]
        y_prev = [self._price(t - 1, p)[0] for p in prevs]
        z0, n0 = {}, {}                  # z and move count before j
        after = []                       # (pair, demand) after j
        for col, (inst, l, k) in enumerate(zip(self.instances, states[0],
                                               prevs[0])):
            if (l == 0 or k == 0 or k == l or col == j
                    or inst.migration_demand <= 0):
                continue
            if col < j:
                _add_move(z0, n0, (k, l), inst.migration_demand)
            else:
                after.append(((k, l), inst.migration_demand))
        b = self.instances[j].migration_demand
        migration_total, distance = self.model.migration_total, self.distance
        out = []
        for state in states:
            y, l = self._price(t, state)[0], state[j]
            row = []
            for prev, yp in zip(prevs, y_prev):
                z, count = dict(z0), dict(n0)
                k = prev[j]
                if b > 0 and l and k and k != l:
                    _add_move(z, count, (k, l), b)
                for key, m in after:
                    _add_move(z, count, key, m)
                row.append(migration_total(t, yp, y, z,
                                           _pair_hops(count, distance)))
            out.append(row)
        return out

    def path_cost(self, states: list[tuple[int, ...]]) -> float:
        """Window cost of a full per-slot state path (length T), from prior."""
        if len(states) != self.window.T:
            raise ValueError("need one joint state per window slot")
        total = 0.0
        prev = self.prior
        for t, state in zip(self.window.slots, states):
            total += self.local(t, state)
            total += self.transition(t, prev, state)
            prev = state
        return total


def window_cost(model: CostModel, matrix: ConfigurationMatrix,
                instances: list[ServiceInstance],
                prev_config: dict[int, int] | None = None,
                distance: DistanceContext | None = None) -> float:
    """Total cost of a window's placement matrix.

    Instances are matched to the matrix columns by id, whatever their
    order in the list.
    """
    by_id = {inst.id: inst for inst in instances}
    ev = WindowCostEvaluator(matrix.window,
                             [by_id[iid] for iid in matrix.instance_ids],
                             model, prev_config, distance)
    states = [matrix.slot_state(t) for t in matrix.window.slots]
    return ev.path_cost(states)
