"""Cost families and aggregation from placements to local/migration costs.

Per-slot cost is C(t) = U(t) + W(t): U sums u_k(y_k) over clouds, W sums
w_kl(y_k(t-1), y_l(t), z_kl) over ordered cloud pairs with migration
traffic. Conventions baked in everywhere: u(0) = 0, w(.,.,0) = 0, and
W = 0 in the very first slot of the whole run (t = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import ConfigurationMatrix, ServiceInstance, Window


@dataclass
class SlotLoads:
    """Aggregated loads for one slot plus the transition into it.

    y[k]: local resource consumption at cloud k (index 0 unused).
    r[k]: instance-user distance sum at cloud k (0 when no topology).
    z[(k, l)]: migration resource moved k -> l at the slot boundary.
    s[(k, l)]: pair distance times number of migrated instances.
    """

    y: np.ndarray
    r: np.ndarray
    z: dict = field(default_factory=dict)
    s: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DistanceContext:
    """Topology hooks the load aggregator needs for distance-aware costs.

    user_cell_of(instance_id, t) -> cell id hosting the instance's user at
    slot t (or None when unknown); cloud_cell_distance(k, cell) -> hops
    from MMC k to a cell; cloud_pair_distance(k, l) -> hops between MMCs.
    The backend cloud never contributes distance terms.

    pair_table and cell_column are dense views of the two distance hooks,
    built from them on first use and cached on the context.
    """

    user_cell_of: Callable[[int, int], int | None]
    cloud_cell_distance: Callable[[int, int], float]
    cloud_pair_distance: Callable[[int, int], float]
    backend: int
    _views: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def pair_table(self, K: int) -> np.ndarray:
        """(K+1, K+1) MMC-pair hops; zero on the diagonal and on the
        backend's (and index 0's) rows and columns."""
        key = ("pair", K)
        table = self._views.get(key)
        if table is None:
            table = np.zeros((K + 1, K + 1))
            mmcs = [k for k in range(1, K + 1) if k != self.backend]
            for k in mmcs:
                for l in mmcs:
                    if l != k:
                        table[k, l] = self.cloud_pair_distance(k, l)
            self._views[key] = table
        return table

    def cell_column(self, cell: int, K: int) -> np.ndarray:
        """(K+1,) hops from each MMC to cell; zero at index 0 and at the
        backend."""
        key = ("cell", cell, K)
        col = self._views.get(key)
        if col is None:
            col = np.zeros(K + 1)
            for k in range(1, K + 1):
                if k != self.backend:
                    col[k] = self.cloud_cell_distance(k, cell)
            self._views[key] = col
        return col


class CostModel:
    """Abstract cost family: per-cloud local cost u and pair migration cost w."""

    K: int
    convex_nondecreasing: bool = False

    def u(self, k: int, t: int, y: float, r: float = 0.0) -> float:
        raise NotImplementedError

    def w(self, k: int, l: int, t: int, y_from: float, y_to: float,
          z: float, s: float = 0.0) -> float:
        raise NotImplementedError

    def local_total(self, t: int, loads: SlotLoads) -> float:
        total = 0.0
        for k in range(1, self.K + 1):
            if loads.y[k] > 0:
                total += self.u(k, t, float(loads.y[k]), float(loads.r[k]))
        return total

    def migration_total(self, t: int, y_prev: np.ndarray, loads: SlotLoads) -> float:
        if t <= 1:
            return 0.0
        total = 0.0
        for (k, l), zv in loads.z.items():
            if zv > 0:
                total += self.w(k, l, t, float(y_prev[k]), float(loads.y[l]),
                                float(zv), float(loads.s.get((k, l), 0.0)))
        return total


class LinearCostModel(CostModel):
    """u = gamma_k * y; w = kappa1_kl*y_from + kappa2_kl*y_to + kappa3_kl*z."""

    convex_nondecreasing = True

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
        if np.any(gamma[1:] <= 0) or np.any(self.kappa3 <= 0):
            raise ValueError("gamma and kappa3 must be positive")
        if np.any(self.kappa1 < 0) or np.any(self.kappa2 < 0):
            raise ValueError("kappa1/kappa2 must be nonnegative")

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

    def inv_marginal(self, k, t, mu, cap):
        """Largest load with marginal cost <= mu (flat slope: all or nothing)."""
        return cap if mu >= self.gamma[k] else 0.0


class PolynomialCostModel(CostModel):
    """Polynomial costs: u_k(y) = sum_rho c[k][rho] y^rho (rho >= 1);
    w(y_from, y_to, z) = sum c * y_from^p1 * y_to^p2 * z^p3 with p3 >= 1
    so that zero migration traffic always costs zero.

    order() is the largest total degree with a positive coefficient.
    """

    def __init__(self, ucoeffs, wterms, require_assumption1=True):
        ucoeffs = np.asarray(ucoeffs, dtype=float)
        if ucoeffs.ndim != 2:
            raise ValueError("ucoeffs must be (K+1, max_order+1)")
        self.K = ucoeffs.shape[0] - 1
        if np.any(ucoeffs < 0):
            raise ValueError("polynomial coefficients must be nonnegative")
        if ucoeffs.shape[1] > 0 and np.any(ucoeffs[:, 0] != 0):
            raise ValueError("constant term would violate u(0)=0")
        self.ucoeffs = ucoeffs
        self.wterms = [(int(p1), int(p2), int(p3), float(c)) for p1, p2, p3, c in wterms]
        for p1, p2, p3, c in self.wterms:
            if c < 0:
                raise ValueError("polynomial coefficients must be nonnegative")
            if p3 < 1:
                raise ValueError("migration terms need z degree >= 1 (w(.,.,0)=0)")
        if require_assumption1:
            if ucoeffs.shape[1] < 2 or np.any(ucoeffs[1:, 1] <= 0):
                raise ValueError("need positive linear y term in every u_k")
            if not any(p1 == 0 and p2 == 0 and p3 == 1 and c > 0
                       for p1, p2, p3, c in self.wterms):
                raise ValueError("need a positive pure-z linear migration term")
        self.convex_nondecreasing = True

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

    def u(self, k, t, y, r=0.0):
        return float(np.polyval(self.ucoeffs[k][::-1], y))

    def w(self, k, l, t, y_from, y_to, z, s=0.0):
        if z <= 0:
            return 0.0
        return sum(c * y_from ** p1 * y_to ** p2 * z ** p3
                   for p1, p2, p3, c in self.wterms)

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

    convex_nondecreasing = True

    def __init__(self, K, capacity, backend_local_rate, backend_migration_rate,
                 distance_local_weight=0.0, distance_migration_weight=0.0,
                 backend=None):
        self.K = K
        self.capacity = float(capacity)
        self.backend = K if backend is None else backend
        self.g_backend = float(backend_local_rate)
        self.h_backend = float(backend_migration_rate)
        self.g = float(distance_local_weight)
        self.h = float(distance_migration_weight)

    def R(self, y: float) -> float:
        if y >= self.capacity:
            return math.inf
        return 1.0 / (1.0 - y / self.capacity)

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

    def du(self, k, t, y):
        """Marginal local cost, distance terms aside: d/dy[y*R(y)] = R(y)^2."""
        if k == self.backend:
            return self.g_backend
        r = self.R(y)
        return r * r if math.isfinite(r) else math.inf

    def inv_marginal(self, k, t, mu, cap):
        """Largest load with marginal <= mu (used by the fractional bound)."""
        if k == self.backend:
            return cap if mu >= self.g_backend else 0.0
        if mu < 1.0:
            return 0.0
        return min(cap, self.capacity * (1.0 - 1.0 / math.sqrt(mu)))


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
        self.convex_nondecreasing = False
        self.offsets = offsets

    def u(self, k, t, y, r=0.0):
        v = self.base.u(k, t, y, r)
        off = self.offsets.get(t)
        if off is not None and y > 0:
            v += off[k]
        return v

    def w(self, k, l, t, y_from, y_to, z, s=0.0):
        return self.base.w(k, l, t, y_from, y_to, z, s)


class WindowCostEvaluator:
    """Evaluates predicted/actual window costs from joint placement states.

    A state is a tuple of cloud ids aligned with the instance list. The
    evaluator owns the transition bookkeeping: migration loads between
    consecutive slots and, at the window's first slot, from the externally
    supplied prior placement prev_config (instance id -> cloud at t0-1).
    """

    def __init__(self, window: Window, instances: list[ServiceInstance],
                 model: CostModel, prev_config: dict[int, int] | None = None,
                 distance: DistanceContext | None = None):
        self.window = window
        self.instances = list(instances)
        self.model = model
        self.prev_config = dict(prev_config or {})
        self.distance = distance
        K = model.K
        # loads in the slot just before the window, from prev_config
        y0 = np.zeros(K + 1)
        for inst in self.instances:
            k = self.prev_config.get(inst.id, 0)
            if k:
                y0[k] += inst.local_demand
        self._y_before = y0

    def state_loads(self, t: int, state: tuple[int, ...]) -> SlotLoads:
        K = self.model.K
        y = np.zeros(K + 1)
        r = np.zeros(K + 1)
        for inst, k in zip(self.instances, state):
            if k == 0:
                continue
            y[k] += inst.local_demand
            if self.distance is not None and k != self.distance.backend:
                cell = self.distance.user_cell_of(inst.id, t)
                if cell is not None:
                    r[k] += self.distance.cloud_cell_distance(k, cell)
        return SlotLoads(y=y, r=r)

    def transition_loads(self, t: int, prev_state: tuple[int, ...] | None,
                         loads: SlotLoads, state: tuple[int, ...]) -> None:
        """Fill loads.z / loads.s for the boundary into slot t.

        prev_state of None means "use prev_config" (t is the window start).
        """
        z: dict = {}
        count: dict = {}
        for j, inst in enumerate(self.instances):
            l = state[j]
            if l == 0:
                continue
            if prev_state is None:
                k = self.prev_config.get(inst.id, 0)
            else:
                k = prev_state[j]
            if k == 0 or k == l:
                continue
            z[(k, l)] = z.get((k, l), 0.0) + inst.migration_demand
            count[(k, l)] = count.get((k, l), 0) + 1
        loads.z = z
        if self.distance is not None:
            d = self.distance
            loads.s = {(k, l): d.cloud_pair_distance(k, l) * n
                       for (k, l), n in count.items()
                       if k != d.backend and l != d.backend}
        else:
            loads.s = {}

    def local(self, t: int, state: tuple[int, ...]) -> float:
        return self.model.local_total(t, self.state_loads(t, state))

    def transition(self, t: int, prev_state: tuple[int, ...] | None,
                   state: tuple[int, ...]) -> float:
        """Migration cost W(t) between the states at t-1 and t."""
        if t <= 1:
            return 0.0
        loads = self.state_loads(t, state)
        self.transition_loads(t, prev_state, loads, state)
        if prev_state is None:
            y_prev = self._y_before
        else:
            y_prev = self.state_loads(t - 1, prev_state).y
        return self.model.migration_total(t, y_prev, loads)

    def path_cost(self, states: list[tuple[int, ...]]) -> float:
        """Window cost of a full per-slot state path (length T)."""
        if len(states) != self.window.T:
            raise ValueError("need one joint state per window slot")
        total = 0.0
        prev: tuple[int, ...] | None = None
        for q, t in enumerate(self.window.slots):
            total += self.local(t, states[q])
            total += self.transition(t, prev, states[q])
            prev = states[q]
        return total


def aggregate_loads(matrix: ConfigurationMatrix, instances: list[ServiceInstance],
                    model: CostModel, prev_config: dict[int, int] | None = None,
                    distance: DistanceContext | None = None) -> list[SlotLoads]:
    """Per-slot loads (with transitions filled in) for a whole matrix."""
    ev = WindowCostEvaluator(matrix.window, instances, model, prev_config, distance)
    out = []
    prev_state: tuple[int, ...] | None = None
    for t in matrix.window.slots:
        state = matrix.slot_state(t)
        loads = ev.state_loads(t, state)
        ev.transition_loads(t, prev_state, loads, state)
        out.append(loads)
        prev_state = state
    return out


def local_cost(model: CostModel, t: int, loads: SlotLoads) -> float:
    """U(t): sum of per-cloud local costs at slot t."""
    return model.local_total(t, loads)


def migration_cost(model: CostModel, t: int, y_prev: np.ndarray,
                   loads: SlotLoads) -> float:
    """W(t): migration cost for the boundary into slot t (0 at t=1)."""
    return model.migration_total(t, y_prev, loads)


def slot_cost(model: CostModel, t: int, y_prev: np.ndarray,
              loads: SlotLoads) -> float:
    return local_cost(model, t, loads) + migration_cost(model, t, y_prev, loads)


def window_cost(model: CostModel, matrix: ConfigurationMatrix,
                instances: list[ServiceInstance],
                prev_config: dict[int, int] | None = None,
                distance: DistanceContext | None = None) -> float:
    """Total cost of a window's placement matrix."""
    ev = WindowCostEvaluator(matrix.window, instances, model, prev_config, distance)
    states = [matrix.slot_state(t) for t in matrix.window.slots]
    return ev.path_cost(states)
