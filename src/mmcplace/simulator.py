"""Policy-comparison simulator over a scenario.

Policies:
  a  place at the user's nearest cell on arrival, never migrate
  b  follow the user to the nearest cell every slot
  c  everything on the backend cloud
  d  online placement with exact future costs and departure times
  e  online placement with predicted costs and the optimized window

All policies are charged the actual (unperturbed) per-slot costs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import ScenarioConfig
from .core import ServiceInstance
from .costs import DistanceContext, MmcBackendCostModel, SlotLoads
from .online import run_online
from .oracle import fractional_lower_bound_single_slot
from .predictor import ZERO_BOUND, CostOracle, PowerLawErrorBound
from .scenario import (EventStream, HexTopology, generate_service_demand,
                       generate_synthetic, ingest_trace, read_normalized_trace,
                       synthetic_mobility)
from .window import WindowObjective, optimal_window_binary_search

POLICIES = ("a", "b", "c", "d", "e")


@dataclass
class BuiltScenario:
    config: ScenarioConfig
    topology: HexTopology
    model: MmcBackendCostModel
    events: EventStream
    distance: DistanceContext
    seed: int

    @property
    def instances(self):
        return self.events.instances


@dataclass
class PolicyResult:
    policy: str
    slot_costs: dict[int, float]
    num_active: dict[int, int]
    num_migrations: dict[int, int]
    runtime_ms: float
    window_T: int | None = None
    flags: list[str] = field(default_factory=list)

    @property
    def avg_cost(self) -> float:
        if not self.slot_costs:
            return 0.0
        return sum(self.slot_costs.values()) / len(self.slot_costs)


def build_scenario(config: ScenarioConfig, seed: int) -> BuiltScenario:
    """Topology + mobility + demand for one seeded run."""
    topology = HexTopology.build(config.n_cells, config.spacing_m,
                                 config.anchor_lat, config.anchor_lon)
    if config.mobility == "trace":
        records = read_normalized_trace(config.trace_file)
        user_cell, _skipped = ingest_trace(records, topology, config.horizon,
                                           config.slot_seconds,
                                           config.staleness_seconds)
        n_users = len({uid for uid, _s in user_cell})
    else:
        rng_mob = np.random.default_rng(
            np.random.SeedSequence(entropy=[seed, 101]))
        user_cell = synthetic_mobility(topology, config.n_users,
                                       config.horizon, rng_mob,
                                       config.move_prob)
        n_users = config.n_users
    rng_dem = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 202]))
    events = generate_service_demand(
        user_cell, n_users, config.horizon, rng_dem,
        config.mean_on_slots, config.mean_off_slots,
        config.local_demand, config.migration_demand, config.lifetime)
    model = MmcBackendCostModel(
        K=topology.K, capacity=config.capacity,
        backend_local_rate=config.backend_local_rate,
        backend_migration_rate=config.backend_migration_rate,
        distance_local_weight=config.distance_local_weight,
        distance_migration_weight=config.distance_migration_weight)
    by_id = {i.id: i for i in events.instances}
    distance = DistanceContext(
        user_cell_of=events.user_cell_of(by_id),
        cloud_cell_distance=topology.hex_distance,
        cloud_pair_distance=topology.hex_distance,
        backend=topology.backend)
    return BuiltScenario(config, topology, model, events, distance, seed)


def pick_window(config: ScenarioConfig, beta: float | None = None) -> int:
    """Policy E's window length: configured override or optimizer choice."""
    if config.window_T > 0:
        return config.window_T
    beta = config.beta if beta is None else beta
    if beta <= 0:
        return config.T_max
    obj = WindowObjective(config.gamma, config.sigma,
                          PowerLawErrorBound(beta, config.alpha))
    return optimal_window_binary_search(obj, config.T_max)


def _active_at(instances, t):
    return [i for i in instances
            if i.arrival_slot <= t
            and (i.actual_departure_slot is None or t <= i.actual_departure_slot)
            and t <= i.planned_end]


def _slot_cost_from_placements(scn: BuiltScenario, t: int,
                               placed: dict[int, int],
                               placed_prev: dict[int, int],
                               by_id: dict[int, ServiceInstance]) -> float:
    """Actual cost of one slot given concrete instance->cloud maps."""
    model = scn.model
    hops = scn.topology.hops
    K = model.K
    y = np.zeros(K + 1)
    r = np.zeros(K + 1)
    y_prev = np.zeros(K + 1)
    z: dict = {}
    s: dict = {}
    counts: dict = {}
    for iid, k in placed.items():
        inst = by_id[iid]
        y[k] += inst.local_demand
        if k != scn.topology.backend:
            cell = scn.distance.user_cell_of(iid, t)
            if cell is not None:
                r[k] += hops[k, cell]
        kp = placed_prev.get(iid, 0)
        if kp and kp != k:
            z[(kp, k)] = z.get((kp, k), 0.0) + inst.migration_demand
            counts[(kp, k)] = counts.get((kp, k), 0) + 1
    for iid, k in placed_prev.items():
        y_prev[k] += by_id[iid].local_demand
    for (kp, k), n in counts.items():
        if kp != scn.topology.backend and k != scn.topology.backend:
            s[(kp, k)] = hops[kp, k] * n
    loads = SlotLoads(y=y, r=r, z=z, s=s)
    return (model.local_total(t, loads)
            + model.migration_total(t, y_prev, loads))


def _nearest_with_capacity(scn: BuiltScenario, user_cell: int | None,
                           load: np.ndarray, demand: float,
                           flags: list[str]) -> int:
    """Closest cell to the user with room; overflow to next-nearest, then
    to the backend (flagged)."""
    topo = scn.topology
    if user_cell is None:
        flags.append("no-user-cell")
        return topo.backend
    for cid in topo.nearest[user_cell]:
        if load[cid] + demand < scn.config.capacity:
            return cid
    flags.append("overflow-to-backend")
    return topo.backend


def _run_greedy_cell_policy(scn: BuiltScenario, policy: str) -> PolicyResult:
    """Policies a (stay put) and b (always follow)."""
    config = scn.config
    by_id = {i.id: i for i in scn.instances}
    assigned: dict[int, int] = {}        # instance -> cell chosen at arrival (a)
    placed_prev: dict[int, int] = {}
    result = PolicyResult(policy, {}, {}, {}, 0.0)
    for t in range(1, config.horizon + 1):
        active = _active_at(scn.instances, t)
        load = np.zeros(scn.model.K + 1)
        placed: dict[int, int] = {}
        if policy == "a":
            fresh = []
            for inst in active:
                if inst.id in assigned:
                    placed[inst.id] = assigned[inst.id]
                    load[assigned[inst.id]] += inst.local_demand
                else:
                    fresh.append(inst)
            for inst in sorted(fresh, key=lambda i: i.id):
                cell = _nearest_with_capacity(
                    scn, scn.distance.user_cell_of(inst.id, t), load,
                    inst.local_demand, result.flags)
                assigned[inst.id] = cell
                placed[inst.id] = cell
                load[cell] += inst.local_demand
        else:
            for inst in sorted(active, key=lambda i: i.id):
                cell = _nearest_with_capacity(
                    scn, scn.distance.user_cell_of(inst.id, t), load,
                    inst.local_demand, result.flags)
                placed[inst.id] = cell
                load[cell] += inst.local_demand
        result.slot_costs[t] = _slot_cost_from_placements(scn, t, placed,
                                                          placed_prev, by_id)
        result.num_active[t] = len(placed)
        result.num_migrations[t] = sum(
            1 for iid, k in placed.items()
            if placed_prev.get(iid, 0) not in (0, k))
        placed_prev = placed
    return result


def _run_backend_policy(scn: BuiltScenario) -> PolicyResult:
    result = PolicyResult("c", {}, {}, {}, 0.0)
    by_id = {i.id: i for i in scn.instances}
    placed_prev: dict[int, int] = {}
    for t in range(1, scn.config.horizon + 1):
        placed = {i.id: scn.topology.backend
                  for i in _active_at(scn.instances, t)}
        result.slot_costs[t] = _slot_cost_from_placements(scn, t, placed,
                                                          placed_prev, by_id)
        result.num_active[t] = len(placed)
        result.num_migrations[t] = 0
        placed_prev = placed
    return result


def _run_online_policy(scn: BuiltScenario, policy: str,
                       window_T: int | None = None,
                       beta: float | None = None) -> PolicyResult:
    config = scn.config
    if policy == "d":
        oracle = CostOracle(scn.model, ZERO_BOUND, seed=scn.seed)
        T = config.horizon

        def true_remaining(inst, t):
            dep = inst.actual_departure_slot
            if dep is None:
                dep = inst.planned_end
            if not math.isfinite(dep):
                dep = config.horizon
            return max(1, int(min(dep, config.horizon)) - t + 1)

        run = run_online(config.horizon, T, scn.instances, oracle,
                         scn.distance, lifetime_override=true_remaining)
    else:
        beta = config.beta if beta is None else beta
        T = window_T if window_T else pick_window(config, beta)
        bound = (PowerLawErrorBound(beta, config.alpha) if beta > 0
                 else ZERO_BOUND)
        oracle = CostOracle(scn.model, bound, seed=scn.seed,
                            noise_shape=config.noise_shape,
                            spread=config.noise_spread)
        run = run_online(config.horizon, T, scn.instances, oracle,
                         scn.distance)
    result = PolicyResult(policy, dict(run.actual_by_slot),
                          {t: len(p) for t, p in run.placements.items()},
                          dict(run.migrations_by_slot), 0.0, window_T=T)
    if run.saturated_events:
        result.flags.append(f"saturated-placements={run.saturated_events}")
    return result


def run_policy(scn: BuiltScenario, policy: str,
               window_T: int | None = None,
               beta: float | None = None) -> PolicyResult:
    policy = policy.lower()
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    start = time.perf_counter()
    if policy in ("a", "b"):
        result = _run_greedy_cell_policy(scn, policy)
    elif policy == "c":
        result = _run_backend_policy(scn)
    else:
        result = _run_online_policy(scn, policy, window_T, beta)
    result.runtime_ms = (time.perf_counter() - start) * 1e3
    return result


def sweep_window(config: ScenarioConfig, T_values, beta_values, seeds,
                 jobs: int = 1):
    """Day-average policy-E cost per (T, beta, seed), with the optimizer's
    pick marked. Returns a list of row dicts in deterministic order
    regardless of jobs."""
    rows = []
    T_m = max(T_values)
    for beta in beta_values:
        if beta > 0:
            obj = WindowObjective(config.gamma, config.sigma,
                                  PowerLawErrorBound(beta, config.alpha))
            t_star = optimal_window_binary_search(obj, T_m)
        else:
            t_star = T_m
        for seed in seeds:
            scn = build_scenario(config, seed)
            if jobs > 1:
                from concurrent.futures import ThreadPoolExecutor
                with ThreadPoolExecutor(max_workers=jobs) as pool:
                    results = list(pool.map(
                        lambda T: run_policy(scn, "e", window_T=T, beta=beta),
                        T_values))
            else:
                results = [run_policy(scn, "e", window_T=T, beta=beta)
                           for T in T_values]
            for T, result in zip(T_values, results):
                rows.append({"T": T, "beta": beta, "seed": seed,
                             "avg_cost": result.avg_cost,
                             "is_Tstar": int(T == t_star)})
    return rows


def synthetic_ratio_experiment(n_arrivals: int = 4000, seeds=range(1, 21),
                               n_clouds: int = 5, capacity: float = 5.0,
                               backend_rate: float = 3.0,
                               sample_every: int = 10):
    """Single-slot greedy placement against the splittable lower bound.

    Returns (sample points m, mean integral cost, mean fractional cost,
    ratio curve dict m -> ratio).
    """
    model = MmcBackendCostModel(K=n_clouds, capacity=capacity,
                                backend_local_rate=backend_rate,
                                backend_migration_rate=backend_rate)
    samples = sorted({m for m in range(sample_every, n_arrivals + 1,
                                       sample_every)} | {1, n_arrivals})
    sums_int = {m: 0.0 for m in samples}
    sums_frac = {m: 0.0 for m in samples}
    for seed in seeds:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 303]))
        events = generate_synthetic(n_arrivals, rng)
        running: list[tuple[float, int]] = []    # (demand, cloud)
        y = np.zeros(n_clouds + 1)
        for m, ev in enumerate(events, start=1):
            if ev.depart_index is not None and running:
                demand, cloud = running.pop(ev.depart_index)
                y[cloud] -= demand
            d = ev.demand
            best_k, best_delta = None, math.inf
            for k in range(1, n_clouds + 1):
                delta = model.u(k, 1, float(y[k]) + d) - model.u(k, 1, float(y[k]))
                if delta < best_delta:
                    best_k, best_delta = k, delta
            running.append((d, best_k))
            y[best_k] += d
            if m in sums_int:
                total = float(sum(model.u(k, 1, float(y[k]))
                                  for k in range(1, n_clouds + 1)))
                sums_int[m] += total
                sums_frac[m] += fractional_lower_bound_single_slot(
                    float(y[1:].sum()), model)
    n = len(list(seeds))
    ratio = {m: (sums_int[m] / n) / (sums_frac[m] / n) if sums_frac[m] > 0 else 1.0
             for m in samples}
    return samples, {m: sums_int[m] / n for m in samples}, \
        {m: sums_frac[m] / n for m in samples}, ratio


def write_results_csv(path, results: list[PolicyResult]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("slot,policy,actual_cost,num_active,num_migrations\n")
        for res in results:
            for t in sorted(res.slot_costs):
                fh.write(f"{t},{res.policy},{res.slot_costs[t]:.10g},"
                         f"{res.num_active.get(t, 0)},"
                         f"{res.num_migrations.get(t, 0)}\n")


def write_summary_csv(path, results: list[PolicyResult]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("policy,avg_cost,runtime_ms\n")
        for res in results:
            fh.write(f"{res.policy},{res.avg_cost:.10g},{res.runtime_ms:.3f}\n")


def write_sweep_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("T,beta,seed,avg_cost,is_Tstar\n")
        for row in rows:
            fh.write(f"{row['T']},{row['beta']:.10g},{row['seed']},"
                     f"{row['avg_cost']:.10g},{row['is_Tstar']}\n")
