"""Policy-comparison simulator over a scenario.

Policies:
  a  place at the user's nearest cell on arrival, never migrate
  b  follow the user to the nearest cell every slot
  c  everything on the backend cloud
  d  online placement with exact future costs and stays: each instance
     declares its true stay as its lifetime, so planned_end = last_slot
  e  online placement with predicted costs and the optimized window

Every policy is a solver of online.run_windows: a, b and c place one-slot
windows on the actual costs, d and e are run_online's look-ahead windows.
run_windows records each slot's placement map {instance id: cloud},
charges all five the actual (unperturbed) per-slot costs from those maps
by costs.charge_placements and returns one online.Run, on which a and b
count overflows. d and e route every arrival finitely (see
online.WindowLedger). A PolicyResult keeps its counts, num_active
included, not its maps.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .config import ScenarioConfig
from .core import ConfigurationMatrix, ServiceInstance
from .costs import DistanceContext, MmcBackendCostModel
from .online import run_online, run_windows
from .oracle import fractional_lower_bound_single_slot
from .predictor import ZERO_BOUND, CostOracle, PowerLawErrorBound
from .scenario import (HexTopology, generate_service_demand,
                       generate_synthetic, ingest_trace, read_normalized_trace,
                       synthetic_mobility)
from .window import WindowObjective, optimal_window_binary_search

log = logging.getLogger(__name__)

POLICIES = ("a", "b", "c", "d", "e")


@dataclass
class BuiltScenario:
    config: ScenarioConfig
    topology: HexTopology
    model: MmcBackendCostModel
    instances: list[ServiceInstance]
    cells: np.ndarray            # cells[user, slot], see scenario
    distance: DistanceContext
    seed: int


@dataclass
class PolicyResult:
    policy: str
    slot_costs: dict[int, float]
    num_active: dict[int, int]
    num_migrations: dict[int, int]
    runtime_ms: float
    window_T: int | None = None
    overflows: int = 0           # a/b placements that found no MMC with room

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
        cells, skipped = ingest_trace(records, topology, config.horizon,
                                      config.slot_seconds,
                                      config.staleness_seconds)
        # at most one warning per trace: malformed rows, else an empty run
        if skipped:
            log.warning("trace %s: skipped %d malformed rows",
                        config.trace_file, skipped)
        elif len(cells) == 1:                 # only the unused row 0
            log.warning("trace %s: no user is active in any of the %d slots",
                        config.trace_file, config.horizon)
    else:
        rng_mob = np.random.default_rng(
            np.random.SeedSequence(entropy=[seed, 101]))
        cells = synthetic_mobility(topology, config.n_users, config.horizon,
                                   rng_mob, config.move_prob)
    rng_dem = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 202]))
    instances = generate_service_demand(
        cells, rng_dem, config.mean_on_slots, config.mean_off_slots,
        config.local_demand, config.migration_demand, config.lifetime)
    model = MmcBackendCostModel(
        K=topology.K, capacity=config.capacity,
        backend_local_rate=config.backend_local_rate,
        backend_migration_rate=config.backend_migration_rate,
        distance_local_weight=config.distance_local_weight,
        distance_migration_weight=config.distance_migration_weight)
    # ids run 1..n: row_of[id] is the user's row, a list for fast reads
    rows = cells.tolist()
    row_of = [rows[0]] + [rows[i.user_id] for i in instances]

    def user_cell_of(instance_id: int, t: int) -> int | None:
        return row_of[instance_id][t] or None

    distance = DistanceContext(
        user_cell_of=user_cell_of,
        cloud_cell_distance=topology.hex_distance,
        cloud_pair_distance=topology.hex_distance,
        backend=topology.backend)
    return BuiltScenario(config, topology, model, instances, cells, distance,
                         seed)


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


def _cell_solver(scn: BuiltScenario, policy: str):
    """The run_windows solver of policies a (stay put), b (always follow)
    and c (backend), which run as one-slot windows on the actual costs. A
    column is present while t <= last_slot. a keeps each present column's
    slot t-1 cloud, counting those loads first; every other present
    column, in id order, goes to the backend (c), or (a, b) to the cell
    nearest its user that has room, else to the backend, an overflow
    counted on run. An active instance's user always has a cell: its stay
    ends before the first slot without one."""
    backend, nearest = scn.topology.backend, scn.topology.nearest
    capacity = scn.config.capacity
    last = {i.id: i.last_slot for i in scn.instances}

    def solve(window, model, prev_config, columns, run):
        t, load = window.t0, np.zeros(model.K + 1)
        present = [j for j, i in enumerate(columns) if last[i.id] >= t]
        row = [0] * len(columns)
        for j in present:
            if policy == "a" and columns[j].id in prev_config:
                row[j] = prev_config[columns[j].id]
                load[row[j]] += columns[j].local_demand
        for j in present:
            inst = columns[j]
            if policy == "c":
                row[j] = backend
            elif not row[j]:
                demand = inst.local_demand
                for cell in nearest[scn.distance.user_cell_of(inst.id, t)]:
                    if load[cell] + demand < capacity:
                        break
                else:
                    cell = backend
                    run.overflows += 1
                row[j] = cell
                load[cell] += demand
        matrix = ConfigurationMatrix(window, [i.id for i in columns])
        matrix.data[0] = row
        return matrix

    return solve


def run_policy(scn: BuiltScenario, policy: str,
               window_T: int | None = None,
               beta: float | None = None) -> PolicyResult:
    policy = policy.lower()
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    start = time.perf_counter()
    config, instances = scn.config, scn.instances
    T, bound = None, ZERO_BOUND
    if policy == "d":
        T = config.horizon
        instances = [replace(i, max_lifetime=i.last_slot - i.arrival_slot + 1)
                     for i in instances]
    elif policy == "e":
        beta = config.beta if beta is None else beta
        T = window_T or pick_window(config, beta)
        bound = PowerLawErrorBound(beta, config.alpha)
    oracle = CostOracle(scn.model, bound, seed=scn.seed)
    if T is None:
        run = run_windows(config.horizon, 1, instances, oracle, scn.distance,
                          _cell_solver(scn, policy))
    else:
        run = run_online(config.horizon, T, instances, oracle, scn.distance)
    return PolicyResult(
        policy, run.actual_by_slot,
        {t: len(placed) for t, placed in run.placements.items()},
        run.migrations_by_slot, (time.perf_counter() - start) * 1e3, T,
        run.overflows)


def sweep_window(config: ScenarioConfig, T_values, beta_values, seeds):
    """Day-average policy-E cost per (T, beta, seed), with the optimizer's
    pick marked. Returns a list of row dicts in deterministic order."""
    rows = []
    optimizer = replace(config, window_T=0, T_max=max(T_values))
    for beta in beta_values:
        t_star = pick_window(optimizer, beta)
        for seed in seeds:
            scn = build_scenario(config, seed)
            for T in T_values:
                result = run_policy(scn, "e", window_T=T, beta=beta)
                rows.append({"T": T, "beta": beta, "seed": seed,
                             "avg_cost": result.avg_cost,
                             "is_Tstar": int(T == t_star)})
    return rows


def synthetic_ratio_experiment(n_arrivals: int = 4000, seeds=range(1, 21),
                               n_clouds: int = 5, sample_every: int = 10):
    """Single-slot greedy placement against the splittable lower bound,
    on n_clouds clouds of capacity 5 (the last one the backend, rate 3).

    seeds may be any non-empty iterable, a one-shot one included;
    n_arrivals and sample_every must be >= 1 and n_clouds >= 2 (else
    ValueError). Each seed's sample totals are priced by one batched
    fractional-bound call. Returns (sample points m, mean integral cost,
    mean fractional cost, ratio curve dict m -> ratio).
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds: need at least one seed")
    if n_arrivals < 1 or sample_every < 1:
        raise ValueError("n_arrivals and sample_every must be >= 1")
    if n_clouds < 2:
        raise ValueError("n_clouds must be >= 2: at least one MMC and "
                         "the backend")
    model = MmcBackendCostModel(K=n_clouds, capacity=5.0,
                                backend_local_rate=3.0,
                                backend_migration_rate=3.0)
    samples = sorted({m for m in range(sample_every, n_arrivals + 1,
                                       sample_every)} | {1, n_arrivals})
    sums_int = {m: 0.0 for m in samples}
    sums_frac = {m: 0.0 for m in samples}
    for seed in seeds:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 303]))
        events = generate_synthetic(n_arrivals, rng)
        running: list[tuple[float, int]] = []    # (demand, cloud)
        y = np.zeros(n_clouds + 1)
        totals = []                              # total demand per sample
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
                totals.append(float(y[1:].sum()))
        fracs = fractional_lower_bound_single_slot(np.array(totals), model)
        for m, frac in zip(samples, fracs.tolist()):
            sums_frac[m] += frac
    n = len(seeds)
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
