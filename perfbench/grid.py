"""Per-arrival scaling grid: place_on_arrival wall time against K, T and M.

For every K in {8, 19, 46, 92} (K - 1 hex cells plus the backend), window
length T in {5, 15, 30} and M in {1, 10, 50} frozen instances, one instance
arrives at the window start and is placed over the whole window by the
capacity/backend fast path, with distance terms on. The frozen columns
move between clouds now and then, so the frozen-migration corrections are
exercised, and never push a micro-cloud to capacity. The arriving
instance's DP does K + (T - 1) K^2 relaxations, so the table sets wall
time against K^2 T.
"""

from __future__ import annotations

import time

import numpy as np

from stats import median

GRID_K = (8, 19, 46, 92)
GRID_T = (5, 15, 30)
GRID_M = (1, 10, 50)
MIN_REPS = 3
MAX_REPS = 15
MIN_SECONDS = 0.05       # per grid point, so that short points repeat more
FROZEN_PER_CLOUD = 3     # capacity is 5: room stays for the arriving instance
MOVE_PROB = 0.2


def _frozen_setup(rng, topo, T, M):
    """Frozen placements and user cells: {(id, t): cloud}, {(id, t): cell}."""
    n_cells = topo.K - 1
    user_cell = {}
    placed = {}
    for t in range(1, T + 1):
        load = np.zeros(topo.K + 1, dtype=np.int64)
        for iid in range(1, M + 2):
            user_cell[(iid, t)] = int(rng.integers(1, n_cells + 1))
        for iid in range(1, M + 1):
            prev = placed.get((iid, t - 1))
            if prev is not None and (prev == topo.backend
                                     or load[prev] < FROZEN_PER_CLOUD) \
                    and rng.random() >= MOVE_PROB:
                cloud = prev
            else:
                room = [c for c in range(1, n_cells + 1)
                        if load[c] < FROZEN_PER_CLOUD]
                cloud = int(rng.choice(room)) if room else topo.backend
            placed[(iid, t)] = cloud
            load[cloud] += 1
    return placed, user_cell


def arrival_grid(seed: int) -> dict[str, float]:
    """Median place_on_arrival wall time per grid point, in ms, keyed
    K<K>_T<T>_M<M>."""
    from mmcplace.core import ConfigurationMatrix, ServiceInstance, Window
    from mmcplace.costs import DistanceContext, MmcBackendCostModel
    from mmcplace.online import place_on_arrival
    from mmcplace.scenario import HexTopology

    out = {}
    rng = np.random.default_rng(np.random.SeedSequence([seed, 505]))
    for K in GRID_K:
        topo = HexTopology.build(K - 1)
        model = MmcBackendCostModel(K=topo.K, capacity=5.0,
                                    backend_local_rate=3.0,
                                    backend_migration_rate=3.0,
                                    distance_local_weight=0.2,
                                    distance_migration_weight=0.2)
        for T in GRID_T:
            window = Window(1, T)
            for M in GRID_M:
                placed, user_cell = _frozen_setup(rng, topo, T, M)
                instances = [ServiceInstance(id=i, arrival_slot=1, user_id=i)
                             for i in range(1, M + 2)]
                matrix = ConfigurationMatrix(window, [i.id for i in instances])
                for (iid, t), cloud in placed.items():
                    matrix.set(iid, t, cloud)
                distance = DistanceContext(
                    user_cell_of=lambda iid, t, uc=user_cell: uc.get((iid, t)),
                    cloud_cell_distance=topo.hex_distance,
                    cloud_pair_distance=topo.hex_distance,
                    backend=topo.backend)
                arriving = instances[-1]
                times = []
                start = time.perf_counter()
                while len(times) < MAX_REPS and (
                        len(times) < MIN_REPS
                        or time.perf_counter() - start < MIN_SECONDS):
                    t0 = time.perf_counter()
                    outcome = place_on_arrival(arriving, 1, matrix, instances,
                                               model, None, distance,
                                               want_cost=False)
                    times.append((time.perf_counter() - t0) * 1e3)
                    if outcome.saturated:
                        raise RuntimeError(f"grid point K{K} T{T} M{M} "
                                           "saturated every route")
                out[f"K{K}_T{T}_M{M}"] = median(times)
    return out
