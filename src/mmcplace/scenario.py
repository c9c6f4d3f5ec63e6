"""Topology, mobility, and workload generation.

Micro-clouds sit at the centers of a hexagonal cell grid (flat-top
orientation, 1000 m spacing by default) with one extra backend cloud.
Users come either from GPS traces (normalized CSV) or from a synthetic
random walk over cells; service demand is an on/off renewal process per
user.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .core import ServiceInstance

EARTH_M_PER_DEG_LAT = 110574.0
EARTH_M_PER_DEG_LON_EQ = 111320.0


@dataclass(frozen=True)
class Cell:
    id: int          # cloud id, 1-based
    q: int           # axial coordinates
    r: int
    x: float         # meters east of anchor
    y: float         # meters north of anchor
    lat: float
    lon: float


class HexTopology:
    """Hexagonal cell grid; cloud ids 1..n_cells are cells, n_cells+1 is
    the backend."""

    def __init__(self, cells: list[Cell], spacing_m: float,
                 anchor_lat: float, anchor_lon: float):
        self.cells = cells
        self.spacing_m = spacing_m
        self.anchor_lat = anchor_lat
        self.anchor_lon = anchor_lon
        self.backend = len(cells) + 1
        self.K = len(cells) + 1
        self._axial = {c.id: (c.q, c.r) for c in cells}
        self._xy = np.array([[c.x, c.y] for c in cells])
        # circumradius: farthest in-cell point from the center
        self.cell_radius_m = spacing_m / math.sqrt(3.0)
        # hops[c1, c2] between cells, indexed by cloud id; row/column 0 and
        # the backend's stay 0
        qr = np.array([(c.q, c.r) for c in cells], dtype=np.int64).reshape(-1, 2)
        dq = qr[:, None, 0] - qr[None, :, 0]
        dr = qr[:, None, 1] - qr[None, :, 1]
        ids = np.array([c.id for c in cells], dtype=np.int64)
        self.hops = np.zeros((self.K + 1, self.K + 1), dtype=np.int64)
        self.hops[np.ix_(ids, ids)] = (np.abs(dq) + np.abs(dr)
                                       + np.abs(dq + dr)) // 2
        # per cell: adjacent cells by id, and every cell by (hops, id)
        cell_hops = self.hops[1:self.K, 1:self.K]
        order = np.argsort(cell_hops, axis=1, kind="stable") + 1
        self.nearest = dict(enumerate(order.tolist(), start=1))
        self.neighbors = {c: [] for c in self.nearest}
        for c, d in (np.argwhere(cell_hops == 1) + 1).tolist():
            self.neighbors[c].append(d)

    @classmethod
    def build(cls, n_cells: int, spacing_m: float = 1000.0,
              anchor_lat: float = 37.762, anchor_lon: float = -122.43):
        """Grid of exactly n_cells cells: the smallest centered hexagon
        holding them, trimmed in row-major axial order."""
        radius = 0
        while 3 * radius * (radius + 1) + 1 < n_cells:
            radius += 1
        coords = [(q, r) for r in range(-radius, radius + 1)
                  for q in range(-radius, radius + 1)
                  if max(abs(q), abs(r), abs(q + r)) <= radius]
        coords.sort(key=lambda c: (c[1], c[0]))
        coords = coords[:n_cells]
        size = spacing_m / math.sqrt(3.0)
        m_per_lon = EARTH_M_PER_DEG_LON_EQ * math.cos(math.radians(anchor_lat))
        cells = []
        for i, (q, r) in enumerate(coords, start=1):
            # flat-top axial to cartesian
            x = size * 1.5 * q
            y = size * math.sqrt(3.0) * (r + q / 2.0)
            cells.append(Cell(id=i, q=q, r=r, x=x, y=y,
                              lat=anchor_lat + y / EARTH_M_PER_DEG_LAT,
                              lon=anchor_lon + x / m_per_lon))
        return cls(cells, spacing_m, anchor_lat, anchor_lon)

    def hex_distance(self, c1: int, c2: int) -> int:
        """Hop count between two cells on the grid."""
        if c1 not in self._axial or c2 not in self._axial:
            raise KeyError(f"unknown cell id in ({c1}, {c2})")
        return int(self.hops[c1, c2])

    def to_xy(self, lat: float, lon: float) -> tuple[float, float]:
        m_per_lon = EARTH_M_PER_DEG_LON_EQ * math.cos(math.radians(self.anchor_lat))
        return ((lon - self.anchor_lon) * m_per_lon,
                (lat - self.anchor_lat) * EARTH_M_PER_DEG_LAT)

    def latlon_to_cell(self, lat: float, lon: float) -> int | None:
        """Nearest cell center, or None when out of coverage.

        Coverage reaches one cell circumradius (1% slack) from the
        nearest center; distance ties break to the lower cell id.
        """
        x, y = self.to_xy(lat, lon)
        d2 = ((self._xy - (x, y)) ** 2).sum(axis=1)
        i = int(np.argmin(d2))     # argmin takes the first (lowest id) on ties
        if math.sqrt(d2[i]) > self.cell_radius_m * 1.01:
            return None
        return self.cells[i].id


@dataclass
class EventStream:
    """Instances plus the per-slot user position map driving a run."""

    instances: list[ServiceInstance]
    user_cell: dict[tuple[int, int], int] = field(default_factory=dict)
    # (user_id, slot) -> cell id; missing = inactive/unknown

    def user_cell_of(self, instances_by_id):
        def lookup(instance_id: int, t: int):
            inst = instances_by_id.get(instance_id)
            if inst is None or inst.user_id is None:
                return None
            return self.user_cell.get((inst.user_id, t))
        return lookup


def ingest_trace(records, topology: HexTopology, horizon: int,
                 slot_seconds: float = 60.0, staleness: float = 600.0,
                 origin: float | None = None):
    """Slot-quantized user activity from (user_id, timestamp, lat, lon) rows.

    Slot s (1-based) is evaluated at origin + (s-1)*slot_seconds; a user
    is active there when their latest in-coverage fix is at most
    `staleness` seconds old, and sits in that fix's cell. Returns
    (user_cell map {(user, slot): cell}, skipped malformed-record count).
    """
    by_user: dict = {}
    skipped = 0
    for rec in records:
        try:
            uid, ts, lat, lon = rec
            uid = int(uid)
            ts = float(ts)
            lat = float(lat)
            lon = float(lon)
        except (TypeError, ValueError):
            skipped += 1
            continue
        by_user.setdefault(uid, []).append((ts, lat, lon))
    if origin is None:
        all_ts = [ts for fixes in by_user.values() for ts, _, _ in fixes]
        origin = min(all_ts) if all_ts else 0.0
    user_cell: dict[tuple[int, int], int] = {}
    for uid, fixes in by_user.items():
        fixes.sort(key=lambda f: f[0])
        in_cov = [(ts, topology.latlon_to_cell(lat, lon))
                  for ts, lat, lon in fixes]
        in_cov = [(ts, c) for ts, c in in_cov if c is not None]
        j = -1
        for s in range(1, horizon + 1):
            now = origin + (s - 1) * slot_seconds
            while j + 1 < len(in_cov) and in_cov[j + 1][0] <= now:
                j += 1
            if j >= 0 and now - in_cov[j][0] <= staleness:
                user_cell[(uid, s)] = in_cov[j][1]
    return user_cell, skipped


def read_normalized_trace(path):
    """Rows of a normalized trace CSV (user_id, timestamp, lat, lon)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None and header[:1] != ["user_id"]:
            yield header
        for row in reader:
            yield row


def synthetic_mobility(topology: HexTopology, n_users: int, horizon: int,
                       rng: np.random.Generator, move_prob: float = 0.3):
    """Random-walk user positions: each slot, hop to a uniformly chosen
    adjacent cell with probability move_prob, else stay."""
    neighbors = topology.neighbors
    ids = [c.id for c in topology.cells]
    user_cell: dict[tuple[int, int], int] = {}
    for uid in range(1, n_users + 1):
        cell = ids[int(rng.integers(len(ids)))]
        for s in range(1, horizon + 1):
            user_cell[(uid, s)] = cell
            if neighbors[cell] and rng.random() < move_prob:
                cell = neighbors[cell][int(rng.integers(len(neighbors[cell])))]
    return user_cell


def generate_service_demand(user_cell: dict, n_users: int, horizon: int,
                            rng: np.random.Generator,
                            mean_on: float = 50.0, mean_off: float = 10.0,
                            local_demand: float = 1.0,
                            migration_demand: float = 1.0,
                            max_lifetime: float = math.inf) -> EventStream:
    """On/off renewal service demand per user.

    While a user is active (present in user_cell) and its process is in an
    on-period, one instance runs; the instance departs when the period
    ends or the user goes inactive. Durations are exponential, rounded up
    to whole slots. Deterministic given the rng state.
    """
    instances: list[ServiceInstance] = []
    next_id = 1
    for uid in range(1, n_users + 1):
        on = rng.random() < mean_on / (mean_on + mean_off)
        remaining = max(1, math.ceil(rng.exponential(mean_on if on else mean_off)))
        current: dict | None = None
        for s in range(1, horizon + 1):
            active = (uid, s) in user_cell
            if on and active:
                if current is None:
                    current = {"arrival": s}
                current["last"] = s
            elif current is not None:
                instances.append(ServiceInstance(
                    id=next_id, arrival_slot=current["arrival"],
                    local_demand=local_demand,
                    migration_demand=migration_demand,
                    max_lifetime=max_lifetime,
                    actual_departure_slot=current["last"], user_id=uid))
                next_id += 1
                current = None
            remaining -= 1
            if remaining == 0:
                on = not on
                remaining = max(1, math.ceil(
                    rng.exponential(mean_on if on else mean_off)))
        if current is not None:
            instances.append(ServiceInstance(
                id=next_id, arrival_slot=current["arrival"],
                local_demand=local_demand, migration_demand=migration_demand,
                max_lifetime=max_lifetime,
                actual_departure_slot=current["last"], user_id=uid))
            next_id += 1
    # re-number in arrival order so ids are a monotone arrival counter
    instances.sort(key=lambda i: (i.arrival_slot, i.user_id))
    instances = [ServiceInstance(id=j, arrival_slot=i.arrival_slot,
                                 local_demand=i.local_demand,
                                 migration_demand=i.migration_demand,
                                 max_lifetime=i.max_lifetime,
                                 actual_departure_slot=i.actual_departure_slot,
                                 user_id=i.user_id)
                 for j, i in enumerate(instances, start=1)]
    return EventStream(instances=instances, user_cell=dict(user_cell))


@dataclass(frozen=True)
class SyntheticEvent:
    """One step of the single-slot arrival experiment."""

    depart_index: int | None     # index into currently running list, or None
    demand: float                # arriving instance's load


def generate_synthetic(n_arrivals: int, rng: np.random.Generator,
                       departure_prob: float = 0.1,
                       demand_low: float = 0.5,
                       demand_high: float = 1.5) -> list[SyntheticEvent]:
    """Arrival sequence for the single-slot load-balancing experiment.

    Before each arrival, with probability departure_prob one uniformly
    random running instance departs (depart_index is drawn as a fraction
    and resolved against the caller's running count at replay time).
    """
    events = []
    n_running = 0
    for _ in range(n_arrivals):
        depart = None
        if rng.random() < departure_prob and n_running > 0:
            depart = int(rng.integers(n_running))
            n_running -= 1
        demand = rng.uniform(demand_low, demand_high)
        events.append(SyntheticEvent(depart_index=depart, demand=demand))
        n_running += 1
    return events


def distance_params(config_slot: dict[int, int], prev_slot: dict[int, int],
                    user_cells: dict[int, int | None],
                    topology: HexTopology):
    """Per-slot distance sums (r, s) for a concrete placement.

    config_slot / prev_slot map instance id -> cloud id; user_cells maps
    instance id -> the cell of its user. r[k] sums instance-user hop
    counts at MMC k; s[(k, l)] is hop distance times migration count for
    MMC-to-MMC moves. The backend contributes to neither.
    """
    r = np.zeros(topology.K + 1)
    for iid, k in config_slot.items():
        if k in (0, topology.backend):
            continue
        cell = user_cells.get(iid)
        if cell is not None:
            r[k] += topology.hex_distance(k, cell)
    s: dict = {}
    for iid, l in config_slot.items():
        k = prev_slot.get(iid, 0)
        if k and l and k != l and topology.backend not in (k, l):
            s[(k, l)] = s.get((k, l), 0.0) + topology.hex_distance(k, l)
    return r, s
