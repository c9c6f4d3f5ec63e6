"""Topology, mobility, and workload generation.

Micro-clouds sit at the centers of a hexagonal cell grid (flat-top
orientation, 1000 m spacing by default) with one extra backend cloud.
Users come either from GPS traces (normalized CSV) or from a synthetic
random walk over cells; service demand is an on/off renewal process per
user.

User positions are one int32 array cells[user, slot] of shape
(users + 1, horizon + 2): the cell id hosting user 1..users at slot
1..horizon, 0 where the user is inactive or unknown. Row 0 and slots 0
and horizon + 1 stay 0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

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
        if not (0 < c1 < self.backend and 0 < c2 < self.backend):
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


def parse_fix(uid, ts, lat, lon) -> tuple[int, float, float, float]:
    """One well-formed trace fix: an int user id and finite floats.
    Raises ValueError when a field does not parse, overflows or is not
    finite."""
    try:
        fix = (int(uid), float(ts), float(lat), float(lon))
    except OverflowError as exc:           # int(inf), float(10**400)
        raise ValueError(f"out-of-range field in {uid, ts, lat, lon}") from exc
    if not all(map(math.isfinite, fix[1:])):
        raise ValueError(f"non-finite field in {fix}")
    return fix


def ingest_trace(records, topology: HexTopology, horizon: int,
                 slot_seconds: float = 60.0, staleness: float = 600.0):
    """Slot-quantized user activity from (user_id, timestamp, lat, lon) rows.

    A row that parse_fix rejects is malformed. Slot s (1-based) is
    evaluated at origin + (s-1)*slot_seconds, where origin is the
    earliest well-formed fix, in coverage or not (0 when there is none);
    a user is active there when their latest in-coverage fix (the last
    row among equal times) is at most `staleness` seconds old, and sits
    in that fix's cell. Users active in at least one slot become rows
    1..N in ascending trace-id order; the others take no row. Returns
    (cells array, skipped malformed-record count).
    """
    by_user: dict = {}
    skipped = 0
    for rec in records:
        try:
            uid, *fix = parse_fix(*rec)
        except (TypeError, ValueError):
            skipped += 1
            continue
        by_user.setdefault(uid, []).append(fix)
    origin = min((f[0] for fixes in by_user.values() for f in fixes),
                 default=0.0)
    now = origin + np.arange(horizon) * slot_seconds
    rows = [np.zeros(horizon + 2)]
    for _uid, fixes in sorted(by_user.items()):
        fixes.sort(key=lambda f: f[0])
        seen = [(ts, c) for ts, lat, lon in fixes
                if (c := topology.latlon_to_cell(lat, lon)) is not None]
        if not seen:
            continue
        ts, cell = map(np.array, zip(*seen))
        j = np.searchsorted(ts, now, side="right") - 1   # latest fix per slot
        live = (j >= 0) & (now - ts[j] <= staleness)
        if live.any():
            rows.append(np.pad(np.where(live, cell[j], 0), 1))
    return np.array(rows, dtype=np.int32), skipped


class TraceIOError(OSError):
    """The trace file could not be opened or read."""


def read_normalized_trace(path):
    """Rows of a normalized trace CSV (user_id, timestamp, lat, lon), as
    lists of strings for ingest_trace to parse. A first row starting
    with "user_id" is the header and is dropped; any other first row is
    data. An OSError while opening or reading the file is raised as
    TraceIOError."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is not None and header[:1] != ["user_id"]:
                yield header
            for row in reader:
                yield row
    except OSError as exc:
        raise TraceIOError(str(exc)) from exc


def synthetic_mobility(topology: HexTopology, n_users: int, horizon: int,
                       rng: np.random.Generator,
                       move_prob: float = 0.3) -> np.ndarray:
    """Random-walk positions cells[user, slot]: each slot, hop to a
    uniformly chosen adjacent cell with probability move_prob, else stay."""
    neighbors = topology.neighbors
    ids = [c.id for c in topology.cells]
    rows = [[0] * (horizon + 2)]
    for _uid in range(n_users):
        cell = ids[int(rng.integers(len(ids)))]
        path = [0]
        for _s in range(horizon):
            path.append(cell)
            if neighbors[cell] and rng.random() < move_prob:
                cell = neighbors[cell][int(rng.integers(len(neighbors[cell])))]
        rows.append(path + [0])
    return np.array(rows, dtype=np.int32)


def generate_service_demand(cells: np.ndarray, rng: np.random.Generator,
                            mean_on: float = 50.0, mean_off: float = 10.0,
                            local_demand: float = 1.0,
                            migration_demand: float = 1.0,
                            max_lifetime: float = math.inf
                            ) -> list[ServiceInstance]:
    """On/off renewal service demand per row of cells[user, slot].

    While a user is active (a nonzero cell) and its process is in an
    on-period, one instance runs; the instance departs when the period
    ends or the user goes inactive. Durations are exponential, rounded up
    to whole slots. Instances are numbered 1.. in arrival order, and
    user_id is the user's row. Deterministic given the rng state.
    """
    horizon = cells.shape[1] - 2
    spans: list[tuple[int, int, int]] = []     # (arrival, user, last slot)
    for uid, row in enumerate(cells.tolist()[1:], start=1):
        on = rng.random() < mean_on / (mean_on + mean_off)
        remaining = max(1, math.ceil(rng.exponential(mean_on if on else mean_off)))
        arrival = None
        for s in range(1, horizon + 1):
            if on and row[s]:
                if arrival is None:
                    arrival = s
                last = s
            elif arrival is not None:
                spans.append((arrival, uid, last))
                arrival = None
            remaining -= 1
            if remaining == 0:
                on = not on
                remaining = max(1, math.ceil(
                    rng.exponential(mean_on if on else mean_off)))
        if arrival is not None:
            spans.append((arrival, uid, last))
    # ids in arrival order, so they are a monotone arrival counter
    spans.sort()
    return [ServiceInstance(id=j, arrival_slot=arrival,
                            local_demand=local_demand,
                            migration_demand=migration_demand,
                            max_lifetime=max_lifetime,
                            actual_departure_slot=last, user_id=uid)
            for j, (arrival, uid, last) in enumerate(spans, start=1)]


@dataclass(frozen=True)
class SyntheticEvent:
    """One step of the single-slot arrival experiment."""

    depart_index: int | None     # index into currently running list, or None
    demand: float                # arriving instance's load


def generate_synthetic(n_arrivals: int,
                       rng: np.random.Generator) -> list[SyntheticEvent]:
    """Arrival sequence for the single-slot load-balancing experiment.

    Before each arrival, with probability 0.1 one uniformly random
    running instance departs (depart_index indexes the caller's list of
    running instances at replay time); demands are uniform on [0.5, 1.5).
    """
    events = []
    n_running = 0
    for _ in range(n_arrivals):
        depart = None
        if rng.random() < 0.1 and n_running > 0:
            depart = int(rng.integers(n_running))
            n_running -= 1
        demand = rng.uniform(0.5, 1.5)
        events.append(SyntheticEvent(depart_index=depart, demand=demand))
        n_running += 1
    return events

