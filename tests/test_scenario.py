import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcplace.scenario import (HexTopology, distance_params,
                               generate_service_demand, generate_synthetic,
                               ingest_trace, synthetic_mobility)


def bfs_hops(topology, src, dst):
    """Hop count over the explicit adjacency graph, for cross-checking."""
    frontier = {src}
    seen = {src}
    hops = 0
    while dst not in frontier:
        nxt = set()
        for c in frontier:
            for d in topology.cells:
                if d.id not in seen and topology.hex_distance(c, d.id) == 1:
                    nxt.add(d.id)
                    seen.add(d.id)
        frontier = nxt
        hops += 1
        if not frontier:
            raise AssertionError("disconnected grid")
    return hops


def test_build_sizes():
    topo = HexTopology.build(19)
    assert len(topo.cells) == 19
    assert topo.K == 20
    assert topo.backend == 20
    full = HexTopology.build(91)
    assert len(full.cells) == 91


def test_spacing_between_neighbors():
    topo = HexTopology.build(19, spacing_m=1000.0)
    pairs = [(a.id, b.id) for a in topo.cells for b in topo.cells
             if a.id < b.id and topo.hex_distance(a.id, b.id) == 1]
    assert pairs
    xy = {c.id: (c.x, c.y) for c in topo.cells}
    for a, b in pairs:
        d = math.dist(xy[a], xy[b])
        assert d == pytest.approx(1000.0, rel=1e-9)


@given(st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_hex_distance_matches_bfs(seed):
    topo = HexTopology.build(19)
    rng = np.random.default_rng(seed)
    a, b = rng.choice(np.arange(1, 20), size=2, replace=False)
    assert topo.hex_distance(int(a), int(b)) == bfs_hops(topo, int(a), int(b))


@pytest.mark.parametrize("n_cells", [7, 19, 91])
def test_topology_tables_match_per_pair_scan(n_cells):
    """The hop table, neighbour lists and (hops, id) orders equal what a
    scan over every cell pair with the axial formula gives."""
    topo = HexTopology.build(n_cells)

    def axial_hops(a, b):
        dq, dr = a.q - b.q, a.r - b.r
        return (abs(dq) + abs(dr) + abs(dq + dr)) // 2

    for a in topo.cells:
        hops = {b.id: axial_hops(a, b) for b in topo.cells}
        assert all(topo.hex_distance(a.id, b) == h for b, h in hops.items())
        assert topo.neighbors[a.id] == [b for b in sorted(hops)
                                        if hops[b] == 1]
        assert topo.nearest[a.id] == [b for _h, b in
                                      sorted((h, b) for b, h in hops.items())]
    with pytest.raises(KeyError):
        topo.hex_distance(1, topo.backend)


def test_latlon_round_trip():
    topo = HexTopology.build(19)
    for c in topo.cells:
        assert topo.latlon_to_cell(c.lat, c.lon) == c.id
        x, y = topo.to_xy(c.lat, c.lon)
        assert x == pytest.approx(c.x, abs=1e-6)
        assert y == pytest.approx(c.y, abs=1e-6)


def test_coverage_boundary():
    topo = HexTopology.build(7)
    c = topo.cells[0]
    # nudge just past the covered radius straight east
    m_per_lon = topo.to_xy(c.lat, c.lon + 1.0)[0] - c.x
    far_cells = [d for d in topo.cells
                 if math.dist((c.x, c.y), (d.x, d.y)) > 5 * topo.cell_radius_m]
    assert not far_cells  # 7-cell grid is compact; sanity only
    lone = HexTopology.build(1)
    cc = lone.cells[0]
    over = cc.lon + (lone.cell_radius_m * 1.02) / m_per_lon
    assert lone.latlon_to_cell(cc.lat, over) is None
    under = cc.lon + (lone.cell_radius_m * 1.00) / m_per_lon
    assert lone.latlon_to_cell(cc.lat, under) == 1


def test_trace_ingestion_staleness():
    topo = HexTopology.build(7)
    c = topo.cells[0]
    rows = [
        (5, 0.0, c.lat, c.lon),
        (5, 300.0, c.lat, c.lon),
        ("bad", "x", "y", "z"),
    ]
    cells, skipped = ingest_trace(rows, topo, horizon=20, slot_seconds=60.0,
                                  staleness=600.0, origin=0.0)
    assert skipped == 1
    # last fix at t=300; stale after t=900 -> slots 1..16 active
    active = sorted(s for (u, s) in cells if u == 5)
    assert active == list(range(1, 17))
    assert all(cells[(5, s)] == c.id for s in active)


def test_trace_out_of_coverage_dropped():
    topo = HexTopology.build(7)
    cells, skipped = ingest_trace([(1, 0.0, 0.0, 0.0)], topo, horizon=5,
                                  origin=0.0)
    assert skipped == 0
    assert not cells


def test_synthetic_mobility_stays_on_grid():
    topo = HexTopology.build(19)
    rng = np.random.default_rng(7)
    cells = synthetic_mobility(topo, n_users=4, horizon=50, rng=rng)
    ids = {c.id for c in topo.cells}
    assert set(cells.values()) <= ids
    for uid in range(1, 5):
        path = [cells[(uid, s)] for s in range(1, 51)]
        for a, b in zip(path, path[1:]):
            assert a == b or topo.hex_distance(a, b) == 1


def test_demand_deterministic_and_renumbered():
    topo = HexTopology.build(19)
    mob = synthetic_mobility(topo, 6, 120, np.random.default_rng(3))
    ev1 = generate_service_demand(mob, 6, 120, np.random.default_rng(11))
    ev2 = generate_service_demand(mob, 6, 120, np.random.default_rng(11))
    assert [i.id for i in ev1.instances] == [i.id for i in ev2.instances]
    assert [(i.arrival_slot, i.user_id, i.actual_departure_slot)
            for i in ev1.instances] == \
           [(i.arrival_slot, i.user_id, i.actual_departure_slot)
            for i in ev2.instances]
    arrivals = [i.arrival_slot for i in ev1.instances]
    assert arrivals == sorted(arrivals)
    assert [i.id for i in ev1.instances] == list(range(1, len(arrivals) + 1))
    for i in ev1.instances:
        assert i.actual_departure_slot >= i.arrival_slot
        # active only while the user is positioned
        assert (i.user_id, i.arrival_slot) in mob


def test_generate_synthetic_replayable():
    events = generate_synthetic(200, np.random.default_rng(5))
    assert len(events) == 200
    running = 0
    for ev in events:
        if ev.depart_index is not None:
            assert 0 <= ev.depart_index < running
            running -= 1
        assert 0.5 <= ev.demand <= 1.5
        running += 1


def test_distance_params_hand_case():
    topo = HexTopology.build(7)
    near = [d.id for d in topo.cells if topo.hex_distance(1, d.id) == 1]
    k = near[0]
    config = {10: 1, 11: k, 12: topo.backend}
    prev = {10: k, 11: k}
    users = {10: k, 11: k, 12: 1}
    r, s = distance_params(config, prev, users, topo)
    assert r[1] == 1.0          # instance 10 at cell 1, user one hop away
    assert r[k] == 0.0
    assert s == {(k, 1): 1.0}   # only the real move, backend excluded
