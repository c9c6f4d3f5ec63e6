import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcplace.core import ConfigurationMatrix, ServiceInstance, Window
from mmcplace.costs import (CostModel, DistanceContext, LinearCostModel,
                            MmcBackendCostModel, PerturbedCostModel,
                            WindowCostEvaluator, window_cost)
from mmcplace.online import (_min_path, handle_departure, place_on_arrival,
                             run_online)
from mmcplace.predictor import ZERO_BOUND, CostOracle, PowerLawErrorBound


def mmc(K=4, Y=5.0):
    return MmcBackendCostModel(K=K, capacity=Y, backend_local_rate=3.0,
                               backend_migration_rate=3.0)


def grid_distance(K):
    """Toy line topology: MMC k sits at coordinate k, backend is cloud K."""
    def cell_of(iid, t):
        return 1 + (iid + t) % (K - 1)
    return DistanceContext(
        user_cell_of=cell_of,
        cloud_cell_distance=lambda k, c: abs(k - c),
        cloud_pair_distance=lambda k, l: abs(k - l),
        backend=K)


def random_setup(rng, K=4, T=4, n=3, distance=False, perturb=False,
                 dist_weights=(0.0, 0.0)):
    model = MmcBackendCostModel(K=K, capacity=6.0, backend_local_rate=3.0,
                                backend_migration_rate=3.0,
                                distance_local_weight=dist_weights[0],
                                distance_migration_weight=dist_weights[1])
    if perturb:
        offs = {t: np.zeros(K + 1) for t in range(1, T + 1)}
        for t in offs:
            offs[t][1 + int(rng.integers(K - 1))] = float(rng.uniform(-0.5, 0.5))
        model = PerturbedCostModel(model, offs)
    w = Window(1, T)
    insts = []
    prev = {}
    for j in range(1, n + 1):
        arr = int(rng.integers(1, T + 1))
        insts.append(ServiceInstance(
            id=j, arrival_slot=arr,
            max_lifetime=int(rng.integers(1, T + 1)),
            local_demand=float(rng.uniform(0.3, 1.5)),
            migration_demand=float(rng.uniform(0.3, 1.5))))
        if arr == 1 and rng.random() < 0.5:
            prev[j] = 1 + int(rng.integers(K))
    m = ConfigurationMatrix(w, [i.id for i in insts])
    # freeze all but the last column with arbitrary feasible placements
    for inst in insts[:-1]:
        span = inst.active_span(w)
        if span is None:
            continue
        col = np.zeros(T, dtype=int)
        for t in range(span[0], span[1] + 1):
            col[t - 1] = 1 + int(rng.integers(K))
        m.set_column(inst.id, col)
    d = grid_distance(K) if distance else None
    return model, w, insts, prev, m, d


def enumerate_best(instance, t, matrix, instances, model, prev, distance):
    """Oracle: try every path for the one free column, frozen others."""
    w = matrix.window
    ev = WindowCostEvaluator(w, sorted(instances, key=lambda i: i.id),
                             model, prev, distance)
    t_e = int(min(t + instance.max_lifetime - 1, w.end))
    span = range(t, t_e + 1)
    best = None
    import itertools
    for path in itertools.product(range(1, model.K + 1), repeat=len(span)):
        m2 = matrix.copy()
        for q, s in enumerate(span):
            m2.set(instance.id, s, path[q])
        cost = ev.path_cost([m2.slot_state(s) for s in w.slots])
        cand = (cost, tuple(m2.slot_state(s) for s in w.slots))
        if best is None or cand < best:
            best = (cand[0], cand[1], m2)
    return best


@given(st.integers(0, 2 ** 31), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_single_column_dp_is_optimal(seed, use_distance, use_perturb):
    """Greedy placement equals exhaustive search over the free column."""
    rng = np.random.default_rng(seed)
    dw = (0.2, 0.1) if use_distance else (0.0, 0.0)
    model, w, insts, prev, m, d = random_setup(
        rng, distance=use_distance, perturb=use_perturb, dist_weights=dw)
    inst = insts[-1]
    t = inst.arrival_slot
    out = place_on_arrival(inst, t, m, insts, model, prev, d)
    cost, _states, _m2 = enumerate_best(inst, t, m, insts, model, prev, d)
    if math.isfinite(cost):
        assert window_cost(model, out.matrix, insts, prev, d) == pytest.approx(
            cost, rel=1e-9, abs=1e-9)
    else:
        assert out.saturated


def _fast_path(instance, t, t_e, ledger):
    """_min_path on the capacity/backend provider, under the errstate that
    place_on_arrival gives it."""
    from mmcplace.online import _fast_steps

    with np.errstate(divide="ignore", invalid="ignore"):
        return _min_path(*_fast_steps(instance, t, t_e, ledger))


@given(st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_fast_path_matches_generic(seed):
    """Vectorized DP and the generic per-state DP land the same cost."""
    from mmcplace.online import WindowLedger, _fast_base, _generic_steps

    rng = np.random.default_rng(seed)
    model, w, insts, prev, m, d = random_setup(
        rng, distance=bool(seed % 2), perturb=bool(seed % 3 == 0),
        dist_weights=(0.2, 0.1) if seed % 2 else (0.0, 0.0))
    inst = insts[-1]
    t = inst.arrival_slot
    insts_sorted = sorted(insts, key=lambda i: i.id)
    ev = WindowCostEvaluator(w, insts_sorted, model, prev, d)
    t_e = int(min(t + inst.max_lifetime - 1, w.end))
    assert _fast_base(model) is not None
    ledger = WindowLedger(m, insts_sorted, model, prev, d)
    fast = _fast_path(inst, t, t_e, ledger)
    gen = _min_path(*_generic_steps(inst, t, t_e, ledger))

    def path_cost(path):
        m2 = m.copy()
        for q, s in enumerate(range(t, t_e + 1)):
            m2.set(inst.id, s, path[q])
        return ev.path_cost([m2.slot_state(s) for s in w.slots])

    cf, cg = path_cost(fast[0]), path_cost(gen[0])
    if math.isfinite(cg):
        assert cf == pytest.approx(cg, rel=1e-9, abs=1e-9)
    assert fast[2] == gen[2]        # saturation flag agrees


@given(st.integers(0, 2 ** 31))
@settings(max_examples=100, deadline=None)
def test_fast_path_matches_generic_near_capacity(seed):
    """Frozen columns that hop between MMCs next to capacity, where the
    congestion corrections for frozen migrations decide the route."""
    from mmcplace.online import WindowLedger, _generic_steps

    rng = np.random.default_rng(seed)
    K, capacity = 4, 3.0
    w = Window(2, 4)              # after slot 1, so migrations are charged
    model = MmcBackendCostModel(K=K, capacity=capacity,
                                backend_local_rate=3.0,
                                backend_migration_rate=3.0,
                                distance_local_weight=0.2,
                                distance_migration_weight=0.1)
    if seed % 3 == 0:
        model = PerturbedCostModel(model, {
            t: rng.uniform(-0.5, 0.5, K + 1) * (np.arange(K + 1) > 0)
            for t in w.slots})
    frozen = [ServiceInstance(id=j, arrival_slot=1,
                              local_demand=float(rng.uniform(0.5, 1.2)),
                              migration_demand=float(rng.uniform(0.5, 2.0)))
              for j in range(1, 6)]
    life = int(rng.integers(1, 5)) if seed % 2 else math.inf
    inst = ServiceInstance(id=6, arrival_slot=int(rng.integers(2, 6)),
                           max_lifetime=life, local_demand=1.0,
                           migration_demand=float(rng.uniform(0.5, 2.0)))
    insts = frozen + [inst]
    m = ConfigurationMatrix(w, [i.id for i in insts])
    prev = {}
    for t in range(1, w.end + 1):
        # every frozen instance on an MMC with room, or on the backend
        load = np.zeros(K + 1)
        for f in frozen:
            room = [k for k in range(1, K)
                    if load[k] + f.local_demand < capacity]
            k = int(rng.choice(room)) if room else K
            load[k] += f.local_demand
            if t < w.t0:
                prev[f.id] = k
            else:
                m.set(f.id, t, k)
    d = grid_distance(K) if seed % 4 < 2 else None
    ev = WindowCostEvaluator(w, insts, model, prev, d)
    t = inst.arrival_slot
    t_e = int(min(t + life - 1, w.end))
    ledger = WindowLedger(m, insts, model, prev, d)
    fast = _fast_path(inst, t, t_e, ledger)
    gen = _min_path(*_generic_steps(inst, t, t_e, ledger))

    def path_cost(path):
        m2 = m.copy()
        for q, s in enumerate(range(t, t_e + 1)):
            m2.set(inst.id, s, path[q])
        return ev.path_cost([m2.slot_state(s) for s in w.slots])

    assert path_cost(fast[0]) == pytest.approx(path_cost(gen[0]), rel=1e-9,
                                               abs=1e-9)
    assert fast[2] is gen[2] is False


def test_fast_path_matches_generic_at_frozen_capacity():
    """A frozen MMC load already at capacity. Inside the window: three
    unit instances on clouds [2, 2, 3] over slots 1..3 fill cloud 2 in
    slots 1-2. Only in slot t0-1: three unit instances on cloud 2 (or 3)
    there move to clouds 1, 2, 3 over Window(2, 3). Every route costs
    inf; the capacity/backend model and a subclass of it (which takes the
    generic DP) both report saturation and route the arrival the same
    way, by the generic DP's tie rule."""
    class Subclass(MmcBackendCostModel):
        pass

    def place(cls, t0, clouds, prev_config):
        model = cls(K=4, capacity=3.0, backend_local_rate=3.0,
                    backend_migration_rate=3.0)
        insts = [ServiceInstance(id=j, arrival_slot=1) for j in range(1, 5)]
        m = ConfigurationMatrix(Window(t0, 3), [i.id for i in insts])
        for j in (1, 2, 3):
            for t in m.window.slots:
                m.set(j, t, clouds(j, t - t0))
        out = place_on_arrival(insts[3], t0, m, insts, model, prev_config)
        return out.matrix.data[:, 3].tolist(), out.saturated

    cases = [(1, lambda j, q: (2, 2, 3)[q], None)]
    cases += [(2, lambda j, q: j, {1: k, 2: k, 3: k}) for k in (2, 3)]
    for case in cases:
        assert (place(MmcBackendCostModel, *case) == place(Subclass, *case)
                == ([1, 1, 1], True))


def _per_step_reference(instance, t, t_e, ledger):
    """_fast_steps' inputs built one slot at a time: each boundary its own
    (K, K) matrix with its own frozen-migration correction, the carried
    entry row read off a whole matrix, loads without and with ours priced
    apart. Returns (first, local, hops, tail), hops[q - 1] for hop(q)."""
    from mmcplace.online import _shift

    a, b = instance.local_demand, instance.migration_demand
    model, base = ledger.model, ledger.base
    K, b0, window = ledger.K, base.backend - 1, ledger.window
    j = ledger.col[instance.id]
    i, i_e = t - window.t0 + 1, t_e - window.t0 + 1
    y = ledger.y[i - 1:i_e + 1]
    R_now = base.R_array(y)
    R_plus = base.R_array(y + a)
    diff = np.where(np.isfinite(R_plus), R_plus - R_now, np.inf)[:, 1:]
    R_now, R_plus = R_now[:, 1:], R_plus[:, 1:]
    hD = base.h * ledger.pairD[1:, 1:]
    hop_backend = base.h_backend * b

    y1, r1 = y[1:], ledger.r[i:i_e + 1]
    d = ledger.hops[ledger.cell_row[i - 1:i_e, j]]
    slots = np.arange(t, t_e + 1)
    u_plus = base.u_array(slots, y1 + a, r1 + d)
    u_now = base.u_array(slots, y1, r1)
    if model is not base:
        off = np.array([model.offsets.get(s, np.zeros(K + 1))
                        for s in range(t, t_e + 1)])
        u_plus = np.where(y1 + a > 0, u_plus + off, u_plus)
        u_now = u_now + off
    local = np.where(y1 > 0, u_plus - u_now, u_plus)[:, 1:]
    zin, zout = ledger.zin[:, 1:], ledger.zout[:, 1:]

    def boundary(R_from, R_to):
        cand = R_from[:, None] + R_to[None, :]
        cand *= b
        cand += hD
        cand[b0, :] = hop_backend
        cand[:, b0] = hop_backend
        cand.flat[::K + 1] = 0.0
        return cand

    hops = []
    for q in range(1, i_e - i + 1):
        cand = boundary(R_plus[q], R_plus[q + 1])
        if zout[i + q].any():
            cand += (_shift(diff[q], zout[i + q])[:, None]
                     + _shift(diff[q + 1], zin[i + q])[None, :])
        hops.append(cand)
    first = local[0].copy()
    if t > 1:
        if zin[i].any():
            first += _shift(diff[1], zin[i])
        k_prev = ledger.prev[j] if t == window.t0 else 0
        if k_prev:
            first += boundary(R_now[0], R_plus[1])[k_prev - 1]
    tail = None
    if t_e + 1 <= window.end and zout[i_e + 1].any():
        tail = _shift(diff[-1], zout[i_e + 1])
    return first, local, hops, tail


def _kernel_case(moves, perturb, k_prev, t, life, paired=False):
    """Window [2, 9] on K = 5 (backend 5), capacity 3, three frozen
    instances and instance 4 arriving at t, carried from k_prev when
    k_prev > 0. With moves, frozen MMC-to-MMC moves cross the boundaries
    into slots 4, 6 and 7; instance 3 moves to the backend at slot 6 either
    way. MMC 3 holds 2.5, so our load 1 saturates it. paired (with moves)
    moves instance 2 from MMC 3 to MMC 4 into slot 4 instead, so that
    boundary has moves out of two MMCs and into two, and its corrections
    out of MMC 3 and into MMC 4 are infinite."""
    from mmcplace.online import WindowLedger

    K = 5
    model = MmcBackendCostModel(K=K, capacity=3.0, backend_local_rate=3.0,
                                backend_migration_rate=3.0,
                                distance_local_weight=0.2,
                                distance_migration_weight=0.1)
    w = Window(2, 8)
    if perturb:
        rng = np.random.default_rng(5)
        model = PerturbedCostModel(model, {
            s: rng.uniform(-0.5, 0.5, K + 1) * (np.arange(K + 1) > 0)
            for s in w.slots})
    insts = [ServiceInstance(id=1, arrival_slot=1, local_demand=1.2,
                             migration_demand=0.7),
             ServiceInstance(id=2, arrival_slot=1, local_demand=2.5,
                             migration_demand=1.1),
             ServiceInstance(id=3, arrival_slot=1, local_demand=0.4,
                             migration_demand=0.9),
             ServiceInstance(id=4, arrival_slot=1 if k_prev else t,
                             local_demand=1.0, migration_demand=1.5,
                             max_lifetime=life)]
    m = ConfigurationMatrix(w, [1, 2, 3, 4])
    if moves:
        m.set_column(1, [1, 1, 2, 2, 2, 1, 1, 1])
        m.set_column(2, [3, 3, 4, 4, 4, 4, 4, 4] if paired
                     else [3, 3, 3, 3, 4, 4, 4, 4])
    else:
        m.set_column(1, [1] * 8)
        m.set_column(2, [3] * 8)
    m.set_column(3, [2, 2, 2, 2, 5, 5, 5, 5])
    prev = {1: 1, 2: 3, 3: 2}
    if k_prev:
        prev[4] = k_prev
    ledger = WindowLedger(m, insts, model, prev, grid_distance(K))
    t_e = int(min(t + life - 1, w.end))
    return insts[-1], t, t_e, ledger


@pytest.mark.parametrize("block_slots", [1, 3, None])
@pytest.mark.parametrize("moves", [True, False])
@pytest.mark.parametrize("perturb", [True, False])
@pytest.mark.parametrize("k_prev, t, life", [(1, 2, math.inf), (5, 2, 5),
                                             (0, 3, math.inf), (0, 4, 2)])
def test_block_built_steps_match_per_step_reference(
        block_slots, moves, perturb, k_prev, t, life, monkeypatch):
    """_fast_steps builds its boundaries in blocks and a carried entry row
    alone; every hop(q), first, local and tail equals the per-step
    reference bit for bit, for blocks of one slot, of three (spans of 8,
    7 and 2 slots, none a multiple of 3) and of the default size, carried
    from an MMC (1) or from the backend (5), with and without frozen
    MMC-to-MMC moves. _min_path takes the same route on both."""
    from mmcplace import online

    if block_slots is not None:
        monkeypatch.setattr(online, "HOP_BLOCK_BYTES", 8 * 5 * 5 * block_slots)
    args = _kernel_case(moves, perturb, k_prev, t, life)
    ledger = args[3]
    assert ledger.zout.any() == moves
    want_local = _assert_steps_match_reference(args)[1]
    assert np.isinf(want_local).any()               # MMC 3 saturates


@pytest.mark.parametrize("block_slots", [1, 3, None])
@pytest.mark.parametrize("perturb", [True, False])
@pytest.mark.parametrize("k_prev, t, life", [(1, 2, math.inf), (5, 2, 5),
                                             (0, 3, math.inf)])
def test_block_built_steps_match_reference_with_two_moves_out(
        block_slots, perturb, k_prev, t, life, monkeypatch):
    """The boundary into slot 4 has frozen moves out of MMCs 1 and 3 and
    into MMCs 2 and 4, with infinite corrections on MMCs 3 and 4: two
    corrected rows and two corrected columns in one boundary, equal to
    the per-step reference bit for bit."""
    from mmcplace import online

    if block_slots is not None:
        monkeypatch.setattr(online, "HOP_BLOCK_BYTES", 8 * 5 * 5 * block_slots)
    args = _kernel_case(True, perturb, k_prev, t, life, paired=True)
    ledger = args[3]
    out, into = ledger.zout[3, 1:5], ledger.zin[3, 1:5]  # boundary into 4
    assert (out > 0).tolist() == [True, False, True, False]
    assert (into > 0).tolist() == [False, True, False, True]
    # our load saturates MMC 3 in slot 3 and MMC 4 in slot 4
    assert ledger.y[2, 3] + 1 >= 3 and ledger.y[3, 4] + 1 >= 3
    _assert_steps_match_reference(args)


def _assert_steps_match_reference(args, fast_steps=None):
    """fast_steps(*args), online._fast_steps by default, equals
    _per_step_reference(*args): first, local and tail bit for bit, every
    hop(q) the transpose of the reference's (K_from, K_to) matrix, and
    _min_path takes the same route on both. Returns the reference's
    steps."""
    from mmcplace import online

    fast_steps = fast_steps or online._fast_steps
    t = args[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        first, local, hop, tail = fast_steps(*args)
        want_first, want_local, want_hops, want_tail = _per_step_reference(
            *args)
        assert first.tobytes() == want_first.tobytes()
        assert local.tobytes() == want_local.tobytes()
        assert len(want_hops) == args[2] - t
        for q, want in enumerate(want_hops, start=1):
            got, want = hop(q), np.ascontiguousarray(want.T)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert (tail is None) == (want_tail is None)
        if tail is not None:
            assert tail.tobytes() == want_tail.tobytes()
        fast = _min_path(*fast_steps(*args))
        ref = _min_path(want_first, want_local,
                        lambda q: want_hops[q - 1].T.copy(), want_tail)
    assert fast == ref
    return want_first, want_local, want_hops, want_tail


@pytest.mark.parametrize("policy", ["d", "e"])
def test_fullscale_run_steps_match_per_step_reference(policy, monkeypatch):
    """K = 92: every arrival of a policy d or e run on fullscale.ini (20
    slots, seed 1) has its _fast_steps checked against the per-step
    reference on the same ledger, before the placement is written."""
    from pathlib import Path

    from mmcplace import online
    from mmcplace.config import parse_config
    from mmcplace.simulator import build_scenario, run_policy

    root = Path(__file__).resolve().parent.parent
    cfg = parse_config(str(root / "configs" / "fullscale.ini"))
    cfg.horizon = 20
    scn = build_scenario(cfg, 1)
    fast_steps = online._fast_steps
    seen = {"arrivals": 0, "moved": 0}

    def checked(instance, t, t_e, ledger):
        args = (instance, t, t_e, ledger)
        _assert_steps_match_reference(args, fast_steps)
        i = t - ledger.window.t0 + 1
        seen["arrivals"] += 1
        seen["moved"] += bool(ledger.zout[i + 1:t_e - t + i + 1].any())
        return fast_steps(*args)

    monkeypatch.setattr(online, "_fast_steps", checked)
    run_policy(scn, policy)
    assert scn.model.K == 92
    # policy e's re-arrivals at window starts come on top
    assert seen["arrivals"] >= sum(i.arrival_slot <= 20
                                   for i in scn.instances) > 0
    assert seen["moved"] > 0        # hop corrections for frozen moves ran


def test_relaxation_count_formula():
    """relax = K + K^2 (L-1) for an L-slot column."""
    model = mmc(K=5)
    w = Window(1, 4)
    inst = ServiceInstance(id=1, arrival_slot=1, max_lifetime=3)
    m = ConfigurationMatrix(w, [1])
    out = place_on_arrival(inst, 1, m, [inst], model)
    assert out.relaxations == 5 + 25 * 2


def test_arrival_outside_window_rejected():
    """An arrival slot after the window, after the planned end, or
    before the instance's arrival."""
    model = mmc()
    w = Window(2, 3)
    m = ConfigurationMatrix(w, [1])
    for inst, t in [(ServiceInstance(id=1, arrival_slot=9), 9),
                    (ServiceInstance(id=1, arrival_slot=1, max_lifetime=2), 3),
                    (ServiceInstance(id=1, arrival_slot=3), 2)]:
        with pytest.raises(ValueError):
            place_on_arrival(inst, t, m, [inst], model)


def test_departure_unknown_id_warns():
    """A departure for an id without a column raises, as an arrival for
    one does, and changes nothing; a known id is cleared after t."""
    from mmcplace.online import WindowLedger

    w = Window(1, 3)
    inst = ServiceInstance(id=1, arrival_slot=1)
    m = ConfigurationMatrix(w, [1])
    m.set_column(1, [1, 1, 1])
    ledger = WindowLedger(m, [inst], mmc())
    with pytest.raises(ValueError):
        handle_departure(42, 1, m, ledger=ledger)
    assert m.column(1).tolist() == [1, 1, 1]
    assert handle_departure(1, 2, m, ledger=ledger) is m
    assert m.column(1).tolist() == [1, 1, 0]
    assert ledger.y[1:, 1].tolist() == [1.0, 1.0, 0.0]


def test_run_online_departure_frees_capacity():
    """After a departure the freed cloud is reusable next slot."""
    model = MmcBackendCostModel(K=2, capacity=1.5, backend_local_rate=50.0,
                                backend_migration_rate=0.0)
    insts = [ServiceInstance(id=1, arrival_slot=1, actual_departure_slot=1,
                             local_demand=1.0),
             ServiceInstance(id=2, arrival_slot=2, actual_departure_slot=3,
                             local_demand=1.0)]
    run = run_online(3, 3, insts, CostOracle(model, ZERO_BOUND))
    assert run.placements[1] == {1: 1}
    assert run.placements[2] == {2: 1}      # cloud 1 free again


def test_run_online_carried_rearrival_keeps_baseline():
    """A carried instance pays migration cost only if it actually moves."""
    model = mmc(K=3)
    insts = [ServiceInstance(id=1, arrival_slot=1, actual_departure_slot=4)]
    run = run_online(4, 2, insts, CostOracle(model, ZERO_BOUND))
    clouds = [run.placements[t][1] for t in range(1, 5)]
    assert len(set(clouds)) == 1            # no reason to move, so it stays
    assert sum(run.migrations_by_slot.values()) == 0


def test_run_online_lifetime_expiry_departs():
    model = mmc(K=3)
    insts = [ServiceInstance(id=1, arrival_slot=1, max_lifetime=2)]
    run = run_online(5, 5, insts, CostOracle(model, ZERO_BOUND))
    assert 1 in run.placements[2]
    assert 1 not in run.placements.get(3, {})
    assert run.actual_by_slot[4] == 0.0


def test_run_online_noise_changes_placement_not_accounting():
    """Actual per-slot costs always come from the unperturbed model."""
    model = mmc(K=3)
    insts = [ServiceInstance(id=j, arrival_slot=j, actual_departure_slot=6)
             for j in range(1, 4)]
    clean = run_online(6, 3, insts, CostOracle(model, ZERO_BOUND))
    noisy = run_online(6, 3, insts, CostOracle(
        model, PowerLawErrorBound(0.4, 1.1), seed=5))
    ev = WindowCostEvaluator(Window(1, 6), insts, model)
    for run in (clean, noisy):
        prev = ev.prior
        for t in range(1, 7):
            state = tuple(run.placements[t].get(i.id, 0) for i in insts)
            expect = ev.local(t, state) + ev.transition(t, prev, state)
            assert run.actual_by_slot[t] == pytest.approx(expect)
            prev = state


class _MarkerOracle:
    """Actual costs, and a marker tuple for each window's predicted model."""

    def __init__(self, actual):
        self.actual = actual

    def predicted_model(self, t0, window):
        return ("predicted", t0, window)


@pytest.mark.parametrize("window_size", [1, 2, 3, 4])
def test_window_loop_gives_each_window_the_offline_column_rule(window_size):
    """run_windows driven with a solve that records its arguments and puts
    every active column on a fixed cloud. Each window gets the oracle's
    model, the previous window's last slot map as prev_config and, in id
    order, the columns run_offline chose by its own rule: placed in t0-1
    or active in the window. Over the seeds, windows see carried
    instances, instances that departed at t0-1 and (windows of 2 slots or
    more) arrivals after t0."""
    from collections import Counter

    from mmcplace.online import run_windows

    K, horizon = 3, 13
    seen = Counter()
    for seed in range(30):
        rng = np.random.default_rng(seed)
        insts = []
        for j in range(1, int(rng.integers(1, 9)) + 1):
            arrival = int(rng.integers(1, horizon + 1))
            life = int(rng.integers(1, 6)) if rng.random() < 0.3 else math.inf
            departure = (min(horizon, arrival + int(rng.integers(0, 6)))
                         if rng.random() < 0.7 else None)
            insts.append(ServiceInstance(id=j, arrival_slot=arrival,
                                         max_lifetime=life,
                                         actual_departure_slot=departure))
        rng.shuffle(insts)
        calls = []

        def solve(window, model, prev_config, columns):
            matrix = ConfigurationMatrix(window, [i.id for i in columns])
            for inst in columns:
                span = inst.active_span(window)
                for t in range(span[0], span[1] + 1) if span else ():
                    matrix.set(inst.id, t, 1 + inst.id % K)
            calls.append((window, model, dict(prev_config),
                          [i.id for i in columns], matrix))
            return matrix

        placements, _actual, _moved = run_windows(
            horizon, window_size, insts, _MarkerOracle(mmc(K)), None, solve)
        t0, last_map = 1, {}
        for window, model, prev_config, ids, matrix in calls:
            assert window == Window(t0, min(window_size, horizon - t0 + 1))
            assert model == ("predicted", t0, window)
            assert prev_config == last_map
            assert ids == sorted(i.id for i in insts if i.id in prev_config
                                 or i.active_span(window) is not None)
            for i in insts:
                if i.id in prev_config:
                    seen["carried" if i.last_slot >= t0 else "departed"] += 1
                elif t0 < i.arrival_slot <= window.end:
                    seen["mid-window"] += 1
            last_map = {iid: k for iid, k in zip(ids, matrix.data[-1].tolist())
                        if k}
            t0 = window.end + 1
        assert t0 == horizon + 1
        assert placements == {
            t: {i.id: 1 + i.id % K for i in sorted(insts, key=lambda i: i.id)
                if i.arrival_slot <= t <= i.last_slot}
            for t in range(1, horizon + 1)}
    assert seen["carried"] > 0 and seen["departed"] > 0
    assert (seen["mid-window"] > 0) == (window_size > 1)


class _WindowOracle:
    """Actual costs plus a fixed predicted offset per window start."""

    def __init__(self, actual, offsets_by_t0):
        self.actual = actual
        self.offsets_by_t0 = offsets_by_t0

    def predicted_model(self, t0, window):
        off = self.offsets_by_t0[t0]
        return PerturbedCostModel(self.actual, {t: off for t in window.slots})


def _departure_at_window_end():
    """Instances 1 and 2 share MMC 1 in window [1, 2]; 1 departs at the end
    of slot 2. Window [3] predicts MMC 1 dear, so 2 moves 1 -> 2 at slot
    3. Returns (actual model, oracle, instances)."""
    model = mmc(K=3)                  # MMCs 1 and 2, backend 3
    dear = {1: np.array([0.0, 0.0, 10.0, 0.0]),
            3: np.array([0.0, 10.0, 0.0, 0.0])}
    insts = [ServiceInstance(id=1, arrival_slot=1, actual_departure_slot=2),
             ServiceInstance(id=2, arrival_slot=1)]
    return model, _WindowOracle(model, dear), insts


def test_run_online_window_start_charges_whole_previous_slot():
    """y_k(t0-1) in the window-start migration charge counts every
    instance at k in slot t0-1, also one that departs at its end: the
    move 1 -> 2 at slot 3 reads y_1(2) = 2, not the 1 that the carried
    instances alone would give."""
    model, oracle, insts = _departure_at_window_end()
    run = run_online(3, 2, insts, oracle)
    assert run.placements[2] == {1: 1, 2: 1}
    assert run.placements[3] == {2: 2}
    assert run.migrations_by_slot[3] == 1
    want = model.u(2, 3, 1.0) + model.w(1, 2, 3, 2.0, 1.0, 1.0)
    assert run.actual_by_slot[3] == pytest.approx(want, rel=1e-12)
    assert want > model.u(2, 3, 1.0) + model.w(1, 2, 3, 1.0, 1.0, 1.0)


def test_planner_pre_window_load_counts_whole_previous_slot(monkeypatch):
    """The planner sees the load that the charge uses: window [3]'s
    ledger row 0 holds y_1(2) = 2."""
    from mmcplace import online

    ledgers = {}
    place = online.place_on_arrival

    def spy(instance, t, matrix, *args, **kwargs):
        ledgers.setdefault(matrix.window.t0, kwargs["ledger"])
        return place(instance, t, matrix, *args, **kwargs)

    monkeypatch.setattr(online, "place_on_arrival", spy)
    _model, oracle, insts = _departure_at_window_end()
    run_online(3, 2, insts, oracle)
    assert ledgers[3].y[0, 1] == 2.0


def test_generic_planner_pre_window_load_counts_whole_previous_slot(
        monkeypatch):
    """The generic DP prices the window start from the same load: the
    evaluator of window [3]'s arrivals holds y_1(2) = 2 at its prior."""
    from mmcplace import online

    captured = {}
    place = online.place_on_arrival

    def spy(instance, t, matrix, instances, model, prev_config, distance,
            *args, **kwargs):
        assert kwargs["ledger"].base is None     # the generic path
        captured.setdefault(matrix.window.t0, (matrix, instances, model,
                                               prev_config, distance))
        return place(instance, t, matrix, instances, model, prev_config,
                     distance, *args, **kwargs)

    monkeypatch.setattr(online, "place_on_arrival", spy)
    _model, oracle, insts = _departure_at_window_end()
    run_online(3, 2, insts, _GenericOracle(oracle))
    matrix, instances, model, prev_config, distance = captured[3]
    by_id = {i.id: i for i in instances}
    ev = WindowCostEvaluator(matrix.window,
                             [by_id[iid] for iid in matrix.instance_ids],
                             model, prev_config, distance)
    assert ev.state_loads(2, ev.prior).y[1] == 2.0


class _Delegating(CostModel):
    """The same costs behind the plain CostModel interface, so
    place_on_arrival takes the generic full-state DP."""

    def __init__(self, inner):
        self.inner = inner
        self.K = inner.K

    def u(self, k, t, y, r=0.0):
        return self.inner.u(k, t, y, r)

    def w(self, k, l, t, y_from, y_to, z, s=0.0):
        return self.inner.w(k, l, t, y_from, y_to, z, s)


class _GenericOracle:
    def __init__(self, oracle):
        self.actual = oracle.actual
        self.oracle = oracle

    def predicted_model(self, t0, window):
        return _Delegating(self.oracle.predicted_model(t0, window))


def _whole_run_case(seed):
    """Several windows on a small MMC grid: distance terms, instances
    carried across windows, departures, finite lifetimes and (for most
    seeds) a perturbed predicted model."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(4, 7))
    horizon = 14
    insts = []
    for j in range(1, int(rng.integers(6, 11)) + 1):
        arrival = int(rng.integers(1, horizon + 1))
        life = int(rng.integers(1, 9)) if rng.random() < 0.4 else math.inf
        departure = (min(horizon, arrival + int(rng.integers(0, 8)))
                     if rng.random() < 0.6 else None)
        insts.append(ServiceInstance(
            id=j, arrival_slot=arrival, max_lifetime=life,
            actual_departure_slot=departure,
            local_demand=float(rng.uniform(0.3, 1.5)),
            migration_demand=float(rng.uniform(0.3, 1.5))))
    model = MmcBackendCostModel(K=K, capacity=float(rng.uniform(2.5, 4.0)),
                                backend_local_rate=3.0,
                                backend_migration_rate=3.0,
                                distance_local_weight=0.2,
                                distance_migration_weight=0.1)
    bound = (PowerLawErrorBound(0.3, 1.1) if seed % 4 else ZERO_BOUND)
    oracle = CostOracle(model, bound, seed=seed)
    return horizon, int(rng.integers(2, 6)), insts, oracle


def tie_free_distance(K):
    """grid_distance with a small per-cloud skew, so that no two clouds are
    ever the same distance from a user or from a cloud."""
    line = grid_distance(K)
    return DistanceContext(
        user_cell_of=line.user_cell_of,
        cloud_cell_distance=lambda k, c: abs(k - c) + k / 7,
        cloud_pair_distance=lambda k, l: abs(k - l) + (2 * k + l) / 11,
        backend=K)


def _fresh_rows(matrix, instances, model, prev_config, distance):
    """Ledger rows rebuilt from the slot states: y and r from state_loads,
    zout / zin summed per cloud in instance order over the MMC-to-MMC
    moves. Those must also match, to rounding, the per-cloud totals of
    transition_loads' per-pair z. A model outside the capacity/backend
    family has no backend: every move between two clouds counts."""
    from mmcplace.online import _fast_base

    backend = getattr(_fast_base(model), "backend", None)
    w = matrix.window
    ev = WindowCostEvaluator(w, sorted(instances, key=lambda i: i.id),
                             model, prev_config, distance)
    zero = np.zeros(model.K + 1)
    y = [ev.state_loads(w.t0 - 1, ev.prior).y]
    r, zout, zin = [zero], [zero], [zero]
    prev_state = ev.prior
    for t in w.slots:
        state = matrix.slot_state(t)
        loads = ev.state_loads(t, state)
        ev.transition_loads(t, prev_state, loads, state)
        out, into = zero.copy(), zero.copy()
        for inst, k, l in zip(ev.instances, prev_state, state):
            if 0 not in (k, l) and backend not in (k, l) and k != l:
                out[k] += inst.migration_demand
                into[l] += inst.migration_demand
        pair_out, pair_in = zero.copy(), zero.copy()
        for (k, l), zv in loads.z.items():
            if backend not in (k, l):
                pair_out[k] += zv
                pair_in[l] += zv
        assert np.allclose(out, pair_out, rtol=1e-12, atol=0)
        assert np.allclose(into, pair_in, rtol=1e-12, atol=0)
        y.append(loads.y)
        r.append(loads.r)
        zout.append(out)
        zin.append(into)
        prev_state = state
    return {"y": y, "r": r, "zout": zout, "zin": zin,
            "moves": [bool(out.any()) for out in zout]}


def _checked_fast_run(monkeypatch, horizon, T, insts, oracle, distance):
    """run_online on the fast DP, with the ledger checked against a fresh
    aggregation after every placement and departure, and every arrival
    also routed by the generic DP on the same frozen matrix: both routes
    must cost the same. Returns the run."""
    from mmcplace import online

    checked = {"place": 0, "depart": 0}
    context = {}

    def assert_fresh(ledger, matrix):
        want = _fresh_rows(matrix, *context["args"])
        for name, rows in want.items():
            assert np.array_equal(getattr(ledger, name), np.array(rows)), name

    place, depart = online.place_on_arrival, online.handle_departure

    def checked_place(instance, t, matrix, instances, model, prev_config,
                      distance, want_cost=False, *, ledger=None):
        # under a ledger, place fills the column into `matrix` itself
        before = matrix.copy()
        out = place(instance, t, matrix, instances, model, prev_config,
                    distance, want_cost, ledger=ledger)
        if ledger is not None:
            context["args"] = (instances, model, prev_config, distance)
            assert_fresh(ledger, out.matrix)
            checked["place"] += 1
            ours = window_cost(model, place(
                instance, t, before, instances, model, prev_config,
                distance).matrix, instances, prev_config, distance)
            ref = window_cost(model, place(
                instance, t, before, instances, _Delegating(model),
                prev_config, distance).matrix, instances, prev_config,
                distance)
            if math.isfinite(ref):
                assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)
            else:
                assert not math.isfinite(ours)
        return out

    def checked_depart(instance_id, t, matrix, *, ledger=None):
        out = depart(instance_id, t, matrix, ledger=ledger)
        if ledger is not None:
            assert_fresh(ledger, out)
            checked["depart"] += 1
        return out

    monkeypatch.setattr(online, "place_on_arrival", checked_place)
    monkeypatch.setattr(online, "handle_departure", checked_depart)
    run = run_online(horizon, T, insts, oracle, distance)
    monkeypatch.undo()
    assert checked["place"] == len(run.relaxations_per_arrival) > 0
    assert checked["depart"] > 0
    return run


@pytest.mark.parametrize("seed", range(24))
def test_whole_run_fast_matches_generic(seed, monkeypatch):
    """Whole runs on the fast and on the generic DP land the same cost.

    Distances are tie-free: where two routes cost the same, the two step
    providers may round their sums differently, so the one tie rule may
    pick different routes, and the runs then go separate ways."""
    horizon, T, insts, oracle = _whole_run_case(seed)
    distance = tie_free_distance(oracle.actual.K)
    fast = _checked_fast_run(monkeypatch, horizon, T, insts, oracle, distance)
    generic = run_online(horizon, T, insts, _GenericOracle(oracle), distance)
    assert fast.relaxations_per_arrival == generic.relaxations_per_arrival
    assert fast.total_cost == pytest.approx(generic.total_cost, rel=1e-9)
    assert fast.saturated_events == generic.saturated_events


@pytest.mark.parametrize("seed", range(12))
def test_whole_run_with_ties_matches_per_arrival(seed, monkeypatch):
    """On the line topology, where equidistant clouds tie, every arrival
    of a fast run still costs what the generic DP finds for it."""
    horizon, T, insts, oracle = _whole_run_case(seed)
    _checked_fast_run(monkeypatch, horizon, T, insts, oracle,
                      grid_distance(oracle.actual.K))


_DEMANDS = (0.1, 0.2, 0.4, 0.7, 1.0)


@st.composite
def _tiny_run(draw, linear=False):
    """A tiny whole run with non-integer demands, where sums in instance
    order and per (k, l) pair first can round differently: K 2..6 on the
    capacity/backend family with distance terms (on LinearCostModel with
    small rates when `linear`), 1..8 instances, a horizon of at most 12
    slots, windows of 1..horizon slots, finite and infinite lifetimes.
    Instance 1 departs inside the horizon, so every run has a
    departure."""
    K = draw(st.integers(2, 6))
    horizon = draw(st.integers(1, 12))
    insts = []
    for j in range(1, draw(st.integers(1, 8)) + 1):
        arrival = draw(st.integers(1, horizon))
        leaves = st.integers(arrival, horizon)
        insts.append(ServiceInstance(
            id=j, arrival_slot=arrival,
            max_lifetime=draw(st.just(math.inf) | st.integers(1, horizon)),
            actual_departure_slot=draw(leaves if j == 1
                                       else st.none() | leaves),
            local_demand=draw(st.sampled_from(_DEMANDS)),
            migration_demand=draw(st.sampled_from(_DEMANDS))))
    if linear:
        rate = st.sampled_from((0.5, 1.0, 2.0))
        model = LinearCostModel([0.0] + [draw(rate) for _ in range(K)],
                                draw(st.sampled_from((0.0, 0.5))),
                                draw(st.sampled_from((0.0, 0.5))), draw(rate))
    else:
        capacity = draw(st.sampled_from((1.0, 2.0, 3.5)))
        model = MmcBackendCostModel(K=K, capacity=capacity,
                                    backend_local_rate=3.0,
                                    backend_migration_rate=3.0,
                                    distance_local_weight=0.2,
                                    distance_migration_weight=0.1)
    bound = draw(st.sampled_from((ZERO_BOUND, PowerLawErrorBound(0.3, 1.1))))
    oracle = CostOracle(model, bound, seed=draw(st.integers(0, 2 ** 16)))
    return horizon, draw(st.integers(1, horizon)), insts, oracle


@given(_tiny_run())
@settings(max_examples=100, deadline=None)
def test_whole_run_ledger_stays_fresh_on_non_integer_demands(case):
    """On demands like 0.1 and 0.4 the ledger's instance-order migration
    sums may differ in the last bit from transition_loads' per-pair ones:
    through whole runs the rows still equal a fresh rebuild bit for bit,
    and every arrival costs what the generic DP finds for it."""
    horizon, T, insts, oracle = case
    with pytest.MonkeyPatch.context() as mp:
        _checked_fast_run(mp, horizon, T, insts, oracle,
                          grid_distance(oracle.actual.K))


@given(_tiny_run(linear=True))
@settings(max_examples=200, deadline=None)
def test_whole_run_ledger_stays_fresh_on_the_linear_family(case):
    """On LinearCostModel, which has no backend (every cloud counts as an
    MMC), every arrival takes _generic_steps: through whole runs the
    ledger rows still equal a fresh rebuild bit for bit after every
    placement and departure, and every arrival costs what the generic DP
    of a plain CostModel finds for it."""
    from mmcplace import online

    def fast_steps(*args):
        raise AssertionError("a linear-family arrival took the fast DP")

    horizon, T, insts, oracle = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(online, "_fast_steps", fast_steps)
        _checked_fast_run(mp, horizon, T, insts, oracle,
                          grid_distance(oracle.actual.K))


def test_want_cost_true_is_rejected():
    """place_on_arrival reports no window cost: want_cost=True raises and
    points to costs.window_cost."""
    model, w, insts, prev, m, d = random_setup(np.random.default_rng(1))
    inst = insts[-1]
    with pytest.raises(ValueError, match="window_cost"):
        place_on_arrival(inst, inst.arrival_slot, m, insts, model, prev, d,
                         want_cost=True)


def test_ledger_owns_the_matrix_it_is_given():
    """With a ledger, place_on_arrival and handle_departure write into the
    window's matrix and hand it back; without one, place_on_arrival
    returns a changed copy and leaves the caller's matrix as it was, its
    data array too."""
    from mmcplace.online import WindowLedger

    model, w, insts, prev, m, d = random_setup(
        np.random.default_rng(3), distance=True, dist_weights=(0.2, 0.1))
    inst = insts[-1]
    t = inst.arrival_slot
    before, data = m.copy(), m.data
    copied = place_on_arrival(inst, t, m, insts, model, prev, d)
    assert copied.matrix is not m and m == before
    assert m.data is data
    assert copied.matrix != before
    ledger = WindowLedger(m, insts, model, prev, d)
    placed = place_on_arrival(inst, t, m, insts, model, prev, d,
                              ledger=ledger)
    assert placed.matrix is m and m == copied.matrix
    assert handle_departure(inst.id, t, m, ledger=ledger) is m
    assert m.column(inst.id)[t - w.t0 + 1:].tolist() == [0] * (w.end - t)


def test_place_on_arrival_rejects_a_ledger_built_for_another_model():
    """A ledger holds the constants of the model it was built for (h times
    the pair hops, the per-slot offsets). Handed another model, one with
    the same costs or the same base included, place_on_arrival raises and
    writes nothing; with its own model it places."""
    from mmcplace.online import WindowLedger

    model, w, insts, prev, m, d = random_setup(
        np.random.default_rng(4), distance=True, dist_weights=(0.2, 0.1))
    ledger = WindowLedger(m, insts, model, prev, d)
    inst, before = insts[-1], m.copy()
    same_base = PerturbedCostModel(model, {t: np.zeros(model.K + 1)
                                           for t in w.slots})
    for other in (mmc(K=model.K, Y=6.0), same_base):
        with pytest.raises(ValueError, match="another cost model"):
            place_on_arrival(inst, inst.arrival_slot, m, insts, other, prev,
                             d, ledger=ledger)
    assert m == before
    placed = place_on_arrival(inst, inst.arrival_slot, m, insts, model, prev,
                              d, ledger=ledger)
    assert placed.matrix is m and m != before


def test_fast_run_copies_no_matrix(monkeypatch):
    """run_online, on the capacity/backend DP and on the generic one,
    keeps each window's matrix in its ledger and updates it in place: no
    ConfigurationMatrix.copy per arrival or departure."""
    copy, copies = ConfigurationMatrix.copy, []

    def counted(self):
        copies.append(self.window)
        return copy(self)

    monkeypatch.setattr(ConfigurationMatrix, "copy", counted)
    horizon, T, insts, oracle = _whole_run_case(1)
    for planner in (oracle, _GenericOracle(oracle)):
        run = run_online(horizon, T, insts, planner,
                         grid_distance(oracle.actual.K))
        assert len(run.relaxations_per_arrival) > len(insts)  # re-arrivals
        assert copies == []


def test_ledger_over_a_model_without_backend_matches_fresh_rows():
    """A ledger over linear costs, a family with no backend, builds and
    holds the rows of a fresh state_loads / transition_loads aggregation,
    moves into and out of cloud K (the distance context's backend) among
    them; it takes no capacity/backend constants. A column written
    through it keeps the rows fresh."""
    from mmcplace.online import WindowLedger

    K = 4
    model = LinearCostModel(np.array([0.0, 1.0, 1.5, 2.0, 2.5]), 0.1, 0.2,
                            1.0)
    d = grid_distance(K)
    insts = [ServiceInstance(id=j, arrival_slot=1, local_demand=0.3 * j,
                             migration_demand=0.2 + 0.1 * j)
             for j in (1, 2, 3, 4)]
    m = ConfigurationMatrix(Window(2, 3), [1, 2, 3, 4])
    m.set_column(1, [4, 4, 1])
    m.set_column(2, [4, 2, 2])
    m.set_column(3, [2, 2, 0])
    prev = {1: 1, 2: 4, 3: 2}
    ledger = WindowLedger(m, insts, model, prev, d)
    assert ledger.hD is None and ledger.off is None
    _assert_rows(ledger, _fresh_rows(m, insts, model, prev, d))
    mig = insts[0].migration_demand                       # 1 -> 4 counts
    assert ledger.zout[1, 1] == ledger.zin[1, 4] == mig > 0
    ledger.write(3, 3, (4, 3))
    _assert_rows(ledger, _fresh_rows(m, insts, model, prev, d))
    assert m.column(4).tolist() == [0, 4, 3]


@pytest.mark.parametrize("generic", [False, True])
def test_place_on_arrival_rejects_an_instance_already_placed(generic):
    """Placing an instance whose column already holds clouds in the window
    raises, with and without a ledger, and writes nothing."""
    from mmcplace.online import WindowLedger

    model, w, insts, prev, m, d = random_setup(
        np.random.default_rng(0), K=4, n=3, distance=True,
        dist_weights=(0.2, 0.1))
    model = _Delegating(model) if generic else model
    inst = insts[-1]
    placed = place_on_arrival(inst, inst.arrival_slot, m, insts, model, prev,
                              d).matrix
    before = placed.copy()
    ledger = WindowLedger(placed, insts, model, prev, d)
    for kwargs in ({}, {"ledger": ledger}):
        with pytest.raises(ValueError, match="already placed"):
            place_on_arrival(inst, inst.arrival_slot, placed, insts, model,
                             prev, d, **kwargs)
    assert placed == before


def test_ledger_sums_migrations_in_instance_order():
    """Two frozen moves share a (k, l) pair and a third leaves the same k
    (or enters the same l) between them. The ledger sums every cloud's
    moves in instance order, (0.1 + 0.1) + 0.4, which rounds differently
    from transition_loads' per-pair grouping (0.1 + 0.4) + 0.1."""
    from mmcplace.online import WindowLedger

    mig = (0.1, 0.1, 0.4)
    assert (mig[0] + mig[2]) + mig[1] != (mig[0] + mig[1]) + mig[2]
    model = mmc(K=5)
    w = Window(2, 3)
    insts = [ServiceInstance(id=j, arrival_slot=1, migration_demand=z)
             for j, z in enumerate(mig, start=1)]
    m = ConfigurationMatrix(w, [1, 2, 3])
    prev = {1: 1, 2: 1, 3: 1}
    # out of cloud 1 at the window start, back into it before slot 4
    for iid, k in zip((1, 2, 3), (2, 3, 2)):
        m.set(iid, 2, k)
        m.set(iid, 3, k)
        m.set(iid, 4, 1)
    ledger = WindowLedger(m, insts, model, prev,
                          grid_distance(model.K))
    want = _fresh_rows(m, insts, model, prev, grid_distance(model.K))
    for name, rows in want.items():
        assert np.array_equal(getattr(ledger, name), np.array(rows)), name
    assert ledger.zout[1, 1] == (mig[0] + mig[1]) + mig[2]
    assert ledger.zin[3, 1] == (mig[0] + mig[1]) + mig[2]


def _written_ledger(frozen, j, t, path):
    """A Window(2, 3) ledger on K = 5 over instances 1..3 with local and
    migration demands (0.1, 0.1, 0.4), all in cloud 1 at slot 1, the
    frozen columns {id: column} set, then `path` written into column j
    from slot t on. Returns (ledger, fresh rows of the written matrix)."""
    from mmcplace.online import WindowLedger

    dem = (0.1, 0.1, 0.4)
    model = mmc(K=5)
    d = grid_distance(model.K)
    insts = [ServiceInstance(id=k, arrival_slot=1, local_demand=z,
                             migration_demand=z)
             for k, z in enumerate(dem, start=1)]
    m = ConfigurationMatrix(Window(2, 3), [1, 2, 3])
    for iid, col in frozen.items():
        m.set_column(iid, col)
    prev = {1: 1, 2: 1, 3: 1}
    ledger = WindowLedger(m, insts, model, prev, d)
    ledger.write(j, t, path)
    return ledger, _fresh_rows(m, insts, model, prev, d)


def _assert_rows(ledger, want):
    for name, rows in want.items():
        assert np.array_equal(getattr(ledger, name), np.array(rows)), name


def test_ledger_write_before_a_later_column_sums_in_instance_order():
    """Column 2 is written into cloud 1 where columns 1 and 3 already are:
    its load is not the last term of the sum, and adding it to the row
    rounds differently, (0.1 + 0.4) + 0.1 != (0.1 + 0.1) + 0.4."""
    assert (0.1 + 0.4) + 0.1 != (0.1 + 0.1) + 0.4
    ledger, want = _written_ledger({1: [1, 1, 1], 3: [1, 1, 1]}, 1, 2,
                                   (1, 1, 1))
    _assert_rows(ledger, want)
    assert ledger.y[1, 1] == (0.1 + 0.1) + 0.4


def test_ledger_rewrite_of_a_placed_last_column_replaces_its_load():
    """Column 3, the last one, is written again over slots it already
    fills: its old load must leave the rows, not be added to twice."""
    ledger, want = _written_ledger(
        {1: [1, 1, 1], 2: [1, 1, 1], 3: [1, 1, 1]}, 2, 2, (1, 2, 2))
    _assert_rows(ledger, want)
    assert ledger.y[1, 1] == (0.1 + 0.1) + 0.4
    assert ledger.y[2, 1] == 0.1 + 0.1 and ledger.y[2, 2] == 0.4


def test_ledger_append_sums_a_shared_migration_pair_in_instance_order():
    """The appended column 3 (0.4) moves 1 -> 2 into slot 3, as frozen
    column 1 (0.1) does, and column 2 (0.1) moves 1 -> 3 between them:
    zout[1] is summed in instance order, (0.1 + 0.1) + 0.4, not per pair
    first, (0.1 + 0.4) + 0.1."""
    ledger, want = _written_ledger({1: [1, 2, 2], 2: [1, 3, 3]}, 2, 2,
                                   (1, 2, 2))
    _assert_rows(ledger, want)
    assert ledger.zout[2, 1] == (0.1 + 0.1) + 0.4
    assert ledger.zin[2, 2] == 0.1 + 0.4


def test_ledger_append_adds_a_new_pair_and_regroups_a_shared_one(
        monkeypatch):
    """The appended column 3 (0.4) moves 1 -> 2 into slot 3, a pair that
    column 1 (0.1) opened there, and 2 -> 3 into slot 4, a pair no other
    column has there, after column 1's 2 -> 4. Both moves are the last
    terms of their clouds' sums and are added to zout and zin as they
    stand, with no rebuild; the rows equal a fresh refresh bit for bit."""
    from mmcplace.online import WindowLedger

    refreshed = []
    refresh = WindowLedger.refresh

    def spied(self, lo, hi):
        refreshed.append((lo, hi))
        refresh(self, lo, hi)

    monkeypatch.setattr(WindowLedger, "refresh", spied)
    ledger, want = _written_ledger({1: [1, 2, 4], 2: [1, 3, 3]}, 2, 2,
                                   (1, 2, 3))
    assert refreshed == [(2, 4)]              # the build; the write is none
    _assert_rows(ledger, want)
    written = {name: getattr(ledger, name).copy()
               for name in ("y", "r", "zout", "zin", "moves")}
    refresh(ledger, ledger.window.t0, ledger.window.end)
    for name, rows in written.items():
        assert np.array_equal(getattr(ledger, name), rows), name
    assert ledger.zout[2, 1] == (0.1 + 0.1) + 0.4
    assert ledger.zout[3, 2] == 0.1 + 0.4 and ledger.zin[3, 3] == 0.4
    assert ledger.moves.tolist() == [False, False, True, True]


def test_ledger_builds_an_empty_window_without_a_refresh(monkeypatch):
    """A window with no placement yet (every run_online window) starts
    from zero rows and row 0's loads; one with frozen columns (the
    throwaway ledger of place_on_arrival) is refreshed."""
    from mmcplace.online import WindowLedger

    refreshed = []
    monkeypatch.setattr(WindowLedger, "refresh",
                        lambda self, lo, hi: refreshed.append((lo, hi)))
    model = mmc(K=5)
    insts = [ServiceInstance(id=j, arrival_slot=1, local_demand=0.5 * j)
             for j in (1, 2)]
    m = ConfigurationMatrix(Window(2, 3), [1, 2])
    prev = {1: 1, 2: 3}
    ledger = WindowLedger(m, insts, model, prev,
                          grid_distance(model.K))
    assert refreshed == []
    monkeypatch.undo()
    _assert_rows(ledger, _fresh_rows(m, insts, model, prev,
                                     grid_distance(model.K)))
    m.set_column(2, [3, 2, 2])
    monkeypatch.setattr(WindowLedger, "refresh",
                        lambda self, lo, hi: refreshed.append((lo, hi)))
    WindowLedger(m, insts, model, prev)
    assert refreshed == [(2, 4)]


@pytest.mark.parametrize("columns", [[1, 2], [2, 1]])
def test_generic_dp_matches_instances_to_columns_by_id(columns):
    """The frozen instance 1 fills cloud 1 (u = y + y^2), so instance 2 is
    cheaper on cloud 2 (u = 3y), whatever the order of the matrix
    columns: window cost 6 + 6 + 1.5 + 1.5 = 15, not 2 x 8.75 = 17.5."""
    from mmcplace.costs import PolynomialCostModel

    model = PolynomialCostModel([[0, 0, 0], [0, 1, 1], [0, 3, 0]],
                                [(0, 0, 1, 1.0)])
    w = Window(1, 2)
    insts = [ServiceInstance(id=1, arrival_slot=1, local_demand=2.0),
             ServiceInstance(id=2, arrival_slot=1, local_demand=0.5)]
    m = ConfigurationMatrix(w, columns)
    m.set_column(1, [1, 1])
    out = place_on_arrival(insts[1], 1, m, insts, model)
    assert out.matrix.column(2).tolist() == [2, 2]
    assert window_cost(model, out.matrix, insts) == 15.0


def _tie_case(gamma, kappa3, offsets, prev_cloud, frozen=None):
    """One instance carried into Window(2, 3) from prev_cloud, on integer
    linear costs plus integer local offsets, so that equal-cost routes
    tie exactly; frozen, when given, is a second instance's column."""
    K = len(gamma) - 1
    model = PerturbedCostModel(
        LinearCostModel(np.array(gamma, dtype=float), 0.0, 0.0,
                        np.array(kappa3, dtype=float)),
        {t: np.array(off, dtype=float) for t, off in offsets.items()})
    w = Window(2, 3)
    inst = ServiceInstance(id=1, arrival_slot=1)
    insts = [inst]
    m = ConfigurationMatrix(w, [1] if frozen is None else [1, 2])
    if frozen is not None:
        insts.append(ServiceInstance(id=2, arrival_slot=1, local_demand=2.0,
                                     migration_demand=2.0))
        m.set_column(2, frozen)
    return model, w, inst, insts, m, {1: prev_cloud}


def _cheapest_paths(inst, m, insts, model, prev):
    """Enumeration: the lowest window cost and every route reaching it."""
    import itertools

    w = m.window
    ev = WindowCostEvaluator(w, insts, model, prev)
    costs = {}
    for path in itertools.product(range(1, model.K + 1), repeat=w.T):
        m2 = m.copy()
        m2.set_column(inst.id, path)
        costs[path] = ev.path_cost([m2.slot_state(s) for s in w.slots])
    cost = min(costs.values())
    return cost, [path for path, c in costs.items() if c == cost]


def _reversed_min(paths):
    """The tie rule: smallest final cloud, then smallest predecessor."""
    return min(paths, key=lambda path: path[::-1])


def test_tie_break_is_min_cost_then_reversed_path():
    """Six routes cost 7.0, among them (2, 2, 2), the smallest read
    forwards, and (3, 1, 1), the only one ending at cloud 1. The smallest
    final cloud wins, so the DP keeps (3, 1, 1)."""
    model, w, inst, insts, m, prev = _tie_case(
        [0, 2, 1, 2], [[1] * 4] * 4,
        {2: [0, 2, 1, 0], 3: [0, 0, 2, 1]}, prev_cloud=3)
    cost, paths = _cheapest_paths(inst, m, insts, model, prev)
    assert cost == 7.0 and len(paths) == 6
    assert (min(paths), _reversed_min(paths)) == ((2, 2, 2), (3, 1, 1))
    out = place_on_arrival(inst, 2, m, insts, model, prev)
    assert tuple(out.matrix.column(1).tolist()) == (3, 1, 1)
    assert window_cost(model, out.matrix, insts, prev) == cost


def test_tie_break_matches_enumeration_on_integer_costs():
    """Random integer costs, with and without a frozen second instance:
    the placed route is always the enumeration's minimum of (cost,
    reversed path). Some cases tie where the smallest path read forwards
    is another route."""
    rng = np.random.default_rng(11)
    discriminating = 0
    for _ in range(300):
        K = 3
        frozen = None
        if rng.random() < 0.5:
            frozen = [int(k) for k in rng.integers(0, K + 1, 3)]
        model, w, inst, insts, m, prev = _tie_case(
            [0] + rng.integers(1, 3, K).tolist(),
            rng.integers(1, 2, (K + 1, K + 1)).tolist(),
            {t: [0] + rng.integers(0, 4, K).tolist() for t in (2, 3, 4)},
            prev_cloud=int(rng.integers(1, K + 1)), frozen=frozen)
        cost, paths = _cheapest_paths(inst, m, insts, model, prev)
        discriminating += min(paths) != _reversed_min(paths)
        out = place_on_arrival(inst, 2, m, insts, model, prev)
        assert tuple(out.matrix.column(1).tolist()) == _reversed_min(paths)
        assert window_cost(model, out.matrix, insts, prev) == cost
    assert discriminating > 0


def test_ledger_looks_up_cells_only_where_a_column_may_be_placed():
    """A column's user cells are looked up once per slot from max(arrival,
    t0) to min(planned_end, window end), the slots a planner may fill,
    and not at all for a prev_config column whose planned end is before
    t0. A known later departure does not shorten the lookups: the
    planner does not know it."""
    from collections import Counter

    from mmcplace.online import WindowLedger

    K = 4
    calls = Counter()

    def cell(iid, t):
        return 1 + (iid + t) % (K - 1)

    def cell_of(iid, t):
        calls[iid, t] += 1
        return cell(iid, t)

    d = DistanceContext(user_cell_of=cell_of,
                        cloud_cell_distance=lambda k, c: abs(k - c),
                        cloud_pair_distance=lambda k, l: abs(k - l), backend=K)
    w = Window(3, 6)                                  # slots 3..8
    insts = [ServiceInstance(id=1, arrival_slot=1),
             ServiceInstance(id=2, arrival_slot=1, max_lifetime=2),
             ServiceInstance(id=3, arrival_slot=4, max_lifetime=3,
                             actual_departure_slot=5),
             ServiceInstance(id=4, arrival_slot=1, max_lifetime=1)]
    m = ConfigurationMatrix(w, [1, 2, 3, 4])
    ledger = WindowLedger(m, insts, mmc(K), {1: 1, 2: 2, 4: 3}, d)
    want = {(1, t) for t in range(3, 9)} | {(3, t) for t in range(4, 7)}
    assert set(calls) == want
    assert set(calls.values()) == {1}
    looked_up = np.zeros_like(ledger.cell_row)
    for iid, t in want:
        looked_up[t - 3, iid - 1] = cell(iid, t)
    assert np.array_equal(ledger.cell_row, looked_up)


@pytest.mark.parametrize("hex_grid", [True, False])
def test_distance_tables_equal_the_hooks(hex_grid):
    """pair_hops[k, l] and cell_hops[c, k] equal the hooks entry by entry
    over the MMCs and cells 1..backend-1 and are zero elsewhere, on the
    hex grid and on a context whose cell and pair hooks differ."""
    from mmcplace.scenario import HexTopology

    if hex_grid:
        topo = HexTopology.build(7)
        d = DistanceContext(user_cell_of=lambda iid, t: None,
                            cloud_cell_distance=topo.hex_distance,
                            cloud_pair_distance=topo.hex_distance,
                            backend=topo.backend)
    else:
        d = tie_free_distance(6)
    B = d.backend
    assert d.pair_hops.shape == d.cell_hops.shape == (B + 1, B + 1)
    for a in range(B + 1):
        for b in range(B + 1):
            inner = 0 < a < B and 0 < b < B
            want_pair = d.cloud_pair_distance(a, b) if inner and a != b else 0
            want_cell = d.cloud_cell_distance(b, a) if inner else 0
            assert d.pair_hops[a, b] == want_pair
            assert d.cell_hops[a, b] == want_cell


def test_distance_hooks_run_once_per_table_entry():
    """However many placement_loads calls and ledger builds read them,
    each entry of the two hop tables calls its hook once."""
    from collections import Counter

    from mmcplace.costs import placement_loads
    from mmcplace.online import WindowLedger

    K = 5
    calls = Counter()

    def cell_distance(k, c):
        calls["cell", k, c] += 1
        return abs(k - c)

    def pair_distance(k, l):
        calls["pair", k, l] += 1
        return abs(k - l)

    d = DistanceContext(user_cell_of=lambda iid, t: 1 + (iid + t) % (K - 1),
                        cloud_cell_distance=cell_distance,
                        cloud_pair_distance=pair_distance, backend=K)
    insts = [ServiceInstance(id=j, arrival_slot=1) for j in (1, 2, 3)]
    m = ConfigurationMatrix(Window(1, 4), [1, 2, 3])
    for t in range(1, 5):
        for j in (1, 2, 3):
            m.set(j, t, 1 + (t + j) % K)
    for _ in range(3):
        for t in range(2, 5):
            loads = placement_loads(t, insts, m.slot_state(t), K, d,
                                    m.slot_state(t - 1))
            assert loads.s
        WindowLedger(m, insts, mmc(K), {}, d)
    assert set(calls.values()) == {1}
    assert len(calls) == (K - 1) * (K - 2) + (K - 1) ** 2
