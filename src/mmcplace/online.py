"""Greedy per-instance placement under arrivals and departures, and the
window loop that every solver shares: online, offline and the one-slot
windows of simulator's policies a, b and c.

run_windows tiles the horizon into look-ahead windows. Each window's
solver gets the oracle's predicted model, prev_config (the whole placement
map of slot t0-1) and the window's columns: every instance in that map
(all zero for one that departed at the end of t0-1) plus the window's
arrivals, in id order, so the joint state at t0-1 is an ordinary state
(WindowCostEvaluator.prior, WindowLedger row 0). Into one Run, which
every solver call gets for its counters, the loop records each slot's
placement map from the solver's matrix and charges the run's actual
costs from those maps with costs.charge_placements, the accounting every
policy shares. run_online's solver routes each arriving instance by a
single-instance shortest-path DP over the remainder of the window, with
every other column frozen; carried-over instances re-arrive at the
window start, and a departure zeroes its column without re-optimizing
survivors. offline.run_offline's solver is the exact joint DP.

One DP recursion, _min_path, owns the min-plus step over the K clouds
of each slot, the relaxation count, the saturation flag, backtracking
and the tie-break. Two step providers price its steps and run no
recursion of their own: _generic_steps evaluates full joint states for
any cost model, a slot's K states with one
WindowCostEvaluator.price_column call and a boundary's K^2 pairs with
one transitions call, each of which lists the frozen columns once; and
_fast_steps prices the capacity/backend family in vectorized form,
where the migration cost is linear in the migration loads so
per-candidate deltas reduce to row/column corrections. It takes
R and u from the model's array forms (MmcBackendCostModel.R_array and
u_from_R), one stacked R over the arrival's loads without and with its
own, and has no copy of those formulas. A step
is a (K, K) matrix in (to, from) layout: hop(q)[l, k] is the cost of
k -> l, so _min_path adds the predecessor costs along the contiguous
axis and takes each destination's argmin along it. Both providers take
(instance, t, t_e, ledger); place_on_arrival chooses one per arrival
before routing, runs one DP and returns no cost.

Every arrival, whatever the cost family, is placed through a
WindowLedger, which owns the window's placements, slot t0-1 included:
the matrix's data is a view of them, which WindowLedger.write and
handle_departure update in place. run_online keeps one ledger per
window. _generic_steps reads its frozen joint states from the ledger's
rows, and _fast_steps every frozen load: per-slot local loads and
user-distance sums, per-boundary MMC-to-MMC migration out- and in-sums,
each user's cell id looked up once per window (from the instance's
arrival on), the DistanceContext's hop tables and the capacity/backend
constants (h times the pair hops, per-slot offsets).
Every ledger sum runs in instance order, so it always equals a fresh
rebuild bit for bit. A placed column that was empty over its slots and
has no later nonzero column there is appended: its load, and each
MMC-to-MMC move it makes, is the last term of each row's sum. In
run_online ids rise with arrival order, so every placement is such an
append. Other writes and every departure rebuild the touched rows from
the whole placement.
For the capacity/backend family the ledger refuses any MMC load at or
over capacity (ValueError): the all-backend route always costs finitely,
and a finite route fills no MMC, so from a slot t0-1 map with room every
arrival finds a finite route and _fast_steps never reads an inf frozen
cost.
_fast_steps builds no joint state tuple and calls no cost function per
cloud; an arrival's (K, K) boundary matrices are built in blocks of up
to HOP_BLOCK_BYTES each. When its steps fit in one block (every arrival
at desk scale, K = 20), they are built at once and step q is the
block's slab q, handed out by the block's own getter. When they do not,
it builds only the distinct ones: a step whose two R rows equal the
previous step's byte for byte, with no frozen move on either, reuses
that step's matrix, handed out as a copy where _min_path would otherwise
add into it before the next step reads it. The frozen-migration
corrections are built only when the ledger flags a frozen move in the
arrival's rows, and added only to the rows and columns of the clouds
those moves leave or enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ConfigurationMatrix, ServiceInstance, Window
from .costs import (CostModel, DistanceContext, MmcBackendCostModel,
                    PerturbedCostModel, WindowCostEvaluator, charge_placements)

# Size of one block of boundary matrices in _fast_steps: n = max(1,
# HOP_BLOCK_BYTES // (8 K^2)) slabs, one distinct boundary each, are built
# as one array, a whole desk span at K = 20 and 3 slabs at K = 92. A 1 MiB
# block raised fullscale-sim's peak memory 42.6 -> 45.2 MB. The ledger's
# block has one spare slab after the n: steps that fit in one block sit
# at their own index, 1..n for a new arrival, so hop is the block's
# getter; a multi-block arrival copies a shared slab into the spare.
HOP_BLOCK_BYTES = 256 * 1024


@dataclass
class PlacementOutcome:
    matrix: ConfigurationMatrix
    relaxations: int
    saturated: bool            # True when every route carried infinite cost


def _fast_base(model):
    """The capacity/backend model behind `model`, if that is its family."""
    if type(model) is MmcBackendCostModel:
        return model
    if type(model) is PerturbedCostModel and type(
            model.base) is MmcBackendCostModel:
        return model.base
    return None


class WindowLedger:
    """A window's placements and their per-slot load aggregates.

    Ledger row i stands for window slot t0 + i - 1; row 0 is the slot just
    before the window. place[i] is that slot's placement: place[0] is
    prev_config over the matrix columns and place[1:] is the window's
    matrix, whose data the ledger rebinds to that view when it is built.
    y[i] and r[i] (i >= 1) equal costs.placement_loads of a slot's joint
    state, and y[0] that of WindowCostEvaluator.prior: the whole slot
    t0-1 map (r[0] stays zero; no cost reads it). zout[i] / zin[i] hold,
    per MMC, the migration load that leaves / enters it in MMC-to-MMC
    moves over the boundary into slot i, the per-cloud totals of
    costs._moves' per-pair z (equal up to rounding: the pairs are summed
    first there); moves[i] flags a nonzero zout[i], a frozen move over
    that boundary. cell_row holds each column's user cell ids, 0
    when unknown, looked up once for the slots from max(arrival slot, t0)
    to min(planned_end, window end), a column's only placeable slots; a
    column whose planned end is before t0 is not looked up. The ledger
    serves one cost model, `model`, of any family (with no backend, every
    cloud 1..K counts as an MMC); hD, off and the backend mask are the
    constants of `base`, the capacity/backend model behind it, taken once
    (hD and off are None without one). cols, the instances in column
    order, and distance are kept for _generic_steps. block is
    _fast_steps' boundary block, HOP_BLOCK_BYTES' n slabs and a spare
    one, `spare`, after them.

    With a base, no row may hold an MMC load (clouds 1..backend-1) at or
    over base's capacity: the build checks row 0, refresh() the rows it
    rebuilds and write() each load it appends, the only places loads are
    set, and each raises ValueError naming the row.

    Every sum runs in instance order, so it matches a fresh refresh bit
    for bit. write() decides, before it writes, whether a placed column
    is an append: the column was empty over the slots it fills and no
    later column holds a cloud there. Its load, and each MMC-to-MMC move
    it makes (its entry move included), is then the last term of each
    sum, added to the row as it stands. A write into a column that held
    clouds there or that has a later nonzero column there, the first
    build of a matrix that holds placements and every departure
    (refresh) rebuild the touched rows from the whole placement; an empty
    matrix starts from zero rows.
    """

    def __init__(self, matrix: ConfigurationMatrix,
                 instances: list[ServiceInstance], model: CostModel,
                 prev_config: dict[int, int] | None = None,
                 distance: DistanceContext | None = None):
        window = matrix.window
        self.window = window
        self.model, self.base = model, _fast_base(model)
        self.K = K = model.K
        self.col, self.distance = matrix._col, distance
        by_id = {i.id: i for i in instances}
        self.cols = cols = [by_id[iid] for iid in matrix.instance_ids]
        self.loc = np.array([i.local_demand for i in cols], dtype=float)
        self.mig = np.array([i.migration_demand for i in cols], dtype=float)
        prev_config = prev_config or {}
        rows = window.T + 1
        self.place = np.empty((rows, len(cols)), dtype=np.int64)
        self.place[0] = [prev_config.get(iid, 0)
                         for iid in matrix.instance_ids]
        self.place[1:] = matrix.data
        matrix.data = self.place[1:]
        self.prev = self.place[0]
        # user cell id of each (slot, instance), a row of `hops`; 0, the
        # all-zero row, for an unknown cell and every slot before arrival
        self.cell_row = np.zeros((window.T, len(cols)), dtype=np.int32)
        if distance is None:
            self.hops = np.zeros((1, K + 1))
            self.pairD = np.zeros((K + 1, K + 1))
        else:
            for j, inst in enumerate(cols):
                start = max(inst.arrival_slot, window.t0)
                end = int(min(inst.planned_end, window.end))
                if start > end:
                    continue
                self.cell_row[start - window.t0:end - window.t0 + 1, j] = [
                    distance.user_cell_of(inst.id, t) or 0
                    for t in range(start, end + 1)]
            self.hops = distance.cell_hops
            self.pairD = distance.pair_hops
        # is_mmc[k]: cloud k is an MMC, neither 0 nor the backend; mmc is
        # the same as a list, for write()'s scalar lookups. hD[l, k] = h *
        # pairD[k + 1, l + 1], the hop cost of k+1 -> l+1 in the (to, from)
        # layout of the DP's steps; off[i] the model's local-cost offsets
        # of window slot t0 + i, None on the base model
        self.is_mmc = np.ones(K + 1, dtype=bool)
        self.is_mmc[0] = False
        self.hD = self.off = self.block = self.spare = None
        self.cap = math.inf
        if self.base is not None:
            self.is_mmc[self.base.backend] = False
            self.cap = self.base.capacity
            # _fast_steps' boundary block, no more slabs than the window's
            # slots, and one spare slab after them: a block allocated per
            # build (203 KB at K = 92, over malloc's mmap threshold) took
            # its time from what the heap held before
            self.block = np.empty((min(max(1, HOP_BLOCK_BYTES // (8 * K * K)),
                                       window.T) + 1, K, K))
            self.spare = self.block[-1]
            self.hD = np.ascontiguousarray(
                (self.base.h * self.pairD[1:, 1:]).T)
            if model is not self.base:
                zero = np.zeros(K + 1)
                self.off = np.array([model.offsets.get(s, zero)
                                     for s in window.slots])
        self.mmc = self.is_mmc.tolist()
        self.y = np.zeros((rows, K + 1))
        self.r = np.zeros((rows, K + 1))
        self.zout = np.zeros((rows, K + 1))
        self.zin = np.zeros((rows, K + 1))
        self.moves = np.zeros(rows, dtype=bool)
        self.y[0] = np.bincount(self.prev, self.loc, K + 1)
        self.y[0, 0] = 0.0
        self._check(0, 1)
        if self.place[1:].any():            # else the zero rows are right
            self.refresh(window.t0, window.end)

    def _check(self, a: int, b: int) -> None:
        """Raise ValueError if an MMC load in rows a..b-1 is at or over
        base's capacity."""
        if self.base is None:
            return
        over = self.y[a:b, 1:self.base.backend] >= self.cap
        if np.count_nonzero(over):
            row = a + int(over.any(axis=1).argmax())
            raise ValueError(
                f"ledger row {row} (slot {self.window.t0 + row - 1}) holds "
                f"an MMC load at or over capacity {self.cap}")

    def write(self, j: int, t: int, path: tuple[int, ...]) -> None:
        """Place column j on `path` from slot t on, and update the rows."""
        a = t - self.window.t0 + 1                # ledger rows [a, b)
        b = a + len(path)
        # decided before the write
        append = not np.count_nonzero(self.place[a:b, j:])
        self.place[a:b, j] = path
        if not append:
            self.refresh(t, t + len(path) - 1)
            return
        y, r, cap, mmc = self.y, self.r, self.cap, self.mmc
        loc, hops, cells = self.loc[j], self.hops, self.cell_row[:, j]
        for row, k in enumerate(path, start=a):   # short spans: no arrays
            y[row, k] = load = y[row, k] + loc
            if load >= cap and mmc[k]:
                self._check(row, row + 1)
            r[row, k] += hops[cells[row - 1], k]
        c = min(b + 1, self.window.T + 1)          # boundaries into [a, c)
        seq = self.place[a - 1:c, j].tolist()
        mig = self.mig[j]
        for row, (f, g) in enumerate(zip(seq, seq[1:]), start=a):
            if mmc[f] and mmc[g] and f != g:
                self.zout[row, f] += mig
                self.zin[row, g] += mig
                self.moves[row] |= bool(self.zout[row, f])

    def refresh(self, lo: int, hi: int) -> None:
        """Rebuild slots lo..hi and the boundaries into lo..hi+1."""
        a, b = lo - self.window.t0 + 1, hi - self.window.t0 + 2
        c = min(b + 1, self.window.T + 1)         # boundaries into [a, c)
        K1, n = self.K + 1, b - a
        q, j = np.nonzero(self.place[a:b])       # row-major: instance order
        k = self.place[a + q, j]
        bins = q * K1 + k
        self.y[a:b] = np.bincount(bins, self.loc[j], n * K1).reshape(n, K1)
        self.r[a:b] = np.bincount(
            bins, self.hops[self.cell_row[a - 1 + q, j], k],
            n * K1).reshape(n, K1)
        frm, to = self.place[a - 1:c - 1], self.place[a:c]
        q, j = np.nonzero(self.is_mmc[to] & self.is_mmc[frm] & (frm != to))
        n = c - a
        self.zout[a:c] = np.bincount(q * K1 + frm[q, j], self.mig[j],
                                     n * K1).reshape(n, K1)
        self.zin[a:c] = np.bincount(q * K1 + to[q, j], self.mig[j],
                                    n * K1).reshape(n, K1)
        self.moves[a:c] = self.zout[a:c].any(axis=1)
        self._check(a, b)


def _min_path(first, local, hop, tail):
    """The per-arrival DP: one instance's cheapest cloud per slot.

    first[k]: cost of cloud k+1 in the arrival slot t, entry migration
    included. local[q] (q >= 1): local cost vector of slot t+q; local[0]
    is already in first, and len(local) is the span. hop(q)[l, k]: cost
    of moving k+1 -> l+1 over the boundary into slot t+q, a (K, K)
    array, one row per destination, that _min_path may overwrite; it
    asks for q = 1, 2, ... in order. tail, when not None, is added per
    final cloud.

    Ties go to the smallest final cloud, then to the smallest predecessor
    at each boundary going back: the minimum of (cost, reversed path).
    Returns (path, relaxations, saturated): path a tuple of cloud ids
    1..K as Python ints, relaxations = K + K^2 (span - 1) and saturated
    True when every route costs inf.
    """
    nu = first
    K = nu.shape[0]
    row_start = np.arange(0, K * K, K)       # flat index of cand[l, 0]
    back: list[np.ndarray] = []
    for q in range(1, len(local)):
        # cand[l, k]: reach k by slot t+q-1, then hop k -> l into slot t+q
        cand = hop(q)
        cand += nu
        choice = cand.argmin(axis=1)
        nu = cand.take(choice + row_start)   # cand[l, choice[l]]
        nu += local[q]
        back.append(choice)
    if tail is not None:
        nu = nu + tail

    end = k = int(nu.argmin())
    path = [k + 1]
    for choice in reversed(back):
        k = int(choice[k])
        path.append(k + 1)
    path.reverse()
    saturated = not math.isfinite(float(nu[end]))
    relax = K + K * K * (len(local) - 1)
    return tuple(path), relax, saturated


def _generic_steps(instance, t, t_e, ledger):
    """_min_path's inputs for any cost model, from full joint states.

    The frozen joint states are the ledger's placement rows (row 0 is slot
    t0-1). rows[q][k - 1], slot t+q's row with cloud k in the instance's
    column j, is built once. An evaluator over the ledger's columns, model
    and distances prices each slot's K states with one price_column call
    and each boundary's pairs with one transitions call, which list the
    frozen columns once and add column j's term at its turn: the same
    sums as local and transition per state and pair, bit for bit.
    """
    ev = WindowCostEvaluator(ledger.window, ledger.cols, ledger.model,
                             distance=ledger.distance)
    j = ledger.col[instance.id]
    i, K = t - ledger.window.t0 + 1, ledger.K    # ledger row of slot t
    joint = np.repeat(ledger.place[i:i + t_e - t + 1, None], K, axis=1)
    joint[:, :, j] = np.arange(1, K + 1)
    rows = [[tuple(state) for state in row] for row in joint.tolist()]
    local = [np.array(ev.price_column(t + q, row, j))
             for q, row in enumerate(rows)]
    # the frozen joint state at t-1 is the migration baseline
    before = tuple(ledger.place[i - 1].tolist())
    first = local[0] + np.array(ev.transitions(t, [before], rows[0], j))[:, 0]

    def hop(q):
        return np.array(ev.transitions(t + q, rows[q - 1], rows[q], j))

    tail = None
    if t_e + 1 <= ledger.window.end:
        # frozen migrations over the next boundary still feel the load we
        # leave behind at t_e
        after = tuple(ledger.place[i + len(rows)].tolist())
        tail = np.array(ev.transitions(t_e + 1, rows[-1], [after], j)[0])
    return first, local, hop, tail


# The helpers below run inside place_on_arrival's np.errstate: where the
# arrival's load would fill a cloud, inf * 0 is expected and masked, as
# the scalar cost functions produce it.

def _shift(diff, weight):
    """weight * diff where weight > 0, else 0 (so inf only where it matters)."""
    return np.where(weight > 0, diff * weight, 0.0)


def _correct(block, s0, s1, fix_rows, fix_cols):
    """Add the nonzero frozen-migration corrections of slabs s0..s1-1 to
    `block` (block[s - s0] is slab s): rows of fix_rows are rebuilt from
    the plain entries, then fix_cols' columns get out_k in every other
    row. Each is (slab, cloud, add), sorted by slab; a corrected slab is
    one step's own."""
    s, to, add = fix_rows
    lo, hi = s.searchsorted((s0, s1))
    rows = (s[lo:hi] - s0, to[lo:hi])
    fixed = block[rows] + add[lo:hi]
    s, frm, add = fix_cols
    lo, hi = s.searchsorted((s0, s1))
    block[s[lo:hi] - s0, :, frm[lo:hi]] += add[lo:hi]
    block[rows] = fixed


def _boundaries(out, R_from, R_to, b, hD, hop_backend, b0):
    """Hop costs over len(R_from) boundaries, an (n, K, K) view of `out`
    with [., l, k] for k -> l; R_from, R_to are (n, K). The outer sum is
    R_from broadcast, then R_to added in place: the same IEEE additions
    as R_to + R_from."""
    K = out.shape[1]
    cand = out[:len(R_from)]
    if not b:               # free, as w(z <= 0): no h * D, no 0 * inf = NaN
        cand[...] = 0.0
        return cand
    cand[...] = R_from[:, None, :]
    cand += R_to[:, :, None]
    if b != 1.0:
        cand *= b
    cand += hD
    cand[:, b0] = hop_backend
    cand[:, :, b0] = hop_backend
    cand.reshape(len(cand), -1)[:, ::K + 1] = 0.0       # k -> k is free
    return cand


def _fast_steps(instance, t, t_e, ledger):
    """_min_path's inputs for the capacity/backend family, from the ledger.

    Works on cost deltas relative to the frozen columns: adding load a to
    cloud l shifts u there; a k->l hop adds its own migration cost plus,
    since w is linear in the migration load, a congestion correction for
    every frozen MMC-to-MMC migration leaving k or entering l. All frozen
    loads come from the ledger. Arrays of length K hold clouds 1..K. R
    and u come from the model's array forms: R once over the rows'
    loads without and with a, stacked, and u from those R.

    hop(q) hands out one (K, K) matrix, [l, k] for k -> l, of a block of
    slabs built as one array of HOP_BLOCK_BYTES at most. The steps are q
    = q_lo..span-1, q_lo 0 for a carried instance (its entry is its
    column of hop(0), the boundary into slot t) and 1 otherwise. When
    they fit in one block (span - q_lo <= n), each step is its own slab,
    built at once at ledger.block[q], and hop is ledger.block's getter;
    a new arrival of one slot has no step and builds none. When they do
    not, a step shares the previous step's slab if its two R rows,
    R_plus[q] and R_plus[q+1], equal that step's byte for byte and
    neither step has a frozen move: a boundary is a pure function of
    those rows, b, hD and the backend constants. _min_path adds in place,
    so a step whose slab the next step reads too gets a copy in the
    ledger's spare slab.

    A boundary's correction in_l + out_k is added only where it is
    nonzero: rows l with in_l != 0 are rebuilt whole as entry + (in_l +
    out_k), and the other rows get entry + out_k in the columns k with
    out_k != 0. No entry is -0.0, so adding a zero would change nothing.
    _correct leaves a block whose slabs hold no correction unchanged.
    """
    a = instance.local_demand
    b = instance.migration_demand
    K, base, hD, off = ledger.K, ledger.base, ledger.hD, ledger.off
    b0 = base.backend - 1                     # backend position in 1..K arrays
    window = ledger.window
    j = ledger.col[instance.id]
    i, i_e = t - window.t0 + 1, t_e - window.t0 + 1   # ledger rows of t, t_e
    span = i_e - i + 1
    # a carried instance held cloud k+1 at t0-1
    k = ledger.prev[j] - 1 if t == window.t0 > 1 else -1
    q_lo = 0 if k >= 0 else 1

    # ledger rows i-1..i_e, clouds 1..K: loads without and with ours added,
    # their congestion, and the local cost of rows i..i_e
    y2 = np.empty((2, span + 1, K))
    y2[0] = ledger.y[i - 1:i_e + 1, 1:]
    np.add(y2[0], a, out=y2[1])
    R2 = base.R_array(y2)
    R_now, R_plus = R2
    if k >= 0:
        # carried instance: its load already sits in the pre-window profile
        # at cloud k+1, so no +a on that side of hop(0), the boundary into
        # slot t (no other step and no cost below reads R_plus[0])
        R_plus[0] = R_now[0]
    r2 = np.empty((2, span, K))
    r2[0] = ledger.r[i:i_e + 1, 1:]
    np.add(r2[0], ledger.hops[ledger.cell_row[i - 1:i_e, j], 1:], out=r2[1])
    u2 = base.u_from_R(y2[:, 1:], r2, R2[:, 1:])
    y = y2[0, 1:]
    if off is not None:
        # a slot's offset is charged only where the cloud hosts load (and
        # u_now is read only there)
        np.add(u2, off[i - 1:i_e, 1:], out=u2, where=y2[:, 1:] > 0)
    u_now, u_plus = u2
    ld = np.where(y > 0, u_plus - u_now, u_plus)
    hop_backend = base.h_backend * b
    # frozen MMC-to-MMC moves over the boundaries into ledger rows
    # i..i_e+1, which feel our load on their clouds (a boundary's zout and
    # zin are nonzero together: both sum the same nonnegative moves)
    moves = ledger.moves[i:i_e + 2]

    n = len(ledger.block) - 1         # slabs per block; the last is spare
    slab = None                       # one block: step q is slab q
    if span - q_lo > n:
        # own[q]: R_plus[q+1] differs from R_plus[q] or step q has a
        # frozen move; step q needs its own slab, new[q - q_lo], when
        # own[q] or own[q-1] holds, and the first step always does
        bits = R_plus.view(np.int64)
        own = (bits[1:] != bits[:-1]).any(axis=1) | moves[:span]
        new = np.empty(span - q_lo, dtype=bool)
        new[0] = True
        np.logical_or(own[q_lo + 1:], own[q_lo:-1], out=new[1:])
        slab = np.cumsum(new) - 1
        firsts = np.flatnonzero(new) + q_lo     # each slab's first step
        R_from, R_to, slabs = R_plus[firsts], R_plus[firsts + 1], len(firsts)

    fix_rows = fix_cols = None        # nonzero hop corrections, by slab
    if np.count_nonzero(moves):
        zout = ledger.zout[i:i_e + 2, 1:]
        zin = ledger.zin[i:i_e + 2, 1:]
        diff = R_plus - R_now
        moved = moves[1:span].nonzero()[0] + 1  # steps q with frozen moves
        if moved.size:
            out_shift = _shift(diff[moved], zout[moved])
            in_shift = _shift(diff[moved + 1], zin[moved])
            at = moved if slab is None else slab[moved - q_lo]
            # (slab, l, in_l + out_k over every k) and (slab, k, out_k)
            m, to = in_shift.nonzero()
            fix_rows = (at[m], to, in_shift[m, to, None] + out_shift[m])
            m, frm = out_shift.nonzero()
            fix_cols = (at[m], frm, out_shift[m, frm, None])

    # hop(q): the boundary into slot t+q (ledger row i+q)
    if slab is None:
        # one block: step q is slab q, built at ledger.block[q] (up to
        # index n for a new arrival, whose index 0 stays unused)
        if span > q_lo:
            _boundaries(ledger.block[q_lo:], R_plus[q_lo:span],
                        R_plus[q_lo + 1:], b, hD, hop_backend, b0)
            if fix_rows is not None:
                _correct(ledger.block, 0, span, fix_rows, fix_cols)
        hop = ledger.block.__getitem__
    else:
        block, s0 = (), 0

        def slab_at(s):
            # slab s, built in one block with up to n - 1 slabs after it
            nonlocal block, s0
            if not s0 <= s < s0 + len(block):
                s0, s1 = s, min(s + n, slabs)
                block = _boundaries(ledger.block, R_from[s0:s1], R_to[s0:s1],
                                    b, hD, hop_backend, b0)
                if fix_rows is not None:
                    _correct(block, s0, s1, fix_rows, fix_cols)
            return block[s - s0]

        slab_of = slab.tolist() + [-1]

        def hop(q):
            s = slab_of[q - q_lo]
            if slab_of[q - q_lo + 1] != s:
                return slab_at(s)
            # the next step reads this slab too, and _min_path adds in place
            ledger.spare[...] = slab_at(s)
            return ledger.spare

    first = ld[0]                     # _min_path never writes into it
    if t > 1 and moves[0]:
        first = first + _shift(diff[1], zin[0])
    if k >= 0:
        first = first + hop(0)[:, k]
    # leaving a congested cloud after the column ends still shifts frozen
    # migrations over the next boundary
    tail = None
    if t_e + 1 <= window.end and moves[span]:
        tail = _shift(diff[-1], zout[span])
    return first, ld, hop, tail


def place_on_arrival(instance: ServiceInstance, t: int,
                     matrix: ConfigurationMatrix,
                     instances: list[ServiceInstance],
                     model: CostModel,
                     prev_config: dict[int, int] | None = None,
                     distance: DistanceContext | None = None,
                     want_cost: bool = False, *,
                     ledger: WindowLedger | None = None) -> PlacementOutcome:
    """Fill one instance's column over [t, t_e] optimally, others frozen.

    t_e = min(instance.planned_end, window end): the declared lifetime
    counts from the instance's own arrival, also when a carried instance
    is placed again at a window start. Raises ValueError when t is outside
    the window, before the instance's arrival or after planned_end, or
    when the instance's column already holds a cloud. The DP state per
    slot is the instance's cloud id; transition costs are evaluated on
    the full joint state (frozen columns included), so congestion effects
    are exact. Instances are matched to the matrix columns by id. Ties go
    to the smallest final cloud, then the smallest predecessor at each
    boundary going back (see _min_path).

    The step provider is chosen once, before routing: _fast_steps for
    the capacity/backend family, _generic_steps for any other model. In
    that family the ledger refuses a frozen MMC load at or over capacity
    (ValueError, see WindowLedger), so no fast delta is inf - inf.

    ledger, when given, must own `matrix` (run_online keeps one per
    window) and be built for `model` (else ValueError). Without one, a
    throwaway ledger is built on a copy, and the caller's matrix is left
    as it was, its data array included. Every family writes the column
    through the ledger (WindowLedger.write); outcome.matrix is the
    ledger's matrix. No cost is reported: want_cost must be False (True
    raises ValueError), and costs.window_cost prices outcome.matrix.
    """
    window = matrix.window
    if not (window.t0 <= t <= window.end):
        raise ValueError("arrival slot outside window")
    if t < instance.arrival_slot:
        raise ValueError("arrival slot before the instance's arrival")
    if t > instance.planned_end:
        raise ValueError("arrival slot after the instance's planned end")
    if instance.id not in matrix._col:
        raise ValueError("matrix has no column for the arriving instance")
    if np.count_nonzero(matrix.data[:, matrix._col[instance.id]]):
        raise ValueError("the arriving instance is already placed")
    if ledger is not None and matrix.data.base is not ledger.place:
        raise ValueError("ledger does not own the matrix")
    if ledger is not None and ledger.model is not model:
        raise ValueError("ledger was built for another cost model")
    if want_cost:         # kept only for perfbench's calls, as --jobs 1 is
        raise ValueError("no window cost here: use costs.window_cost")
    t_e = int(min(instance.planned_end, window.end))

    out = matrix if ledger is not None else matrix.copy()
    ledger = ledger or WindowLedger(out, instances, model, prev_config,
                                    distance)
    generic = ledger.base is None
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = (_generic_steps if generic else _fast_steps)(
            instance, t, t_e, ledger)
        path, relax, saturated = _min_path(*steps)
    ledger.write(ledger.col[instance.id], t, path)
    return PlacementOutcome(out, relax, saturated)


def handle_departure(instance_id: int, t: int,
                     matrix: ConfigurationMatrix, *,
                     ledger: WindowLedger) -> ConfigurationMatrix:
    """Zero an instance's column strictly after slot t (departure at end of t).

    ledger owns `matrix` (run_online keeps one per window): the column is
    cleared in place, the ledger is refreshed for the slots that change
    and `matrix` itself is returned. Raises ValueError when the matrix has
    no column for the instance or the ledger does not own it.
    """
    if instance_id not in matrix._col:
        raise ValueError("matrix has no column for the departing instance")
    if matrix.data.base is not ledger.place:
        raise ValueError("ledger does not own the matrix")
    q = matrix.window.index_of(t)
    cleared = np.flatnonzero(matrix.data[q + 1:, matrix._col[instance_id]])
    matrix.zero_after(instance_id, t)
    if cleared.size:
        ledger.refresh(t + 1, t + 1 + int(cleared[-1]))
    return matrix


@dataclass
class Run:
    """One run of run_windows, which fills the first three fields; its
    solver counts the rest (see run_windows)."""

    placements: dict[int, dict[int, int]] = field(default_factory=dict)
    actual_by_slot: dict[int, float] = field(default_factory=dict)
    migrations_by_slot: dict[int, int] = field(default_factory=dict)
    relaxations_per_arrival: list[int] = field(default_factory=list)
    saturated_events: int = 0    # arrivals whose every route cost inf
    overflows: int = 0           # a/b placements that found no MMC room

    @property
    def total_cost(self) -> float:
        return sum(self.actual_by_slot.values())


def run_windows(horizon: int, window_size: int,
                instances: list[ServiceInstance], oracle,
                distance: DistanceContext | None, solve) -> Run:
    """The window loop of run_online, offline.run_offline and the
    simulator's one-slot policies a, b and c.

    Tiles [1, horizon] into windows of window_size slots (the last one may
    be shorter) and calls solve(window, model, prev_config, columns, run)
    on each: model is oracle.predicted_model(t0, window), prev_config the
    placement map of slot t0-1, columns the instances in that map plus
    those arriving in the window, in id order, and run the one Run that
    every call gets and the loop returns. solve returns the window's
    ConfigurationMatrix over those columns and counts on run: run_online's
    relaxations_per_arrival and saturated_events, the simulator's a/b
    overflows. The loop records each slot's map in run.placements and,
    once the last window is placed, charges run.actual_by_slot and
    run.migrations_by_slot from the maps by charge_placements.
    """
    by_id = {inst.id: inst for inst in instances}
    arrivals_at: dict[int, list[int]] = {}
    for inst in instances:
        arrivals_at.setdefault(inst.arrival_slot, []).append(inst.id)
    run = Run()
    prev_config: dict[int, int] = {}
    t0 = 1
    while t0 <= horizon:
        window = Window(t0, min(window_size, horizon - t0 + 1))
        ids = list(prev_config)
        for t in window.slots:
            ids += arrivals_at.get(t, ())
        ids.sort()
        columns = [by_id[iid] for iid in ids]
        matrix = solve(window, oracle.predicted_model(t0, window),
                       prev_config, columns, run)
        column_id = matrix.instance_ids.__getitem__
        for t, row in zip(window.slots, matrix.data):
            on = row.nonzero()[0]
            run.placements[t] = dict(zip(map(column_id, on.tolist()),
                                         row[on].tolist()))
        prev_config = run.placements[window.end]
        t0 += window.T
    run.actual_by_slot, run.migrations_by_slot = charge_placements(
        oracle.actual, run.placements, instances, distance)
    return run


def run_online(horizon: int, window_size: int,
               instances: list[ServiceInstance], oracle,
               distance: DistanceContext | None = None) -> Run:
    """Full-horizon online control loop: run_windows, placing arrivals.

    instances carry their true arrival/departure slots; the loop only
    reveals them at those slots. Each arrival is planned up to its
    planned_end; it departs at the end of its last_slot. A window's
    carried-over columns, those with last_slot >= t0, re-enter as arrivals
    at its start, keeping their slot t0-1 cloud as the migration baseline.
    """
    def solve(window, model, prev_config, columns, run):
        matrix = ConfigurationMatrix(window, [i.id for i in columns])
        ledger = WindowLedger(matrix, columns, model, prev_config, distance)
        # a column arrives at its first slot in the window and departs at
        # the end of its last_slot; one that left at t0-1 does neither
        arrive: dict[int, list[ServiceInstance]] = {}
        depart: dict[float, list[int]] = {}
        for inst in columns:
            last = inst.last_slot
            if last >= window.t0:
                arrive.setdefault(max(inst.arrival_slot, window.t0),
                                  []).append(inst)
                depart.setdefault(last, []).append(inst.id)
        for t in window.slots:
            for inst in arrive.get(t, ()):
                outcome = place_on_arrival(inst, t, matrix, columns, model,
                                           prev_config, distance,
                                           ledger=ledger)
                run.relaxations_per_arrival.append(outcome.relaxations)
                run.saturated_events += outcome.saturated
            for iid in depart.get(t, ()):
                handle_departure(iid, t, matrix, ledger=ledger)
        return matrix

    return run_windows(horizon, window_size, instances, oracle, distance,
                       solve)
