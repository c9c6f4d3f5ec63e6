"""Placement matrices, service instances, and look-ahead windows.

Clouds are indexed 1..K with 0 meaning "not running". A placement matrix
covers one window of T consecutive slots and holds one column per service
instance; each column is nonzero on at most one contiguous block of slots.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Window:
    """Consecutive slot range [t0, t0+T-1]."""

    t0: int
    T: int

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"window length must be >= 1, got {self.T}")
        if self.t0 < 1:
            raise ValueError(f"window start must be >= 1, got {self.t0}")

    @property
    def end(self) -> int:
        return self.t0 + self.T - 1

    @property
    def slots(self) -> range:
        return range(self.t0, self.t0 + self.T)

    def index_of(self, t: int) -> int:
        """Window-relative index (0-based) of absolute slot t."""
        if not (self.t0 <= t <= self.end):
            raise IndexError(f"slot {t} outside window [{self.t0}, {self.end}]")
        return t - self.t0


@dataclass(frozen=True)
class ServiceInstance:
    """One service instance with scalar per-slot demands.

    local_demand is consumed at whichever cloud hosts the instance,
    migration_demand on the (from, to) pair whenever it moves. ids increase
    with arrival order and are never recycled within a run.

    max_lifetime is the stay declared at arrival, so planned_end = arrival
    + max_lifetime - 1 is what a planner may know. actual_departure_slot is
    the slot the instance would leave after (None = unknown); it leaves
    after last_slot = min(planned_end, actual_departure_slot).
    """

    id: int
    arrival_slot: int
    local_demand: float = 1.0
    migration_demand: float = 1.0
    max_lifetime: float = math.inf
    actual_departure_slot: int | None = None
    user_id: int | None = None

    def __post_init__(self):
        if self.id < 1:
            raise ValueError("instance ids are positive integers")
        if self.arrival_slot < 1:
            raise ValueError("arrival slots are numbered from 1")
        # written so that NaN fails each check
        for name in ("local_demand", "migration_demand"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if not self.max_lifetime >= 1:
            raise ValueError("max_lifetime must be >= 1 slot")
        if (self.actual_departure_slot is not None
                and self.actual_departure_slot < self.arrival_slot):
            raise ValueError("departure before arrival")

    @property
    def planned_end(self) -> float:
        """Last slot the instance could run, per its declared lifetime."""
        return self.arrival_slot + self.max_lifetime - 1

    @property
    def last_slot(self) -> float:
        """Last slot the instance is actually present."""
        if self.actual_departure_slot is None:
            return self.planned_end
        return min(self.planned_end, self.actual_departure_slot)

    def active_span(self, window: Window) -> tuple[int, int] | None:
        """Slot range [start, end] the instance may occupy within window.

        The end slot is min(last_slot, window end). Returns None when the
        span is empty.
        """
        start = max(self.arrival_slot, window.t0)
        end = min(self.last_slot, window.end)
        if start > end:
            return None
        return start, int(end)


class ConfigurationMatrix:
    """Window-relative placement grid: one row per slot, one column per instance.

    Entries are cloud ids in {0..K}; row q corresponds to absolute slot
    t0 + q. Columns are addressed by instance id.
    """

    def __init__(self, window: Window, instance_ids: list[int]):
        self.window = window
        self.instance_ids = list(instance_ids)
        self.data = np.zeros((window.T, len(self.instance_ids)), dtype=np.int64)

    @functools.cached_property
    def _col(self) -> dict[int, int]:
        """Column of each instance id, built on first use."""
        return dict(zip(self.instance_ids, range(len(self.instance_ids))))

    def copy(self) -> "ConfigurationMatrix":
        out = object.__new__(ConfigurationMatrix)
        out.window = self.window
        out.instance_ids = list(self.instance_ids)
        out.data = self.data.copy()
        return out

    def column(self, instance_id: int) -> np.ndarray:
        return self.data[:, self._col[instance_id]].copy()

    def set_column(self, instance_id: int, values) -> None:
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (self.window.T,):
            raise ValueError("column length must equal window length")
        self.data[:, self._col[instance_id]] = values

    def get(self, instance_id: int, t: int) -> int:
        return int(self.data[self.window.index_of(t), self._col[instance_id]])

    def set(self, instance_id: int, t: int, cloud: int) -> None:
        self.data[self.window.index_of(t), self._col[instance_id]] = cloud

    def slot_state(self, t: int) -> tuple[int, ...]:
        """Joint placement at absolute slot t, in instance_ids order."""
        return tuple(int(v) for v in self.data[self.window.index_of(t), :])

    def zero_after(self, instance_id: int, t: int) -> None:
        """Clear an instance's placement strictly after slot t."""
        q = self.window.index_of(t)
        self.data[q + 1:, self._col[instance_id]] = 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConfigurationMatrix)
                and self.window == other.window
                and self.instance_ids == other.instance_ids
                and np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return (f"ConfigurationMatrix(t0={self.window.t0}, T={self.window.T}, "
                f"instances={self.instance_ids})\n{self.data}")


@dataclass(frozen=True)
class Violation:
    slot: int | None
    instance_id: int
    message: str


def _contiguous_block(col: np.ndarray) -> bool:
    nz = np.flatnonzero(col)
    if nz.size == 0:
        return True
    return nz[-1] - nz[0] + 1 == nz.size


def validate_configuration(matrix: ConfigurationMatrix,
                           instances: list[ServiceInstance]) -> Violation | None:
    """Check column shape rules; returns the first violation or None.

    Each column must be one contiguous nonzero block lying inside the
    instance's active span within the window.
    """
    by_id = {inst.id: inst for inst in instances}
    if set(by_id) != set(matrix.instance_ids):
        raise ValueError("instance list does not match matrix columns")
    win = matrix.window
    for iid in matrix.instance_ids:
        col = matrix.data[:, matrix._col[iid]]
        if not _contiguous_block(col):
            nz = np.flatnonzero(col)
            gap = next(q for q in range(nz[0], nz[-1] + 1) if col[q] == 0)
            return Violation(win.t0 + gap, iid, "nonzero entries are not contiguous")
        span = by_id[iid].active_span(win)
        for q in np.flatnonzero(col):
            t = win.t0 + int(q)
            if span is None or not (span[0] <= t <= span[1]):
                return Violation(t, iid, "placement outside instance's active span")
    return None


def feasible_sequences(instance: ServiceInstance, window: Window,
                       K: int) -> list[tuple[int, ...]]:
    """All length-T placement sequences for one instance.

    Nonzero with values 1..K exactly on the instance's active span, zero
    elsewhere; K^(span length) sequences, or the single all-zero sequence
    when the span is empty.
    """
    if K < 1:
        raise ValueError("need at least one cloud")
    span = instance.active_span(window)
    if span is None:
        return [(0,) * window.T]
    lo = window.index_of(span[0])
    hi = window.index_of(span[1])
    out = []
    for choice in itertools.product(range(1, K + 1), repeat=hi - lo + 1):
        seq = [0] * window.T
        seq[lo:hi + 1] = choice
        out.append(tuple(seq))
    return out
