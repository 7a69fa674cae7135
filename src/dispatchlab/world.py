"""Grid world, orders, drivers, and transition records for the dispatch SMDP.

Cells are opaque indices; geometry only enters through the travel-time table.
A day is a finite horizon of T dispatch windows, so driver states live on the
(time, cell) lattice with time running from 0 to T inclusive.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


class ConstraintViolation(ValueError):
    """An assignment or configuration breaks a hard exclusivity/validity rule."""


@dataclass(frozen=True, order=True)
class State:
    """Temporal-spatial driver state: window index and cell index."""

    t: int
    cell: int


class GridWorld:
    """Cell set plus travel times and the day horizon.

    travel_time[i, j] is the number of windows a trip from cell i to cell j
    occupies; it must be a positive integer for every pair (including i == j,
    where it is the in-cell trip time). Pickup of a driver already in the
    order's origin cell takes 0 windows.
    """

    def __init__(self, n_cells: int, horizon: int, travel_time: np.ndarray):
        if n_cells < 2:
            raise ValueError(f"n_cells must be >= 2, got {n_cells}")
        if horizon < 2:
            raise ValueError(f"horizon must be >= 2, got {horizon}")
        tt = np.asarray(travel_time)
        if tt.shape != (n_cells, n_cells):
            raise ValueError(f"travel_time shape {tt.shape} != ({n_cells}, {n_cells})")
        if not np.all(np.isfinite(tt)):
            raise ValueError("travel_time must be finite for all pairs")
        if np.any(tt < 1):
            raise ValueError("travel_time must be >= 1 for all pairs")
        self.n_cells = n_cells
        self.horizon = horizon
        self.travel_time = tt.astype(np.int64)
        # travel_time with a zero diagonal, for vectorized pickup lookups
        pickup = self.travel_time.copy()
        np.fill_diagonal(pickup, 0)
        pickup.setflags(write=False)
        self.pickup_matrix = pickup

    def pickup_time(self, from_cell: int, to_cell: int) -> int:
        """Windows needed to reach an order's origin; zero within the same cell."""
        return int(self.pickup_matrix[from_cell, to_cell])

    @classmethod
    def lattice(cls, rows: int, cols: int, horizon: int):
        """Build an L1-distance lattice world; in-cell trips take one window."""
        n = rows * cols
        r = np.arange(n) // cols
        c = np.arange(n) % cols
        dist = np.abs(r[:, None] - r[None, :]) + np.abs(c[:, None] - c[None, :])
        tt = np.maximum(1, dist)
        return cls(n, horizon, tt)


@dataclass(frozen=True)
class OrderRequest:
    origin: int
    destination: int
    revenue: float
    duration: int
    created_at: int

    def __post_init__(self):
        if self.duration < 1:
            raise ValueError(f"order duration must be >= 1, got {self.duration}")
        if self.revenue < 0:
            raise ValueError(f"order revenue must be >= 0, got {self.revenue}")


@dataclass(frozen=True)
class DriverSlot:
    """One idle driver offered to the matcher at a dispatch window."""

    driver_id: int
    state: State


class OrderBatch:
    """One window's orders as columns: row k is order k, created at window t.

    origin, destination and duration are int64 arrays, revenue is float64;
    every duration is >= 1 and every revenue >= 0.
    """

    __slots__ = ("origin", "destination", "revenue", "duration", "t")

    def __init__(self, origin, destination, revenue, duration, t: int):
        self.origin = np.asarray(origin, dtype=np.int64)
        self.destination = np.asarray(destination, dtype=np.int64)
        self.revenue = np.asarray(revenue, dtype=float)
        self.duration = np.asarray(duration, dtype=np.int64)
        self.t = t
        n = len(self.origin)
        if not (
            self.origin.ndim == 1
            and len(self.destination) == len(self.revenue) == len(self.duration) == n
            and (n == 0 or (self.duration.min() >= 1 and self.revenue.min() >= 0))
        ):
            raise ValueError(
                "an order batch needs equal-length 1-D columns, durations >= 1 "
                "and revenues >= 0"
            )

    def __len__(self) -> int:
        return len(self.origin)

    @classmethod
    def empty(cls, t: int) -> "OrderBatch":
        none = np.empty(0, dtype=np.int64)
        return cls(none, none, np.empty(0), none, t)

    @classmethod
    def from_requests(cls, requests: Sequence[OrderRequest], t: int) -> "OrderBatch":
        return cls(
            [o.origin for o in requests],
            [o.destination for o in requests],
            [o.revenue for o in requests],
            [o.duration for o in requests],
            t,
        )


class DriverBatch:
    """The idle drivers offered to the matcher at window t, as columns.

    driver_id and cell are non-negative int64 arrays of equal length; row l
    is driver driver_id[l], waiting in cell[l].
    """

    __slots__ = ("driver_id", "cell", "t")

    def __init__(self, driver_id, cell, t: int):
        self.driver_id = np.asarray(driver_id, dtype=np.int64)
        self.cell = np.asarray(cell, dtype=np.int64)
        self.t = t
        if not (
            self.driver_id.ndim == 1
            and self.driver_id.shape == self.cell.shape
            and (len(self.cell) == 0 or min(self.driver_id.min(), self.cell.min()) >= 0)
        ):
            raise ValueError(
                "a driver batch needs equal-length 1-D driver_id and cell columns, "
                "both >= 0"
            )

    def __len__(self) -> int:
        return len(self.driver_id)


@dataclass(frozen=True)
class TransitionTuple:
    """One driver decision: serve an order or idle for a window.

    Idle: finish = (start.t + 1, start.cell), reward 0, duration 1.
    Serve: duration covers pickup plus trip; finish time is truncated at the
    horizon and the reward is the truncated discounted installment sum.
    """

    start: State
    order: Optional[OrderRequest]
    reward_discounted: float
    finish: State
    duration: int

    @property
    def is_idle(self) -> bool:
        return self.order is None


@dataclass(frozen=True)
class DemandModel:
    """Synthetic per-window demand and supply for one environment.

    rates has shape (T, N): Poisson order intensity per (window, cell).
    destination has shape (N,): the probability that a trip ends in each
    cell, the same for every origin; destination_cdf is its cumulative sum.
    Revenue is base_fare + price_per_step * trip duration, jittered by a
    uniform multiplicative factor in [1 - revenue_noise, 1 + revenue_noise].
    driver_counts seeds the initial idle fleet per cell.
    cancellation is the per-pickup-window probability increment that an
    accepted order is cancelled before completion.
    scripted_orders, when set, overrides sampling for listed windows (used by
    deterministic micro-scenarios in tests).

    The model is immutable: its fields cannot be reassigned, and it keeps
    its own read-only copies of the arrays, so the checks below and
    destination_cdf stay true of it.
    """

    rates: np.ndarray
    destination: np.ndarray
    price_per_step: float
    base_fare: float
    revenue_noise: float
    driver_counts: np.ndarray
    cancellation: float = 0.0
    scripted_orders: Optional[dict] = None
    destination_cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # the model is frozen, so converted fields go in through object.__setattr__
        def own(name, value):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

        # np.array copies, so a caller's later writes cannot reach the model
        own("rates", np.array(self.rates, dtype=float))
        own("destination", np.array(self.destination, dtype=float))
        own("driver_counts", np.array(self.driver_counts, dtype=np.int64))
        if self.rates.ndim != 2:
            raise ValueError("rates must have shape (T, N)")
        n = self.rates.shape[1]
        if self.destination.shape != (n,):
            raise ValueError(f"destination shape {self.destination.shape} != ({n},)")
        if not np.all(np.isfinite(self.rates)) or np.any(self.rates < 0):
            raise ValueError("all demand rates must be finite and >= 0")
        # no negative entry, so the CDF is non-decreasing as searchsorted needs
        if not (np.all(self.destination >= 0) and abs(self.destination.sum() - 1.0) <= 1e-9):
            raise ValueError("destination probabilities must be >= 0 and sum to 1 within 1e-9")
        if np.ndim(self.price_per_step) or np.ndim(self.base_fare):
            raise ValueError("price_per_step and base_fare must be scalars")
        own("price_per_step", float(self.price_per_step))
        own("base_fare", float(self.base_fare))
        if not (self.base_fare >= 0 and self.price_per_step >= 0):
            raise ValueError("revenue parameters must be >= 0")
        if not 0.0 <= self.revenue_noise <= 1.0:
            raise ValueError(f"revenue_noise must be in [0, 1], got {self.revenue_noise}")
        if self.driver_counts.shape != (n,):
            raise ValueError("driver_counts must have shape (N,)")
        if np.any(self.driver_counts < 0):
            raise ValueError("driver_counts must be >= 0")
        # an infinite rate times a pickup of 0 windows is NaN, not 0
        if not 0.0 <= self.cancellation < np.inf:
            raise ValueError("cancellation must be finite and >= 0")
        own("destination_cdf", np.cumsum(self.destination))

    @property
    def n_cells(self) -> int:
        return self.rates.shape[1]

    @property
    def horizon(self) -> int:
        return self.rates.shape[0]
