"""Episode simulator: order generation, matching execution, full-day runs.

Demand for a given (seed, phase, day, window) is drawn from its own RNG
stream, so runs with different dispatch policies see identical order
realizations under a shared seed (common random numbers).

A window travels as columns: `generate_window` returns an `OrderBatch` and
the idle drivers as a `DriverBatch`, the policy returns one order index (or
None) per driver, and `apply_matching` turns that into the window's rows of
a `TupleArrays` buffer.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .valuation import INDEX_DTYPE, TupleArrays, discount_table, served_transition
from .world import ConstraintViolation, DemandModel, DriverBatch, GridWorld, OrderBatch

# A policy maps (drivers, orders, t) to one entry per driver: the index of
# the order it serves, or None to stay idle (the km_match assignment form).
Policy = Callable[[DriverBatch, OrderBatch, int], Sequence[Optional[int]]]


@dataclass
class DayMetrics:
    reward: float = 0.0
    orders_created: int = 0
    orders_answered: int = 0
    orders_completed: int = 0

    @property
    def answer_rate(self) -> float:
        if self.orders_created == 0:
            return 1.0
        return self.orders_answered / self.orders_created

    @property
    def completion_rate(self) -> float:
        if self.orders_answered == 0:
            return 1.0
        return self.orders_completed / self.orders_answered


class DriverPool:
    """Mutable fleet state: current cell and busy-until time per driver."""

    def __init__(self, driver_counts: np.ndarray):
        cells = np.repeat(np.arange(len(driver_counts)), driver_counts)
        self.cell = cells.astype(np.int64)
        self.busy_until = np.zeros(len(cells), dtype=np.int64)

    def idle_at(self, t: int) -> DriverBatch:
        ids = (self.busy_until <= t).nonzero()[0]
        return DriverBatch(ids, self.cell[ids], t)

    def occupy(self, driver_id, until, cell) -> None:
        """Mark drivers busy until `until`, ending in `cell` (scalars or arrays)."""
        self.busy_until[driver_id] = until
        self.cell[driver_id] = cell


def window_rng(seed: int, phase: int, day: int, t: int, stream: int = 0) -> np.random.Generator:
    """Dedicated RNG stream per dispatch window (and sub-stream).

    This defines the streams; `DayStreams` derives the same generator states
    for a whole day at once.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, phase, day, t, stream)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# seeding step (pcg64.h), for DayStreams. All SeedSequence arithmetic is on
# uint32 words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(n: int) -> List[int]:
    """An entropy integer as SeedSequence splits it: little-endian 32-bit words."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_sequence_pools(entropy: np.ndarray) -> List[np.ndarray]:
    """SeedSequence(column).pool for every column of a (words, N) uint32 array.

    Every column has at least _POOL_SIZE words, so none is padded with zeros.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    mixer = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixer[i_dst] = mix(mixer[i_dst], hashmix(mixer[i_src]))
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            mixer[i_dst] = mix(mixer[i_dst], hashmix(entropy[i_src]))
    return mixer


def _pcg64_states(pools: List[np.ndarray]) -> List[dict]:
    """PCG64(SeedSequence).state for each column of SeedSequence pools.

    PCG64 seeds from generate_state(4, uint64): eight hashed 32-bit words,
    cycling through the pool, read as four little-endian 64-bit words
    (state high, state low, increment high, increment low).
    """
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pools[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ (value >> 16)).tolist())
    states = []
    for w in zip(*words):
        seed = (w[1] << 96) | (w[0] << 64) | (w[3] << 32) | w[2]
        inc = (((w[5] << 96) | (w[4] << 64) | (w[7] << 32) | w[6]) << 1 | 1) & _MASK128
        # pcg64_srandom_r: step from 0, add the seed, step again
        state = ((inc + seed) * _PCG_MULT + inc) & _MASK128
        states.append(
            {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
        )
    return states


class DayStreams:
    """The `window_rng` streams of every window of one day, from one Generator.

    The PCG64 states of both streams of all `n_windows` windows are derived
    in one vectorised pass of SeedSequence's hash; `rng` then resets a
    single reused Generator to the state `window_rng` would start from. The
    draws are the same, bit for bit. The returned Generator is the same
    object on every call, so a stream is used up before the next is asked for.
    """

    def __init__(self, seed: int, phase: int, day: int, n_windows: int):
        head = _uint32_words(seed) + _uint32_words(phase) + _uint32_words(day)
        # one column per (stream, t), stream-major: entropy (seed, phase, day, t, stream)
        entropy = np.empty((len(head) + 2, 2 * n_windows), dtype=np.uint32)
        entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
        entropy[len(head)] = np.tile(np.arange(n_windows), 2)
        entropy[len(head) + 1] = np.repeat([0, 1], n_windows)
        self._states = _pcg64_states(_seed_sequence_pools(entropy))
        self._n = n_windows
        self._rng = np.random.Generator(np.random.PCG64(0))

    def rng(self, t: int, stream: int = 0) -> np.random.Generator:
        """The Generator, set to where `window_rng(..., t, stream)` starts."""
        self._rng.bit_generator.state = self._states[stream * self._n + t]
        return self._rng


def generate_window(
    model: DemandModel,
    world: GridWorld,
    t: int,
    rng: np.random.Generator,
    pool: DriverPool,
) -> Tuple[OrderBatch, DriverBatch]:
    """Draw this window's orders and list the idle drivers.

    Order counts are Poisson per cell; destinations follow the model's one
    destination distribution; revenue is distance-proportional with
    multiplicative noise; duration is the origin-destination travel time. The
    draws are, in order: poisson counts, one uniform per order for its
    destination, one revenue-noise factor per order.
    """
    if not 0 <= t < world.horizon:
        raise ValueError(f"window index {t} outside [0, {world.horizon})")
    drivers = pool.idle_at(t)
    counts = rng.poisson(model.rates[t])
    total = int(counts.sum())
    if total == 0:
        return OrderBatch.empty(t), drivers
    origins = np.repeat(np.arange(model.n_cells), counts)
    u = rng.random(total)
    dests = np.searchsorted(model.destination_cdf, u, side="right")
    dests = np.minimum(dests, model.n_cells - 1)
    durations = world.travel_time[origins, dests]
    noise = rng.uniform(1.0 - model.revenue_noise, 1.0 + model.revenue_noise, total)
    revenues = (model.base_fare + model.price_per_step * durations) * noise
    return OrderBatch(origins, dests, revenues, durations, t), drivers


def as_order_index(assignment: Sequence[Optional[int]], m: int, n: int) -> np.ndarray:
    """The km_match assignment form for m drivers and n orders as an int64
    array, -1 for idle. Another length, an entry that is not an integer
    (a float or a bool), or one that is neither -1 nor an order, raises
    ConstraintViolation."""
    if isinstance(assignment, np.ndarray):
        k, kinds = assignment, {assignment.dtype.type}
    else:
        k = [-1 if x is None else x for x in assignment]
        kinds = set(map(type, k))
    bad = [t for t in kinds if t is bool or not issubclass(t, (int, np.integer))]
    if bad and len(k):
        raise ConstraintViolation(f"assignment entry of type {bad[0].__name__} is not an order")
    k = np.array(k, dtype=np.int64)  # a copy: run_day writes cancelled entries into it
    if k.shape != (m,):
        raise ConstraintViolation(f"assignment has {len(k)} entries for {m} drivers")
    if m and (k.min() < -1 or k.max() >= n):
        bad = k[(k < -1) | (k >= n)][0]
        raise ConstraintViolation(f"assignment entry {bad} is neither one of {n} orders nor -1")
    return k


def apply_matching(
    drivers: DriverBatch,
    orders: OrderBatch,
    assignment: Sequence[Optional[int]],
    gamma: float,
    world: GridWorld,
) -> TupleArrays:
    """Turn one window's assignment into its transition tuples, one per driver.

    `assignment[l]` is the order driver l serves, or None (or -1) to idle.
    Serve tuples cover pickup plus trip with the truncated, pickup-delayed
    installment reward; idle tuples advance one window in place. Duplicate
    drivers or orders, and entries that `as_order_index` rejects, raise
    ConstraintViolation.
    """
    t, T, m = drivers.t, world.horizon, len(drivers)
    k = as_order_index(assignment, m, len(orders))
    if m > 1 and np.bincount(drivers.driver_id).max() > 1:
        raise ConstraintViolation("a driver is assigned twice")
    serve = (k >= 0).nonzero()[0]
    ko = k[serve]
    if ko.size and np.bincount(ko).max() > 1:
        raise ConstraintViolation("an order is assigned to two drivers")
    pickup = world.pickup_matrix[drivers.cell[serve], orders.origin[ko]]
    trip = orders.duration[ko]
    powers = discount_table(gamma, int(pickup.max(initial=0) + trip.max(initial=0)) + 1)
    duration, finish_t, reward = served_transition(
        t, pickup, trip, orders.revenue[ko], T, gamma, powers
    )
    # the part keeps the serving drivers' rows in full and derives the idle ones
    start_cell = drivers.cell.astype(INDEX_DTYPE)
    return TupleArrays.window(
        t, start_cell, serve, finish_t, orders.destination[ko], duration, reward
    )


def run_day(
    world: GridWorld,
    model: DemandModel,
    policy: Policy,
    gamma: float,
    seed: int,
    phase: int = 0,
    day: int = 0,
) -> Tuple[TupleArrays, DayMetrics]:
    """Simulate one full day of dispatch windows.

    Accepted orders may be cancelled before completion with probability
    cancellation * pickup_wait (clamped to [0, 1]); a cancelled order leaves
    its driver idling for the window and earns nothing, but still counts as
    answered. Order k is cancelled when the k-th of the window's
    `random(max(1, n_orders))` draws on RNG stream 1 is not below its
    completion probability. A model whose rates are not (world.horizon,
    world.n_cells) raises ValueError.
    """
    if model.rates.shape != (world.horizon, world.n_cells):
        raise ValueError(
            f"demand model rates have shape {model.rates.shape}, "
            f"the world needs ({world.horizon}, {world.n_cells})"
        )
    pool = DriverPool(model.driver_counts)
    streams = DayStreams(seed, phase, day, world.horizon)
    metrics = DayMetrics()
    windows = []
    for t in range(world.horizon):
        orders, drivers = generate_window(model, world, t, streams.rng(t), pool)
        metrics.orders_created += len(orders)
        if not len(drivers):
            continue
        k = as_order_index(policy(drivers, orders, t), len(drivers), len(orders))
        serve = (k >= 0).nonzero()[0]
        if serve.size:
            metrics.orders_answered += serve.size
            cancel_u = streams.rng(t, stream=1).random(max(1, len(orders)))
            pickup = world.pickup_matrix[drivers.cell[serve], orders.origin[k[serve]]]
            p_complete = np.minimum(1.0, np.maximum(0.0, 1.0 - model.cancellation * pickup))
            done = cancel_u[k[serve]] < p_complete
            metrics.orders_completed += int(done.sum())
            k[serve[~done]] = -1
        window = apply_matching(drivers, orders, k, gamma, world)
        # the window keeps the serving drivers' rows in full, in driver order:
        # plain left-to-right float additions
        for r in window.full_reward.tolist():
            metrics.reward += r
        # every driver waits one window where it is, unless it serves an order
        pool.busy_until[drivers.driver_id] = t + 1
        full = window.full
        pool.occupy(drivers.driver_id[full[:, 0]], full[:, 1], full[:, 2])
        windows.append(window)
    # the windows come in start-time order: the day joins them, unsorted
    return TupleArrays.join(windows), metrics
