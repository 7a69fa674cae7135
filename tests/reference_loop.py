"""Object-per-record day loop: the oracle for the columnar simulator.

This is the day loop written one Python object per order, idle driver and
transition: `DriverSlot`, `OrderRequest`, `State` and `TransitionTuple`.
Its policies score each pair with the scalar reward definition and solve
them with `km_match`. It draws from the same RNG streams in the same order as
`dispatchlab.simulator`, so for equal inputs the columnar loop must return
the same columns as its tuples stored in full (`conftest.FullPart`) and the same
`DayRow`, bit for bit. `run_day(..., scripted=)` serves listed orders
in place of sampled demand, as `reference_objects.script_orders` makes the
columnar loop do.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from dispatchlab import (
    ConstraintViolation,
    DayRow,
    DemandModel,
    DriverSlot,
    GridWorld,
    OrderRequest,
    State,
    ValueTable,
    km_match,
)
from dispatchlab.dispatch import MatchProblem
from dispatchlab.simulator import window_rng

from reference_objects import TransitionTuple, truncated_discounted_reward

Assignment = Tuple[DriverSlot, Optional[OrderRequest]]
ObjectPolicy = Callable[[List[DriverSlot], List[OrderRequest], int], List[Assignment]]
Scripted = Optional[Dict[int, List[OrderRequest]]]


class DriverPool:
    """Fleet state: current cell and busy-until time per driver."""

    def __init__(self, driver_counts: np.ndarray):
        cells = np.repeat(np.arange(len(driver_counts)), driver_counts)
        self.cell = cells.astype(np.int64)
        self.busy_until = np.zeros(len(cells), dtype=np.int64)

    def idle_at(self, t: int) -> List[DriverSlot]:
        ids = np.nonzero(self.busy_until <= t)[0]
        return [DriverSlot(int(i), State(t, int(self.cell[i]))) for i in ids]

    def occupy(self, driver_id: int, until: int, cell: int) -> None:
        self.busy_until[driver_id] = until
        self.cell[driver_id] = cell


def generate_window(
    model: DemandModel, world: GridWorld, t: int, rng, pool: DriverPool, scripted: Scripted
) -> Tuple[List[OrderRequest], List[DriverSlot]]:
    drivers = pool.idle_at(t)
    if scripted is not None:
        return list(scripted.get(t, [])), drivers
    counts = rng.poisson(model.rates[t])
    total = int(counts.sum())
    if total == 0:
        return [], drivers
    origins = np.repeat(np.arange(model.n_cells), counts)
    u = rng.random(total)
    # the destination is the number of CDF entries <= u: the same integers
    # as the simulator's searchsorted, found another way
    dests = (model.destination_cdf <= u[:, None]).sum(axis=1)
    dests = np.minimum(dests, model.n_cells - 1)
    durations = world.travel_time[origins, dests]
    noise = rng.uniform(1.0 - model.revenue_noise, 1.0 + model.revenue_noise, total)
    revenues = (model.base_fare + model.price_per_step * durations) * noise
    return [
        OrderRequest(int(o), int(d), float(r), int(dt), t)
        for o, d, r, dt in zip(origins, dests, revenues, durations)
    ], drivers


def apply_matching(
    assignments: Sequence[Assignment], t: int, gamma: float, world: GridWorld
) -> List[TransitionTuple]:
    T = world.horizon
    seen_drivers = set()
    seen_orders = set()
    out = []
    for driver, order in assignments:
        if driver.driver_id in seen_drivers:
            raise ConstraintViolation(f"driver {driver.driver_id} assigned twice")
        seen_drivers.add(driver.driver_id)
        start = driver.state
        if order is None:
            out.append(TransitionTuple(start, None, 0.0, State(t + 1, start.cell), 1))
            continue
        if id(order) in seen_orders:
            raise ConstraintViolation("order assigned to two drivers")
        seen_orders.add(id(order))
        pickup = int(world.pickup_matrix[start.cell, order.origin])
        duration = pickup + order.duration
        finish_t = min(t + duration, T)
        reward = gamma**pickup * truncated_discounted_reward(
            order.revenue, order.duration, gamma, T - (t + pickup)
        )
        out.append(
            TransitionTuple(start, order, reward, State(finish_t, order.destination), duration)
        )
    return out


def run_day(
    world: GridWorld,
    model: DemandModel,
    policy: ObjectPolicy,
    gamma: float,
    seed: int,
    phase: int = 0,
    day: int = 0,
    scripted: Scripted = None,
) -> Tuple[List[TransitionTuple], DayRow]:
    pool = DriverPool(model.driver_counts)
    reward, created, answered, completed = 0.0, 0, 0, 0
    tuples: List[TransitionTuple] = []
    for t in range(world.horizon):
        rng = window_rng(seed, phase, day, t)
        orders, drivers = generate_window(model, world, t, rng, pool, scripted)
        created += len(orders)
        if not drivers:
            continue
        assignments = policy(drivers, orders, t)
        cancel_u = window_rng(seed, phase, day, t, stream=1).random(max(1, len(orders)))
        order_ids = {id(o): k for k, o in enumerate(orders)}
        executed: List[Assignment] = []
        for driver, order in assignments:
            if order is None:
                executed.append((driver, None))
                continue
            answered += 1
            pickup = int(world.pickup_matrix[driver.state.cell, order.origin])
            p_complete = min(1.0, max(0.0, 1.0 - model.cancellation * pickup))
            if cancel_u[order_ids[id(order)]] < p_complete:
                completed += 1
                executed.append((driver, order))
            else:
                executed.append((driver, None))
        new_tuples = apply_matching(executed, t, gamma, world)
        for (driver, _), tr in zip(executed, new_tuples):
            if not tr.is_idle:
                reward += tr.reward_discounted
            pool.occupy(driver.driver_id, tr.finish.t, tr.finish.cell)
        tuples.extend(new_tuples)
    answer_rate = 1.0 if created == 0 else answered / created
    completion_rate = 1.0 if answered == 0 else completed / answered
    return tuples, DayRow(day, reward, answer_rate, completion_rate, created, answered, completed)


def build_problem(
    drivers: Sequence[DriverSlot],
    orders: Sequence[OrderRequest],
    value: ValueTable,
    gamma: float,
    world: GridWorld,
    radius: Optional[int] = None,
) -> MatchProblem:
    """Q-value scores pair by pair from the scalar reward definition.

    MatchProblem only needs len() of both lists.
    """
    m, n = len(drivers), len(orders)
    T = value.horizon
    scores = np.zeros((m, n + 1))
    feasible = np.ones((m, n + 1), dtype=bool)
    for l, driver in enumerate(drivers):
        t, cell = driver.state.t, driver.state.cell
        scores[l, 0] = value.values[t, cell]
        for k, order in enumerate(orders):
            pickup = int(world.pickup_matrix[cell, order.origin])
            total = pickup + order.duration
            reward = gamma**pickup * truncated_discounted_reward(
                order.revenue, order.duration, gamma, T - (t + pickup)
            )
            continuation = value.values[min(t + total, T), order.destination]
            scores[l, k + 1] = gamma**total * continuation + reward
            feasible[l, k + 1] = t + pickup < T and (radius is None or pickup <= radius)
    return MatchProblem(list(drivers), list(orders), scores, feasible)


def _pairs(drivers, orders, result) -> List[Assignment]:
    return [
        (drivers[l], orders[k] if k is not None else None)
        for l, k in enumerate(result.assignment)
    ]


def value_policy(
    value: ValueTable, gamma: float, world: GridWorld, radius: Optional[int]
) -> ObjectPolicy:
    """Exact matching on Q-value advantages (scores minus each row's idle value)."""

    def policy(drivers, orders, t):
        p = build_problem(drivers, orders, value, gamma, world, radius)
        offsets = p.scores[:, 0].copy()
        advantage = MatchProblem(p.drivers, p.orders, p.scores - offsets[:, None], p.feasible)
        return _pairs(drivers, orders, km_match(advantage))

    return policy


def myopic_policy(gamma: float, world: GridWorld, radius: Optional[int]) -> ObjectPolicy:
    """Exact matching on instant rewards: the scores of an all-zero table."""
    zero = ValueTable.zeros(world.horizon, world.n_cells, gamma)

    def policy(drivers, orders, t):
        problem = build_problem(drivers, orders, zero, gamma, world, radius)
        return _pairs(drivers, orders, km_match(problem))

    return policy
