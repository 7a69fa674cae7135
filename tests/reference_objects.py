"""The object-per-record forms of orders and transitions, and the scalar
definitions that the columnar library is checked against.

`dispatchlab` holds orders, drivers and transitions as columns. These
references stay one Python object or one scalar per record:
`TransitionTuple`, `order_batch` (an `OrderBatch` from `OrderRequest`
objects), the scalar reward `truncated_discounted_reward`, the scalar
Q-score `q_value` and the least-squares `td_evaluate`. `script_orders`
makes `run_day` serve listed orders in place of sampled demand.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from dispatchlab import DriverSlot, GridWorld, OrderBatch, OrderRequest, State, ValueTable
from dispatchlab import simulator
from dispatchlab.valuation import BufferLike, backup_start, td_slice


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


def order_batch(requests: Sequence[OrderRequest], t: int = 0) -> OrderBatch:
    """OrderBatch of OrderRequest objects created at window t."""
    return OrderBatch(
        [o.origin for o in requests],
        [o.destination for o in requests],
        [o.revenue for o in requests],
        [o.duration for o in requests],
        t,
    )


def script_orders(monkeypatch, scripted: Dict[int, List[OrderRequest]]) -> None:
    """Make `run_day` serve `scripted[t]` at window t (no orders elsewhere)
    in place of sampled demand.

    `run_day` looks `generate_window` up as a module global every window, so
    the fake replaces it there. The fake draws nothing from stream 0; the
    cancellation draws of stream 1 are unchanged.
    """

    def generate_window(model, world, t, rng, pool):
        return order_batch(scripted.get(t, []), t), pool.idle_at(t)

    monkeypatch.setattr(simulator, "generate_window", generate_window)


def truncated_discounted_reward(
    revenue: float, duration: int, gamma: float, steps_allowed: int
) -> float:
    """Discounted sum of equal per-window revenue installments inside the horizon.

    The revenue is split into `duration` installments paid at offsets
    0 .. duration-1, and the first `steps_allowed` of them count. With
    steps_allowed >= duration, gamma = 1 recovers the full revenue.
    """
    if duration < 1:
        raise ValueError(f"duration must be >= 1, got {duration}")
    paid = min(duration, max(0, steps_allowed))
    if paid == 0:
        return 0.0
    per_step = revenue / duration
    if gamma == 1.0:
        return per_step * paid
    return per_step * (1.0 - gamma**paid) / (1.0 - gamma)


def q_value(
    value: ValueTable,
    driver: DriverSlot,
    order: Optional[OrderRequest],
    gamma: float,
    world: GridWorld,
) -> float:
    """Score of offering `order` to `driver` (or of leaving it idle).

    The null option is the driver's own state value. For an order, the
    discount exponent spans pickup plus trip, the continuation value is read
    at the (truncated) finish state, and the revenue installments are paid
    over the on-trip windows only, delayed by the pickup travel.
    """
    t = driver.state.t
    if order is None:
        return value.get(t, driver.state.cell)
    T = world.horizon
    pickup = int(world.pickup_matrix[driver.state.cell, order.origin])
    total = pickup + order.duration
    finish_t = min(t + total, T)
    r_k = gamma**pickup * truncated_discounted_reward(
        order.revenue, order.duration, gamma, T - (t + pickup)
    )
    return gamma**total * value.get(finish_t, order.destination) + r_k


def td_evaluate(
    buffer: BufferLike,
    world: GridWorld,
    gamma: float,
    init: Optional[ValueTable] = None,
) -> ValueTable:
    """Least-squares TD estimate, solved per time step via a linear system.

    At each t the squared TD error over the slice is minimized with all
    later-time values already fixed; the design matrix is the one-hot cell
    encoding, solved with numpy's least-squares routine rather than the
    closed-form mean so this path stays independent of dp_evaluate.
    """
    arr, values = backup_start(buffer, world, init)
    n = world.n_cells
    for t in range(world.horizon - 1, -1, -1):
        cells, targets = td_slice(arr, t, values, gamma)
        if len(cells) == 0:
            continue
        design = np.zeros((len(cells), n))
        design[np.arange(len(cells)), cells] = 1.0
        sol, _, _, _ = np.linalg.lstsq(design, targets, rcond=None)
        covered = np.bincount(cells, minlength=n) > 0
        values[t, covered] = sol[covered]
    return ValueTable(values, gamma)
