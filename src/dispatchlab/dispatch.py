"""Per-window collective matching of idle drivers to open orders.

Scores are long-term Q-values read from a value table (or instant rewards for
the myopic baseline); the assignment itself is solved exactly as a maximum
weight bipartite matching on each pair's gain over staying idle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .valuation import ValueTable, discount_table, served_transition
from .world import DriverBatch, GridWorld, OrderBatch


@dataclass(eq=False)
class MatchProblem:
    """One window's driver x order score matrix.

    scores has shape (m, n + 1); column 0 is the null (stay idle) option.
    feasible mirrors that shape; column 0 is always feasible.
    """

    drivers: DriverBatch
    orders: OrderBatch
    scores: np.ndarray
    feasible: np.ndarray

    def __post_init__(self):
        m, w = self.scores.shape
        if w != len(self.orders) + 1:
            raise ValueError("scores must have one column per order plus the null column")
        if m != len(self.drivers):
            raise ValueError("scores must have one row per driver")
        if self.feasible.shape != self.scores.shape:
            raise ValueError("feasibility mask shape must match scores")
        if not self.feasible[:, 0].all():
            raise ValueError("the null option must always be feasible")


@dataclass(eq=False)
class MatchResult:
    """One window's matching: the order each driver serves, -1 to stay idle."""

    order_index: np.ndarray
    problem: MatchProblem

    @property
    def assignment(self) -> List[Optional[int]]:
        """order_index as a list, None for an idle driver."""
        return [None if k < 0 else k for k in self.order_index.tolist()]

    @property
    def objective(self) -> float:
        """The chosen scores, idle ones included, summed left to right."""
        k, objective = self.order_index, 0.0
        for value in self.problem.scores[np.arange(len(k)), k + 1].tolist():
            objective += value
        return objective


def build_problem(
    drivers: DriverBatch,
    orders: OrderBatch,
    value: ValueTable,
    gamma: float,
    world: GridWorld,
    radius: Optional[int] = None,
) -> MatchProblem:
    """Score every driver-order pair with its Q-value; mask infeasible pairs.

    A pair is infeasible when the pickup travel exceeds the radius limit or
    when service could not start before the end of the day.

    A pair's score and feasibility depend on the driver only through its
    cell, so each distinct idle-driver cell is scored once and its row is
    copied to every driver waiting there.
    """
    m, n = len(drivers), len(orders)
    T = value.horizon
    t = drivers.t
    scores = np.zeros((m, n + 1))
    feasible = np.ones((m, n + 1), dtype=bool)
    scores[:, 0] = value.values[t, drivers.cell]
    if m == 0 or n == 0:
        return MatchProblem(drivers, orders, scores, feasible)

    waiting = np.zeros(world.n_cells, dtype=bool)
    waiting[drivers.cell] = True
    cells = waiting.nonzero()[0]
    row_of = (np.cumsum(waiting) - 1).take(drivers.cell)  # driver -> row of its cell
    pickup = world.pickup_matrix.take(cells, 0).take(orders.origin, 1)
    powers = discount_table(gamma, int(pickup.max() + orders.duration.max()) + 1)
    total, finish_t, reward = served_transition(
        t, pickup, orders.duration, orders.revenue, T, gamma, powers
    )
    continuation = value.values.take(finish_t * value.n_cells + orders.destination)
    scores[:, 1:] = (powers.take(total) * continuation + reward).take(row_of, 0)

    ok = pickup < T - t
    if radius is not None:
        ok &= pickup <= radius
    feasible[:, 1:] = ok.take(row_of, 0)
    return MatchProblem(drivers, orders, scores, feasible)


def advantage_transform(p: MatchProblem) -> MatchProblem:
    """Subtract each row's null value from the whole row.

    The optimal assignment is unchanged; the objective is then the total gain
    over leaving every driver idle.
    """
    return MatchProblem(
        p.drivers, p.orders, p.scores - p.scores[:, :1], p.feasible.copy()
    )


def km_match(p: MatchProblem) -> MatchResult:
    """Exact maximum-score assignment with per-driver null options.

    Solved as one assignment on the m x n gain matrix
    G[l, k] = max(scores[l, k + 1] - scores[l, 0], 0), masked pairs 0.
    Every assignment scores sum_l scores[l, 0] plus the gains of its served
    pairs. Idling is always feasible, so a served pair with gain <= 0 can be
    dropped without lowering that total: a maximum-weight matching on G,
    minus its non-positive pairs, is an optimum of the original problem.

    Ties: a pair whose gain is exactly 0 is left idle. Among assignments
    with equal objective, the result is the one `linear_sum_assignment`
    returns on G, with drivers in batch order.
    """
    order_index = np.full(len(p.drivers), -1, dtype=np.int64)
    gain = np.where(p.feasible[:, 1:], p.scores[:, 1:] - p.scores[:, :1], 0.0)
    np.maximum(gain, 0.0, out=gain)
    rows, cols = linear_sum_assignment(gain, maximize=True)
    served = gain[rows, cols] > 0.0
    order_index[rows[served]] = cols[served]
    return MatchResult(order_index, p)
