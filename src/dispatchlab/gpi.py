"""Day-loop orchestration: evaluate a value table, dispatch greedily, repeat.

Implements the five experiment policies. All of them dispatch with the exact
bipartite matcher; they differ only in where their Q-values come from.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

# advantage_transform is unused here: perfbench/layers.py times it through this binding
from .dispatch import advantage_transform, build_problem, km_match  # noqa: F401
from .scenario import Scenario
from .simulator import DayMetrics, Policy, run_day
from .transfer import ConcordanceSpec, OptimizerSettings, transfer_evaluate
from .valuation import TupleArrays, ValueTable, dp_evaluate
from .world import GridWorld

PHASE_SOURCE = 0
PHASE_TARGET = 1


class PolicyKind(enum.Enum):
    GREEDY = "greedy"
    SOURCE_ONLY = "source_only"
    TARGET_ONLY = "target_only"
    NAIVELY_COMBINE = "naively_combine"
    PATTERN_TRANSFER = "pattern_transfer"

    @property
    def reads_lambda(self) -> bool:
        """Whether the concordance weight lambda can change this policy's runs."""
        return self is PolicyKind.PATTERN_TRANSFER


@dataclass
class Buffer:
    """Per-day transition collections, split by originating environment.

    Each view is a list of day parts, each sorted by start time. The
    evaluators read every backup slice from the parts themselves, so no
    merged copy of the buffer is ever made. The three views stay because
    perfbench/layers.py times them.
    """

    source_days: List[TupleArrays] = field(default_factory=list)
    target_days: List[TupleArrays] = field(default_factory=list)

    def source_arrays(self) -> List[TupleArrays]:
        return list(self.source_days)

    def target_arrays(self) -> List[TupleArrays]:
        return list(self.target_days)

    def all_arrays(self) -> List[TupleArrays]:
        return self.source_days + self.target_days


def evaluate_policy_value(
    kind: PolicyKind,
    buffer: Buffer,
    v_src: Optional[ValueTable],
    spec: Optional[ConcordanceSpec],
    world: GridWorld,
    gamma: float,
    opt: Optional[OptimizerSettings] = None,
    prev: Optional[ValueTable] = None,
) -> ValueTable:
    """Learn the day's value table per policy variant.

    Target-fitting variants warm-start from the previous day's table. The
    source-only table is `v_src` itself, the DP fit of the source days, on
    every day. `opt=None` means `OptimizerSettings()` (100 iterations, tol
    1e-10), not `Scenario.optimizer_settings()` (250 iterations, tol 1e-5 by
    default), which the GPI loop passes.
    """
    T, n = world.horizon, world.n_cells
    if kind is PolicyKind.GREEDY:
        return ValueTable.zeros(T, n, gamma)
    if kind is PolicyKind.SOURCE_ONLY:
        if v_src is None:
            raise ValueError("source_only needs the source table")
        return v_src
    if kind is PolicyKind.TARGET_ONLY:
        return dp_evaluate(buffer.target_arrays(), world, gamma, init=prev)
    if kind is PolicyKind.NAIVELY_COMBINE:
        if not buffer.source_days:
            raise ValueError("naively_combine needs source data")
        return dp_evaluate(buffer.all_arrays(), world, gamma)
    if kind is PolicyKind.PATTERN_TRANSFER:
        if v_src is None or spec is None:
            raise ValueError("pattern_transfer needs a source table and a concordance spec")
        return transfer_evaluate(
            buffer.target_arrays(), v_src, spec, world, gamma, opt=opt, init=prev
        )
    raise ValueError(f"unknown policy kind: {kind}")


def value_dispatch_policy(
    value: ValueTable, gamma: float, world: GridWorld, radius: Optional[int]
) -> Policy:
    """Collectively greedy dispatch w.r.t. a value table: exact matching on Q-scores."""

    def policy(drivers, orders, t):
        return km_match(build_problem(drivers, orders, value, gamma, world, radius)).assignment

    return policy


def myopic_policy(gamma: float, world: GridWorld, radius: Optional[int]) -> Policy:
    """Exact matching on instant discounted rewards: the value policy of an all-zero table."""
    zero = ValueTable.zeros(world.horizon, world.n_cells, gamma)
    return value_dispatch_policy(zero, gamma, world, radius)


@dataclass
class SourceData:
    """Logged source-environment days plus the value table estimated from them."""

    days: List[TupleArrays]
    v_src: ValueTable
    pairs: List[Tuple[int, int]]


def prepare_source(scenario: Scenario, gamma: float, seed: int) -> SourceData:
    """Run the myopic policy in the source environment and fit its value table.

    The source value comes from a plain DP fit on the logged days, which keeps
    source preparation deterministic and shared across policies.
    """
    world = scenario.build_world()
    model = scenario.build_source_model()
    policy = myopic_policy(gamma, world, scenario.pickup_radius)
    days = []
    for day in range(scenario.source_days):
        tuples, _ = run_day(
            world, model, policy, gamma, scenario.seed + seed, phase=PHASE_SOURCE, day=day
        )
        days.append(tuples)
    v_src = dp_evaluate(days, world, gamma)
    spec = scenario.concordance_spec(v_src)
    return SourceData(days=days, v_src=v_src, pairs=spec.pairs)


@dataclass
class DayRow:
    day: int
    reward: float
    answer_rate: float
    completion_rate: float
    orders_created: int
    orders_answered: int
    orders_completed: int


def _gpi_passes(
    scenario: Scenario,
    kind: PolicyKind,
    schedule: Sequence[int],
    gamma: float,
    seed: int,
    lam: Optional[float],
    source: Optional[SourceData],
) -> Iterator[Tuple[DayMetrics, ValueTable, Optional[ValueTable]]]:
    """GPI over the target days in `schedule`: evaluate, dispatch the day, absorb the data.

    Yields each pass's day metrics, the table it dispatched with and the
    table of the pass before (None on the first). Demand realizations
    depend only on (scenario seed, seed, day, window), so different
    policies run against identical order streams.
    """
    world = scenario.build_world()
    target_model = scenario.build_target_model()
    if source is None:
        source = prepare_source(scenario, gamma, seed)
    spec = ConcordanceSpec(
        pairs=source.pairs,
        lam=scenario.lam if lam is None else lam,
        margin=scenario.margin,
    )
    opt = scenario.optimizer_settings()
    buffer = Buffer(source_days=list(source.days))
    prev: Optional[ValueTable] = None
    for day in schedule:
        value = evaluate_policy_value(
            kind, buffer, source.v_src, spec, world, gamma, opt=opt, prev=prev
        )
        policy = value_dispatch_policy(value, gamma, world, scenario.pickup_radius)
        tuples, metrics = run_day(
            world, target_model, policy, gamma, scenario.seed + seed, phase=PHASE_TARGET, day=day
        )
        buffer.target_days.append(tuples)
        yield metrics, value, prev
        prev = value


def run_experiment(
    scenario: Scenario,
    kind: PolicyKind,
    days: int,
    gamma: float,
    seed: int,
    lam: Optional[float] = None,
    source: Optional[SourceData] = None,
) -> List[DayRow]:
    """GPI over target days 0 .. days - 1, one row per day."""
    passes = _gpi_passes(scenario, kind, range(days), gamma, seed, lam, source)
    return [
        DayRow(
            day=day,
            reward=metrics.reward,
            answer_rate=metrics.answer_rate,
            completion_rate=metrics.completion_rate,
            orders_created=metrics.orders_created,
            orders_answered=metrics.orders_answered,
            orders_completed=metrics.orders_completed,
        )
        for day, (metrics, _, _) in enumerate(passes)
    ]


@dataclass
class RepeatRow:
    iteration: int
    reward: float
    value_delta: float


def repeat_single_day(
    scenario: Scenario,
    kind: PolicyKind,
    repetitions: int,
    gamma: float,
    seed: int,
    lam: Optional[float] = None,
    source: Optional[SourceData] = None,
) -> List[RepeatRow]:
    """GPI over target day 0, `repetitions` times, updating the value table between passes.

    value_delta is the sup-norm change of the table against the previous
    iteration's table.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    passes = _gpi_passes(scenario, kind, [0] * repetitions, gamma, seed, lam, source)
    return [
        RepeatRow(
            iteration=it,
            reward=metrics.reward,
            value_delta=(
                float("inf") if prev is None else float(np.max(np.abs(value.values - prev.values)))
            ),
        )
        for it, (metrics, value, prev) in enumerate(passes)
    ]
