"""Grid-cell SMDP order-dispatch testbed with concordance-penalized value transfer."""

from .world import (
    ConstraintViolation,
    DemandModel,
    DriverBatch,
    DriverSlot,
    GridWorld,
    OrderBatch,
    OrderRequest,
    State,
)
from .valuation import TupleArrays, ValueTable, dp_evaluate
from .transfer import (
    ConcordanceSpec,
    OptimizationError,
    OptimizerSettings,
    concordance_loss,
    concordance_rate_report,
    default_pair_set,
    hinge_penalty,
    objective_gradient,
    penalized_objective,
    solve_time_step,
    transfer_evaluate,
)
from .dispatch import (
    MatchProblem,
    MatchResult,
    advantage_transform,
    build_problem,
    km_match,
)
from .simulator import DayRow, DriverPool, apply_matching, generate_window, run_day
from .scenario import Scenario, ScenarioError, default_scenario
from .gpi import (
    Buffer,
    PolicyKind,
    SourceData,
    evaluate_policy_value,
    prepare_source,
    repeat_single_day,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
