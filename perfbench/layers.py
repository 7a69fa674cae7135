"""Per-layer probes for the traced run: which bindings to wrap, what to count, what to check."""
from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from dispatchlab import dispatch, gpi, simulator, transfer, valuation

import checks
from tracer import Tracer

# every LP_EVERY-th matching is re-solved as an LP; every EXCESS_EVERY-th
# slice solve with data is compared with the QP optimum
LP_EVERY = 50
EXCESS_EVERY = 36

# span names in table order; each is a layer function the traced run times
LAYERS = (
    "gpi.prepare_source",
    "gpi.day_loop",
    "gpi.evaluate_policy_value",
    "gpi.buffer_concat",
    "simulator.run_day",
    "simulator.generate_window",
    "simulator.apply_matching",
    "dispatch.build_problem",
    "dispatch.advantage_transform",
    "dispatch.km_match",
    "valuation.from_tuples",
    "valuation.dp_evaluate",
    "transfer.transfer_evaluate",
    "transfer.solve_time_step",
)

# counters reported by name; simulator.windows and transfer.slice_solves are
# the call counts of generate_window and solve_time_step
COUNTS = (
    "simulator.windows",
    "transfer.slice_solves",
    "simulator.orders",
    "simulator.idle_drivers",
    "dispatch.assignment_cells",
    "dispatch.matched_orders",
    "valuation.tuples",
    "transfer.solver_iterations",
    "transfer.capped_solves",
)
CALLS_IN_COUNTS = {"simulator.generate_window", "transfer.solve_time_step"}


class Probes:
    """Installs the wrappers on a Tracer and keeps the check state."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts = tracer.counts
        self.excess: List[float] = []

    def install(self) -> None:
        t = self.tracer
        t.patch(gpi, "prepare_source", "gpi.prepare_source")
        t.patch(gpi, "run_experiment", "gpi.day_loop")
        t.patch(gpi, "repeat_single_day", "gpi.day_loop")
        t.patch(gpi, "evaluate_policy_value", "gpi.evaluate_policy_value")
        for method in ("source_arrays", "target_arrays", "all_arrays"):
            t.patch(gpi.Buffer, method, "gpi.buffer_concat")
        t.patch(gpi, "run_day", "simulator.run_day")
        t.patch(simulator, "generate_window", "simulator.generate_window", count=self._window)
        t.patch(simulator, "apply_matching", "simulator.apply_matching")
        # value policies call build_problem through gpi, greedy_scores through dispatch
        t.patch(gpi, "build_problem", "dispatch.build_problem")
        t.patch(dispatch, "build_problem", "dispatch.build_problem")
        t.patch(gpi, "advantage_transform", "dispatch.advantage_transform")
        t.patch(gpi, "km_match", "dispatch.km_match", count=self._match, check=self._check_match)
        t.patch(valuation.TupleArrays, "from_tuples", "valuation.from_tuples", count=self._tuples)
        t.patch(gpi, "dp_evaluate", "valuation.dp_evaluate", check=self._check_dp)
        t.patch(gpi, "transfer_evaluate", "transfer.transfer_evaluate")
        t.patch(
            transfer,
            "solve_time_step",
            "transfer.solve_time_step",
            count=self._solve,
            check=self._check_solve,
        )

    # -- counts ----------------------------------------------------------
    def _window(self, out, *args, **kwargs) -> None:
        orders, drivers = out
        self.counts["simulator.windows"] += 1
        self.counts["simulator.orders"] += len(orders)
        self.counts["simulator.idle_drivers"] += len(drivers)

    def _match(self, result, problem) -> None:
        m, n = len(problem.drivers), len(problem.orders)
        self.counts["dispatch.assignment_cells"] += m * (n + m)
        self.counts["dispatch.matched_orders"] += sum(k is not None for k in result.assignment)
        self.counts["bench.matchings"] += 1

    def _tuples(self, out, cls, tuples) -> None:
        self.counts["valuation.tuples"] += len(tuples)

    def _solve(self, result, cells, targets, v_src_t, spec, opt, warm_start=None) -> None:
        self.counts["transfer.slice_solves"] += 1
        self.counts["transfer.solver_iterations"] += result.iterations
        self.counts["transfer.capped_solves"] += int(result.iterations >= opt.max_iters)

    # -- checks ----------------------------------------------------------
    def _check_match(self, result, problem) -> None:
        checks.matching_objective(problem.scores, problem.feasible, result.assignment)
        if self.counts["bench.matchings"] % LP_EVERY == 1:
            checks.check_matching_optimal(problem.scores, problem.feasible, result.assignment)
            self.counts["bench.lp_checks"] += 1

    def _check_dp(self, table, buffer, world, gamma, init=None) -> None:
        arr = valuation.as_arrays(buffer)
        reference = checks.backward_induction(
            arr.start_t,
            arr.start_cell,
            arr.finish_t,
            arr.finish_cell,
            arr.reward,
            arr.duration,
            world.horizon,
            world.n_cells,
            gamma,
            None if init is None else init.values,
        )
        checks.check_table(table.values, reference)
        self.counts["bench.dp_checks"] += 1

    def _check_solve(self, result, cells, targets, v_src_t, spec, opt, warm_start=None) -> None:
        n = len(v_src_t)
        warm = np.zeros(n) if warm_start is None else np.asarray(warm_start, dtype=float)
        args = (cells, targets, v_src_t, spec.pairs, spec.lam, spec.margin)
        checks.check_not_worse(
            checks.penalized_objective(result.values, *args),
            checks.penalized_objective(warm, *args),
        )
        if len(cells):
            self.counts["bench.data_solves"] += 1
            if self.counts["bench.data_solves"] % EXCESS_EVERY == 0:
                self.excess.append(checks.objective_excess(result.values, *args))

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """(value, unit) of per-layer self times, call counts and counters."""
        times = self.tracer.self_times()
        out: Dict[str, Tuple[float, str]] = {}
        for name in LAYERS:
            seconds, calls = times.get(name, (0.0, 0))
            out[f"{name}_s"] = (seconds, "s")
            if name not in CALLS_IN_COUNTS:
                out[f"{name}_calls"] = (calls, "count")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        excess = float(np.median(self.excess)) if self.excess else 0.0
        out["transfer.objective_excess"] = (excess, "ratio")
        return out
