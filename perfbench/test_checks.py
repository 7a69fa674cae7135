"""Each benchmark check passes on real program output and fails on a corrupted copy.

    python3 -m pytest perfbench/test_checks.py -q
"""
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from dispatchlab import (  # noqa: E402
    ConcordanceSpec,
    DriverSlot,
    GridWorld,
    MatchProblem,
    OptimizerSettings,
    OrderRequest,
    State,
    TupleArrays,
    ValueTable,
    dp_evaluate,
    km_match,
    penalized_objective,
    solve_time_step,
)
from dispatchlab.gpi import DayRow, RepeatRow  # noqa: E402
from tracer import Tracer  # noqa: E402


# -- rows -------------------------------------------------------------------


def day_rows():
    def row(day, created, reward):
        return DayRow(day, reward, 0.9, 0.95, created, int(0.9 * created), int(0.855 * created))

    return {
        "greedy": [row(0, 1000, 50.0), row(1, 1010, 51.0)],
        "target_only": [row(0, 1000, 60.0), row(1, 1010, 62.0)],
    }


@pytest.mark.parametrize(
    "field, value",
    [
        ("reward", 0.0),
        ("answer_rate", 1.2),
        ("completion_rate", -0.1),
        ("orders_completed", 950),  # completed > answered (900)
        ("orders_answered", 1001),  # answered > created
        ("orders_created", 1003),  # other policies saw 1000 on this day
    ],
)
def test_day_rows_corrupted(field, value):
    rows = day_rows()
    checks.check_day_rows(rows, mean_orders=1000.0)
    rows["target_only"][0] = dataclasses.replace(rows["target_only"][0], **{field: value})
    with pytest.raises(CheckError):
        checks.check_day_rows(rows, mean_orders=1000.0)


def test_day_rows_order_count_outside_five_sigma():
    rows = day_rows()
    checks.check_day_rows(rows, mean_orders=1000.0 + 5.0 * np.sqrt(1000.0) - 11)
    with pytest.raises(CheckError):
        checks.check_day_rows(rows, mean_orders=1200.0)


@pytest.mark.parametrize(
    "index, reward, delta",
    [(1, -1.0, 0.5), (0, 10.0, 3.0), (1, 10.0, float("inf")), (1, 10.0, -0.5)],
)
def test_repeat_rows_corrupted(index, reward, delta):
    rows = {"target_only": [RepeatRow(0, 10.0, float("inf")), RepeatRow(1, 11.0, 0.5)]}
    checks.check_repeat_rows(rows)
    rows["target_only"][index] = RepeatRow(index, reward, delta)
    with pytest.raises(CheckError):
        checks.check_repeat_rows(rows)


# -- matching ---------------------------------------------------------------


def match_problem(seed=0, m=7, n=5):
    rng = np.random.default_rng(seed)
    drivers = [DriverSlot(i, State(0, i)) for i in range(m)]
    orders = [OrderRequest(0, 1, 1.0, 1, 0) for _ in range(n)]
    scores = rng.normal(size=(m, n + 1))
    scores[:, 1:] += 2.0  # orders beat idling, so the optimum serves some
    feasible = rng.random((m, n + 1)) < 0.7
    feasible[:, 0] = True
    return MatchProblem(drivers, orders, scores, feasible)


@pytest.mark.parametrize("seed", range(5))
def test_program_matching_passes(seed):
    p = match_problem(seed)
    result = km_match(p)
    checks.check_matching_optimal(p.scores, p.feasible, result.assignment)


def test_matching_duplicate_order_fails():
    p = match_problem()
    assignment = list(km_match(p).assignment)
    l, k = next((l, k) for l, k in enumerate(assignment) if k is not None)
    other = next(i for i in range(len(assignment)) if i != l)
    p.feasible[other, k + 1] = True
    assignment[other] = k
    with pytest.raises(CheckError, match="two drivers"):
        checks.matching_objective(p.scores, p.feasible, assignment)


def test_matching_infeasible_pair_fails():
    p = match_problem()
    assignment = list(km_match(p).assignment)
    l, k = next((l, k) for l, k in enumerate(assignment) if k is not None)
    p.feasible[l, k + 1] = False
    with pytest.raises(CheckError, match="infeasible"):
        checks.matching_objective(p.scores, p.feasible, assignment)


def test_matching_suboptimal_fails():
    p = match_problem()
    assignment = list(km_match(p).assignment)
    l = next(l for l, k in enumerate(assignment) if k is not None)
    assignment[l] = None  # drop a served order: feasible, but worse
    with pytest.raises(CheckError, match="LP optimum"):
        checks.check_matching_optimal(p.scores, p.feasible, assignment)


# -- DP tables --------------------------------------------------------------


def random_arrays(rng, horizon=12, n=5, size=300):
    start_t = rng.integers(0, horizon, size)
    duration = rng.integers(1, 4, size)
    finish_t = np.minimum(start_t + duration, horizon)
    return TupleArrays(
        start_t,
        rng.integers(0, n, size),
        finish_t,
        rng.integers(0, n, size),
        rng.random(size) * 5.0,
        duration,
    )


@pytest.mark.parametrize("warm", [False, True])
def test_dp_table_perturbed_cell_fails(warm):
    rng = np.random.default_rng(3)
    world = GridWorld(5, 12, np.ones((5, 5), dtype=int))
    arr = random_arrays(rng)
    init = None
    if warm:
        values = rng.normal(size=(13, 5))
        values[-1] = 0.0
        init = ValueTable(values, 0.9)
    table = dp_evaluate(arr, world, 0.9, init=init).values
    args = (arr.start_t, arr.start_cell, arr.finish_t, arr.finish_cell, arr.reward, arr.duration)
    reference = checks.backward_induction(
        *args, 12, 5, 0.9, None if init is None else init.values
    )
    checks.check_table(table, reference)
    table[4, 2] += 1e-6
    with pytest.raises(CheckError, match="t=4, cell=2"):
        checks.check_table(table, reference)


# -- slice solves -----------------------------------------------------------


def slice_case(seed=0, n=6, size=40):
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, n - 1, size)  # the last cell has no data
    targets = rng.normal(size=size) * 3.0 + cells
    v_src = rng.normal(size=n) * 2.0
    spec = ConcordanceSpec(pairs=[(0, 3), (1, 4), (2, 5), (0, 5)], lam=0.8, margin=1.0)
    warm = rng.normal(size=n)
    return cells, targets, v_src, spec, warm


@pytest.mark.parametrize("seed", range(4))
def test_objective_matches_program_definition(seed):
    cells, targets, v_src, spec, warm = slice_case(seed)
    ours = checks.penalized_objective(warm, cells, targets, v_src, spec.pairs, spec.lam, spec.margin)
    assert ours == pytest.approx(penalized_objective(warm, cells, targets, v_src, spec), rel=1e-12)


def test_solve_worse_than_warm_start_fails():
    cells, targets, v_src, spec, warm = slice_case()
    args = (cells, targets, v_src, spec.pairs, spec.lam, spec.margin)
    result = solve_time_step(cells, targets, v_src, spec, OptimizerSettings(max_iters=50), warm)
    f_warm = checks.penalized_objective(warm, *args)
    checks.check_not_worse(checks.penalized_objective(result.values, *args), f_warm)
    worse = result.values.copy()
    worse[cells[0]] += 100.0
    with pytest.raises(CheckError, match="above its warm start"):
        checks.check_not_worse(checks.penalized_objective(worse, *args), f_warm)


def test_slice_optimum_small_case():
    # 2 (v0 - 1)^2 + (v1 - 1)^2 + max(0, 1 - (v1 - v0)): optimum 0.625 at (0.75, 1.5)
    v = checks.slice_optimum(
        np.array([0, 0, 1]), np.ones(3), np.array([0.0, 1.0]), [(0, 1)], 1.0, 1.0
    )
    np.testing.assert_allclose(v, [0.75, 1.5], atol=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_slice_optimum_beats_long_solve(seed):
    cells, targets, v_src, spec, warm = slice_case(seed)
    args = (cells, targets, v_src, spec.pairs, spec.lam, spec.margin)
    long = solve_time_step(
        cells, targets, v_src, spec, OptimizerSettings(max_iters=20000, patience=20000), warm
    )
    excess = checks.objective_excess(long.values, *args)
    assert -1e-6 <= excess < 1e-2
    assert checks.objective_excess(warm, *args) > excess


# -- tracer and entry point ---------------------------------------------------


def test_tracer_self_time_and_restore():
    import types

    mod = types.SimpleNamespace()
    mod.__dict__["inner"] = lambda x: x + 1
    mod.__dict__["outer"] = lambda x: mod.inner(x) * 2
    inner, outer = mod.inner, mod.outer
    t = Tracer()
    t.patch(mod, "inner", "inner", check=lambda out, x: None)
    t.patch(mod, "outer", "outer")
    assert mod.outer(1) == 4
    t.restore()
    assert mod.inner is inner and mod.outer is outer
    names = [s[0] for s in t.spans]
    assert names == ["outer", "inner", "bench.check"]
    times = t.self_times()
    outer_span = t.spans[0][2] - t.spans[0][1]
    children = sum(s[2] - s[1] for s in t.spans[1:])
    assert times["outer"][0] == pytest.approx(outer_span - children)


def test_run_fails_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "transfer_gpi", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout == ""
