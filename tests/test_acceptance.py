"""End-to-end acceptance checks, one per numbered criterion.

Each check records a single ``[PASS]``/``[FAIL]`` line that conftest prints
in the terminal summary, then asserts.
"""

import time

import numpy as np
import pytest
from scipy.stats import binomtest

from dispatchlab import (
    ConcordanceSpec,
    GridWorld,
    OptimizerSettings,
    PolicyKind,
    TupleArrays,
    ValueTable,
    advantage_transform,
    concordance_loss,
    dp_evaluate,
    km_match,
    prepare_source,
    repeat_single_day,
    run_experiment,
    transfer_evaluate,
)
from dispatchlab.gpi import myopic_policy
from dispatchlab.scenario import default_scenario
from dispatchlab.simulator import run_day
from dispatchlab.transfer import (
    concordance_rate_report,
    hinge_penalty,
    objective_gradient,
    penalized_objective,
    solve_time_step,
)
from dispatchlab.valuation import as_arrays

from conftest import (
    ACCEPTANCE_LINES,
    brute_force_match,
    grid_search_oracle,
    random_buffer,
)
from test_dispatch import random_problem


def record(criterion, ok, detail):
    ACCEPTANCE_LINES.append(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_dp_td_equivalence():
    world = GridWorld(20, 48, np.ones((20, 20), dtype=int))
    rng = np.random.default_rng(101)
    zero_src = ValueTable.zeros(48, 20, 0.9)
    spec = ConcordanceSpec(pairs=[], lam=0.0)
    opt = OptimizerSettings(max_iters=1500, tol=0.0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        buf = random_buffer(rng, world, 1000, reward_scale=5.0)
        arr = TupleArrays.from_tuples(buf)
        v_dp = dp_evaluate(arr, world, 0.9)
        v_td = transfer_evaluate(arr, zero_src, spec, world, 0.9, opt=opt)
        worst = max(worst, float(np.max(np.abs(v_td.values - v_dp.values))))
    elapsed = time.perf_counter() - start
    record(
        1,
        worst < 1e-6 and elapsed < 10.0,
        f"max |transfer_evaluate(lam=0) - dp_evaluate| = {worst:.2e} "
        f"(< 1e-6), runtime {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_km_exactness():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    mismatches = 0
    argmax_changes = 0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(0, 7))
        p = random_problem(rng, m, n)
        res = km_match(p)
        best_obj, best_assign = brute_force_match(p)
        if abs(res.objective - best_obj) != 0.0:
            mismatches += 1
        if km_match(advantage_transform(p)).assignment != res.assignment:
            argmax_changes += 1
    elapsed = time.perf_counter() - start
    record(
        2,
        mismatches == 0 and argmax_changes == 0 and elapsed < 5.0,
        f"200 instances: {mismatches} objective mismatches vs brute force, "
        f"{argmax_changes} argmax changes under advantage_transform, "
        f"runtime {elapsed:.1f}s (< 5s)",
    )


def test_criterion_3_subgradient_correctness():
    rng = np.random.default_rng(303)
    n = 6
    pairs = [(0, 3), (1, 4), (2, 5)]
    checked = 0
    worst_rel = 0.0
    h = 1e-6
    while checked < 1000:
        spec = ConcordanceSpec(
            pairs=pairs, lam=float(rng.uniform(0.1, 3.0)), margin=float(rng.uniform(0.5, 3.0))
        )
        v = rng.normal(scale=4.0, size=n)
        v_src = rng.normal(scale=4.0, size=n)
        cells = rng.integers(0, n, size=8)
        targets = rng.normal(scale=4.0, size=8)
        pi, pj = spec.pair_arrays
        sign_src = np.sign(v_src[pj] - v_src[pi])
        slack = spec.margin - sign_src * (v[pj] - v[pi])
        if np.min(np.abs(slack)) < 1e-3:  # too close to a hinge kink
            continue
        grad = objective_gradient(v, cells, targets, v_src, spec)
        fd = np.empty(n)
        for i in range(n):
            vp, vm = v.copy(), v.copy()
            vp[i] += h
            vm[i] -= h
            fd[i] = (
                penalized_objective(vp, cells, targets, v_src, spec)
                - penalized_objective(vm, cells, targets, v_src, spec)
            ) / (2 * h)
        rel = float(np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd)))
        worst_rel = max(worst_rel, rel)
        checked += 1

    violations = 0
    for _ in range(10_000):
        margin = float(rng.uniform(1.0, 5.0))
        spec = ConcordanceSpec(pairs=[(0, 1)], lam=1.0, margin=margin)
        v_t = rng.normal(scale=5.0, size=2)
        v_src_t = rng.normal(scale=5.0, size=2)
        hinge = hinge_penalty(v_t, v_src_t, spec)
        d_t = v_t[1] - v_t[0]
        d_src = v_src_t[1] - v_src_t[0]
        indicator = 1.0 if d_t * d_src < 0 else 0.0
        if hinge < indicator:
            violations += 1
    record(
        3,
        worst_rel < 1e-5 and violations == 0,
        f"1000 non-kink points: max FD rel-err {worst_rel:.2e} (< 1e-5); "
        f"hinge >= indicator violations {violations}/10000",
    )


def test_criterion_4_optimizer_soundness():
    rng = np.random.default_rng(404)
    opt = OptimizerSettings(max_iters=20_000, tol=1e-16)
    worst_gap = 0.0
    trace_violations = 0
    for _ in range(50):
        n_tuples = int(rng.integers(1, 6))
        cells = rng.integers(0, 2, size=n_tuples)
        targets = rng.uniform(-2.0, 2.0, size=n_tuples)
        v_src = rng.normal(scale=2.0, size=2)
        spec = ConcordanceSpec(
            pairs=[(0, 1)], lam=float(rng.uniform(0.1, 2.0)), margin=float(rng.uniform(0.2, 2.0))
        )
        res = solve_time_step(cells, targets, v_src, spec, opt)
        lo = float(targets.min() - spec.margin - 1.0)
        hi = float(targets.max() + spec.margin + 1.0)
        oracle = grid_search_oracle(cells, targets, v_src, spec, lo, hi, res=1e-3)
        worst_gap = max(worst_gap, res.best_objective - oracle)
        if np.any(np.diff(res.trace) > 0):
            trace_violations += 1
    record(
        4,
        worst_gap < 2e-3 and trace_violations == 0,
        f"50 instances: max objective gap vs grid search {worst_gap:.2e} (< 2e-3); "
        f"nonincreasing-trace violations {trace_violations}",
    )


def test_criterion_5_concordance_loss_invariants():
    rng = np.random.default_rng(505)
    T, n = 6, 8
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)][:12]
    spec = ConcordanceSpec(pairs=pairs)
    identity = reversal = symmetry = affine = 0
    for _ in range(1000):
        a = ValueTable(np.vstack([rng.normal(size=(T, n)), np.zeros(n)]), 0.9)
        b = ValueTable(np.vstack([rng.normal(size=(T, n)), np.zeros(n)]), 0.9)
        neg_a = ValueTable(np.vstack([-a.values[:-1], np.zeros(n)]), 0.9)
        alpha = float(rng.uniform(0.1, 5.0))
        beta = float(rng.normal(scale=3.0))
        scaled_b = ValueTable(np.vstack([alpha * b.values[:-1] + beta, np.zeros(n)]), 0.9)
        if concordance_loss(a, a, spec) != 0.0:
            identity += 1
        if concordance_loss(neg_a, a, spec) != 1.0:
            reversal += 1
        if concordance_loss(a, b, spec) != concordance_loss(b, a, spec):
            symmetry += 1
        if concordance_loss(a, scaled_b, spec) != concordance_loss(a, b, spec):
            affine += 1
    record(
        5,
        identity == reversal == symmetry == affine == 0,
        f"1000 table pairs each: identity={identity}, reversal={reversal}, "
        f"symmetry={symmetry}, affine={affine} violations",
    )


def test_criterion_6_default_scenario_concordance():
    start = time.perf_counter()
    sc = default_scenario()
    world = sc.build_world()
    gamma = 0.9
    policy = myopic_policy(gamma, world, world.horizon, sc.pickup_radius)
    src_model = sc.build_source_model()
    tgt_model = sc.build_target_model()
    src_days, tgt_days = [], []
    for day in range(3):
        s, _ = run_day(world, src_model, policy, gamma, 0, phase=0, day=day)
        t, _ = run_day(world, tgt_model, policy, gamma, 0, phase=1, day=day)
        src_days.append(s)
        tgt_days.append(t)
    v_src = dp_evaluate(as_arrays(src_days), world, gamma)
    v_tgt = dp_evaluate(as_arrays(tgt_days), world, gamma)
    spec = sc.concordance_spec(v_src)
    rate = concordance_rate_report(v_src, v_tgt, spec).aggregate
    elapsed = time.perf_counter() - start
    record(
        6,
        rate > 0.80 and elapsed < 30.0,
        f"oracle DP concordance on auto pair set = {rate:.3f} (> 0.80), "
        f"runtime {elapsed:.1f}s (< 30s)",
    )


N_SEEDS = 10
DAYS = 11
GAMMA = 0.9


@pytest.fixture(scope="module")
def experiment_grid():
    """Per-policy (seed, day) rewards, the grid's runtime with its source
    preparation, and each seed's source data, which criterion 8 reuses."""
    sc = default_scenario()
    kinds = list(PolicyKind)
    rewards = {kind: [] for kind in kinds}
    sources = []
    start = time.perf_counter()
    for seed in range(N_SEEDS):
        sources.append(prepare_source(sc, GAMMA, seed))
        for kind in kinds:
            rows = run_experiment(sc, kind, DAYS, GAMMA, seed, source=sources[-1])
            rewards[kind].append([row.reward for row in rows])
    elapsed = time.perf_counter() - start
    return {kind: np.array(days) for kind, days in rewards.items()}, elapsed, sources


def test_criterion_7a_jumpstart(experiment_grid):
    rewards, _, _ = experiment_grid
    pt = rewards[PolicyKind.PATTERN_TRANSFER][:, 0]
    to = rewards[PolicyKind.TARGET_ONLY][:, 0]
    wins = int(np.sum(pt > to))
    p = binomtest(wins, N_SEEDS, 0.5, alternative="greater").pvalue
    record(
        "7a",
        p < 0.05,
        f"day-1 pattern_transfer > target_only on {wins}/{N_SEEDS} seeds, "
        f"one-sided sign test p = {p:.4f} (< 0.05)",
    )


def test_criterion_7b_early_days(experiment_grid):
    rewards, _, _ = experiment_grid
    pt = float(rewards[PolicyKind.PATTERN_TRANSFER][:, :5].mean())
    to = float(rewards[PolicyKind.TARGET_ONLY][:, :5].mean())
    record(
        "7b",
        pt > to,
        f"mean reward days 1-5: pattern_transfer {pt:.0f} > target_only {to:.0f}",
    )


def test_criterion_7c_final_day_ordering(experiment_grid):
    rewards, elapsed, _ = experiment_grid
    final = {kind: float(days[:, -1].mean()) for kind, days in rewards.items()}
    pt = final[PolicyKind.PATTERN_TRANSFER]
    greedy = final[PolicyKind.GREEDY]
    middle = {
        kind: final[kind]
        for kind in (PolicyKind.TARGET_ONLY, PolicyKind.NAIVELY_COMBINE, PolicyKind.SOURCE_ONLY)
    }
    ok = all(pt >= v for v in middle.values()) and all(v >= greedy for v in middle.values())
    ordering = ", ".join(f"{kind.value}={v:.0f}" for kind, v in final.items())
    record(
        "7c",
        ok and elapsed < 300.0,
        f"final-day means: {ordering}; grid runtime {elapsed:.0f}s (< 300s)",
    )


def _iters_to_95(rows):
    final = rows[-1].reward
    threshold = 0.95 * final
    for row in rows:
        if row.reward >= threshold:
            return row.iteration
    return rows[-1].iteration


def test_criterion_8_repeated_day_convergence(experiment_grid):
    _, _, sources = experiment_grid
    sc = default_scenario()
    wins = 0
    for seed, source in enumerate(sources):
        pt = repeat_single_day(sc, PolicyKind.PATTERN_TRANSFER, 5, GAMMA, seed, source=source)
        to = repeat_single_day(sc, PolicyKind.TARGET_ONLY, 5, GAMMA, seed, source=source)
        if _iters_to_95(pt) <= _iters_to_95(to):
            wins += 1
    record(
        8,
        wins >= 8,
        f"iterations to 95% of final reward: pattern_transfer <= target_only "
        f"on {wins}/{N_SEEDS} seeds (need >= 8)",
    )


def test_criterion_9_manifest_reproducibility(tmp_path):
    import yaml
    from click.testing import CliRunner

    from dispatchlab.cli import main
    from test_cli import write_config

    cfg = write_config(tmp_path, policies=["greedy", "target_only", "pattern_transfer"])
    out1, out2 = tmp_path / "first", tmp_path / "second"
    runner = CliRunner()
    r1 = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out1)])
    assert r1.exit_code == 0, r1.output
    r2 = runner.invoke(
        main, ["simulate", "--config", str(out1 / "manifest.yaml"), "--out", str(out2)]
    )
    assert r2.exit_code == 0, r2.output
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("per_day.csv", "summary.csv")
    )
    record(
        9,
        identical,
        "manifest re-run produced byte-identical per_day.csv and summary.csv",
    )
