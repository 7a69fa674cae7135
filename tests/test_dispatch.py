import copy

import numpy as np
import pytest

from dispatchlab import (
    DriverSlot,
    GridWorld,
    MatchProblem,
    OrderRequest,
    State,
    ValueTable,
    advantage_transform,
    build_problem,
    km_match,
)
from dispatchlab import gpi
from dispatchlab.scenario import Scenario, default_scenario
from dispatchlab.simulator import run_day

from conftest import (
    brute_force_match,
    driver_batch,
    make_world,
    null_expansion_match,
)
from reference_objects import order_batch, q_value, truncated_discounted_reward


def problem_from_scores(scores, feasible=None):
    scores = np.asarray(scores, dtype=float)
    m, w = scores.shape
    drivers = driver_batch([DriverSlot(l, State(0, 0)) for l in range(m)])
    orders = order_batch([OrderRequest(0, 1, 1.0, 1, 0) for _ in range(w - 1)])
    if feasible is None:
        feasible = np.ones_like(scores, dtype=bool)
    return MatchProblem(drivers, orders, scores, np.asarray(feasible, dtype=bool))


def random_problem(rng, m, n):
    scores = np.round(rng.normal(scale=3.0, size=(m, n + 1)), 3)
    feasible = rng.random((m, n + 1)) < 0.75
    feasible[:, 0] = True
    return problem_from_scores(scores, feasible)


class TestMatchProblem:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="column"):
            MatchProblem(
                driver_batch([DriverSlot(0, State(0, 0))]),
                order_batch([]),
                np.zeros((1, 3)),
                np.ones((1, 3), bool),
            )
        with pytest.raises(ValueError, match="row"):
            MatchProblem(
                driver_batch([]), order_batch([]), np.zeros((1, 1)), np.ones((1, 1), bool)
            )

    def test_null_must_stay_feasible(self):
        feas = np.ones((1, 1), dtype=bool)
        feas[0, 0] = False
        with pytest.raises(ValueError, match="null"):
            MatchProblem(
                driver_batch([DriverSlot(0, State(0, 0))]), order_batch([]), np.zeros((1, 1)), feas
            )


class TestBuildProblem:
    def test_no_orders_gives_null_column_only(self):
        world = make_world(3, 8)
        vals = np.zeros((9, 3))
        vals[2] = [1.0, 2.0, 3.0]
        table = ValueTable(vals, 0.9)
        drivers = driver_batch([DriverSlot(0, State(2, 1)), DriverSlot(1, State(2, 2))])
        p = build_problem(drivers, order_batch([], 2), table, 0.9, world)
        assert p.scores.shape == (2, 1)
        assert p.scores[:, 0] == pytest.approx([2.0, 3.0])

    def test_zero_table_scores_are_instant_rewards(self):
        world = make_world(3, 8)
        table = ValueTable.zeros(8, 3, 0.9)
        drivers = driver_batch([DriverSlot(0, State(0, 0))])
        orders = order_batch([OrderRequest(0, 1, 6.0, 2, 0), OrderRequest(0, 2, 3.0, 1, 0)])
        p = build_problem(drivers, orders, table, 0.9, world)
        assert p.scores[0, 0] == 0.0
        assert p.scores[0, 1] == pytest.approx(truncated_discounted_reward(6.0, 2, 0.9, 2))
        assert p.scores[0, 2] == pytest.approx(truncated_discounted_reward(3.0, 1, 0.9, 1))

    def test_direct_substitution(self):
        # pickup 0, duration 2, V[finish] = 2, R_gamma = 1.9: 0.81*2 + 1.9
        world = make_world(2, 10)
        vals = np.zeros((11, 2))
        vals[2, 1] = 2.0
        table = ValueTable(vals, 0.9)
        p = build_problem(
            driver_batch([DriverSlot(0, State(0, 0))]),
            order_batch([OrderRequest(0, 1, 2.0, 2, 0)]),
            table,
            0.9,
            world,
        )
        assert p.scores[0, 1] == pytest.approx(3.52)

    def test_q_scores_match_scalar_oracle(self):
        # a long lattice: pickups, trips and their sums reach every exponent
        # up to 60, and some trips run past the horizon
        world = GridWorld.lattice(1, 31, 50)
        rng = np.random.default_rng(8)
        vals = rng.random((51, 31)) * 4
        vals[-1] = 0.0
        for gamma in (0.9, 0.95, 1.0):
            table = ValueTable(vals, gamma)
            for t in (0, 17, 45):
                cells = rng.integers(0, 31, 9).tolist()
                drivers = [DriverSlot(l, State(t, c)) for l, c in enumerate(cells)]
                orders = [
                    OrderRequest(int(o), int(d), float(r), int(k), t)
                    for o, d, r, k in zip(
                        rng.integers(0, 31, 12),
                        rng.integers(0, 31, 12),
                        rng.random(12) * 20,
                        rng.integers(1, 31, 12),
                    )
                ]
                p = build_problem(
                    driver_batch(drivers), order_batch(orders, t), table, gamma, world
                )
                for l, d in enumerate(drivers):
                    assert p.scores[l, 0] == q_value(table, d, None, gamma, world)
                    for k, o in enumerate(orders):
                        assert p.scores[l, k + 1] == q_value(table, d, o, gamma, world)

    def test_radius_and_horizon_feasibility(self):
        world = GridWorld.lattice(1, 6, 10)  # cells 0..5 on a line
        table = ValueTable.zeros(10, 6, 0.9)
        drivers = driver_batch([DriverSlot(0, State(8, 0))])
        orders = order_batch(
            [
                OrderRequest(2, 3, 5.0, 1, 8),  # pickup 2 > radius 1
                OrderRequest(1, 2, 5.0, 1, 8),  # pickup 1, starts at t=9 < T
                OrderRequest(3, 4, 5.0, 1, 8),  # pickup 3 -> t+pickup beyond T
            ],
            8,
        )
        p = build_problem(drivers, orders, table, 0.9, world, radius=1)
        assert not p.feasible[0, 1]
        assert p.feasible[0, 2]
        assert not p.feasible[0, 3]


class TestAdvantageTransform:
    def test_null_column_becomes_zero(self):
        p = problem_from_scores([[1.5, 2.0, 0.5], [-1.0, 0.0, 3.0]])
        q = advantage_transform(p)
        assert np.all(q.scores[:, 0] == 0.0)
        np.testing.assert_array_equal(q.scores, [[0.0, 0.5, -1.0], [0.0, 1.0, 4.0]])

    def test_objective_shift_is_sum_of_nulls(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_problem(rng, 4, 4)
            q = advantage_transform(p)
            rp, rq = km_match(p), km_match(q)
            assert rp.assignment == rq.assignment
            assert rp.objective == pytest.approx(rq.objective + p.scores[:, 0].sum())

    def test_preserves_feasibility_mask(self):
        feas = np.array([[True, False, True]])
        p = problem_from_scores([[2.0, 9.0, 1.0]], feas)
        q = advantage_transform(p)
        assert np.array_equal(q.feasible, feas)


class TestKmMatch:
    def test_single_profitable_order(self):
        res = km_match(problem_from_scores([[0.0, 5.0]]))
        assert res.assignment == [0]
        assert res.objective == 5.0

    def test_two_by_two(self):
        res = km_match(problem_from_scores([[0.0, 5.0, 1.0], [0.0, 2.0, 4.0]]))
        assert res.assignment == [0, 1]
        assert res.objective == 9.0

    def test_high_null_value_leaves_driver_idle(self):
        res = km_match(problem_from_scores([[6.0, 5.0]]))
        assert res.assignment == [None]
        assert res.objective == 6.0

    def test_empty_problem(self):
        res = km_match(problem_from_scores(np.zeros((0, 1))))
        assert res.assignment == []
        assert res.objective == 0.0

    def test_masked_pairs_never_selected(self):
        feas = np.array([[True, False]])
        res = km_match(problem_from_scores([[0.0, 100.0]], feas))
        assert res.assignment == [None]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(0, 6))
            p = random_problem(rng, m, n)
            res = km_match(p)
            best_obj, _ = brute_force_match(p)
            assert res.objective == pytest.approx(best_obj)

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        p = random_problem(rng, 5, 5)
        first = km_match(p)
        for _ in range(5):
            again = km_match(p)
            assert again.assignment == first.assignment


def tied_problem(rng, m, n, duplicate_rows=False, masked_orders=0):
    """Integer scores in [-2, 3]: ties everywhere, and every sum is exact."""
    scores = rng.integers(-2, 4, size=(m, n + 1)).astype(float)
    feasible = rng.random((m, n + 1)) < 0.8
    feasible[:, 0] = True
    if duplicate_rows and m > 1:
        copies = rng.integers(0, m, size=m // 2)
        scores[1 : 1 + len(copies)] = scores[copies]
        feasible[1 : 1 + len(copies)] = feasible[copies]
    if n:
        feasible[:, 1 + rng.choice(n, size=min(masked_orders, n), replace=False)] = False
    return problem_from_scores(scores, feasible)


def assert_feasible_one_to_one(p, assignment):
    assert len(assignment) == len(p.drivers)
    served = [k for k in assignment if k is not None]
    assert len(served) == len(set(served))
    for l, k in enumerate(assignment):
        if k is not None:
            assert 0 <= k < len(p.orders)
            assert p.feasible[l, k + 1]


class TestKmMatchTies:
    """km_match solves the m x n gain matrix; the null expansion is the oracle."""

    @pytest.mark.parametrize("duplicate_rows", [False, True])
    def test_small_tied_problems_equal_brute_force(self, duplicate_rows):
        rng = np.random.default_rng(23)
        for _ in range(150):
            m, n = int(rng.integers(1, 6)), int(rng.integers(0, 6))
            p = tied_problem(rng, m, n, duplicate_rows, masked_orders=int(rng.integers(0, 2)))
            res = km_match(p)
            assert_feasible_one_to_one(p, res.assignment)
            assert res.objective == brute_force_match(p)[0]

    @pytest.mark.parametrize(
        "m, n", [(40, 40), (120, 6), (200, 26), (6, 120), (1, 50), (50, 1), (30, 0)]
    )
    def test_larger_tied_problems_equal_null_expansion(self, m, n):
        rng = np.random.default_rng(m * 1000 + n)
        for duplicate_rows in (False, True):
            for masked in (0, n // 3):
                p = tied_problem(rng, m, n, duplicate_rows, masked_orders=masked)
                res = km_match(p)
                assert_feasible_one_to_one(p, res.assignment)
                assert res.objective == null_expansion_match(p)[0]

    def test_orders_masked_for_every_driver_stay_open(self):
        rng = np.random.default_rng(29)
        p = tied_problem(rng, 8, 5)
        p.feasible[:, [2, 4]] = False
        res = km_match(p)
        assert 1 not in res.assignment and 3 not in res.assignment
        assert res.objective == null_expansion_match(p)[0]

    def test_zero_gain_pair_leaves_driver_idle(self):
        res = km_match(problem_from_scores([[2.0, 2.0]]))
        assert res.assignment == [None]
        assert res.objective == 2.0
        # driver 0 gains exactly 0 on either order; only driver 1 is served
        res = km_match(problem_from_scores([[1.0, 1.0, 1.0], [0.0, 0.0, 5.0]]))
        assert res.assignment == [None, 1]
        assert res.objective == 6.0

    def test_negative_gain_pair_leaves_driver_idle(self):
        res = km_match(problem_from_scores([[0.0, -1.0, -0.5], [3.0, 2.0, 1.0]]))
        assert res.assignment == [None, None]
        assert res.objective == 3.0


def captured_windows(monkeypatch, drivers=None):
    """Every MatchProblem solved while preparing the source (myopic scores)
    and during one target day dispatched on the source table (value scores)."""
    sc = default_scenario()
    if drivers is not None:
        raw = copy.deepcopy(sc.raw)
        raw["drivers"] = drivers
        sc = Scenario.from_dict(raw)
    problems = []

    def recording(p):
        problems.append(p)
        return km_match(p)

    monkeypatch.setattr(gpi, "km_match", recording)
    source = gpi.prepare_source(sc, 0.9, 0)
    world = sc.build_world()
    policy = gpi.value_dispatch_policy(source.v_src, 0.9, world, sc.pickup_radius)
    run_day(world, sc.build_target_model(), policy, 0.9, sc.seed, phase=gpi.PHASE_TARGET)
    return problems


@pytest.mark.parametrize("drivers", [None, 300], ids=["default", "drivers300"])
def test_captured_windows_match_null_expansion(monkeypatch, drivers):
    problems = captured_windows(monkeypatch, drivers)
    assert len(problems) > 500
    # value-policy windows arrive as build_problem scored them: nulls are V(t, cell)
    assert any(np.any(p.scores[:, 0] != 0.0) for p in problems)
    for p in problems:
        res = km_match(p)
        assert_feasible_one_to_one(p, res.assignment)
        oracle, _ = null_expansion_match(p)
        assert abs(res.objective - oracle) <= 1e-12 * max(abs(oracle), 1e-300)


class TestGreedyScores:
    def test_prefers_higher_revenue(self):
        world = make_world(2, 10)
        drivers = driver_batch([DriverSlot(0, State(0, 0))])
        orders = order_batch([OrderRequest(0, 1, 10.0, 1, 0), OrderRequest(0, 1, 3.0, 1, 0)])
        res = km_match(build_problem(drivers, orders, ValueTable.zeros(10, 2, 0.9), 0.9, world))
        assert res.assignment == [0]

    def test_null_option_worth_zero(self):
        world = make_world(2, 10)
        drivers = driver_batch([DriverSlot(0, State(4, 1))])
        p = build_problem(drivers, order_batch([], 4), ValueTable.zeros(10, 2, 0.9), 0.9, world)
        assert p.scores[0, 0] == 0.0
