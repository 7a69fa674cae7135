import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchlab import (
    ConcordanceSpec,
    GridWorld,
    OptimizationError,
    OptimizerSettings,
    OrderRequest,
    State,
    ValueTable,
    concordance_loss,
    concordance_rate_report,
    default_pair_set,
    dp_evaluate,
    hinge_penalty,
    objective_gradient,
    penalized_objective,
    prepare_source,
    solve_time_step,
    transfer_evaluate,
)
from dispatchlab import transfer
from dispatchlab.scenario import default_scenario
from dispatchlab.transfer import td_slice
from dispatchlab.valuation import TupleArrays

import reference_hinge_qp
from conftest import grid_search_oracle, make_world, qp_reference, random_buffer
from reference_objects import TransitionTuple, td_evaluate


def table_from_rows(rows, gamma=0.9):
    rows = np.asarray(rows, dtype=float)
    return ValueTable(np.vstack([rows, np.zeros(rows.shape[1])]), gamma)


def random_table_pair(rng, T=6, n=5):
    a = rng.normal(size=(T + 1, n))
    b = rng.normal(size=(T + 1, n))
    a[-1] = b[-1] = 0.0
    return ValueTable(a, 0.9), ValueTable(b, 0.9)


def all_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


class TestConcordanceSpec:
    def test_rejects_self_pair(self):
        with pytest.raises(ValueError, match="self-pair"):
            ConcordanceSpec(pairs=[(2, 2)])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError, match="duplicate"):
            ConcordanceSpec(pairs=[(0, 1), (1, 0)])

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            ConcordanceSpec(pairs=[(0, 1)], lam=-0.5)

    def test_rejects_nonpositive_margin(self):
        with pytest.raises(ValueError, match="margin"):
            ConcordanceSpec(pairs=[(0, 1)], margin=0.0)


class TestConcordanceLoss:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        v, _ = random_table_pair(rng)
        spec = ConcordanceSpec(pairs=all_pairs(5))
        assert concordance_loss(v, v, spec) == 0.0

    def test_strict_reversal_is_one(self):
        rng = np.random.default_rng(1)
        v, _ = random_table_pair(rng)
        flipped = ValueTable(np.vstack([-v.values[:-1], np.zeros(5)]), 0.9)
        spec = ConcordanceSpec(pairs=all_pairs(5))
        assert concordance_loss(v, flipped, spec) == 1.0

    def test_pair_enumeration(self):
        spec = ConcordanceSpec(pairs=[(0, 1), (1, 2)])
        v = table_from_rows([[1, 2, 3]])
        assert concordance_loss(v, table_from_rows([[3, 2, 1]]), spec) == 1.0
        assert concordance_loss(v, table_from_rows([[1, 3, 2]]), spec) == 0.5

    def test_ties_count_as_concordant(self):
        spec = ConcordanceSpec(pairs=[(0, 1)])
        v = table_from_rows([[1, 1]])
        w = table_from_rows([[2, 1]])
        assert concordance_loss(v, w, spec) == 0.0

    def test_rejects_empty_pairs_and_shape_mismatch(self):
        v = table_from_rows([[1, 2]])
        with pytest.raises(ValueError, match="pair"):
            concordance_loss(v, v, ConcordanceSpec(pairs=[]))
        w = table_from_rows([[1, 2, 3]])
        spec = ConcordanceSpec(pairs=[(0, 1)])
        with pytest.raises(ValueError, match="shape"):
            concordance_loss(v, w, spec)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_table_pair(rng)
        spec = ConcordanceSpec(pairs=all_pairs(5))
        assert concordance_loss(a, b, spec) == concordance_loss(b, a, spec)

    @given(
        seed=st.integers(0, 10_000),
        scale=st.floats(0.01, 100),
        shift=st.floats(-50, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_positive_affine_invariance(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        a, b = random_table_pair(rng)
        spec = ConcordanceSpec(pairs=all_pairs(5))
        scaled = a.values.copy()
        scaled[:-1] = scale * scaled[:-1] + shift
        assert concordance_loss(ValueTable(scaled, 0.9), b, spec) == concordance_loss(
            a, b, spec
        )


class TestHingePenalty:
    def test_partial_slack(self):
        # source favors cell 1; v gap 0.4 against margin 1 leaves 0.6
        spec = ConcordanceSpec(pairs=[(0, 1)], margin=1.0)
        assert hinge_penalty(
            np.array([0.0, 0.4]), np.array([0.0, 1.0]), spec
        ) == pytest.approx(0.6)

    def test_zero_when_margins_met(self):
        spec = ConcordanceSpec(pairs=[(0, 1), (0, 2)], margin=1.0)
        v = np.array([0.0, 1.5, 2.0])
        assert hinge_penalty(v, v, spec) == 0.0

    def test_source_tie_contributes_nothing(self):
        spec = ConcordanceSpec(pairs=[(0, 1)], margin=1.0)
        assert hinge_penalty(np.array([5.0, -5.0]), np.array([2.0, 2.0]), spec) == 0.0

    @given(seed=st.integers(0, 10_000), margin=st.floats(0.1, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_upper_bounds_discordance_indicator(self, seed, margin):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=4)
        v_src = rng.normal(size=4)
        for i, j in all_pairs(4):
            spec = ConcordanceSpec(pairs=[(i, j)], margin=margin)
            h = hinge_penalty(v, v_src, spec)
            discordant = (v[i] - v[j]) * (v_src[i] - v_src[j]) < 0
            assert h >= margin * discordant - 1e-12


class TestPenalizedObjective:
    def test_lambda_zero_is_squared_error(self):
        cells = np.array([0, 0, 1])
        targets = np.array([1.0, 2.0, 3.0])
        v = np.array([1.5, 2.0])
        spec = ConcordanceSpec(pairs=[(0, 1)], lam=0.0)
        expected = (1.5 - 1) ** 2 + (1.5 - 2) ** 2 + (2 - 3) ** 2
        assert penalized_objective(v, cells, targets, np.array([0.0, 1.0]), spec) == (
            pytest.approx(expected)
        )

    def test_empty_slice_is_pure_penalty(self):
        empty = np.array([], dtype=np.int64)
        spec = ConcordanceSpec(pairs=[(0, 1)], lam=2.0, margin=1.0)
        v = np.array([0.0, 0.0])
        got = penalized_objective(v, empty, np.array([]), np.array([0.0, 1.0]), spec)
        assert got == pytest.approx(2.0 * 1.0)

    def test_hand_instance(self):
        # perfect fit plus one pair violated by exactly the margin
        cells = np.array([0])
        targets = np.array([3.0])
        v = np.array([3.0, 3.0])
        spec = ConcordanceSpec(pairs=[(0, 1)], lam=1.5, margin=1.0)
        got = penalized_objective(v, cells, targets, np.array([0.0, 1.0]), spec)
        assert got == pytest.approx(1.5 * 1.0)


def central_fd(f, v, eps=1e-6):
    g = np.zeros_like(v)
    for i in range(len(v)):
        up, dn = v.copy(), v.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (f(up) - f(dn)) / (2 * eps)
    return g


class TestObjectiveGradient:
    def test_matches_fd_without_penalty(self):
        rng = np.random.default_rng(5)
        cells = rng.integers(0, 4, size=30)
        targets = rng.normal(size=30)
        v_src = rng.normal(size=4)
        spec = ConcordanceSpec(pairs=[(0, 1)], lam=0.0)
        v = rng.normal(size=4)
        grad = objective_gradient(v, cells, targets, v_src, spec)
        fd = central_fd(lambda x: penalized_objective(x, cells, targets, v_src, spec), v)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)

    def test_matches_fd_with_penalty_off_kinks(self):
        rng = np.random.default_rng(6)
        spec = ConcordanceSpec(pairs=all_pairs(4), lam=1.3, margin=0.7)
        cells = rng.integers(0, 4, size=20)
        targets = rng.normal(size=20)
        v_src = rng.normal(size=4)
        checked = 0
        while checked < 20:
            v = rng.normal(size=4)
            pi, pj = spec.pair_arrays
            sign_src = np.sign(v_src[pj] - v_src[pi])
            slack = spec.margin - sign_src * (v[pj] - v[pi])
            if np.any(np.abs(slack) < 1e-4):
                continue  # too close to a hinge kink for finite differences
            grad = objective_gradient(v, cells, targets, v_src, spec)
            fd = central_fd(
                lambda x: penalized_objective(x, cells, targets, v_src, spec), v
            )
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6)
            checked += 1

    def test_zero_at_satisfied_margins_with_no_data(self):
        spec = ConcordanceSpec(pairs=[(0, 1)], lam=2.0, margin=1.0)
        empty = np.array([], dtype=np.int64)
        v = np.array([0.0, 2.0])  # source favors 1, satisfied by 2 > margin
        grad = objective_gradient(v, empty, np.array([]), np.array([0.0, 1.0]), spec)
        assert np.all(grad == 0.0)


class TestSolveTimeStep:
    def test_lambda_zero_reaches_cell_means(self):
        rng = np.random.default_rng(9)
        cells = rng.integers(0, 3, size=40)
        targets = rng.normal(size=40)
        spec = ConcordanceSpec(pairs=[(0, 1)], lam=0.0)
        opt = OptimizerSettings(max_iters=4000, tol=1e-16)
        res = solve_time_step(cells, targets, np.zeros(3), spec, opt)
        means = np.array([targets[cells == c].mean() for c in range(3)])
        np.testing.assert_allclose(res.values, means, atol=1e-6)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            k = int(rng.integers(1, 6))
            cells = rng.integers(0, 2, size=k)
            targets = rng.random(k)
            v_src = rng.normal(size=2)
            spec = ConcordanceSpec(pairs=[(0, 1)], lam=1.0, margin=0.5)
            opt = OptimizerSettings(max_iters=20000, tol=0.0)
            res = solve_time_step(cells, targets, v_src, spec, opt)
            oracle = grid_search_oracle(cells, targets, v_src, spec, -2.0, 3.0)
            assert abs(res.best_objective - oracle) < 2e-3

    def test_penalty_dominated_limit(self):
        spec = ConcordanceSpec(pairs=[(0, 1), (2, 1)], lam=1e4, margin=1.0)
        v_src = np.array([3.0, 1.0, 2.0])
        empty = np.array([], dtype=np.int64)
        opt = OptimizerSettings(max_iters=5000, tol=1e-16)
        res = solve_time_step(empty, np.array([]), v_src, spec, opt)
        v = res.values
        assert v[0] - v[1] >= 1.0 - 1e-6
        assert v[2] - v[1] >= 1.0 - 1e-6
        assert hinge_penalty(v, v_src, spec) == pytest.approx(0.0, abs=1e-5)

    def test_trace_is_nonincreasing(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            k = int(rng.integers(0, 8))
            cells = rng.integers(0, 3, size=k)
            targets = rng.normal(size=k)
            v_src = rng.normal(size=3)
            spec = ConcordanceSpec(
                pairs=all_pairs(3), lam=float(rng.random() * 2), margin=0.5
            )
            res = solve_time_step(
                cells, targets, v_src, spec, OptimizerSettings(max_iters=300)
            )
            assert np.all(np.diff(res.trace) <= 0)

    def test_warm_start_is_used(self):
        spec = ConcordanceSpec(pairs=[(0, 1)], lam=0.0)
        empty = np.array([], dtype=np.int64)
        warm = np.array([4.0, -2.0])
        res = solve_time_step(
            empty, np.array([]), np.zeros(2), spec, OptimizerSettings(max_iters=5),
            warm_start=warm,
        )
        np.testing.assert_array_equal(res.values, warm)

    def test_non_finite_target_raises(self):
        spec = ConcordanceSpec(pairs=[(0, 1)], lam=1.0)
        cells = np.zeros(50, dtype=np.int64)
        targets = np.ones(50)
        targets[7] = np.inf
        with pytest.raises(OptimizationError, match="non-finite"):
            solve_time_step(cells, targets, np.zeros(2), spec, OptimizerSettings())


class TestInteriorPoint:
    @pytest.fixture(scope="class")
    def default_slices(self):
        """Slices of one logged source day of the default scenario, warm-started off the optimum."""
        sc = default_scenario()
        source = prepare_source(sc, 0.9, seed=0)
        values = source.v_src.values
        slices = []
        for t in (10, 49, 88, 127):
            cells, targets = td_slice([source.days[0]], t, values, 0.9)
            slices.append((cells, targets, values[t], 0.8 * values[t]))
        return sc.optimizer_settings(), sc.concordance_spec(source.v_src), slices

    def test_default_scenario_slices_are_certified_optimal(self, default_slices):
        opt, spec, slices = default_slices
        for cells, targets, v_src_t, warm in slices:
            res = solve_time_step(cells, targets, v_src_t, spec, opt, warm_start=warm)
            assert res.gap <= opt.tol
            assert res.iterations < opt.max_iters
            ref = qp_reference(cells, targets, v_src_t, spec)
            f_ref = penalized_objective(ref, cells, targets, v_src_t, spec)
            assert res.best_objective == pytest.approx(f_ref, rel=1e-6)

    def test_kernel_matches_reference_bit_for_bit(self, default_slices, monkeypatch):
        opt, spec, slices = default_slices
        cases = [(cells, targets, v_src, spec, opt, warm) for cells, targets, v_src, warm in slices]
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            cells = rng.integers(0, n, size=int(rng.integers(0, 15)))
            spec_r = ConcordanceSpec(pairs=all_pairs(n), lam=float(rng.uniform(0.1, 3.0)))
            opt_r = OptimizerSettings(tol=float(rng.choice([0.0, 1e-9, 1e-5])))
            targets = rng.normal(scale=3.0, size=len(cells))
            cases.append((cells, targets, rng.normal(size=n), spec_r, opt_r, rng.normal(size=n)))
        new = [solve_time_step(*case) for case in cases]
        monkeypatch.setattr(transfer, "_hinge_qp", reference_hinge_qp.hinge_qp)
        old = [solve_time_step(*case) for case in cases]
        assert sum(r.iterations for r in old) > len(cases)
        for a, b in zip(new, old):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.trace, b.trace)
            assert (a.iterations, a.gap) == (b.iterations, b.gap)
            assert a.best_objective == b.best_objective

    def test_tol_below_double_precision_stops(self, default_slices):
        _, spec, slices = default_slices
        cells, targets, v_src_t, warm = slices[0]
        opt = OptimizerSettings(max_iters=500, tol=0.0)
        res = solve_time_step(cells, targets, v_src_t, spec, opt, warm_start=warm)
        assert res.iterations < 50
        assert np.all(np.isfinite(res.values))
        assert 0.0 <= res.gap < 1e-12

    def test_tie_break_keeps_warm_start_on_satisfied_cell_without_data(self):
        # cell 1 has no data and is coupled to cells 0 and 2; any v1 >= 4 is
        # optimal, and the tie-break keeps its warm-start value (to within
        # about gap / TIE_BREAK_RHO, hence the tight tolerance)
        spec = ConcordanceSpec(pairs=[(0, 1), (2, 1)], lam=1.0, margin=1.0)
        cells = np.array([0, 0, 2])
        targets = np.array([1.0, 2.0, 3.0])
        warm = np.array([5.0, 9.0, 0.0])
        res = solve_time_step(
            cells, targets, np.array([0.0, 1.0, 0.5]), spec, OptimizerSettings(tol=1e-12), warm
        )
        assert res.iterations > 0
        np.testing.assert_allclose(res.values, [1.5, 9.0, 3.0], atol=1e-6)

    def test_optimal_warm_start_is_returned_unchanged(self):
        # cell 0 sits at its target mean and the pair is met: nothing to improve
        spec = ConcordanceSpec(pairs=[(0, 1)], lam=1.0, margin=1.0)
        warm = np.array([2.0, 5.0])
        res = solve_time_step(
            np.array([0, 0]), np.array([1.0, 3.0]), np.array([0.0, 1.0]), spec,
            OptimizerSettings(), warm,
        )
        assert res.iterations > 0
        np.testing.assert_array_equal(res.values, warm)
        assert res.best_objective == 2.0

    def test_certified_gap_on_random_slices(self):
        rng = np.random.default_rng(13)
        opt = OptimizerSettings(tol=1e-9)
        for _ in range(20):
            n = 6
            cells = rng.integers(0, n, size=int(rng.integers(0, 12)))
            targets = rng.normal(scale=3.0, size=len(cells))
            v_src = rng.normal(size=n)
            spec = ConcordanceSpec(pairs=all_pairs(n), lam=float(rng.uniform(0.1, 3.0)))
            res = solve_time_step(cells, targets, v_src, spec, opt, rng.normal(size=n))
            assert res.gap <= opt.tol
            ref = qp_reference(cells, targets, v_src, spec)
            f_ref = penalized_objective(ref, cells, targets, v_src, spec)
            assert res.best_objective <= f_ref + 1e-6 * max(1.0, f_ref)


class TestTransferEvaluate:
    def test_lambda_zero_matches_dp(self):
        world = make_world(5, 8)
        rng = np.random.default_rng(21)
        tuples = TupleArrays.from_tuples(random_buffer(rng, world, 300))
        v_src = ValueTable.zeros(world.horizon, world.n_cells, 0.9)
        spec = ConcordanceSpec(pairs=[(0, 1)], lam=0.0)
        opt = OptimizerSettings(max_iters=4000, tol=1e-16)
        got = transfer_evaluate(tuples, v_src, spec, world, 0.9, opt)
        want = dp_evaluate(tuples, world, 0.9)
        assert np.max(np.abs(got.values - want.values)) < 1e-6

    def test_data_free_limit_is_concordant(self):
        world = make_world(4, 5)
        src = np.tile(np.array([4.0, 3.0, 2.0, 1.0]), (world.horizon, 1))
        v_src = ValueTable(np.vstack([src, np.zeros(4)]), 0.9)
        spec = ConcordanceSpec(pairs=all_pairs(4), lam=5.0, margin=1.0)
        got = transfer_evaluate([], v_src, spec, world, 0.9)
        assert concordance_loss(got, v_src, spec) == 0.0

    def test_penalty_never_hurts_concordance(self):
        world = make_world(6, 10)
        rng = np.random.default_rng(30)
        tuples = TupleArrays.from_tuples(random_buffer(rng, world, 150))
        src = np.tile(np.linspace(6, 1, 6), (world.horizon, 1))
        v_src = ValueTable(np.vstack([src, np.zeros(6)]), 0.9)
        spec = ConcordanceSpec(pairs=all_pairs(6), lam=3.0, margin=1.0)
        got = transfer_evaluate(tuples, v_src, spec, world, 0.9)
        baseline = td_evaluate(tuples, world, 0.9)
        assert concordance_loss(got, v_src, spec) <= concordance_loss(
            baseline, v_src, spec
        )

    def test_rejects_source_shape_mismatch(self):
        world = make_world(3, 4)
        v_src = ValueTable.zeros(4, 2, 0.9)
        spec = ConcordanceSpec(pairs=[(0, 1)])
        with pytest.raises(ValueError, match="shape"):
            transfer_evaluate([], v_src, spec, world, 0.9)

    @pytest.mark.parametrize("shape", [(9, 6), (6, 4)])
    def test_rejects_init_of_wrong_shape(self, shape):
        # a 2 x 3 world with horizon 5: the table has shape (6, 6)
        world = make_world(6, 5)
        v_src = ValueTable.zeros(5, 6, 0.9)
        tuples = TupleArrays.from_tuples([TransitionTuple(State(0, 5), None, 1.0, State(1, 5), 1)])
        with pytest.raises(ValueError, match="init table shape"):
            transfer_evaluate(
                tuples, v_src, ConcordanceSpec(pairs=[(0, 1)]), world, 0.9,
                init=ValueTable(np.zeros(shape), 0.9),
            )

    def test_rejects_tuple_that_does_not_advance(self):
        world = make_world(6, 5)
        v_src = ValueTable.zeros(5, 6, 0.9)
        bad = TupleArrays.from_tuples([TransitionTuple(State(2, 0), None, 1.0, State(2, 0), 1)])
        with pytest.raises(ValueError, match="finish.t"):
            transfer_evaluate(bad, v_src, ConcordanceSpec(pairs=[(0, 1)]), world, 0.9)

    def test_warm_start_preserved_on_uncovered_cells(self):
        world = make_world(3, 4)
        init_vals = np.full((5, 3), 2.5)
        init_vals[-1] = 0.0
        init = ValueTable(init_vals, 0.9)
        v_src = ValueTable.zeros(4, 3, 0.9)
        spec = ConcordanceSpec(pairs=[(0, 1)], lam=0.0)
        got = transfer_evaluate([], v_src, spec, world, 0.9, init=init)
        assert np.all(got.values[:-1] == 2.5)


class TestDefaultPairSet:
    def test_tier_counting(self):
        vals = np.vstack([np.arange(10, dtype=float)[None, :].repeat(4, axis=0), np.zeros(10)])
        v = ValueTable(vals, 0.9)
        pairs = default_pair_set(v, 0.2)
        assert len(pairs) == 4
        assert set(pairs) == {(9, 0), (9, 1), (8, 0), (8, 1)}

    def test_uniform_values_tie_break_by_index(self):
        v = ValueTable(np.zeros((5, 10)), 0.9)
        pairs = default_pair_set(v, 0.2)
        assert set(pairs) == {(0, 8), (0, 9), (1, 8), (1, 9)}

    def test_rejects_bad_q(self):
        v = ValueTable(np.zeros((5, 10)), 0.9)
        with pytest.raises(ValueError, match="q"):
            default_pair_set(v, 0.0)
        with pytest.raises(ValueError, match="q"):
            default_pair_set(v, 0.6)
        with pytest.raises(ValueError, match="q"):
            default_pair_set(ValueTable(np.zeros((3, 4)), 0.9), 0.1)


class TestConcordanceRateReport:
    def test_identical_tables(self):
        rng = np.random.default_rng(41)
        v, _ = random_table_pair(rng)
        spec = ConcordanceSpec(pairs=all_pairs(5))
        report = concordance_rate_report(v, v, spec)
        assert report.aggregate == 1.0
        assert np.all(report.per_time == 1.0)

    def test_reversed_tables(self):
        rng = np.random.default_rng(42)
        v, _ = random_table_pair(rng)
        flipped = ValueTable(
            np.vstack([-v.values[:-1], np.zeros(v.n_cells)]), 0.9
        )
        spec = ConcordanceSpec(pairs=all_pairs(5))
        report = concordance_rate_report(v, flipped, spec)
        assert report.aggregate == 0.0
        assert np.all(report.per_time == 0.0)

    def test_all_tied_table_reads_concordant_with_no_strict_rate(self):
        """A flat table ties every pair: the aggregate counts the ties as
        agreement, and no untied entry is left for the strict rate."""
        rng = np.random.default_rng(43)
        v, _ = random_table_pair(rng)
        flat = ValueTable(np.zeros_like(v.values), 0.9)
        report = concordance_rate_report(flat, v, ConcordanceSpec(pairs=all_pairs(5)))
        assert report.aggregate == 1.0
        assert report.tied_share == 1.0
        assert math.isnan(report.strict_rate)

    def test_untied_table_against_itself_is_strictly_concordant(self):
        rng = np.random.default_rng(44)
        v, _ = random_table_pair(rng)
        report = concordance_rate_report(v, v, ConcordanceSpec(pairs=all_pairs(5)))
        assert report.tied_share == 0.0
        assert report.strict_rate == 1.0
