import math
from unittest import mock

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
from dispatchlab import gpi, transfer
from dispatchlab.scenario import default_scenario
from dispatchlab.transfer import td_slice
from dispatchlab.valuation import TupleArrays

import reference_hinge_qp
from conftest import (
    grid_search_oracle,
    make_world,
    qp_reference,
    random_buffer,
    slice_bounds,
)
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


def closed_form(cells, targets, warm):
    """Each cell's target mean, or its warm start when it has no data."""
    counts = np.bincount(cells, minlength=len(warm))
    sums = np.bincount(cells, weights=targets, minlength=len(warm))
    return np.where(counts > 0, sums / np.maximum(counts, 1), warm)


def qp_to_rounding_floor(cells, targets, v_src_t, spec, warm):
    """The slice's tie-broken coupled-cell QP run by `_hinge_qp` at tol 0, with
    no closed-form exit; the coupled cells come from np.unique."""
    v = closed_form(cells, targets, warm)
    counts = np.bincount(cells, minlength=len(warm))
    pi, pj, s = spec.ordered_pairs(v_src_t)
    coupled, local = np.unique(np.concatenate([pi, pj]), return_inverse=True)
    weight = np.where(counts[coupled] > 0, counts[coupled], transfer.TIE_BREAK_RHO)
    opt = OptimizerSettings(max_iters=500, tol=0.0)
    lam = np.full(len(s), float(spec.lam))
    v[coupled] = transfer._hinge_qp(
        local[: len(s)],
        local[len(s):],
        s,
        weight,
        v[coupled],
        lam,
        np.ones(len(s)),
        spec.margin,
        opt,
    )[0]
    return v


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
            np.testing.assert_array_equal(a.multipliers, b.multipliers)
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
        # the closed form meets both margins, so the solve exits without the QP
        assert (res.iterations, res.gap) == (0, 0.0)
        np.testing.assert_allclose(res.values, [1.5, 9.0, 3.0], atol=1e-6)

    def test_tie_break_keeps_warm_start_on_cell_without_data_while_qp_runs(self):
        # pair (0, 2) is violated at the target means (0 and 0), so the QP
        # runs and moves cells 0 and 2 apart by lam / (2 n_c) each; cell 1 has
        # no data and its pair with cell 0 stays met, so it keeps its warm start
        spec = ConcordanceSpec(pairs=[(0, 1), (0, 2)], lam=1.0, margin=1.0)
        cells = np.array([0, 0, 2, 2])
        targets = np.array([-1.0, 1.0, -1.0, 1.0])
        warm = np.array([3.0, 10.0, 3.0])
        res = solve_time_step(
            cells, targets, np.array([1.0, 2.0, 0.0]), spec, OptimizerSettings(tol=0.0), warm
        )
        assert res.iterations > 0
        np.testing.assert_allclose(res.values[[0, 2]], [0.25, -0.25], atol=1e-9)
        # only the TIE_BREAK_RHO pull holds cell 1, with curvature 2 rho, so a
        # gap g certifies it to within sqrt(g / rho) of its warm start
        drift = math.sqrt(res.gap * max(1.0, res.best_objective) / transfer.TIE_BREAK_RHO)
        assert abs(res.values[1] - 10.0) <= drift < 1e-3

    def test_optimal_warm_start_is_returned_unchanged(self):
        # cell 0 sits at its target mean and the pair is met: nothing to improve
        spec = ConcordanceSpec(pairs=[(0, 1)], lam=1.0, margin=1.0)
        warm = np.array([2.0, 5.0])
        res = solve_time_step(
            np.array([0, 0]), np.array([1.0, 3.0]), np.array([0.0, 1.0]), spec,
            OptimizerSettings(), warm,
        )
        assert (res.iterations, res.gap) == (0, 0.0)
        np.testing.assert_array_equal(res.values, warm)
        assert res.best_objective == 2.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_hinge_free_closed_form_exits_at_the_qp_optimum(self, seed):
        # the source ranks every pair as the closed form does, by at least the
        # margin, so no hinge is positive there
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        cells = rng.integers(0, n, size=int(rng.integers(0, 15)))
        targets = rng.normal(scale=3.0, size=len(cells))
        warm = rng.normal(scale=3.0, size=n)
        closed = closed_form(cells, targets, warm)
        v_src_t = float(rng.uniform(0.1, 5.0)) * closed + float(rng.normal())
        diffs = np.abs(np.subtract.outer(closed, closed))
        margin = 0.5 * diffs[diffs > 0].min() if np.any(diffs > 0) else 1.0
        spec = ConcordanceSpec(
            pairs=all_pairs(n), lam=float(rng.uniform(0.1, 3.0)), margin=float(margin)
        )
        opt = OptimizerSettings(tol=float(rng.choice([0.0, 1e-9, 1e-5])))
        res = solve_time_step(cells, targets, v_src_t, spec, opt, warm)
        assert (res.iterations, res.gap) == (0, 0.0)
        np.testing.assert_array_equal(res.values, closed)
        assert res.multipliers.shape == spec.ordered_pairs(v_src_t)[2].shape
        assert not np.any(res.multipliers)
        assert res.best_objective == penalized_objective(closed, cells, targets, v_src_t, spec)
        # the QP agrees on the cells with data; it holds the cells without
        # data only to about sqrt(gap / TIE_BREAK_RHO), so there it is
        # compared by objective
        qp = qp_to_rounding_floor(cells, targets, v_src_t, spec, warm)
        data = np.bincount(cells, minlength=n) > 0
        np.testing.assert_allclose(res.values[data], qp[data], rtol=0, atol=1e-9)
        f_qp = penalized_objective(qp, cells, targets, v_src_t, spec)
        assert res.best_objective <= f_qp + 1e-12 * max(1.0, f_qp)

    def test_one_violated_pair_runs_the_qp(self):
        # the same slice as a hinge-free one, except that the source flips pair (0, 1)
        spec = ConcordanceSpec(pairs=[(0, 1), (1, 2)], lam=1.0, margin=1.0)
        cells = np.array([0, 1, 2])
        targets = np.array([0.0, 2.0, 4.0])
        agrees, flipped = np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 2.0])
        assert solve_time_step(cells, targets, agrees, spec, OptimizerSettings()).iterations == 0
        res = solve_time_step(cells, targets, flipped, spec, OptimizerSettings())
        assert res.iterations > 0
        assert res.gap <= 1e-10
        qp = qp_to_rounding_floor(cells, targets, flipped, spec, np.zeros(3))
        np.testing.assert_allclose(res.values, qp, atol=1e-8)

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


def planted_twin_slice(rng):
    """A random slice on hot x cold pairs whose cold tier holds planted twins.

    The twins share their source value (so every hot partner orders them
    alike), their warm start, and either no data or the same targets. Each
    pair is listed in a random orientation.
    """
    n_hot, n_cold = int(rng.integers(2, 5)), int(rng.integers(3, 7))
    n = n_hot + n_cold
    twins = np.arange(n_hot, n_hot + int(rng.integers(2, min(4, n_cold) + 1)))
    v_src = np.concatenate([rng.normal(2.0, 1.5, n_hot), rng.normal(0.0, 1.5, n_cold)])
    v_src[twins] = v_src[twins[0]]
    warm = rng.normal(scale=3.0, size=n)
    warm[twins] = warm[twins[0]]
    cells, targets = [], []
    for c in range(n_hot):
        k = int(rng.integers(0, 4))
        cells += [c] * k
        targets += list(rng.normal(scale=3.0, size=k))
    twin_targets = list(rng.normal(scale=3.0, size=int(rng.integers(0, 3))))
    for c in range(n_hot, n):
        own = twin_targets
        if c not in twins:
            own = list(rng.normal(scale=3.0, size=int(rng.integers(0, 3))))
        cells += [c] * len(own)
        targets += own
    pairs = [
        (h, c) if rng.random() < 0.5 else (c, h) for h in range(n_hot) for c in range(n_hot, n)
    ]
    spec = ConcordanceSpec(pairs=pairs, lam=float(rng.uniform(0.1, 3.0)), margin=1.0)
    return np.array(cells, dtype=np.int64), np.array(targets), v_src, spec, warm, twins


def coupled_classes(cells, targets, v_src_t, spec, warm):
    """`_cell_classes` of a slice whose every cell is in a source-ordered pair."""
    pi, pj, s = spec.ordered_pairs(v_src_t)
    assert len(np.unique(np.concatenate([pi, pj]))) == len(v_src_t)
    counts = np.bincount(cells, minlength=len(v_src_t))
    weight = np.where(counts > 0, counts, transfer.TIE_BREAK_RHO)
    return transfer._cell_classes(pi, pj, s, weight, closed_form(cells, targets, warm))


def unmerged_solve(cells, targets, v_src_t, spec, opt, warm):
    """`solve_time_step` with every coupled cell in a class of its own."""
    with mock.patch.object(transfer, "_cell_classes", lambda li, lj, s, d, a: np.arange(len(d))):
        return solve_time_step(cells, targets, v_src_t, spec, opt, warm)


class TestInterchangeableCells:
    @given(seed=st.integers(0, 10_000), tol=st.sampled_from([0.0, 1e-9]))
    @settings(max_examples=60, deadline=None)
    def test_merged_solve_matches_the_unmerged_kernel(self, seed, tol):
        rng = np.random.default_rng(seed)
        cells, targets, v_src, spec, warm, twins = planted_twin_slice(rng)
        cls = coupled_classes(cells, targets, v_src, spec, warm)
        assert len(set(cls[twins].tolist())) == 1
        opt = OptimizerSettings(max_iters=500, tol=tol)
        res = solve_time_step(cells, targets, v_src, spec, opt, warm)
        # one variable per class: the twins come out bit-equal
        assert len(set(res.values[twins].tolist())) == 1
        # the class multipliers, lifted to the slice's pairs, certify its gap
        g, dual = slice_bounds(cells, targets, v_src, spec, warm, res.values, res.multipliers)
        assert (g - dual) / max(1.0, g) == pytest.approx(res.gap, abs=1e-12)
        assert res.gap <= max(tol, 1e-12)
        # the class QP follows the slice's central path: iteration by
        # iteration, the two solves reach the same objective
        unmerged = unmerged_solve(cells, targets, v_src, spec, opt, warm)
        n = min(len(res.trace), len(unmerged.trace))
        np.testing.assert_allclose(res.trace[:n], unmerged.trace[:n], rtol=1e-12, atol=1e-12)
        # each cell agrees to 1e-8 or to within the band that the two gaps
        # certify for it, sqrt(gap / d_c); on a cell without data (d_c = rho)
        # that band is up to about 1e-4, and two labellings of the unmerged
        # solve differ by as much there
        g_u, dual_u = slice_bounds(
            cells, targets, v_src, spec, warm, unmerged.values, unmerged.multipliers
        )
        assert g_u == pytest.approx(g, rel=1e-12, abs=1e-12)
        counts = np.bincount(cells, minlength=len(warm))
        d = np.where(counts > 0, counts, transfer.TIE_BREAK_RHO)
        band = np.sqrt(max(g - dual, 0.0) / d) + np.sqrt(max(g_u - dual_u, 0.0) / d)
        assert np.all(np.abs(res.values - unmerged.values) <= 1e-8 + band)

    def test_cells_differing_only_in_warm_value_stay_apart(self):
        # cells 2 and 3 have no data and the same partners; only their warm starts differ
        spec = ConcordanceSpec(pairs=[(0, 2), (0, 3), (1, 2), (1, 3)])
        v_src = np.array([5.0, 4.0, 1.0, 1.0])
        cells, targets = np.array([0, 1]), np.array([0.0, 0.5])
        cls = coupled_classes(cells, targets, v_src, spec, np.array([0.0, 0.0, 2.0, 2.0]))
        assert cls[2] == cls[3]
        cls = coupled_classes(cells, targets, v_src, spec, np.array([0.0, 0.0, 2.0, 2.5]))
        assert cls[2] != cls[3]

    def test_cells_differing_only_in_one_partner_sign_stay_apart(self):
        # the source ranks cell 3 above cell 1 but cell 2 below it
        spec = ConcordanceSpec(pairs=[(0, 2), (0, 3), (1, 2), (1, 3)])
        cells, targets = np.array([0, 1]), np.array([0.0, 0.5])
        warm = np.zeros(4)
        cls = coupled_classes(cells, targets, np.array([5.0, 4.0, 1.0, 1.0]), spec, warm)
        assert cls[2] == cls[3]
        cls = coupled_classes(cells, targets, np.array([5.0, 4.0, 1.0, 4.5]), spec, warm)
        assert cls[2] != cls[3]

    def test_cells_paired_with_each_other_stay_apart(self):
        # cells 1 and 2 have no data, the same warm start and the same partner
        # 0, but the source also orders the pair (1, 2)
        spec = ConcordanceSpec(pairs=[(0, 1), (0, 2), (1, 2)])
        cells, targets, warm = np.array([0]), np.array([0.0]), np.zeros(3)
        cls = coupled_classes(cells, targets, np.array([5.0, 1.0, 1.0]), spec, warm)
        assert cls[1] == cls[2]  # a source tie drops the pair (1, 2)
        cls = coupled_classes(cells, targets, np.array([5.0, 1.0, 1.5]), spec, warm)
        assert len(set(cls.tolist())) == 3


def test_every_slice_of_a_transfer_run_is_certified(monkeypatch):
    """Every slice solve of a seed-0, 3-day pattern_transfer run carries
    multipliers whose dual bound certifies its values to within `tol`,
    including slices that the HiGHS reference cannot solve within its limit."""
    sc = default_scenario()
    source = prepare_source(sc, 0.9, seed=0)
    solve, certified = transfer.solve_time_step, []

    def certifying_solve(cells, targets, v_src_t, spec, opt, warm_start=None):
        res = solve(cells, targets, v_src_t, spec, opt, warm_start=warm_start)
        g, dual = slice_bounds(
            cells, targets, v_src_t, spec, warm_start, res.values, res.multipliers
        )
        assert (g - dual) / max(1.0, g) == pytest.approx(res.gap, abs=1e-12)
        assert res.gap <= opt.tol
        assert res.iterations < opt.max_iters
        certified.append(res.iterations)
        return res

    monkeypatch.setattr(transfer, "solve_time_step", certifying_solve)
    gpi.run_experiment(sc, gpi.PolicyKind.PATTERN_TRANSFER, 3, 0.9, seed=0, source=source)
    assert len(certified) == 3 * sc.horizon
    assert sum(it > 0 for it in certified) > sc.horizon


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
