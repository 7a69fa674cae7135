import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchlab import (
    ConcordanceSpec,
    DriverSlot,
    GridWorld,
    OptimizerSettings,
    OrderRequest,
    State,
    TupleArrays,
    ValueTable,
    dp_evaluate,
    transfer_evaluate,
)
from dispatchlab.valuation import (
    as_arrays,
    backup_start,
    discount_table,
    served_transition,
    td_slice,
)

from conftest import (
    TUPLE_COLUMNS,
    FullPart,
    assert_same_part,
    assert_tuple_dtypes,
    compact_part,
    idle_rows,
    make_world,
    random_buffer,
)
from reference_objects import TransitionTuple, q_value, td_evaluate, truncated_discounted_reward


def reference_dp(tuples, T, n, gamma, init=None):
    """Plain-dict backward induction, independent of the array implementation."""
    V = np.zeros((T + 1, n)) if init is None else init.copy()
    V[T, :] = 0.0
    for t in range(T - 1, -1, -1):
        groups = {}
        for tr in tuples:
            if tr.start.t == t:
                target = (
                    gamma**tr.duration * V[tr.finish.t, tr.finish.cell]
                    + tr.reward_discounted
                )
                groups.setdefault(tr.start.cell, []).append(target)
        for cell, targets in groups.items():
            V[t, cell] = sum(targets) / len(targets)
    return V


class TestDiscountedReward:
    """Every installment inside the horizon: steps_allowed = duration."""

    def test_single_installment(self):
        assert truncated_discounted_reward(10.0, 1, 0.9, 1) == 10.0

    def test_undiscounted_recovers_revenue(self):
        assert truncated_discounted_reward(10.0, 2, 1.0, 2) == 10.0

    def test_direct_summation(self):
        # 12/3 per step at offsets 0, 1, 2 with gamma 0.5
        assert truncated_discounted_reward(12.0, 3, 0.5, 3) == pytest.approx(4 * (1 + 0.5 + 0.25))

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            truncated_discounted_reward(10.0, 0, 0.9, 0)

    @given(
        revenue=st.floats(0.1, 100),
        duration=st.integers(2, 20),
        g1=st.floats(0.05, 0.95),
        g2=st.floats(0.05, 0.95),
    )
    def test_strictly_increasing_in_gamma(self, revenue, duration, g1, g2):
        lo, hi = sorted((g1, g2))
        if hi - lo > 1e-9:
            assert truncated_discounted_reward(
                revenue, duration, lo, duration
            ) < truncated_discounted_reward(revenue, duration, hi, duration)

    @given(
        revenue=st.floats(0.0, 100),
        duration=st.integers(1, 15),
        gamma=st.floats(0.05, 1.0),
    )
    def test_matches_loop_sum(self, revenue, duration, gamma):
        expected = sum(revenue / duration * gamma**u for u in range(duration))
        got = truncated_discounted_reward(revenue, duration, gamma, duration)
        assert got == pytest.approx(expected, abs=1e-9)


class TestTruncatedDiscountedReward:
    def test_no_steps_allowed(self):
        assert truncated_discounted_reward(10.0, 4, 0.9, 0) == 0.0
        assert truncated_discounted_reward(10.0, 4, 0.9, -3) == 0.0

    def test_full_window_matches_untruncated(self):
        # 10/4 per step at offsets 0 .. 3 with gamma 0.9
        untruncated = 2.5 * (1 + 0.9 + 0.81 + 0.729)
        assert truncated_discounted_reward(10.0, 4, 0.9, 4) == pytest.approx(untruncated)
        assert truncated_discounted_reward(10.0, 4, 0.9, 9) == pytest.approx(untruncated)

    @given(
        revenue=st.floats(0.0, 100),
        duration=st.integers(1, 15),
        gamma=st.floats(0.05, 1.0),
        allowed=st.integers(0, 20),
    )
    def test_matches_partial_loop_sum(self, revenue, duration, gamma, allowed):
        expected = sum(
            revenue / duration * gamma**u for u in range(min(duration, allowed))
        )
        got = truncated_discounted_reward(revenue, duration, gamma, allowed)
        assert got == pytest.approx(expected, abs=1e-9)


class TestServedTransition:
    @pytest.mark.parametrize("gamma", [0.9, 0.95, 1.0])
    def test_equals_scalar_definition(self, gamma):
        # every pickup 0..60 against every duration 1..60; at t = 40 and a
        # horizon of 100 the paid installments run from 0 to 60
        pickup = np.arange(61)[:, None]
        duration = np.arange(1, 61)
        revenue = np.random.default_rng(2).random(60) * 30
        t, horizon = 40, 100
        total, finish_t, reward = served_transition(
            t, pickup, duration, revenue, horizon, gamma, discount_table(gamma, 121)
        )
        for p in range(61):
            for k, d in enumerate(duration.tolist()):
                want = gamma**p * truncated_discounted_reward(
                    float(revenue[k]), d, gamma, horizon - (t + p)
                )
                assert reward[p, k] == want, (p, d)
                assert total[p, k] == p + d
                assert finish_t[p, k] == min(t + p + d, horizon)


def test_discount_table_is_cached_and_read_only():
    table = discount_table(0.9, 30)
    # Python's float powers, bit for bit, built once per (gamma, n)
    assert table.tolist() == [0.9**k for k in range(30)]
    assert discount_table(0.9, 30) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[1] = 0.5


class TestValueTable:
    def test_rejects_nonzero_terminal_row(self):
        vals = np.ones((3, 2))
        with pytest.raises(ValueError, match="terminal"):
            ValueTable(vals, 0.9)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            ValueTable(np.zeros((3, 2)), 0.0)

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(5, 4))
        vals[-1] = 0.0
        table = ValueTable(vals, 0.9)
        path = tmp_path / "table.csv"
        table.save_csv(path)
        loaded = ValueTable.load_csv(path, 0.9)
        assert np.array_equal(loaded.values, table.values)

    def test_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            ValueTable.load_csv(path, 0.9)

    def test_csv_rejects_missing_and_repeated_entries(self, tmp_path):
        path = tmp_path / "gappy.csv"
        path.write_text("t,cell,value\n0,0,1.0\n0,1,2.0\n0,1,2.0\n1,1,0.0\n")
        with pytest.raises(ValueError, match="1 missing, 1 repeated"):
            ValueTable.load_csv(path, 0.9)


class TestTupleArrays:
    def test_start_t_groups_rows_by_start_time(self):
        world = make_world(3, 6)
        tuples = random_buffer(np.random.default_rng(0), world, 40)
        arr = TupleArrays.from_tuples(tuples)
        assert_tuple_dtypes(arr)
        assert np.all(np.diff(arr.start_t) >= 0)
        for t in range(world.horizon):
            expected = sorted(
                (tr.reward_discounted for tr in tuples if tr.start.t == t)
            )
            assert sorted(arr.reward[arr.start_t == t]) == pytest.approx(expected)

    def test_empty_buffer(self):
        arr = TupleArrays.from_tuples([])
        assert len(arr) == 0
        assert_tuple_dtypes(arr)
        assert len(arr.start_t) == 0

    def test_concat_matches_union(self):
        world = make_world(3, 6)
        rng = np.random.default_rng(1)
        a = random_buffer(rng, world, 15)
        b = random_buffer(rng, world, 25)
        merged = as_arrays([TupleArrays.from_tuples(a), TupleArrays.from_tuples(b)])
        direct = TupleArrays.from_tuples(a + b)
        assert_tuple_dtypes(merged)
        assert len(merged) == len(direct)
        assert sorted(merged.reward) == pytest.approx(sorted(direct.reward))

    def test_concat_empty(self):
        for arr in (as_arrays([]), TupleArrays.join([])):
            assert len(arr) == 0
            assert_tuple_dtypes(arr)

    @pytest.mark.parametrize(
        "start_t,dtype",
        [([0, 0, 1, 2, 2], np.int64), ([2, 0, 2, 1, 0], np.int64), ([2, 0, 2, 1, 0], np.int32)],
        ids=["sorted", "unsorted", "unsorted_int32"],
    )
    def test_stable_sorted_copy_of_its_columns(self, start_t, dtype):
        start_t = np.array(start_t, dtype)
        reward = np.arange(5.0)
        zeros, ones = np.zeros(5, dtype), np.ones(5, dtype)
        cols = (start_t, np.arange(5, dtype=dtype), start_t + 1, zeros, reward, ones)
        arr = TupleArrays(*cols)
        assert_tuple_dtypes(arr)
        # start times are kept per time; the per-row column is derived and read-only
        assert not arr.start_t.flags.writeable
        order = np.argsort(start_t, kind="stable")
        want = [col[order].copy() for col in cols]
        for name, col in zip(TUPLE_COLUMNS, cols):
            assert not np.shares_memory(getattr(arr, name), col), name
            col += 7  # editing an input afterwards leaves the buffer as it was
        for name, col in zip(TUPLE_COLUMNS, want):
            assert np.array_equal(getattr(arr, name), col), name

    @pytest.mark.parametrize("value", [2**32 + 3, 2**31, -(2**31) - 1])
    @pytest.mark.parametrize(
        "column", ["start_t", "start_cell", "finish_t", "finish_cell", "duration"]
    )
    def test_rejects_index_outside_int32(self, column, value):
        cols = {name: np.zeros(3, np.int64) for name in TUPLE_COLUMNS}
        cols["reward"] = np.zeros(3)
        cols[column] = np.array([0, value, 1])
        with pytest.raises(ValueError, match=f"tuple column {column} has a value outside"):
            TupleArrays(**cols)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("column", TUPLE_COLUMNS[1:])
    def test_rejects_column_of_another_length(self, column, rows):
        cols = {name: np.zeros(2, np.int64) for name in TUPLE_COLUMNS}
        cols.update(finish_t=np.ones(2, np.int64), reward=np.zeros(2))
        cols[column] = np.ones(rows, cols[column].dtype)
        with pytest.raises(ValueError, match=rf"tuple column {column} has shape \({rows},\)"):
            TupleArrays(**cols)

    def test_rejects_negative_start_time(self):
        # bounds have no place for a time below 0: such a row would drop out of every slice
        cols = {name: np.zeros(3, np.int32) for name in TUPLE_COLUMNS}
        cols.update(start_t=np.array([0, -1, 2]), finish_t=np.array([1, 0, 3]), reward=np.zeros(3))
        with pytest.raises(ValueError, match="tuple column start_t has a value below 0"):
            TupleArrays(**cols)


def mixed_columns(rng, world, n):
    """Columns of n rows in random start-time order: idle transitions, and rows
    that differ from one in a single field (reward -0.0 among them) or in all."""
    T, cells = world.horizon, world.n_cells
    start_t = rng.integers(0, T, n)
    start_cell = rng.integers(0, cells, n)
    finish_t, finish_cell = start_t + 1, start_cell.copy()
    reward, duration = np.zeros(n), np.ones(n, np.int64)
    kind = rng.integers(0, 6, n)
    reward[kind == 1] = -0.0
    finish_cell[kind == 2] = (start_cell[kind == 2] + 1) % cells
    duration[kind == 3] = 2
    reward[kind == 4] = rng.random(np.count_nonzero(kind == 4)) * 5.0
    moved = kind == 5
    duration[moved] = rng.integers(1, 4, np.count_nonzero(moved))
    finish_t[moved] = np.minimum(start_t[moved] + duration[moved], T)
    finish_cell[moved] = rng.integers(0, cells, np.count_nonzero(moved))
    reward[moved] = rng.random(np.count_nonzero(moved)) * 5.0
    return start_t, start_cell, finish_t, finish_cell, reward, duration


class TestIdleForm:
    """The window builder stores an idle transition as its start cell alone,
    losslessly; the sorting constructor keeps every row in full."""

    WORLD = make_world(4, 8)

    @pytest.mark.parametrize("seed", range(4))
    def test_columns_equal_full_reference(self, seed):
        cols = mixed_columns(np.random.default_rng(seed), self.WORLD, 120)
        want = FullPart(*cols)
        full = np.count_nonzero(~idle_rows(*cols))
        assert 0 < full < len(want.start_t)
        for arr, kept in ((TupleArrays(*cols), len(want.start_t)), (compact_part(*cols), full)):
            assert len(arr.full) == kept
            assert_tuple_dtypes(arr)
            assert_same_part(arr, want)
            # -0.0 is not the idle reward: those rows keep their sign
            assert np.array_equal(np.signbit(arr.reward), np.signbit(want.reward))
            stored = [getattr(arr, name) for name in TupleArrays.__slots__]
            nbytes = sum(a.nbytes for a in stored if isinstance(a, np.ndarray))
            assert nbytes == 4 * len(arr) + 24 * kept

    @pytest.mark.parametrize("gamma", [0.9, 1.0])
    def test_td_slice_equals_full_formula(self, gamma):
        rng = np.random.default_rng(6)
        columns = [mixed_columns(rng, self.WORLD, k) for k in (70, 0, 45, 90)]
        # compact and sorted parts alternate, so a slice mixes both forms
        parts = [
            (compact_part if i % 2 == 0 else TupleArrays)(*cols) for i, cols in enumerate(columns)
        ]
        want = FullPart(*(np.concatenate(col) for col in zip(*columns)))
        T, n = self.WORLD.horizon, self.WORLD.n_cells
        values = rng.normal(size=(T + 1, n))
        # a -0.0 value turns into +0.0 only through the reward added to it
        values[rng.random((T + 1, n)) < 0.3] = -0.0
        values[T] = 0.0
        for t in range(T):
            got = td_slice(parts, t, values, gamma)
            ref = want.td_slice(t, values, gamma)
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), t


class TestDpEvaluate:
    def test_empty_buffer_all_zero(self):
        world = make_world(3, 5)
        table = dp_evaluate([], world, 0.9)
        assert np.all(table.values == 0.0)

    def test_hand_backward_induction(self):
        # Two tuples at (1, c1) with rewards 1 and 3 ending at the horizon,
        # one tuple (0, c0) -> (1, c1) with reward 1: V[1][1] = 2 and
        # V[0][0] = 0.9 * 2 + 1 = 2.8.
        world = GridWorld(2, 2, np.ones((2, 2)))
        o = OrderRequest(1, 0, 1.0, 1, 1)
        tuples = [
            TransitionTuple(State(1, 1), o, 1.0, State(2, 0), 1),
            TransitionTuple(State(1, 1), o, 3.0, State(2, 0), 1),
            TransitionTuple(State(0, 0), o, 1.0, State(1, 1), 1),
        ]
        table = dp_evaluate(TupleArrays.from_tuples(tuples), world, 0.9)
        assert table.values[1, 1] == pytest.approx(2.0)
        assert table.values[0, 0] == pytest.approx(2.8)
        assert table.values[0, 1] == 0.0

    def test_rejects_non_advancing_tuple(self):
        world = make_world(2, 4)
        bad = TupleArrays.from_tuples([TransitionTuple(State(1, 0), None, 0.0, State(1, 0), 1)])
        with pytest.raises(ValueError, match="finish.t"):
            dp_evaluate(bad, world, 0.9)

    def test_matches_reference_implementation(self):
        world = make_world(5, 10)
        rng = np.random.default_rng(7)
        for _ in range(5):
            tuples = random_buffer(rng, world, 200)
            table = dp_evaluate(TupleArrays.from_tuples(tuples), world, 0.9)
            ref = reference_dp(tuples, world.horizon, world.n_cells, 0.9)
            np.testing.assert_allclose(table.values, ref, atol=1e-12)

    def test_warm_start_fills_uncovered_cells(self):
        world = make_world(3, 4)
        init = ValueTable(np.vstack([np.full((4, 3), 5.0), np.zeros(3)]), 0.9)
        tuples = TupleArrays.from_tuples([TransitionTuple(State(0, 0), None, 0.0, State(1, 0), 1)])
        table = dp_evaluate(tuples, world, 0.9, init=init)
        # covered cell backs up onto the warm-started later value
        assert table.values[0, 0] == pytest.approx(0.9 * 5.0)
        # untouched cells keep the initialization
        assert table.values[2, 1] == 5.0
        assert np.all(table.values[-1] == 0.0)


class TestTdSlice:
    @pytest.mark.parametrize("gamma", [0.9, 0.95, 1.0])
    def test_targets_use_python_powers(self, gamma):
        # durations up to 60: numpy's AVX-512 array power rounds 0.9 ** 12
        # and 0.9 ** 23 differently from Python's float power
        world = make_world(4, 70)
        rng = np.random.default_rng(5)
        duration = np.arange(1, 61)
        finish_cell = rng.integers(0, 4, 60)
        reward = rng.random(60) * 9
        arr = TupleArrays(
            np.full(60, 3), rng.integers(0, 4, 60), 3 + duration, finish_cell, reward, duration
        )
        values = rng.random((71, 4)) * 12
        cells, targets = td_slice([arr], 3, values, gamma)
        assert np.array_equal(cells, arr.start_cell)
        want = [
            gamma**d * values[3 + d, c] + r
            for d, c, r in zip(duration.tolist(), finish_cell.tolist(), reward.tolist())
        ]
        assert targets.tolist() == want


class TestTdEvaluate:
    def test_empty_buffer_all_zero(self):
        world = make_world(3, 5)
        assert np.all(td_evaluate([], world, 0.9).values == 0.0)

    def test_hand_instance(self):
        world = GridWorld(2, 2, np.ones((2, 2)))
        o = OrderRequest(1, 0, 1.0, 1, 1)
        tuples = [
            TransitionTuple(State(1, 1), o, 1.0, State(2, 0), 1),
            TransitionTuple(State(1, 1), o, 3.0, State(2, 0), 1),
            TransitionTuple(State(0, 0), o, 1.0, State(1, 1), 1),
        ]
        table = td_evaluate(TupleArrays.from_tuples(tuples), world, 0.9)
        assert table.values[1, 1] == pytest.approx(2.0)
        assert table.values[0, 0] == pytest.approx(2.8)

    def test_agrees_with_dp_on_random_buffers(self):
        world = make_world(8, 12)
        rng = np.random.default_rng(11)
        for _ in range(5):
            tuples = TupleArrays.from_tuples(random_buffer(rng, world, 400))
            dp = dp_evaluate(tuples, world, 0.9)
            td = td_evaluate(tuples, world, 0.9)
            assert np.max(np.abs(dp.values - td.values)) < 1e-6


def transfer_from_zero(buffer, world, gamma):
    """transfer_evaluate toward an all-zero source table on one pair."""
    v_src = ValueTable.zeros(world.horizon, world.n_cells, gamma)
    spec = ConcordanceSpec(pairs=[(0, 1)])
    return transfer_evaluate(buffer, v_src, spec, world, gamma, OptimizerSettings(tol=1e-10))


class TestStartingTable:
    """dp_evaluate, td_evaluate and transfer_evaluate share one starting-table and tuple check.

    On a 2 x 3 world with horizon 5 the table has shape (6, 6).
    """

    WORLD = make_world(6, 5)
    PART = TupleArrays.from_tuples([TransitionTuple(State(0, 5), None, 1.0, State(1, 5), 1)])

    @pytest.mark.parametrize("evaluate", [dp_evaluate, td_evaluate])
    @pytest.mark.parametrize("shape", [(9, 6), (6, 4)])
    def test_rejects_init_of_wrong_shape(self, evaluate, shape):
        init = ValueTable(np.zeros(shape), 0.9)
        with pytest.raises(ValueError, match="init table shape"):
            evaluate(self.PART, self.WORLD, 0.9, init=init)

    @pytest.mark.parametrize("evaluate", [dp_evaluate, td_evaluate, transfer_from_zero])
    @pytest.mark.parametrize(
        "column,start,finish",
        [
            ("finish_cell", State(0, 0), State(1, -1)),
            ("start_t", State(7, 0), State(8, 0)),
            ("finish_t", State(0, 0), State(9, 0)),
            # wrapped to 32 bits, 2**32 + 2 would read as cell 2, inside the world
            ("start_cell", State(0, 2**32 + 2), State(1, 0)),
            ("start_t", State(-1, 0), State(1, 0)),
        ],
        ids=["finish_cell", "start_t", "finish_t", "start_cell_wide", "start_t_negative"],
    )
    def test_rejects_tuple_outside_world(self, evaluate, column, start, finish):
        # a 1 x 3 world with horizon 4: times 0..4, cells 0..2
        world = GridWorld.lattice(1, 3, 4)
        bad = [TransitionTuple(start, None, 1.0, finish, finish.t - start.t)]
        with pytest.raises(ValueError, match=f"tuple column {column}"):
            evaluate(TupleArrays.from_tuples(bad), world, 0.9)

    def test_td_rejects_tuple_that_does_not_advance(self):
        # dp_evaluate's case is TestDpEvaluate.test_rejects_non_advancing_tuple
        bad = TupleArrays.from_tuples([TransitionTuple(State(2, 0), None, 1.0, State(2, 0), 1)])
        with pytest.raises(ValueError, match="finish.t"):
            td_evaluate(bad, self.WORLD, 0.9)


class TestQValue:
    def test_null_option_is_state_value(self):
        world = make_world(2, 10)
        vals = np.zeros((11, 2))
        vals[3, 1] = 3.7
        table = ValueTable(vals, 0.9)
        driver = DriverSlot(0, State(3, 1))
        assert q_value(table, driver, None, 0.9, world) == 3.7

    def test_zero_table_gives_instant_reward(self):
        world = make_world(2, 10)
        table = ValueTable.zeros(10, 2, 0.9)
        driver = DriverSlot(0, State(0, 0))
        order = OrderRequest(0, 1, 10.0, 2, 0)
        expected = truncated_discounted_reward(10.0, 2, 0.9, 2)
        assert q_value(table, driver, order, 0.9, world) == pytest.approx(expected)

    def test_direct_substitution(self):
        # pickup 0, trip of 2 windows finishing at (5, c1) where V = 2
        world = make_world(2, 10)
        vals = np.zeros((11, 2))
        vals[5, 1] = 2.0
        table = ValueTable(vals, 0.9)
        driver = DriverSlot(0, State(3, 0))
        order = OrderRequest(0, 1, 2.0, 2, 3)
        r_k = truncated_discounted_reward(2.0, 2, 0.9, 2)  # 1.9
        assert r_k == pytest.approx(1.9)
        got = q_value(table, driver, order, 0.9, world)
        assert got == pytest.approx(0.81 * 2.0 + 1.9)

    def test_pickup_delays_and_truncates(self):
        # driver needs 2 windows of pickup; order finishes past the horizon
        travel = np.full((2, 2), 2)
        world = GridWorld(2, 5, travel)
        table = ValueTable.zeros(5, 2, 0.9)
        driver = DriverSlot(0, State(2, 0))
        order = OrderRequest(1, 0, 10.0, 4, 2)
        # pickup ends at t=4; only one installment fits before T=5
        expected = 0.9**2 * truncated_discounted_reward(10.0, 4, 0.9, 1)
        assert q_value(table, driver, order, 0.9, world) == pytest.approx(expected)


def transfer_toward_random_source(buffer, world, gamma):
    """transfer_evaluate with an active hinge: a random source table, every pair of 4 cells."""
    rng = np.random.default_rng(3)
    values = np.vstack([rng.random((world.horizon, world.n_cells)) * 5, np.zeros(world.n_cells)])
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    spec = ConcordanceSpec(pairs=pairs, lam=2.0)
    opt = OptimizerSettings(tol=1e-10)
    return transfer_evaluate(buffer, ValueTable(values, gamma), spec, world, gamma, opt)


class TestDayParts:
    """A buffer given as day parts backs up exactly as the parts merged into one."""

    WORLD = make_world(5, 10)
    SIZES = {
        "no_parts": [],
        "one_part": [80],
        "interleaved": [60, 45, 70],
        "empty_part": [50, 0, 40],
    }

    def parts(self, sizes):
        rng = np.random.default_rng(len(sizes))
        return [TupleArrays.from_tuples(random_buffer(rng, self.WORLD, k)) for k in sizes]

    @pytest.mark.parametrize("sizes", list(SIZES.values()), ids=list(SIZES))
    def test_slices_equal_slices_of_concat(self, sizes):
        parts = self.parts(sizes)
        merged = [as_arrays(parts)]
        values = np.random.default_rng(9).random((self.WORLD.horizon + 1, self.WORLD.n_cells))
        for t in range(self.WORLD.horizon):
            got = td_slice(parts, t, values, 0.9)
            want = td_slice(merged, t, values, 0.9)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("evaluate", [dp_evaluate, td_evaluate, transfer_toward_random_source])
    @pytest.mark.parametrize("sizes", list(SIZES.values()), ids=list(SIZES))
    def test_evaluators_equal_on_concat(self, evaluate, sizes):
        parts = self.parts(sizes)
        got = evaluate(parts, self.WORLD, 0.9).values
        want = evaluate(as_arrays(parts), self.WORLD, 0.9).values
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "bad,column",
        [
            (TransitionTuple(State(0, 0), None, 1.0, State(1, 5), 1), "tuple column finish_cell"),
            (TransitionTuple(State(10, 0), None, 1.0, State(11, 0), 1), "tuple column start_t"),
            (TransitionTuple(State(3, 0), None, 1.0, State(3, 0), 1), "finish.t"),
        ],
        ids=["finish_cell", "start_t", "not_advancing"],
    )
    def test_rejects_bad_tuple_in_last_part_only(self, bad, column):
        parts = self.parts([30, 30]) + [TupleArrays.from_tuples([bad])]
        backup_start(parts[:-1], self.WORLD)
        with pytest.raises(ValueError, match=column):
            backup_start(parts, self.WORLD)

    def test_empty_buffer_has_no_parts(self):
        assert backup_start([], self.WORLD)[0] == []

    def test_rejects_each_row_that_does_not_advance(self):
        # the check reads the earliest finish of each start time: every row counts,
        # the first, a middle and the last one of its time alike
        arr = self.parts([60])[0]
        backup_start([arr], self.WORLD)
        for k, t in enumerate(arr.start_t.tolist()):
            columns = {name: getattr(arr, name).copy() for name in TUPLE_COLUMNS}
            columns["finish_t"][k] = t
            stalled = TupleArrays(**columns)
            with pytest.raises(ValueError, match="finish.t"):
                backup_start([arr, stalled], self.WORLD)

    @pytest.mark.parametrize("evaluate", [dp_evaluate, td_evaluate, transfer_toward_random_source])
    def test_evaluators_do_not_build_start_t(self, evaluate, monkeypatch):
        parts = self.parts(self.SIZES["interleaved"])
        monkeypatch.setattr(
            TupleArrays, "start_t", property(lambda arr: pytest.fail("start_t was built"))
        )
        evaluate(parts, self.WORLD, 0.9)
