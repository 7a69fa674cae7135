import numpy as np
import pytest

from dispatchlab import (
    ConcordanceSpec,
    ConstraintViolation,
    DayRow,
    DemandModel,
    DriverBatch,
    DriverPool,
    GridWorld,
    OptimizerSettings,
    OrderBatch,
    OrderRequest,
    TupleArrays,
    ValueTable,
    apply_matching,
    dp_evaluate,
    generate_window,
    run_day,
    transfer_evaluate,
)
from dispatchlab.simulator import DayStreams, as_order_index, window_rng
from dispatchlab.valuation import as_arrays

from conftest import assert_same_part, assert_tuple_dtypes, idle_rows
from reference_objects import order_batch, script_orders, truncated_discounted_reward
from test_gpi import micro_scenario

ORDER_COLUMNS = ("origin", "destination", "revenue", "duration")
TUPLE_COLUMNS = ("start_t", "start_cell", "finish_t", "finish_cell", "reward", "duration")


def same_columns(a, b, names):
    return all(np.array_equal(getattr(a, c), getattr(b, c)) for c in names)


def assert_all_idle(arr):
    """Every row is an idle tuple: no reward, one window long, back in its start cell."""
    assert np.all(arr.reward == 0.0)
    assert np.all(arr.duration == 1)
    assert np.array_equal(arr.finish_cell, arr.start_cell)
    assert np.array_equal(arr.finish_t, arr.start_t + 1)


def flat_model(world, rate, driver_counts=None, **kwargs):
    n = world.n_cells
    defaults = dict(
        rates=np.full((world.horizon, n), rate),
        destination=np.full(n, 1.0 / n),
        price_per_step=1.0,
        base_fare=0.0,
        revenue_noise=0.0,
        driver_counts=np.zeros(n, dtype=int) if driver_counts is None else driver_counts,
    )
    defaults.update(kwargs)
    return DemandModel(**defaults)


class TestDriverPool:
    def test_initial_placement(self):
        pool = DriverPool(np.array([2, 0, 1]))
        drivers = pool.idle_at(0)
        assert drivers.t == 0
        assert drivers.cell.tolist() == [0, 0, 2]

    def test_busy_drivers_not_offered(self):
        pool = DriverPool(np.array([1, 1]))
        pool.occupy(0, until=5, cell=1)
        assert pool.idle_at(3).driver_id.tolist() == [1]
        assert pool.idle_at(5).driver_id.tolist() == [0, 1]


class TestGenerateWindow:
    def test_zero_rates_yield_no_orders(self):
        world = GridWorld(2, 6, np.ones((2, 2)))
        model = flat_model(world, 0.0, driver_counts=np.array([1, 1]))
        pool = DriverPool(model.driver_counts)
        orders, drivers = generate_window(model, world, 0, window_rng(0, 0, 0, 0), pool)
        assert len(orders) == 0
        assert len(drivers) == 2

    def test_deterministic_under_fixed_seed(self):
        world = GridWorld.lattice(2, 2, 10)
        model = flat_model(world, 1.5, revenue_noise=0.2)
        pool = DriverPool(model.driver_counts)
        a, _ = generate_window(model, world, 3, window_rng(7, 1, 2, 3), pool)
        b, _ = generate_window(model, world, 3, window_rng(7, 1, 2, 3), pool)
        assert len(a) > 0
        assert same_columns(a, b, ORDER_COLUMNS)

    def test_rejects_out_of_range_window(self):
        world = GridWorld(2, 6, np.ones((2, 2)))
        model = flat_model(world, 1.0)
        pool = DriverPool(model.driver_counts)
        with pytest.raises(ValueError, match="window"):
            generate_window(model, world, 6, window_rng(0, 0, 0, 0), pool)

    def test_poisson_rate_monte_carlo(self):
        # cell 0 at rate 5, cell 1 silent; mean count within 3 sigma
        world = GridWorld(2, 10_000, np.ones((2, 2)))
        model = flat_model(world, 0.0, rates=np.tile([5.0, 0.0], (world.horizon, 1)))
        pool = DriverPool(model.driver_counts)
        counts = []
        for t in range(2000):
            orders, _ = generate_window(model, world, t, window_rng(0, 0, 0, t), pool)
            assert np.all(orders.origin == 0)
            counts.append(len(orders))
        n = len(counts)
        sigma = np.sqrt(5.0 / n)
        assert abs(np.mean(counts) - 5.0) < 3 * sigma

    def test_revenue_follows_fare_schedule(self):
        world = GridWorld.lattice(1, 4, 8)
        model = flat_model(world, 2.0, base_fare=1.5)
        pool = DriverPool(model.driver_counts)
        orders, _ = generate_window(model, world, 0, window_rng(1, 0, 0, 0), pool)
        assert len(orders) > 0
        assert np.array_equal(
            orders.duration, world.travel_time[orders.origin, orders.destination]
        )
        assert orders.revenue == pytest.approx(1.5 + 1.0 * orders.duration)


class TestDayStreams:
    """DayStreams must start every window's streams where window_rng does."""

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 7])
    def test_matches_window_rng_bit_for_bit(self, seed):
        # 2**32 and 2**40 + 7 take two entropy words, so SeedSequence mixes
        # one more word than for the one-word seeds
        n_windows = 144
        for phase in (0, 1):
            for day in (0, 1, 9):
                streams = DayStreams(seed, phase, day, n_windows)
                for t in range(n_windows):
                    for stream in (0, 1):
                        ref = window_rng(seed, phase, day, t, stream)
                        rng = streams.rng(t, stream)
                        assert rng.bit_generator.state == ref.bit_generator.state
                        np.testing.assert_array_equal(rng.random(3), ref.random(3))
                        assert rng.poisson(2.5, 4).tolist() == ref.poisson(2.5, 4).tolist()

    def test_negative_seed_raises_like_window_rng(self):
        with pytest.raises(ValueError, match="non-negative"):
            window_rng(-1, 0, 0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            DayStreams(-1, 0, 0, 4)


class TestApplyMatching:
    def setup_method(self):
        self.world = GridWorld(2, 8, np.full((2, 2), 2))

    def serve_one(self, t, cell, order, gamma):
        """Tuples of one driver at (t, cell) assigned the single order `order`."""
        drivers, orders = DriverBatch([0], [cell], t), order_batch([order], t)
        arr = apply_matching(drivers, orders, np.array([0]), gamma, self.world)
        assert len(arr) == 1
        assert_tuple_dtypes(arr)
        return arr

    def test_idle_advances_one_window(self):
        drivers = DriverBatch([0], [0], 3)
        arr = apply_matching(drivers, OrderBatch.empty(3), np.array([-1]), 0.9, self.world)
        assert_all_idle(arr)
        assert_tuple_dtypes(arr)
        assert (arr.start_t[0], arr.start_cell[0]) == (3, 0)
        assert (arr.finish_t[0], arr.finish_cell[0]) == (4, 0)
        assert arr.reward[0] == 0.0
        assert arr.duration[0] == 1

    def test_serve_undiscounted_recovers_revenue(self):
        arr = self.serve_one(3, 0, OrderRequest(0, 1, 10.0, 2, 3), 1.0)
        assert (arr.finish_t[0], arr.finish_cell[0]) == (5, 1)
        assert arr.reward[0] == pytest.approx(10.0)
        assert arr.duration[0] == 2

    def test_serve_with_pickup_discount(self):
        # pickup 2 windows away
        arr = self.serve_one(0, 1, OrderRequest(0, 1, 10.0, 2, 0), 0.9)
        assert arr.duration[0] == 4
        assert (arr.finish_t[0], arr.finish_cell[0]) == (4, 1)
        assert arr.reward[0] == pytest.approx(0.81 * truncated_discounted_reward(10.0, 2, 0.9, 2))

    def test_truncates_at_horizon(self):
        arr = self.serve_one(7, 0, OrderRequest(0, 1, 10.0, 3, 7), 0.9)
        assert arr.finish_t[0] == 8
        # only the first of three installments fits into the day
        assert arr.reward[0] == pytest.approx(10.0 / 3)

    @pytest.mark.parametrize("m", [0, 1, 3, 5])
    def test_part_equals_sorting_constructor(self, m):
        # the window's columns are kept as built, in the order a sort would give.
        # Driver 3 serves a zero-revenue one-window order in its own cell, a row
        # with the idle transition's bits; driver 4 earns a reward of -0.0
        drivers = DriverBatch(np.arange(m), [0, 1, 0, 1, 0][:m], 5)
        requests = [
            OrderRequest(0, 1, 10.0, 2, 5),
            OrderRequest(1, 1, 0.0, 1, 5),
            OrderRequest(0, 1, -0.0, 1, 5),
        ]
        orders = order_batch(requests, 5)
        assignment = np.array([0, -1, -1, 1, 2][:m], dtype=np.int64)
        arr = apply_matching(drivers, orders, assignment, 0.9, self.world)
        assert len(arr) == m
        # every serving driver's row is kept in full, the idle-equal one too,
        # and the -0.0 reward keeps its sign
        assert len(arr.full) == len(arr.full_reward) == np.count_nonzero(assignment >= 0)
        assert np.count_nonzero(np.signbit(arr.reward)) == (m == 5)
        want = TupleArrays(*(getattr(arr, name) for name in TUPLE_COLUMNS))
        assert_same_part(arr, want)

    def test_rejects_duplicate_driver(self):
        drivers = DriverBatch([0, 0], [0, 0], 0)
        with pytest.raises(ConstraintViolation, match="driver"):
            apply_matching(drivers, OrderBatch.empty(0), np.array([-1, -1]), 0.9, self.world)

    def test_rejects_entry_below_minus_one(self):
        orders = order_batch([OrderRequest(0, 1, 5.0, 1, 0)], 0)
        drivers = DriverBatch([0, 1], [0, 0], 0)
        with pytest.raises(ConstraintViolation, match="-2"):
            apply_matching(drivers, orders, np.array([-2, 0]), 0.9, self.world)

    def test_rejects_duplicate_order(self):
        orders = order_batch([OrderRequest(0, 1, 5.0, 1, 0)], 0)
        drivers = DriverBatch([0, 1], [0, 0], 0)
        with pytest.raises(ConstraintViolation, match="order"):
            apply_matching(drivers, orders, np.array([0, 0]), 0.9, self.world)


def greedy_for(world, gamma):
    from dispatchlab.gpi import myopic_policy

    return myopic_policy(gamma, world, None)


class TestRunDay:
    def test_zero_demand(self):
        world = GridWorld(2, 6, np.ones((2, 2)))
        model = flat_model(world, 0.0, driver_counts=np.array([1, 0]))
        tuples, metrics = run_day(world, model, greedy_for(world, 0.9), 0.9, seed=0)
        assert metrics.reward == 0.0
        assert metrics.orders_created == 0
        assert metrics.answer_rate == 1.0
        assert metrics.completion_rate == 1.0
        assert len(tuples) == world.horizon
        assert_all_idle(tuples)

    def test_model_with_fewer_cells_than_world_fails(self):
        # a 3-cell model would leave cell 3 of the lattice without orders or drivers
        world = GridWorld.lattice(2, 2, 6)
        model = flat_model(GridWorld(3, 6, np.ones((3, 3))), 0.5, driver_counts=np.array([1, 1, 1]))
        with pytest.raises(ValueError, match=r"shape \(6, 3\).*needs \(6, 4\)"):
            run_day(world, model, greedy_for(world, 0.9), 0.9, seed=0)

    def test_model_with_fewer_windows_than_horizon_fails(self):
        # without the check the day stopped with an IndexError at window 4
        world = GridWorld(2, 6, np.ones((2, 2)))
        model = flat_model(GridWorld(2, 4, np.ones((2, 2))), 0.5, driver_counts=np.array([1, 1]))
        with pytest.raises(ValueError, match=r"shape \(4, 2\).*needs \(6, 2\)"):
            run_day(world, model, greedy_for(world, 0.9), 0.9, seed=0)

    def test_single_forced_match(self, monkeypatch):
        world = GridWorld(2, 6, np.ones((2, 2)))
        script_orders(monkeypatch, {1: [OrderRequest(0, 1, 8.0, 2, 1)]})
        model = flat_model(world, 0.0, driver_counts=np.array([1, 0]))
        tuples, metrics = run_day(world, model, greedy_for(world, 0.9), 0.9, seed=0)
        assert metrics.orders_created == 1
        assert metrics.orders_answered == 1
        assert metrics.orders_completed == 1
        assert metrics.reward == pytest.approx(truncated_discounted_reward(8.0, 2, 0.9, 2))

    def test_returns_the_row_of_its_day(self):
        # the row the CSVs print: its day is run_day's argument, its rates are the counts' ratios
        world = GridWorld(2, 8, np.full((2, 2), 2))
        model = flat_model(world, 1.0, driver_counts=np.array([1, 1]), cancellation=0.3)
        _, row = run_day(world, model, greedy_for(world, 0.9), 0.9, seed=4, phase=1, day=7)
        assert isinstance(row, DayRow) and row.day == 7
        assert 0 < row.orders_completed < row.orders_answered < row.orders_created
        assert row.answer_rate == row.orders_answered / row.orders_created
        assert row.completion_rate == row.orders_completed / row.orders_answered

    def test_tuple_conservation(self):
        # every window emits one tuple per idle driver: serve or idle
        world = GridWorld.lattice(2, 2, 12)
        model = flat_model(world, 0.8, driver_counts=np.array([2, 1, 0, 0]))
        tuples, _ = run_day(world, model, greedy_for(world, 0.9), 0.9, seed=3)
        assert_tuple_dtypes(tuples)
        covered = int(tuples.duration.sum())
        # each driver's tuples tile [0, T) except a possible truncated tail
        assert covered >= 3 * world.horizon - 3 * int(tuples.duration.max())
        assert np.all(tuples.finish_t <= world.horizon)

    def test_myopic_policy_is_suboptimal_on_trap_day(self, monkeypatch):
        # Serving the cheap order strands the driver away from tomorrow's
        # big order; idling first is strictly better. Verified by enumerating
        # both one-step choices.
        travel = np.array([[1, 1], [3, 1]])
        world = GridWorld(2, 4, travel)
        cheap = OrderRequest(0, 1, 1.0, 1, 0)
        big = OrderRequest(0, 0, 10.0, 1, 1)
        script_orders(monkeypatch, {0: [cheap], 1: [big]})
        model = flat_model(world, 0.0, driver_counts=np.array([1, 0]))
        _, greedy_metrics = run_day(world, model, greedy_for(world, 1.0), 1.0, seed=0)

        def farsighted(drivers, orders, t):
            if t == 0:
                return np.full(len(drivers), -1)
            taken = set()
            out = []
            for cell in drivers.cell.tolist():
                pick = -1
                for k, origin in enumerate(orders.origin.tolist()):
                    if k not in taken and cell == origin:
                        pick = k
                        taken.add(k)
                        break
                out.append(pick)
            return np.array(out)

        _, patient_metrics = run_day(world, model, farsighted, 1.0, seed=0)
        assert greedy_metrics.reward == pytest.approx(1.0)
        assert patient_metrics.reward == pytest.approx(10.0)

    def test_cancellation_idles_driver_but_counts_answered(self, monkeypatch):
        # pickup of 2 windows with cancellation 0.5 -> order always cancelled
        world = GridWorld(2, 6, np.full((2, 2), 2))
        script_orders(monkeypatch, {0: [OrderRequest(1, 0, 9.0, 1, 0)]})
        model = flat_model(world, 0.0, driver_counts=np.array([1, 0]), cancellation=0.5)
        tuples, metrics = run_day(world, model, greedy_for(world, 0.9), 0.9, seed=0)
        assert metrics.orders_answered == 1
        assert metrics.orders_completed == 0
        assert metrics.reward == 0.0
        assert_all_idle(tuples)

    def test_rejects_assignment_naming_no_order(self):
        # run_day checks the policy's assignment before it reads any entry
        world = GridWorld(2, 6, np.ones((2, 2)))
        model = flat_model(world, 2.0, driver_counts=np.array([1, 1]))

        def past_the_orders(drivers, orders, t):
            return np.array([len(orders)] + [-1] * (len(drivers) - 1))

        with pytest.raises(ConstraintViolation, match="neither one of"):
            run_day(world, model, past_the_orders, 0.9, seed=0)

    def test_rejects_assignment_longer_than_the_drivers(self):
        world = GridWorld(2, 6, np.ones((2, 2)))
        model = flat_model(world, 2.0, driver_counts=np.array([1, 1]))

        def extra_entry_serves(drivers, orders, t):
            return np.append(np.full(len(drivers), -1), 0)

        with pytest.raises(ConstraintViolation, match=r"shape \(3,\) for 2 drivers"):
            run_day(world, model, extra_entry_serves, 0.9, seed=0)

    def test_rejects_a_float_entry_from_the_policy(self):
        world = GridWorld(2, 6, np.ones((2, 2)))
        model = flat_model(world, 2.0, driver_counts=np.array([1, 1]))

        def fractional(drivers, orders, t):
            return np.array([0.7] + [-1.0] * (len(drivers) - 1))

        with pytest.raises(ConstraintViolation, match="float64 array, not an integer ndarray"):
            run_day(world, model, fractional, 0.9, seed=0)

    def test_common_random_numbers_across_policies(self):
        world = GridWorld.lattice(2, 2, 10)
        model = flat_model(world, 1.0, driver_counts=np.array([1, 1, 1, 1]))

        def idle_policy(drivers, orders, t):
            return np.full(len(drivers), -1)

        _, greedy_metrics = run_day(world, model, greedy_for(world, 0.9), 0.9, seed=5)
        _, idle_metrics = run_day(world, model, idle_policy, 0.9, seed=5)
        assert greedy_metrics.orders_created == idle_metrics.orders_created

    def micro_day(self, monkeypatch):
        """A micro-scenario day and the window parts `run_day` built it from."""
        import dispatchlab.simulator as simulator

        windows = []

        def recorded(*args, **kwargs):
            windows.append(apply_matching(*args, **kwargs))
            return windows[-1]

        monkeypatch.setattr(simulator, "apply_matching", recorded)
        sc = micro_scenario(drivers=3)
        world = sc.build_world()
        day, _ = run_day(world, sc.build_target_model(), greedy_for(world, 0.9), 0.9, seed=1)
        return world, day, windows

    def test_day_equals_concat_of_its_windows(self, monkeypatch):
        world, day, windows = self.micro_day(monkeypatch)
        # some windows serve several drivers, and some time has no idle driver
        assert max(map(len, windows)) > 1
        assert len(windows) < world.horizon
        assert_same_part(day, as_arrays(windows))

    def test_day_stores_4_bytes_a_row_and_24_a_full_row(self, monkeypatch):
        # an idle transition is its start cell alone; a served row adds its position,
        # finish, reward and duration
        _, day, _ = self.micro_day(monkeypatch)
        stored = [getattr(day, name) for name in TupleArrays.__slots__]
        arrays = [a for a in stored if isinstance(a, np.ndarray)]
        full = np.count_nonzero(~idle_rows(*(getattr(day, name) for name in TUPLE_COLUMNS)))
        assert 0 < full < len(day)
        assert sum(a.nbytes for a in arrays) == 4 * len(day) + 24 * full

    def test_day_without_drivers_is_an_empty_part(self):
        world = GridWorld(2, 6, np.ones((2, 2)))
        model = flat_model(world, 0.5)
        tuples, metrics = run_day(world, model, greedy_for(world, 0.9), 0.9, seed=0)
        assert metrics.orders_created > 0 and metrics.orders_answered == 0
        assert len(tuples) == 0 and len(tuples.start_t) == 0
        assert_tuple_dtypes(tuples)
        assert np.all(dp_evaluate(tuples, world, 0.9).values == 0.0)
        v_src = ValueTable(np.vstack([np.ones((6, 2)), np.zeros(2)]), 0.9)
        spec = ConcordanceSpec(pairs=[(0, 1)], lam=1.0)
        opt = OptimizerSettings(tol=1e-10)
        table = transfer_evaluate([tuples, tuples], v_src, spec, world, 0.9, opt)
        assert np.all(table.values == 0.0)

    def test_day_is_reproducible(self):
        world = GridWorld.lattice(2, 2, 10)
        model = flat_model(world, 1.0, driver_counts=np.array([1, 1, 0, 0]))
        t1, m1 = run_day(world, model, greedy_for(world, 0.9), 0.9, seed=9)
        t2, m2 = run_day(world, model, greedy_for(world, 0.9), 0.9, seed=9)
        assert m1.reward == m2.reward
        assert same_columns(t1, t2, TUPLE_COLUMNS)


class TestAsOrderIndex:
    @pytest.mark.parametrize(
        "assignment, kind",
        [(np.array([0.7, -1.0], dtype=np.float32), "float"), (np.array([1.9, -1.0]), "float64"),
         (np.array([True, False]), "bool"), (np.array([np.True_, np.False_]), "bool"),
         (np.array([[True], [False]]), "bool")],
    )
    def test_rejects_entry_that_is_not_an_integer(self, assignment, kind):
        # a cast to int64 would serve orders 0 or 1
        with pytest.raises(ConstraintViolation, match=f"assignment is a {kind}"):
            as_order_index(assignment, 2, 3)

    @pytest.mark.parametrize(
        "assignment, kind",
        [([2, -1], "list"), ([2, None], "list"), ((2, -1), "tuple"),
         (np.array([2, None], dtype=object), "object array"), (np.array([]), "float64 array")],
    )
    def test_rejects_anything_but_an_integer_array(self, assignment, kind):
        # the error names the form run_day expects
        with pytest.raises(ConstraintViolation, match=f"{kind}, not an integer ndarray"):
            as_order_index(assignment, len(assignment), 3)

    @pytest.mark.parametrize(
        "assignment",
        [np.array([2, -1]), np.array([2, -1], dtype=np.int32), np.array([2, -1], dtype=np.int16),
         np.array([2, -1], dtype=np.int8)],
    )
    def test_integer_entries_and_idle_drivers(self, assignment):
        k = as_order_index(assignment, 2, 3)
        assert k.dtype == np.int64 and not np.shares_memory(k, assignment)  # run_day writes into k
        np.testing.assert_array_equal(k, [2, -1])

    @pytest.mark.parametrize("big", [2**64 - 1, 2**63 + 5])
    def test_rejects_uint64_entry_beyond_int64(self, big):
        # an int64 cast would wrap 2**64 - 1 to -1 (idle) and 2**63 + 5 to a negative
        with pytest.raises(ConstraintViolation, match=f"entry {big} is neither"):
            as_order_index(np.array([big], dtype=np.uint64), 1, 3)

    @pytest.mark.parametrize("shape", [(2, 1), ()])
    def test_rejects_another_shape(self, shape):
        with pytest.raises(ConstraintViolation, match=r"shape \(.*\) for 2 drivers"):
            as_order_index(np.zeros(shape, dtype=np.int64), 2, 3)

    @pytest.mark.parametrize(
        "empty",
        [np.array([], dtype=np.int64), np.array([], dtype=np.int32), np.array([], dtype=np.uint8)],
    )
    def test_empty_assignment_for_no_drivers(self, empty):
        k = as_order_index(empty, 0, 3)
        assert k.dtype == np.int64 and k.shape == (0,)
