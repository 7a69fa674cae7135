import dataclasses

import numpy as np
import pytest

from dispatchlab import (
    DemandModel,
    DriverBatch,
    GridWorld,
    OrderBatch,
    OrderRequest,
    State,
)

from reference_objects import TransitionTuple, order_batch


class TestGridWorld:
    def test_rejects_single_cell(self):
        with pytest.raises(ValueError, match="n_cells"):
            GridWorld(1, 10, np.ones((1, 1)))

    def test_rejects_short_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            GridWorld(2, 1, np.ones((2, 2)))

    def test_rejects_bad_travel_shape(self):
        with pytest.raises(ValueError, match="shape"):
            GridWorld(3, 10, np.ones((2, 2)))

    def test_rejects_nonpositive_travel(self):
        tt = np.ones((2, 2))
        tt[0, 1] = 0
        with pytest.raises(ValueError, match=">= 1"):
            GridWorld(2, 10, tt)

    def test_rejects_infinite_travel(self):
        tt = np.ones((2, 2))
        tt[0, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            GridWorld(2, 10, tt)

    def test_pickup_time_zero_same_cell(self):
        w = GridWorld(2, 10, np.array([[2, 3], [3, 2]]))
        assert w.pickup_matrix[0, 0] == 0
        assert w.pickup_matrix[1, 1] == 0
        assert w.pickup_matrix[0, 1] == 3

    def test_pickup_matrix_zero_diagonal(self):
        w = GridWorld(2, 10, np.array([[2, 3], [3, 2]]))
        assert np.array_equal(w.pickup_matrix, np.array([[0, 3], [3, 0]]))
        # the travel table itself is untouched
        assert w.travel_time[0, 0] == 2

    def test_pickup_matrix_is_computed_once_and_read_only(self):
        w = GridWorld(2, 10, np.array([[2, 3], [3, 2]]))
        assert w.pickup_matrix is w.pickup_matrix
        with pytest.raises(ValueError):
            w.pickup_matrix[0, 1] = 7

    def test_lattice_l1_distances(self):
        w = GridWorld.lattice(2, 3, 10)
        assert w.n_cells == 6
        # cell 0 = (0,0), cell 5 = (1,2)
        assert w.travel_time[0, 5] == 3
        assert w.travel_time[0, 1] == 1
        # in-cell trips still take one window
        assert np.all(np.diag(w.travel_time) == 1)


class TestOrderRequest:
    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError, match="duration"):
            OrderRequest(0, 1, 5.0, 0, 0)

    def test_rejects_negative_revenue(self):
        with pytest.raises(ValueError, match="revenue"):
            OrderRequest(0, 1, -1.0, 1, 0)


class TestOrderBatch:
    def test_from_requests_keeps_columns(self):
        batch = order_batch([OrderRequest(0, 1, 5.0, 2, 4), OrderRequest(3, 2, 1.5, 1, 4)], 4)
        assert len(batch) == 2 and batch.t == 4
        assert batch.origin.tolist() == [0, 3]
        assert batch.destination.tolist() == [1, 2]
        assert batch.revenue.tolist() == [5.0, 1.5]
        assert batch.duration.tolist() == [2, 1]
        assert batch.origin.dtype == np.int64 and batch.revenue.dtype == float

    def test_empty(self):
        assert len(OrderBatch.empty(3)) == 0
        assert len(order_batch([], 3)) == 0

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError, match="duration"):
            OrderBatch([0, 1], [1, 0], [5.0, 1.0], [1, 0], 0)

    def test_rejects_negative_revenue(self):
        with pytest.raises(ValueError, match="revenue"):
            OrderBatch([0], [1], [-1.0], [1], 0)

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="equal-length"):
            OrderBatch([0, 1], [1], [1.0, 2.0], [1, 1], 0)


class TestDriverBatch:
    def test_columns(self):
        batch = DriverBatch([4, 7], [0, 2], 5)
        assert len(batch) == 2 and batch.t == 5
        assert batch.driver_id.dtype == np.int64 and batch.cell.dtype == np.int64

    def test_rejects_ragged_or_negative_columns(self):
        with pytest.raises(ValueError, match="equal-length"):
            DriverBatch([0, 1], [0], 0)
        with pytest.raises(ValueError, match=">= 0"):
            DriverBatch([0, 1], [0, -1], 0)


def test_state_is_ordered_and_hashable():
    assert State(1, 2) < State(2, 0)
    assert len({State(0, 0), State(0, 0), State(0, 1)}) == 2


def test_transition_tuple_idle_flag():
    idle = TransitionTuple(State(0, 0), None, 0.0, State(1, 0), 1)
    order = OrderRequest(0, 1, 5.0, 2, 0)
    serve = TransitionTuple(State(0, 0), order, 4.5, State(2, 1), 2)
    assert idle.is_idle and not serve.is_idle


class TestDemandModel:
    def _kwargs(self, n=2, T=4):
        return dict(
            rates=np.full((T, n), 0.5),
            destination=np.full(n, 1.0 / n),
            price_per_step=1.0,
            base_fare=0.0,
            revenue_noise=0.1,
            driver_counts=np.ones(n, dtype=int),
        )

    def test_valid_model(self):
        m = DemandModel(**self._kwargs())
        assert m.n_cells == 2
        assert m.horizon == 4

    def test_rejects_negative_rates(self):
        kw = self._kwargs()
        kw["rates"][0, 0] = -1.0
        with pytest.raises(ValueError, match="rates"):
            DemandModel(**kw)

    def test_rejects_non_stochastic_destination(self):
        kw = self._kwargs()
        kw["destination"] = np.array([0.5, 0.6])
        with pytest.raises(ValueError, match="destination"):
            DemandModel(**kw)

    def test_rejects_negative_destination(self):
        # sums to 1, but its CDF would not be non-decreasing
        kw = self._kwargs()
        kw["destination"] = np.array([1.5, -0.5])
        with pytest.raises(ValueError, match="destination"):
            DemandModel(**kw)

    def test_rejects_non_finite_rates(self):
        for bad in (np.nan, np.inf):
            kw = self._kwargs()
            kw["rates"][1, 0] = bad
            with pytest.raises(ValueError, match="rates"):
                DemandModel(**kw)

    def test_rejects_revenue_noise_outside_unit_interval(self):
        for bad in (1.5, -0.1, np.nan):
            kw = self._kwargs()
            kw["revenue_noise"] = bad
            with pytest.raises(ValueError, match="revenue_noise"):
                DemandModel(**kw)

    def test_rejects_infinite_cancellation(self):
        kw = self._kwargs()
        kw["cancellation"] = np.inf
        with pytest.raises(ValueError, match="cancellation"):
            DemandModel(**kw)

    def test_rejects_negative_driver_counts(self):
        kw = self._kwargs()
        kw["driver_counts"] = np.array([2, -1])
        with pytest.raises(ValueError, match="driver_counts"):
            DemandModel(**kw)

    def test_rejects_shape_mismatches(self):
        kw = self._kwargs()
        kw["driver_counts"] = np.ones(3, dtype=int)
        with pytest.raises(ValueError, match="driver_counts"):
            DemandModel(**kw)
        kw = self._kwargs()
        kw["price_per_step"] = np.ones(3)
        with pytest.raises(ValueError, match="price_per_step"):
            DemandModel(**kw)
        kw = self._kwargs()
        kw["destination"] = np.full((2, 2), 0.5)  # one distribution for every origin
        with pytest.raises(ValueError, match="destination"):
            DemandModel(**kw)

    def test_is_immutable(self):
        """No field can change after the checks ran, so destination_cdf stays its CDF."""
        kw = self._kwargs()
        m = DemandModel(**kw)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.destination = np.array([0.0, 1.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.revenue_noise = 1.5
        with pytest.raises(ValueError, match="read-only"):
            m.rates[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            m.destination[0] = 1.0
        # the model holds its own copies: the caller's arrays stay writable
        kw["destination"][0] = 1.0
        assert m.destination.tolist() == [0.5, 0.5]
        assert m.destination_cdf.tolist() == [0.5, 1.0]

    def test_rejects_negative_fares(self):
        kw = self._kwargs()
        kw["base_fare"] = -0.5
        with pytest.raises(ValueError, match="revenue parameters"):
            DemandModel(**kw)
