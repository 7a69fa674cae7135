"""The columnar day loop reproduces the object-per-record loop bit for bit."""
import numpy as np
import pytest

from dispatchlab import (
    DemandModel,
    DriverBatch,
    DriverSlot,
    GridWorld,
    OrderRequest,
    Scenario,
    State,
    ValueTable,
    apply_matching,
    build_problem,
    run_day,
)
from dispatchlab.gpi import myopic_policy, value_dispatch_policy
from dispatchlab.scenario import default_scenario
from dispatchlab.valuation import td_slice

import reference_loop as ref
from conftest import FullPart, assert_same_part
from reference_objects import order_batch, script_orders

TRIPLES = [(0, 0, 0), (5, 1, 3), (11, 1, 7)]  # (seed, phase, day)


def small_scenario(radius):
    return Scenario.from_dict(
        {
            "name": "reference",
            "grid": {"rows": 4, "cols": 5},
            "horizon": 30,
            "pickup_radius": radius,
            "drivers": 18,
            "revenue": {"base_fare": 2.0, "price_per_step": 0.4, "noise": 0.3},
            "cancellation": 0.08,
            "demand": {"hot_block": [1, 1, 3, 4], "hot_rate": 1.4, "cold_rate": 0.1},
        }
    )


def random_table(world, gamma, seed=4):
    values = np.random.default_rng(seed).random((world.horizon + 1, world.n_cells)) * 12.0
    values[-1] = 0.0
    return ValueTable(values, gamma)


def policies(kind, table, gamma, world, radius):
    """(columnar policy, object-per-record policy) of the same kind."""
    if kind == "myopic":
        return (
            myopic_policy(gamma, world, radius),
            ref.myopic_policy(gamma, world, radius),
        )
    return (
        value_dispatch_policy(table, gamma, world, radius),
        ref.value_policy(table, gamma, world, radius),
    )


def assert_same_day(
    world, model, kind, gamma, radius, seed, phase, day, table=None, scripted=None
):
    """`scripted` must also be installed for `run_day` with `script_orders`."""
    table = table or random_table(world, gamma)
    new_policy, old_policy = policies(kind, table, gamma, world, radius)
    arrays, metrics = run_day(world, model, new_policy, gamma, seed, phase=phase, day=day)
    tuples, ref_metrics = ref.run_day(
        world, model, old_policy, gamma, seed, phase=phase, day=day, scripted=scripted
    )
    assert len(arrays) == len(tuples) > 0
    assert_same_targets(arrays, FullPart.from_tuples(tuples), world, table.values, gamma)
    assert metrics == ref_metrics
    return metrics


def assert_same_targets(arrays, want, world, values, gamma):
    """Equal columns and slices, and every slice's backup targets bit for bit."""
    assert_same_part(arrays, want, world.horizon)
    for t in range(world.horizon):
        got, ref_slice = td_slice([arrays], t, values, gamma), want.td_slice(t, values, gamma)
        for a, b in zip(got, ref_slice):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), t


@pytest.mark.parametrize("kind", ["myopic", "value"])
@pytest.mark.parametrize("gamma", [0.9, 1.0])
@pytest.mark.parametrize("radius", [None, 2])
@pytest.mark.parametrize("seed,phase,day", TRIPLES)
def test_sampled_demand_matches_reference(kind, gamma, radius, seed, phase, day):
    sc = small_scenario(radius)
    world = sc.build_world()
    model = sc.build_target_model() if phase else sc.build_source_model()
    metrics = assert_same_day(world, model, kind, gamma, radius, seed, phase, day)
    # cancellation is on, so the stream-1 draws decide some outcomes
    assert metrics.orders_completed < metrics.orders_answered


@pytest.mark.parametrize("kind", ["myopic", "value"])
@pytest.mark.parametrize("gamma", [0.9, 1.0])
def test_scripted_orders_match_reference(kind, gamma, monkeypatch):
    # cells on a line, 12 windows from end to end: pickups, paid installments
    # and whole trips reach 12 and 23 windows, where numpy's array power and
    # Python's float power of 0.9 differ in the last bit; trips that run past
    # the horizon are truncated and need longer discount tables
    world = GridWorld.lattice(1, 13, 40)
    scripted = {
        0: [OrderRequest(0, 12, 9.0, 12, 0), OrderRequest(4, 1, 4.0, 3, 0)],
        2: [OrderRequest(12, 0, 30.0, 23, 2)],
        3: [OrderRequest(6, 2, 6.5, 4, 3)],
        14: [OrderRequest(0, 12, 20.0, 12, 14), OrderRequest(12, 12, 1.0, 1, 14)],
        30: [OrderRequest(5, 3, 12.0, 45, 30), OrderRequest(0, 0, 2.0, 1, 30)],
    }
    n = world.n_cells
    counts = np.zeros(n, dtype=int)
    counts[[0, 4, 12]] = 1
    model = DemandModel(
        rates=np.zeros((world.horizon, n)),
        destination=np.full(n, 1.0 / n),
        price_per_step=1.0,
        base_fare=0.0,
        revenue_noise=0.0,
        driver_counts=counts,
        cancellation=0.02,
    )
    script_orders(monkeypatch, scripted)
    for seed in (0, 1, 2):
        metrics = assert_same_day(world, model, kind, gamma, None, seed, 1, 0, scripted=scripted)
        assert metrics.orders_completed >= 4


def test_served_rows_like_idle_ones_match_reference(monkeypatch):
    # driver l serves order l: order 0 pays nothing for one window in its own cell, so
    # its row equals an idle transition in every field; order 1 pays -0.0
    world = GridWorld.lattice(1, 4, 6)
    scripted = {
        1: [OrderRequest(0, 0, 0.0, 1, 1), OrderRequest(2, 3, -0.0, 1, 1)],
        3: [OrderRequest(2, 2, 0.0, 1, 3), OrderRequest(0, 3, 5.0, 2, 3)],
    }
    model = DemandModel(
        rates=np.zeros((world.horizon, 4)),
        destination=np.full(4, 0.25),
        price_per_step=1.0,
        base_fare=0.0,
        revenue_noise=0.0,
        driver_counts=np.array([1, 0, 1, 0]),
        cancellation=0.0,
    )
    script_orders(monkeypatch, scripted)

    def in_turn(drivers, orders, t):
        return [l if l < len(orders) else None for l in range(len(drivers))]

    def in_turn_objects(drivers, orders, t):
        return [(d, orders[l] if l < len(orders) else None) for l, d in enumerate(drivers)]

    arrays, metrics = run_day(world, model, in_turn, 0.9, seed=0)
    tuples, ref_metrics = ref.run_day(
        world, model, in_turn_objects, 0.9, seed=0, scripted=scripted
    )
    values = random_table(world, 0.9).values
    values[2:4, 0] = -0.0
    assert_same_targets(arrays, FullPart.from_tuples(tuples), world, values, 0.9)
    assert metrics == ref_metrics
    # both kinds of row are there: a served one with the idle bits, and one paying -0.0
    served_like_idle = [tr for tr in tuples if tr.order is not None and tr.reward_discounted == 0.0]
    assert any(tr.finish.cell == tr.start.cell and tr.duration == 1 for tr in served_like_idle)
    assert np.signbit(arrays.reward).any()


@pytest.mark.parametrize("gamma", [0.9, 0.95, 1.0])
@pytest.mark.parametrize("radius", [None, 5])
def test_build_problem_scores_match_reference(gamma, radius):
    # long lattice and long trips: every discount exponent up to 60 occurs
    world = GridWorld.lattice(1, 31, 50)
    rng = np.random.default_rng(6)
    table = random_table(world, gamma, seed=3)
    for t in (0, 17, 45):
        cells = rng.integers(0, 31, size=9)
        requests = [
            OrderRequest(int(o), int(d), float(r), int(k), t)
            for o, d, r, k in zip(
                rng.integers(0, 31, 14),
                rng.integers(0, 31, 14),
                rng.random(14) * 20,
                rng.integers(1, 31, 14),
            )
        ]
        slots = [DriverSlot(l, State(t, int(c))) for l, c in enumerate(cells)]
        got = build_problem(
            DriverBatch(np.arange(9), cells, t),
            order_batch(requests, t),
            table,
            gamma,
            world,
            radius,
        )
        want = ref.build_problem(slots, requests, table, gamma, world, radius)
        assert got.scores.tobytes() == want.scores.tobytes()
        assert np.array_equal(got.feasible, want.feasible)


@pytest.mark.parametrize("gamma", [0.9, 0.95, 1.0])
def test_apply_matching_matches_reference(gamma):
    # pickups up to 30 windows: the pickup discount gamma ** pickup is where
    # Python's and numpy's powers would first show in the rewards
    world = GridWorld.lattice(1, 31, 50)
    rng = np.random.default_rng(8)
    for t in (0, 9, 30, 49):
        cells = rng.integers(0, 31, size=12)
        requests = [
            OrderRequest(int(o), int(d), float(r), int(k), t)
            for o, d, r, k in zip(
                rng.integers(0, 31, 10),
                rng.integers(0, 31, 10),
                rng.random(10) * 20,
                rng.integers(1, 31, 10),
            )
        ]
        assignment = [None] * 12
        for l, k in zip(rng.permutation(12), range(8)):
            assignment[l] = k
        slots = [DriverSlot(l, State(t, int(c))) for l, c in enumerate(cells)]
        pairs = [(d, None if k is None else requests[k]) for d, k in zip(slots, assignment)]
        got = apply_matching(
            DriverBatch(np.arange(12), cells, t),
            order_batch(requests, t),
            assignment,
            gamma,
            world,
        )
        assert_same_part(got, FullPart.from_tuples(ref.apply_matching(pairs, t, gamma, world)), 50)


def test_dense_fleet_matches_reference():
    # the default scenario with 300 drivers: many more drivers than orders
    raw = dict(default_scenario().raw, drivers=300)
    sc = Scenario.from_dict(raw)
    world = sc.build_world()
    table = random_table(world, 0.9, seed=9)
    assert_same_day(
        world, sc.build_target_model(), "value", 0.9, sc.pickup_radius, 2, 1, 1, table=table
    )
