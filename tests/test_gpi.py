import numpy as np
import pytest

from dispatchlab import (
    Buffer,
    ConcordanceSpec,
    OptimizerSettings,
    PolicyKind,
    Scenario,
    ValueTable,
    evaluate_policy_value,
    prepare_source,
    repeat_single_day,
    run_experiment,
)
from dispatchlab.valuation import TupleArrays, as_arrays

from conftest import FullPart, assert_same_part, make_world, random_buffer


def micro_scenario(**overrides):
    """2x2 grid, a handful of windows, light deterministic-ish demand."""
    raw = {
        "name": "micro",
        "seed": 0,
        "grid": {"rows": 2, "cols": 2},
        "horizon": 12,
        "pickup_radius": 3,
        "drivers": 3,
        "driver_placement": "demand",
        "revenue": {"base_fare": 1.0, "price_per_step": 0.5, "noise": 0.1},
        "cancellation": 0.0,
        "source_days": 2,
        "demand": {
            "hot_block": [0, 0, 1, 2],
            "hot_rate": 0.8,
            "cold_rate": 0.05,
            "peak_window": 6,
            "peak_width": 4,
            "offpeak_level": 0.5,
            "dest_hot_weight": 0.6,
        },
        "target_shift": {"rate_scale": 1.5, "rate_offset": 0.01, "peak_shift": 2},
        "transfer": {"lambda": 1.0, "margin": 1.0, "pairs": {"mode": "auto", "q": 0.25}},
        "optimizer": {"max_iters": 300, "tol": 1e-8},
    }
    raw.update(overrides)
    return Scenario.from_dict(raw)


class TestEvaluatePolicyValue:
    def setup_method(self):
        self.world = make_world(4, 8)
        rng = np.random.default_rng(2)
        self.buffer = Buffer(
            source_days=[TupleArrays.from_tuples(random_buffer(rng, self.world, 60))],
            target_days=[TupleArrays.from_tuples(random_buffer(rng, self.world, 60))],
        )
        self.v_src = ValueTable.zeros(8, 4, 0.9)
        self.spec = ConcordanceSpec(pairs=[(0, 3)], lam=0.0)

    def test_greedy_is_zero_table(self):
        table = evaluate_policy_value(
            PolicyKind.GREEDY, self.buffer, None, None, self.world, 0.9
        )
        assert np.all(table.values == 0.0)

    def test_target_only_empty_buffer_is_zero(self):
        table = evaluate_policy_value(
            PolicyKind.TARGET_ONLY, Buffer(), None, None, self.world, 0.9
        )
        assert np.all(table.values == 0.0)

    def test_source_only_requires_source_data(self):
        with pytest.raises(ValueError, match="source"):
            evaluate_policy_value(
                PolicyKind.SOURCE_ONLY, Buffer(), None, None, self.world, 0.9
            )

    def test_naively_combine_requires_source_data(self):
        with pytest.raises(ValueError, match="source"):
            evaluate_policy_value(
                PolicyKind.NAIVELY_COMBINE, Buffer(), None, None, self.world, 0.9
            )

    def test_pattern_transfer_requires_prior(self):
        with pytest.raises(ValueError, match="pattern_transfer"):
            evaluate_policy_value(
                PolicyKind.PATTERN_TRANSFER, self.buffer, None, None, self.world, 0.9
            )

    def test_pattern_transfer_lambda_zero_reduces_to_target_only(self):
        opt = OptimizerSettings(max_iters=4000, tol=1e-16)
        to = evaluate_policy_value(
            PolicyKind.TARGET_ONLY, self.buffer, None, None, self.world, 0.9
        )
        pt = evaluate_policy_value(
            PolicyKind.PATTERN_TRANSFER,
            self.buffer,
            self.v_src,
            self.spec,
            self.world,
            0.9,
            opt=opt,
        )
        assert np.max(np.abs(pt.values - to.values)) < 1e-6

    def test_naively_combine_uses_both_segments(self):
        nc = evaluate_policy_value(
            PolicyKind.NAIVELY_COMBINE, self.buffer, None, None, self.world, 0.9
        )
        to = evaluate_policy_value(
            PolicyKind.TARGET_ONLY, self.buffer, None, None, self.world, 0.9
        )
        assert not np.array_equal(nc.values, to.values)


class TestBuffer:
    WORLD = make_world(4, 8)

    def setup_method(self):
        self.rng = np.random.default_rng(5)
        self.tuples = {}

    def day(self):
        """A day part, with its tuples kept for the full-column reference."""
        tuples = random_buffer(self.rng, self.WORLD, 40)
        part = TupleArrays.from_tuples(tuples)
        self.tuples[part] = tuples
        return part

    def assert_same(self, got, parts):
        assert all(a is b for a, b in zip(got, parts)) and len(got) == len(parts)
        want = FullPart.from_tuples([tr for part in parts for tr in self.tuples[part]])
        assert_same_part(as_arrays(got), want, self.WORLD.horizon)

    def test_merged_views_equal_concat_of_parts(self):
        buffer = Buffer(source_days=[self.day(), self.day()])
        self.assert_same(buffer.source_arrays(), buffer.source_days)
        self.assert_same(buffer.all_arrays(), buffer.source_days)
        assert buffer.target_arrays() == []
        for _ in range(4):
            buffer.target_days.append(self.day())
            self.assert_same(buffer.target_arrays(), buffer.target_days)
            self.assert_same(buffer.all_arrays(), buffer.source_days + buffer.target_days)
        buffer.target_days = buffer.target_days[1:]
        self.assert_same(buffer.target_arrays(), buffer.target_days)
        self.assert_same(buffer.all_arrays(), buffer.source_days + buffer.target_days)


class TestRunExperiment:
    def test_zero_days_is_empty(self):
        sc = micro_scenario()
        assert run_experiment(sc, PolicyKind.GREEDY, 0, 0.9, seed=0) == []

    def test_forced_single_match_reward(self):
        # one driver, one scripted-like day: heavy demand off, single window
        sc = micro_scenario(drivers=1)
        rows = run_experiment(sc, PolicyKind.GREEDY, 1, 0.9, seed=0)
        assert len(rows) == 1
        assert rows[0].reward >= 0.0

    def test_source_only_table_frozen(self):
        sc = micro_scenario()
        src = prepare_source(sc, 0.9, seed=0)
        rows = run_experiment(sc, PolicyKind.SOURCE_ONLY, 3, 0.9, seed=0, source=src)
        assert len(rows) == 3

    def test_lambda_zero_transfer_matches_target_only(self):
        sc = micro_scenario(
            optimizer={"max_iters": 4000, "tol": 1e-16}
        )
        src = prepare_source(sc, 0.9, seed=0)
        to = run_experiment(sc, PolicyKind.TARGET_ONLY, 3, 0.9, seed=0, source=src)
        pt = run_experiment(
            sc, PolicyKind.PATTERN_TRANSFER, 3, 0.9, seed=0, lam=0.0, source=src
        )
        for a, b in zip(to, pt):
            assert a.reward == pytest.approx(b.reward)
            assert a.orders_answered == b.orders_answered

    def test_policies_see_identical_demand(self):
        sc = micro_scenario()
        src = prepare_source(sc, 0.9, seed=1)
        per_policy = {}
        for kind in PolicyKind:
            rows = run_experiment(sc, kind, 2, 0.9, seed=1, source=src)
            per_policy[kind] = [r.orders_created for r in rows]
        counts = list(per_policy.values())
        assert all(c == counts[0] for c in counts)

    def test_deterministic_given_seed(self):
        sc = micro_scenario()
        src = prepare_source(sc, 0.9, seed=2)
        a = run_experiment(sc, PolicyKind.TARGET_ONLY, 3, 0.9, seed=2, source=src)
        b = run_experiment(sc, PolicyKind.TARGET_ONLY, 3, 0.9, seed=2, source=src)
        assert [r.reward for r in a] == [r.reward for r in b]

    def test_seeds_change_demand(self):
        sc = micro_scenario()
        a = run_experiment(sc, PolicyKind.GREEDY, 2, 0.9, seed=0)
        b = run_experiment(sc, PolicyKind.GREEDY, 2, 0.9, seed=1)
        assert [r.orders_created for r in a] != [r.orders_created for r in b]


class TestPrepareSource:
    def test_counts_and_shapes(self):
        sc = micro_scenario()
        src = prepare_source(sc, 0.9, seed=0)
        assert len(src.days) == sc.source_days
        assert src.v_src.values.shape == (sc.horizon + 1, sc.n_cells)
        assert len(src.pairs) >= 1

    def test_deterministic(self):
        sc = micro_scenario()
        a = prepare_source(sc, 0.9, seed=0)
        b = prepare_source(sc, 0.9, seed=0)
        assert np.array_equal(a.v_src.values, b.v_src.values)
        assert a.pairs == b.pairs


class TestRepeatSingleDay:
    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError, match="repetitions"):
            repeat_single_day(micro_scenario(), PolicyKind.GREEDY, 0, 0.9, seed=0)

    def test_single_repetition(self):
        rows = repeat_single_day(micro_scenario(), PolicyKind.GREEDY, 1, 0.9, seed=0)
        assert len(rows) == 1
        assert rows[0].iteration == 0

    def test_greedy_reward_is_flat(self):
        rows = repeat_single_day(micro_scenario(), PolicyKind.GREEDY, 4, 0.9, seed=0)
        rewards = {r.reward for r in rows}
        assert len(rewards) == 1

    def test_target_only_value_delta_shrinks(self):
        rows = repeat_single_day(
            micro_scenario(), PolicyKind.TARGET_ONLY, 8, 0.9, seed=0
        )
        assert rows[-1].value_delta < rows[1].value_delta + 1e-9

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_first_pass_is_day_zero_of_run_experiment(self, kind):
        sc = micro_scenario()
        src = prepare_source(sc, 0.9, seed=3)
        days = run_experiment(sc, kind, 2, 0.9, seed=3, source=src)
        passes = repeat_single_day(sc, kind, 2, 0.9, seed=3, source=src)
        assert passes[0].reward == days[0].reward
