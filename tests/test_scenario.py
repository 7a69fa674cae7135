import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from dispatchlab import Scenario, ScenarioError, default_scenario
from dispatchlab.reporting import CONFIG_SCHEMA
from dispatchlab.scenario import SCENARIO_SCHEMA

SRC = Path(__file__).resolve().parent.parent / "src"


def minimal_raw(**overrides):
    raw = {
        "name": "mini",
        "grid": {"rows": 2, "cols": 3},
        "horizon": 10,
        "drivers": 4,
        "demand": {"hot_block": [0, 0, 1, 2], "hot_rate": 1.0, "cold_rate": 0.1},
    }
    raw.update(overrides)
    return raw


class TestValidation:
    def test_minimal_scenario_loads(self):
        sc = Scenario.from_dict(minimal_raw())
        assert sc.n_cells == 6
        assert sc.horizon == 10

    def test_retired_optimizer_keys_rejected(self):
        # alpha0 and patience tuned the earlier subgradient solver
        for key in ("alpha0", "patience"):
            raw = minimal_raw(optimizer={key: 5, "max_iters": 40, "tol": 1e-7})
            with pytest.raises(ScenarioError, match=f"'{key}' was unexpected"):
                Scenario.from_dict(raw)

    def test_retired_hot_ramp_rejected(self):
        # target_shift.hot_ramp tilted rates across the hot block; nothing used it
        raw = minimal_raw(target_shift={"rate_scale": 1.5, "hot_ramp": [0.5, 1.5]})
        with pytest.raises(ScenarioError, match="'target_shift'.*'hot_ramp' was unexpected"):
            Scenario.from_dict(raw)

    def test_missing_required_field(self):
        raw = minimal_raw()
        del raw["horizon"]
        with pytest.raises(ScenarioError, match="horizon"):
            Scenario.from_dict(raw)

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioError, match="extra"):
            Scenario.from_dict(minimal_raw(extra=1))

    def test_negative_seed_rejected(self):
        # a window's RNG entropy is scenario seed + run seed, and must be >= 0
        with pytest.raises(ScenarioError, match="'seed'"):
            Scenario.from_dict(minimal_raw(seed=-1))

    def test_error_message_carries_path(self):
        raw = minimal_raw()
        raw["grid"]["cols"] = 1
        with pytest.raises(ScenarioError, match="grid/cols"):
            Scenario.from_dict(raw)

    def test_empty_hot_block_rejected(self):
        raw = minimal_raw()
        raw["demand"]["hot_block"] = [0, 0, 0, 0]
        with pytest.raises(ScenarioError, match="demand.hot_block selects no cells"):
            Scenario.from_dict(raw)

    def test_all_zero_base_rates_rejected(self):
        raw = minimal_raw()
        raw["demand"].update(hot_rate=0, cold_rate=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError, match="demand.hot_rate and demand.cold_rate"):
                Scenario.from_dict(raw)
        raw["demand"]["cold_rate"] = 0.1  # no hot demand is a valid scenario
        assert Scenario.from_dict(raw).n_cells == 6

    def test_hot_block_shifted_off_the_grid_rejected(self):
        # the source block is fine; shifted two rows down it leaves the 2-row grid
        raw = minimal_raw(target_shift={"block_shift": [2, 0]})
        with pytest.raises(ScenarioError, match="shifted by target_shift.block_shift"):
            Scenario.from_dict(raw)

    def test_auto_pairs_need_a_nonempty_tier(self):
        raw = minimal_raw(grid={"rows": 1, "cols": 3})
        with pytest.raises(ScenarioError, match="transfer/pairs"):
            Scenario.from_dict(raw)
        raw["transfer"] = {"pairs": {"mode": "auto", "q": 0.34}}
        assert Scenario.from_dict(raw).n_cells == 3

    def test_explicit_pairs_must_name_cells(self):
        with pytest.raises(ScenarioError, match="transfer/pairs"):
            Scenario.from_dict(minimal_raw(transfer={"pairs": [[0, 6]]}))
        with pytest.raises(ScenarioError, match="transfer/pairs"):
            Scenario.from_dict(minimal_raw(transfer={"pairs": [[2, 2]]}))

    def test_load_rejects_non_mapping(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ScenarioError, match="mapping"):
            Scenario.load(p)

    @pytest.mark.parametrize(
        "name, text, reason",
        [
            ("bad.yaml", "name: [unclosed\n", "is not valid YAML"),
            ("missing.yaml", None, "cannot be read: No such file or directory"),
            ("adir", "", "cannot be read: Is a directory"),
            ("latin1.yaml", "name: caf\xe9\n", "is not UTF-8 text: invalid continuation byte"),
        ],
        ids=["malformed", "missing", "directory", "not_utf8"],
    )
    def test_load_names_an_unusable_file(self, tmp_path, name, text, reason):
        p = tmp_path / name
        if name == "adir":
            p.mkdir()
        elif text is not None:
            p.write_text(text, encoding="latin-1")
        with pytest.raises(ScenarioError, match=re.escape(f"scenario file {p} {reason}")):
            Scenario.load(p)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"horizon": 1},
            {"grid": {"rows": 0}},
            {"demand": {"hot_block": [0, 0, 1], "hot_rate": -1.0, "cold_rate": "x"}},
            {"transfer": {"pairs": {"mode": "manual"}}},
            {"transfer": {"pairs": [[0, -1], [0]]}},
            {"optimizer": {"tol": -1}, "extra": 1},
        ],
    )
    def test_messages_match_jsonschema_validate(self, overrides):
        # one validator per schema must report what jsonschema.validate reports
        raw = minimal_raw(**overrides)
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(raw, SCENARIO_SCHEMA)
        path = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
        with pytest.raises(ScenarioError) as got:
            Scenario.from_dict(raw)
        assert str(got.value) == f"scenario field '{path}': {expected.value.message}"

    def test_yaml_round_trip(self, tmp_path):
        import yaml

        p = tmp_path / "sc.yaml"
        p.write_text(yaml.safe_dump(default_scenario().raw))
        sc = Scenario.load(p)
        assert sc.raw == default_scenario().raw


class TestModelConstruction:
    def test_hot_cells_get_hot_rate(self):
        sc = Scenario.from_dict(minimal_raw())
        model = sc.build_source_model()
        # hot block covers row 0, cols 0..1 -> cells 0 and 1
        mean_rates = model.rates.mean(axis=0)
        assert mean_rates[0] > mean_rates[2]
        assert mean_rates[0] == pytest.approx(mean_rates[1])

    def test_time_profile_mean_is_one(self):
        sc = default_scenario()
        profile = sc._time_profile()
        assert profile.mean() == pytest.approx(1.0)
        assert profile.min() > 0

    def test_target_rates_are_rescaled(self):
        sc = default_scenario()
        src = sc.build_source_model()
        tgt = sc.build_target_model()
        shift = sc.raw["target_shift"]
        assert tgt.rates.sum() > src.rates.sum() * (shift["rate_scale"] * 0.9)

    def test_block_shift_moves_hot_cells(self):
        raw = minimal_raw(target_shift={"block_shift": [1, 0]})
        sc = Scenario.from_dict(raw)
        src = sc.build_source_model().rates.mean(axis=0)
        tgt = sc.build_target_model().rates.mean(axis=0)
        assert src[0] > src[3]  # source hot at row 0
        assert tgt[3] > tgt[0]  # target hot at row 1

    def test_driver_counts_sum_to_total(self):
        for placement in ("demand", "uniform"):
            sc = Scenario.from_dict(minimal_raw(driver_placement=placement))
            model = sc.build_source_model()
            assert model.driver_counts.sum() == 4

    def test_destination_rows_stochastic(self):
        model = default_scenario().build_target_model()
        assert model.destination.shape == (model.n_cells,)
        np.testing.assert_allclose(model.destination.sum(), 1.0, atol=1e-12)

    def test_world_matches_grid(self):
        sc = Scenario.from_dict(minimal_raw())
        world = sc.build_world()
        assert world.n_cells == 6
        assert world.horizon == 10


class TestConcordanceSpecConstruction:
    def test_auto_pairs_from_source_table(self):
        from dispatchlab import ValueTable

        sc = default_scenario()
        vals = np.vstack(
            [np.tile(np.arange(100, dtype=float), (sc.horizon, 1)), np.zeros(100)]
        )
        spec = sc.concordance_spec(ValueTable(vals, 0.9))
        q = sc.pair_config["q"]
        k = int(100 * q)
        assert len(spec.pairs) == k * k
        assert spec.lam == sc.lam
        assert spec.margin == sc.margin

    def test_explicit_pair_list(self):
        raw = minimal_raw(transfer={"lambda": 0.5, "margin": 1.0, "pairs": [[0, 5]]})
        sc = Scenario.from_dict(raw)
        spec = sc.concordance_spec(None)
        assert spec.pairs == [(0, 5)]


def test_default_scenario_is_valid_and_sized():
    sc = default_scenario()
    assert sc.n_cells == 100
    assert sc.horizon == 144
    world = sc.build_world()
    tgt = sc.build_target_model()
    # roughly the intended daily demand volume
    daily = tgt.rates.sum()
    assert 3000 < daily < 8000
    # default_scenario() does not validate its literal at run time, so check it here
    assert Scenario.from_dict(default_scenario().raw).raw == sc.raw


def test_default_scenario_is_a_fresh_copy():
    sc = default_scenario()
    sc.raw["drivers"] = 1
    sc.raw["demand"]["hot_rate"] = 0.0
    again = default_scenario()
    assert again.raw["drivers"] == 100
    assert again.raw["demand"]["hot_rate"] == 1.25


@pytest.mark.parametrize("schema", [SCENARIO_SCHEMA, CONFIG_SCHEMA], ids=["scenario", "config"])
def test_schema_is_valid(schema):
    # validation reuses one validator per schema and no longer checks the schema itself
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_library_run_loads_no_schema_or_yaml_library():
    # a fresh interpreter: other tests load both libraries into this process
    code = (
        "import sys, dispatchlab; dispatchlab.default_scenario(); "
        "print(sorted(m for m in ('jsonschema', 'yaml') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
