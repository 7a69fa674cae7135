import warnings

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from dispatchlab import ValueTable
from dispatchlab.cli import main


MICRO_SCENARIO = {
    "name": "micro-cli",
    "seed": 0,
    "grid": {"rows": 2, "cols": 2},
    "horizon": 10,
    "pickup_radius": 3,
    "drivers": 2,
    "revenue": {"base_fare": 1.0, "price_per_step": 0.5, "noise": 0.1},
    "source_days": 1,
    "demand": {"hot_block": [0, 0, 1, 2], "hot_rate": 0.6, "cold_rate": 0.05},
    "transfer": {"lambda": 0.5, "margin": 1.0, "pairs": {"mode": "auto", "q": 0.25}},
    "optimizer": {"max_iters": 60, "tol": 1e-6},
}


def write_config(tmp_path, **overrides):
    cfg = {
        "scenario": MICRO_SCENARIO,
        "policies": ["greedy", "target_only"],
        "gammas": [0.9],
        "seeds": [0],
        "days": 2,
        "repetitions": 2,
    }
    cfg.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestSimulate:
    def test_writes_expected_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(cfg), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        per_day = (out / "per_day.csv").read_text().strip().splitlines()
        # header + 2 policies x 1 seed x 1 gamma x 1 lambda x 2 days
        assert len(per_day) == 1 + 4
        assert per_day[0].startswith("scenario,policy,seed,gamma,lambda,day")
        assert (out / "summary.csv").exists()
        assert (out / "manifest.yaml").exists()

    def test_zero_days_header_only(self, tmp_path):
        cfg = write_config(tmp_path, days=0)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(cfg), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = (out / "per_day.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_all_policies_paired_demand(self, tmp_path):
        cfg = write_config(
            tmp_path,
            policies=[
                "greedy",
                "source_only",
                "target_only",
                "naively_combine",
                "pattern_transfer",
            ],
            days=1,
        )
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(cfg), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = (out / "per_day.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == 5

    def test_seed_and_policy_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            [
                "simulate",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--seeds",
                "3,4",
                "--policy",
                "greedy",
            ],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "per_day.csv").read_text().strip().splitlines()[1:]
        # 1 policy x 2 seeds x 2 days
        assert len(lines) == 4
        assert all(line.split(",")[1] == "greedy" for line in lines)

    def test_config_checked_for_the_file_and_the_overrides_only(self, tmp_path, monkeypatch):
        # the (gamma, seed) units reuse the parsed config instead of checking it again
        import dispatchlab.reporting as reporting

        checked, check = [], reporting.check_config

        def counted(data):
            checked.append(data)
            check(data)

        monkeypatch.setattr(reporting, "check_config", counted)
        cfg = write_config(tmp_path, gammas=[0.9, 0.95], days=1)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(cfg), "--out", str(out), "--seeds", "0,1"]
        )
        assert result.exit_code == 0, result.output
        assert [data.get("seeds") for data in checked] == [[0], [0, 1]]

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        runner = CliRunner()
        r1 = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out1)])
        assert r1.exit_code == 0, r1.output
        r2 = runner.invoke(
            main,
            ["simulate", "--config", str(out1 / "manifest.yaml"), "--out", str(out2)],
        )
        assert r2.exit_code == 0, r2.output
        for name in ("per_day.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_malformed_config_fails_with_diagnostic(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"scenario": MICRO_SCENARIO, "gammas": [2.0]}))
        result = CliRunner().invoke(main, ["simulate", "--config", str(path)])
        assert result.exit_code != 0
        assert "gammas" in result.output

    def test_out_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DISPATCHLAB_OUT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "root" / "micro-cli" / "per_day.csv").exists()


class TestRepeatDay:
    def test_repeat_rows_and_greedy_constant(self, tmp_path):
        cfg = write_config(tmp_path, policies=["greedy"], repetitions=3)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["repeat-day", "--config", str(cfg), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = (out / "repeat_day.csv").read_text().strip().splitlines()
        assert lines[0] == "scenario,policy,seed,gamma,lambda,iteration,reward,value_delta"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        assert len({r[6] for r in rows}) == 1  # greedy reward is flat

    def test_single_repetition(self, tmp_path):
        cfg = write_config(tmp_path, policies=["target_only"])
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["repeat-day", "--config", str(cfg), "--out", str(out), "--repetitions", "1"],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "repeat_day.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == 1


class TestConcordance:
    def test_reports_rate_and_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        rng = np.random.default_rng(0)
        vals = rng.random((11, 4))
        vals[-1] = 0.0
        table = ValueTable(vals, 0.9)
        src, tgt = tmp_path / "src.csv", tmp_path / "tgt.csv"
        table.save_csv(src)
        table.save_csv(tgt)
        out = tmp_path / "report.csv"
        result = CliRunner().invoke(
            main,
            [
                "concordance",
                "--config",
                str(cfg),
                "--source-table",
                str(src),
                "--target-table",
                str(tgt),
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "aggregate_concordance_rate=1.0" in result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "slice,rate"
        assert lines[-1] == "aggregate,1.0"

    def run_concordance(self, tmp_path, src_text, tgt_text):
        src, tgt = tmp_path / "src.csv", tmp_path / "tgt.csv"
        src.write_text(src_text)
        tgt.write_text(tgt_text)
        cfg = write_config(tmp_path)
        args = ["concordance", "--config", str(cfg)]
        return CliRunner().invoke(
            main, args + ["--source-table", str(src), "--target-table", str(tgt)]
        )

    @staticmethod
    def table_text(values):
        rows = [f"{t},{c},{v!r}" for t in range(len(values)) for c, v in enumerate(values[t])]
        return "\n".join(["t,cell,value"] + rows) + "\n"

    def test_reports_tied_share_and_strict_rate(self, tmp_path):
        # a flat source ties every pair, which the aggregate counts as agreement
        values = np.random.default_rng(1).random((11, 4))
        values[-1] = 0.0
        flat = self.table_text(np.zeros((11, 4)).tolist())
        result = self.run_concordance(tmp_path, flat, self.table_text(values.tolist()))
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == [
            "aggregate_concordance_rate=1.0",
            "tied_share=1.0",
            "strict_concordance_rate=nan",
        ]

    def test_non_numeric_value_fails_cleanly(self, tmp_path):
        good = self.table_text(np.zeros((11, 4)).tolist())
        bad = good.replace("3,2,0.0", "3,2,abc")
        result = self.run_concordance(tmp_path, good, bad)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "target table" in result.output
        assert "could not convert string to float" in result.output

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_value_fails_cleanly(self, tmp_path, text):
        # a NaN difference is never discordant, so an all-NaN table read as rate 1.0
        good = self.table_text(np.zeros((11, 4)).tolist())
        bad = good.replace("0.0", text)
        result = self.run_concordance(tmp_path, good, bad)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "target table" in result.output
        assert f"value table line 2: value '{text}' is not finite" in result.output

    def test_huge_index_fails_before_allocating(self, tmp_path):
        # a dense count array of the listed extents would need 3.2e16 bytes
        good = self.table_text(np.zeros((11, 4)).tolist())
        result = self.run_concordance(tmp_path, good, good + "1000000000000000,0,0.0\n")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "Error: target table" in result.output
        assert "must list each (t, cell) once" in result.output

    def test_nonzero_terminal_row_fails_cleanly(self, tmp_path):
        vals = np.zeros((11, 4))
        vals[-1, 2] = 1.5
        result = self.run_concordance(
            tmp_path, self.table_text(vals.tolist()), self.table_text(np.zeros((11, 4)).tolist())
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "source table" in result.output
        assert "terminal row" in result.output

    def test_table_not_matching_scenario_fails(self, tmp_path):
        # both tables agree with each other, but the scenario has horizon 10 and 4 cells
        text = self.table_text(np.zeros((8, 4)).tolist())
        result = self.run_concordance(tmp_path, text, text)
        assert result.exit_code == 1
        assert "does not match the scenario" in result.output
        assert "(11, 4)" in result.output

    def test_directory_as_table_fails_cleanly(self, tmp_path):
        cfg = write_config(tmp_path)
        table = tmp_path / "tables"
        table.mkdir()
        result = CliRunner().invoke(
            main,
            ["concordance", "--config", str(cfg), "--source-table", str(table)]
            + ["--target-table", str(table)],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "is a directory" in result.output

    def test_shape_mismatch_fails(self, tmp_path):
        cfg = write_config(tmp_path)
        a = np.zeros((11, 4))
        b = np.zeros((6, 4))
        src, tgt = tmp_path / "src.csv", tmp_path / "tgt.csv"
        ValueTable(a, 0.9).save_csv(src)
        ValueTable(b, 0.9).save_csv(tgt)
        result = CliRunner().invoke(
            main,
            [
                "concordance",
                "--config",
                str(cfg),
                "--source-table",
                str(src),
                "--target-table",
                str(tgt),
            ],
        )
        assert result.exit_code != 0
        assert "mismatch" in result.output


ONE_BY_THREE = dict(
    MICRO_SCENARIO,
    name="one-by-three",
    grid={"rows": 1, "cols": 3},
    demand={"hot_block": [0, 0, 1, 1], "hot_rate": 0.6, "cold_rate": 0.05},
    transfer={"lambda": 0.5, "margin": 1.0, "pairs": {"mode": "auto", "q": 0.2}},
)


class TestEmptyPairTier:
    """A 1x3 grid with q = 0.2 has no cell in either auto tier."""

    def test_validate_config_fails(self, tmp_path):
        cfg = write_config(tmp_path, scenario=ONE_BY_THREE)
        result = CliRunner().invoke(main, ["validate-config", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "transfer/pairs" in result.output
        assert "Traceback" not in result.output

    def test_simulate_writes_nothing(self, tmp_path):
        cfg = write_config(tmp_path, scenario=ONE_BY_THREE)
        out = tmp_path / "out"
        for command in ("simulate", "repeat-day"):
            result = CliRunner().invoke(main, [command, "--config", str(cfg), "--out", str(out)])
            assert result.exit_code != 0
            assert "transfer/pairs" in result.output
            assert "Traceback" not in result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert not out.exists() or not any(out.iterdir())


class TestFailedGrid:
    def test_no_manifest_when_the_grid_fails(self, tmp_path, monkeypatch):
        import dispatchlab.cli as cli

        def broken(*args, **kwargs):
            raise RuntimeError("grid failed")

        monkeypatch.setattr(cli, "run_experiment", broken)
        monkeypatch.setattr(cli, "repeat_single_day", broken)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        for command in ("simulate", "repeat-day"):
            result = CliRunner().invoke(main, [command, "--config", str(cfg), "--out", str(out)])
            assert isinstance(result.exception, RuntimeError)
            assert not out.exists()


class TestOutputPath:
    """An output path that cannot be written stops the command before any work:
    a clean error naming the path, nothing run, printed or written."""

    @pytest.fixture
    def no_grid(self, monkeypatch):
        import dispatchlab.cli as cli

        def unreachable(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "prepare_source", unreachable)

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below_file"])
    @pytest.mark.parametrize("command", ["simulate", "repeat-day"])
    def test_out_folder_blocked_by_a_file(self, tmp_path, no_grid, command, below):
        cfg = write_config(tmp_path)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / below if below else afile
        result = CliRunner().invoke(main, [command, "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"Error: cannot make output folder {out}: {afile} is a file\n"
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("case", ["missing_folder", "folder"])
    def test_concordance_out_not_writable(self, tmp_path, case):
        cfg = write_config(tmp_path)
        table = tmp_path / "table.csv"
        ValueTable(np.zeros((11, 4)), 0.9).save_csv(table)
        if case == "folder":
            out = tmp_path / "adir"
            out.mkdir()
            message = f"cannot write {out}: it is a folder"
        else:
            out = tmp_path / "nodir" / "r.csv"
            message = f"cannot write {out}: folder {out.parent} does not exist"
        args = ["--source-table", str(table), "--target-table", str(table), "--out", str(out)]
        before = set(tmp_path.rglob("*"))
        result = CliRunner().invoke(main, ["concordance", "--config", str(cfg)] + args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"Error: {message}\n"
        assert set(tmp_path.rglob("*")) == before


class TestScenarioModels:
    """A scenario can pass the schema while its hot block, or the target's shifted
    one, selects no cell, or while both base rates are 0. Loading the config
    builds both demand models, so every command stops with a clean error, and
    no warning, before any work."""

    CASES = {
        "hot_block": (
            dict(
                MICRO_SCENARIO,
                grid={"rows": 2, "cols": 5},
                demand={"hot_block": [0, 1, 0, 2], "hot_rate": 0.6, "cold_rate": 0.05},
            ),
            "demand.hot_block selects no cells",
        ),
        "block_shift": (
            dict(MICRO_SCENARIO, target_shift={"block_shift": [2, 0]}),
            "demand.hot_block shifted by target_shift.block_shift selects no cells",
        ),
        "zero_rates": (
            dict(
                MICRO_SCENARIO,
                demand={"hot_block": [0, 0, 1, 2], "hot_rate": 0, "cold_rate": 0},
            ),
            "demand.hot_rate and demand.cold_rate are both 0: no cell has demand",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize(
        "command", ["simulate", "repeat-day", "validate-config", "concordance"]
    )
    def test_fails_before_the_grid(self, tmp_path, command, case):
        scenario, message = self.CASES[case]
        cfg = write_config(tmp_path, scenario=scenario)
        out = tmp_path / "out"
        args = [command, "--config", str(cfg)]
        if command == "concordance":
            table = tmp_path / "table.csv"
            ValueTable(np.zeros((11, 4)), 0.9).save_csv(table)
            args += ["--source-table", str(table), "--target-table", str(table)]
        if command != "validate-config":
            args += ["--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {message}" in result.output
        assert "Traceback" not in result.output
        assert [str(w.message) for w in caught] == []
        assert not out.exists()


class TestBadOverrides:
    """Command-line overrides go through the config schema: a clean error naming
    the field, no traceback and no output folder."""

    @pytest.mark.parametrize(
        "command, args, field",
        [
            ("simulate", ["--seeds", "a"], "seeds/0"),
            ("simulate", ["--seeds", ","], "'seeds'"),
            ("simulate", ["--policy", "bogus"], "policies/0"),
            ("repeat-day", ["--seeds", "1,b"], "seeds/1"),
            ("repeat-day", ["--policy", "greedy", "--policy", "bogus"], "policies/1"),
            ("repeat-day", ["--repetitions", "0"], "'repetitions'"),
            ("simulate", ["--parallel", "0"], "--parallel"),
            ("repeat-day", ["--parallel", "0"], "--parallel"),
            ("simulate", ["--seeds=-5"], "seeds/0"),
            ("simulate", ["--seeds", "1,1"], "'seeds'"),
            ("repeat-day", ["--seeds", "3,-1"], "seeds/1"),
        ],
    )
    def test_bad_override_fails_cleanly(self, tmp_path, command, args, field):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, [command, "--config", str(cfg), "--out", str(out)] + args
        )
        assert result.exit_code != 0
        assert field in result.output
        assert "Traceback" not in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not out.exists()


class TestLambdaFreePolicies:
    """Only pattern_transfer reads lambda: the other four policies run once per
    (gamma, seed), and their rows are filed under every lambda."""

    POLICIES = ["greedy", "source_only", "target_only", "naively_combine", "pattern_transfer"]

    @pytest.mark.parametrize(
        "command, entry, files",
        [
            ("simulate", "run_experiment", ["per_day.csv", "summary.csv"]),
            ("repeat-day", "repeat_single_day", ["repeat_day.csv"]),
        ],
    )
    def test_one_run_per_lambda_free_policy(self, tmp_path, monkeypatch, command, entry, files):
        import dispatchlab.cli as cli

        calls = []
        original = getattr(cli, entry)

        def counted(scenario, kind, *args, **kwargs):
            calls.append((kind.value, kwargs["lam"]))
            return original(scenario, kind, *args, **kwargs)

        monkeypatch.setattr(cli, entry, counted)

        def run(name, lambdas):
            cfg_dir = tmp_path / name
            cfg_dir.mkdir()
            cfg = write_config(cfg_dir, policies=self.POLICIES, lambdas=lambdas)
            calls.clear()
            result = CliRunner().invoke(
                main, [command, "--config", str(cfg), "--out", str(cfg_dir / "out")]
            )
            assert result.exit_code == 0, result.output
            return cfg_dir / "out", list(calls)

        both, both_calls = run("both", [0.5, 2.0])
        assert len(both_calls) == 4 + 2
        assert sorted(lam for kind, lam in both_calls if kind == "pattern_transfer") == [0.5, 2.0]
        singles = {}
        for lam in (0.5, 2.0):
            singles[lam], single_calls = run(f"only-{lam}", [lam])
            assert len(single_calls) == 5
        for name in files:
            lines = (both / name).read_bytes().splitlines(keepends=True)
            col = lines[0].decode().split(",").index("lambda")
            rows = 0
            for lam, single in singles.items():
                own = [line for line in lines[1:] if line.decode().split(",")[col] == repr(lam)]
                assert b"".join(lines[:1] + own) == (single / name).read_bytes()
                rows += len(own)
            assert rows == len(lines) - 1


class TestUnusableInputFile:
    """A config or scenario file that cannot be read or parsed stops every
    command with an error naming the file: no traceback and no output."""

    @staticmethod
    def write_case(tmp_path, case):
        cfg = tmp_path / "config.yaml"
        if case == "config_yaml":
            cfg.write_text("scenario: [unclosed\n")
            return cfg, f"config file {cfg} is not valid YAML"
        target = tmp_path / "scenario.yaml"
        if case == "scenario_yaml":
            target.write_text("name: [unclosed\n")
            reason = "is not valid YAML"
        elif case == "scenario_missing":
            reason = "cannot be read: No such file or directory"
        else:
            target.mkdir()
            reason = "cannot be read: Is a directory"
        cfg.write_text(yaml.safe_dump({"scenario": target.name}))
        return cfg, f"scenario file {target} {reason}"

    @pytest.mark.parametrize(
        "case", ["config_yaml", "scenario_yaml", "scenario_missing", "scenario_directory"]
    )
    @pytest.mark.parametrize("command", ["simulate", "repeat-day", "concordance", "validate-config"])
    def test_fails_naming_the_file(self, tmp_path, command, case):
        cfg, message = self.write_case(tmp_path, case)
        out = tmp_path / "out"
        args = [command, "--config", str(cfg)]
        if command == "concordance":
            table = tmp_path / "table.csv"
            ValueTable(np.zeros((11, 4)), 0.9).save_csv(table)
            args += ["--source-table", str(table), "--target-table", str(table)]
        if command != "validate-config":
            args += ["--out", str(out)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {message}" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()


class TestValidateConfig:
    def test_valid_config(self, tmp_path):
        cfg = write_config(tmp_path)
        result = CliRunner().invoke(main, ["validate-config", "--config", str(cfg)])
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_invalid_scenario_field(self, tmp_path):
        bad = dict(MICRO_SCENARIO)
        bad["horizon"] = 1
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"scenario": bad}))
        result = CliRunner().invoke(main, ["validate-config", "--config", str(path)])
        assert result.exit_code != 0
        assert "horizon" in result.output
