"""Pinned-output gate: a fixed experiment must re-run to byte-identical CSVs.

`data/pinned.yaml` runs all five policies over two seeds and three days with
cancellations on. Its `per_day.csv` and `summary.csv` are committed as
`data/pinned_per_day.csv` and `data/pinned_summary.csv`, and the
`repeat_day.csv` of three repetitions as `data/pinned_repeat_day.csv`. A
change that moves any simulated number fails here; if the move is intended,
regenerate the files with `dispatchlab simulate --config tests/data/pinned.yaml`
and `dispatchlab repeat-day --config tests/data/pinned.yaml --repetitions 3`,
and say why the numbers moved.
"""
from pathlib import Path

from click.testing import CliRunner

from dispatchlab.cli import main

DATA = Path(__file__).parent / "data"


def test_pinned_manifest_reruns_byte_identical(tmp_path):
    out = tmp_path / "pinned"
    result = CliRunner().invoke(
        main, ["simulate", "--config", str(DATA / "pinned.yaml"), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    for name in ("per_day.csv", "summary.csv"):
        assert (out / name).read_bytes() == (DATA / f"pinned_{name}").read_bytes(), name


def test_pinned_repeat_day_reruns_byte_identical(tmp_path):
    out = tmp_path / "pinned"
    result = CliRunner().invoke(
        main,
        [
            "repeat-day",
            "--config",
            str(DATA / "pinned.yaml"),
            "--repetitions",
            "3",
            "--out",
            str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert (out / "repeat_day.csv").read_bytes() == (DATA / "pinned_repeat_day.csv").read_bytes()
