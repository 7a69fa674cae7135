"""Pinned-output gate: a fixed experiment must re-run to byte-identical CSVs.

`data/pinned.yaml` runs all five policies over two seeds and three days with
cancellations on. Its `per_day.csv` and `summary.csv` are committed as
`data/pinned_per_day.csv` and `data/pinned_summary.csv`, and the
`repeat_day.csv` of three repetitions as `data/pinned_repeat_day.csv`. A
change that moves any simulated number fails here; if the move is intended,
regenerate the files with `dispatchlab simulate --config tests/data/pinned.yaml`
and `dispatchlab repeat-day --config tests/data/pinned.yaml --repetitions 3`,
and say why the numbers moved. `data/pinned_long_trips.yaml` is a second
manifest whose trips last up to 15 windows, with its CSVs committed as
`data/pinned_long_trips_per_day.csv` and `data/pinned_long_trips_summary.csv`.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import dispatchlab
from dispatchlab.cli import main

DATA = Path(__file__).parent / "data"


# The pinned manifest has two seeds, so --parallel 2 sends two work units
# through the process pool.
PARALLEL = pytest.mark.parametrize("parallel", ["1", "2"])


@PARALLEL
def test_pinned_manifest_reruns_byte_identical(tmp_path, parallel):
    out = tmp_path / "pinned"
    config = str(DATA / "pinned.yaml")
    result = CliRunner().invoke(
        main, ["simulate", "--config", config, "--out", str(out), "--parallel", parallel]
    )
    assert result.exit_code == 0, result.output
    for name in ("per_day.csv", "summary.csv"):
        assert (out / name).read_bytes() == (DATA / f"pinned_{name}").read_bytes(), name


def test_long_trip_manifest_reruns_byte_identical(tmp_path):
    """Trips of 12 or more windows read gamma ** k where numpy's array power
    differs from Python's, which the small pinned grid never reaches."""
    out = tmp_path / "pinned"
    config = DATA / "pinned_long_trips.yaml"
    result = CliRunner().invoke(main, ["simulate", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    for name in ("per_day.csv", "summary.csv"):
        golden = DATA / f"pinned_long_trips_{name}"
        assert (out / name).read_bytes() == golden.read_bytes(), name


def test_pinned_manifest_is_byte_identical_without_avx512(tmp_path):
    """The same bytes with numpy's AVX-512 kernels switched off.

    numpy's array power rounds some powers differently with those kernels
    (0.9 ** 12 and 0.9 ** 23 among them), so a result that took gamma ** k
    from it would depend on the host. numpy ignores the setting on hosts
    without the X86_V4 group. Only X86_V4 may be named: disabling a baseline
    group such as X86_V2 or X86_V3 makes numpy fail at import.
    """
    out = tmp_path / "pinned"
    src = str(Path(dispatchlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4", PYTHONPATH=path)
    command = ["simulate", "--config", str(DATA / "pinned.yaml"), "--out", str(out)]
    run = subprocess.run(
        [sys.executable, "-m", "dispatchlab.cli", *command],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr
    for name in ("per_day.csv", "summary.csv"):
        assert (out / name).read_bytes() == (DATA / f"pinned_{name}").read_bytes(), name


@PARALLEL
def test_pinned_repeat_day_reruns_byte_identical(tmp_path, parallel):
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
            "--parallel",
            parallel,
        ],
    )
    assert result.exit_code == 0, result.output
    assert (out / "repeat_day.csv").read_bytes() == (DATA / "pinned_repeat_day.csv").read_bytes()
