"""The benchmark's traced run still sees every layer it times.

`perfbench/layers.py` wraps each layer function at the binding its caller
looks up. A refactor that moves a call to another binding drops that layer
out of the trace without an error; this test makes it fail here instead.
"""
import sys
from pathlib import Path

from dispatchlab import gpi

from test_gpi import micro_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# hand-built buffers only; the day loop never builds tuples from objects
UNCALLED = {"valuation.from_tuples"}


def import_probes():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from layers import LAYERS, Probes
        from tracer import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return LAYERS, Probes, Tracer


def test_every_layer_records_calls():
    layers, Probes, Tracer = import_probes()
    originals = (gpi.run_experiment, gpi.repeat_single_day, gpi.run_day)
    tracer = Tracer()
    Probes(tracer).install()
    try:
        sc = micro_scenario()
        kind = gpi.PolicyKind.PATTERN_TRANSFER
        gpi.run_experiment(sc, kind, 2, 0.9, 0)
        gpi.repeat_single_day(sc, kind, 2, 0.9, 0)
    finally:
        tracer.restore()
    assert (gpi.run_experiment, gpi.repeat_single_day, gpi.run_day) == originals
    calls = {name: n for name, (_, n) in tracer.self_times().items()}
    silent = [name for name in layers if name not in UNCALLED and not calls.get(name)]
    assert silent == []
    # each entry prepares its own source, then runs two target passes
    passes = 2 + 2
    days = 2 * sc.source_days + passes
    windows = days * sc.horizon
    assert calls["gpi.day_loop"] == 2
    assert calls["gpi.prepare_source"] == 2
    assert calls["simulator.run_day"] == days
    assert calls["simulator.generate_window"] == windows
    # every window with an idle driver is scored, matched and applied once
    matched = calls["simulator.apply_matching"]
    assert 0 < matched <= windows
    for name in ("dispatch.build_problem", "dispatch.advantage_transform", "dispatch.km_match"):
        assert calls[name] == matched, name
    assert calls["gpi.evaluate_policy_value"] == passes
    assert calls["transfer.transfer_evaluate"] == passes
    assert calls["transfer.solve_time_step"] == passes * sc.horizon
