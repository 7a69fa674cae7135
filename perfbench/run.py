"""dispatchlab benchmark: one workload in one single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 sets up (imports, scenario, prepare_source) three times, then runs
whole rounds of the workload for about S seconds (no round is started that
would end past S), with no wrapper installed, and reports the end-to-end
metrics. --trace 1 runs set-up plus one
round untraced, then the same again with every layer wrapped, and reports the
per-layer metrics; spans go to perfbench/out/. Both check the program's
outputs. The last line of stdout is the JSON result; notes go to stderr.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# before numpy is imported: one thread, so CPU time is the work of one core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 3

import checks  # noqa: E402  (after the thread settings: it imports numpy)


def note(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def load_program() -> None:
    """Import dispatchlab from this checkout's src/, and from nowhere else."""
    pkg = SRC / "dispatchlab"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no dispatchlab package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import dispatchlab

    if Path(dispatchlab.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported dispatchlab from {dispatchlab.__file__}, not {pkg}")


def check_rows(workload, sc, rounds) -> None:
    """Output checks on every round; rounds must also repeat exactly."""
    first = rounds[0]
    if workload.repeat:
        checks.check_repeat_rows(first)
    else:
        mean_orders = float(sc.build_target_model().rates.sum())
        checks.check_day_rows(first, mean_orders)
    for i, rows in enumerate(rounds[1:], start=1):
        if rows != first:
            raise checks.CheckError(f"round {i} returned other rows than round 0")


def reward_per_day(rows_by_policy) -> float:
    rewards = [r.reward for rows in rows_by_policy.values() for r in rows]
    return sum(rewards) / len(rewards)


def timed_run(workload, seed: int, seconds: float, import_s: float) -> dict:
    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        sc, source = workload.setup(seed)
        setups.append(time.perf_counter() - start)
    rounds, cpus, walls = [], [], []
    start = time.perf_counter()
    while True:
        w0, c0 = time.perf_counter(), cpu_seconds()
        rounds.append(workload.run_round(sc, source, seed))
        cpus.append(cpu_seconds() - c0)
        walls.append(time.perf_counter() - w0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_rows(workload, sc, rounds)
    days = len(rounds) * workload.days_per_round
    note(
        f"{workload.name} seed {seed}: {len(rounds)} rounds of {workload.days_per_round} "
        f"policy-days; imports {import_s:.3f} s, set-ups {', '.join(f'{s:.3f}' for s in setups)} s; "
        f"days/cpu-s per round {', '.join(f'{workload.days_per_round / c:.4f}' for c in cpus)}; "
        f"wall-clock {days / sum(walls):.4f} days/s"
    )
    return {
        "attempted": days,
        "metrics": {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "days_per_cpu_s": (days / sum(cpus), "days/cpu-s"),
            "peak_rss_mib": (rss_mib, "MiB"),
            "reward_per_day": (reward_per_day(rounds[0]), "reward"),
        },
    }


def traced_run(workload, seed: int, out_stem: str) -> dict:
    from layers import LAYERS, Probes
    from tracer import CHECK, Tracer

    start = time.perf_counter()
    sc, source = workload.setup(seed)
    plain_rows = workload.run_round(sc, source, seed)
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    probes = Probes(tracer)
    probes.install()
    try:
        start = time.perf_counter()
        sc, source = tracer.call("bench.setup", workload.setup, seed)
        traced_rows = tracer.call("bench.round", workload.run_round, sc, source, seed)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.restore()
    check_rows(workload, sc, [plain_rows, traced_rows])

    times = tracer.self_times()
    check_s = times.get(CHECK, (0.0, 0))[0]
    unattributed_s = sum(times.get(n, (0.0, 0))[0] for n in ("bench.setup", "bench.round"))
    traced_s = traced_wall - check_s
    metrics = probes.metrics()
    metrics.update(
        {
            "trace.untraced_s": (untraced_s, "s"),
            "trace.traced_s": (traced_s, "s"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
            "trace.check_s": (check_s, "s"),
            "trace.unattributed_s": (unattributed_s, "s"),
        }
    )

    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{out_stem}.spans.json", start)
    layer_total = sum(times.get(n, (0.0, 0))[0] for n in LAYERS)
    lines = [f"{'layer':32s} {'calls':>8s} {'self s':>9s} {'share':>7s} {'ms/call':>9s}"]
    for name in LAYERS:
        seconds, calls = times.get(name, (0.0, 0))
        per_call = 1000.0 * seconds / calls if calls else 0.0
        lines.append(
            f"{name:32s} {calls:8d} {seconds:9.3f} {seconds / traced_s:7.1%} {per_call:9.3f}"
        )
    lines.append(
        f"layers {layer_total:.3f} s + unattributed {unattributed_s:.3f} s = traced "
        f"{traced_s:.3f} s (checks {check_s:.3f} s excluded); untraced {untraced_s:.3f} s; "
        f"overhead {traced_s - untraced_s:+.3f} s"
    )
    lines.append(
        f"LP-checked matchings {tracer.counts['bench.lp_checks']}, DP tables checked "
        f"{tracer.counts['bench.dp_checks']}, QP-compared slices {len(probes.excess)}"
    )
    note("\n".join(lines))
    return {"attempted": 2 * workload.days_per_round, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    import_s = time.perf_counter() - T0
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            result = traced_run(workload, args.seed, stem)
        else:
            result = timed_run(workload, args.seed, args.seconds, import_s)
        correct = True
    except checks.CheckError as e:
        note(f"CHECK FAILED: {e}")
        result = {"attempted": workload.days_per_round, "metrics": {}}
        correct = False
    line = json.dumps(
        {
            "correct": correct,
            "attempted": result["attempted"],
            "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.result.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
