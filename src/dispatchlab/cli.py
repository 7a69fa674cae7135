"""Command-line front end: simulate, concordance, repeat-day, validate-config."""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Optional, Tuple

import click

from .gpi import prepare_source, repeat_single_day, run_experiment
from .reporting import (
    PER_DAY_HEADER,
    REPEAT_HEADER,
    SUMMARY_HEADER,
    ExperimentConfig,
    GridKey,
    per_day_rows,
    repeat_rows,
    summary_rows,
    write_csv,
    write_manifest,
)
from .transfer import concordance_rate_report
from .valuation import ValueTable
from .world import GridWorld

OUT_ROOT_ENV = "DISPATCHLAB_OUT"


def _load_config(
    path: str,
    seeds: Optional[str],
    policies: Tuple[str, ...],
    repetitions: Optional[int] = None,
) -> ExperimentConfig:
    """The config at `path` with the command-line overrides applied.

    The overrides go into the config dict, which is validated again, so the
    schema is the one check for the file and the command line alike. Any
    fault stops the command with a click.ClickException carrying the
    ValueError's message.
    """
    try:
        data = ExperimentConfig.load(path).manifest()
        if seeds is not None:
            data["seeds"] = [_int_or_text(s) for s in seeds.split(",") if s.strip()]
        if policies:
            data["policies"] = list(policies)
        if repetitions is not None:
            data["repetitions"] = repetitions
        cfg = ExperimentConfig.from_dict(data)
    except ValueError as e:
        raise click.ClickException(str(e))
    return cfg


def _check_out_file(out: str) -> None:
    """Stop before any work if the file `out` cannot be written into an existing folder."""
    folder = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(folder):
        raise click.ClickException(f"cannot write {out}: folder {folder} does not exist")
    if os.path.isdir(out):
        raise click.ClickException(f"cannot write {out}: it is a folder")


def _int_or_text(text: str):
    """An integer if `text` reads as one; else the text, for the schema to reject."""
    try:
        return int(text)
    except ValueError:
        return text


def _run_group(args) -> Dict[GridKey, list]:
    """One worker unit: all (policy, lambda) cells for a (gamma, seed) pair.

    A policy that does not read lambda runs once; its rows go under every lambda.
    """
    cfg, gamma, seed, mode = args
    source = prepare_source(cfg.scenario, gamma, seed)
    if mode == "simulate":
        run, length = run_experiment, cfg.days
    else:
        run, length = repeat_single_day, cfg.repetitions
    out: Dict[GridKey, list] = {}
    for kind in cfg.policies:
        groups = [[lam] for lam in cfg.lambdas] if kind.reads_lambda else [cfg.lambdas]
        for lams in groups:
            rows = run(cfg.scenario, kind, length, gamma, seed, lam=lams[0], source=source)
            for lam in lams:
                out[(kind.value, gamma, lam, seed)] = rows
    return out


def _run(mode: str, config_path, out_dir, seeds, policies, parallel, repetitions=None):
    """Load the config with its overrides, check `--out`, run the grid, write the manifest.

    Returns the scenario name, the output folder and the grid results. A file
    in the way of the folder stops the command before any work; the folder
    itself is made only once the grid has run.
    """
    cfg = _load_config(config_path, seeds, policies, repetitions)
    out = out_dir or os.path.join(os.environ.get(OUT_ROOT_ENV, "out"), cfg.scenario.name)
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise click.ClickException(f"cannot make output folder {out}: {path} is a file")
    units = [(cfg, gamma, seed, mode) for gamma in cfg.gammas for seed in cfg.seeds]
    results: Dict[GridKey, list] = {}
    if parallel > 1 and len(units) > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            for part in pool.map(_run_group, units):
                results.update(part)
    else:
        for unit in units:
            results.update(_run_group(unit))
    os.makedirs(out, exist_ok=True)
    write_manifest(os.path.join(out, "manifest.yaml"), cfg.manifest())
    return cfg.scenario.name, out, results


@click.group()
def main():
    """Order-dispatch experiment harness."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--seeds", default=None, help="Comma-separated seed override.")
@click.option("--policy", "policies", multiple=True, help="Restrict to these policies.")
@click.option("--parallel", default=1, type=click.IntRange(min=1), show_default=True)
def simulate(config_path, out_dir, seeds, policies, parallel):
    """Run the policy x gamma x lambda x seed grid and write metric CSVs."""
    name, out, results = _run("simulate", config_path, out_dir, seeds, policies, parallel)
    write_csv(os.path.join(out, "per_day.csv"), PER_DAY_HEADER, per_day_rows(name, results))
    write_csv(os.path.join(out, "summary.csv"), SUMMARY_HEADER, summary_rows(name, results))
    click.echo(f"wrote {out}/per_day.csv ({sum(len(v) for v in results.values())} rows)")


@main.command("repeat-day")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--seeds", default=None, help="Comma-separated seed override.")
@click.option("--policy", "policies", multiple=True, help="Restrict to these policies.")
@click.option("--repetitions", default=None, type=int)
@click.option("--parallel", default=1, type=click.IntRange(min=1), show_default=True)
def repeat_day(config_path, out_dir, seeds, policies, repetitions, parallel):
    """Repeat one day's demand multiple times and track per-iteration learning."""
    name, out, results = _run(
        "repeat", config_path, out_dir, seeds, policies, parallel, repetitions
    )
    write_csv(os.path.join(out, "repeat_day.csv"), REPEAT_HEADER, repeat_rows(name, results))
    click.echo(f"wrote {out}/repeat_day.csv")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--source-table", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--target-table", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", default=None, type=click.Path())
def concordance(config_path, source_table, target_table, out_path):
    """Report how often the two tables rank the configured cell pairs the same way."""
    if out_path:
        _check_out_file(out_path)
    try:
        cfg = ExperimentConfig.load(config_path)
        world = cfg.scenario.build_world()
        gamma = cfg.gammas[0]
        v_src = _load_table(source_table, "source", gamma, world)
        v_tgt = _load_table(target_table, "target", gamma, world)
        spec = cfg.scenario.concordance_spec(v_src)
        report = concordance_rate_report(v_tgt, v_src, spec)
    except ValueError as e:
        raise click.ClickException(str(e))
    click.echo(f"aggregate_concordance_rate={report.aggregate!r}")
    click.echo(f"tied_share={report.tied_share!r}")
    click.echo(f"strict_concordance_rate={report.strict_rate!r}")
    if out_path:
        rows = [(t, float(r)) for t, r in enumerate(report.per_time)]
        rows.append(("aggregate", report.aggregate))
        write_csv(out_path, ["slice", "rate"], rows)


def _load_table(path: str, which: str, gamma: float, world: GridWorld) -> ValueTable:
    """A value table whose shape is the scenario's (horizon + 1, n_cells)."""
    try:
        table = ValueTable.load_csv(path, gamma)
    except ValueError as e:
        raise ValueError(f"{which} table {path}: {e}") from e
    expected = (world.horizon + 1, world.n_cells)
    if table.values.shape != expected:
        raise ValueError(
            f"{which} table {path}: shape {table.values.shape} does not match the "
            f"scenario's (horizon + 1, n_cells) = {expected}"
        )
    return table


@main.command("validate-config")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def validate_config(config_path):
    """Check an experiment config (and its scenario) against the schema."""
    cfg = _load_config(config_path, None, ())
    click.echo(f"ok: scenario '{cfg.scenario.name}', {len(cfg.policies)} policies")


if __name__ == "__main__":
    main()
