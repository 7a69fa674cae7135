"""Experiment configs, CSV emission, and run manifests.

Every CSV has a fixed header and column order, LF line endings, and floats
written with shortest round-trip repr, so a re-run from the same manifest
reproduces the files byte for byte.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import yaml

from .gpi import DayRow, PolicyKind, RepeatRow
from .scenario import Scenario, SchemaCheck, load_mapping

POLICY_ORDER = [k.value for k in PolicyKind]

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["scenario"],
    "additionalProperties": False,
    "properties": {
        "scenario": {"type": ["string", "object"]},
        "policies": {
            "type": "array",
            "minItems": 1,
            "items": {"enum": POLICY_ORDER},
        },
        "gammas": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        },
        "lambdas": {"type": "array", "minItems": 1, "items": {"type": "number", "minimum": 0}},
        "seeds": {
            "type": "array",
            "minItems": 1,
            "uniqueItems": True,
            "items": {"type": "integer", "minimum": 0},
        },
        "days": {"type": "integer", "minimum": 0},
        "repetitions": {"type": "integer", "minimum": 1},
    },
}

PER_DAY_HEADER = [
    "scenario",
    "policy",
    "seed",
    "gamma",
    "lambda",
    "day",
    "reward",
    "answer_rate",
    "completion_rate",
]
SUMMARY_HEADER = [
    "scenario",
    "policy",
    "gamma",
    "lambda",
    "day",
    "mean_reward",
    "stderr_reward",
    "mean_answer_rate",
    "mean_completion_rate",
]
REPEAT_HEADER = [
    "scenario",
    "policy",
    "seed",
    "gamma",
    "lambda",
    "iteration",
    "reward",
    "value_delta",
]


class ConfigError(ValueError):
    """Experiment config failed validation; message carries the offending path."""


check_config = SchemaCheck(CONFIG_SCHEMA, "config", ConfigError)


@dataclass
class ExperimentConfig:
    scenario: Scenario
    policies: List[PolicyKind]
    gammas: List[float]
    lambdas: List[float]
    seeds: List[int]
    days: int
    repetitions: int

    @classmethod
    def from_dict(cls, data: dict, base_dir: str = ".") -> "ExperimentConfig":
        check_config(data)
        sc = data["scenario"]
        if isinstance(sc, str):
            scenario = Scenario.load(os.path.join(base_dir, sc))
        else:
            scenario = Scenario.from_dict(sc)
        return cls(
            scenario=scenario,
            policies=[PolicyKind(p) for p in data.get("policies", POLICY_ORDER)],
            gammas=[float(g) for g in data.get("gammas", [0.9, 0.95])],
            lambdas=[float(x) for x in data.get("lambdas", [scenario.lam])],
            seeds=[int(s) for s in data.get("seeds", [0])],
            days=int(data.get("days", 11)),
            repetitions=int(data.get("repetitions", 5)),
        )

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        data = load_mapping(path, "config", ConfigError)
        return cls.from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))

    def manifest(self) -> dict:
        """Fully resolved config (scenario inlined) for byte-exact re-runs."""
        return {
            "scenario": self.scenario.raw,
            "policies": [p.value for p in self.policies],
            "gammas": self.gammas,
            "lambdas": self.lambdas,
            "seeds": self.seeds,
            "days": self.days,
            "repetitions": self.repetitions,
        }


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path, header: List[str], rows: List[tuple]) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


# a grid cell: (policy, gamma, lambda, seed)
GridKey = Tuple[str, float, float, int]


def _row_order(key: GridKey) -> tuple:
    """Canonical CSV row order: policy in POLICY_ORDER, then gamma, lambda, seed or day."""
    policy, gamma, lam, last = key
    return POLICY_ORDER.index(policy), gamma, lam, last


def _flatten(scenario_name: str, results: Dict[GridKey, list], header: List[str]) -> List[tuple]:
    """Grid results as CSV rows in canonical order.

    Each row is the scenario, the key's policy, seed, gamma and lambda, then
    the fields of one result row named by the rest of `header`.
    """
    fields = attrgetter(*header[5:])
    return [
        (scenario_name, policy, seed, gamma, lam, *fields(r))
        for policy, gamma, lam, seed in sorted(results, key=_row_order)
        for r in results[policy, gamma, lam, seed]
    ]


def per_day_rows(scenario_name: str, results: Dict[GridKey, List[DayRow]]) -> List[tuple]:
    """Flatten grid results into per-day CSV rows in canonical order."""
    return _flatten(scenario_name, results, PER_DAY_HEADER)


def summary_rows(scenario_name: str, results: Dict[GridKey, List[DayRow]]) -> List[tuple]:
    """Per-(policy, gamma, lambda, day) mean and standard error across seeds."""
    groups: Dict[GridKey, List[DayRow]] = {}
    for (policy, gamma, lam, seed), day_rows in results.items():
        for r in day_rows:
            groups.setdefault((policy, gamma, lam, r.day), []).append(r)
    rows = []
    for key in sorted(groups, key=_row_order):
        policy, gamma, lam, day = key
        rs = groups[key]
        n = len(rs)
        mean_reward = sum(r.reward for r in rs) / n
        if n > 1:
            var = sum((r.reward - mean_reward) ** 2 for r in rs) / (n - 1)
            stderr = math.sqrt(var / n)
        else:
            stderr = 0.0
        rows.append(
            (
                scenario_name,
                policy,
                gamma,
                lam,
                day,
                mean_reward,
                stderr,
                sum(r.answer_rate for r in rs) / n,
                sum(r.completion_rate for r in rs) / n,
            )
        )
    return rows


def repeat_rows(scenario_name: str, results: Dict[GridKey, List[RepeatRow]]) -> List[tuple]:
    """Flatten grid results into repeat-day CSV rows in canonical order."""
    return _flatten(scenario_name, results, REPEAT_HEADER)


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as f:
        yaml.safe_dump(manifest, f, sort_keys=True)
