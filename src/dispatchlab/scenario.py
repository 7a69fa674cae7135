"""Declarative scenario files: the source of truth for every experiment.

A scenario describes one lattice world plus a source and a target demand
environment. The target is the source with demand intensities rescaled and
shifted in time while the hot/cold ranking of cells is preserved, which is
the nonstationarity the transfer penalty is designed to survive.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .transfer import ConcordanceSpec, OptimizerSettings, default_pair_set, tier_size
from .world import DemandModel, GridWorld

SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["name", "grid", "horizon", "drivers", "demand"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
        "grid": {
            "type": "object",
            "required": ["rows", "cols"],
            "additionalProperties": False,
            "properties": {
                "rows": {"type": "integer", "minimum": 1},
                "cols": {"type": "integer", "minimum": 2},
            },
        },
        "horizon": {"type": "integer", "minimum": 2},
        "pickup_radius": {"type": ["integer", "null"], "minimum": 0},
        "drivers": {"type": "integer", "minimum": 1},
        "driver_placement": {"enum": ["demand", "uniform"]},
        "revenue": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "base_fare": {"type": "number", "minimum": 0},
                "price_per_step": {"type": "number", "minimum": 0},
                "noise": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        "cancellation": {"type": "number", "minimum": 0},
        "source_days": {"type": "integer", "minimum": 1},
        "demand": {
            "type": "object",
            "required": ["hot_block", "hot_rate", "cold_rate"],
            "additionalProperties": False,
            "properties": {
                "hot_block": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                    "minItems": 4,
                    "maxItems": 4,
                },
                "hot_rate": {"type": "number", "minimum": 0},
                "cold_rate": {"type": "number", "minimum": 0},
                "peak_window": {"type": "number"},
                "peak_width": {"type": "number", "exclusiveMinimum": 0},
                "offpeak_level": {"type": "number", "minimum": 0},
                "dest_hot_weight": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        "target_shift": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rate_scale": {"type": "number", "exclusiveMinimum": 0},
                "rate_offset": {"type": "number", "minimum": 0},
                "peak_shift": {"type": "number"},
                "block_shift": {
                    "type": "array",
                    "items": {"type": "integer"},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
        },
        "transfer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lambda": {"type": "number", "minimum": 0},
                "margin": {"type": "number", "exclusiveMinimum": 0},
                "pairs": {
                    "oneOf": [
                        {
                            "type": "object",
                            "required": ["mode"],
                            "additionalProperties": False,
                            "properties": {
                                "mode": {"const": "auto"},
                                "q": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.5},
                            },
                        },
                        {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "items": {"type": "integer", "minimum": 0},
                                "minItems": 2,
                                "maxItems": 2,
                            },
                        },
                    ]
                },
            },
        },
        "optimizer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_iters": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "minimum": 0},
            },
        },
    },
}


class ScenarioError(ValueError):
    """Scenario file failed validation; message carries the offending path."""


class SchemaCheck:
    """Validates dicts against one schema; `error` names the field of the violation.

    jsonschema is imported and the validator built on first use, so a run that
    validates nothing never loads the library. The schema itself is checked
    against the metaschema by the test suite, not on every call as
    `jsonschema.validate` would; the violation reported is the one it reports.
    """

    def __init__(self, schema: dict, what: str, error: type):
        self.schema, self.what, self.error = schema, what, error
        self._validator = None

    def __call__(self, data: dict) -> None:
        import jsonschema

        if self._validator is None:
            self._validator = jsonschema.validators.validator_for(self.schema)(self.schema)
        e = jsonschema.exceptions.best_match(self._validator.iter_errors(data))
        if e is not None:
            path = "/".join(str(p) for p in e.absolute_path) or "<root>"
            raise self.error(f"{self.what} field '{path}': {e.message}") from e


check_scenario = SchemaCheck(SCENARIO_SCHEMA, "scenario", ScenarioError)


def load_mapping(path, what: str, error: type) -> dict:
    """The YAML mapping in the file at `path`; `error` names the file if it cannot be used.

    PyYAML is imported here, so a run that reads no file never loads it.
    """
    import yaml

    try:
        with open(path, encoding="utf-8") as f:
            data = yaml.safe_load(f)
    except OSError as e:
        raise error(f"{what} file {path} cannot be read: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise error(f"{what} file {path} is not UTF-8 text: {e.reason}") from e
    except yaml.YAMLError as e:
        raise error(f"{what} file {path} is not valid YAML: {e}") from e
    if not isinstance(data, dict):
        raise error(f"{what} file {path} is not a mapping")
    return data


@dataclass
class Scenario:
    raw: dict

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """The checked scenario: schema, pair set, and both demand models built once,
        which alone shows a hot block (or the target's shifted one) selecting no
        cell, or base rates that are 0 in every cell."""
        check_scenario(data)
        scenario = cls(raw=data)
        scenario._check_pairs()
        scenario.build_source_model()
        scenario.build_target_model()
        return scenario

    @classmethod
    def load(cls, path) -> "Scenario":
        return cls.from_dict(load_mapping(path, "scenario", ScenarioError))

    # -- plain accessors ---------------------------------------------------
    @property
    def name(self) -> str:
        return self.raw["name"]

    @property
    def seed(self) -> int:
        return self.raw.get("seed", 0)

    @property
    def rows(self) -> int:
        return self.raw["grid"]["rows"]

    @property
    def cols(self) -> int:
        return self.raw["grid"]["cols"]

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    @property
    def horizon(self) -> int:
        return self.raw["horizon"]

    @property
    def pickup_radius(self) -> Optional[int]:
        return self.raw.get("pickup_radius")

    @property
    def source_days(self) -> int:
        return self.raw.get("source_days", 3)

    @property
    def lam(self) -> float:
        return self.raw.get("transfer", {}).get("lambda", 1.0)

    @property
    def margin(self) -> float:
        return self.raw.get("transfer", {}).get("margin", 1.0)

    @property
    def pair_config(self) -> Union[dict, List[Tuple[int, int]]]:
        pairs = self.raw.get("transfer", {}).get("pairs", {"mode": "auto"})
        if isinstance(pairs, list):
            return [tuple(p) for p in pairs]
        return {"q": 0.2, **pairs}

    def _check_pairs(self) -> None:
        """Reject a pair set that could only fail once the source table exists."""
        n, cfg = self.n_cells, self.pair_config
        try:
            if isinstance(cfg, dict):
                tier_size(n, cfg["q"])
            else:
                ConcordanceSpec(pairs=cfg, lam=self.lam, margin=self.margin).check_cells(n)
        except ValueError as e:
            raise ScenarioError(f"scenario field 'transfer/pairs': {e}") from e

    def optimizer_settings(self) -> OptimizerSettings:
        return OptimizerSettings(**self.raw.get("optimizer", {}))

    # -- builders ----------------------------------------------------------
    def build_world(self) -> GridWorld:
        return GridWorld.lattice(self.rows, self.cols, self.horizon)

    def _base_rates(self, block_shift: Tuple[int, int] = (0, 0)) -> np.ndarray:
        d = self.raw["demand"]
        r0, c0, r1, c1 = d["hot_block"]
        dr, dc = block_shift
        base = np.full(self.n_cells, float(d["cold_rate"]))
        rr = np.arange(self.n_cells) // self.cols
        cc = np.arange(self.n_cells) % self.cols
        hot = (rr >= r0 + dr) & (rr < r1 + dr) & (cc >= c0 + dc) & (cc < c1 + dc)
        if not hot.any():
            shifted = " shifted by target_shift.block_shift" if any(block_shift) else ""
            raise ScenarioError(f"demand.hot_block{shifted} selects no cells")
        base[hot] = float(d["hot_rate"])
        if not base.any():
            raise ScenarioError(
                "demand.hot_rate and demand.cold_rate are both 0: no cell has demand"
            )
        return base

    def _time_profile(self, peak_shift: float = 0.0) -> np.ndarray:
        d = self.raw["demand"]
        peak = d.get("peak_window", self.horizon / 2) + peak_shift
        width = d.get("peak_width", self.horizon / 6)
        level = d.get("offpeak_level", 0.5)
        t = np.arange(self.horizon, dtype=float)
        profile = level + np.exp(-(((t - peak) / width) ** 2))
        return profile / profile.mean()

    def _destination_distribution(self, base: np.ndarray) -> np.ndarray:
        w = self.raw["demand"].get("dest_hot_weight", 0.75)
        attract = base / base.sum()
        row = w * attract + (1.0 - w) / self.n_cells
        return row / row.sum()

    def _driver_counts(self, base: np.ndarray) -> np.ndarray:
        total = self.raw["drivers"]
        placement = self.raw.get("driver_placement", "demand")
        n = self.n_cells
        if placement == "uniform":
            weights = np.full(n, 1.0 / n)
        else:
            weights = base / base.sum()
        counts = np.floor(weights * total).astype(np.int64)
        remainder = total - counts.sum()
        # largest fractional parts get the leftover drivers, ties by cell index
        frac = weights * total - counts
        for i in np.lexsort((np.arange(n), -frac))[:remainder]:
            counts[i] += 1
        return counts

    def _build_model(self, base: np.ndarray, peak_shift: float = 0.0) -> DemandModel:
        rev = self.raw.get("revenue", {})
        rates = np.outer(self._time_profile(peak_shift), base)
        return DemandModel(
            rates=rates,
            destination=self._destination_distribution(base),
            price_per_step=rev.get("price_per_step", 1.0),
            base_fare=rev.get("base_fare", 0.0),
            revenue_noise=rev.get("noise", 0.2),
            driver_counts=self._driver_counts(base),
            cancellation=self.raw.get("cancellation", 0.0),
        )

    def build_source_model(self) -> DemandModel:
        return self._build_model(self._base_rates())

    def build_target_model(self) -> DemandModel:
        shift = self.raw.get("target_shift", {})
        base = self._base_rates(tuple(shift.get("block_shift", (0, 0))))
        scaled = shift.get("rate_scale", 1.0) * base + shift.get("rate_offset", 0.0)
        return self._build_model(scaled, peak_shift=shift.get("peak_shift", 0.0))

    def concordance_spec(self, v_src) -> ConcordanceSpec:
        """Materialize the pair set (auto tiers need the source table)."""
        cfg = self.pair_config
        if isinstance(cfg, dict):
            pairs = default_pair_set(v_src, cfg["q"])
        else:
            pairs = cfg
        return ConcordanceSpec(pairs=pairs, lam=self.lam, margin=self.margin)


def default_scenario() -> Scenario:
    """The bundled nonstationary scenario used by the acceptance experiments.

    A fresh copy on every call. The literal is checked against the schema by
    the test suite, not here: it is a constant, not outside input.
    """
    return Scenario(
        raw={
            "name": "default-nonstationary",
            "seed": 0,
            "grid": {"rows": 10, "cols": 10},
            "horizon": 144,
            "pickup_radius": 6,
            "drivers": 100,
            "driver_placement": "demand",
            "revenue": {"base_fare": 2.5, "price_per_step": 0.3, "noise": 0.2},
            "cancellation": 0.01,
            "source_days": 4,
            "demand": {
                "hot_block": [3, 3, 7, 7],
                "hot_rate": 1.25,
                "cold_rate": 0.04,
                "peak_window": 60,
                "peak_width": 30,
                "offpeak_level": 0.5,
                "dest_hot_weight": 0.75,
            },
            "target_shift": {"rate_scale": 1.6, "rate_offset": 0.02, "peak_shift": 36},
            "transfer": {
                "lambda": 0.5,
                "margin": 1.0,
                "pairs": {"mode": "auto", "q": 0.2},
            },
        }
    )
