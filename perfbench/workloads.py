"""The benchmark's workloads: what each one runs through dispatchlab's public API.

A round is the fixed unit of work of a workload: every listed policy runs
`length` GPI days (`run_experiment`) or repeat passes (`repeat_single_day`)
for the run's seed, against one source prepared for that seed. Rounds are
deterministic, so every round of a run returns the same rows.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from dispatchlab import gpi
from dispatchlab.scenario import Scenario, default_scenario

GAMMA = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    policies: Tuple[str, ...]
    length: int
    repeat: bool = False
    drivers: Optional[int] = None

    @property
    def days_per_round(self) -> int:
        return len(self.policies) * self.length

    def scenario(self) -> Scenario:
        sc = default_scenario()
        if self.drivers is None:
            return sc
        raw = copy.deepcopy(sc.raw)
        raw["drivers"] = self.drivers
        return Scenario.from_dict(raw)

    def setup(self, seed: int) -> Tuple[Scenario, "gpi.SourceData"]:
        sc = self.scenario()
        return sc, gpi.prepare_source(sc, GAMMA, seed)

    def run_round(self, sc: Scenario, source, seed: int) -> Dict[str, List]:
        # through the module attribute, so a traced run sees the call
        entry = gpi.repeat_single_day if self.repeat else gpi.run_experiment
        return {
            p: entry(sc, gpi.PolicyKind(p), self.length, GAMMA, seed, source=source)
            for p in self.policies
        }


# Why each workload exists is in BENCHMARK.json and README.md: transfer_gpi is
# dominated by the slice solver, baseline_gpi by the day loop (no transfer at
# all), surplus_repeat by matching with many more drivers than orders.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("transfer_gpi", ("pattern_transfer",), 3),
        Workload(
            "baseline_gpi", ("greedy", "source_only", "target_only", "naively_combine"), 3
        ),
        Workload(
            "surplus_repeat", ("target_only", "pattern_transfer"), 3, repeat=True, drivers=300
        ),
    )
}
