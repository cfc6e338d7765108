"""The two workloads of the costboost benchmark.

Each workload is a shipped config cut down to a sweep that repeats
several times inside one timed run. The reasons for each choice are in
``bench/README.md``. This module imports nothing from ``costboost`` so
the set-up probe can time that import itself.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NON_CSA = ("ADA", "ABT", "ASB", "ADC", "CB0", "CB1", "CB2", "AC1", "AC2", "AC3", "CGA")

# the shipped config seed: the golden digests in golden.json include it
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # shipped config the workload starts from, relative to the repo root
    datasets: tuple = ()  # dataset names kept; empty keeps every dataset
    algorithms: tuple = ()  # empty keeps the config's algorithms
    costs: tuple = ()  # empty keeps the config's cost grid
    rounds: int = 0  # 0 keeps the config's round setting

    def config_dict(self, root, seed: int) -> dict:
        """The config the program sees: the shipped file, cut down, with ``seed``."""
        raw = json.loads((Path(root) / self.config).read_text(encoding="utf-8"))
        if self.datasets:
            raw["datasets"] = [d for d in raw["datasets"] if d["name"] in self.datasets]
        if self.algorithms:
            raw["algorithms"] = list(self.algorithms)
        if self.costs:
            raw["costs"] = [list(c) for c in self.costs]
        if self.rounds:
            raw["rounds"] = self.rounds
        raw["seed"] = seed
        return raw


# the whole shipped sweep (about 43 s) does not fit in one timed run, let
# alone the several a run needs: keep one dataset and a mirror pair of
# costs, so cells still come in groups that share everything but the cost
_DESK = dict(datasets=("bayes",), costs=((1, 10), (10, 1)))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_sweep", "configs/default.json", **_DESK),
        Workload("stump_large", "configs/full_protocol.json",
                 datasets=("twoclouds",), algorithms=NON_CSA,
                 costs=((1, 10), (10, 1)), rounds=10),
    )
}


def derived_seed(*parts) -> int:
    """Per-dataset seed, derived the way the sweep derives it."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def build_datasets(costboost, config):
    """Generate every dataset of ``config`` and its folds through the public API."""
    built = []
    for index, spec in enumerate(config.datasets):
        generate = costboost.gen_bayes if spec.kind == "bayes" else costboost.gen_two_clouds
        data = generate(spec.n_pos, spec.n_neg, seed=derived_seed(config.seed, index, 0),
                        name=spec.resolved_name())
        folds = costboost.stratified_kfold(
            data.labels, config.folds, derived_seed(config.seed, index, 1)
        )
        built.append((data, folds))
    return built
