"""Time one cold set-up of a workload and print the seconds.

    python3 bench/setup_probe.py <workload> <seed>

Set-up is what a sweep needs before its first cell: importing
``costboost``, loading and validating the config, and building the
datasets and their folds. Each probe is a fresh interpreter, so the
import is cold every time.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import costboost  # noqa: E402
from workloads import WORKLOADS, build_datasets  # noqa: E402


def main(name: str, seed: int) -> float:
    config = costboost.ExperimentConfig.from_dict(WORKLOADS[name].config_dict(ROOT, seed))
    build_datasets(costboost, config)
    return time.perf_counter() - START


if __name__ == "__main__":
    print(repr(main(sys.argv[1], int(sys.argv[2]))))
