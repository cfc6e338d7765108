"""Record the golden output digests the benchmark checks against.

    python3 bench/record_golden.py [seed ...]

Runs every workload once per seed (the shipped seed when none is given)
and merges the digests into ``bench/golden.json``. Re-record only in a
change that declares a numeric output change.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import costboost  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main(seeds) -> None:
    golden = json.loads(check.GOLDEN_PATH.read_text()) if check.GOLDEN_PATH.exists() else {}
    for workload in WORKLOADS.values():
        for seed in seeds:
            raw = workload.config_dict(ROOT, seed)
            store = costboost.run_experiment(costboost.ExperimentConfig.from_dict(raw))
            problems = check.problems(store, raw)
            if problems:
                raise SystemExit(f"{workload.name} seed {seed}: {problems}")
            golden.setdefault(workload.name, {})[str(seed)] = check.digest(store)
            print(workload.name, seed, golden[workload.name][str(seed)][:16], flush=True)
    check.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [DEFAULT_SEED])
