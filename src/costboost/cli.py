"""Command-line front end: run sweeps, emit reports, generate datasets.

Subcommands::

    costboost run    --config cfg.json --out rundir [--jobs N] [--seed S]
    costboost report --store rundir --kind <kind> [--out dir]
    costboost gen    --dataset bayes|twoclouds --out file.csv
                     [--n-pos N] [--n-neg N] [--seed S] [--coords]

The config file is a JSON object mirroring the experiment configuration
field-for-field (datasets, algorithms, costs, folds, rounds, seed,
convergence). Bad input -- an invalid config or count, a missing file, a
``run --out`` under a file -- exits with status 2 and argparse's
``costboost: error: <message>`` line, before any dataset is built.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .datasets import gen_bayes, gen_two_clouds
from .harness import (REPORT_KINDS, ExperimentConfig, RunStore, _write_csv, emit_report,
                      run_experiment)


def _check_out(path) -> None:
    """Raise where saving into ``path`` must fail: it, or its nearest
    existing ancestor, is not a directory. Creates nothing."""
    existing = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"cannot save the run into {path}: {existing} is not a directory")


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    _check_out(args.out)  # before the sweep, not after it
    store = run_experiment(config, jobs=args.jobs)
    out = store.save(args.out)
    print(f"wrote {len(store.records)} records to {out}")
    if store.failures:
        print(f"{len(store.failures)} cell(s) failed; see failures.csv", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    store = RunStore.load(args.store)
    out = args.out if args.out else Path(args.store) / "reports"
    for path in emit_report(store, args.kind, out):
        print(path)
    return 0


def _cmd_gen(args) -> int:
    generate, default = (gen_bayes, 250) if args.dataset == "bayes" else (gen_two_clouds, 500)
    # only an absent flag takes the default; 0 and negatives reach the generator
    data = generate(default if args.n_pos is None else args.n_pos,
                    default if args.n_neg is None else args.n_neg, seed=args.seed)
    columns = ["label"] + list(data.feature_names)
    rows = data.features.tolist()
    if args.coords:
        columns += ["x", "y"]
        rows = [features + xy for features, xy in zip(rows, data.coords.tolist())]
    _write_csv(args.out, ",".join(columns), "%d" + ",%r" * (len(columns) - 1) + "\n",
               ((label, *row) for label, row in zip(data.labels.tolist(), rows)))
    print(f"wrote {data.n_samples} samples x {data.n_features} features to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="costboost", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a benchmark sweep")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--out", required=True, help="run directory to create")
    p_run.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="emit report files from a run directory")
    p_report.add_argument("--store", required=True, help="run directory")
    p_report.add_argument("--kind", required=True, choices=REPORT_KINDS)
    p_report.add_argument("--out", default=None, help="output directory (default: <store>/reports)")
    p_report.set_defaults(func=_cmd_report)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p_gen.add_argument("--dataset", required=True, choices=("bayes", "twoclouds"))
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.add_argument("--n-pos", type=int, default=None,
                       help="positive samples (default: 250 bayes, 500 twoclouds)")
    p_gen.add_argument("--n-neg", type=int, default=None,
                       help="negative samples (default: 250 bayes, 500 twoclouds)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--coords", action="store_true",
                       help="also write the raw 2-D coordinates")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # bad input, not a bug: argparse's usage line and message, exit status 2
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
