"""Benchmark harness: sweeps, convergence cutoff, persistence, reports.

A sweep trains every (dataset, algorithm, cost, fold) cell, truncates
each classifier at the earliest round where the training-NEC tail has
settled, evaluates the confusion rates on the held-out fold and collects
one record per cell plus one fold-averaged record per (dataset,
algorithm, cost). Datasets built from the normal-mixture generator also
receive reference rows from the cost-optimal rule evaluated on the whole
set ("BAY" rows, fold label "all").

The cell is the one unit of work: ``run_experiment`` builds a flat list
of cells and maps ``_run_cell`` over it. Every cell of one (dataset,
fold) shares one ``_Fold``, whose training columns are sorted once per
process. The variants that train without reading the costs (ADA, ABT,
and CGA where its initial weights come out uniform) also share one
ensemble per fold and process there; each cell derives its cost's
trace, cutoff and threshold from it. With ``jobs > 1`` each (dataset,
algorithm) group of cells is one worker task, so a worker receives each
fold once per group.

Everything written to a run directory is byte-deterministic for a fixed
config and seed, independent of worker count, with one deliberate
exception: wall-clock training times live in their own ``timing.csv``
because they can never be reproducible.
"""

import json
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .boosting import (
    ALGORITHM_IDS,
    CostPair,
    _number,
    adjust_threshold,
    decision_scores,
    train_ensemble,
)
from .datasets import (
    Dataset,
    bayes_optimal_predict,
    gen_bayes,
    gen_two_clouds,
    load_csv_balanced,
    stratified_kfold,
)
from .metrics import (
    ConfusionRates,
    ResultRecord,
    conditional_moments,
    confusion_rates,
    delta_table,
    nec,
)
from .stumps import sort_columns

__all__ = [
    "DEFAULT_COST_GRID",
    "DatasetSpec",
    "ExperimentConfig",
    "RunStore",
    "detect_convergence",
    "run_experiment",
    "emit_report",
]

# the cost sweep used by default: heavy penalties on false negatives at
# one end, on false positives at the other, symmetric in the middle
DEFAULT_COST_GRID = (
    (1, 100), (1, 50), (1, 25), (1, 10), (1, 7), (1, 5), (1, 3), (1, 2),
    (2, 3), (1, 1), (3, 2), (2, 1), (3, 1), (5, 1), (7, 1), (10, 1),
    (25, 1), (50, 1), (100, 1),
)

DEVIATION_STATISTICS = ("max-abs", "mean-abs", "std")

AVG_FOLD = "AVG"
ALL_FOLD = "all"
BAYES_REFERENCE = "BAY"


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset entry of a config: a generator spec or a CSV path."""

    kind: str  # "bayes" | "twoclouds" | "csv"
    name: str = ""
    n_pos: int = 0
    n_neg: int = 0
    path: str = ""
    label_column: str = ""
    positive_label: str = ""
    rounds: int = 0  # per-dataset override; 0 = use the global setting

    def __post_init__(self):
        if self.kind not in ("bayes", "twoclouds", "csv"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        # type(), not isinstance(): JSON true/false would pass as int 1/0
        if type(self.n_pos) is not int or type(self.n_neg) is not int:
            raise ValueError("class counts n_pos and n_neg must be integers")
        for key, value in (("name", self.name), ("path", self.path)):
            if type(value) is not str:
                raise ValueError(f"dataset {key} must be a string, not {value!r}")
        if self.kind in ("bayes", "twoclouds") and (self.n_pos <= 0 or self.n_neg <= 0):
            raise ValueError("generator specs need positive class counts")
        if type(self.rounds) is not int or self.rounds < 0:
            raise ValueError("per-dataset rounds must be a nonnegative integer")
        # the name is a CSV field and part of every trace file name
        if set(self.resolved_name()) & set(",/\\\n\r"):
            raise ValueError(f"dataset name {self.resolved_name()!r} may not contain "
                             "a comma, a path separator or a line break")
        if self.kind == "csv" and not (self.path and self.label_column and self.positive_label):
            raise ValueError("csv specs need a path, a label_column and a positive_label")

    def resolved_name(self) -> str:
        if self.name:
            return self.name
        if self.kind == "csv":
            return Path(self.path).stem
        return self.kind


@dataclass(frozen=True)
class ConvergenceSettings:
    tol: float = 1e-3
    tail_fraction: float = 0.1
    statistic: str = "max-abs"  # or "mean-abs" / "std"
    enabled_per_algorithm: tuple = ()  # (algorithm, bool) pairs

    def __post_init__(self):
        for name in ("tol", "tail_fraction"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")
        if not 0.0 < self.tail_fraction < 1.0:
            raise ValueError("tail_fraction must lie in (0, 1)")
        if self.statistic not in DEVIATION_STATISTICS:
            raise ValueError(f"unknown deviation statistic {self.statistic!r}")
        for algorithm, enabled in self.enabled_per_algorithm:
            if algorithm not in ALGORITHM_IDS or type(enabled) is not bool:
                raise ValueError(f"enabled_per_algorithm entry {algorithm!r}: {enabled!r} "
                                 "needs a known algorithm and true or false")

    def enabled_for(self, algorithm: str) -> bool:
        # ASB classifiers are never truncated: their asymmetry budget is
        # spread over the full round count, so pruning rounds would change
        # the loss actually minimized.
        if algorithm == "ASB":
            return False
        return dict(self.enabled_per_algorithm).get(algorithm, True)


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple
    algorithms: tuple = ALGORITHM_IDS
    costs: tuple = DEFAULT_COST_GRID
    folds: int = 3
    rounds: str = "dataset-size"  # or a positive integer
    seed: int = 0
    convergence: ConvergenceSettings = field(default_factory=ConvergenceSettings)

    def __post_init__(self):
        if not self.datasets or not self.algorithms or not self.costs:
            raise ValueError("datasets, algorithms and costs must be nonempty")
        names = [spec.resolved_name() for spec in self.datasets]
        if len(set(names)) != len(names):
            raise ValueError("dataset names must be unique")
        for algorithm in self.algorithms:
            if algorithm not in ALGORITHM_IDS:
                raise ValueError(f"unknown algorithm {algorithm!r}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("algorithm names must be unique")
        pairs = [CostPair(*cost) for cost in self.costs]
        if len(set(pairs)) != len(pairs):
            raise ValueError("cost pairs must be unique")
        # type(), not isinstance(): JSON true/false would pass as int 1/0
        if type(self.folds) is not int or self.folds < 2:
            raise ValueError("folds must be an integer >= 2")
        for spec in self.datasets:
            # every fold needs a member of each class; csv specs are checked on load
            if spec.kind != "csv" and min(spec.n_pos, spec.n_neg) < self.folds:
                raise ValueError(f"dataset {spec.resolved_name()!r} needs n_pos and n_neg "
                                 f"of at least folds = {self.folds}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.rounds != "dataset-size" and (type(self.rounds) is not int or self.rounds < 1):
            raise ValueError("rounds must be 'dataset-size' or a positive integer")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build a config from its JSON form; absent keys take the field defaults."""
        if not isinstance(raw, dict) or not isinstance(raw.get("datasets"), list):
            raise ValueError("a config is a JSON object with a 'datasets' list")
        args = dict(_known_keys(raw, cls, "config"))
        for key in ("algorithms", "costs"):
            if not isinstance(args.get(key, []), list):
                raise ValueError(f"{key!r} must be a list, not {args[key]!r}")
        args["datasets"] = tuple(DatasetSpec(**_known_keys(spec, DatasetSpec, "datasets"))
                                 for spec in raw["datasets"])
        if "algorithms" in args:
            args["algorithms"] = tuple(args["algorithms"])
        if "costs" in args:
            for cost in args["costs"]:
                if not isinstance(cost, (list, tuple)) or len(cost) != 2:
                    raise ValueError(f"cost entry {cost!r} must be two numbers [c_pos, c_neg]")
            args["costs"] = tuple(tuple(cost) for cost in args["costs"])
        convergence = dict(_known_keys(args.get("convergence", {}), ConvergenceSettings,
                                       "convergence"))
        enabled = convergence.get("enabled_per_algorithm", {})
        if not isinstance(enabled, dict):
            raise ValueError("enabled_per_algorithm must map algorithm names to true/false")
        convergence["enabled_per_algorithm"] = tuple(sorted(enabled.items()))
        args["convergence"] = ConvergenceSettings(**convergence)
        return cls(**args)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> dict:
        """The JSON form read by ``from_dict``; dataset keys at their default are left out."""
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        raw["datasets"] = [
            {k: v for k, v in vars(spec).items() if v not in ("", 0) or k == "kind"}
            for spec in self.datasets
        ]
        raw["algorithms"] = list(self.algorithms)
        raw["costs"] = [list(c) for c in self.costs]
        convergence = self.convergence
        raw["convergence"] = dict(vars(convergence),
                                  enabled_per_algorithm=dict(convergence.enabled_per_algorithm))
        return raw


def _known_keys(raw: dict, cls, section: str) -> dict:
    """``raw``, checked to be an object whose keys all name fields of ``cls``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{section} value {raw!r} must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {section} key(s): {', '.join(map(repr, unknown))}")
    return raw


@dataclass
class CellFailure:
    dataset: str
    algorithm: str
    cost: CostPair
    fold: str
    message: str


@dataclass
class RunStore:
    """In-memory result of one sweep, mirrored on disk by save()/load()."""

    records: list = field(default_factory=list)
    traces: dict = field(default_factory=dict)  # (dataset, alg, c_pos, c_neg, fold) -> rows
    failures: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)

    # -- persistence ----------------------------------------------------

    def save(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        records = sorted(self.records, key=_record_sort_key)
        _write_csv(
            out / "records.csv",
            "dataset,algorithm,c_pos,c_neg,fold,fnr,fpr,ce,nec,effective_rounds,trained_rounds",
            "%s,%s,%r,%r,%s,%r,%r,%r,%r,%s,%s\n",
            ((r.dataset, r.algorithm, r.cost.c_pos, r.cost.c_neg, r.fold, r.rates.fnr,
              r.rates.fpr, r.rates.ce, r.nec, r.effective_rounds, r.trained_rounds)
             for r in records),
        )
        # wall-clock seconds are inherently non-reproducible, so they are
        # quarantined here instead of the deterministic records file
        _write_csv(
            out / "timing.csv",
            "dataset,algorithm,c_pos,c_neg,fold,train_seconds",
            "%s,%s,%r,%r,%s,%r\n",
            ((r.dataset, r.algorithm, r.cost.c_pos, r.cost.c_neg, r.fold, r.train_seconds)
             for r in records if r.fold != ALL_FOLD),
        )
        traces_dir = out / "traces"
        traces_dir.mkdir(exist_ok=True)
        for key in sorted(self.traces):
            _write_csv(traces_dir / _trace_name(key), "round,alpha,z,train_nec,train_ca",
                       "%s,%r,%r,%r,%r\n", self.traces[key])
        if self.failures:
            _write_csv(
                out / "failures.csv",
                "dataset,algorithm,c_pos,c_neg,fold,message",
                "%s,%s,%r,%r,%s,%s\n",
                sorted((f.dataset, f.algorithm, f.cost.c_pos, f.cost.c_neg, f.fold,
                        " ".join(f.message.splitlines())) for f in self.failures),
            )
        with open(out / "metadata.json", "w", encoding="utf-8", newline="\n") as handle:
            json.dump(
                {"config": self.config, "environment": self.environment},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        return out

    @classmethod
    def load(cls, run_dir) -> "RunStore":
        run_dir = Path(run_dir)
        store = cls()
        with open(run_dir / "metadata.json", encoding="utf-8") as handle:
            meta = json.load(handle)
        store.config = meta.get("config", {})
        store.environment = meta.get("environment", {})

        timing = {}
        timing_path = run_dir / "timing.csv"
        if timing_path.exists():
            for parts in _read_csv_rows(timing_path):
                timing[tuple(parts[:5])] = float(parts[5])

        traced = []
        for parts in _read_csv_rows(run_dir / "records.csv"):
            key = tuple(parts[:5])
            dataset, algorithm, c_pos, c_neg, fold = key
            fnr, fpr, ce, rec_nec = (float(v) for v in parts[5:9])
            store.records.append(
                ResultRecord(
                    algorithm=algorithm,
                    dataset=dataset,
                    cost=CostPair(float(c_pos), float(c_neg)),
                    fold=fold,
                    rates=ConfusionRates(fnr=fnr, fpr=fpr, ce=ce),
                    nec=rec_nec,
                    train_seconds=timing.get(key, 0.0),
                    effective_rounds=int(parts[9]),
                    trained_rounds=int(parts[10]),
                )
            )
            if fold not in (AVG_FOLD, ALL_FOLD):
                traced.append(key)

        # every fold record has its trace; the key names the file
        traces_dir = run_dir / "traces"
        for key in traced:
            store.traces[key] = [
                (int(p[0]), float(p[1]), float(p[2]), float(p[3]), float(p[4]))
                for p in _read_csv_rows(traces_dir / _trace_name(key))
            ]

        failures_path = run_dir / "failures.csv"
        if failures_path.exists():
            # the message is the last column and may itself hold commas
            for parts in _read_csv_rows(failures_path):
                dataset, algorithm, c_pos, c_neg, fold = parts[:5]
                store.failures.append(
                    CellFailure(dataset, algorithm, CostPair(float(c_pos), float(c_neg)),
                                fold, ",".join(parts[5:]))
                )
        return store


def _trace_name(key) -> str:
    """File name of the trace of one (dataset, algorithm, c_pos, c_neg, fold) cell."""
    return "%s__%s__cp%s_cn%s__fold%s.csv" % key


def _write_csv(path: Path, header: str, fmt: str, rows) -> Path:
    """Write a header line, then ``fmt % row`` for each row tuple."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        # one write of a joined list: faster than writelines over a generator
        handle.write(header + "\n" + "".join([fmt % row for row in rows]))
    return path


def _read_csv_rows(path):
    with open(path, encoding="utf-8") as handle:
        next(handle)  # header
        for line in handle:
            line = line.rstrip("\n")
            if line:
                yield line.split(",")


def _fold_order(fold: str) -> tuple:
    if fold == AVG_FOLD:
        return (1, 0)
    if fold == ALL_FOLD:
        return (2, 0)
    return (0, int(fold))


def _record_sort_key(rec: ResultRecord) -> tuple:
    return (rec.dataset, rec.algorithm, rec.cost, _fold_order(rec.fold))


def detect_convergence(nec_trace, tol: float = 1e-3, tail_fraction: float = 0.1,
                       statistic: str = "max-abs"):
    """Earliest cutoff round after which the NEC tail has settled.

    Returns the smallest k < K such that the deviation of rounds k+1..K
    about their own mean stays below ``tol`` while the tail keeps at
    least ``tail_fraction`` of the K rounds; None when no round
    qualifies. The deviation statistic defaults to the maximum absolute
    deviation.
    """
    if statistic not in DEVIATION_STATISTICS:
        raise ValueError(f"unknown deviation statistic {statistic!r}")
    trace = np.asarray(nec_trace, dtype=float)
    k_total = trace.size
    if k_total < 2:
        return None
    rev = trace[::-1]
    suffix_mean = (np.cumsum(rev) / np.arange(1, k_total + 1))[::-1]
    if statistic == "max-abs":
        # every tail's deviation at once, from O(K) suffix extremes
        suffix_max = np.maximum.accumulate(rev)[::-1]
        suffix_min = np.minimum.accumulate(rev)[::-1]
        deviation = np.maximum(suffix_max - suffix_mean, suffix_mean - suffix_min).__getitem__
    elif statistic == "mean-abs":
        # one tail per call, only for the rounds the scan reaches
        def deviation(k):
            return np.mean(np.abs(trace[k:] - suffix_mean[k]))
    else:  # std
        def deviation(k):
            return np.std(trace[k:])

    for k in range(1, k_total):
        if (k_total - k) < tail_fraction * k_total:
            break  # tails only shrink from here
        if deviation(k) < tol:  # deviation over rounds k+1..K is index k
            return k
    return None


def _environment_fingerprint() -> dict:
    return {
        "costboost": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _derived_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _build_dataset(spec: DatasetSpec, seed: int, index: int) -> Dataset:
    gen_seed = _derived_seed(seed, index, 0)
    if spec.kind == "bayes":
        return gen_bayes(spec.n_pos, spec.n_neg, seed=gen_seed, name=spec.resolved_name())
    if spec.kind == "twoclouds":
        return gen_two_clouds(spec.n_pos, spec.n_neg, seed=gen_seed,
                              name=spec.resolved_name())
    data = load_csv_balanced(spec.path, spec.label_column, spec.positive_label,
                             seed=gen_seed)
    data.name = spec.resolved_name()
    return data


def _resolve_rounds(config: ExperimentConfig, spec: DatasetSpec, data: Dataset) -> int:
    if spec.rounds:
        return spec.rounds
    if config.rounds == "dataset-size":
        return data.n_samples
    return config.rounds


@dataclass(frozen=True, eq=False)
class _Fold:
    """One cross-validation split of a dataset, shared by every cell of it.

    ``columns``, the ``SortedColumns`` of the training rows, is built on
    first use in the process that runs the cell and never pickled: a
    worker task sorts each fold it receives once, and the unpickled copy
    of a block would come back writeable. ``ensembles`` is the
    ``train_ensemble`` ``shared`` dict of the fold, whose cost-blind
    rounds are trained once per process the same way, and freed with it.
    """

    dataset: str
    fold: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    @classmethod
    def of(cls, data: Dataset, folds, fold: int) -> "_Fold":
        train, test = folds.train_indices(fold), folds.test_indices(fold)
        return cls(data.name, str(fold), data.features[train], data.labels[train],
                   data.features[test], data.labels[test])

    @cached_property
    def columns(self):
        return sort_columns(self.x_train, self.y_train)

    @cached_property
    def ensembles(self) -> dict:
        return {}

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k not in ("columns", "ensembles")}


def _run_cell(cell):
    """Train, truncate and evaluate one sweep cell.

    ``cell`` is (algorithm, split, cost, rounds, convergence), ``split``
    the ``_Fold`` every cell of its (dataset, fold) shares. The sort of its
    training columns is left out of ``train_seconds``; a cell that reads
    a cost-blind ensemble back from ``split.ensembles`` counts only its
    own trace and threshold there. Returns the fold
    record and its trace rows, or a ``CellFailure`` when the cell raised:
    one failed cell must not kill the sweep, but ``TypeError``,
    ``AttributeError`` and ``NameError`` mark a programming error and
    propagate.
    """
    algorithm, split, cost, rounds, convergence = cell
    try:
        x_train, y_train = split.x_train, split.y_train
        columns = split.columns

        start = time.perf_counter()
        classifier, trace = train_ensemble(algorithm, x_train, y_train, cost, rounds,
                                           columns=columns, shared=split.ensembles)
        elapsed = time.perf_counter() - start

        cutoff = None
        if convergence.enabled_for(algorithm):
            cutoff = detect_convergence(
                trace.train_nec, convergence.tol, convergence.tail_fraction,
                convergence.statistic,
            )
        threshold = classifier.decision_threshold
        if cutoff is None:
            cutoff = rounds
        elif algorithm == "ABT":
            # the a-posteriori threshold must match the classifier that is
            # actually evaluated, so redo the search on the truncated scores
            truncated = decision_scores(classifier, x_train, cutoff)
            threshold = adjust_threshold(truncated, y_train, cost)

        scores = decision_scores(classifier, split.x_test, cutoff)
        pred = np.where(scores - threshold >= 0, 1, -1)
        record = _record(algorithm, split.dataset, cost, split.fold,
                         confusion_rates(pred, split.y_test), train_seconds=elapsed,
                         effective_rounds=cutoff, trained_rounds=rounds)
        trace_rows = list(zip(range(1, rounds + 1), classifier.alphas, trace.zs,
                              trace.train_nec, trace.train_ca))
    except (TypeError, AttributeError, NameError):
        raise  # a programming error, not a failed cell
    except Exception as exc:  # cell failures must not kill the sweep
        return CellFailure(split.dataset, algorithm, cost, split.fold, repr(exc))
    return record, trace_rows


def _record(algorithm, dataset, cost, fold, rates, **rest) -> ResultRecord:
    """One sweep record; the one place where a record's NEC is computed."""
    return ResultRecord(algorithm=algorithm, dataset=dataset, cost=cost, fold=fold,
                        rates=rates, nec=nec(rates, cost, 0.5), **rest)


def _average_record(fold_records) -> ResultRecord:
    rates = ConfusionRates(
        fnr=float(np.mean([r.rates.fnr for r in fold_records])),
        fpr=float(np.mean([r.rates.fpr for r in fold_records])),
        ce=float(np.mean([r.rates.ce for r in fold_records])),
    )
    first = fold_records[0]
    return _record(
        first.algorithm, first.dataset, first.cost, AVG_FOLD, rates,
        train_seconds=float(np.mean([r.train_seconds for r in fold_records])),
        effective_rounds=int(round(np.mean([r.effective_rounds for r in fold_records]))),
        trained_rounds=int(round(np.mean([r.trained_rounds for r in fold_records]))),
    )


def _bayes_reference_records(data: Dataset, costs) -> list:
    records = []
    for cost in costs:
        pred = bayes_optimal_predict(data.gauss, cost, data.coords)
        records.append(_record(BAYES_REFERENCE, data.name, cost, ALL_FOLD,
                               confusion_rates(pred, data.labels)))
    return records


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> RunStore:
    """Execute the full sweep described by ``config``.

    Cells are independent jobs; any number of workers produces the same
    records and traces, sorted by a canonical key. Per-cell failures are
    collected as diagnostics instead of aborting the sweep. ``jobs`` must
    be a positive integer.
    """
    # type(), not isinstance(): True would pass as one worker
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    store = RunStore(config=config.to_dict(), environment=_environment_fingerprint())
    costs = [CostPair(*cost) for cost in config.costs]

    cells = []
    for index, spec in enumerate(config.datasets):
        data = _build_dataset(spec, config.seed, index)
        folds = stratified_kfold(data.labels, config.folds, _derived_seed(config.seed, index, 1))
        rounds = _resolve_rounds(config, spec, data)
        if data.gauss is not None:
            store.records.extend(_bayes_reference_records(data, costs))
        splits = [_Fold.of(data, folds, fold) for fold in range(config.folds)]
        cells.extend((algorithm, split, cost, rounds, config.convergence)
                     for algorithm in config.algorithms
                     for cost in costs
                     for split in splits)

    if jobs > 1:
        # one task per (dataset, algorithm) group, so each ships and sorts its folds once
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_cell, cells, chunksize=len(costs) * config.folds))
    else:
        results = list(map(_run_cell, cells))

    grouped = {}
    for result in results:
        if isinstance(result, CellFailure):
            store.failures.append(result)
            continue
        record, trace_rows = result
        store.records.append(record)
        store.traces[(record.dataset, record.algorithm, repr(record.cost.c_pos),
                      repr(record.cost.c_neg), record.fold)] = trace_rows
        grouped.setdefault((record.dataset, record.algorithm, record.cost), []).append(record)
    for key in sorted(grouped):
        store.records.append(_average_record(grouped[key]))

    store.records.sort(key=_record_sort_key)
    return store


# -- report emission ----------------------------------------------------


def _delta_inputs(store: RunStore, attribute: str):
    """Fold-averaged per-scenario deviations from the best algorithm.

    Reference rows ("BAY") are excluded: the deltas rank the trained
    classifiers against each other.
    """
    scenario = {}
    for rec in store.records:
        if rec.fold != AVG_FOLD or rec.algorithm == BAYES_REFERENCE:
            continue
        value = rec.nec if attribute == "nec" else rec.rates.ce
        scenario.setdefault((rec.dataset, rec.cost), {})[rec.algorithm] = value
    rows = []
    for (dataset, cost), per_algorithm in scenario.items():
        for algorithm, delta in delta_table(per_algorithm).items():
            rows.append((algorithm, cost, dataset, delta))
    return rows


def _appendix_tables(store: RunStore):
    """One results table per dataset: the fold-averaged and reference rows."""
    for dataset in sorted({rec.dataset for rec in store.records}):
        yield (f"results_{dataset}.csv", "Cost,Alg,FNR,FPR,CE,NEC", "[%s;%s],%s,%r,%r,%r,%r\n",
               [(_trim(rec.cost.c_pos), _trim(rec.cost.c_neg), rec.algorithm,
                 rec.rates.fnr, rec.rates.fpr, rec.rates.ce, rec.nec)
                for rec in store.records
                if rec.dataset == dataset and rec.fold in (AVG_FOLD, ALL_FOLD)])


def _delta_global(store: RunStore):
    for attribute in ("nec", "ce"):
        by_alg, _ = conditional_moments(_delta_inputs(store, attribute))
        yield (f"delta_{attribute}_global.csv", "algorithm,mean,variance", "%s,%r,%r\n",
               [(alg, stats["mean"], stats["variance"]) for alg, stats in sorted(by_alg.items())])


def _delta_by_cost(store: RunStore):
    for attribute in ("nec", "ce"):
        _, by_alg_cost = conditional_moments(_delta_inputs(store, attribute))
        yield (f"delta_{attribute}_by_cost.csv", "algorithm,c_pos,c_neg,mean,variance",
               "%s,%s,%s,%r,%r\n",
               [(alg, _trim(cost.c_pos), _trim(cost.c_neg), stats["mean"], stats["variance"])
                for (alg, cost), stats in sorted(by_alg_cost.items())])


def _ca_surface(store: RunStore):
    """Training classification asymmetry per round, averaged over the folds."""
    grouped = {}
    for (dataset, algorithm, c_pos, c_neg, fold), rows in store.traces.items():
        for round_no, _alpha, _z, _nec, ca in rows:
            key = (dataset, algorithm, float(c_pos), float(c_neg), round_no)
            grouped.setdefault(key, []).append(ca)
    rows = []
    for key in sorted(grouped):
        values = [v for v in grouped[key] if not np.isnan(v)]
        if not values:
            continue  # undefined in every fold: skip instead of poisoning
        dataset, algorithm, c_pos, c_neg, round_no = key
        rows.append((dataset, algorithm, _trim(c_pos), _trim(c_neg), round_no,
                     float(np.mean(values))))
    yield ("ca_surface.csv", "dataset,algorithm,c_pos,c_neg,round,train_ca",
           "%s,%s,%s,%s,%s,%r\n", rows)


def _timing(store: RunStore):
    """Mean training seconds per algorithm (with the ratio to CGA) and per cost."""
    by_alg, by_alg_cost = conditional_moments(
        (rec.algorithm, rec.cost, rec.dataset, rec.train_seconds) for rec in store.records
        if rec.fold not in (AVG_FOLD, ALL_FOLD) and rec.algorithm != BAYES_REFERENCE
    )
    base = by_alg.get("CGA", {}).get("mean")
    yield ("timing_grand.csv", "algorithm,mean_seconds,ratio_to_cga", "%s,%r,%s\n",
           [(alg, stats["mean"], repr(stats["mean"] / base) if base else "")
            for alg, stats in sorted(by_alg.items())])
    yield ("timing_by_cost.csv", "algorithm,c_pos,c_neg,mean_seconds", "%s,%s,%s,%r\n",
           [(alg, _trim(cost.c_pos), _trim(cost.c_neg), stats["mean"])
            for (alg, cost), stats in sorted(by_alg_cost.items())])


# each report kind's builder yields (file name, header, row format, rows) per file
_REPORTS = {
    "appendix_tables": _appendix_tables,
    "delta_global": _delta_global,
    "delta_by_cost": _delta_by_cost,
    "ca_surface": _ca_surface,
    "timing": _timing,
}

REPORT_KINDS = tuple(_REPORTS)


def emit_report(store: RunStore, kind: str, out_dir) -> list:
    """Write one report family as CSV data files; returns the paths."""
    if not store.records:
        raise ValueError("store has no records")
    if kind not in REPORT_KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return [_write_csv(out / name, header, fmt, rows)
            for name, header, fmt, rows in _REPORTS[kind](store)]


def _trim(value: float) -> str:
    """Integer-looking costs print without a trailing .0."""
    value = float(value)
    return str(int(value)) if value == int(value) else repr(value)
