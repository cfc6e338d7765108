"""Benchmark harness: sweeps, convergence cutoff, persistence, reports.

A sweep trains every (dataset, algorithm, cost, fold) cell, truncates
each classifier at the earliest round where the training-NEC tail has
settled, evaluates the confusion rates on the held-out fold and collects
one record per cell plus one fold-averaged record per (dataset,
algorithm, cost). Datasets built from the normal-mixture generator also
receive reference rows from the cost-optimal rule evaluated on the whole
set ("BAY" rows, fold label "all").

The (dataset, fold) split is the unit of work: ``run_experiment``
builds one task per split and maps ``_run_fold`` over them, in a
process pool when ``jobs > 1``. A task sorts its training columns once,
into the one ``sort_columns`` handle that every (algorithm, cost) cell
of its split trains on. The variants that train without reading the
costs (ADA, ABT, and CGA where its initial weights come out uniform)
train one ensemble per handle, kept in it; each cell derives its cost's
trace, cutoff and threshold from it. The handle is local to the task,
so it is freed when the task returns, at any worker count.

Everything written to a run directory is byte-deterministic for a fixed
config and seed, independent of worker count, with one deliberate
exception: wall-clock training times live in their own ``timing.csv``
because they can never be reproducible.
"""

import json
import platform
import shutil
import sys
import time
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain
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
    "ConvergenceSettings",
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
    enabled_per_algorithm: tuple = ()  # {algorithm: bool}, kept as sorted pairs

    def __post_init__(self):
        for name in ("tol", "tail_fraction"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")
        if not 0.0 < self.tail_fraction < 1.0:
            raise ValueError("tail_fraction must lie in (0, 1)")
        if self.statistic not in DEVIATION_STATISTICS:
            raise ValueError(f"unknown deviation statistic {self.statistic!r}")
        pairs = self.enabled_per_algorithm  # a mapping, or the pairs kept from one
        pairs = tuple(pairs.items()) if isinstance(pairs, dict) else pairs
        if type(pairs) is not tuple or not all(type(p) is tuple and len(p) == 2 for p in pairs):
            raise ValueError("enabled_per_algorithm must map algorithm names to true/false")
        for algorithm, enabled in pairs:
            if algorithm not in ALGORITHM_IDS or type(enabled) is not bool:
                raise ValueError(f"enabled_per_algorithm entry {algorithm!r}: {enabled!r} "
                                 "needs a known algorithm and true or false")
        # a name given twice keeps its last value, as in a JSON object
        object.__setattr__(self, "enabled_per_algorithm", tuple(sorted(dict(pairs).items())))

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
        for key in ("datasets", "algorithms", "costs"):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{key!r} must be a list, not {value!r}")
            object.__setattr__(self, key, tuple(value))
        for spec in self.datasets:
            if not isinstance(spec, DatasetSpec):
                raise ValueError(f"datasets entry {spec!r} must be a DatasetSpec")
        for cost in self.costs:
            if not isinstance(cost, (list, tuple)) or len(cost) != 2:
                raise ValueError(f"cost entry {cost!r} must be two numbers [c_pos, c_neg]")
        object.__setattr__(self, "costs", tuple(tuple(cost) for cost in self.costs))
        if not isinstance(self.convergence, ConvergenceSettings):
            raise ValueError(f"convergence {self.convergence!r} must be a ConvergenceSettings")
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
        args["datasets"] = [DatasetSpec(**_known_keys(spec, DatasetSpec, "datasets"))
                            for spec in raw["datasets"]]
        args["convergence"] = ConvergenceSettings(
            **_known_keys(args.get("convergence", {}), ConvergenceSettings, "convergence"))
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
    traces: dict = field(default_factory=dict)  # _cell_key of a fold record -> rows
    failures: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)

    # -- persistence ----------------------------------------------------

    def save(self, out_dir) -> Path:
        out = Path(out_dir)
        if (out / "metadata.json").exists():  # an earlier run: this one replaces it
            for owned in ("traces", "reports"):
                shutil.rmtree(out / owned, ignore_errors=True)
        out.mkdir(parents=True, exist_ok=True)
        # cells go out in the store's order: run_experiment sorts them
        _write_csv(
            out / "records.csv",
            "dataset,algorithm,c_pos,c_neg,fold,fnr,fpr,ce,nec,effective_rounds,trained_rounds",
            "%s,%s,%r,%r,%s,%r,%r,%r,%r,%s,%s\n",
            (_cell_key(r) + (r.rates.fnr, r.rates.fpr, r.rates.ce, r.nec, r.effective_rounds,
                             r.trained_rounds) for r in self.records),
        )
        # wall-clock seconds are inherently non-reproducible, so they are
        # quarantined here instead of the deterministic records file
        _write_csv(
            out / "timing.csv",
            "dataset,algorithm,c_pos,c_neg,fold,train_seconds",
            "%s,%s,%r,%r,%s,%r\n",
            (_cell_key(r) + (r.train_seconds,) for r in self.records if r.fold != ALL_FOLD),
        )
        traces_dir = out / "traces"
        traces_dir.mkdir(exist_ok=True)
        for key, rows in self.traces.items():
            _write_csv(traces_dir / _trace_name(key), "round,alpha,z,train_nec,train_ca",
                       "%s,%r,%r,%r,%r\n", rows)
        if self.failures:
            _write_csv(
                out / "failures.csv",
                "dataset,algorithm,c_pos,c_neg,fold,message",
                "%s,%s,%r,%r,%s,%s\n",
                (_cell_key(f) + (" ".join(f.message.splitlines()),) for f in self.failures),
            )
        else:  # an earlier run's failures must not load back with this one
            (out / "failures.csv").unlink(missing_ok=True)
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
            for key, (seconds,) in _read_cells(timing_path):
                timing[key] = float(seconds)

        traces_dir = run_dir / "traces"
        for key, parts in _read_cells(run_dir / "records.csv"):
            dataset, algorithm, c_pos, c_neg, fold = key
            fnr, fpr, ce, rec_nec = (float(v) for v in parts[:4])
            store.records.append(
                ResultRecord(
                    algorithm=algorithm,
                    dataset=dataset,
                    cost=CostPair(c_pos, c_neg),
                    fold=fold,
                    rates=ConfusionRates(fnr=fnr, fpr=fpr, ce=ce),
                    nec=rec_nec,
                    train_seconds=timing.get(key, 0.0),
                    effective_rounds=int(parts[4]),
                    trained_rounds=int(parts[5]),
                )
            )
            if fold not in (AVG_FOLD, ALL_FOLD):  # every fold record has its trace
                store.traces[key] = [
                    (int(p[0]), float(p[1]), float(p[2]), float(p[3]), float(p[4]))
                    for p in _read_csv_rows(traces_dir / _trace_name(key))
                ]

        failures_path = run_dir / "failures.csv"
        if failures_path.exists():
            # the message is the last column and may itself hold commas
            for key, parts in _read_cells(failures_path):
                dataset, algorithm, c_pos, c_neg, fold = key
                store.failures.append(CellFailure(dataset, algorithm, CostPair(c_pos, c_neg),
                                                  fold, ",".join(parts)))
        return store


def _cell_key(cell) -> tuple:
    """Key (dataset, algorithm, c_pos, c_neg, fold) of a record or a failure."""
    return (cell.dataset, cell.algorithm, cell.cost.c_pos, cell.cost.c_neg, cell.fold)


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


def _read_cells(path):
    """Each row of a cell table as (its ``_cell_key``, the fields after the key)."""
    for dataset, algorithm, c_pos, c_neg, fold, *rest in _read_csv_rows(path):
        yield (dataset, algorithm, float(c_pos), float(c_neg), fold), rest


def _fold_order(fold: str) -> tuple:
    if fold == AVG_FOLD:
        return (1, 0)
    if fold == ALL_FOLD:
        return (2, 0)
    return (0, int(fold))


def _record_sort_key(cell) -> tuple:  # of a record or a failure
    return (cell.dataset, cell.algorithm, cell.cost, _fold_order(cell.fold))


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
    """One cross-validation split of a dataset: its training and test rows."""

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


def _run_fold(task, cells, convergence) -> list:
    """Run every (algorithm, cost) cell of ``cells`` on one split.

    ``task`` is (split, rounds). The training columns are sorted once,
    outside every cell's ``train_seconds``, into the handle every cell
    trains on; it lives only as long as this call. Returns
    ``_run_cell``'s results in ``cells`` order.
    """
    split, rounds = task
    columns = sort_columns(split.x_train, split.y_train)
    return [_run_cell(algorithm, split, cost, rounds, convergence, columns)
            for algorithm, cost in cells]


def _run_cell(algorithm, split, cost, rounds, convergence, columns):
    """Train, truncate and evaluate one sweep cell.

    ``columns`` is the ``sort_columns`` handle of ``split``'s training
    rows; a cell whose ensemble ``train_ensemble`` reads back from it
    counts only its own trace and threshold in ``train_seconds``.
    Returns the fold record and its trace rows, or a ``CellFailure`` when
    the cell raised: one failed cell must not kill the sweep, but
    ``TypeError``, ``AttributeError`` and ``NameError`` mark a
    programming error and propagate.
    """
    try:
        x_train, y_train = split.x_train, split.y_train
        start = time.perf_counter()
        classifier, trace = train_ensemble(algorithm, x_train, y_train, cost, rounds,
                                           columns=columns)
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

    Each (dataset, fold) split is one independent task; any number of
    workers produces the same records and traces, sorted by a canonical
    key. Per-cell failures are collected as diagnostics instead of
    aborting the sweep. ``jobs`` must be a positive integer.
    """
    # type(), not isinstance(): True would pass as one worker
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    store = RunStore(config=config.to_dict(), environment=_environment_fingerprint())
    costs = [CostPair(*cost) for cost in config.costs]

    built = []  # every dataset is built, and can fail, before any cell trains
    for index, spec in enumerate(config.datasets):
        data = _build_dataset(spec, config.seed, index)
        folds = stratified_kfold(data.labels, config.folds, _derived_seed(config.seed, index, 1))
        if data.gauss is not None:
            store.records.extend(_bayes_reference_records(data, costs))
        built.append((data, folds, _resolve_rounds(config, spec, data)))
    # a split's rows are copied when the sweep reaches it, so on one worker
    # they are freed when its task returns
    tasks = ((_Fold.of(data, folds, fold), rounds)
             for data, folds, rounds in built for fold in range(config.folds))

    cells = [(algorithm, cost) for algorithm in config.algorithms for cost in costs]
    run = partial(_run_fold, cells=cells, convergence=config.convergence)
    if jobs > 1:
        # imported here: the pool's import alone brings in multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = list(map(run, tasks))

    grouped = {}
    for result in chain.from_iterable(results):
        if isinstance(result, CellFailure):
            store.failures.append(result)
            continue
        record, trace_rows = result
        store.records.append(record)
        store.traces[_cell_key(record)] = trace_rows
        grouped.setdefault((record.dataset, record.algorithm, record.cost), []).append(record)
    store.records.extend(map(_average_record, grouped.values()))

    store.records.sort(key=_record_sort_key)
    store.failures.sort(key=_record_sort_key)
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
    for (dataset, algorithm, c_pos, c_neg, _fold), rows in store.traces.items():
        for round_no, _alpha, _z, _nec, ca in rows:
            grouped.setdefault((dataset, algorithm, c_pos, c_neg, round_no), []).append(ca)
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
    """A cost as ``repr`` prints it, less a trailing .0: 10, 2.5, 1e+23."""
    return repr(float(value)).removesuffix(".0")
