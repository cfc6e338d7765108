import concurrent.futures
import copy
import dataclasses
import gc
import json
import os
import pickle
import re
import subprocess
import sys
import weakref
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

import costboost
from costboost.boosting import (ALGORITHM_IDS, CostPair, adjust_threshold, decision_scores,
                                train_ensemble)
from costboost.datasets import gen_bayes, stratified_kfold
from costboost.harness import (
    AVG_FOLD,
    BAYES_REFERENCE,
    DEFAULT_COST_GRID,
    REPORT_KINDS,
    ConvergenceSettings,
    DatasetSpec,
    ExperimentConfig,
    RunStore,
    _derived_seed,
    detect_convergence,
    emit_report,
    run_experiment,
)
from costboost.metrics import confusion_rates, nec


BRUTE_FORCE_DEVIATIONS = {
    "max-abs": lambda tail: np.max(np.abs(tail - tail.mean())),
    "mean-abs": lambda tail: np.mean(np.abs(tail - tail.mean())),
    "std": lambda tail: np.sqrt(np.mean((tail - tail.mean()) ** 2)),
}


def brute_force_cutoff(trace, tol=1e-3, tail_fraction=0.1, statistic="max-abs"):
    """Literal scan of the two convergence conditions over every k."""
    k_total = len(trace)
    for k in range(1, k_total):
        tail = np.asarray(trace[k:], dtype=float)
        cond_a = BRUTE_FORCE_DEVIATIONS[statistic](tail) < tol
        cond_b = (k_total - k) >= tail_fraction * k_total
        if cond_a and cond_b:
            return k
    return None


class TestDetectConvergence:
    def test_constant_trace_cuts_immediately(self):
        assert detect_convergence([0.25] * 100) == 1

    def test_oscillating_trace_never_converges(self):
        trace = [0.3 + (0.1 if t % 2 else -0.1) for t in range(100)]
        assert detect_convergence(trace) is None

    def test_step_trace_cuts_at_the_step(self):
        trace = [0.5] * 80 + [0.2] * 20
        assert detect_convergence(trace) == 80

    def test_tail_fraction_blocks_late_steps(self):
        # the flat tail is shorter than 10% of the rounds
        trace = [0.5] * 95 + [0.2] * 5
        assert detect_convergence(trace) is None

    def test_single_round_trace(self):
        assert detect_convergence([0.4]) is None

    @pytest.mark.parametrize("statistic", sorted(BRUTE_FORCE_DEVIATIONS))
    def test_random_step_traces_match_brute_force(self, statistic):
        rng = np.random.default_rng(99)
        for _ in range(100):
            k_total = int(rng.integers(5, 120))
            step_at = int(rng.integers(1, k_total))
            levels = rng.random(2)
            noise = rng.normal(scale=rng.choice([0.0, 1e-5, 1e-3]), size=k_total)
            trace = np.where(np.arange(k_total) < step_at, levels[0], levels[1]) + noise
            assert detect_convergence(trace, statistic=statistic) == brute_force_cutoff(
                trace, statistic=statistic)

    def test_alternative_statistics(self):
        # a single outlier inside the tail: the max-abs statistic must wait
        # until it has passed, the std statistic absorbs it immediately
        trace = [0.5] * 10 + [0.2] * 40 + [0.201] + [0.2] * 40
        assert detect_convergence(trace, tol=4e-4, statistic="std") == 10
        assert detect_convergence(trace, tol=4e-4, statistic="max-abs") == 51

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            detect_convergence([0.25] * 100, statistic="bogus")


def tiny_config(**overrides):
    base = dict(
        datasets=(DatasetSpec(kind="bayes", n_pos=12, n_neg=12),),
        algorithms=("ADA", "CGA"),
        costs=((1, 1), (1, 5)),
        folds=3,
        rounds=8,
        seed=13,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def every_field_config():
    """A config that sets every field, each dataset key included, off its default."""
    return ExperimentConfig(
        datasets=(
            DatasetSpec(kind="bayes", name="small", n_pos=6, n_neg=7),
            DatasetSpec(kind="csv", path="data/spam.csv", label_column="label",
                        positive_label="1", rounds=50),
        ),
        algorithms=("CSA", "ADA"), costs=((1, 10), (2.5, 1)), folds=4, rounds=30, seed=5,
        convergence=ConvergenceSettings(tol=0.01, tail_fraction=0.25, statistic="std",
                                        enabled_per_algorithm=(("ADA", False), ("CSA", True))),
    )


# a value of the wrong shape, and a word its error message must hold
MISSHAPEN = [
    ("costs", 5, "costs"), ("convergence", 5, "convergence"),
    ("algorithms", 5, "algorithms"), ("algorithms", "ADA", "algorithms"),
    ("datasets", ["bayes"], "datasets"),
]


class TestExperimentConfig:
    @pytest.mark.parametrize("make, expected", [
        (tiny_config, {
            "datasets": [{"kind": "bayes", "n_pos": 12, "n_neg": 12}],
            "algorithms": ["ADA", "CGA"], "costs": [[1, 1], [1, 5]], "folds": 3, "rounds": 8,
            "seed": 13,
            "convergence": {"tol": 0.001, "tail_fraction": 0.1, "statistic": "max-abs",
                            "enabled_per_algorithm": {}},
        }),
        (every_field_config, {
            "datasets": [
                {"kind": "bayes", "name": "small", "n_pos": 6, "n_neg": 7},
                {"kind": "csv", "path": "data/spam.csv", "label_column": "label",
                 "positive_label": "1", "rounds": 50},
            ],
            "algorithms": ["CSA", "ADA"], "costs": [[1, 10], [2.5, 1]], "folds": 4,
            "rounds": 30, "seed": 5,
            "convergence": {"tol": 0.01, "tail_fraction": 0.25, "statistic": "std",
                            "enabled_per_algorithm": {"ADA": False, "CSA": True}},
        }),
    ], ids=["tiny", "every-field"])
    def test_json_round_trip(self, tmp_path, make, expected):
        config = make()
        raw = config.to_dict()
        assert raw == expected
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        loaded = ExperimentConfig.from_json(path)
        assert loaded == config

    def test_defaults(self):
        config = ExperimentConfig(
            datasets=(DatasetSpec(kind="bayes", n_pos=10, n_neg=10),)
        )
        assert config.costs == DEFAULT_COST_GRID
        assert config.folds == 3
        assert config.rounds == "dataset-size"

    def test_rejects_empty_sections(self):
        with pytest.raises(ValueError):
            ExperimentConfig(datasets=())
        with pytest.raises(ValueError):
            tiny_config(algorithms=())
        with pytest.raises(ValueError):
            tiny_config(costs=())

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            tiny_config(algorithms=("ADA", "NOPE"))

    def test_rejects_duplicate_dataset_names(self):
        with pytest.raises(ValueError, match="unique"):
            tiny_config(datasets=(
                DatasetSpec(kind="bayes", n_pos=6, n_neg=6),
                DatasetSpec(kind="bayes", n_pos=9, n_neg=9),
            ))

    def test_rejects_bool_and_negative_rounds(self):
        with pytest.raises(ValueError):
            tiny_config(rounds=True)
        with pytest.raises(ValueError):
            DatasetSpec(kind="bayes", n_pos=6, n_neg=6, rounds=True)
        with pytest.raises(ValueError):
            DatasetSpec(kind="bayes", n_pos=6, n_neg=6, rounds=-1)

    def test_rejects_invalid_cost_pairs(self):
        with pytest.raises(ValueError):
            tiny_config(costs=((1, 1), (0, 1)))

    def test_rejects_duplicate_algorithms(self):
        with pytest.raises(ValueError, match="unique"):
            tiny_config(algorithms=("ADA", "ADA"))

    def test_rejects_generator_classes_smaller_than_folds(self):
        for kind in ("bayes", "twoclouds"):
            for n_pos, n_neg in ((2, 12), (12, 2)):
                with pytest.raises(ValueError, match="folds"):
                    tiny_config(datasets=(DatasetSpec(kind=kind, n_pos=n_pos, n_neg=n_neg),))
        # exactly one member of each class per fold is enough to run
        store = run_experiment(tiny_config(datasets=(DatasetSpec(kind="bayes", n_pos=3,
                                                                 n_neg=3),)))
        assert not store.failures

    def test_from_dict_rejects_configs_without_a_datasets_list(self):
        for raw in ({}, [], {"datasets": {"kind": "bayes"}}, "config"):
            with pytest.raises(ValueError, match="JSON object with a 'datasets' list"):
                ExperimentConfig.from_dict(raw)

    def test_rejects_duplicate_cost_pairs(self):
        with pytest.raises(ValueError, match="unique"):
            tiny_config(costs=((1, 5), (1.0, 5.0)))

    def test_rejects_names_that_break_the_run_directory(self):
        for name in ("a,b", "a/b", "a\\b", "a\nb"):
            with pytest.raises(ValueError, match="name"):
                DatasetSpec(kind="bayes", name=name, n_pos=6, n_neg=6)
        with pytest.raises(ValueError, match="name"):
            DatasetSpec(kind="csv", path="data/a,b.csv")

    def test_from_dict_rejects_non_string_name_and_path(self):
        for key in ("name", "path"):
            for value in (5, ["a"]):
                raw = tiny_config().to_dict()
                raw["datasets"][0][key] = value
                with pytest.raises(ValueError, match=key):
                    ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("key, value, named", MISSHAPEN)
    def test_from_dict_rejects_misshapen_values(self, key, value, named):
        raw = dict(tiny_config().to_dict(), **{key: value})
        with pytest.raises(ValueError, match=named):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("key, value, named", MISSHAPEN + [
        ("convergence", {"tol": 1e-3}, "must be a ConvergenceSettings"),
        ("datasets", [{"kind": "bayes", "n_pos": 12, "n_neg": 12}], "must be a DatasetSpec"),
        ("costs", [[1, 5, 9]], re.escape("cost entry [1, 5, 9] must be two numbers")),
    ], ids=["costs-5", "convergence-5", "algorithms-5", "algorithms-ADA", "datasets-bayes",
            "convergence-dict", "datasets-dicts", "costs-triple"])
    def test_constructor_rejects_what_json_loading_rejects(self, key, value, named):
        # a dict convergence once passed and broke to_dict; costs=5, dict
        # datasets and algorithms="ADA" raised TypeError, AttributeError and
        # "unknown algorithm 'A'"
        with pytest.raises(ValueError, match=named):
            tiny_config(**{key: value})

    def test_constructor_takes_lists_as_tuples(self):
        config = tiny_config(datasets=[DatasetSpec(kind="bayes", n_pos=12, n_neg=12)],
                             algorithms=["ADA", "CGA"], costs=[[1, 1], [1, 5]])
        assert config == tiny_config()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("missing", ["path", "label_column", "positive_label"])
    def test_rejects_csv_specs_without_a_column_or_label(self, missing):
        keys = dict(path="data/spam.csv", label_column="label", positive_label="1")
        with pytest.raises(ValueError, match="csv specs need"):
            DatasetSpec(kind="csv", **dict(keys, **{missing: ""}))

    def test_from_dict_rejects_unknown_top_level_keys(self):
        for key in ("fold", "seeed"):
            raw = dict(tiny_config().to_dict(), **{key: 5})
            with pytest.raises(ValueError, match=key):
                ExperimentConfig.from_dict(raw)

    def test_from_dict_rejects_unknown_dataset_keys(self):
        raw = tiny_config().to_dict()
        raw["datasets"][0]["n_posit"] = 12
        with pytest.raises(ValueError, match="n_posit"):
            ExperimentConfig.from_dict(raw)

    def test_from_dict_rejects_unknown_convergence_keys(self):
        raw = tiny_config().to_dict()
        raw["convergence"] = {"tolerance": 0.5}
        with pytest.raises(ValueError, match="tolerance"):
            ExperimentConfig.from_dict(raw)

    def test_rejects_non_integer_folds_and_seed(self):
        for key, value in (("folds", 2.7), ("folds", True), ("seed", 3.5), ("seed", True),
                           ("seed", -1)):
            raw = dict(tiny_config().to_dict(), **{key: value})
            with pytest.raises(ValueError, match=key):
                ExperimentConfig.from_dict(raw)

    def test_from_dict_rejects_non_integer_class_counts(self):
        for value in (6.5, True, "6"):
            raw = tiny_config().to_dict()
            raw["datasets"][0]["n_pos"] = value
            with pytest.raises(ValueError, match="n_pos"):
                ExperimentConfig.from_dict(raw)

    def test_from_dict_rejects_cost_entries_that_are_not_pairs(self):
        for entry in ([1, 5, 9], [1], 5):
            raw = dict(tiny_config().to_dict(), costs=[[1, 1], entry])
            with pytest.raises(ValueError, match=re.escape(repr(entry))):
                ExperimentConfig.from_dict(raw)

    def test_rejects_cost_values_that_are_not_numbers(self):
        for entry in (["1", 2], [True, 2], [1, None]):
            raw = dict(tiny_config().to_dict(), costs=[[1, 1], entry])
            with pytest.raises(ValueError, match="must be a number"):
                ExperimentConfig.from_dict(raw)
        assert CostPair(np.float64(2.0), np.int64(3)) == CostPair(2, 3)

    def test_from_dict_rejects_bad_convergence_values(self):
        for convergence in ({"enabled_per_algorithm": {"XYZ": False}},
                            {"enabled_per_algorithm": {"ADA": "no"}},
                            {"enabled_per_algorithm": {"ADA": 0}},
                            {"enabled_per_algorithm": ["ADA"]},
                            {"tol": float("nan")},
                            {"tol": float("inf")},
                            {"tol": True}):
            raw = dict(tiny_config().to_dict(), convergence=convergence)
            with pytest.raises(ValueError):
                ExperimentConfig.from_dict(raw)
        raw = dict(tiny_config().to_dict(),
                   convergence={"enabled_per_algorithm": {"ASB": True}})
        assert ExperimentConfig.from_dict(raw).convergence.enabled_per_algorithm == (
            ("ASB", True),)

    def test_convergence_switches_take_the_json_mapping_or_the_kept_pairs(self):
        mapped = ConvergenceSettings(enabled_per_algorithm={"CSA": True, "ADA": False})
        paired = ConvergenceSettings(enabled_per_algorithm=(("ADA", False), ("CSA", True)))
        assert mapped == paired and hash(mapped) == hash(paired)
        assert mapped.enabled_per_algorithm == (("ADA", False), ("CSA", True))
        # a name given twice keeps its last value, so the pairs survive to_dict
        twice = ConvergenceSettings(enabled_per_algorithm=(("ADA", True), ("ADA", False)))
        assert twice == ConvergenceSettings(enabled_per_algorithm={"ADA": False})
        assert dataclasses.replace(mapped, tol=0.5) == ConvergenceSettings(
            tol=0.5, enabled_per_algorithm={"ADA": False, "CSA": True})
        assert not mapped.enabled_for("ADA") and mapped.enabled_for("CGA")

    @pytest.mark.parametrize("enabled", [[("ADA", False)], ["ADA"], ("ADA",), (("ADA",),)],
                             ids=["list-of-pairs", "list-of-names", "tuple-of-names",
                                  "tuple-of-singletons"])
    def test_convergence_switches_reject_other_shapes(self, enabled):
        with pytest.raises(ValueError, match="enabled_per_algorithm must map algorithm names"):
            ConvergenceSettings(enabled_per_algorithm=enabled)

    @pytest.mark.parametrize("spec, message", [
        (dict(kind="parquet"), "unknown dataset kind 'parquet'"),
        (dict(kind="bayes", n_pos=0, n_neg=5), "generator specs need positive class counts"),
        (dict(kind="twoclouds", n_pos=5, n_neg=-1), "generator specs need positive class counts"),
    ], ids=["unknown-kind", "bayes-zero-count", "twoclouds-negative-count"])
    def test_rejects_bad_dataset_specs(self, spec, message):
        with pytest.raises(ValueError, match=message):
            DatasetSpec(**spec)

    def test_convergence_validation(self):
        with pytest.raises(ValueError):
            ConvergenceSettings(tol=0.0)
        with pytest.raises(ValueError):
            ConvergenceSettings(tail_fraction=1.0)
        with pytest.raises(ValueError):
            ConvergenceSettings(statistic="median")

    def test_asb_never_truncated_by_policy(self):
        settings = ConvergenceSettings(enabled_per_algorithm=(("ASB", True),))
        assert not settings.enabled_for("ASB")
        assert settings.enabled_for("ADA")


class TestRunExperiment:
    def test_record_counts(self):
        store = run_experiment(tiny_config())
        fold_records = [r for r in store.records
                        if r.fold not in (AVG_FOLD, "all")]
        avg_records = [r for r in store.records if r.fold == AVG_FOLD]
        bay_records = [r for r in store.records if r.algorithm == BAYES_REFERENCE]
        # 1 dataset x 2 algorithms x 2 costs x 3 folds, plus averages,
        # plus one whole-set reference row per cost
        assert len(fold_records) == 12
        assert len(avg_records) == 4
        assert len(bay_records) == 2
        assert not store.failures

    def test_nec_recomputable_from_rates(self):
        store = run_experiment(tiny_config())
        for record in store.records:
            assert record.nec == pytest.approx(
                nec(record.rates, record.cost, 0.5), abs=1e-12
            )

    def test_fold_average_is_arithmetic_mean(self):
        store = run_experiment(tiny_config())
        folds = [r for r in store.records
                 if r.algorithm == "ADA" and r.cost == CostPair(1, 5)
                 and r.fold not in (AVG_FOLD, "all")]
        avg = [r for r in store.records
               if r.algorithm == "ADA" and r.cost == CostPair(1, 5)
               and r.fold == AVG_FOLD]
        assert len(folds) == 3 and len(avg) == 1
        assert avg[0].rates.fnr == pytest.approx(np.mean([r.rates.fnr for r in folds]))
        assert avg[0].rates.fpr == pytest.approx(np.mean([r.rates.fpr for r in folds]))
        assert avg[0].nec == pytest.approx(np.mean([r.nec for r in folds]), abs=1e-12)

    def test_effective_rounds_never_exceed_trained(self):
        config = tiny_config(algorithms=("ADA", "ASB"), rounds=30)
        store = run_experiment(config)
        for record in store.records:
            if record.algorithm == BAYES_REFERENCE:
                continue
            assert record.effective_rounds <= record.trained_rounds
            if record.algorithm == "ASB" and record.fold != AVG_FOLD:
                assert record.effective_rounds == record.trained_rounds

    def test_traces_cover_every_cell(self):
        config = tiny_config()
        store = run_experiment(config)
        assert len(store.traces) == 12
        for rows in store.traces.values():
            assert len(rows) == 8  # full round count, untouched by the cutoff

    def test_identical_runs_save_identical_bytes(self, tmp_path):
        config = tiny_config()
        first = run_experiment(config, jobs=1).save(tmp_path / "a")
        second = run_experiment(config, jobs=2).save(tmp_path / "b")
        rec_a = (first / "records.csv").read_bytes()
        rec_b = (second / "records.csv").read_bytes()
        assert rec_a == rec_b
        meta_a = (first / "metadata.json").read_bytes()
        meta_b = (second / "metadata.json").read_bytes()
        assert meta_a == meta_b
        for trace_a in sorted((first / "traces").glob("*.csv")):
            trace_b = second / "traces" / trace_a.name
            assert trace_a.read_bytes() == trace_b.read_bytes()

    def test_cell_failures_are_recorded_not_fatal(self, monkeypatch):
        import costboost.harness as harness

        real = train_ensemble

        def flaky(algorithm, *args, **kwargs):
            if algorithm == "CGA":
                raise RuntimeError("boom")
            return real(algorithm, *args, **kwargs)

        monkeypatch.setattr(harness, "train_ensemble", flaky)
        store = run_experiment(tiny_config())
        assert len(store.failures) == 6  # 2 costs x 3 folds
        assert all(f.algorithm == "CGA" for f in store.failures)
        assert all("boom" in f.message for f in store.failures)
        # the other algorithm is unaffected, including its averages
        assert sum(1 for r in store.records if r.algorithm == "ADA") == 8

    def test_votes_past_the_float_range_fail_the_cell_by_name(self):
        # at equal costs near the float minimum CSA's closed-form alpha
        # leaves the float range, and the staged scores with it
        config = tiny_config(algorithms=("CSA",), rounds=24,
                             costs=((1e-308, 1e-308), (1e-300, 1e-300), (1e-308, 1)))
        store = run_experiment(config)
        assert [(f.cost, f.fold) for f in store.failures] == [
            (CostPair(1e-308, 1e-308), fold) for fold in "012"]
        assert all("CSA votes overflow" in f.message for f in store.failures)
        assert len(store.traces) == 2 * 3  # the other costs train in every fold

    def test_subnormal_costs_complete_every_cell(self):
        # 0.5 * 5e-324 rounds to 0: the PCF once divided 0 by 0 in the bayes
        # reference records, outside any cell, and the sweep died storeless
        costs = ((5e-324, 5e-324), (5e-324, 1e-323), (5e-324, 1))
        datasets = (DatasetSpec(kind="bayes", n_pos=6, n_neg=6),
                    DatasetSpec(kind="twoclouds", n_pos=6, n_neg=6))
        store = run_experiment(tiny_config(datasets=datasets, algorithms=ALGORITHM_IDS,
                                           costs=costs, rounds=6))
        assert not store.failures
        assert len(store.traces) == 2 * 3 * 3 * 12  # datasets x costs x folds x variants
        # the folds and their average per cell, plus one bayes reference per cost
        assert len(store.records) == 2 * 3 * 4 * 12 + 3
        # a 1:2 pair weighs the FNR as 1:2 does, however small its costs
        for record in store.records:
            if record.cost == CostPair(5e-324, 1e-323):
                assert record.nec == nec(record.rates, CostPair(1, 2))

    def test_extreme_costs_complete_and_round_trip(self, tmp_path):
        # every fold once failed here: an underflowed weight met an
        # overflowed exp in the update, and 0 * inf made z NaN
        config = tiny_config(datasets=(DatasetSpec(kind="bayes", n_pos=20, n_neg=20),),
                             algorithms=("CSA",), costs=((1, 10000),), rounds=20)
        store = run_experiment(config)
        assert not store.failures
        assert len(store.traces) == 3  # folds
        assert RunStore.load(store.save(tmp_path / "run")).records == store.records

    @pytest.mark.parametrize("algorithm, costs", [
        ("CGA", ((1e308, 1e308),)),
        ("ASB", ((1e300, 1e-300), (1e-300, 1e300))),
    ], ids=["CGA-sum-overflows", "ASB-ratio-leaves-the-range"])
    def test_costs_past_the_float_range_train_every_fold(self, algorithm, costs):
        # CGA's initial weights sum the costs and ASB's pre-scale divides
        # them; both once overflowed. A RuntimeWarning is an error here
        # (pyproject.toml), so it would fail the cell
        store = run_experiment(tiny_config(algorithms=(algorithm,), costs=costs, rounds=6))
        assert not store.failures
        assert len(store.traces) == 3 * len(costs)  # folds x costs

    @pytest.mark.parametrize("costs, spec, folds, rounds, seed", [
        ((3.4e212, 1e308), DatasetSpec(kind="bayes", n_pos=4, n_neg=6), 3, 5, 70),
        ((6.2e213, 1.5e210), DatasetSpec(kind="bayes", n_pos=6, n_neg=8), 2, 3, 57),
    ], ids=["bayes-4-6-seed-70", "bayes-6-8-seed-57"])
    def test_an_underflowed_weight_update_fails_the_cell_by_name(self, costs, spec, folds,
                                                                  rounds, seed):
        # every update term underflowed, z == 0 passed the finiteness check,
        # and the next round failed as "weights must have a positive total"
        config = ExperimentConfig(datasets=(spec,), algorithms=("CSA",), costs=(costs,),
                                  folds=folds, rounds=rounds, seed=seed)
        store = run_experiment(config)
        assert store.failures
        assert all(f.message.startswith("ValueError('CSA weight update underflows at")
                   for f in store.failures)

    def test_separable_csv_near_the_float_limit_has_zero_error(self, tmp_path):
        # each stump threshold must fall inside the cut the scan scored:
        # a plain midpoint of two values near 1.7e308 overflows
        path = tmp_path / "huge.csv"
        path.write_text("x1,x2,label\n" + "".join(
            f"{v}e308,-{v}e308,{label}\n"
            for label, values in ((0, ("1.20", "1.21", "1.22", "1.23", "1.24", "1.25")),
                                  (1, ("1.65", "1.66", "1.67", "1.68", "1.69", "1.70")))
            for v in values), encoding="utf-8")
        spec = DatasetSpec(kind="csv", name="huge", path=str(path), label_column="label",
                           positive_label="1")
        store = run_experiment(tiny_config(datasets=(spec,), algorithms=("ADA", "CSA"),
                                           costs=((1, 1), (1, 10)), rounds=6))
        assert not store.failures
        average = [r for r in store.records if r.fold == AVG_FOLD]
        assert len(average) == 2 * 2  # algorithms x costs
        assert all(r.rates.ce == 0.0 for r in average)

    def test_per_dataset_rounds_override_the_global_setting(self):
        config = tiny_config(datasets=(DatasetSpec(kind="bayes", n_pos=12, n_neg=12, rounds=3),
                                       DatasetSpec(kind="twoclouds", n_pos=9, n_neg=9)))
        trained = {(r.dataset, r.trained_rounds) for r in run_experiment(config).records
                   if r.algorithm != BAYES_REFERENCE}
        assert trained == {("bayes", 3), ("twoclouds", 8)}

    def test_programming_errors_stop_the_sweep(self, monkeypatch):
        import costboost.harness as harness

        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword")

        monkeypatch.setattr(harness, "train_ensemble", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_experiment(tiny_config())

    @pytest.mark.parametrize("jobs", [0, -1, True, 2.0, "2"])
    def test_rejects_bad_jobs_before_building_data(self, jobs, monkeypatch):
        import costboost.harness as harness

        def unreachable(*args, **kwargs):
            raise AssertionError("a dataset was built")

        monkeypatch.setattr(harness, "_build_dataset", unreachable)
        with pytest.raises(ValueError, match="jobs must be a positive integer"):
            run_experiment(tiny_config(), jobs=jobs)

    def test_label_only_csv_fails_before_training(self, tmp_path, monkeypatch):
        import costboost.harness as harness

        def unreachable(*args, **kwargs):
            raise AssertionError("a cell was trained")

        path = tmp_path / "labels.csv"
        path.write_text("label\n" + "yes\nno\n" * 6, encoding="utf-8")
        spec = DatasetSpec(kind="csv", name="labels", path=str(path),
                           label_column="label", positive_label="yes")
        monkeypatch.setattr(harness, "train_ensemble", unreachable)
        with pytest.raises(ValueError, match="features must be a nonempty 2-D matrix"):
            run_experiment(tiny_config(datasets=(spec,), algorithms=("ADA",), costs=((1, 1),)))

    def test_sorts_each_training_fold_once(self, monkeypatch):
        """One block per (dataset, fold), freed before the next is sorted;
        each split's rows are freed before the next task starts too."""
        import costboost.boosting as boosting
        import costboost.harness as harness
        import costboost.stumps as stumps

        blocks = []
        sort_columns = stumps.sort_columns

        def counted(*args, **kwargs):
            gc.collect()
            assert all(block() is None for block in blocks)
            columns = sort_columns(*args, **kwargs)
            blocks.append(weakref.ref(columns))
            return columns

        splits = []
        run_fold = harness._run_fold

        def tracked(task, *args, **kwargs):
            gc.collect()
            assert all(split() is None for split in splits)
            splits.append(weakref.ref(task[0]))
            return run_fold(task, *args, **kwargs)

        for module in (harness, boosting, stumps):
            monkeypatch.setattr(module, "sort_columns", counted)
        monkeypatch.setattr(harness, "_run_fold", tracked)
        config = tiny_config(datasets=(DatasetSpec(kind="bayes", n_pos=12, n_neg=12),
                                       DatasetSpec(kind="twoclouds", n_pos=9, n_neg=10)),
                             algorithms=("ADA", "AC3", "CSA"))
        store = run_experiment(config)
        assert not store.failures
        assert len(store.traces) == 2 * 3 * 2 * 3  # datasets x algorithms x costs x folds
        assert len(blocks) == len(splits) == 2 * 3  # datasets x folds

    def test_shared_ensembles_give_the_records_of_independent_training(self, monkeypatch):
        """Every variant at every default cost: the sweep, whose cost-blind
        cells share one ensemble per fold, writes what cells trained alone
        write, record for record and trace row for trace row."""
        import costboost.harness as harness

        def alone(*args, columns=None, **kwargs):
            return train_ensemble(*args, **kwargs)

        config = tiny_config(datasets=(DatasetSpec(kind="bayes", n_pos=60, n_neg=60),
                                       DatasetSpec(kind="twoclouds", n_pos=60, n_neg=60)),
                             algorithms=ALGORITHM_IDS, costs=DEFAULT_COST_GRID, folds=2,
                             rounds=6)
        stores = [run_experiment(config)]
        monkeypatch.setattr(harness, "train_ensemble", alone)
        stores.append(run_experiment(config))
        shared, independent = (
            ([(r.dataset, r.algorithm, r.cost, r.fold, r.rates, r.nec, r.effective_rounds,
               r.trained_rounds) for r in store.records], repr(store.traces))
            for store in stores)
        assert not stores[0].failures
        assert len(stores[0].traces) == 2 * 12 * 19 * 2  # datasets x variants x costs x folds
        assert shared == independent

    def test_cost_blind_cells_train_once_per_fold(self, monkeypatch):
        import costboost.boosting as boosting

        calls = []
        boost_round = boosting.boost_round

        def counted(*args, **kwargs):
            calls.append(args[0])
            return boost_round(*args, **kwargs)

        monkeypatch.setattr(boosting, "boost_round", counted)
        store = run_experiment(tiny_config(algorithms=("ADA", "ABT", "CGA"),
                                           costs=((1, 1), (2, 2), (1, 5)), folds=3, rounds=8))
        assert not store.failures
        assert len(store.traces) == 3 * 3 * 3
        # the cells run fold by fold; ADA's first cell of each fold trains
        # for ADA, ABT and CGA at (1, 1) and (2, 2); CGA at (1, 5) starts
        # from other weights
        assert calls == (["ADA"] * 8 + ["CGA"] * 8) * 3

    def test_pool_path_runs_one_task_per_split(self, monkeypatch):
        """``jobs > 1`` through an in-process pool that pickles each task and
        its result the way a worker process would receive and return them."""
        import costboost.boosting as boosting

        tasks, calls = [], []
        boost_round = boosting.boost_round

        def counted(*args, **kwargs):
            calls.append(args[0])
            return boost_round(*args, **kwargs)

        class InProcessPool:
            def __init__(self, max_workers):
                assert max_workers == 2

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable):
                for task in iterable:
                    tasks.append(task)
                    fn_copy, task_copy = pickle.loads(pickle.dumps((fn, task)))
                    yield pickle.loads(pickle.dumps(fn_copy(task_copy)))

        def comparable(store):
            return ([(r.dataset, r.algorithm, r.cost, r.fold, r.rates, r.nec,
                      r.effective_rounds, r.trained_rounds) for r in store.records],
                    repr(store.traces), store.failures, store.config, store.environment)

        config = tiny_config(datasets=(DatasetSpec(kind="bayes", n_pos=12, n_neg=12),
                                       DatasetSpec(kind="twoclouds", n_pos=9, n_neg=10)),
                             algorithms=("ADA", "ABT", "CGA"), costs=((1, 1), (2, 2)))
        alone = run_experiment(config)
        monkeypatch.setattr(boosting, "boost_round", counted)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        pooled = run_experiment(config, jobs=2)
        assert len(tasks) == 2 * 3  # datasets x folds
        # ADA, ABT and CGA at both equal costs share one ensemble per fold
        assert calls == ["ADA"] * 8 * len(tasks)
        assert not pooled.failures
        assert comparable(pooled) == comparable(alone)

    def test_import_leaves_the_process_pool_out(self):
        """Only a sweep on more than one worker imports the pool, and with
        it ``multiprocessing``."""
        src = str(Path(costboost.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, costboost; "
                "print(sorted(m for m in sys.modules if 'multiprocessing' in m))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "[]\n"

    def test_rounds_default_is_dataset_size(self):
        config = tiny_config(rounds="dataset-size", costs=((1, 1),),
                             algorithms=("ADA",))
        store = run_experiment(config)
        trained = {r.trained_rounds for r in store.records
                   if r.algorithm == "ADA"}
        assert trained == {24}


class TestRunStoreRoundTrip:
    def test_save_load_preserves_records_and_traces(self, tmp_path):
        store = run_experiment(tiny_config())
        store.save(tmp_path / "run")
        loaded = RunStore.load(tmp_path / "run")
        assert loaded.records == store.records
        assert loaded.traces == store.traces
        # one form of a cost: the record's own floats, in every trace key
        assert {key[2:4] for key in store.traces} == {(1.0, 1.0), (1.0, 5.0)}

    def test_loaded_records_equal_saved_records(self, tmp_path):
        store = run_experiment(tiny_config())
        assert RunStore.load(store.save(tmp_path / "run")).records == store.records

    def test_failure_messages_load_back_unchanged(self, tmp_path, monkeypatch):
        import costboost.harness as harness

        def broken(*args, **kwargs):
            raise RuntimeError("bad cell, 'quoted' part")

        monkeypatch.setattr(harness, "train_ensemble", broken)
        store = run_experiment(tiny_config(algorithms=("ADA",), costs=((1, 5),)))
        loaded = RunStore.load(store.save(tmp_path / "run"))
        assert loaded.failures == store.failures
        assert loaded.failures[0].message == "RuntimeError(\"bad cell, 'quoted' part\")"

    def test_a_run_with_failures_loads_back_equal(self, tmp_path):
        # the failures once stayed in task order (twoclouds first) while
        # failures.csv listed them sorted, so they loaded back bayes first
        config = tiny_config(datasets=(DatasetSpec(kind="twoclouds", n_pos=12, n_neg=12),
                                       DatasetSpec(kind="bayes", n_pos=12, n_neg=12)),
                             algorithms=("CSA",), costs=((1e-308, 1e-308),), rounds=24)
        store = run_experiment(config)
        assert [(f.dataset, f.fold) for f in store.failures] == [
            (dataset, fold) for dataset in ("bayes", "twoclouds") for fold in "012"]
        assert all("CSA votes overflow" in f.message for f in store.failures)
        assert RunStore.load(store.save(tmp_path / "run")) == store

    def test_saving_a_clean_run_over_a_failed_one_drops_its_failures(self, tmp_path):
        # the failed run's failures.csv once stayed behind and loaded back
        failed = run_experiment(tiny_config(algorithms=("CSA",), costs=((1e-308, 1e-308),),
                                            rounds=24))
        assert len(RunStore.load(failed.save(tmp_path / "run")).failures) == 3  # folds
        clean = run_experiment(tiny_config(algorithms=("ADA",), costs=((1, 1),)))
        loaded = RunStore.load(clean.save(tmp_path / "run"))
        assert not (tmp_path / "run" / "failures.csv").exists()
        assert loaded.failures == [] and loaded.records == clean.records

    def test_saving_over_an_earlier_run_replaces_it(self, tmp_path):
        # the earlier run's traces and reports once stayed beside the new run
        run = tmp_path / "run"
        first = run_experiment(tiny_config(algorithms=("CSA", "ADA"), costs=((1, 10),)))
        emit_report(RunStore.load(first.save(run)), "appendix_tables", run / "reports")
        second = run_experiment(tiny_config(algorithms=("ADA",), costs=((1, 1),)))
        second.save(run)
        assert sorted(p.name for p in (run / "traces").iterdir()) == sorted(
            f"bayes__ADA__cp1.0_cn1.0__fold{fold}.csv" for fold in range(3))
        assert not (run / "reports").exists()
        assert RunStore.load(run).records == second.records

    def test_double_underscore_dataset_name_round_trips(self, tmp_path):
        spec = DatasetSpec(kind="bayes", name="a__b", n_pos=12, n_neg=12)
        store = run_experiment(tiny_config(datasets=(spec,)))
        loaded = RunStore.load(store.save(tmp_path / "run"))
        assert loaded.traces == store.traces
        assert {r.dataset for r in loaded.records} == {"a__b"}

    def test_saved_bytes_match_golden(self, tmp_path):
        """records.csv and trace bytes of the tiny sweep, pinned by sha256."""
        out = run_experiment(tiny_config()).save(tmp_path / "run")
        digests = {path.relative_to(out).as_posix(): sha256(path.read_bytes()).hexdigest()
                   for path in [out / "records.csv", *(out / "traces").glob("*.csv")]}
        assert digests.pop("records.csv") == (
            "32719fdb298975a14d8f760a0fa153a29c06e33fa9e75a563f3cd90dff96f0ec"
        )
        # every training set of this sweep is separable by one stump, so
        # all twelve traces share one content
        assert digests == {
            f"traces/bayes__{alg}__cp1.0_cn{c_neg}__fold{fold}.csv":
                "92a8718bdb60d2c9d330034e62b29331d09843a101f488c303bf33e9c681bc89"
            for alg in ("ADA", "CGA") for c_neg in ("1.0", "5.0") for fold in range(3)
        }

    def test_replay_reproduces_reported_rates(self, tmp_path):
        """Re-running one stored cell from scratch hits the stored numbers."""
        config = tiny_config(algorithms=("CGA",), costs=((1, 5),))
        store = run_experiment(config)
        record = next(r for r in store.records
                      if r.fold == "1" and r.algorithm == "CGA")

        data = gen_bayes(12, 12, seed=_derived_seed(config.seed, 0, 0), name="bayes")
        folds = stratified_kfold(data.labels, 3, _derived_seed(config.seed, 0, 1))
        train = folds.train_indices(1)
        test = folds.test_indices(1)
        classifier, _ = train_ensemble(
            "CGA", data.features[train], data.labels[train], CostPair(1, 5), 8
        )
        scores = decision_scores(classifier, data.features[test],
                                 record.effective_rounds)
        pred = np.where(scores - classifier.decision_threshold >= 0, 1, -1)
        rates = confusion_rates(pred, data.labels[test])
        assert rates.fnr == record.rates.fnr
        assert rates.fpr == record.rates.fpr

    def test_abt_replay_uses_the_truncated_threshold(self):
        """ABT re-searches its threshold on the scores of the truncated ensemble."""
        config = ExperimentConfig(
            datasets=(DatasetSpec(kind="bayes", n_pos=20, n_neg=20),),
            algorithms=("ABT",), costs=((1, 1), (1, 10), (10, 1)), folds=3, rounds=40,
            seed=7,
        )
        store = run_experiment(config)
        data = gen_bayes(20, 20, seed=_derived_seed(config.seed, 0, 0), name="bayes")
        folds = stratified_kfold(data.labels, 3, _derived_seed(config.seed, 0, 1))
        fold_records = [r for r in store.records if r.fold in ("0", "1", "2")]
        assert len(fold_records) == 9
        stale_differs = False
        for record in fold_records:
            train = folds.train_indices(int(record.fold))
            test = folds.test_indices(int(record.fold))
            x_train, y_train = data.features[train], data.labels[train]
            classifier, _ = train_ensemble("ABT", x_train, y_train, record.cost, 40)
            cutoff = record.effective_rounds
            threshold = classifier.decision_threshold
            if cutoff < classifier.trained_rounds:
                threshold = adjust_threshold(decision_scores(classifier, x_train, cutoff),
                                             y_train, record.cost)
            scores = decision_scores(classifier, data.features[test], cutoff)

            def rates_at(cut):
                return confusion_rates(np.where(scores - cut >= 0, 1, -1), data.labels[test])

            rates = rates_at(threshold)
            assert (rates.fnr, rates.fpr) == (record.rates.fnr, record.rates.fpr)
            stale = rates_at(classifier.decision_threshold)
            stale_differs |= (stale.fnr, stale.fpr) != (rates.fnr, rates.fpr)
        # the full-round threshold would have changed at least one stored cell
        assert stale_differs

    def test_sweep_leaves_trained_classifiers_unchanged(self, monkeypatch):
        """Truncation and ABT's re-searched threshold never touch the classifier."""
        import costboost.harness as harness

        kept = []

        def keeping(*args, **kwargs):
            classifier, trace = train_ensemble(*args, **kwargs)
            kept.append((classifier, copy.deepcopy(classifier)))
            return classifier, trace

        monkeypatch.setattr(harness, "train_ensemble", keeping)
        config = ExperimentConfig(
            datasets=(DatasetSpec(kind="bayes", n_pos=20, n_neg=20),),
            algorithms=("ABT",), costs=((1, 1), (1, 10), (10, 1)), folds=3, rounds=40,
            seed=7,
        )
        store = run_experiment(config)
        assert len(kept) == 9
        # the sweep did truncate, so the classifiers had a chance to change
        assert any(r.effective_rounds < r.trained_rounds for r in store.records)
        for classifier, snapshot in kept:
            assert classifier == snapshot


@pytest.fixture(scope="module")
def store():
    return run_experiment(tiny_config(algorithms=("ADA", "CGA", "CSA")))


class TestEmitReport:

    def test_appendix_tables(self, store, tmp_path):
        paths = emit_report(store, "appendix_tables", tmp_path)
        assert len(paths) == 1
        lines = paths[0].read_text().strip().splitlines()
        assert lines[0] == "Cost,Alg,FNR,FPR,CE,NEC"
        # 2 costs x (3 algorithms + 1 reference row)
        assert len(lines) - 1 == 2 * 4
        cells = lines[1].split(",")
        assert cells[0].startswith("[") and len(cells) == 6

    def test_delta_global_dominant_algorithm_is_zero(self, tmp_path):
        store = run_experiment(tiny_config(algorithms=("ADA", "CGA")))
        # overwrite NECs so one algorithm dominates every scenario
        for record in store.records:
            if record.fold == AVG_FOLD:
                object.__setattr__(record, "nec", 0.1 if record.algorithm == "ADA" else 0.4)
        paths = emit_report(store, "delta_global", tmp_path)
        table = {line.split(",")[0]: line.split(",")[1:]
                 for line in paths[0].read_text().strip().splitlines()[1:]}
        assert float(table["ADA"][0]) == 0.0
        assert float(table["ADA"][1]) == 0.0
        assert float(table["CGA"][0]) == pytest.approx(0.3)

    def test_delta_by_cost_shape(self, store, tmp_path):
        paths = emit_report(store, "delta_by_cost", tmp_path)
        lines = paths[0].read_text().strip().splitlines()
        assert lines[0] == "algorithm,c_pos,c_neg,mean,variance"
        assert len(lines) - 1 == 3 * 2  # algorithms x costs

    def test_ca_surface_long_format(self, store, tmp_path):
        paths = emit_report(store, "ca_surface", tmp_path)
        lines = paths[0].read_text().strip().splitlines()
        assert lines[0] == "dataset,algorithm,c_pos,c_neg,round,train_ca"
        # fold-averaged: 3 algorithms x 2 costs x 8 rounds at most
        assert 1 < len(lines) - 1 <= 48
        values = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_ca_surface_skips_rounds_undefined_in_every_fold(self, store, tmp_path):
        nan = float("nan")
        rounds = {"0": [(1, 0.5, 0.9, 0.2, nan), (2, 0.5, 0.9, 0.2, 0.25)],
                  "1": [(1, 0.5, 0.9, 0.2, nan), (2, 0.5, 0.9, 0.2, nan)]}
        undefined = RunStore(records=store.records, traces={
            ("bayes", "ADA", 1.0, 1.0, fold): rows for fold, rows in rounds.items()})
        (path,) = emit_report(undefined, "ca_surface", tmp_path)
        # round 1 is NaN in both folds; round 2 averages only its defined fold
        assert path.read_text().splitlines()[1:] == ["bayes,ADA,1,1,2,0.25"]

    def test_timing_ratios_match_hand_recomputation(self, store, tmp_path):
        grand, by_cost = emit_report(store, "timing", tmp_path)
        per_alg = {}
        for record in store.records:
            if record.fold in (AVG_FOLD, "all"):
                continue
            per_alg.setdefault(record.algorithm, []).append(record.train_seconds)
        means = {alg: np.mean(vals) for alg, vals in per_alg.items()}
        for line in grand.read_text().strip().splitlines()[1:]:
            alg, mean, ratio = line.split(",")
            assert float(mean) == pytest.approx(means[alg], rel=1e-12)
            assert float(ratio) == pytest.approx(means[alg] / means["CGA"], rel=1e-12)
        assert by_cost.read_text().splitlines()[0] == "algorithm,c_pos,c_neg,mean_seconds"

    def test_report_bytes_match_golden(self, tmp_path):
        """Every deterministic report file of a sweep whose rounds do not all clamp."""
        store = run_experiment(tiny_config(
            datasets=(DatasetSpec(kind="twoclouds", n_pos=12, n_neg=12),),
            algorithms=("ADA", "ABT", "CSA", "CGA")))
        written = {kind: emit_report(store, kind, tmp_path / kind) for kind in REPORT_KINDS}
        assert list(written) == ["appendix_tables", "delta_global", "delta_by_cost",
                                 "ca_surface", "timing"]
        assert {kind: [(path.name, path.read_text().splitlines()[0]) for path in paths]
                for kind, paths in written.items()} == {
            "appendix_tables": [("results_twoclouds.csv", "Cost,Alg,FNR,FPR,CE,NEC")],
            "delta_global": [("delta_nec_global.csv", "algorithm,mean,variance"),
                             ("delta_ce_global.csv", "algorithm,mean,variance")],
            "delta_by_cost": [("delta_nec_by_cost.csv", "algorithm,c_pos,c_neg,mean,variance"),
                              ("delta_ce_by_cost.csv", "algorithm,c_pos,c_neg,mean,variance")],
            "ca_surface": [("ca_surface.csv", "dataset,algorithm,c_pos,c_neg,round,train_ca")],
            # wall-clock values: only the file names and headers are pinned
            "timing": [("timing_grand.csv", "algorithm,mean_seconds,ratio_to_cga"),
                       ("timing_by_cost.csv", "algorithm,c_pos,c_neg,mean_seconds")],
        }
        digests = {path.name: sha256(path.read_bytes()).hexdigest()
                   for kind, paths in written.items() if kind != "timing" for path in paths}
        assert digests == {
            "results_twoclouds.csv":
                "d5a098ef0ebbab001cd80d4b63922f10c2f57e133b6caac2545cd2ae9efc5ebd",
            "delta_nec_global.csv":
                "f470b5c7d151a39433bdfccf562d12df249c35c9a7a1c7fdfc4f690be1ddaf37",
            "delta_ce_global.csv":
                "1e32fad209a8a77fd642c2bb44f2dae518a638c94c1e5830f2cc1b6ae0b368f6",
            "delta_nec_by_cost.csv":
                "148c18ab8bfcc375d56bcb129a7f1855572f98174b483d502bfb4ef229a71376",
            "delta_ce_by_cost.csv":
                "c5e0ccd816396b3c55e2c7e20e5056285d2eae8294e279e4f4607bb0b4d03503",
            "ca_surface.csv":
                "7ff41f8aadcf88ae7a56d64f9db2fc96127645743b87a1a3496b1bd87910fb37",
        }

    def test_large_costs_print_in_exponent_form(self, tmp_path):
        # int() once printed 1e23 as 99999999999999991611392 and 1e300 as 301 digits
        store = run_experiment(tiny_config(costs=((1, 1e23), (1e300, 1))))
        assert not store.failures
        columns = {"results_bayes.csv": lambda row: row[0][1:-1].split(";"),
                   "delta_nec_by_cost.csv": lambda row: row[1:3],
                   "delta_ce_by_cost.csv": lambda row: row[1:3],
                   "ca_surface.csv": lambda row: row[2:4],
                   "timing_by_cost.csv": lambda row: row[1:3]}
        printed = {}
        for kind in ("appendix_tables", "delta_by_cost", "ca_surface", "timing"):
            for path in emit_report(store, kind, tmp_path):
                if path.name in columns:
                    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
                    printed[path.name] = {tuple(columns[path.name](row)) for row in rows}
        assert printed == dict.fromkeys(columns, {("1", "1e+23"), ("1e+300", "1")})

    def test_unknown_kind_rejected(self, store, tmp_path):
        with pytest.raises(ValueError):
            emit_report(store, "everything", tmp_path)

    def test_empty_store_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(RunStore(), "timing", tmp_path)
