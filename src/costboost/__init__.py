"""Cost-sensitive boosting with decision stumps.

The package bundles a family of AdaBoost variants that inject
misclassification costs at different points of the boosting loop, the
cost-curve metrics used to compare them (PCF / NEC, per-scenario
deviations, classification asymmetry), synthetic and CSV dataset
handling, and a benchmark harness that sweeps algorithm x dataset x
cost x fold grids into reproducible result stores.
"""

__version__ = "0.1.0"

from .boosting import (
    ALGORITHM_IDS,
    CostPair,
    StrongClassifier,
    TrainingTrace,
    adjust_threshold,
    boost_round,
    decision_scores,
    init_weights,
    solve_csa_alpha,
    train_ensemble,
)
from .datasets import (
    CloudGeometry,
    Dataset,
    FoldAssignment,
    GaussParams,
    bayes_optimal_rates,
    gen_bayes,
    gen_two_clouds,
    load_csv_balanced,
    stratified_kfold,
)
from .harness import (
    DEFAULT_COST_GRID,
    ConvergenceSettings,
    DatasetSpec,
    ExperimentConfig,
    RunStore,
    detect_convergence,
    emit_report,
    run_experiment,
)
from .metrics import (
    ConfusionRates,
    ResultRecord,
    classification_asymmetry,
    conditional_moments,
    confusion_rates,
    delta_table,
    nec,
    pcf,
)
from .stumps import Stump, class_masses, stump_predict, train_stump

__all__ = [
    "ALGORITHM_IDS",
    "DEFAULT_COST_GRID",
    "CloudGeometry",
    "ConfusionRates",
    "ConvergenceSettings",
    "CostPair",
    "Dataset",
    "DatasetSpec",
    "ExperimentConfig",
    "FoldAssignment",
    "GaussParams",
    "ResultRecord",
    "RunStore",
    "StrongClassifier",
    "Stump",
    "TrainingTrace",
    "adjust_threshold",
    "bayes_optimal_rates",
    "boost_round",
    "class_masses",
    "classification_asymmetry",
    "conditional_moments",
    "confusion_rates",
    "decision_scores",
    "delta_table",
    "detect_convergence",
    "emit_report",
    "gen_bayes",
    "gen_two_clouds",
    "init_weights",
    "load_csv_balanced",
    "nec",
    "pcf",
    "run_experiment",
    "solve_csa_alpha",
    "stratified_kfold",
    "stump_predict",
    "train_ensemble",
]
