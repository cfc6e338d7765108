"""Generated configs hold the validator's promise: every config that
``ExperimentConfig.from_dict`` accepts runs to completion, fails a cell
only by a named numeric limit, and round-trips through its run
directory."""

import math
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from costboost.boosting import ALGORITHM_IDS
from costboost.harness import DEVIATION_STATISTICS, ExperimentConfig, RunStore, run_experiment

# costs that once failed or mangled a cell, or sit at the float range's ends
NAMED_COSTS = (5e-324, 1e-308, 1e-300, 1.0, 1e4, 1.5e210, 3.4e212, 6.2e213, 1e300, 1e308,
               sys.float_info.max)
NAMED_COST_PAIRS = ((3.4e212, 1e308), (6.2e213, 1.5e210), (1e308, 1e308), (1e300, 1e-300),
                    (1e-300, 1e300), (1e-308, 1e-308), (1, 1e4), (5e-324, 5e-324),
                    (5e-324, 1e-323))
# values near the float limit, and small ones that tie with each other
CSV_VALUES = (0.0, 1.0, -1.0, 0.5, 1.7e308, -1.7e308, 1.69e308, -1.69e308,
              sys.float_info.max, -sys.float_info.max)
FAILURE_FAMILIES = re.compile(
    r"^ValueError\('[A-Z0-9]+ (weight update overflows|weight update underflows|votes overflow)"
    r" at CostPair\(")

log_uniform = st.floats(math.log(1e-308), math.log(sys.float_info.max)).map(
    lambda log: min(math.exp(log), sys.float_info.max))
cost = st.one_of(st.sampled_from(NAMED_COSTS), log_uniform)
# a repeated pair is dropped, not the draw
cost_pairs = st.lists(st.one_of(st.sampled_from(NAMED_COST_PAIRS), st.tuples(cost, cost)),
                      min_size=1, max_size=2).map(lambda pairs: list(dict.fromkeys(pairs)))


@st.composite
def csv_rows(draw, n_rows):
    """Feature rows of a CSV set: some columns constant, rows drawn from a
    few prototypes so that duplicates occur."""
    width = draw(st.integers(1, 3))
    value = st.one_of(st.sampled_from(CSV_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False))
    constant = draw(st.lists(st.one_of(st.none(), value), min_size=width, max_size=width))
    prototypes = draw(st.lists(st.lists(value, min_size=width, max_size=width),
                               min_size=1, max_size=n_rows))
    picks = draw(st.lists(st.integers(0, len(prototypes) - 1), min_size=n_rows,
                          max_size=n_rows))
    return [[fixed if fixed is not None else prototypes[pick][column]
             for column, fixed in enumerate(constant)] for pick in picks]


@st.composite
def dataset(draw, index, folds, folder):
    kind = draw(st.sampled_from(("bayes", "twoclouds", "csv")))
    n_pos, n_neg = draw(st.integers(folds, 6)), draw(st.integers(folds, 6))
    spec = {"kind": kind, "name": f"set{index}"}
    if kind == "csv":
        rows = draw(csv_rows(n_pos + n_neg))
        labels = [1] * n_pos + [0] * n_neg
        path = Path(folder) / f"set{index}.csv"
        path.write_text(
            "label," + ",".join(f"x{i}" for i in range(len(rows[0]))) + "\n"
            + "".join(f"{label}," + ",".join(map(repr, row)) + "\n"
                      for label, row in zip(labels, rows)), encoding="utf-8")
        spec.update(path=str(path), label_column="label", positive_label="1")
    else:
        spec.update(n_pos=n_pos, n_neg=n_neg)
    if draw(st.booleans()):
        spec["rounds"] = draw(st.integers(1, 8))
    return spec


@st.composite
def raw_config(draw, folder):
    folds = draw(st.integers(2, 3))
    datasets = [draw(dataset(index, folds, folder)) for index in range(draw(st.integers(1, 2)))]
    return {
        "datasets": datasets,
        "algorithms": draw(st.permutations(ALGORITHM_IDS))[:draw(st.integers(1, 4))],
        "costs": [list(pair) for pair in draw(cost_pairs)],
        "folds": folds,
        "rounds": draw(st.integers(1, 8)),
        "seed": draw(st.integers(0, 2**16)),
        "convergence": {"statistic": draw(st.sampled_from(DEVIATION_STATISTICS)),
                        "tol": draw(st.sampled_from((1e-6, 1e-3, 0.1))),
                        "tail_fraction": draw(st.sampled_from((0.1, 0.5)))},
    }


def comparable(store):
    """The store as built, its traces sorted and spelled out by ``repr``: a
    NaN asymmetry never equals itself, though it loads back as the NaN saved."""
    return (store.records, repr(sorted(store.traces.items())), store.failures,
            store.config, store.environment)


@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_accepted_configs_complete_and_round_trip(data):
    with tempfile.TemporaryDirectory() as folder:
        config = ExperimentConfig.from_dict(data.draw(raw_config(folder)))
        store = run_experiment(config)  # RuntimeWarnings are errors (pyproject.toml)
        for failure in store.failures:
            assert FAILURE_FAMILIES.match(failure.message), failure.message
        loaded = RunStore.load(store.save(Path(folder) / "run"))
        assert comparable(loaded) == comparable(store)
