"""Spans around the calls from one costboost layer into the next.

The program has no tracing of its own, so the benchmark measures each
module from outside: ``patched`` swaps the module attributes through
which one layer calls the next for timing wrappers, and puts every
original back on exit. Spans (name, start, end, parent) stay in memory
until the run ends.
"""

import contextlib
import importlib
import time

import numpy as np

# (module, attribute, span name); the caller looks each attribute up in
# that module at call time, so replacing it there intercepts the call
PATCH_POINTS = (
    ("costboost.harness", "train_ensemble", "boosting.train_ensemble"),
    ("costboost.harness", "detect_convergence", "harness.detect_convergence"),
    ("costboost.harness", "decision_scores", "harness.decision_scores"),
    ("costboost.harness", "gen_bayes", "datasets.build"),
    ("costboost.harness", "gen_two_clouds", "datasets.build"),
    ("costboost.harness", "stratified_kfold", "datasets.build"),
    ("costboost.boosting", "boost_round", "boosting.boost_round"),
    ("costboost.boosting", "train_stump", "stumps.train_stump"),
    ("costboost.boosting", "confusion_rates", "metrics.trace_eval"),
    ("costboost.boosting", "nec", "metrics.trace_eval"),
    ("costboost.boosting", "classification_asymmetry", "metrics.trace_eval"),
)


class Tracer:
    """In-memory span log plus the exact work counters of one traced run."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []
        self.counts = {
            "stumps.train_stump.candidates": 0,
            "boosting.csa.candidates": 0,
            "boosting.rounds_trained": 0,
            "boosting.degenerate_rounds": 0,
        }
        self._csa_features = None
        self._csa_cuts = 0

    def _begin(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._open.append(index)
        return index

    def _end(self, index, start, end):
        self.starts[index] = start
        self.ends[index] = end
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self._begin(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._end(index, start, time.perf_counter())

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span_name = name
            if name == "boosting.boost_round" and args[0] == "CSA":
                span_name = "boosting.boost_round_csa"
            index = self._begin(span_name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index, start, time.perf_counter())
            self._count(span_name, args, result)
            return result

        return traced

    def _count(self, span_name, args, result):
        if span_name == "stumps.train_stump":
            n_samples, n_features = args[0].shape
            self.counts["stumps.train_stump.candidates"] += n_samples * n_features * 2
        elif span_name == "boosting.boost_round_csa":
            self.counts["boosting.csa.candidates"] += self._valid_cuts(args[2])
        elif span_name == "boosting.train_ensemble":
            _classifier, trace = result
            self.counts["boosting.rounds_trained"] += len(trace)
            self.counts["boosting.degenerate_rounds"] += len(trace.degenerate_rounds)

    def _valid_cuts(self, features):
        # one cut below each column's minimum plus one between each pair of
        # distinct sorted values; the matrix is fixed for a whole ensemble,
        # so the count is cached on the array object
        if features is not self._csa_features:
            ordered = np.sort(features, axis=0)
            self._csa_cuts = int(features.shape[1] + np.sum(ordered[1:] > ordered[:-1]))
            self._csa_features = features
        return self._csa_cuts

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                handle.write("%s,%r,%r,%d\n" % row)


@contextlib.contextmanager
def patched(tracer):
    """Route every call in PATCH_POINTS through ``tracer``; restore on exit."""
    saved = []
    try:
        for module_name, attribute, span_name in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


def summarize(names, starts, ends, parents):
    """Per span name: call count, busy seconds, self seconds and durations.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of a tree add up to its root's duration.
    """
    durations = [end - start for start, end in zip(starts, ends)]
    child_time = [0.0] * len(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += durations[index]
    table = {}
    for index, name in enumerate(names):
        entry = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "durations": []})
        entry["calls"] += 1
        entry["busy_s"] += durations[index]
        entry["self_s"] += durations[index] - child_time[index]
        entry["durations"].append(durations[index])
    return table
