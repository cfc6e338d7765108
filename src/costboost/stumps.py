"""Decision stumps trained on weighted samples.

A stump thresholds a single feature: the prediction is ``polarity`` for
feature values strictly greater than ``threshold`` and ``-polarity``
otherwise. Training searches every feature, every midpoint between
consecutive distinct sorted values plus one threshold below the minimum
(so a feature can also cast a constant vote), and both polarities.

Ties are broken deterministically: lowest weighted error, then lowest
feature index, then lowest threshold, then polarity +1.

The columns are sorted once per ensemble: ``sort_columns`` validates a
training set and builds its ``SortedColumns`` block, and every round's
``_candidates`` scans that block with the round's weights, giving the
one (4, cuts) class-mass block, rows b_p, d_p, b_n, d_n, that both
stump selectors read: ``train_stump`` here and CSA in ``boosting``.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Stump",
    "ClassMasses",
    "SortedColumns",
    "sort_columns",
    "train_stump",
    "stump_predict",
    "class_masses",
    "candidate_thresholds",
]


@dataclass(frozen=True)
class Stump:
    feature_index: int
    threshold: float
    polarity: int  # +1 or -1


@dataclass(frozen=True)
class ClassMasses:
    """Weight mass split by (class, correctness) for one stump.

    b_p / d_p: correctly / incorrectly classified positive mass;
    b_n / d_n: same for negatives. Sums to 1 for normalized weights.
    """

    b_p: float
    d_p: float
    b_n: float
    d_n: float

    def total(self) -> float:
        return self.b_p + self.d_p + self.b_n + self.d_n


def check_weights(weights) -> np.ndarray:
    """Validate a sample-weight vector; returns it as a float array."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a nonempty 1-D array")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights contain non-finite entries")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    return weights


def _check_features_labels(features, labels):
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0 or features.shape[1] == 0:
        raise ValueError("features must be a nonempty 2-D matrix")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite entries")
    labels = np.asarray(labels)
    if labels.shape != (features.shape[0],):
        raise ValueError("labels must have one entry per sample")
    if not np.all(np.isin(labels, (-1, 1))):
        raise ValueError("labels must be -1 or +1")
    return features, labels


def _selection_mass(weights, multiplier, n_samples) -> np.ndarray:
    """``weights`` times ``multiplier`` (1 when omitted), validated."""
    weights = check_weights(weights)
    if weights.shape != (n_samples,):
        raise ValueError("weights must have one entry per sample")
    if multiplier is None:
        return weights
    multiplier = np.asarray(multiplier, dtype=float)
    if multiplier.shape != (n_samples,):
        raise ValueError("multiplier must have one entry per sample")
    if np.any(multiplier < 0) or not np.all(np.isfinite(multiplier)):
        raise ValueError("multiplier must be nonnegative and finite")
    return weights * multiplier


def candidate_thresholds(values) -> np.ndarray:
    """Threshold candidates for one feature column.

    Midpoints of consecutive distinct sorted values, preceded by one
    threshold below the minimum so the stump can vote constantly.
    """
    distinct = np.unique(np.asarray(values, dtype=float))
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate(([distinct[0] - 1.0], mids))


@dataclass(frozen=True, eq=False)
class SortedColumns:
    """Pre-sorted column block of one training set, built by ``sort_columns``.

    Row f of ``order`` is the stable sort order of feature column f and
    row f of ``xs`` its sorted values; ``positive`` marks the sorted
    samples of class +1, every other sample is a negative. Cut b of a
    column splits its sorted values between index b-1 and b (b = 0 lies
    below the minimum); a cut between equal values is not a candidate.
    ``below`` holds, for each valid cut in (feature, threshold) order, the
    flat index f * (n + 1) + b into a (features, samples + 1) table of the
    class mass below each cut, and ``feature`` its feature. The arrays are
    read-only.
    """

    order: np.ndarray
    xs: np.ndarray
    positive: np.ndarray
    below: np.ndarray
    feature: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.xs.shape[1]


def sort_columns(features, labels) -> SortedColumns:
    """Validate a training set and sort each of its columns once."""
    features, labels = _check_features_labels(features, labels)
    order = np.argsort(features.T, axis=1, kind="stable")
    xs = np.take_along_axis(features.T, order, axis=1)
    positive = (labels > 0)[order]
    valid = np.ones(xs.shape, dtype=bool)
    np.greater(xs[:, 1:], xs[:, :-1], out=valid[:, 1:])
    feature, cut = np.nonzero(valid)
    columns = SortedColumns(order, xs, positive, feature * (xs.shape[1] + 1) + cut, feature)
    for array in vars(columns).values():
        array.setflags(write=False)
    return columns


def _candidates(columns: SortedColumns, weights, multiplier=None):
    """Polarity +1 class masses of every valid cut of ``columns``.

    The selection mass is ``weights`` times ``multiplier`` (1 when
    omitted). Returns the block of rows b_p, d_p, b_n, d_n over the valid
    cuts in (feature, threshold) order: the polarity +1 stump errs on the
    positives at or below the cut and the negatives above; -1 swaps b, d.
    """
    mass = _selection_mass(weights, multiplier, columns.n_samples)[columns.order]
    # column b holds the class mass below cut b; the last column the total
    pos_below, neg_below = np.zeros((2, mass.shape[0], mass.shape[1] + 1))
    np.cumsum(np.where(columns.positive, mass, 0.0), axis=1, out=pos_below[:, 1:])
    np.cumsum(np.where(columns.positive, 0.0, mass), axis=1, out=neg_below[:, 1:])
    masses = np.empty((4, columns.below.size))
    b_p, d_p, b_n, d_n = masses
    # the indices are valid: "clip" spares the copy "raise" makes of ``out``
    pos_below.take(columns.below, out=d_p, mode="clip")
    neg_below.take(columns.below, out=b_n, mode="clip")
    np.subtract(pos_below[:, -1][columns.feature], d_p, out=b_p)
    np.subtract(neg_below[:, -1][columns.feature], b_n, out=d_n)
    return masses


def _cut_stump(columns: SortedColumns, j, polarity) -> Stump:
    """Stump of the given polarity at valid cut j of ``columns``."""
    f = int(columns.feature[j])
    b = int(columns.below[j]) - f * (columns.n_samples + 1)
    xs = columns.xs[f]
    threshold = xs[0] - 1.0 if b == 0 else (xs[b - 1] + xs[b]) / 2.0
    return Stump(feature_index=f, threshold=float(threshold), polarity=polarity)


def train_stump(features, labels, weights, per_sample_multiplier=None, *,
                columns: SortedColumns | None = None) -> Stump:
    """Exhaustively select the stump minimizing the weighted error.

    The objective is sum_i m_i * w_i * [h(x_i) != y_i] with m_i given by
    ``per_sample_multiplier`` (1 when omitted). The scan is one
    vectorized pass over all (feature, cut, polarity) candidates built
    from per-feature cumulative sums; deterministic for fixed inputs.
    ``columns`` is ``sort_columns(features, labels)``, built here when
    omitted.
    """
    if columns is None:
        columns = sort_columns(features, labels)
    b_p, d_p, b_n, d_n = _candidates(columns, weights, per_sample_multiplier)
    # flat order (feature, threshold, polarity +1 first): the first
    # minimum realizes the tie-break
    errs = np.empty((b_p.size, 2))
    np.add(d_p, d_n, out=errs[:, 0])
    np.add(b_n, b_p, out=errs[:, 1])
    j, minus = divmod(int(np.argmin(errs)), 2)
    return _cut_stump(columns, j, -1 if minus else 1)


def stump_predict(stump: Stump, features_row) -> int:
    """Predict one sample: polarity if value > threshold, else -polarity."""
    value = np.asarray(features_row, dtype=float)[stump.feature_index]
    return stump.polarity if value > stump.threshold else -stump.polarity


def predict_matrix(stump: Stump, features) -> np.ndarray:
    """Vectorized stump predictions (one +/-1 per row of ``features``)."""
    column = np.asarray(features, dtype=float)[:, stump.feature_index]
    return np.where(column > stump.threshold, stump.polarity, -stump.polarity)


def class_masses(stump: Stump, features, labels, weights) -> ClassMasses:
    """Partition the weight mass of a stump by (class, correctness)."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    weights = check_weights(weights)
    pred = predict_matrix(stump, features)
    correct = pred == labels
    pos = labels > 0
    return ClassMasses(
        b_p=float(np.sum(weights[correct & pos])),
        d_p=float(np.sum(weights[~correct & pos])),
        b_n=float(np.sum(weights[correct & ~pos])),
        d_n=float(np.sum(weights[~correct & ~pos])),
    )
