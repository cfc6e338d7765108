"""Decision stumps trained on weighted samples.

A stump thresholds a single feature: the prediction is ``polarity`` for
feature values strictly greater than ``threshold`` and ``-polarity``
otherwise. Training searches every feature, every cut between
consecutive distinct sorted values plus one below the minimum (so a
feature can also cast a constant vote), and both polarities. A cut's
threshold lies in [lower, upper) of its two sorted values: their
midpoint, or the float below the upper one where that rounds onto it.

Ties are broken deterministically: lowest weighted error, then lowest
feature index, then lowest threshold, then polarity +1.

The columns are sorted once per training set: ``sort_columns`` validates
it and builds its ``SortedColumns`` block, and ``scan_workspace`` wraps
that block with the buffers its scans write, one ``ScanWorkspace`` per
ensemble. Every round's ``_candidates`` scans the workspace's block with
the round's weights, giving the one (4, cuts) class-mass block, rows
b_p, d_p, b_n, d_n, that both stump selectors read: ``train_stump`` here
and CSA in ``boosting``.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Stump",
    "ClassMasses",
    "SortedColumns",
    "ScanWorkspace",
    "sort_columns",
    "scan_workspace",
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


def _selection_mass(weights, multiplier, out) -> None:
    """Validate ``weights`` and ``multiplier`` (1 when omitted), one entry
    per entry of ``out``, and write their product into ``out``."""
    weights = check_weights(weights)
    if weights.shape != out.shape:
        raise ValueError("weights must have one entry per sample")
    if multiplier is None:
        out[:] = weights
        return
    multiplier = np.asarray(multiplier, dtype=float)
    if multiplier.shape != out.shape:
        raise ValueError("multiplier must have one entry per sample")
    if np.any(multiplier < 0) or not np.all(np.isfinite(multiplier)):
        raise ValueError("multiplier must be nonnegative and finite")
    np.multiply(weights, multiplier, out=out)


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
    row f of ``xs`` its sorted values; ``classes`` (2, features, samples)
    marks the sorted samples of class +1 in row 0 and the others, the
    negatives, in row 1. Cut b of a column splits its sorted values
    between index b-1 and b (b = 0 lies below the minimum); a cut between
    equal values is not a candidate. ``below`` holds, for each valid cut
    in (feature, threshold) order, the flat index f * (n + 1) + b into a
    (features, samples + 1) table of the class mass below each cut. The
    arrays are read-only.
    """

    order: np.ndarray
    xs: np.ndarray
    classes: np.ndarray
    below: np.ndarray

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
    columns = SortedColumns(order, xs, np.stack((positive, ~positive)),
                            feature * (xs.shape[1] + 1) + cut)
    for array in vars(columns).values():
        array.setflags(write=False)
    return columns


@dataclass(frozen=True, eq=False)
class ScanWorkspace:
    """The ``SortedColumns`` block ``columns`` and the buffers a scan of it
    writes, built by ``scan_workspace``: views of ``block``, one allocation.

    ``mass`` holds the selection masses and ``sides`` them in each
    column's order, split by class. ``below`` and ``above`` are the
    (2, features, samples + 1) class mass below and above each cut,
    ``masses`` the (4, cuts) block ``_candidates`` returns and ``errs``
    the (cuts, 2) errors of ``train_stump``. A scan is done with
    ``sides`` once ``below`` is summed and with ``above`` once
    ``masses`` is filled, so the three share one memory.
    """

    columns: SortedColumns
    block: np.ndarray
    mass: np.ndarray
    sides: np.ndarray
    below: np.ndarray
    above: np.ndarray
    masses: np.ndarray
    errs: np.ndarray


def scan_workspace(columns: SortedColumns) -> ScanWorkspace:
    """One workspace for the scans of ``columns``, its zeros in place."""
    f, n = columns.xs.shape
    cuts = columns.below.size
    shapes = ((n,), (2, f, n + 1), (2, f, n + 1), (4, cuts))
    sizes = [int(np.prod(shape)) for shape in shapes]
    block = np.empty(sum(sizes))
    mass, below, above, masses = (part.reshape(shape) for part, shape
                                  in zip(np.split(block, np.cumsum(sizes)[:-1]), shapes))
    below[:, :, 0] = 0.0
    # each column has at most n valid cuts: cuts <= f * n
    shared = above.reshape(-1)
    return ScanWorkspace(columns, block, mass, shared[:2 * f * n].reshape(2, f, n), below,
                         above, masses, shared[:2 * cuts].reshape(cuts, 2))


def _candidates(work: ScanWorkspace, weights, multiplier=None):
    """Polarity +1 class masses of every valid cut of ``work.columns``.

    The selection mass is ``weights`` times ``multiplier`` (1 when
    omitted). Returns the block of rows b_p, d_p, b_n, d_n over the valid
    cuts in (feature, threshold) order: the polarity +1 stump errs on the
    positives at or below the cut and the negatives above; -1 swaps b, d.
    The block lives in ``work`` until its next scan.
    """
    columns = work.columns
    _selection_mass(weights, multiplier, work.mass)
    # the indices are valid: "clip" spares the copy "raise" makes of ``out``
    positives, negatives = work.sides
    np.take(work.mass, columns.order, out=positives, mode="clip")
    np.multiply(positives, columns.classes[1], out=negatives)
    np.multiply(positives, columns.classes[0], out=positives)
    # column b holds the class mass below cut b; the last column the total
    below, above, masses = work.below, work.above, work.masses
    np.cumsum(work.sides, axis=2, out=below[:, :, 1:])
    np.subtract(below[:, :, -1:], below, out=above)
    # rows d_p and b_n lie below the cut, b_p and d_n above it
    np.take(below.reshape(2, -1), columns.below, axis=1, out=masses[1:3], mode="clip")
    np.take(above[0].reshape(-1), columns.below, out=masses[0], mode="clip")
    np.take(above[1].reshape(-1), columns.below, out=masses[3], mode="clip")
    return masses


def _cut_stump(columns: SortedColumns, j, polarity) -> Stump:
    """Stump of the given polarity at valid cut j of ``columns``. Its
    threshold lies in [xs[b-1], xs[b]), below xs[0] for b = 0: summed
    halves cannot overflow, and where the midpoint or xs[0] - 1 rounds
    onto xs[b] the next float down stands in."""
    f, b = divmod(int(columns.below[j]), columns.n_samples + 1)
    xs = columns.xs[f]
    threshold = xs[0] - 1.0 if b == 0 else xs[b - 1] / 2.0 + xs[b] / 2.0
    if not threshold < xs[b]:
        with np.errstate(over="ignore"):  # below -max lies only -inf
            threshold = np.nextafter(xs[b], -np.inf)
    return Stump(feature_index=f, threshold=float(threshold), polarity=polarity)


def train_stump(features, labels, weights, per_sample_multiplier=None, *,
                work: ScanWorkspace | None = None) -> Stump:
    """Exhaustively select the stump minimizing the weighted error.

    The objective is sum_i m_i * w_i * [h(x_i) != y_i] with m_i given by
    ``per_sample_multiplier`` (1 when omitted). The scan is one
    vectorized pass over all (feature, cut, polarity) candidates built
    from per-feature cumulative sums; deterministic for fixed inputs.
    ``work`` is ``scan_workspace(sort_columns(features, labels))``, built
    here when omitted.
    """
    if work is None:
        work = scan_workspace(sort_columns(features, labels))
    b_p, d_p, b_n, d_n = _candidates(work, weights, per_sample_multiplier)
    # flat order (feature, threshold, polarity +1 first): the first
    # minimum realizes the tie-break
    errs = work.errs
    np.add(d_p, d_n, out=errs[:, 0])
    np.add(b_n, b_p, out=errs[:, 1])
    j, minus = divmod(int(np.argmin(errs)), 2)
    return _cut_stump(work.columns, j, -1 if minus else 1)


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
