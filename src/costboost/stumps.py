"""Decision stumps trained on weighted samples.

A stump thresholds a single feature: the prediction is ``polarity`` for
feature values strictly greater than ``threshold`` and ``-polarity``
otherwise. Training searches every feature, every cut between
consecutive distinct sorted values plus one below the minimum (so a
feature can also cast a constant vote), and both polarities. One rule,
``_thresholds``, places every cut's threshold in [lower, upper) of its
two sorted values: their midpoint, or the float below the upper one where
that rounds onto it.

Ties are broken deterministically: lowest weighted error, then lowest
feature index, then lowest threshold, then polarity +1.

The columns are sorted once per training set: ``sort_columns`` validates
it and returns its one ``SortedColumns`` handle, which holds the
threshold of every cut, the buffers its scans write, the ensembles
trained on it and its picks. Every pick, ``train_stump``'s and CSA's in
``boosting``, goes through ``_pick``: it writes the round's selection
mass into those buffers and returns the pick the handle keeps for the
mass's bytes, scanning only a mass it lacks. A scan is ``_sum``, which
sums the mass into one table of the class masses on each side of every
cut of every column: each column's two class lanes are summed as the two
components of one complex cumulative sum, one gather spreads the lane
sums back to every cut, and one subtract takes the mass above from the
column's total. A cut between equal values reads the sums of the valid
cut that opens its run, so every column of the table is a stump's:
``train_stump`` scores the whole table, and ``_class_block`` gathers its
valid cuts into the (4, cuts) class-mass block, rows b_p, d_p, b_n, d_n,
that CSA reads.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Stump",
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


def check_weights(weights) -> np.ndarray:
    """Validate a sample-weight vector; returns it as a float array."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a nonempty 1-D array")
    # one pass each, and NaN fails both; only a failure runs the checks
    # below, which name the fault
    if np.minimum.reduce(weights) >= 0 and np.maximum.reduce(weights) < np.inf:
        return weights
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
    per entry of ``out``, and write their product into ``out``, a -0
    product as +0 (-0 + 0 is +0)."""
    weights = check_weights(weights)
    if weights.shape != out.shape:
        raise ValueError("weights must have one entry per sample")
    if multiplier is None:
        np.add(weights, 0.0, out=out)
        return
    multiplier = np.asarray(multiplier, dtype=float)
    if multiplier.shape != out.shape:
        raise ValueError("multiplier must have one entry per sample")
    if np.any(multiplier < 0) or not np.all(np.isfinite(multiplier)):
        raise ValueError("multiplier must be nonnegative and finite")
    np.multiply(weights, multiplier, out=out)
    np.add(out, 0.0, out=out)


def _thresholds(xs) -> np.ndarray:
    """The one rule that places a cut's threshold: the threshold of every
    cut b < n of each row of ``xs``, n values sorted along its last axis.

    Cut b lies in [xs[b-1], xs[b]), cut 0 below xs[0]. Its threshold is
    xs[b-1]/2 + xs[b]/2, which cannot overflow, or xs[0] - 1 for cut 0;
    where that rounds onto xs[b], the next float down stands in.
    """
    halves = xs / 2.0
    cuts = np.empty_like(halves)
    cuts[..., 0] = xs[..., 0] - 1.0
    np.add(halves[..., :-1], halves[..., 1:], out=cuts[..., 1:])
    with np.errstate(over="ignore"):  # below -max lies only -inf
        np.nextafter(xs, -np.inf, out=cuts, where=cuts >= xs)
    return cuts


def candidate_thresholds(values) -> np.ndarray:
    """The thresholds ``train_stump`` can pick on one feature column.

    ``_thresholds`` of its distinct sorted values: one below the minimum,
    so the stump can vote constantly, then one between each two.
    """
    return _thresholds(np.unique(np.asarray(values, dtype=float)))


@dataclass(frozen=True, eq=False)
class SortedColumns:
    """One training set, built by ``sort_columns``: the thresholds of its
    columns' cuts, placed once, the buffers its scans write, the ensembles
    trained on it and its picks.

    Cut b of feature column f splits its values, sorted stably, between
    index b-1 and b (b = 0 lies below the minimum); a cut between equal
    values, or above the maximum (b = n), is not a candidate.
    ``thresholds`` (features, samples) holds the threshold ``_thresholds``
    places at each cut b < n. ``below`` holds, for each valid cut in
    (feature, threshold) order, the flat index f * (n + 1) + b into the
    (features, samples + 1) rows of ``table``.

    Each column is split by class into two lanes, m long, m the larger
    class count: ``lanes`` (features, m, 2) lists the samples of class +1
    in lane 0 and the others, the negatives, in lane 1, each in the
    column's sorted order, the shorter lane padded with index n.
    ``spread`` (2, features, samples + 1) holds, for every cut, the flat
    index into the (features, m + 1, 2) lane sums of the positive (row
    0) and the negative (row 1) mass below it; a cut between equal values
    holds the indices of the valid cut that opens its run. These fields
    are read-only views: numpy's ``take`` copies an index that is not
    writeable on every call, so the scans gather through the writeable
    arrays behind the index fields, ``lanes.base``, ``spread.base`` and
    ``below.base``, which no field holds.

    The scan buffers are views of one allocation, ``mass.base``. ``mass``
    holds the selection masses and a 0 at index n. ``sides`` (features,
    m, 2) holds them gathered into the lanes and ``sums`` (features, m +
    1, 2) each lane's running sums after a row of 0s, which every scan
    writes again. ``lane_sides`` and ``lane_sums`` are their complex views,
    ``lane_sums`` from row 1 on, so one complex ``cumsum`` sums both lanes,
    a lane per component. ``table`` (4, features, samples + 1) holds, for
    every cut, the class masses of the polarity +1 stump there in rows
    b_p, d_p, b_n, d_n: rows 1 and 2 are the positive and the negative
    mass below the cut, spread from ``sums``, rows 0 and 3 the masses
    above it, so cut n holds (0, P, N, 0), P and N the class totals, and
    a cut between equal values the column of its run's valid first cut.
    The polarity -1 stump swaps b and d. ``train_stump`` adds rows 2 and 3
    into rows 0 and 1 in place, giving each cut's weighted error.
    ``masses`` is the (4, cuts) block ``_class_block`` returns. A scan is
    done with ``sides`` once ``sums`` is summed and with ``sums`` once
    rows 1 and 2 are spread, so ``sides`` lies in rows 1 and 2 and the
    tail of ``sums`` is row 0.

    The sums carry the bits of a per-class cumulative sum over each
    whole sorted column, the other class's samples counted as 0: each
    lane adds the same masses in the same order, and those zeros change
    no sum, as x + 0 = x for every x >= +0 (the scan stores a -0 mass as
    +0). Complex addition is the IEEE addition of each component.

    ``ensembles`` maps (initial-weight bytes, rounds) to the rounds of
    each cost-blind ensemble ``boosting.train_ensemble`` trained on this set.
    ``picks`` holds the picks made on this set, each under the key
    ``_pick`` gives it; ``boosting.train_ensemble`` leaves at most one per
    ensemble, through ``_forget_picks``.
    """

    thresholds: np.ndarray
    lanes: np.ndarray
    spread: np.ndarray
    below: np.ndarray
    mass: np.ndarray
    sides: np.ndarray
    sums: np.ndarray
    lane_sides: np.ndarray
    lane_sums: np.ndarray
    table: np.ndarray
    masses: np.ndarray
    ensembles: dict
    picks: dict


def sort_columns(features, labels) -> SortedColumns:
    """Validate a training set, sort each of its columns once, place the
    threshold of each of their cuts and allocate the buffers its scans
    write, their zeros in place."""
    features, labels = _check_features_labels(features, labels)
    order = np.argsort(features.T, axis=1, kind="stable")
    xs = np.take_along_axis(features.T, order, axis=1)
    f, n = xs.shape
    valid = np.zeros((f, n + 1), dtype=bool)
    valid[:, 0] = True
    np.greater(xs[:, 1:], xs[:, :-1], out=valid[:, 1:n])
    thresholds = _thresholds(xs)
    del xs  # freed before the lanes are built, so the sort's peak memory holds
    # copied, as flatnonzero's result views a larger array: each field's
    # base is then the writeable array of its shape that the scans gather through
    below = np.flatnonzero(valid).copy()
    valid[:, n] = True  # cut n keeps its own sums, the column's totals
    positive = (labels > 0)[order]
    p = int(np.count_nonzero(labels > 0))
    m = max(p, n - p)
    lanes = np.full((f, m, 2), n, dtype=np.intp)
    lanes[:, :p, 0] = np.compress(positive.reshape(-1), order).reshape(f, p)
    lanes[:, :n - p, 1] = np.compress(~positive.reshape(-1), order).reshape(f, n - p)
    # cut b of column f has c positives below it and b - c negatives: its
    # lane sums lie at flat index 2c and 2(b - c) + 1 past column f's start.
    # Both only grow along a column, so zeroing them at the invalid cuts and
    # taking the running max gives each of those its run's valid first cut
    spread = np.empty((2, f, n + 1), dtype=np.intp)
    spread[0, :, 0] = 0
    np.cumsum(positive, axis=1, out=spread[0, :, 1:])
    np.left_shift(spread[0], 1, out=spread[0])
    np.subtract(np.arange(1, 2 * n + 3, 2), spread[0], out=spread[1])
    np.multiply(spread, valid, out=spread)
    np.maximum.accumulate(spread, axis=2, out=spread)
    spread += np.arange(0, f * 2 * (m + 1), 2 * (m + 1))[:, None]
    sort = tuple(array.view() for array in (thresholds, lanes, spread, below))
    for array in sort:
        array.setflags(write=False)
    # one allocation: mass, then sums, whose last f(n + 1) floats are table
    # row 0, then table rows 1-3, then masses. It is allocated as complex
    # and sums and row 1 start at an even offset, so both, and sides in
    # row 1, start 16-byte aligned for a complex view
    cells, summed = f * (n + 1), f * (m + 1) * 2
    start = n + 1 + (n + 1) % 2
    ends = np.cumsum((start, summed - cells, 4 * cells, 4 * below.size))
    block = np.empty((ends[-1] + 1) // 2, dtype=complex).view(float)
    mass, _, table, masses, _ = np.split(block, ends)
    mass[n:] = 0.0
    sums = block[start:start + summed].reshape(f, m + 1, 2)
    table = table.reshape(4, f, n + 1)
    sides = table[1:3].reshape(-1)[:f * m * 2].reshape(f, m, 2)
    return SortedColumns(*sort, mass[:n + 1], sides, sums, sides.view(complex)[..., 0],
                         sums[:, 1:].view(complex)[..., 0], table, masses.reshape(4, -1), {}, {})


def _sum(columns: SortedColumns):
    """Fill ``columns.table`` for the selection mass in ``columns.mass``
    and return it."""
    sums, table = columns.sums, columns.table
    # the indices are valid: "clip" spares the copy "raise" makes of ``out``,
    # and gathering through the writeable base the copy of the index
    np.take(columns.mass, columns.lanes.base, out=columns.sides, mode="clip")
    np.cumsum(columns.lane_sides, axis=1, out=columns.lane_sums)
    sums[:, 0] = 0.0  # row 0 of the table overwrote them
    # rows d_p and b_n, the mass below; then b_p and d_n, the total (cut n) minus it
    np.take(sums, columns.spread.base, out=table[1:3], mode="clip")
    np.subtract(table[1:3, :, -1:], table[1:3], out=table[::3])
    return table


def _class_block(columns: SortedColumns):
    """Polarity +1 class masses of every valid cut for the selection mass
    in ``columns.mass``: rows b_p, d_p, b_n, d_n over the valid cuts in
    (feature, threshold) order, ``columns.table``'s columns at
    ``columns.below``, in ``columns.masses`` until the next scan. The
    polarity +1 stump errs on the positives at or below the cut and the
    negatives above; -1 swaps b, d."""
    # through the writeable base, as in ``_sum``
    return np.take(_sum(columns).reshape(4, -1), columns.below.base, axis=1,
                   out=columns.masses, mode="clip")


def _check_class_totals(masses) -> None:
    """Raise where a class's selection mass sums to inf, as then a side of
    some cut is inf - inf. ``masses`` is ``columns.table`` or the
    ``_class_block`` block: the first column of either, cut 0 of feature
    0, is (P, 0, 0, N), P and N the class totals, the first entries of
    rows 0 and 3."""
    if max(masses.item(0), masses.item(masses.size // 4 * 3)) == np.inf:
        raise ValueError("the selection mass of a class overflows: its sum is inf")


def _pick(columns: SortedColumns, weights, multiplier, key, choose, *args):
    """The one path from weights to a pick: ``choose(columns, *args)`` for
    the selection mass ``weights`` times ``multiplier`` (1 when None).

    Every call validates the mass and writes it into ``columns.mass``. A
    pick depends only on ``columns`` and the mass's bytes, so
    ``columns.picks`` keeps it under them, after ``key`` where that is
    nonempty (CSA's costs); ``choose`` runs, its pick appended, on a miss.
    """
    mass = columns.mass[:-1]
    _selection_mass(weights, multiplier, mass)
    key = (*key, mass.tobytes()) if key else mass.tobytes()
    found = columns.picks.get(key)
    if found is None:
        found = columns.picks[key] = choose(columns, *args)
    return found


def _forget_picks(columns: SortedColumns, keep) -> None:
    """Drop the picks ``columns.picks`` appended after its first ``keep``."""
    for _ in range(len(columns.picks) - keep):
        columns.picks.popitem()


def _cut_stump(columns: SortedColumns, index, polarity) -> Stump:
    """Stump of the given polarity at the cut with flat index f * (n + 1)
    + b, b < n, into the rows of ``columns.table``; its threshold is
    ``columns.thresholds[f, b]``. The picks pass valid cuts, as
    ``columns.below`` holds them."""
    f, b = divmod(int(index), columns.table.shape[2])
    return Stump(feature_index=f, threshold=float(columns.thresholds[f, b]), polarity=polarity)


def train_stump(features, labels, weights, per_sample_multiplier=None, *,
                columns: SortedColumns | None = None) -> Stump:
    """Exhaustively select the stump minimizing the weighted error.

    The objective is sum_i m_i * w_i * [h(x_i) != y_i] with m_i given by
    ``per_sample_multiplier`` (1 when omitted). The scan is one
    vectorized pass over all (feature, cut, polarity) candidates built
    from per-feature cumulative sums; deterministic for fixed inputs.
    ``columns`` is ``sort_columns(features, labels)``, built here when
    omitted. The pick goes through ``_pick``, keyed by the selection
    mass's bytes alone.
    """
    if columns is None:
        columns = sort_columns(features, labels)
    return _pick(columns, weights, per_sample_multiplier, (), _least_error)


def _least_error(columns: SortedColumns) -> Stump:
    """The stump of least weighted error for the selection mass in ``columns.mass``."""
    table = _sum(columns)
    _check_class_totals(table)
    # row 0: the error of polarity -1 at every cut, b_p + b_n; row 1 of +1
    errs = np.add(table[:2], table[2:], out=table[:2]).reshape(2, -1)
    minus, plus = np.argmin(errs, axis=1)
    # ties: lowest feature, then threshold (both the flat index), then +1.
    # Neither pick is an invalid cut: one between equal values repeats the
    # error of its run's valid first cut, at a lower index in its row, and
    # cut n's error in one row, P or N, is cut 0's in the other, at a lower index
    if (errs[0, minus], minus) < (errs[1, plus], plus):
        return _cut_stump(columns, minus, -1)
    return _cut_stump(columns, plus, 1)


def stump_predict(stump: Stump, features_row) -> int:
    """Predict one sample: polarity if value > threshold, else -polarity."""
    value = np.asarray(features_row, dtype=float)[stump.feature_index]
    return stump.polarity if value > stump.threshold else -stump.polarity


def predict_matrix(stump: Stump, features) -> np.ndarray:
    """Vectorized stump predictions (one +/-1 per row of ``features``)."""
    column = np.asarray(features, dtype=float)[:, stump.feature_index]
    return np.where(column > stump.threshold, stump.polarity, -stump.polarity)


def class_masses(stump: Stump, features, labels, weights) -> np.ndarray:
    """The weight mass of a stump by (class, correctness), summed from its
    per-sample predictions: the array [b_p, d_p, b_n, d_n] of correct and
    wrong positive mass, then correct and wrong negative mass. For a
    polarity +1 stump that ``_cut_stump`` places at a cut it is that cut's
    column of the table, at any cut b < n, in the same row order."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    weights = check_weights(weights)
    correct = predict_matrix(stump, features) == labels
    pos = labels > 0
    groups = (correct & pos, ~correct & pos, correct & ~pos, ~correct & ~pos)
    return np.array([np.sum(weights[group]) for group in groups])
