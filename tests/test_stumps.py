import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from costboost.boosting import CostPair, _csa_select
from costboost.stumps import (
    Stump,
    _class_block,
    _cut_stump,
    _least_error,
    _selection_mass,
    _sum,
    candidate_thresholds,
    check_weights,
    class_masses,
    predict_matrix,
    sort_columns,
    stump_predict,
    train_stump,
)


MAX = np.finfo(float).max
# values a column draws from: few levels force threshold and polarity ties;
# adjacent floats, values whose sums overflow and subnormals test where
# each cut's threshold lands
LEVELS = {
    "quantized": np.array([0.0, 1.0, 2.0]),
    "adjacent": np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                          np.nextafter(np.nextafter(1.0, 2.0), 2.0)]),
    "extreme": np.array([-MAX, np.nextafter(-MAX, 0.0), -1.7e308, 1e308, 1.7e308,
                         np.nextafter(MAX, 0.0), MAX]),
    "subnormal": np.array([-5e-324, 0.0, 5e-324, 1e-323, 1.5e-323, 2e-323]),
}


def drawn_features(rng, values, shape):
    """Normal features, or features drawn from ``LEVELS[values]``."""
    return rng.normal(size=shape) if values == "normal" else rng.choice(LEVELS[values], shape)


def brute_force_candidates(features, labels, mass):
    """Every (feature, threshold, polarity) stump with its weighted error."""
    out = []
    for f in range(features.shape[1]):
        for threshold in candidate_thresholds(features[:, f]):
            for polarity in (1, -1):
                pred = np.where(features[:, f] > threshold, polarity, -polarity)
                err = float(np.sum(mass[pred != labels]))
                out.append((err, f, float(threshold), polarity))
    return out


def scan_block(columns, weights, multiplier=None):
    """The class-mass block, rows b_p, d_p, b_n, d_n, of one selection mass."""
    _selection_mass(weights, multiplier, columns.mass[:-1])
    return _class_block(columns)


def compacted_pick(columns, weights, multiplier=None):
    """The stump pick before the full-table scan: the valid cuts' class
    masses gathered into one block, then the first minimum of their
    (cuts, 2) errors in (feature, threshold, polarity +1 first) order."""
    b_p, d_p, b_n, d_n = scan_block(columns, weights, multiplier)
    errs = np.stack((d_p + d_n, b_n + b_p), axis=1)
    j, minus = divmod(int(np.argmin(errs)), 2)
    return _cut_stump(columns, columns.below[j], -1 if minus else 1)


def two_row_scan(columns, features, labels, mass):
    """The class-mass table as the scan summed it before its lanes: each
    sorted column's masses times each class's mask, one float cumulative
    sum along every column, then the total minus the mass below, in rows
    b_p, d_p, b_n, d_n. Each cut b < n then takes the column of the first
    cut below its upper value, which opens the run of that value. Returns
    the table and the ``_class_block`` block."""
    order = np.argsort(features.T, axis=1, kind="stable")
    positive = (labels > 0)[order]
    sides = mass[order] * np.stack((positive, ~positive))
    f, n = order.shape
    below = np.zeros((2, f, n + 1))
    np.cumsum(sides, axis=2, out=below[:, :, 1:])
    above = below[:, :, -1:] - below
    table = np.stack((above[0], *below, above[1]))
    opening = [np.append(np.searchsorted(x, x), n) for x in np.sort(features.T, axis=1)]
    table = np.stack([table[:, g, opening[g]] for g in range(f)], axis=1)
    return table, table.reshape(4, -1)[:, columns.below]


def bounds(array):
    """The byte range [lo, hi) that ``array`` spans."""
    lo = hi = array.ctypes.data
    for size, stride in zip(array.shape, array.strides):
        lo += min((size - 1) * stride, 0)
        hi += max((size - 1) * stride, 0)
    return lo, hi + array.itemsize


def oracle_error(features, labels, mass, stump):
    pred = np.where(features[:, stump.feature_index] > stump.threshold,
                    stump.polarity, -stump.polarity)
    return float(np.sum(mass[pred != labels]))


class TestTrainStump:
    def test_separable_pair(self):
        stump = train_stump(np.array([[0.0], [1.0]]), np.array([-1, 1]),
                            np.array([0.5, 0.5]))
        assert stump == Stump(feature_index=0, threshold=0.5, polarity=1)

    def test_separable_pair_mirrored(self):
        stump = train_stump(np.array([[0.0], [1.0]]), np.array([1, -1]),
                            np.array([0.5, 0.5]))
        assert stump == Stump(feature_index=0, threshold=0.5, polarity=-1)

    def test_matches_brute_force_on_random_instance(self):
        rng = np.random.default_rng(42)
        features = rng.normal(size=(8, 3))
        labels = rng.choice([-1, 1], size=8)
        weights = rng.random(8)
        weights /= weights.sum()

        stump = train_stump(features, labels, weights)
        best = min(err for err, *_ in brute_force_candidates(features, labels, weights))
        assert oracle_error(features, labels, weights, stump) == best

    @pytest.mark.parametrize("column, labels", [
        # x - 1.0 == x from 2**53 on: the below-minimum cut must still lie below
        ([1e17, 2e17], [1, 1]),
        # adjacent floats: the midpoint rounds up onto the upper value
        ([1.0000000000000002, 1.0000000000000004], [-1, 1]),
        # the sum of the two values overflows to inf
        ([1e308, 1.7e308], [-1, 1]),
        # no float lies below the most negative one: only -inf does
        ([-1.7976931348623157e308, 0.0], [1, 1]),
    ], ids=["large_minimum", "adjacent_floats", "overflow", "lowest_float"])
    def test_threshold_makes_the_scanned_cut(self, column, labels):
        features, labels = np.array(column)[:, None], np.array(labels)
        weights = np.array([0.5, 0.5])
        stump = train_stump(features, labels, weights)
        assert oracle_error(features, labels, weights, stump) == 0.0

    def test_multiplier_weighted_objective(self):
        rng = np.random.default_rng(7)
        features = rng.normal(size=(10, 2))
        labels = rng.choice([-1, 1], size=10)
        weights = np.full(10, 0.1)
        multiplier = rng.uniform(0.5, 3.0, size=10)

        stump = train_stump(features, labels, weights, per_sample_multiplier=multiplier)
        mass = weights * multiplier
        best = min(err for err, *_ in brute_force_candidates(features, labels, mass))
        assert oracle_error(features, labels, mass, stump) == best

    def test_uniform_multiplier_does_not_change_selection(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(12, 3))
        labels = rng.choice([-1, 1], size=12)
        weights = rng.random(12)
        weights /= weights.sum()
        base = train_stump(features, labels, weights)
        scaled = train_stump(features, labels, weights,
                             per_sample_multiplier=np.full(12, 2.5))
        assert base == scaled

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(20, 4))
        labels = rng.choice([-1, 1], size=20)
        weights = rng.random(20)
        weights /= weights.sum()
        first = train_stump(features, labels, weights)
        second = train_stump(features, labels, weights)
        assert first == second

    def test_tie_breaking_prefers_low_feature_then_threshold(self):
        # two identical columns: both features admit the same perfect stump
        column = np.array([0.0, 1.0])
        features = np.column_stack([column, column])
        stump = train_stump(features, np.array([-1, 1]), np.array([0.5, 0.5]))
        assert stump.feature_index == 0
        assert stump.polarity == 1

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            train_stump(np.empty((0, 2)), np.array([]), np.array([]))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            train_stump(np.array([[0.0], [1.0]]), np.array([-1, 1]),
                        np.array([-0.5, 1.5]))

    def test_rejects_non_finite_weight(self):
        with pytest.raises(ValueError):
            train_stump(np.array([[0.0], [1.0]]), np.array([-1, 1]),
                        np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("weights, message", [
        ([np.nan, -1.0], "weights contain non-finite entries"),
        ([-1.0, np.nan], "weights contain non-finite entries"),
        ([np.inf, 1.0], "weights contain non-finite entries"),
        ([1.0, -np.inf], "weights contain non-finite entries"),
        ([1.0, -1e-300], "weights must be nonnegative"),
    ], ids=["nan-then-negative", "negative-then-nan", "inf", "minus-inf", "negative"])
    def test_names_the_first_fault_of_the_weights(self, weights, message):
        with pytest.raises(ValueError, match=message):
            check_weights(weights)

    def test_accepts_zero_and_negative_zero_weights(self):
        weights = check_weights([0, -0.0, 2])
        assert weights.dtype == float
        assert weights.tobytes() == np.array([0.0, -0.0, 2.0]).tobytes()

    @pytest.mark.parametrize("weights, multiplier, message", [
        (np.full((2, 1), 0.5), None, "weights must be a nonempty 1-D array"),
        (np.full(2, 0.5), np.array([-1.0, 1.0]), "multiplier must be nonnegative and finite"),
        (np.full(2, 0.5), np.array([1.0, np.inf]), "multiplier must be nonnegative and finite"),
        (np.full(2, 0.5), np.array([np.nan, 1.0]), "multiplier must be nonnegative and finite"),
    ], ids=["2d-weights", "negative-multiplier", "infinite-multiplier", "nan-multiplier"])
    def test_rejects_misshapen_weights_and_bad_multipliers(self, weights, multiplier, message):
        with pytest.raises(ValueError, match=message):
            train_stump(np.array([[0.0], [1.0]]), np.array([-1, 1]), weights, multiplier)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=16),
        n_features=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        values=st.sampled_from(["normal", *LEVELS]),
        dyadic=st.booleans(),
    )
    def test_never_beaten_by_any_candidate(self, n, n_features, seed, values, dyadic):
        rng = np.random.default_rng(seed)
        features = drawn_features(rng, values, (n, n_features))
        labels = rng.choice([-1, 1], size=n)
        if dyadic:
            # multiples of 1/64 sum exactly in any order, so equal errors
            # are real ties and the tie-break itself is checked
            weights = rng.integers(0, 4, size=n) / 64.0
        else:
            weights = rng.uniform(0.1, 1.0, size=n)
            weights /= weights.sum()

        stump = train_stump(features, labels, weights)
        achieved = oracle_error(features, labels, weights, stump)
        candidates = brute_force_candidates(features, labels, weights)
        for err, *_ in candidates:
            assert achieved <= err
        if dyadic:
            # min() keeps the first of equal errors: (feature, threshold, +1 first)
            _, f, threshold, polarity = min(candidates, key=lambda c: c[0])
            assert stump == Stump(feature_index=f, threshold=threshold, polarity=polarity)


class TestFullTablePick:
    """``train_stump`` scores every cut of the full table, each invalid one
    a repeat of its run's valid first cut, and picks what the compacted
    valid-cut scan picks."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20),
        n_features=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
        weighting=st.sampled_from(["random", "uniform", "zero", "sparse", "dyadic"]),
        rounded=st.booleans(),
        duplicated=st.booleans(),
        constant=st.booleans(),
        multiplied=st.booleans(),
    )
    def test_matches_the_compacted_pick(self, n, n_features, seed, weighting, rounded,
                                        duplicated, constant, multiplied):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, n_features))
        if rounded:
            features = np.round(features, 1)
        if duplicated:
            features[:, -1] = features[:, 0]
        if constant:
            features[:, rng.integers(n_features)] = 0.5
        labels = rng.choice([-1, 1], size=n)
        weights = {
            "random": lambda: rng.random(n),
            "uniform": lambda: np.full(n, 1.0 / n),
            "zero": lambda: np.zeros(n),
            "sparse": lambda: rng.random(n) * (rng.random(n) < 0.3),
            "dyadic": lambda: rng.integers(0, 4, size=n) / 64.0,  # exact ties
        }[weighting]()
        multiplier = rng.integers(0, 4, size=n) / 4.0 if multiplied else None
        columns = sort_columns(features, labels)
        expected = compacted_pick(columns, weights, multiplier)
        assert train_stump(features, labels, weights, multiplier, columns=columns) == expected
        # the error table is written in place: a second scan starts clean
        assert train_stump(features, labels, weights, multiplier, columns=columns) == expected

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_at_an_invalid_cut_stays_silent(self):
        # between the two zeros the error sums 1e308 twice; no valid cut does
        features, labels = np.array([[0.0], [0.0], [1.0], [2.0]]), np.array([1, -1, 1, -1])
        weights = np.array([1e308, 1e308, 0.0, 0.0])
        expected = compacted_pick(sort_columns(features, labels), weights)
        assert train_stump(features, labels, weights) == expected

    def test_an_invalid_cut_repeats_its_runs_valid_first_cut(self):
        features, labels = np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 2.0]]), np.array([1, -1, 1])
        weights = np.array([0.5, 0.25, 0.125])
        columns = sort_columns(features, labels)
        assert np.array_equal(columns.below, [0, 2, 4, 5])
        _selection_mass(weights, None, columns.mass[:-1])
        table = _sum(columns)
        assert table.shape == (4, 2, 4)
        table = table.reshape(4, -1)
        # cut 1 lies between the two 0s of feature 0, cut 6 between the two 2s of feature 1
        assert table[:, 1].tolist() == table[:, 0].tolist() == [0.625, 0.0, 0.0, 0.25]
        assert table[:, 6].tolist() == table[:, 5].tolist() == [0.125, 0.5, 0.0, 0.25]
        # cut n of each feature: (0, P_f, N_f, 0)
        assert table[:, 3].tolist() == table[:, 7].tolist() == [0.0, 0.625, 0.25, 0.0]
        # each cut b < n is the column of the stump _cut_stump places there
        for j in (0, 1, 2, 4, 5, 6):
            stump = _cut_stump(columns, j, 1)
            assert class_masses(stump, features, labels, weights).tolist() == table[:, j].tolist()

    @pytest.mark.parametrize("weights", [[1e308, 1e308, 1.0, 1.0], [1.0, 1.0, 1e308, 1e308]],
                             ids=["positives", "negatives"])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_a_class_mass_summing_to_inf_raises(self, weights):
        # the stump (0, 1.5, -1) errs on nothing, but no scan can tell with
        # a class total of inf: each side of a cut is inf minus the mass below
        features = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 6.0], [3.0, 7.0]])
        labels, weights = np.array([1, 1, -1, -1]), np.array(weights)
        with pytest.raises(ValueError, match="overflows"):
            train_stump(features, labels, weights)
        with pytest.raises(ValueError, match="overflows"):
            _csa_select(sort_columns(features, labels), weights, CostPair(1, 2))


class TestPairedLaneScan:
    """The scan sums each class's lane of every column as one component of
    a complex cumulative sum; the two-row scan is its bit-for-bit oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20),
        n_features=st.integers(min_value=1, max_value=5),
        positives=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10_000),
        values=st.sampled_from(["normal", "few", "constant", "repeated"]),
        weighting=st.sampled_from(["random", "zero", "sparse", "dyadic", "huge"]),
        multiplied=st.booleans(),
    )
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_matches_the_two_row_scan(self, n, n_features, positives, seed, values,
                                      weighting, multiplied):
        rng = np.random.default_rng(seed)
        features = {
            "normal": lambda: rng.normal(size=(n, n_features)),
            "few": lambda: rng.integers(0, 3, size=(n, n_features)).astype(float),
            "constant": lambda: np.full((n, n_features), 0.5),
            "repeated": lambda: np.repeat(rng.normal(size=(n, 1)), n_features, axis=1),
        }[values]()
        # positives 0 and 1 are one-class sets; others unbalanced or not
        labels = np.where(np.arange(n) < round(positives * n), 1, -1)
        rng.shuffle(labels)
        weights = {
            "random": lambda: rng.random(n),
            "zero": lambda: np.zeros(n),
            "sparse": lambda: rng.random(n) * (rng.random(n) < 0.3),
            "dyadic": lambda: rng.integers(0, 4, size=n) / 64.0,
            "huge": lambda: np.full(n, 1e308),  # the sums overflow to inf
        }[weighting]()
        # at most 1, so every selection mass is finite (see the infinite case below)
        multiplier = rng.integers(0, 5, size=n) / 4.0 if multiplied else None
        columns = sort_columns(features, labels)
        mass = weights if multiplier is None else weights * multiplier
        expected = two_row_scan(columns, features, labels, mass)

        scans = []
        for _ in range(2):  # a reused handle scans as a fresh one does
            masses = scan_block(columns, weights, multiplier)
            scans.append([a.tobytes() for a in (columns.table, masses)])
        assert scans[0] == scans[1] == [a.tobytes() for a in expected]

    def test_writes_only_inside_its_block(self):
        rng = np.random.default_rng(5)
        features, labels = rng.normal(size=(9, 3)), np.array([1, -1, -1, 1, -1, -1, 1, -1, -1])
        columns = sort_columns(features, labels)
        lo, hi = bounds(columns.mass.base)
        # every other array of the handle is read-only or lies in the block
        for name, value in vars(columns).items():
            if isinstance(value, np.ndarray) and value.flags.writeable:
                start, end = bounds(value)
                assert lo <= start < end <= hi, name
        weights, multiplier = rng.random(9), rng.random(9)
        kept = weights.copy(), multiplier.copy()
        _selection_mass(weights, multiplier, columns.mass[:-1])
        for scan in (_sum(columns), scan_block(columns, weights, multiplier)):
            assert lo <= bounds(scan)[0] < bounds(scan)[1] <= hi
        assert weights.tobytes() == kept[0].tobytes()
        assert multiplier.tobytes() == kept[1].tobytes()

    def test_a_scan_copies_no_index(self):
        # numpy's take copies an index that is not writeable, so gathering
        # through the handle's read-only fields would allocate each index
        # again on every scan, spread the largest. What is left is the
        # ufunc buffer of the broadcast total-minus-below subtract, 8192
        # floats at most, under half of spread at this size
        rng = np.random.default_rng(11)
        columns = sort_columns(rng.normal(size=(300, 40)), rng.choice([-1, 1], size=300))
        _selection_mass(rng.random(300), None, columns.mass[:-1])
        _least_error(columns)
        _class_block(columns)
        tracemalloc.start()
        try:
            _least_error(columns)
            _class_block(columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < columns.spread.nbytes / 2

    @pytest.mark.parametrize("name", ["lanes", "spread", "below"])
    def test_gathers_through_a_writeable_owner_of_each_index(self, name):
        rng = np.random.default_rng(2)
        features = rng.integers(0, 4, size=(12, 3)).astype(float)
        columns = sort_columns(features, rng.choice([-1, 1], size=12))
        field = getattr(columns, name)
        owner = field.base  # what the scans gather through
        assert owner.flags.writeable and owner.flags.c_contiguous and owner.flags.owndata
        assert owner.dtype == np.intp
        assert owner.shape == field.shape
        assert owner.tobytes() == field.tobytes()
        # no field holds it: test_block_is_read_only writes each field in vain
        assert not any(value is owner for value in vars(columns).values())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
    def test_complex_views_are_aligned(self, n):
        for labels in (np.where(np.arange(n) % 3 == 0, 1, -1), np.ones(n, dtype=int)):
            columns = sort_columns(np.arange(2.0 * n).reshape(n, 2), labels)
            for view in (columns.lane_sides, columns.lane_sums):
                assert view.dtype == complex
                assert view.flags.aligned
                assert view.ctypes.data % 16 == 0
                assert np.shares_memory(view, columns.mass.base)
            # the spread gather reads sums and writes table rows 1 and 2
            table, sums, sides = columns.table, columns.sums, columns.sides
            assert [np.shares_memory(sums, row) for row in table] == [True, False, False, False]
            start, end = bounds(table[1:3])
            assert start <= bounds(sides)[0] < bounds(sides)[1] <= end

    def test_negative_zero_mass_scans_as_positive_zero(self):
        features, labels = np.array([[0.0], [1.0], [2.0]]), np.array([-1, 1, 1])
        weights = np.array([0.5, 0.0, 0.25])
        for signed, multiplier in ((np.array([0.5, -0.0, 0.25]), None),
                                   (weights, np.array([1.0, -0.0, 1.0]))):
            expected = scan_block(sort_columns(features, labels), weights).copy()
            assert scan_block(sort_columns(features, labels), signed,
                              multiplier).tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_an_infinite_mass_stays_in_its_class(self):
        # 1e308 * 4 overflows; the positives' sums never see that negative
        features, labels = np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([-1, 1, -1, 1])
        weights, multiplier = np.array([1e308, 0.25, 0.5, 0.125]), np.array([4.0, 1, 1, 1])
        columns = sort_columns(features, labels)
        _selection_mass(weights, multiplier, columns.mass[:-1])
        below = _sum(columns)[1:3]
        assert below[0, 0].tolist() == [0.0, 0.0, 0.25, 0.25, 0.375]
        assert below[1, 0].tolist() == [0.0, np.inf, np.inf, np.inf, np.inf]


class TestSortedColumns:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=16),
        n_features=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_reused_block_matches_a_fresh_build(self, n, n_features, seed):
        rng = np.random.default_rng(seed)
        features = rng.integers(0, 4, size=(n, n_features)).astype(float)
        features[1] = features[0]  # a repeated value in every column
        labels = rng.choice([-1, 1], size=n)
        columns = sort_columns(features, labels)
        assert columns.below.size < n * n_features  # some cuts are invalid
        # multiples of 1/64 and 1/4 sum exactly, so the scanned masses must
        # equal the per-stump sums of class_masses
        inputs = []
        for _ in range(3):
            weights = rng.integers(1, 5, size=n) / 64.0
            inputs += [(weights, None), (weights, rng.integers(0, 4, size=n) / 4.0)]
        costs = CostPair(1.0, 2.5)
        # every scan of the one block first, so stale state would show; a
        # scan's block lives only until the next scan, so each is copied
        scans = [scan_block(columns, w, m).copy() for w, m in inputs]
        stumps = [train_stump(features, labels, w, m, columns=columns) for w, m in inputs]
        picks = [_csa_select(columns, w, costs) for w, _ in inputs[::2]]

        for (weights, multiplier), scan, stump in zip(inputs, scans, stumps):
            fresh = scan_block(sort_columns(features, labels), weights, multiplier)
            assert [a.tobytes() for a in scan] == [a.tobytes() for a in fresh]
            assert stump == train_stump(features, labels, weights, multiplier)
            mass = weights if multiplier is None else weights * multiplier
            for j in range(columns.below.size):
                masses = class_masses(_cut_stump(columns, columns.below[j], 1), features,
                                      labels, mass)
                assert masses.tolist() == scan[:, j].tolist()
        for (weights, _), (stump, alpha) in zip(inputs[::2], picks):
            fresh_stump, fresh_alpha = _csa_select(sort_columns(features, labels), weights,
                                                   costs)
            assert stump == fresh_stump
            assert repr(alpha) == repr(fresh_alpha)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=16),
        n_features=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_reused_workspace_matches_fresh_scans(self, n, n_features, seed):
        rng = np.random.default_rng(seed)
        features = rng.integers(0, 4, size=(n, n_features)).astype(float)
        labels = rng.choice([-1, 1], size=n)
        columns = sort_columns(features, labels)
        costs = CostPair(1.0, 4.0)
        c_norm = costs.per_sample(labels) / 4.0
        # round after round, as an ensemble scans: new weights, another multiplier
        for multiplier in (None, c_norm, c_norm * c_norm, None, c_norm * c_norm, c_norm):
            weights = rng.random(n)
            weights /= weights.sum()
            scan = scan_block(columns, weights, multiplier)
            assert np.shares_memory(scan, columns.mass.base)
            fresh = scan_block(sort_columns(features, labels), weights, multiplier)
            assert scan.tobytes() == fresh.tobytes()
            assert (train_stump(features, labels, weights, multiplier, columns=columns)
                    == train_stump(features, labels, weights, multiplier))
            stump, alpha = _csa_select(columns, weights, costs)
            fresh_stump, fresh_alpha = _csa_select(sort_columns(features, labels), weights,
                                                   costs)
            assert stump == fresh_stump
            assert repr(alpha) == repr(fresh_alpha)

    @pytest.mark.parametrize("weights", [[np.nan, 0.5, 0.5, 0.0], [-0.25, 0.75, 0.5, 0.0],
                                         [np.inf, 0.0, 0.0, 0.0]],
                             ids=["nan", "negative", "inf"])
    def test_bad_weights_raise_where_their_bytes_are_a_kept_pick(self, weights):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([-1, 1, -1, 1])
        columns = sort_columns(features, labels)
        weights = np.array(weights)
        planted = Stump(feature_index=0, threshold=0.5, polarity=1)
        columns.picks.update({weights.tobytes(): planted,
                              (1.0, 3.0, weights.tobytes()): (planted, 1.0)})
        with pytest.raises(ValueError):
            train_stump(features, labels, weights, columns=columns)
        with pytest.raises(ValueError):
            _csa_select(columns, weights, CostPair(1, 3))

    def test_a_kept_pick_is_returned_without_a_scan(self, monkeypatch):
        import costboost.stumps as stumps

        features = np.array([[0.0, 3.0], [1.0, 1.0], [2.0, 2.0], [3.0, 0.0]])
        labels = np.array([-1, 1, -1, 1])
        columns = sort_columns(features, labels)
        weights, multiplier = np.array([0.0, 0.25, 0.25, 0.5]), np.array([1.0, 2.0, 1.0, 2.0])
        stump = train_stump(features, labels, weights, multiplier, columns=columns)
        pick = _csa_select(columns, weights, CostPair(1, 3))
        # the keys are the bytes of the selection mass, with the costs for CSA
        assert columns.picks == {(weights * multiplier).tobytes(): stump,
                                 (1.0, 3.0, weights.tobytes()): pick}

        def unreachable(columns):
            raise AssertionError("scanned again")

        monkeypatch.setattr(stumps, "_sum", unreachable)
        assert train_stump(features, labels, weights * 2.0, multiplier / 2.0,
                           columns=columns) is stump
        assert _csa_select(columns, weights, CostPair(1.0, 3.0)) is pick
        # -0 scans as +0, so it finds the +0 mass's pick; other costs do not
        signed = np.array([-0.0, 0.25, 0.25, 0.5])
        assert _csa_select(columns, signed, CostPair(1, 3)) is pick
        assert train_stump(features, labels, signed, multiplier, columns=columns) is stump
        with pytest.raises(AssertionError, match="scanned again"):
            _csa_select(columns, weights, CostPair(3, 1))

    @pytest.mark.parametrize("name", ["thresholds", "lanes", "spread", "below"])
    def test_block_is_read_only(self, name):
        columns = sort_columns(np.array([[0.0], [1.0]]), np.array([-1, 1]))
        array = getattr(columns, name)
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1

    @pytest.mark.parametrize("defect", ["short_weights", "long_weights", "short_multiplier"])
    def test_rejects_inputs_of_another_sample_count(self, defect):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(6, 2))
        labels = np.array([-1, 1, -1, 1, 1, -1])
        columns = sort_columns(features, labels)
        weights, multiplier = np.full(6, 1 / 6), None
        if defect == "short_weights":
            weights = np.full(5, 0.2)
        elif defect == "long_weights":
            weights = np.full(7, 1 / 7)
        else:
            multiplier = np.ones(5)
        with pytest.raises(ValueError):
            scan_block(columns, weights, multiplier)
        with pytest.raises(ValueError):
            train_stump(features, labels, weights, multiplier, columns=columns)
        if multiplier is None:
            with pytest.raises(ValueError):
                _csa_select(columns, weights, CostPair(1, 3))

    @pytest.mark.parametrize("defect, message", [
        ("nan_feature", "features contain non-finite entries"),
        ("labels_0_1", r"labels must be -1 or \+1"),
        ("labels_2_minus1", r"labels must be -1 or \+1"),
        ("short_labels", "labels must have one entry per sample"),
    ], ids=["nan_feature", "labels_0_1", "labels_2_minus1", "short_labels"])
    def test_train_stump_without_block_rejects_invalid_training_inputs(self, defect, message):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(8, 2))
        labels = rng.choice([-1, 1], size=8)
        if defect == "nan_feature":
            features[3, 1] = np.nan
        elif defect == "labels_0_1":
            labels = np.where(labels > 0, 1, 0)
        elif defect == "labels_2_minus1":
            labels = np.where(labels > 0, 2, -1)
        else:
            labels = labels[:7]
        with pytest.raises(ValueError, match=message):
            train_stump(features, labels, np.full(8, 1 / 8))
        with pytest.raises(ValueError, match=message):
            sort_columns(features, labels)


class TestStumpPredict:
    def test_above_threshold(self):
        assert stump_predict(Stump(0, 0.5, 1), [1.0]) == 1

    def test_at_or_below_threshold(self):
        assert stump_predict(Stump(0, 0.5, 1), [0.0]) == -1
        assert stump_predict(Stump(0, 0.5, 1), [0.5]) == -1

    def test_negative_polarity(self):
        assert stump_predict(Stump(0, 0.5, -1), [1.0]) == -1

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(15, 3))
        stump = Stump(1, 0.2, -1)
        vector = predict_matrix(stump, features)
        assert all(vector[i] == stump_predict(stump, features[i]) for i in range(15))


class TestClassMassColumn:
    def test_perfect_stump_all_positive(self):
        features = np.array([[1.0], [2.0]])
        labels = np.array([1, 1])
        masses = class_masses(Stump(0, 0.0, 1), features, labels, np.array([0.5, 0.5]))
        assert masses.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_stump_wrong_everywhere_balanced(self):
        features = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        labels = np.array([-1, -1, 1, 1])  # polarity +1 above 0 is always wrong
        masses = class_masses(Stump(0, 0.0, 1), features, labels, np.full(4, 0.25))
        b_p, d_p, b_n, d_n = masses
        assert d_p == pytest.approx(0.5)
        assert d_n == pytest.approx(0.5)
        assert b_p == b_n == 0.0

    def test_matches_per_sample_loop(self):
        rng = np.random.default_rng(9)
        features = rng.normal(size=(10, 2))
        labels = rng.choice([-1, 1], size=10)
        weights = rng.random(10)
        weights /= weights.sum()
        stump = Stump(1, 0.1, 1)
        masses = class_masses(stump, features, labels, weights)

        expected = [0.0] * 4  # b_p, d_p, b_n, d_n
        for i in range(10):
            pred = stump_predict(stump, features[i])
            correct = pred == labels[i]
            expected[(0 if correct else 1) + (0 if labels[i] == 1 else 2)] += weights[i]
        assert masses.tolist() == pytest.approx(expected, abs=1e-15)

    def test_total_is_one_for_normalized_weights(self):
        rng = np.random.default_rng(21)
        features = rng.normal(size=(50, 3))
        labels = rng.choice([-1, 1], size=50)
        weights = rng.random(50)
        weights /= weights.sum()
        masses = class_masses(Stump(2, 0.0, -1), features, labels, weights)
        assert masses.sum() == pytest.approx(1.0, abs=1e-9)


class TestCandidateThresholds:
    @pytest.mark.parametrize("values", [
        # adjacent floats: their midpoints round onto the upper value
        LEVELS["adjacent"],
        # the sums overflow, and nothing but -inf lies below -max
        LEVELS["extreme"],
        [1e308, 1.7e308],
    ], ids=["adjacent_floats", "near_max", "overflow"])
    def test_each_cut_lies_between_its_values(self, values):
        thresholds = candidate_thresholds(values)
        distinct = np.unique(values)
        assert thresholds.size == distinct.size
        assert np.all(thresholds < distinct)
        assert np.all(thresholds[1:] >= distinct[:-1])
        assert np.all(np.isfinite(thresholds) | (distinct == -MAX))

    def test_oracle_has_the_stump_between_adjacent_floats(self):
        # the plain midpoint of the two values rounds onto 1.0, which splits nothing
        below = np.nextafter(1.0, 0.0)
        features, labels = np.array([[below], [1.0], [1.0]]), np.array([-1, 1, 1])
        weights = np.full(3, 1 / 3)
        assert train_stump(features, labels, weights) == Stump(0, below, 1)
        assert min(brute_force_candidates(features, labels, weights)) == (0.0, 0, below, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        n_features=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        values=st.sampled_from(["normal", *LEVELS]),
    )
    def test_are_the_cuts_train_stump_can_pick(self, n, n_features, seed, values):
        rng = np.random.default_rng(seed)
        features = drawn_features(rng, values, (n, n_features))
        columns = sort_columns(features, rng.choice([-1, 1], size=n))
        for f in range(n_features):
            column = np.sort(features[:, f])
            index = columns.below[columns.below // (n + 1) == f]
            picked = [_cut_stump(columns, j, 1).threshold for j in index]
            assert np.array(picked).tobytes() == candidate_thresholds(column).tobytes()
            # cut b leaves the b smallest values at or below its threshold
            for j, threshold in zip(index, picked):
                assert np.count_nonzero(column <= threshold) == j % (n + 1)

    def test_includes_below_minimum(self):
        thresholds = candidate_thresholds(np.array([3.0, 1.0, 2.0]))
        assert thresholds[0] == 0.0
        assert list(thresholds[1:]) == [1.5, 2.5]

    def test_collapses_duplicates(self):
        thresholds = candidate_thresholds(np.array([1.0, 1.0, 1.0]))
        assert list(thresholds) == [0.0]
