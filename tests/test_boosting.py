import math
import re
import warnings
from hashlib import sha256
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import costboost.boosting as boosting
from costboost.boosting import (
    ALGORITHM_IDS,
    CostPair,
    _bisect,
    _can_still_win,
    _csa_alpha_arrays,
    _csa_select,
    _descend,
    _floor_mass_groups,
    _rates,
    _rule,
    _slope,
    adjust_threshold,
    boost_round,
    csa_loss,
    decision_scores,
    init_weights,
    solve_csa_alpha,
    train_ensemble,
)
from costboost.datasets import gen_bayes, gen_two_clouds
from costboost.metrics import pcf
from costboost.stumps import (Stump, _class_block, _cut_stump, _selection_mass,
                              candidate_thresholds, class_masses, predict_matrix, sort_columns,
                              stump_predict, train_stump)

ERR_FLOOR = 1e-10
UNIT = CostPair(1, 1)


def fixed_instance(n, n_features, seed):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, n_features))
    labels = rng.choice([-1, 1], size=n)
    return features, labels


class TestInitWeights:
    def test_cost_init_equal_costs(self):
        weights = init_weights("CGA", np.array([1, -1]), UNIT)
        assert list(weights) == [0.5, 0.5]

    def test_cost_init_proportional(self):
        weights = init_weights("CGA", np.array([1, -1]), CostPair(1, 3))
        assert list(weights) == [0.25, 0.75]

    def test_other_algorithms_ignore_costs(self):
        weights = init_weights("ADA", np.array([1, 1, -1, -1]), CostPair(1, 100))
        assert list(weights) == [0.25] * 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            init_weights("ADA", np.array([]), UNIT)


def reference_round(algorithm, stump, alpha, weights, features, labels, costs, total_rounds):
    """One round of ``algorithm`` as the module docstring's table gives it,
    in plain floats, one sample at a time, for the round's ``stump``.

    Returns (lo, hi, degenerate, z, new weights). The table's alpha lies
    in [lo, hi]: its statistic, or CSA's class masses, moved by 2n ulps
    of the sums they come from, as the scan may sum them in another order.
    Where a CSA side's mass is within that of 0, the side may be floored
    or not, and any alpha goes. z and the new weights are the update at
    ``alpha``, the round's own, so a statistic's rounding does not move
    them.
    """
    n = len(weights)
    ulps = 2 * n * 2.0**-52
    y = [int(v) for v in labels]
    h = [stump_predict(stump, row) for row in features]
    wrong = [h[i] != y[i] for i in range(n)]
    c = [costs.c_pos if y[i] > 0 else costs.c_neg for i in range(n)]
    cn = [v / max(costs.c_pos, costs.c_neg) for v in c]
    w = list(weights)
    if algorithm == "ASB":  # pre-scaled by sqrt(k)^(y/T), k = c_pos / c_neg
        shift = math.log(math.sqrt(costs.c_pos / costs.c_neg)) / total_rounds
        w = [w[i] * math.exp(y[i] * shift) for i in range(n)]
        w = [v / sum(w) for v in w]
    beta = [(1.0 + cn[i]) / 2.0 if wrong[i] else (1.0 - cn[i]) / 2.0 for i in range(n)]
    ones = [1.0] * n
    if algorithm == "CSA":
        masses = class_masses(stump, features, labels, w)
        slack = ulps * np.repeat([masses[:2].sum(), masses[2:].sum()], 2)
        sides = (masses[0] + masses[2], masses[1] + masses[3])
        lo, hi = -math.inf, math.inf
        if min(sides) > 2.0 * slack.max():  # alpha grows with b_p and b_n, falls with d_p and d_n
            lo, hi = (solve_csa_alpha(np.maximum(masses + sign * slack, 0.0), costs)
                      for sign in (np.array([-1, 1, -1, 1]), np.array([1, -1, 1, -1])))
        degenerate = min(sum(w[i] for i in range(n) if not wrong[i]),
                         sum(w[i] for i in range(n) if wrong[i])) <= ERR_FLOOR
    else:
        v = {"ADC": beta, "AC1": cn, "AC2": cn, "AC3": [x * x for x in cn]}.get(algorithm, ones)
        norm = sum(cn[i] * w[i] for i in range(n)) if algorithm in ("AC2", "AC3") else 1.0
        if algorithm in ("ADC", "AC1", "AC3"):  # r, clamped into [-1 + 1e-10, 1 - 1e-10]
            terms = [v[i] * w[i] * y[i] * h[i] for i in range(n)]
            floor, odds = -(1.0 - ERR_FLOOR), lambda r: (1.0 + r) / (1.0 - r)
        else:  # err, clamped into [1e-10, 1 - 1e-10]
            terms = [v[i] * w[i] for i in range(n) if wrong[i]]
            floor, odds = ERR_FLOOR, lambda err: (1.0 - err) / err
        stat = sum(terms) / norm
        slack = ulps * sum(abs(t) for t in terms) / norm
        clamped = [min(max(x, floor), 1.0 - ERR_FLOOR) for x in (stat, stat - slack, stat + slack)]
        lo, hi = sorted(0.5 * math.log(odds(x)) for x in clamped[1:])
        degenerate = clamped[0] != stat
    step = {"CB0": 0.0, "CB1": 1.0}.get(algorithm, alpha)
    mistakes_only = [c[i] if wrong[i] else 1.0 for i in range(n)]
    factor = {"CB0": mistakes_only, "CB1": mistakes_only, "CB2": mistakes_only,
              "AC2": cn}.get(algorithm, ones)
    scale = {"ADC": beta, "AC1": cn, "AC3": cn, "CSA": c}.get(algorithm, ones)
    # a zero mass gives 0, whatever its exponent
    unnorm = [factor[i] * w[i] * math.exp(-step * scale[i] * y[i] * h[i])
              if factor[i] * w[i] > 0.0 else 0.0 for i in range(n)]
    z = sum(unnorm)
    return lo, hi, degenerate, z, [u / z for u in unnorm]


def assert_close(got, expected, where):
    """Equal within 1e-12 relative, or 1e-15 absolute near 0."""
    for a, b in zip(got, expected, strict=True):
        assert abs(a - b) <= max(1e-12 * max(abs(a), abs(b)), 1e-15), (where, a, b)


class TestBoostRound:
    def test_unit_cost_round_matches_plain(self):
        features, labels = fixed_instance(12, 3, seed=2)
        weights = np.full(12, 1 / 12)
        ref = boost_round("ADA", weights, features, labels, UNIT, 10)
        got = boost_round("AC1", weights, features, labels, UNIT, 10)
        assert got.stump == ref.stump
        assert got.alpha == pytest.approx(ref.alpha, rel=1e-12)
        np.testing.assert_allclose(got.weights, ref.weights, rtol=1e-12)

    def test_separable_round_clamps(self):
        features = np.array([[0.0], [1.0]])
        labels = np.array([-1, 1])
        result = boost_round("ADA", np.array([0.5, 0.5]), features, labels, UNIT, 1)
        assert result.degenerate
        assert result.alpha == 0.5 * np.log((1 - ERR_FLOOR) / ERR_FLOOR)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           exponents=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
           rounds=st.integers(1, 5))
    @example(n=9, d=2, seed=3, exponents=(0.0, 0.0), rounds=5)
    @example(n=12, d=3, seed=8, exponents=(2.0, 2.0), rounds=5)
    def test_update_matches_per_sample_recomputation(self, n, d, seed, exponents, rounds):
        """Chained rounds of every variant against ``reference_round``, the
        module docstring's table recomputed one sample at a time, given
        each round's stump. The table rescales the costs as cn = c /
        max(c_pos, c_neg); that is an assumption of the table, not of Part I."""
        rng = np.random.default_rng(seed)
        # each column normal or drawn from three values, so cuts tie
        features = np.where(rng.random(d) < 0.5, rng.normal(size=(n, d)),
                            rng.integers(0, 3, size=(n, d)))
        labels = rng.choice([-1, 1], size=n)
        labels[:2] = (1, -1)
        costs = CostPair(10.0 ** exponents[0], 10.0 ** exponents[1])
        columns = sort_columns(features, labels)
        for algorithm in ALGORITHM_IDS:
            c = [costs.c_pos if y > 0 else costs.c_neg for y in labels.tolist()]
            init = c if algorithm == "CGA" else [1.0] * n
            weights = init_weights(algorithm, labels, costs)
            assert_close(weights, [v / sum(init) for v in init], algorithm)
            for t in range(1, rounds + 1):
                try:
                    got = boost_round(algorithm, weights, features, labels, costs, rounds,
                                      columns=columns)
                except ValueError as error:  # the update leaves the float range: the chain ends
                    assert re.search("weight update (over|under)flows", str(error)), error
                    break
                lo, hi, degenerate, z, expected = reference_round(
                    algorithm, got.stump, got.alpha, weights.tolist(), features, labels, costs,
                    rounds)
                where = (algorithm, t, lo, got.alpha, hi)
                assert got.degenerate == degenerate, where
                assert_close([min(max(got.alpha, lo), hi)], [got.alpha], where)
                assert_close([got.z, *got.weights], [z, *expected], where)
                weights = got.weights

    def test_rejects_zero_total_rounds(self):
        features, labels = fixed_instance(4, 1, seed=0)
        with pytest.raises(ValueError):
            boost_round("ADA", np.full(4, 0.25), features, labels, UNIT, 0)

    @pytest.mark.parametrize("algorithm", ALGORITHM_IDS)
    def test_rejects_all_zero_weights(self, algorithm):
        features, labels = fixed_instance(8, 2, seed=4)
        with pytest.raises(ValueError):
            boost_round(algorithm, np.zeros(8), features, labels, CostPair(1, 3), 3)

    def test_rejects_unknown_algorithm(self):
        features, labels = fixed_instance(4, 1, seed=0)
        with pytest.raises(ValueError):
            boost_round("XYZ", np.full(4, 0.25), features, labels, UNIT, 3)

    @pytest.mark.parametrize("algorithm", ["ADA", "ASB", "AC3", "CSA"])
    def test_rejects_block_of_another_sample_count(self, algorithm):
        columns = sort_columns(*fixed_instance(6, 2, seed=1))
        features, labels = fixed_instance(8, 2, seed=1)
        with pytest.raises(ValueError):
            boost_round(algorithm, np.full(8, 1 / 8), features, labels, CostPair(1, 3), 3,
                        columns=columns)

    @pytest.mark.parametrize("algorithm", ["ADA", "AC3", "CSA"])
    @pytest.mark.parametrize("defect", ["nan_feature", "labels_0_1", "labels_2_minus1"])
    def test_without_block_rejects_invalid_training_inputs(self, algorithm, defect):
        features, labels = fixed_instance(8, 2, seed=6)
        if defect == "nan_feature":
            features[3, 1] = np.nan
        elif defect == "labels_0_1":
            labels = np.where(labels > 0, 1, 0)
        else:
            labels = np.where(labels > 0, 2, -1)
        with pytest.raises(ValueError):
            boost_round(algorithm, np.full(8, 1 / 8), features, labels, CostPair(1, 3), 3)

    @pytest.mark.parametrize("algorithm", ALGORITHM_IDS)
    @pytest.mark.parametrize("costs", [UNIT, CostPair(1, 5), CostPair(10, 1)])
    def test_weights_stay_normalized_and_nonnegative(self, algorithm, costs):
        features, labels = fixed_instance(25, 3, seed=13)
        weights = init_weights(algorithm, labels, costs)
        for _ in range(8):
            result = boost_round(algorithm, weights, features, labels, costs, 8)
            weights = result.weights
            assert result.z > 0
            assert np.all(weights >= 0)
            assert abs(weights.sum() - 1.0) < 1e-9

    def test_unclamped_rounds_match_golden(self):
        """Chained rounds of all twelve variants, pinned byte for byte.

        No single stump separates the two clouds, so no round clamps and
        every alpha, z and weight is a value of the unclamped update.
        """
        data = gen_two_clouds(10, 10, seed=0)
        digest = sha256()
        for costs in (CostPair(1, 5), CostPair(10, 1), UNIT):
            for algorithm in ALGORITHM_IDS:
                weights = init_weights(algorithm, data.labels, costs)
                for t in range(1, 6):
                    result = boost_round(algorithm, weights, data.features, data.labels,
                                         costs, 5)
                    assert not result.degenerate, (algorithm, costs, t)
                    digest.update(repr((result.stump, repr(result.alpha), repr(result.z),
                                        result.degenerate)).encode())
                    digest.update(result.weights.tobytes())
                    weights = result.weights
        assert digest.hexdigest() == (
            "21664d6d729670d0d84f7ef4b251f57af3c8dda63810ceb9bd6c0f0ee83a125d"
        )


def selection_bounds(algorithm, candidates, predictions, features, labels, weights, costs,
                     total_rounds):
    """What the module docstring's table has each round's stump pick
    minimize, for every stump of ``candidates``, whose ``predictions``
    list one +-1 per sample, as a range [lo, hi] that holds the scan's value.

    The scan sums a candidate's masses in another order, and may round a
    tiny one to 0; its value lies within 2n ulps of the class totals of
    the per-sample sums. A plain pick minimizes sum(m w [h != y]). CSA
    scores one (feature, threshold) cut for both polarities, as the
    polarity -1 twin swaps b and d, which leaves the least loss: the
    loss ``csa_loss`` gives at ``solve_csa_alpha``'s alpha, each side of
    zero mass floored as that solve floors it. A side that may round to
    0 may be floored or left tiny, so its loss lies anywhere from 0 to
    the floored one. For CSA the ranges are per cut, with the polarity
    each cut's plain weighted errors (d side, b side) pick, or 0 where
    those lie within rounding of each other.
    """
    n = len(weights)
    ulps = 2 * n * 2.0**-52
    y = np.asarray(labels)
    c = np.where(y > 0, costs.c_pos, costs.c_neg)
    cn = c / max(costs.c_pos, costs.c_neg)
    w = np.array(weights)
    if algorithm == "ASB":  # pre-scaled by sqrt(k)^(y/T), k = c_pos / c_neg
        w = w * np.exp(y * math.log(math.sqrt(costs.c_pos / costs.c_neg)) / total_rounds)
        w = w / w.sum()
    if algorithm != "CSA":
        wrong = np.array(predictions) != y
        mass = w * {"AC1": cn, "AC2": cn, "AC3": cn * cn}.get(algorithm, 1.0)
        errors = np.array([math.fsum(mass[row]) for row in wrong])
        slack = ulps * mass.sum()
        return errors - slack, errors + slack, None

    def least_loss(masses):
        return float(csa_loss(solve_csa_alpha(masses, costs), _floor_mass_groups(masses[:, None]),
                              costs)[0])

    lo, hi, polarity = [], [], []
    for stump in candidates[::2]:  # polarity +1: b_p, d_p, b_n, d_n
        masses = class_masses(stump, features, labels, w)
        slack = ulps * np.repeat([masses[:2].sum(), masses[2:].sum()], 2)
        # an exact 0 sums no mass, in the scan too; a positive mass may round to 0
        down = np.where(masses > 0.0, np.maximum(masses - slack, 0.0), 0.0)
        up = np.where(masses > 0.0, masses + slack, 0.0)
        sides, low_sides = masses[:2] + masses[2:], down[:2] + down[2:]
        # a side that may round to 0 may also stay tiny, where the least loss tends to 0
        tiny = ((sides > 0.0) & (low_sides <= 0.0)).any()
        lo.append(0.0 if tiny else least_loss(down))
        hi.append(max(least_loss(up), least_loss(np.where(np.tile(low_sides <= 0.0, 2), 0.0, up))))
        err_plus, err_minus = sides[1], sides[0]
        polarity.append(0 if abs(err_plus - err_minus) <= 2.0 * (slack[0] + slack[2]) else
                        1 if err_plus < err_minus else -1)
    return np.array(lo), np.array(hi), polarity


def assert_least(pick, lo, hi, where):
    """The candidate ``pick`` can have the least objective of all the
    ranges [lo, hi], and is the first least wherever that one lies below
    every other by more than 1e-9 relative; returns whether it did."""
    best = int(np.argmin(hi))
    assert lo[pick] <= hi[best] * (1.0 + 1e-9), (where, pick, best)
    apart = bool(np.delete(lo, best).min(initial=np.inf) > hi[best] * (1.0 + 1e-9))
    if apart:
        assert pick == best, (where, pick, best)
    return apart


class TestStumpEnumeration:
    """ROADMAP item 6's stump oracle: every round's stump against all
    candidates enumerated one sample at a time."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           exponents=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
           rounds=st.integers(1, 5))
    @example(n=12, d=3, seed=8, exponents=(2.0, -1.0), rounds=5)
    def test_every_round_picks_the_enumerated_minimizer(self, n, d, seed, exponents, rounds):
        """Each variant's ``train_ensemble`` stumps against every (feature,
        ``candidate_thresholds`` value, polarity) stump, predicted through
        ``stump_predict`` and listed in the documented tie order: feature,
        then threshold, then polarity +1 first. Each round's weights are
        ``reference_round``'s, from the round's own stump and alpha, and
        each candidate's objective is ``selection_bounds``'s. The pick
        must be the first least wherever the best two differ by more than
        1e-9 relative beyond rounding, and one that can be least
        elsewhere. The table rescales the costs as cn = c / max(c_pos,
        c_neg); that is an assumption of the table, not of Part I."""
        rng = np.random.default_rng(seed)
        # each column normal or drawn from three values, so cuts tie
        features = np.where(rng.random(d) < 0.5, rng.normal(size=(n, d)),
                            rng.integers(0, 3, size=(n, d)))
        labels = rng.choice([-1, 1], size=n)
        labels[:2] = (1, -1)
        costs = CostPair(10.0 ** exponents[0], 10.0 ** exponents[1])
        candidates = [Stump(f, float(t), polarity) for f in range(d)
                      for t in candidate_thresholds(features[:, f]) for polarity in (1, -1)]
        predictions = [[stump_predict(s, row) for row in features] for s in candidates]
        columns = sort_columns(features, labels)  # shared, as a sweep's cells share it
        c = [costs.c_pos if y > 0 else costs.c_neg for y in labels.tolist()]
        for algorithm in ALGORITHM_IDS:
            try:
                classifier, _ = train_ensemble(algorithm, features, labels, costs, rounds,
                                               columns=columns)
            except ValueError as error:  # the update or the votes leave the float range
                assert re.search("(weight update (over|under)flows|votes overflow)",
                                 str(error)), error
                continue
            init = c if algorithm == "CGA" else [1.0] * n
            weights = [v / sum(init) for v in init]
            for t, (stump, alpha) in enumerate(zip(classifier.stumps, classifier.alphas), 1):
                where = (algorithm, t, stump)
                assert stump in candidates, where
                pick = candidates.index(stump)
                lo, hi, polarity = selection_bounds(algorithm, candidates, predictions, features,
                                                    labels, weights, costs, rounds)
                if polarity is None:
                    assert_least(pick, lo, hi, where)
                elif assert_least(pick // 2, lo, hi, where) and polarity[pick // 2]:
                    assert stump.polarity == polarity[pick // 2], where
                weights = reference_round(algorithm, stump, alpha, weights, features, labels,
                                          costs, rounds)[4]


class TestSolveCsaAlpha:
    def test_closed_form_equal_costs(self):
        alpha = solve_csa_alpha((0.4, 0.1, 0.4, 0.1), UNIT)
        assert alpha == 0.5 * np.log(0.8 / 0.2)

    def test_symmetric_masses_give_zero(self):
        assert solve_csa_alpha((0.3, 0.3, 0.2, 0.2), UNIT) == 0.0
        assert solve_csa_alpha((0.3, 0.3, 0.2, 0.2), CostPair(1, 2)) == 0.0

    def test_matches_fine_grid_scan(self):
        masses = (0.3, 0.2, 0.3, 0.2)
        costs = CostPair(1, 2)
        alpha = solve_csa_alpha(masses, costs)
        grid = np.arange(-10.0, 10.0, 1e-6)
        losses = csa_loss(grid, masses, costs)
        assert abs(alpha - grid[int(np.argmin(losses))]) < 1e-6

    def test_stationarity_tolerance(self):
        def dloss(a, m, c):
            b_p, d_p, b_n, d_n = m
            return (c.c_pos * (d_p * np.exp(a * c.c_pos) - b_p * np.exp(-a * c.c_pos))
                    + c.c_neg * (d_n * np.exp(a * c.c_neg) - b_n * np.exp(-a * c.c_neg)))

        rng = np.random.default_rng(17)
        for _ in range(300):
            masses = rng.uniform(0.01, 1.0, size=4)
            costs = CostPair(*rng.uniform(0.5, 100.0, size=2))
            alpha = solve_csa_alpha(masses, costs)
            assert abs(dloss(alpha, masses, costs)) < 1e-12 * csa_loss(alpha, masses, costs)

    def test_beats_random_probes(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            masses = rng.uniform(0.01, 1.0, size=4)
            costs = CostPair(*rng.uniform(0.5, 10.0, size=2))
            alpha = solve_csa_alpha(masses, costs)
            value = csa_loss(alpha, masses, costs)
            probes = rng.uniform(-10, 10, size=1000)
            assert value <= csa_loss(probes, masses, costs).min() + 1e-12

    def test_empty_sides_are_floored(self):
        alpha = solve_csa_alpha((0.5, 0.0, 0.5, 0.0), UNIT)
        assert alpha == 0.5 * np.log(1.0 / 2e-10)
        # an exact-zero mass adds 0 where its exp overflows (alpha c > 709),
        # not 0 * inf = NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = csa_loss(710.0, np.array((0.5, 0.0, 0.5, 0.0)), UNIT)
        assert 0.0 < loss == 0.5 * np.exp(-710.0) + 0.5 * np.exp(-710.0)

    @pytest.mark.parametrize("costs", [CostPair(1, 1e308), CostPair(1.7e308, 2)])
    def test_largest_costs_solve(self, costs):
        # log2(16 max(c)) once overflowed here: every CSA cell at a cost
        # above about 1.1e307 failed with an OverflowError
        masses = np.array((0.4, 0.1, 0.3, 0.2))
        expected = full_batch_alphas(*masses[:, None], costs)[0][0]
        assert repr(solve_csa_alpha(masses, costs)) == repr(float(expected))

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            solve_csa_alpha((-0.1, 0.4, 0.4, 0.3), UNIT)

    @pytest.mark.parametrize("costs", [UNIT, CostPair(1, 3)])
    @pytest.mark.parametrize("masses", [(np.nan, 0.2, 0.3, 0.1), (np.inf, 0.2, 0.3, 0.1),
                                        (0.4, 0.2, 0.3, -np.inf), (0.4, np.nan, np.inf, 0.1),
                                        (0.4, 0.2, 0.3), (0.4, 0.2, 0.3, 0.1, 0.0),
                                        np.full((4, 2), 0.25)])
    def test_rejects_non_finite_mass(self, masses, costs):
        # a NaN mass once came back as a finite alpha, an infinite one as
        # the saturated bracket; the masses are four numbers, no other shape
        with pytest.raises(ValueError, match="finite"):
            solve_csa_alpha(masses, costs)

    @pytest.mark.parametrize("masses, costs", [
        # the scalar closed form once took math.log, a last bit apart from
        # the sweep's np.log here
        ((0.6305477469033755, 0.28791769344669665, 0.23377711617344385, 0.6108475006128905),
         UNIT),
        ((0.4, 0.1, 0.3, 0.2), CostPair(1, 2)),
        ((0.25, 0.25, 0.5, 0.0), CostPair(1, 2)),
        ((0.4, 0.1, 0.3, 0.2), CostPair(1, 1e4)),
        ((0.5, 0.0, 0.25, 0.25), CostPair(1, 1e4)),
        ((0.4, 0.1, 0.3, 0.2), CostPair(1e45, 2e45)),
        ((0.3, 0.3, 0.0, 1e-300), CostPair(1e45, 2e45)),
    ])
    def test_is_the_sweep_solve(self, masses, costs):
        block = _floor_mass_groups(np.array(masses, dtype=float)[:, None])
        expected = float(_csa_alpha_arrays(block, costs)[1][0])
        assert repr(solve_csa_alpha(masses, costs)) == repr(expected)


def full_batch_alphas(b_p, d_p, b_n, d_n, costs):
    """The CSA solve without pruning: every candidate bracketed and bisected
    to the end. Also returns, per element, the bisection updates made
    before its midpoint first got stuck (200 at the cap) and whether a
    derivative evaluated exactly 0."""
    c_p, c_n = costs.c_pos, costs.c_neg
    updates = np.zeros(b_p.size, dtype=int)
    zero = np.zeros(b_p.size, dtype=bool)
    if c_p == c_n:
        return np.log((b_p + b_n) / (d_p + d_n)) / (2.0 * c_p), updates, zero

    def _term(coef, exponent):
        return np.where(coef > 0.0, coef * np.exp(exponent), 0.0)

    def dloss(a):
        return c_p * (_term(d_p, a * c_p) - _term(b_p, -a * c_p)) + c_n * (
            _term(d_n, a * c_n) - _term(b_n, -a * c_n)
        )

    lo = np.full_like(b_p, -1.0, dtype=float)
    hi = np.full_like(b_p, 1.0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            down = dloss(lo) > 0
            hi = np.where(down, lo, hi)
            lo = np.where(down, lo * 2.0, lo)
            up = dloss(hi) < 0
            lo = np.where(up, hi, lo)
            hi = np.where(up, hi * 2.0, hi)
            if not (down.any() or up.any()):
                break
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            stuck = (mid == lo) | (mid == hi)
            if stuck.all():
                break
            g = dloss(mid)
            updates += ~stuck
            zero |= g == 0
            hi = np.where(g >= 0, mid, hi)
            lo = np.where(g <= 0, mid, lo)
    return 0.5 * (lo + hi), updates, zero


def full_batch_csa_select(columns, weights, costs):
    """``_csa_select`` over the full batch, with its (loss, plain error,
    feature, threshold, polarity +1) tie-break."""
    _selection_mass(weights, None, columns.mass[:-1])
    masses = _class_block(columns)
    floored = _floor_mass_groups(masses)
    alphas = full_batch_alphas(*floored, costs)[0]
    losses = csa_loss(alphas, floored, costs)
    b_p, d_p, b_n, d_n = masses
    err_plus = d_p + d_n
    err_minus = b_p + b_n
    candidates = np.flatnonzero(losses == losses.min())
    pair_err = np.minimum(err_plus[candidates], err_minus[candidates])
    j = candidates[np.flatnonzero(pair_err == pair_err.min())[0]]
    polarity = 1 if err_plus[j] <= err_minus[j] else -1
    alpha = float(alphas[j]) if polarity == 1 else -float(alphas[j])
    return _cut_stump(columns, columns.below[j], polarity), alpha


QUADRUPLES = np.array([(0.4, 0.1, 0.3, 0.2), (0.3, 0.3, 0.2, 0.2), (0.1, 0.4, 0.2, 0.3),
                       (0.25, 0.25, 0.5, 0.0), (0.5, 0.0, 0.25, 0.25), (0.3, 0.3, 0.0, 1e-300)])


def tied_batch(costs):
    """``QUADRUPLES`` scaled to a minimal loss of 1 up to rounding, which no
    bound can part, and a batch of them with copies at twice that loss,
    which can be dropped. Its solve holds early stops, exactly zero
    derivatives and, at huge costs, stops at the 200-update cap."""
    minima = [csa_loss(solve_csa_alpha(q, costs), q, costs) for q in QUADRUPLES]
    best = QUADRUPLES / np.array(minima)[:, None]
    return best, np.concatenate([2.0 * best[:3], best, 2.0 * best[3:]])


TARGETS = ("lo", "hi", "nan", "inf", "-inf", "random")


def target_hint(target, rng):
    """A stand-in for ``_newton_hint`` that aims the descent at ``target``."""
    def hint(lo, hi, masses, rates):
        fixed = {"lo": lo, "hi": hi, "nan": np.nan, "inf": np.inf, "-inf": -np.inf}
        if target == "random":
            return lo + rng.random(lo.size) * (hi - lo)
        return np.broadcast_to(fixed[target], lo.shape)
    return hint


def solve_aimed_at(masses, costs, target, rng):
    """``_csa_alpha_arrays`` with its descent aimed at ``target``."""
    with mock.patch.object(boosting, "_newton_hint", target_hint(target, rng)):
        return _csa_alpha_arrays(masses, costs)


class TestPrunedCsaSelection:
    """The pruned solve selects what a full solve of the batch selects,
    stump and alpha bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=24),
        n_features=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        costs=st.sampled_from([(1, 100), (50, 1), (1, 10), (3, 2), (1, 1e4), (1e4, 1)])
        | st.tuples(st.floats(0.05, 200.0), st.floats(0.05, 200.0)),
        mass=st.sampled_from(["random", "no_positive", "no_negative", "one_sample"]),
        duplicate=st.booleans(),
    )
    # an exact-zero mass whose exp overflows once made the loss NaN and the
    # selection raise
    @example(n=4, n_features=5, seed=0, costs=(0.0625, 29.0), mass="random", duplicate=False)
    @example(n=12, n_features=1, seed=0, costs=(29.0, 0.0625), mass="no_positive",
             duplicate=False)
    def test_matches_full_batch(self, n, n_features, seed, costs, mass, duplicate):
        rng = np.random.default_rng(seed)
        features = rng.integers(0, 6, size=(n, n_features)).astype(float)
        if duplicate and n_features > 1:
            features[:, -1] = features[:, 0]  # exact loss ties across features
        labels = rng.choice([-1, 1], size=n)
        weights = rng.random(n) * (rng.random(n) < 0.8)
        # one-sided masses leave whole sides empty, which the floor fills
        if mass == "no_positive":
            weights[labels > 0] = 0.0
        elif mass == "no_negative":
            weights[labels < 0] = 0.0
        elif mass == "one_sample":
            weights = np.where(np.arange(n) == rng.integers(n), 1.0, 0.0)
        costs = CostPair(*costs)
        columns = sort_columns(features, labels)
        stump, alpha = _csa_select(columns, weights, costs)
        expected_stump, expected_alpha = full_batch_csa_select(columns, weights, costs)
        assert stump == expected_stump
        assert repr(alpha) == repr(expected_alpha)

    @pytest.mark.parametrize("costs", [CostPair(1, 100), CostPair(50, 1), CostPair(1, 1e4),
                                       CostPair(1e4, 1)])
    def test_full_size_bayes_rounds_match_full_batch(self, costs):
        # a pruning bound with a sign slip passed small sweeps but picked
        # another stump at round 9 here, at a 1.8e-5 relative loss gap
        data = gen_bayes(500, 500, seed=3)
        features, labels = data.features[:666], data.labels[:666]
        columns = sort_columns(features, labels)
        weights = init_weights("CSA", labels, costs)
        for t in range(12):
            result = boost_round("CSA", weights, features, labels, costs, 12, columns=columns)
            expected_stump, expected_alpha = full_batch_csa_select(columns, weights, costs)
            assert result.stump == expected_stump, t
            assert repr(result.alpha) == repr(expected_alpha), t
            weights = result.weights

    def test_zero_mass_past_the_exp_range_bounds_by_zero(self):
        # the second candidate's zero d_n mass meets exp(1e4 * 0.25) = inf at
        # hi: as 0 * inf its bound was NaN, which kept the candidate
        rates = _rates(CostPair(1, 1e4))[:, None]
        masses = np.array([(0.49, 0.01, 0.5, 0.0), (0.1, 0.4, 0.5, 0.0)]).T
        with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf, masked by _terms
            live = _can_still_win(np.array((1.9, 0.0)), np.array((2.0, 0.25)), masses, rates)
        assert live.tolist() == [True, False]

    @pytest.mark.parametrize("costs, capped", [(CostPair(1, 2), False),
                                               (CostPair(1e45, 2e45), True)])
    def test_batch_does_not_change_an_element(self, costs, capped):
        best, batch = tied_batch(costs)
        alone = [solve_csa_alpha(q, costs) for q in batch]

        kept, alphas = _csa_alpha_arrays(batch.T, costs)
        assert set(range(3, 3 + len(best))) <= set(kept.tolist())
        assert kept.size < len(batch)
        for index, alpha in zip(kept, alphas):
            assert repr(float(alpha)) == repr(alone[index])

        # the batch holds early stops, exactly zero derivatives and, at
        # the huge costs, stops at the 200-update cap
        _, updates, zero = full_batch_alphas(*batch.T, costs)
        assert (updates < 200).any() and zero.any()
        assert (updates == 200).any() == capped


class TestCsaDescent:
    """The descent's target only sets how far it gets: whatever it is,
    every element stops where plain bisection stops it."""

    @settings(max_examples=150, deadline=None)
    @given(
        masses=st.lists(st.tuples(*[st.sampled_from([0.0, 1e-300]) | st.floats(0.0, 1.0)] * 4),
                        min_size=1, max_size=12),
        costs=st.sampled_from([(1, 10), (10, 1), (1, 100), (3, 2), (1e45, 2e45)])
        | st.tuples(st.floats(0.05, 200.0), st.floats(0.05, 200.0)),
        target=st.sampled_from(TARGETS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        copies=st.integers(min_value=1, max_value=3),
    )
    def test_any_target_gives_the_full_batch_bits(self, masses, costs, target, seed, copies):
        costs = CostPair(*costs)
        # copies of a column are solved once and must all get its bits
        block = np.tile(_floor_mass_groups(np.array(masses).T), copies)
        kept, alphas = solve_aimed_at(block, costs, target, np.random.default_rng(seed))
        expected = full_batch_alphas(*block, costs)[0][kept]
        assert [repr(float(a)) for a in alphas] == [repr(float(a)) for a in expected]

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.tuples(*[st.sampled_from([0.0, 1e-300])
                                            | st.floats(0.0, 1.0)] * 4),
                                st.floats(-30.0, 30.0), st.floats(-30.0, 30.0),
                                st.integers(min_value=0, max_value=200)),
                      min_size=1, max_size=8),
        costs=st.sampled_from([(1, 10), (3, 2), (1e45, 2e45)]),
        target=st.sampled_from(TARGETS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # the path's midpoints in [-1.1, 0.2] round apart from bisection's
    @example(rows=[((0.7, 0.4, 0.1, 0.7), -1.1, 0.2, 0)], costs=(3, 2), target="hi", seed=0)
    @example(rows=[((0.0, 0.0, 1e-300, 0.0), 0.0, -1.0, 0)], costs=(1, 10), target="lo", seed=0)
    # capped after 10 more updates, the descent's included
    @example(rows=[((0.4, 0.1, 0.3, 0.2), -1.0, 1.0, 190)], costs=(1e45, 2e45), target="random",
             seed=0)
    def test_descent_keeps_only_bisection_steps(self, rows, costs, target, seed):
        # any bracket, not only the doubling's powers of two, so that the
        # path's midpoints can round apart from the recomputed ones
        masses, a, b, updates = (np.array(column) for column in zip(*rows))
        block = _floor_mass_groups(masses.T)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        rates = _rates(CostPair(*costs))[:, None]
        hint = target_hint(target, np.random.default_rng(seed))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            plain = _bisect(lo, hi, updates, 200, block, rates)
            descended = _descend(lo, hi, updates, hint(lo, hi, block, rates), block, rates)
            assert (descended[2] <= 200).all()
            after = _bisect(*descended, 200, block, rates)
        # a stuck midpoint fixes the result, 0.5 * (lo + hi), not the bracket
        assert [repr(float(a)) for a in 0.5 * (after[0] + after[1])] == [
            repr(float(a)) for a in 0.5 * (plain[0] + plain[1])]

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("costs", [CostPair(1, 2), CostPair(1e45, 2e45)])
    def test_tied_batch_under_any_target(self, costs, target):
        _, batch = tied_batch(costs)
        kept, alphas = solve_aimed_at(batch.T, costs, target, np.random.default_rng(3))
        expected = full_batch_alphas(*batch.T, costs)[0][kept]
        assert kept.size < len(batch)
        assert [repr(float(a)) for a in alphas] == [repr(float(a)) for a in expected]

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=40),
        levels=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        costs=st.sampled_from([(1, 10), (10, 1), (3, 2), (1e45, 2e45)]),
        spread=st.sampled_from([1e-3, 1.0, 100.0]),
    )
    def test_block_shape_does_not_change_an_element(self, k, levels, seed, costs, spread):
        # the descent evaluates the derivative on a (4, k, levels) block,
        # a bisection step on (4, k): each element must get the same bits
        rng = np.random.default_rng(seed)
        masses = rng.random((4, k)) * (rng.random((4, k)) < 0.8)
        alpha = rng.normal(scale=spread / costs[1], size=(k, levels))
        rates = _rates(CostPair(*costs))[:, None]
        with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf, masked by _terms
            block = _slope(masses[..., None], rates[..., None], alpha)
            steps = [_slope(masses, rates, alpha[:, level]) for level in range(levels)]
        assert block.tobytes() == np.column_stack(steps).tobytes()


class TestAdjustThreshold:
    def test_perfectly_ranked_scores(self):
        scores = np.array([-2.0, -1.0, 1.0, 2.0])
        labels = np.array([-1, -1, 1, 1])
        theta = adjust_threshold(scores, labels, UNIT)
        pred = np.where(scores >= theta, 1, -1)
        assert np.array_equal(pred, labels)

    def test_identical_scores_pick_cheaper_constant(self):
        scores = np.zeros(6)
        labels = np.array([1, 1, 1, -1, -1, -1])
        theta = adjust_threshold(scores, labels, CostPair(1, 100))
        # all-negative (theta above the common score) costs PCF < 1 - PCF
        assert theta == 1.0

    @pytest.mark.parametrize("kind, seed, costs", [
        pytest.param("normal", 31, (1, 5), id="normal-31"),
        pytest.param("normal", 3, (1, 1), id="normal-3"),
        pytest.param("normal", 12, (10, 1), id="normal-12"),
        pytest.param("integer", 8, (1, 5), id="integer-8"),
        pytest.param("integer", 19, (1, 1), id="integer-19"),
        pytest.param("integer", 40, (3, 2), id="integer-40"),
    ])
    def test_matches_exhaustive_scan(self, kind, seed, costs):
        rng = np.random.default_rng(seed)
        # integer-valued scores repeat, so distinct cuts pool tied samples
        scores = (rng.normal(size=12) if kind == "normal"
                  else rng.integers(-3, 4, size=12).astype(float))
        labels = rng.choice([-1, 1], size=12)
        if abs(labels.sum()) == 12:
            labels[0] = -labels[0]
        costs = CostPair(*costs)
        theta = adjust_threshold(scores, labels, costs)

        p = pcf(costs, 0.5)
        n_pos = np.sum(labels > 0)
        n_neg = np.sum(labels < 0)

        def nec_at(t):
            pred = np.where(scores >= t, 1, -1)
            fnr = np.sum((labels > 0) & (pred < 0)) / n_pos
            fpr = np.sum((labels < 0) & (pred > 0)) / n_neg
            return fnr * p + fpr * (1 - p)

        distinct = np.unique(scores)
        candidates = np.concatenate(
            ([distinct[0] - 1], (distinct[:-1] + distinct[1:]) / 2, [distinct[-1] + 1])
        )
        necs = [nec_at(t) for t in candidates]
        best = min(necs)
        # least NEC, then smallest |t|, then smallest t
        pick = min((abs(t), t) for t, value in zip(candidates, necs) if value == best)[1]
        assert theta == pick
        assert nec_at(theta) == best

    def test_ties_prefer_smallest_magnitude(self):
        # any threshold inside the gap separates perfectly; |t| decides
        scores = np.array([-3.0, -1.0, 1.0, 3.0])
        labels = np.array([-1, -1, 1, 1])
        theta = adjust_threshold(scores, labels, UNIT)
        assert theta == 0.0

    def test_separates_adjacent_floats(self):
        # the plain midpoint rounds onto 1.0, where both score +1 (NEC 0.5);
        # the cut lies in (lower, upper], as score >= t reads it
        upper = np.nextafter(1.0, 2.0)
        theta = adjust_threshold(np.array([1.0, upper]), np.array([-1, 1]), UNIT)
        assert theta == upper

    def test_cut_between_opposite_scores_is_positive_zero(self):
        # the mirrored rule places this cut at -(+0); the pinned ensembles
        # spell thresholds out by repr, where -0.0 and 0.0 differ
        theta = adjust_threshold(np.array([-1.0, 1.0]), np.array([-1, 1]), UNIT)
        assert repr(theta) == "0.0"

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="classes"):
            adjust_threshold(np.array([1.0, 2.0]), np.array([1, 1]), UNIT)

    @pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_scores(self, score):
        with pytest.raises(ValueError, match="scores must be finite"):
            adjust_threshold(np.array([score, 1.0, 2.0]), np.array([1, -1, 1]), UNIT)

    def test_scaling_costs_leaves_argmin(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=20)
        labels = rng.choice([-1, 1], size=20)
        labels[:2] = [1, -1]
        base = adjust_threshold(scores, labels, CostPair(2, 5))
        for lam in (2.0, 3.0, 0.5):
            assert adjust_threshold(scores, labels, CostPair(2 * lam, 5 * lam)) == base


class TestTrainEnsemble:
    def test_single_round_is_a_single_stump(self):
        features, labels = fixed_instance(10, 2, seed=1)
        for algorithm in ALGORITHM_IDS:
            classifier, trace = train_ensemble(
                algorithm, features, labels, CostPair(2, 1), rounds=1
            )
            assert classifier.trained_rounds == 1
            assert len(classifier.stumps) == len(classifier.alphas) == 1
            assert len(trace) == 1

    def test_cost_init_reduces_to_plain_at_unit_costs(self):
        data = gen_bayes(50, 50, seed=19)
        ref, _ = train_ensemble("ADA", data.features, data.labels, UNIT, rounds=20)
        got, _ = train_ensemble("CGA", data.features, data.labels, UNIT, rounds=20)
        assert got.stumps == ref.stumps
        np.testing.assert_allclose(got.alphas, ref.alphas, rtol=1e-12)

    def test_exponential_bound_on_prefixes(self):
        features, labels = fixed_instance(20, 3, seed=29)
        classifier, trace = train_ensemble("ADA", features, labels, UNIT, rounds=5)
        w0 = np.full(20, 1 / 20)
        score = np.zeros(20)
        bound = 1.0
        for t in range(5):
            score += classifier.alphas[t] * predict_matrix(classifier.stumps[t], features)
            bound *= trace.zs[t]
            pred = np.where(score >= 0, 1, -1)
            train_err = float(np.sum(w0[pred != labels]))
            assert train_err <= bound + 1e-12
            if classifier.alphas[t] > 0 and np.all(score != 0):
                assert train_err < bound

    @pytest.mark.parametrize("costs", [CostPair(1.7e308, 1.7e308), CostPair(1.6e308, 1.6e308)])
    def test_weight_update_overflow_is_named(self, costs):
        # unchecked, the overflowed weights fail the next round as "weights
        # must have a positive total", which hides the cause; here the
        # mistakes' positive weights times c sum past the float range
        features, labels = np.arange(12.0)[:, None], np.array([1, -1] * 6)
        message = re.escape(f"CB1 weight update overflows at {costs!r}")
        with pytest.raises(ValueError, match=message):
            train_ensemble("CB1", features, labels, costs, rounds=3)

    @pytest.mark.parametrize("costs", [CostPair(1, 1e4), CostPair(1e4, 1)])
    def test_weight_update_masks_underflowed_weights(self, costs):
        # a weight that underflowed to 0 may meet an exponent above 709;
        # its term is 0, not 0 * inf = NaN, so training completes
        data = gen_bayes(20, 20, seed=1)
        classifier, trace = train_ensemble("CSA", data.features, data.labels, costs, rounds=20)
        assert classifier.trained_rounds == 20
        assert all(np.isfinite(z) and z > 0 for z in trace.zs)

    def test_trace_is_fully_populated(self):
        features, labels = fixed_instance(16, 2, seed=3)
        classifier, trace = train_ensemble("CB2", features, labels, CostPair(1, 3), rounds=7)
        assert len(classifier.alphas) == len(trace.zs) == len(trace.train_nec) == 7
        assert len(trace.train_ca) == 7
        assert all(z > 0 for z in trace.zs)
        assert all(0.0 <= v <= 1.0 for v in trace.train_nec)
        assert all(np.isnan(v) or 0.0 <= v <= 1.0 for v in trace.train_ca)

    def test_adacost_negative_alpha_is_preserved(self):
        data = gen_bayes(30, 30, seed=0)
        classifier, _ = train_ensemble("ADC", data.features, data.labels,
                                       CostPair(1, 10), rounds=15)
        assert min(classifier.alphas) < 0

    def test_threshold_variant_never_worse_on_training_nec(self):
        data = gen_bayes(40, 40, seed=8)
        costs = CostPair(1, 7)
        classifier, _ = train_ensemble("ABT", data.features, data.labels, costs,
                                       rounds=15)
        scores = decision_scores(classifier, data.features)
        p = pcf(costs, 0.5)

        def nec_at(theta):
            pred = np.where(scores - theta >= 0, 1, -1)
            fnr = np.mean(pred[data.labels > 0] < 0)
            fpr = np.mean(pred[data.labels < 0] > 0)
            return fnr * p + fpr * (1 - p)

        assert nec_at(classifier.decision_threshold) <= nec_at(0.0) + 1e-15

    def test_cost_scaling_invariance_of_cost_init(self):
        data = gen_bayes(30, 30, seed=14)
        base, _ = train_ensemble("CGA", data.features, data.labels,
                                 CostPair(1, 5), rounds=10)
        for lam in (2.0, 3.0):
            scaled, _ = train_ensemble("CGA", data.features, data.labels,
                                       CostPair(lam, 5 * lam), rounds=10)
            assert scaled.stumps == base.stumps
            np.testing.assert_allclose(scaled.alphas, base.alphas, rtol=1e-12)

    def test_deterministic(self):
        features, labels = fixed_instance(18, 2, seed=44)
        first, _ = train_ensemble("CSA", features, labels, CostPair(2, 3), rounds=6)
        second, _ = train_ensemble("CSA", features, labels, CostPair(2, 3), rounds=6)
        assert first.stumps == second.stumps
        assert first.alphas == second.alphas

    @pytest.mark.parametrize("defect", ["nan_feature", "labels_0_1", "labels_2_minus1"])
    def test_csa_rejects_invalid_training_inputs(self, defect):
        features, labels = fixed_instance(8, 2, seed=6)
        if defect == "nan_feature":
            features[3, 1] = np.nan
        elif defect == "labels_0_1":
            labels = np.where(labels > 0, 1, 0)
        else:
            labels = np.where(labels > 0, 2, -1)
        with pytest.raises(ValueError):
            train_ensemble("CSA", features, labels, CostPair(1, 3), rounds=2)

    @pytest.mark.parametrize("algorithm", ["ADA", "AC3", "CSA"])
    @pytest.mark.parametrize("rounds", [1, 7])
    def test_sorts_columns_once_per_ensemble(self, monkeypatch, algorithm, rounds):
        import costboost.boosting as boosting
        import costboost.stumps as stumps

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return sort_columns(*args, **kwargs)

        monkeypatch.setattr(boosting, "sort_columns", counted)
        monkeypatch.setattr(stumps, "sort_columns", counted)
        features, labels = fixed_instance(20, 3, seed=8)
        _, trace = train_ensemble(algorithm, features, labels, CostPair(1, 3), rounds)
        assert len(trace) == rounds
        assert len(calls) == 1

    @pytest.mark.parametrize("algorithm", ["ADA", "CSA"])
    def test_given_columns_are_not_sorted_again(self, monkeypatch, algorithm):
        import costboost.boosting as boosting
        import costboost.stumps as stumps

        features, labels = fixed_instance(20, 3, seed=8)
        columns = sort_columns(features, labels)
        expected = train_ensemble(algorithm, features, labels, CostPair(1, 3), 5)

        def unreachable(*args, **kwargs):
            raise AssertionError("sorted again")

        monkeypatch.setattr(boosting, "sort_columns", unreachable)
        monkeypatch.setattr(stumps, "sort_columns", unreachable)
        given = train_ensemble(algorithm, features, labels, CostPair(1, 3), 5, columns=columns)
        assert repr(given) == repr(expected)

    @pytest.mark.parametrize("rounds", [1, 9])
    def test_calls_boost_round_once_per_round(self, monkeypatch, rounds):
        import costboost.boosting as boosting

        calls = []

        def counted(*args, **kwargs):
            # benchmark spans read the algorithm and the features by position
            calls.append((args[0], args[2]))
            return boost_round(*args, **kwargs)

        monkeypatch.setattr(boosting, "boost_round", counted)
        features, labels = fixed_instance(20, 3, seed=8)
        for columns in (None, sort_columns(features, labels)):
            calls.clear()
            train_ensemble("AC2", features, labels, CostPair(1, 3), rounds, columns=columns)
            assert [algorithm for algorithm, _ in calls] == ["AC2"] * rounds
            assert all(np.array_equal(seen, features) for _, seen in calls)

    @pytest.mark.parametrize("algorithm", ["ADA", "CSA", "CGA"])
    @pytest.mark.parametrize("label", [1, -1])
    def test_one_class_set_fails_before_any_round(self, monkeypatch, algorithm, label):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return boost_round(*args, **kwargs)

        monkeypatch.setattr(boosting, "boost_round", counted)
        features, labels = fixed_instance(6, 2, seed=4)[0], np.full(6, label)
        for columns in (None, sort_columns(features, labels)):
            with pytest.raises(ValueError, match="both classes must be present"):
                train_ensemble(algorithm, features, labels, CostPair(1, 3), 25, columns=columns)
        assert calls == []
        # a single round, and the stump search under it, take such a set
        columns = sort_columns(features, labels)
        boost_round(algorithm, np.full(6, 1 / 6), features, labels, CostPair(1, 3), 25,
                    columns=columns)
        _csa_select(columns, np.full(6, 1 / 6), CostPair(1, 3))

    @pytest.mark.parametrize("algorithm", ALGORITHM_IDS)
    @pytest.mark.parametrize("rounds", [1, 9])
    def test_builds_one_rule_per_ensemble(self, monkeypatch, algorithm, rounds):
        import costboost.boosting as boosting

        rule = boosting._rule
        rules, rounds_seen = [], []

        def counted_rule(*args, **kwargs):
            rules.append(args[0])
            return rule(*args, **kwargs)

        def counted_round(*args, **kwargs):
            rounds_seen.append(args[0])
            return boost_round(*args, **kwargs)

        monkeypatch.setattr(boosting, "_rule", counted_rule)
        monkeypatch.setattr(boosting, "boost_round", counted_round)
        features, labels = fixed_instance(20, 3, seed=8)
        train_ensemble(algorithm, features, labels, CostPair(1, 3), rounds)
        assert rules == [algorithm]
        assert rounds_seen == [algorithm] * rounds

    @pytest.mark.parametrize("algorithm", ALGORITHM_IDS)
    def test_calls_train_stump_once_per_non_csa_round(self, monkeypatch, algorithm):
        import costboost.boosting as boosting

        shapes = []

        def counted(*args, **kwargs):
            # benchmark spans read the feature matrix's shape by position
            shapes.append(args[0].shape)
            return train_stump(*args, **kwargs)

        monkeypatch.setattr(boosting, "train_stump", counted)
        features, labels = fixed_instance(20, 3, seed=8)
        train_ensemble(algorithm, features, labels, CostPair(1, 3), 4)
        assert shapes == ([] if algorithm == "CSA" else [(20, 3)] * 4)

    def test_rejects_zero_rounds(self):
        features, labels = fixed_instance(6, 1, seed=0)
        with pytest.raises(ValueError):
            train_ensemble("ADA", features, labels, UNIT, rounds=0)

    def test_cost_blind_variants_share_one_ensemble(self, monkeypatch):
        import costboost.boosting as boosting

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return boost_round(*args, **kwargs)

        monkeypatch.setattr(boosting, "boost_round", counted)
        features, labels = fixed_instance(20, 3, seed=8)
        cells = [("ADA", UNIT), ("ADA", CostPair(1, 10)), ("ABT", CostPair(10, 1)),
                 ("CGA", UNIT), ("CGA", CostPair(2, 2)), ("ABT", UNIT)]
        alone = [repr(train_ensemble(a, features, labels, c, 6)) for a, c in cells]
        calls.clear()
        columns = sort_columns(features, labels)
        assert alone == [repr(train_ensemble(a, features, labels, c, 6, columns=columns))
                         for a, c in cells]
        assert calls == ["ADA"] * 6
        assert len(columns.ensembles) == 1
        calls.clear()
        train_ensemble("CGA", features, labels, CostPair(1, 10), 6, columns=columns)
        train_ensemble("ADA", features, labels, UNIT, 7, columns=columns)
        assert calls == ["CGA"] * 6 + ["ADA"] * 7  # other initial weights, another budget

    @pytest.mark.parametrize("algorithm", ["ASB", "ADC", "CB0", "CB1", "CB2", "AC1", "AC2",
                                           "AC3", "CSA"])
    def test_cost_dependent_variants_never_reuse_rounds(self, monkeypatch, algorithm):
        import costboost.boosting as boosting

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return boost_round(*args, **kwargs)

        monkeypatch.setattr(boosting, "boost_round", counted)
        features, labels = fixed_instance(20, 3, seed=8)
        columns = sort_columns(features, labels)
        train_ensemble("ADA", features, labels, UNIT, 5, columns=columns)
        before = dict(columns.ensembles)
        for _ in range(2):
            got = train_ensemble(algorithm, features, labels, UNIT, 5, columns=columns)
            assert repr(got) == repr(train_ensemble(algorithm, features, labels, UNIT, 5))
        assert calls == ["ADA"] * 5 + [algorithm] * 20
        assert columns.ensembles == before

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cost_init_survives_a_cost_sum_past_the_float_range(self):
        # 12 costs of 1e308 sum to inf: scaled by the larger cost first,
        # the initial weights come out uniform, ADA's to the byte
        features, labels = np.arange(12.0)[:, None], np.array([1, -1] * 6)
        huge = CostPair(1e308, 1e308)
        assert init_weights("CGA", labels, huge).tobytes() == np.full(12, 1 / 12).tobytes()
        classifier, trace = train_ensemble("CGA", features, labels, huge, rounds=3)
        reference, _ = train_ensemble("ADA", features, labels, huge, rounds=3)
        assert repr(classifier) == repr(reference)
        assert all(np.isfinite(z) for z in trace.zs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("costs", [CostPair(1e300, 1e-300), CostPair(1e-300, 1e300),
                                       CostPair(1e308, 5e-324)])
    @pytest.mark.parametrize("rounds", [1, 6])
    def test_prescale_survives_a_cost_ratio_past_the_float_range(self, costs, rounds):
        # c_pos / c_neg over- or underflows; the shift comes from the logs
        features, labels = np.arange(12.0)[:, None], np.array([1, -1] * 6)
        classifier, trace = train_ensemble("ASB", features, labels, costs, rounds)
        assert classifier.trained_rounds == rounds
        assert all(np.isfinite(a) for a in classifier.alphas)
        assert all(np.isfinite(z) and z > 0 for z in trace.zs)
        # the pre-scale favours the costlier class, as a finite ratio does
        prescale = _rule("ASB", labels, costs, rounds).prescale
        costly = labels > 0 if costs.c_pos > costs.c_neg else labels < 0
        assert prescale[costly].min() > prescale[~costly].max()

    def test_unclamped_ensembles_match_golden(self):
        """Whole ensembles of all twelve variants, pinned byte for byte:
        the classifier and every per-round trace column."""
        data = gen_two_clouds(10, 10, seed=0)
        digest = sha256()
        for costs in (CostPair(1, 5), CostPair(10, 1), UNIT):
            for algorithm in ALGORITHM_IDS:
                classifier, trace = train_ensemble(algorithm, data.features, data.labels,
                                                   costs, rounds=8)
                digest.update(repr((
                    algorithm, costs, classifier.stumps,
                    [repr(a) for a in classifier.alphas],
                    repr(classifier.decision_threshold),
                    [repr(z) for z in trace.zs],
                    [repr(v) for v in trace.train_nec],
                    [repr(v) for v in trace.train_ca],
                    trace.degenerate_rounds,
                )).encode())
        assert digest.hexdigest() == (
            "e74e9462b84815477367b7b90f2d13362c4d3055981a1ad7f0ad453573fad683"
        )

    def test_csa_at_extreme_ratios_matches_golden(self):
        """CSA ensembles at cost ratios of 1e4 and 1e6, pinned byte for
        byte: there the pruning bound meets exact-zero masses whose exp
        overflows."""
        digest = sha256()
        for data in (gen_bayes(20, 20, seed=1), gen_two_clouds(20, 20, seed=1)):
            for costs in (CostPair(1, 1e4), CostPair(1e4, 1), CostPair(1, 1e6)):
                classifier, trace = train_ensemble("CSA", data.features, data.labels, costs,
                                                   rounds=40)
                digest.update(repr((classifier.stumps, classifier.alphas, trace.zs,
                                    trace.train_nec, trace.train_ca)).encode())
        assert digest.hexdigest() == (
            "27e699c984c2896a6be6a3220363727afebcf4c7aca36376a245e45bb4f26bc6"
        )


@st.composite
def small_training_sets(draw):
    """At most 14 rows and 3 columns, both classes present; each column
    normal, separable by class, constant, or drawn from three values."""
    n = draw(st.integers(min_value=2, max_value=14))
    kinds = draw(st.lists(st.sampled_from(["normal", "separable", "constant", "duplicate"]),
                          min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    labels = rng.choice([-1, 1], size=n)
    labels[:2] = (1, -1)
    make = {"normal": lambda: rng.normal(size=n),
            "separable": lambda: labels * (1.0 + rng.random(n)),
            "constant": lambda: np.full(n, 2.5),
            "duplicate": lambda: rng.integers(0, 3, size=n).astype(float)}
    return np.column_stack([make[kind]() for kind in kinds]), labels


log_uniform_costs = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(
    lambda exponents: CostPair(10.0 ** exponents[0], 10.0 ** exponents[1]))


def chained_rounds(algorithm, features, labels, costs, rounds, shared):
    """``train_ensemble``'s loop over ``boost_round``, every round's result
    kept; a ``ValueError`` comes back as its message. The rounds share one
    handle, and so its picks, when ``shared``; otherwise each round builds
    a fresh one, which has kept no pick."""
    columns = sort_columns(features, labels) if shared else None
    rule = _rule(algorithm, labels, costs, rounds)
    weights, results = rule.init, []
    try:
        for _ in range(rounds):
            result = boost_round(algorithm, weights, features, labels, costs, rounds,
                                 columns=columns, rule=rule)
            weights = result.weights
            results.append(result)
    except ValueError as error:
        return str(error)
    return results


def round_bytes(stump, alpha, z, degenerate, weights=None):
    """One round as bytes: -0.0 and 0.0, or two NaNs, do not compare equal."""
    floats = np.array([stump.threshold, alpha, z], dtype=float).tobytes()
    return (stump.feature_index, stump.polarity, floats, degenerate,
            None if weights is None else weights.tobytes())


def ensemble_bytes(algorithm, features, labels, costs, rounds, columns):
    """What ``train_ensemble`` returns, as bytes, or its ``ValueError``'s message."""
    try:
        classifier, trace = train_ensemble(algorithm, features, labels, costs, rounds,
                                           columns=columns)
    except ValueError as error:
        return str(error)
    arrays = (classifier.alphas, [s.threshold for s in classifier.stumps], trace.zs,
              trace.train_nec, trace.train_ca, [classifier.decision_threshold])
    return ([(s.feature_index, s.polarity) for s in classifier.stumps],
            [np.array(a, dtype=float).tobytes() for a in arrays], trace.degenerate_rounds)


class TestPickMemo:
    """Stump picks memoized by the bytes of their selection mass: inside an
    ensemble, and across ensembles through their first rounds."""

    @settings(max_examples=60, deadline=None)
    @given(data=small_training_sets(), costs=log_uniform_costs,
           rounds=st.integers(min_value=1, max_value=8))
    def test_memo_keeps_every_round_of_every_variant(self, data, costs, rounds):
        features, labels = data
        for algorithm in ALGORITHM_IDS:
            plain = chained_rounds(algorithm, features, labels, costs, rounds, False)
            memo = chained_rounds(algorithm, features, labels, costs, rounds, True)
            if isinstance(plain, str):
                assert memo == plain
                assert ensemble_bytes(algorithm, features, labels, costs, rounds, None) == plain
                continue
            assert ([round_bytes(r.stump, r.alpha, r.z, r.degenerate, r.weights) for r in memo]
                    == [round_bytes(r.stump, r.alpha, r.z, r.degenerate, r.weights)
                        for r in plain])
            classifier, trace = train_ensemble(algorithm, features, labels, costs, rounds)
            flags = [t in trace.degenerate_rounds for t in range(1, rounds + 1)]
            assert ([round_bytes(*row) for row in zip(classifier.stumps, classifier.alphas,
                                                       trace.zs, flags)]
                    == [round_bytes(r.stump, r.alpha, r.z, r.degenerate) for r in plain])

    @settings(max_examples=80, deadline=None)
    @given(data=small_training_sets(),
           pool=st.lists(log_uniform_costs, min_size=1, max_size=2),
           cells=st.lists(st.tuples(st.sampled_from(ALGORITHM_IDS), st.integers(0, 2)),
                          min_size=1, max_size=10),
           rounds=st.integers(min_value=1, max_value=6))
    def test_a_shared_handle_trains_every_cell_as_a_fresh_one(self, data, pool, cells, rounds):
        features, labels = data
        pool = [*pool, UNIT]  # cells draw from a few costs, so they share first rounds
        columns = sort_columns(features, labels)
        for count, (algorithm, index) in enumerate(cells, start=1):
            costs = pool[min(index, len(pool) - 1)]
            assert (ensemble_bytes(algorithm, features, labels, costs, rounds, columns)
                    == ensemble_bytes(algorithm, features, labels, costs, rounds, None))
            assert len(columns.picks) <= count

    def scans(self, monkeypatch):
        """The calls into the sum kernel, one per stump scan or CSA solve."""
        import costboost.stumps as stumps

        calls, total = [], stumps._sum

        def counted(columns):
            calls.append(1)
            return total(columns)

        monkeypatch.setattr(stumps, "_sum", counted)
        return calls

    def test_weights_that_stop_moving_are_scanned_once(self, monkeypatch):
        # CB0's step-0 update leaves the weights as they are once its stump
        # makes no mistake, so later rounds repeat a mass already scanned
        calls = self.scans(monkeypatch)
        features, labels = fixed_instance(20, 3, seed=8)
        expected = [round_bytes(r.stump, r.alpha, r.z, r.degenerate, r.weights) for r in
                    chained_rounds("CB0", features, labels, CostPair(1, 3), 4, False)]
        assert len(calls) == 4
        calls.clear()
        classifier, trace = train_ensemble("CB0", features, labels, CostPair(1, 3), 4)
        assert len(calls) < 4
        flags = [t in trace.degenerate_rounds for t in range(1, 5)]
        assert ([round_bytes(*row) for row in zip(classifier.stumps, classifier.alphas,
                                                   trace.zs, flags)]
                == [row[:4] + (None,) for row in expected])

    def test_a_first_round_another_ensemble_scanned_is_not_scanned_again(self, monkeypatch):
        calls = self.scans(monkeypatch)
        features, labels = fixed_instance(20, 3, seed=8)
        columns = sort_columns(features, labels)
        train_ensemble("ADA", features, labels, CostPair(1, 3), 4, columns=columns)
        assert len(calls) == 4
        calls.clear()
        # ADC selects on the weights alone, and starts from ADA's uniform ones
        alone = repr(train_ensemble("ADC", features, labels, CostPair(1, 3), 1))
        assert len(calls) == 1
        calls.clear()
        shared = repr(train_ensemble("ADC", features, labels, CostPair(1, 3), 1,
                                     columns=columns))
        assert calls == []
        assert shared == alone

    def test_the_handle_keeps_at_most_one_pick_per_ensemble(self):
        features, labels = fixed_instance(20, 3, seed=8)
        columns = sort_columns(features, labels)
        trained = 0
        for costs in (CostPair(1, 3), UNIT, CostPair(3, 1)):
            for algorithm in ALGORITHM_IDS:
                train_ensemble(algorithm, features, labels, costs, 6, columns=columns)
                trained += 1
                assert len(columns.picks) <= trained
        # the first rounds repeat: uniform weights at every cost, AC2 and
        # AC1 on the same selection mass at a cost pair, CSA at unit costs
        # on ADA's uniform mass but under its own key
        assert len(columns.picks) < trained

    @pytest.mark.parametrize("costs, n_pos, n_neg, seed, rounds, kept, message", [
        # round 1 picks, then its weight update underflows
        ((3.4e212, 1e308), 4, 6, 0, 1, 0, "CSA weight update underflows"),
        # all 8 rounds train, each on a new selection mass, then the summed
        # vote weights (each above 4e307) overflow
        ((1e-308, 1e-308), 12, 12, 13, 8, 1, "CSA votes overflow"),
    ], ids=["in-round-1", "after-round-8"])
    def test_an_ensemble_that_raises_keeps_at_most_its_first_pick(
            self, costs, n_pos, n_neg, seed, rounds, kept, message):
        data = gen_bayes(n_pos, n_neg, seed=seed)
        columns = sort_columns(data.features, data.labels)
        train_ensemble("ADA", data.features, data.labels, UNIT, 3, columns=columns)
        before = list(columns.picks.items())
        sizes = []

        def counted(*args, **kwargs):
            try:
                return boost_round(*args, **kwargs)
            finally:
                sizes.append(len(columns.picks))

        with mock.patch.object(boosting, "boost_round", counted):
            with pytest.raises(ValueError, match=message):
                train_ensemble("CSA", data.features, data.labels, CostPair(*costs), 8,
                               columns=columns)
        # every round added a pick, which the ensemble took back but the first
        assert sizes == list(range(len(before) + 1, len(before) + rounds + 1))
        assert list(columns.picks.items())[:len(before)] == before
        assert len(columns.picks) == len(before) + kept

    @pytest.mark.parametrize("costs", [CostPair(1, 3), UNIT, CostPair(10, 1)])
    def test_direct_rounds_on_one_handle_match_fresh_handles(self, costs):
        # a direct boost_round call keeps every pick in the handle it is given
        features, labels = fixed_instance(20, 3, seed=8)
        for algorithm in ALGORITHM_IDS:
            shared = chained_rounds(algorithm, features, labels, costs, 8, True)
            fresh = chained_rounds(algorithm, features, labels, costs, 8, False)
            assert ([round_bytes(r.stump, r.alpha, r.z, r.degenerate, r.weights) for r in shared]
                    == [round_bytes(r.stump, r.alpha, r.z, r.degenerate, r.weights)
                        for r in fresh])


class TestPredictEnsemble:
    """The vote of a trained ensemble, through ``decision_scores``."""

    def test_cutoff_prefixes_the_vote(self):
        data = gen_bayes(30, 30, seed=0)
        # ADC at these costs trains negative vote weights
        for algorithm, costs in (("CGA", CostPair(3, 1)), ("ADC", CostPair(1, 10))):
            classifier, _ = train_ensemble(algorithm, data.features, data.labels, costs,
                                           rounds=15)
            assert algorithm != "ADC" or min(classifier.alphas) < 0
            manual = np.zeros(data.labels.size)
            for cutoff in range(classifier.trained_rounds + 1):
                if cutoff:
                    manual += classifier.alphas[cutoff - 1] * predict_matrix(
                        classifier.stumps[cutoff - 1], data.features)
                partial = decision_scores(classifier, data.features, round_cutoff=cutoff)
                assert partial.tolist() == manual.tolist()

    def test_rejects_cutoff_beyond_training(self):
        features, labels = fixed_instance(8, 1, seed=54)
        classifier, _ = train_ensemble("ADA", features, labels, UNIT, rounds=2)
        with pytest.raises(ValueError):
            decision_scores(classifier, features, round_cutoff=3)


class TestUnitCostReductions:
    """At unit costs most variants must collapse onto plain AdaBoost."""

    @pytest.mark.parametrize("algorithm", ["AC1", "AC2", "AC3", "CB2", "CSA", "CGA", "ASB"])
    def test_reduction(self, algorithm):
        data = gen_bayes(60, 60, seed=77)
        ref, _ = train_ensemble("ADA", data.features, data.labels, UNIT, rounds=12)
        got, _ = train_ensemble(algorithm, data.features, data.labels, UNIT, rounds=12)
        assert got.stumps == ref.stumps
        for a, b in zip(ref.alphas, got.alphas):
            assert b == pytest.approx(a, rel=1e-12)
