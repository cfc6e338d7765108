from hashlib import sha256

import numpy as np
import pytest

from costboost.boosting import (
    ALGORITHM_IDS,
    CostPair,
    adjust_threshold,
    boost_round,
    csa_loss,
    decision_scores,
    init_weights,
    predict_ensemble,
    solve_csa_alpha,
    train_ensemble,
)
from costboost.datasets import gen_bayes, gen_two_clouds
from costboost.metrics import pcf
from costboost.stumps import ClassMasses, Stump, predict_matrix, sort_columns, stump_predict

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

    def test_update_matches_per_sample_recomputation(self):
        features, labels = fixed_instance(6, 2, seed=5)
        weights = np.array([0.1, 0.3, 0.15, 0.2, 0.05, 0.2])
        result = boost_round("ADA", weights, features, labels, UNIT, 3)

        # independent recomputation, one sample at a time
        raw = []
        for i in range(6):
            h = stump_predict(result.stump, features[i])
            raw.append(weights[i] * np.exp(-result.alpha * labels[i] * h))
        z = sum(raw)
        assert result.z == pytest.approx(z, rel=1e-12)
        for i in range(6):
            assert result.weights[i] == pytest.approx(raw[i] / z, rel=1e-12)

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


class TestSolveCsaAlpha:
    def test_closed_form_equal_costs(self):
        alpha = solve_csa_alpha(ClassMasses(0.4, 0.1, 0.4, 0.1), UNIT)
        assert alpha == 0.5 * np.log(0.8 / 0.2)

    def test_symmetric_masses_give_zero(self):
        assert solve_csa_alpha(ClassMasses(0.3, 0.3, 0.2, 0.2), UNIT) == 0.0
        assert solve_csa_alpha(ClassMasses(0.3, 0.3, 0.2, 0.2), CostPair(1, 2)) == 0.0

    def test_matches_fine_grid_scan(self):
        masses = ClassMasses(0.3, 0.2, 0.3, 0.2)
        costs = CostPair(1, 2)
        alpha = solve_csa_alpha(masses, costs)
        grid = np.arange(-10.0, 10.0, 1e-6)
        losses = csa_loss(grid, masses, costs)
        assert abs(alpha - grid[int(np.argmin(losses))]) < 1e-6

    def test_stationarity_tolerance(self):
        def dloss(a, m, c):
            return (c.c_pos * (m.d_p * np.exp(a * c.c_pos)
                               - m.b_p * np.exp(-a * c.c_pos))
                    + c.c_neg * (m.d_n * np.exp(a * c.c_neg)
                                 - m.b_n * np.exp(-a * c.c_neg)))

        rng = np.random.default_rng(17)
        for _ in range(300):
            masses = ClassMasses(*rng.uniform(0.01, 1.0, size=4))
            costs = CostPair(*rng.uniform(0.5, 100.0, size=2))
            alpha = solve_csa_alpha(masses, costs)
            assert abs(dloss(alpha, masses, costs)) < 1e-12 * csa_loss(
                alpha, masses, costs
            )

    def test_beats_random_probes(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            masses = ClassMasses(*rng.uniform(0.01, 1.0, size=4))
            costs = CostPair(*rng.uniform(0.5, 10.0, size=2))
            alpha = solve_csa_alpha(masses, costs)
            value = csa_loss(alpha, masses, costs)
            probes = rng.uniform(-10, 10, size=1000)
            assert value <= csa_loss(probes, masses, costs).min() + 1e-12

    def test_empty_sides_are_floored(self):
        alpha = solve_csa_alpha(ClassMasses(0.5, 0.0, 0.5, 0.0), UNIT)
        assert alpha == 0.5 * np.log(1.0 / 2e-10)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            solve_csa_alpha(ClassMasses(-0.1, 0.4, 0.4, 0.3), UNIT)


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

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="classes"):
            adjust_threshold(np.array([1.0, 2.0]), np.array([1, 1]), UNIT)

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

    @pytest.mark.parametrize("rounds", [1, 9])
    def test_calls_boost_round_once_per_round(self, monkeypatch, rounds):
        import costboost.boosting as boosting

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return boost_round(*args, **kwargs)

        monkeypatch.setattr(boosting, "boost_round", counted)
        features, labels = fixed_instance(20, 3, seed=8)
        train_ensemble("AC2", features, labels, CostPair(1, 3), rounds)
        assert calls == ["AC2"] * rounds

    def test_rejects_zero_rounds(self):
        features, labels = fixed_instance(6, 1, seed=0)
        with pytest.raises(ValueError):
            train_ensemble("ADA", features, labels, UNIT, rounds=0)

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


class TestPredictEnsemble:
    def test_single_stump_matches_stump_predict(self):
        features, labels = fixed_instance(10, 2, seed=51)
        classifier, _ = train_ensemble("ADA", features, labels, UNIT, rounds=1)
        stump = classifier.stumps[0]
        for row in features:
            assert predict_ensemble(classifier, row) == stump_predict(stump, row)

    def test_threshold_above_total_vote_forces_negative(self):
        features, labels = fixed_instance(10, 2, seed=52)
        classifier, _ = train_ensemble("ADA", features, labels, UNIT, rounds=3)
        classifier.decision_threshold = sum(abs(a) for a in classifier.alphas) + 1.0
        assert all(predict_ensemble(classifier, row) == -1 for row in features)

    def test_zero_margin_counts_positive(self):
        classifier, _ = train_ensemble(
            "ADA", np.array([[0.0], [1.0], [2.0], [3.0]]),
            np.array([-1, -1, 1, 1]), UNIT, rounds=1
        )
        classifier.alphas[0] = 0.0  # every score collapses to the threshold
        assert predict_ensemble(classifier, np.array([5.0])) == 1

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
            predict_ensemble(classifier, features[0], round_cutoff=3)


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
