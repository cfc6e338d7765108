import numpy as np
import pytest

from costboost.boosting import CostPair
from costboost.metrics import (
    ConfusionRates,
    classification_asymmetry,
    conditional_moments,
    confusion_rates,
    delta_table,
    nec,
    pcf,
)


class TestPcf:
    def test_symmetric(self):
        assert pcf(CostPair(1, 1), 0.5) == 0.5

    def test_heavy_false_positive_cost(self):
        # an all-negative classifier (FNR 1, FPR 0) scores exactly the PCF
        assert pcf(CostPair(1, 100), 0.5) == pytest.approx(1 / 101)
        rates = ConfusionRates(fnr=1.0, fpr=0.0, ce=0.5)
        assert nec(rates, CostPair(1, 100), 0.5) == pytest.approx(9.90e-3, rel=5e-3)

    def test_three_to_two(self):
        assert pcf(CostPair(3, 2), 0.5) == pytest.approx(0.6)

    def test_general_prior(self):
        assert pcf(CostPair(2, 1), 0.25) == pytest.approx(0.5 / (0.5 + 0.75))

    @pytest.mark.parametrize("costs, expected", [
        ((5e-324, 5e-324), 0.5),
        ((5e-324, 1e-323), 1 / 3),
        ((1e-323, 5e-324), 2 / 3),
    ], ids=["equal", "one-to-two", "two-to-one"])
    def test_subnormal_costs_keep_their_ratio(self, costs, expected):
        # 0.5 * 5e-324 rounds to 0: unscaled, the first divides 0 by 0
        assert pcf(CostPair(*costs), 0.5) == expected

    def test_scaling_small_costs_changes_no_bit(self):
        rng = np.random.default_rng(4)
        for c_pos, c_neg, prior in zip(rng.uniform(0.01, 0.99, 200),
                                       rng.uniform(0.01, 0.99, 200), rng.uniform(0.01, 0.99, 200)):
            num = prior * c_pos
            assert pcf(CostPair(c_pos, c_neg), prior) == num / (num + (1.0 - prior) * c_neg)

    def test_rejects_degenerate_prior(self):
        with pytest.raises(ValueError):
            pcf(CostPair(1, 1), 0.0)
        with pytest.raises(ValueError):
            pcf(CostPair(1, 1), 1.0)


class TestNec:
    def test_all_negative_reference_row(self):
        rates = ConfusionRates(fnr=0.620, fpr=0.0, ce=0.310)
        assert nec(rates, CostPair(1, 100), 0.5) == pytest.approx(0.620 / 101)

    def test_equal_rates_collapse(self):
        rates = ConfusionRates(fnr=0.3, fpr=0.3, ce=0.3)
        for costs in (CostPair(1, 1), CostPair(1, 100), CostPair(7, 2)):
            assert nec(rates, costs, 0.5) == pytest.approx(0.3)

    def test_threshold_adjusted_row(self):
        rates = ConfusionRates(fnr=8.43e-2, fpr=7.63e-2, ce=8.03e-2)
        assert nec(rates, CostPair(1, 1), 0.5) == pytest.approx(8.03e-2, rel=1e-3)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rates = ConfusionRates(fnr=rng.random(), fpr=rng.random(), ce=0.0)
            c_pos, c_neg = rng.uniform(0.1, 50, size=2)
            base = nec(rates, CostPair(c_pos, c_neg), 0.5)
            for lam in (0.5, 2.0, 17.0):
                scaled = nec(rates, CostPair(lam * c_pos, lam * c_neg), 0.5)
                assert scaled == pytest.approx(base, rel=1e-12)

    def test_unit_cost_equals_ce_for_balanced_sets(self):
        pred = np.array([1, -1, 1, -1, 1, -1])
        labels = np.array([1, 1, 1, -1, -1, -1])
        rates = confusion_rates(pred, labels)
        assert nec(rates, CostPair(1, 1), 0.5) == pytest.approx(rates.ce, abs=1e-12)


class TestConfusionRates:
    def test_balanced_identity(self):
        pred = np.array([1, 1, -1, -1])
        labels = np.array([1, -1, 1, -1])
        rates = confusion_rates(pred, labels)
        assert rates.fnr == 0.5 and rates.fpr == 0.5
        assert rates.ce == pytest.approx((rates.fnr + rates.fpr) / 2, abs=1e-12)

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            confusion_rates(np.array([1, 1]), np.array([1, 1]))

    def test_one_row_gives_python_floats(self):
        # a numpy scalar would print as np.float64(...) in a "%r" trace row
        rates = confusion_rates(np.array([1, -1, -1, 1]), np.array([1, 1, -1, -1]))
        values = (rates.fnr, rates.fpr, rates.ce, nec(rates, CostPair(1, 3), 0.5),
                  classification_asymmetry(rates))
        assert [type(v) for v in values] == [float] * 5

    def test_block_equals_row_wise_calls(self):
        rng = np.random.default_rng(5)
        labels = np.array([1, 1, 1, -1, -1, -1, -1])
        block = rng.choice([-1, 1], size=(40, labels.size))
        block[0] = -labels  # all wrong: the asymmetry is undefined
        block[1] = labels
        costs = CostPair(1, 7)
        rates = confusion_rates(block, labels)
        rows = [confusion_rates(row, labels) for row in block]
        for name in ("fnr", "fpr", "ce"):
            assert getattr(rates, name).tolist() == [getattr(r, name) for r in rows]
        assert nec(rates, costs, 0.5).tolist() == [nec(r, costs, 0.5) for r in rows]
        ca = classification_asymmetry(rates)
        assert np.isnan(ca[0])
        assert ca[1:].tolist() == [classification_asymmetry(r) for r in rows[1:]]


class TestDeltaTable:
    def test_shifts_by_minimum(self):
        assert delta_table({"A": 0.05, "B": 0.02, "C": 0.02}) == {
            "A": pytest.approx(0.03),
            "B": 0.0,
            "C": 0.0,
        }

    def test_singleton(self):
        assert delta_table({"A": 0.4}) == {"A": 0.0}

    def test_sampled_row_matches_manual_subtraction(self):
        row = {"ABT": 5.30e-2, "ASB": 6.05e-2, "CB1": 9.90e-3, "CSA": 4.94e-2,
               "CGA": 2.96e-2}
        deltas = delta_table(row)
        floor = min(row.values())
        for key, value in row.items():
            assert deltas[key] == pytest.approx(value - floor)

    def test_always_contains_zero_and_no_negatives(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            values = {i: float(v) for i, v in enumerate(rng.random(6))}
            deltas = delta_table(values)
            assert min(deltas.values()) == 0.0
            assert all(v >= 0 for v in deltas.values())

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            delta_table({})
        with pytest.raises(ValueError):
            delta_table({"A": float("nan")})


class TestConditionalMoments:
    def test_one_record_per_cell(self):
        by_alg, by_alg_cost = conditional_moments(
            [("A", (1, 2), "d1", 0.3)]
        )
        assert by_alg["A"] == {"mean": 0.3, "variance": 0.0}
        assert by_alg_cost[("A", (1, 2))] == {"mean": 0.3, "variance": 0.0}

    def test_two_value_cell(self):
        by_alg, _ = conditional_moments(
            [("A", (1, 1), "d1", 0.1), ("A", (1, 2), "d2", 0.3)]
        )
        assert by_alg["A"]["mean"] == pytest.approx(0.2)
        assert by_alg["A"]["variance"] == pytest.approx(0.01)

    def test_grid_matches_flat_loop(self):
        rng = np.random.default_rng(8)
        algorithms = ["A", "B", "C"]
        costs = [(1, 1), (1, 5), (5, 1)]
        datasets = ["d1", "d2"]
        records = [
            (alg, cost, ds, float(rng.random()))
            for alg in algorithms for cost in costs for ds in datasets
        ]
        by_alg, by_alg_cost = conditional_moments(records)

        for alg in algorithms:
            values = [d for a, _, _, d in records if a == alg]
            assert by_alg[alg]["mean"] == pytest.approx(np.mean(values))
            assert by_alg[alg]["variance"] == pytest.approx(np.var(values))
        for alg in algorithms:
            for cost in costs:
                values = [d for a, c, _, d in records if a == alg and c == cost]
                cell = by_alg_cost[(alg, cost)]
                assert cell["mean"] == pytest.approx(np.mean(values))
                assert cell["variance"] == pytest.approx(np.var(values))

    def test_empty_cells_absent(self):
        by_alg, by_alg_cost = conditional_moments([("A", (1, 1), "d1", 0.0)])
        assert "B" not in by_alg
        assert ("A", (1, 5)) not in by_alg_cost


class TestClassificationAsymmetry:
    def test_perfect_classifier_is_balanced(self):
        assert classification_asymmetry(ConfusionRates(0.0, 0.0, 0.0)) == 0.5

    def test_all_negative_classifier(self):
        assert classification_asymmetry(ConfusionRates(1.0, 0.0, 0.5)) == 0.0

    def test_threshold_adjusted_operating_point(self):
        value = classification_asymmetry(ConfusionRates(8.43e-2, 7.63e-2, 8.03e-2))
        assert value == pytest.approx(0.9157 / (0.9157 + 0.9237), rel=1e-3)
        assert value == pytest.approx(0.4978, abs=5e-4)

    def test_all_wrong_is_undefined(self):
        value = classification_asymmetry(ConfusionRates(1.0, 1.0, 1.0))
        assert type(value) is float and np.isnan(value)
