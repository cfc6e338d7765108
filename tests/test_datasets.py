import math

import numpy as np
import pytest

from costboost.boosting import CostPair
from costboost.datasets import (
    DEFAULT_CLOUDS,
    DEFAULT_GAUSS,
    CloudGeometry,
    Dataset,
    GaussParams,
    bayes_optimal_predict,
    bayes_optimal_rates,
    gen_bayes,
    gen_two_clouds,
    load_csv_balanced,
    stratified_kfold,
)


def phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


class TestGenBayes:
    def test_default_counts_and_dimension(self):
        data = gen_bayes(250, 250, seed=1)
        assert data.n_samples == 500
        assert data.n_features == 31
        assert np.sum(data.labels == 1) == 250
        assert np.sum(data.labels == -1) == 250

    def test_projection_identity_on_diagonal(self):
        params = GaussParams(
            mean_pos=(1.0, 0.0), mean_neg=(-1.0, 0.0),
            covariance=((1.0, 0.0), (0.0, 1.0)), angles=(math.pi / 4,),
        )
        data = gen_bayes(5, 5, params=params, seed=2)
        # place a probe point on the x = y line through the stored machinery
        from costboost.datasets import _project

        for c in (-2.0, 0.3, 1.7):
            value = _project(np.array([[c, c]]), params.angles)[0, 0]
            assert value == pytest.approx(math.sqrt(2.0) * c, rel=1e-12)
        # and every generated feature must be the stated projection
        recomputed = data.coords @ np.vstack(
            (np.cos(params.angles), np.sin(params.angles))
        )
        np.testing.assert_allclose(recomputed, data.features, atol=1e-12)

    def test_empirical_means_converge(self):
        data = gen_bayes(100_000, 1, seed=3)
        pos = data.coords[data.labels == 1]
        bound = 3.0 / math.sqrt(pos.shape[0])  # unit variance per coordinate
        assert abs(pos[:, 0].mean() - 1.0) < bound
        assert abs(pos[:, 1].mean() - 0.0) < bound

    def test_projection_consistency_invariant(self):
        data = gen_bayes(200, 200, seed=4)
        basis = np.vstack(
            (np.cos(DEFAULT_GAUSS.angles), np.sin(DEFAULT_GAUSS.angles))
        )
        np.testing.assert_allclose(data.coords @ basis, data.features, atol=1e-12)

    def test_deterministic_bit_for_bit(self):
        first = gen_bayes(50, 50, seed=5)
        second = gen_bayes(50, 50, seed=5)
        assert np.array_equal(first.features, second.features)
        assert np.array_equal(first.coords, second.coords)
        third = gen_bayes(50, 50, seed=6)
        assert not np.array_equal(first.features, third.features)

    def test_rejects_non_positive_definite_covariance(self):
        with pytest.raises(ValueError):
            GaussParams(mean_pos=(1, 0), mean_neg=(-1, 0),
                        covariance=((1.0, 2.0), (2.0, 1.0)))

    def test_rejects_bad_angles(self):
        with pytest.raises(ValueError):
            GaussParams(mean_pos=(1, 0), mean_neg=(-1, 0),
                        covariance=((1, 0), (0, 1)), angles=(0.5, 0.5))
        with pytest.raises(ValueError):
            GaussParams(mean_pos=(1, 0), mean_neg=(-1, 0),
                        covariance=((1, 0), (0, 1)), angles=(0.0, math.pi))

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError):
            gen_bayes(0, 10, seed=0)


class TestGenTwoClouds:
    def test_default_counts_and_dimension(self):
        data = gen_two_clouds(500, 500, seed=1)
        assert data.n_samples == 1000
        assert data.n_features == 31

    def test_positives_stay_inside_disc(self):
        data = gen_two_clouds(2000, 10, seed=2)
        pos = data.coords[data.labels == 1]
        radii = np.linalg.norm(pos - np.asarray(DEFAULT_CLOUDS.disc_center), axis=1)
        assert radii.max() <= DEFAULT_CLOUDS.disc_radius + 1e-12

    def test_negatives_stay_inside_annulus(self):
        data = gen_two_clouds(10, 2000, seed=3)
        neg = data.coords[data.labels == -1]
        radii = np.linalg.norm(neg - np.asarray(DEFAULT_CLOUDS.annulus_center), axis=1)
        assert radii.min() >= DEFAULT_CLOUDS.annulus_inner - 1e-12
        assert radii.max() <= DEFAULT_CLOUDS.annulus_outer + 1e-12

    def test_annulus_uniform_in_area(self):
        data = gen_two_clouds(10, 50_000, seed=4)
        neg = data.coords[data.labels == -1]
        radii_sq = np.sum((neg - np.asarray(DEFAULT_CLOUDS.annulus_center)) ** 2, axis=1)
        expected = (DEFAULT_CLOUDS.annulus_inner ** 2 + DEFAULT_CLOUDS.annulus_outer ** 2) / 2
        assert radii_sq.mean() == pytest.approx(expected, rel=0.01)

    def test_rejects_inverted_radii(self):
        with pytest.raises(ValueError):
            CloudGeometry(annulus_inner=2.0, annulus_outer=1.0)


class TestBayesOptimalRates:
    def test_symmetric_costs_give_half_mahalanobis_tails(self):
        rates = bayes_optimal_rates(DEFAULT_GAUSS, CostPair(1, 1))
        d = 2.0  # means two apart under identity covariance
        assert rates.fnr == pytest.approx(phi(-d / 2), abs=1e-15)
        assert rates.fpr == pytest.approx(phi(-d / 2), abs=1e-15)

    def test_extreme_false_positive_cost(self):
        rates = bayes_optimal_rates(DEFAULT_GAUSS, CostPair(1, 1e9))
        assert rates.fpr < 1e-12
        assert rates.fnr > 1.0 - 1e-6

    @pytest.mark.parametrize("costs, expected", [(CostPair(1e300, 1e-300), 1),
                                                 (CostPair(1e-300, 1e300), -1)])
    def test_cost_ratio_past_the_float_range(self, costs, expected):
        # the ratio over- or underflows; the threshold comes from the logs
        data = gen_bayes(6, 6, seed=0)
        assert (bayes_optimal_predict(DEFAULT_GAUSS, costs, data.coords) == expected).all()
        rates = bayes_optimal_rates(DEFAULT_GAUSS, costs)
        assert (rates.fnr, rates.fpr) == ((0.0, 1.0) if expected == 1 else (1.0, 0.0))

    def test_correlated_covariance_against_monte_carlo(self):
        params = GaussParams(
            mean_pos=(0.8, 0.3), mean_neg=(-0.6, -0.1),
            covariance=((1.0, 0.4), (0.4, 2.0)),
        )
        costs = CostPair(1, 4)
        rates = bayes_optimal_rates(params, costs)

        n = 200_000
        data = gen_bayes(n, n, params=params, seed=11)
        pred = bayes_optimal_predict(params, costs, data.coords)
        fnr_hat = np.mean(pred[data.labels == 1] == -1)
        fpr_hat = np.mean(pred[data.labels == -1] == 1)
        se_fnr = math.sqrt(rates.fnr * (1 - rates.fnr) / n)
        se_fpr = math.sqrt(rates.fpr * (1 - rates.fpr) / n)
        assert abs(fnr_hat - rates.fnr) < 3 * se_fnr
        assert abs(fpr_hat - rates.fpr) < 3 * se_fpr


class TestDataset:
    def test_casts_integral_labels_to_int(self):
        data = Dataset(np.zeros((2, 1)), np.array([1.0, -1.0]), "d")
        assert data.labels.dtype.kind == "i"
        assert data.labels.tolist() == [1, -1]

    def test_rejects_fractional_label(self):
        with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
            Dataset(np.zeros((4, 2)), np.array([1.0, -1.0, 1.5, -1.0]), "d")

    def test_rejects_matrix_without_feature_columns(self):
        with pytest.raises(ValueError, match="features must be a nonempty 2-D matrix"):
            Dataset(np.zeros((4, 0)), np.array([1, -1, 1, -1]), "d")


class TestLoadCsvBalanced:
    @staticmethod
    def write(tmp_path, rows, header="f1,f2,label"):
        path = tmp_path / "data.csv"
        path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        return path

    def test_balanced_file_untouched(self, tmp_path):
        path = self.write(tmp_path, ["1,2,yes", "3,4,no", "5,6,yes", "7,8,no"])
        data = load_csv_balanced(path, "label", "yes", seed=0)
        assert data.n_samples == 4
        assert sorted(data.labels) == [-1, -1, 1, 1]
        assert data.feature_names == ["f1", "f2"]

    def test_byte_order_mark_reads_as_without(self, tmp_path):
        # spreadsheets' "CSV UTF-8" starts with a BOM, here before the label
        rows = ["yes,1,2", "no,3,4", "yes,5,6", "no,7,8"]
        plain = load_csv_balanced(self.write(tmp_path, rows, "label,f1,f2"), "label", "yes")
        path = tmp_path / "bom.csv"
        path.write_text("\n".join(["label,f1,f2"] + rows) + "\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbflabel,")
        data = load_csv_balanced(path, "label", "yes")
        assert data.feature_names == plain.feature_names == ["f1", "f2"]
        assert np.array_equal(data.features, plain.features)
        assert np.array_equal(data.labels, plain.labels)

    def test_subsamples_larger_class(self, tmp_path):
        rows = [f"{i},0,pos" for i in range(300)] + [f"{i},1,neg" for i in range(700)]
        path = self.write(tmp_path, rows)
        data = load_csv_balanced(path, "label", "pos", seed=3)
        assert np.sum(data.labels == 1) == 300
        assert np.sum(data.labels == -1) == 300
        again = load_csv_balanced(path, "label", "pos", seed=3)
        assert np.array_equal(data.features, again.features)
        other = load_csv_balanced(path, "label", "pos", seed=4)
        assert not np.array_equal(data.features, other.features)

    def test_drops_rows_with_missing_cells(self, tmp_path):
        path = self.write(tmp_path, ["1,2,yes", "3,?,no", ",4,yes", "5,6,no"])
        data = load_csv_balanced(path, "label", "yes", seed=0)
        assert data.n_samples == 2

    def test_rejects_non_numeric_feature(self, tmp_path):
        path = self.write(tmp_path, ["1,abc,yes", "3,4,no"])
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv_balanced(path, "label", "yes", seed=0)

    def test_rejects_single_class(self, tmp_path):
        path = self.write(tmp_path, ["1,2,yes", "3,4,yes"])
        with pytest.raises(ValueError, match="classes"):
            load_csv_balanced(path, "label", "yes", seed=0)

    def test_rejects_unknown_label_column(self, tmp_path):
        path = self.write(tmp_path, ["1,2,yes"])
        with pytest.raises(ValueError, match="no column"):
            load_csv_balanced(path, "target", "yes", seed=0)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv_balanced(tmp_path / "nope.csv", "label", "yes", seed=0)

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("f1,f2,label\n1,2,yes\n3,no\n", "data.csv:3: expected 3 cells"),
    ], ids=["empty-file", "short-row"])
    def test_rejects_malformed_files(self, tmp_path, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_csv_balanced(path, "label", "yes", seed=0)


@pytest.mark.parametrize("make, message", [
    (lambda: GaussParams(mean_pos=(1, 0), mean_neg=(-1, 0),
                         covariance=((1.0, 0.5), (0.0, 1.0))),
     "covariance must be a symmetric 2x2 matrix"),
    (lambda: CloudGeometry(disc_radius=0), "disc radius must be positive"),
    (lambda: stratified_kfold(np.array([1, 1, -1, -1]), 1), "k must be >= 2"),
], ids=["asymmetric-covariance", "zero-disc-radius", "one-fold"])
def test_rejects_parameters_outside_their_domain(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestStratifiedKfold:
    def test_tiny_balanced_assignment(self):
        labels = np.array([1, 1, 1, -1, -1, -1])
        folds = stratified_kfold(labels, k=3, seed=0)
        for fold in range(3):
            idx = folds.test_indices(fold)
            assert np.sum(labels[idx] == 1) == 1
            assert np.sum(labels[idx] == -1) == 1

    def test_deterministic(self):
        labels = np.array([1] * 30 + [-1] * 30)
        first = stratified_kfold(labels, k=3, seed=9)
        second = stratified_kfold(labels, k=3, seed=9)
        assert np.array_equal(first.fold_of, second.fold_of)

    def test_fold_sizes_for_uneven_division(self):
        labels = np.array([1] * 239 + [-1] * 239)
        folds = stratified_kfold(labels, k=3, seed=1)
        for cls in (1, -1):
            sizes = sorted(
                int(np.sum((labels == cls) & (folds.fold_of == f))) for f in range(3)
            )
            assert sizes == [79, 80, 80]

    def test_rejects_class_smaller_than_k(self):
        with pytest.raises(ValueError):
            stratified_kfold(np.array([1, 1, -1, -1]), k=3, seed=0)

    @pytest.mark.parametrize("k", [2.5, 3.0, True], ids=["fraction", "float", "bool"])
    def test_rejects_a_k_that_is_not_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be"):
            stratified_kfold(np.array([1] * 6 + [-1] * 6), k=k, seed=0)

    def test_accepts_a_numpy_integer_k(self):
        labels = np.array([1] * 6 + [-1] * 6)
        folds = stratified_kfold(labels, k=np.int64(3), seed=4)
        assert np.array_equal(folds.fold_of, stratified_kfold(labels, k=3, seed=4).fold_of)

    def test_train_test_partition(self):
        labels = np.array([1] * 12 + [-1] * 12)
        folds = stratified_kfold(labels, k=3, seed=2)
        for fold in range(3):
            train = set(folds.train_indices(fold))
            test = set(folds.test_indices(fold))
            assert train | test == set(range(24))
            assert not train & test
