"""Synthetic dataset generation, CSV ingestion and fold splitting.

Two synthetic families are provided, both exposing as features the
projections of 2-D points onto a fixed fan of angles:

* a pair of bivariate normals with shared covariance and different
  means, for which the cost-optimal linear rule and its exact error
  rates are available in closed form;
* a uniform disc overlapping a uniform annulus, a harder shape no
  single stump can separate.

All generation is driven by the PCG64 generator with Box-Muller normals
so a (parameters, seed) pair fixes the dataset bit-for-bit. Real data
enters through balanced CSV loading: rows with missing cells are
dropped and the larger class is subsampled to match the smaller one.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import ConfusionRates
from .stumps import _check_features_labels

__all__ = [
    "DEFAULT_ANGLES",
    "DEFAULT_GAUSS",
    "DEFAULT_CLOUDS",
    "GaussParams",
    "CloudGeometry",
    "Dataset",
    "FoldAssignment",
    "gen_bayes",
    "gen_two_clouds",
    "bayes_optimal_rates",
    "bayes_optimal_predict",
    "load_csv_balanced",
    "stratified_kfold",
]

DEFAULT_ANGLES = tuple(j * math.pi / 31 for j in range(31))


def _check_angles(angles):
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0 or np.any(np.diff(angles) <= 0):
        raise ValueError("angles must be strictly increasing")
    if angles[0] < 0 or angles[-1] >= math.pi:
        raise ValueError("angles must lie in [0, pi)")


@dataclass(frozen=True)
class GaussParams:
    """Two bivariate normals sharing one covariance matrix, plus the
    projection angles (radians, strictly increasing within [0, pi))."""

    mean_pos: tuple
    mean_neg: tuple
    covariance: tuple
    angles: tuple = DEFAULT_ANGLES

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (2, 2) or not np.allclose(cov, cov.T):
            raise ValueError("covariance must be a symmetric 2x2 matrix")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise ValueError("covariance must be positive definite")
        _check_angles(self.angles)

    def cov_matrix(self) -> np.ndarray:
        return np.asarray(self.covariance, dtype=float)


DEFAULT_GAUSS = GaussParams(
    mean_pos=(1.0, 0.0),
    mean_neg=(-1.0, 0.0),
    covariance=((1.0, 0.0), (0.0, 1.0)),
)


@dataclass(frozen=True)
class CloudGeometry:
    disc_center: tuple = (0.5, 0.0)
    disc_radius: float = 1.2
    annulus_center: tuple = (-0.5, 0.0)
    annulus_inner: float = 0.8
    annulus_outer: float = 1.8
    angles: tuple = DEFAULT_ANGLES

    def __post_init__(self):
        if self.disc_radius <= 0:
            raise ValueError("disc radius must be positive")
        if self.annulus_inner < 0 or self.annulus_inner >= self.annulus_outer:
            raise ValueError("annulus radii must satisfy 0 <= inner < outer")
        _check_angles(self.angles)


DEFAULT_CLOUDS = CloudGeometry()


@dataclass
class Dataset:
    """Feature matrix with +/-1 labels and generation provenance.

    ``coords`` keeps the raw 2-D points of synthetic sets so features can
    be recomputed; ``gauss`` keeps the generator parameters when the set
    came from the normal-mixture generator.
    """

    features: np.ndarray
    labels: np.ndarray
    name: str
    feature_names: list = None
    coords: np.ndarray = None
    gauss: GaussParams = None

    def __post_init__(self):
        # the stump learner's own input check, so every dataset can be trained on
        self.features, labels = _check_features_labels(self.features, self.labels)
        self.labels = labels.astype(int)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class FoldAssignment:
    fold_of: np.ndarray

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _standard_normal_pairs(rng, n) -> np.ndarray:
    """n rows of independent standard normals via Box-Muller."""
    u1 = 1.0 - rng.random(n)  # (0, 1], keeps the log finite
    u2 = rng.random(n)
    radius = np.sqrt(-2.0 * np.log(u1))
    return np.column_stack((radius * np.cos(2.0 * np.pi * u2),
                            radius * np.sin(2.0 * np.pi * u2)))


def _project(coords, angles) -> np.ndarray:
    angles = np.asarray(angles, dtype=float)
    basis = np.vstack((np.cos(angles), np.sin(angles)))  # 2 x F
    return coords @ basis


def _projected_dataset(pos, neg, angles, name, gauss=None) -> Dataset:
    """Dataset of the points ``pos`` (label +1) then ``neg`` (label -1),
    projected onto the angle fan."""
    coords = np.vstack((pos, neg))
    labels = np.concatenate((np.ones(len(pos), int), -np.ones(len(neg), int)))
    return Dataset(
        features=_project(coords, angles),
        labels=labels,
        name=name,
        feature_names=[f"proj_{i:02d}" for i in range(len(angles))],
        coords=coords,
        gauss=gauss,
    )


def gen_bayes(n_pos, n_neg, params: GaussParams = DEFAULT_GAUSS, seed: int = 0,
              name: str = "bayes") -> Dataset:
    """Sample the two-normal dataset and project onto the angle fan."""
    if n_pos <= 0 or n_neg <= 0:
        raise ValueError("both class counts must be positive")
    rng = _rng(seed)
    chol = np.linalg.cholesky(params.cov_matrix())
    pos = np.asarray(params.mean_pos, float) + _standard_normal_pairs(rng, n_pos) @ chol.T
    neg = np.asarray(params.mean_neg, float) + _standard_normal_pairs(rng, n_neg) @ chol.T
    return _projected_dataset(pos, neg, params.angles, name, gauss=params)


def _uniform_disc(rng, n, center, radius) -> np.ndarray:
    r = radius * np.sqrt(rng.random(n))
    phi = 2.0 * np.pi * rng.random(n)
    return np.asarray(center, float) + np.column_stack((r * np.cos(phi), r * np.sin(phi)))


def _uniform_annulus(rng, n, center, inner, outer) -> np.ndarray:
    r = np.sqrt(inner ** 2 + rng.random(n) * (outer ** 2 - inner ** 2))
    phi = 2.0 * np.pi * rng.random(n)
    return np.asarray(center, float) + np.column_stack((r * np.cos(phi), r * np.sin(phi)))


def gen_two_clouds(n_pos, n_neg, geometry: CloudGeometry = DEFAULT_CLOUDS, seed: int = 0,
                   name: str = "twoclouds") -> Dataset:
    """Uniform disc (positives) against a uniform annulus (negatives)."""
    if n_pos <= 0 or n_neg <= 0:
        raise ValueError("both class counts must be positive")
    rng = _rng(seed)
    pos = _uniform_disc(rng, n_pos, geometry.disc_center, geometry.disc_radius)
    neg = _uniform_annulus(rng, n_neg, geometry.annulus_center,
                           geometry.annulus_inner, geometry.annulus_outer)
    return _projected_dataset(pos, neg, geometry.angles, name)


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _linear_rule(params: GaussParams, costs):
    """Direction, offset and threshold of the cost-optimal linear rule.

    With equal priors the optimal decision thresholds the log-likelihood
    ratio w'x + b at ln(C_N / C_P); predict +1 at or above it.
    """
    mu_p = np.asarray(params.mean_pos, float)
    mu_n = np.asarray(params.mean_neg, float)
    cov_inv = np.linalg.inv(params.cov_matrix())
    w = cov_inv @ (mu_p - mu_n)
    b = -0.5 * float(w @ (mu_p + mu_n))
    ratio = costs.c_neg / costs.c_pos
    # a ratio past the float range (0 or inf) takes the difference of the logs
    tau = (math.log(ratio) if 0.0 < ratio < math.inf
           else math.log(costs.c_neg) - math.log(costs.c_pos))
    return w, b, tau


def bayes_optimal_rates(params: GaussParams, costs) -> ConfusionRates:
    """Exact error rates of the cost-optimal rule under equal priors.

    The log-likelihood ratio is Gaussian along the discriminant
    direction, so both rates are normal tail integrals of the signed
    distance between the threshold and the class means.
    """
    w, _, tau = _linear_rule(params, costs)
    # squared Mahalanobis distance of the means
    d2 = float(w @ np.subtract(params.mean_pos, params.mean_neg, dtype=float))
    d = math.sqrt(d2)
    fnr = _phi((tau - d2 / 2.0) / d)
    fpr = _phi(-(tau + d2 / 2.0) / d)
    return ConfusionRates(fnr=fnr, fpr=fpr, ce=(fnr + fpr) / 2.0)


def bayes_optimal_predict(params: GaussParams, costs, coords) -> np.ndarray:
    """Apply the cost-optimal linear rule to raw 2-D points."""
    w, b, tau = _linear_rule(params, costs)
    margin = np.asarray(coords, float) @ w + b - tau
    return np.where(margin >= 0, 1, -1)


_MISSING_TOKENS = {"", "?"}


def load_csv_balanced(path, label_column: str, positive_label: str, seed: int = 0) -> Dataset:
    """Load a numeric CSV, map labels to +/-1 and balance the classes.

    The file is UTF-8, with or without a leading byte-order mark (as
    spreadsheets write "CSV UTF-8"). The header row is required; every
    column except ``label_column`` must be numeric. Rows containing
    missing cells (empty or ``?``) are dropped. Labels equal to
    ``positive_label`` (as text) become +1, all others -1; the larger
    class is then subsampled uniformly (seeded) to the size of the
    smaller one, keeping file order.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [cell.strip() for cell in header]
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)

        rows = []
        labels = []
        for line_no, row in enumerate(reader, start=2):
            cells = [cell.strip() for cell in row]
            if len(cells) != len(header):
                raise ValueError(f"{path}:{line_no}: expected {len(header)} cells")
            if any(cell in _MISSING_TOKENS for cell in cells):
                continue
            values = []
            for idx, cell in enumerate(cells):
                if idx == label_idx:
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}:{line_no}: non-numeric value {cell!r} in column "
                        f"{header[idx]!r}"
                    ) from None
            rows.append(values)
            labels.append(1 if cells[label_idx] == str(positive_label) else -1)

    labels = np.asarray(labels, dtype=int)
    features = np.asarray(rows, dtype=float)
    pos_idx = np.flatnonzero(labels == 1)
    neg_idx = np.flatnonzero(labels == -1)
    if pos_idx.size == 0 or neg_idx.size == 0:
        raise ValueError(f"{path}: one of the classes has no usable rows")

    rng = _rng(seed)
    target = min(pos_idx.size, neg_idx.size)
    larger = pos_idx if pos_idx.size > neg_idx.size else neg_idx
    kept = np.sort(rng.permutation(larger)[:target])
    smaller = neg_idx if larger is pos_idx else pos_idx
    keep = np.sort(np.concatenate((smaller, kept)))

    feature_names = [name for i, name in enumerate(header) if i != label_idx]
    return Dataset(
        features=features[keep],
        labels=labels[keep],
        name=path.stem,
        feature_names=feature_names,
    )


def stratified_kfold(labels, k: int = 3, seed: int = 0) -> FoldAssignment:
    """Per-class shuffled round-robin fold assignment.

    Every class must have at least ``k`` members; per-class fold counts
    differ by at most one. Deterministic for a fixed seed (positives are
    assigned before negatives).
    """
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError("k must be >= 2")
    fold_of = np.empty(labels.size, dtype=int)
    rng = _rng(seed)
    for cls in (1, -1):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            raise ValueError(f"class {cls:+d} has fewer than {k} members")
        shuffled = rng.permutation(idx)
        fold_of[shuffled] = np.arange(idx.size) % k
    return FoldAssignment(fold_of=fold_of)
