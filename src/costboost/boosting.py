"""Plain AdaBoost and eleven cost-sensitive variants.

All algorithms share one training loop: initialize sample weights, then
repeat (select stump, compute its vote weight alpha, reweight samples,
normalize). They differ in where the cost pair enters:

* ADA   plain AdaBoost baseline (ignores costs).
* ABT   ADA plus an a-posteriori decision-threshold search on the
        training scores.
* ASB   per-round asymmetric pre-scaling of the weights, spread evenly
        over a fixed number of rounds, followed by a plain ADA round.
* ADC   cost-adjustment function inside both alpha and the weight
        update; alpha can go negative and is kept that way.
* CB0/CB1/CB2  multiplicative cost factor on the weights of mistakes,
        with no / a unit / the alpha-scaled exponential step.
* AC1/AC2/AC3  costs inside the error measure used for alpha, and in
        different places of the exponential update.
* CSA   joint stump/alpha selection by direct minimization of the
        class-separated exponential loss, costs in the exponents.
* CGA   cost-proportional weight initialization, then pure ADA rounds.

Every round has one generic form. The stump minimizes the weighted error
sum(m * w * [h != y]) for a per-sample selection multiplier m (CSA picks
stump and alpha jointly instead), alpha comes from a per-variant
statistic, and the weights become

    w' = factor * w * exp(-step * scale * y * h) / z

with z the normalizing sum. Here c is the per-sample cost (c_pos on
positives, c_neg on negatives), cn = c / max(c_pos, c_neg), and
beta = (1 + cn) / 2 on mistakes, (1 - cn) / 2 on hits:

    variant          m      alpha from                            factor  step       scale
    ADA ABT ASB CGA  1      err = sum(w [h != y])                 1       alpha      1
    CB0 / CB1 / CB2  1      err = sum(w [h != y])                 c|1     0/1/alpha  1
    AC2              cn     err = sum(cn w [h != y]) / sum(cn w)  cn      alpha      1
    ADC              1      r = sum(beta w y h)                   1       alpha      beta
    AC1              cn     r = sum(cn w y h)                     1       alpha      cn
    AC3              cn^2   r = sum(cn^2 w y h) / sum(cn w)       1       alpha      cn
    CSA              joint  class-separated exponential loss      1       alpha      c

where c|1 is c on mistakes and 1 on hits, an error gives
alpha = ln((1 - err) / err) / 2 and a correlation r gives
alpha = ln((1 + r) / (1 - r)) / 2.

Error terms are clamped away from 0 and 1 (floor 1e-10) so alpha stays
finite; a round whose error term hits the clamp is flagged degenerate
but training continues with the clamped value.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .metrics import confusion_rates, classification_asymmetry, nec, pcf
from .stumps import (ClassMasses, SortedColumns, Stump, _candidates, _cut_stump,
                     candidate_thresholds, predict_matrix, sort_columns, train_stump)

__all__ = [
    "ALGORITHM_IDS",
    "CostPair",
    "StrongClassifier",
    "TrainingTrace",
    "RoundResult",
    "init_weights",
    "boost_round",
    "solve_csa_alpha",
    "csa_loss",
    "adjust_threshold",
    "train_ensemble",
    "predict_ensemble",
    "decision_scores",
]

ALGORITHM_IDS = (
    "ADA",
    "ABT",
    "ASB",
    "ADC",
    "CB0",
    "CB1",
    "CB2",
    "AC1",
    "AC2",
    "AC3",
    "CSA",
    "CGA",
)

_ERR_FLOOR = 1e-10
_MASS_FLOOR = 1e-10


def _number(value, name) -> float:
    """``value`` as a float; bools (JSON true/false) and non-numbers raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} {value!r} must be a number")
    return float(value)


@dataclass(frozen=True, order=True)
class CostPair:
    """Asymmetric cost specification: c_pos penalizes false negatives,
    c_neg false positives. Pairs order as (c_pos, c_neg)."""

    c_pos: float
    c_neg: float

    def __post_init__(self):
        for name in ("c_pos", "c_neg"):
            value = _number(getattr(self, name), "cost")
            if not (np.isfinite(value) and value > 0):
                raise ValueError("costs must be strictly positive and finite")
            object.__setattr__(self, name, value)

    def per_sample(self, labels) -> np.ndarray:
        """Cost of misclassifying each sample: c_pos for +1, c_neg for -1."""
        return np.where(np.asarray(labels) > 0, self.c_pos, self.c_neg)


@dataclass
class StrongClassifier:
    """What training produced: one stump and one vote weight per round,
    plus the decision threshold (0 except for ABT). A truncation is
    asked for per call through ``round_cutoff``, never stored here."""

    stumps: list
    alphas: list
    decision_threshold: float = 0.0

    @property
    def trained_rounds(self) -> int:
        return len(self.stumps)


@dataclass
class TrainingTrace:
    """Per-round record of one training run; vote weights are ``StrongClassifier.alphas``.

    ``train_nec`` and ``train_ca`` are measured on the training set with
    the ensemble truncated at each round (decision threshold 0);
    ``train_ca`` holds NaN where the asymmetry is undefined.
    """

    zs: list
    train_nec: list
    train_ca: list
    degenerate_rounds: list

    def __len__(self):
        return len(self.zs)


@dataclass
class RoundResult:
    stump: Stump
    alpha: float
    weights: np.ndarray
    z: float
    degenerate: bool = False


def _check_algorithm(algorithm):
    if algorithm not in ALGORITHM_IDS:
        raise ValueError(f"unknown algorithm {algorithm!r}")


def init_weights(algorithm, labels, costs: CostPair) -> np.ndarray:
    """Initial sample weights: cost-proportional for CGA, uniform else."""
    _check_algorithm(algorithm)
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("labels must be nonempty")
    if algorithm == "CGA":
        raw = costs.per_sample(labels)
        return raw / raw.sum()
    return np.full(labels.size, 1.0 / labels.size)


def _clamped(value, low):
    """``value`` clamped into [low, 1 - 1e-10], and whether that moved it."""
    clamped = min(max(value, low), 1.0 - _ERR_FLOOR)
    return clamped, clamped != value


def csa_loss(alpha, masses: ClassMasses, costs: CostPair):
    """Class-separated exponential loss of a stump at vote weight alpha."""
    return (
        masses.b_p * np.exp(-alpha * costs.c_pos)
        + masses.d_p * np.exp(alpha * costs.c_pos)
        + masses.b_n * np.exp(-alpha * costs.c_neg)
        + masses.d_n * np.exp(alpha * costs.c_neg)
    )


def _floor_mass_groups(b_p, d_p, b_n, d_n):
    """Floor the correct-side and wrong-side masses away from zero.

    Each side of the loss needs positive total mass or the minimizer
    diverges; flooring whole sides (instead of every mass) leaves
    nonzero configurations untouched, so the equal-cost closed form
    stays exact.
    """
    b_zero = (b_p + b_n) <= 0.0
    d_zero = (d_p + d_n) <= 0.0
    floor = _MASS_FLOOR
    return (
        np.where(b_zero, floor, b_p),
        np.where(d_zero, floor, d_p),
        np.where(b_zero, floor, b_n),
        np.where(d_zero, floor, d_n),
    )


def _csa_alpha_arrays(b_p, d_p, b_n, d_n, costs: CostPair) -> np.ndarray:
    """Elementwise minimizer of the class-separated exponential loss.

    Strict convexity makes the derivative increasing, so the root is
    bracketed by doubling and then bisected to float resolution. Both
    mass sides must already be floored above zero.
    """
    c_p, c_n = costs.c_pos, costs.c_neg
    if c_p == c_n:
        return np.log((b_p + b_n) / (d_p + d_n)) / (2.0 * c_p)

    def _term(coef, exponent):
        # exact-zero coefficients must not turn exp overflow into NaN
        return np.where(coef > 0.0, coef * np.exp(exponent), 0.0)

    def dloss(a):
        return c_p * (_term(d_p, a * c_p) - _term(b_p, -a * c_p)) + c_n * (
            _term(d_n, a * c_n) - _term(b_n, -a * c_n)
        )

    lo = np.full_like(b_p, -1.0, dtype=float)
    hi = np.full_like(b_p, 1.0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            down = dloss(lo) > 0  # minimizer below lo
            hi = np.where(down, lo, hi)
            lo = np.where(down, lo * 2.0, lo)
            up = dloss(hi) < 0  # minimizer above hi
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
            hi = np.where(g >= 0, mid, hi)
            lo = np.where(g <= 0, mid, lo)
    return 0.5 * (lo + hi)


def solve_csa_alpha(masses: ClassMasses, costs: CostPair) -> float:
    """Vote weight minimizing the class-separated exponential loss.

    Mass sides that sum to zero are floored at 1e-10 so the loss keeps a
    finite minimizer. Equal costs reduce to the closed form
    ln((b_p+b_n)/(d_p+d_n)) / (2c), evaluated with the scalar libm log.
    """
    if min(masses.b_p, masses.d_p, masses.b_n, masses.d_n) < 0:
        raise ValueError("masses must be nonnegative")
    arrays = [
        np.asarray([m], dtype=float)
        for m in (masses.b_p, masses.d_p, masses.b_n, masses.d_n)
    ]
    b_p, d_p, b_n, d_n = _floor_mass_groups(*arrays)
    if costs.c_pos == costs.c_neg:
        ratio = float(b_p[0] + b_n[0]) / float(d_p[0] + d_n[0])
        return math.log(ratio) / (2.0 * costs.c_pos)
    return float(_csa_alpha_arrays(b_p, d_p, b_n, d_n, costs)[0])


def _csa_select(columns: SortedColumns, weights, costs: CostPair):
    """Joint stump/alpha selection minimizing the per-round loss.

    The candidates are the cuts of ``train_stump``, with the class masses
    of polarity +1; the polarity -1 twin shares the optimal loss with the
    vote weight negated, so each pair is solved once, all in one flat
    batch. Ties break on (loss, plain weighted error, feature, threshold,
    polarity +1) -- the candidates come in (feature, threshold) order, so
    the first index among tied candidates realizes that hierarchy.
    """
    b_p, d_p, b_n, d_n = _candidates(columns, weights)
    fb_p, fd_p, fb_n, fd_n = _floor_mass_groups(b_p, d_p, b_n, d_n)
    alphas = _csa_alpha_arrays(fb_p, fd_p, fb_n, fd_n, costs)
    losses = csa_loss(alphas, ClassMasses(fb_p, fd_p, fb_n, fd_n), costs)
    err_plus = d_p + d_n
    err_minus = b_p + b_n

    candidates = np.flatnonzero(losses == losses.min())
    pair_err = np.minimum(err_plus[candidates], err_minus[candidates])
    j = candidates[np.flatnonzero(pair_err == pair_err.min())[0]]
    polarity = 1 if err_plus[j] <= err_minus[j] else -1
    alpha = float(alphas[j]) if polarity == 1 else -float(alphas[j])
    return _cut_stump(columns, j, polarity), alpha


def boost_round(algorithm, weights, features, labels, costs: CostPair, total_rounds,
                *, columns: SortedColumns | None = None) -> RoundResult:
    """One boosting round of the requested algorithm.

    Takes the sample weights (nonnegative, one per sample, with a positive
    total) and ``total_rounds``, the round budget ASB spreads its
    asymmetry over. Returns the selected stump, its vote weight alpha, the
    renormalized weights and the pre-normalization sum z. The degenerate
    flag marks rounds whose error term hit the clamp. Every variant shares
    the update factor * w * exp(-step * scale * y * h); see the module
    docstring for what each one supplies. ``columns`` is
    ``sort_columns(features, labels)``, built here when omitted.
    """
    _check_algorithm(algorithm)
    if total_rounds < 1:
        raise ValueError("total_rounds must be >= 1")
    if columns is None:
        columns = sort_columns(features, labels)
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels).astype(int)
    # every entry and the length are checked by the stump scan
    w = np.asarray(weights, dtype=float)
    if not w.sum() > 0:
        raise ValueError("weights must have a positive total")
    c = costs.per_sample(labels)

    if algorithm == "ASB":
        # spread ln(sqrt(C_P/C_N)) over the fixed round budget, then a
        # plain ADA round on the re-normalized weights
        k = costs.c_pos / costs.c_neg
        scaled = w * np.exp(labels * (np.log(np.sqrt(k)) / total_rounds))
        w = scaled / scaled.sum()

    if algorithm == "CSA":
        stump, alpha = _csa_select(columns, w, costs)
    else:
        # the AdaC family defines its per-sample costs inside [0, 1]; rescaling
        # by the larger cost keeps the correlation statistics below 1 in
        # magnitude (and is exact at unit costs, where it divides by 1.0)
        c_norm = c / max(costs.c_pos, costs.c_neg)
        multiplier = (c_norm * c_norm if algorithm == "AC3"
                      else c_norm if algorithm in ("AC1", "AC2") else None)
        stump = train_stump(features, labels, w, per_sample_multiplier=multiplier,
                            columns=columns)
    pred = predict_matrix(stump, features)
    wrong = pred != labels
    agreement = labels * pred  # +1 correct, -1 wrong

    # factor * w and scale of the update; products are only reordered by
    # exact factors (1.0 or agreement = +-1), so every bit matches the
    # per-variant formulas
    factor_w, scale = w, 1.0
    if algorithm == "CSA":
        degenerate = min(float(np.sum(w[~wrong])), float(np.sum(w[wrong]))) <= _MASS_FLOOR
        scale = c
    elif algorithm in ("ADC", "AC1", "AC3"):
        # alpha from the correlation r = sum(g * w * y * h) / norm
        if algorithm == "ADC":
            g = scale = np.where(wrong, 0.5 * (1.0 + c_norm), 0.5 * (1.0 - c_norm))
        else:
            g, scale = multiplier, c_norm
        norm = float(np.sum(c_norm * w)) if algorithm == "AC3" else 1.0
        r, degenerate = _clamped(float(np.sum(g * w * agreement)) / norm,
                                  -(1.0 - _ERR_FLOOR))
        alpha = 0.5 * np.log((1.0 + r) / (1.0 - r))
    else:
        # alpha from the weighted error (cost-weighted for AC2)
        if algorithm == "AC2":
            factor_w = c_norm * w
            err = float(np.sum(factor_w[wrong])) / float(np.sum(factor_w))
        else:
            err = float(np.sum(w[wrong]))
        err, degenerate = _clamped(err, _ERR_FLOOR)
        alpha = 0.5 * np.log((1.0 - err) / err)
        if algorithm in ("CB0", "CB1", "CB2"):
            factor_w = np.where(wrong, c, 1.0) * w
    step = {"CB0": 0.0, "CB1": 1.0}.get(algorithm, alpha)

    unnorm = factor_w * np.exp(-step * scale * agreement)
    z = float(unnorm.sum())
    return RoundResult(stump, float(alpha), unnorm / z, z, degenerate)


def adjust_threshold(scores, labels, costs: CostPair) -> float:
    """Decision threshold minimizing the training NEC of sign(score - t),
    at equal priors like every NEC the sweep reports.

    Candidates are the stump's cuts of the scores
    (``stumps.candidate_thresholds``) plus one value above the maximum.
    With each class's scores sorted once, the false negatives at t are
    the positives below t and the false positives the negatives at or
    above it, both one ``searchsorted``. Ties break on smallest |t|, then
    smallest t.
    """
    scores = np.asarray(scores, dtype=float)
    positive = np.asarray(labels) > 0
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    pos = np.sort(scores[positive])
    neg = np.sort(scores[~positive])
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both classes must be present")
    candidates = np.append(candidate_thresholds(scores), scores.max() + 1.0)
    # prediction is +1 iff score >= t, so scores strictly below t are negatives
    fn = np.searchsorted(pos, candidates, side="left")
    fp = neg.size - np.searchsorted(neg, candidates, side="left")

    p = pcf(costs, 0.5)
    necs = (fn / pos.size) * p + (fp / neg.size) * (1.0 - p)
    ties = np.flatnonzero(necs == necs.min())
    tied = candidates[ties]
    pick = ties[np.lexsort((tied, np.abs(tied)))[0]]
    return float(candidates[pick])


def train_ensemble(algorithm, features, labels, costs: CostPair, rounds: int):
    """Train one boosted ensemble and return (classifier, trace).

    Deterministic given the inputs. The columns are sorted once, for
    every round. The trace's training NEC and asymmetry come after the
    loop, from the ``_staged_scores`` of every round prefix.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    columns = sort_columns(features, labels)
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels).astype(int)

    weights = init_weights(algorithm, labels, costs)
    kept = []  # every round but its weights
    for _ in range(rounds):
        result = boost_round(algorithm, weights, features, labels, costs, rounds,
                             columns=columns)
        weights = result.weights
        kept.append((result.stump, result.alpha, result.z, result.degenerate))
    stumps, alphas, zs, degenerate = map(list, zip(*kept))

    scores = _staged_scores(stumps, alphas, features)
    rates = confusion_rates(np.where(scores[1:] >= 0.0, 1, -1), labels)
    trace = TrainingTrace(zs, nec(rates, costs, 0.5).tolist(),
                          classification_asymmetry(rates).tolist(),
                          [t for t, flag in enumerate(degenerate, start=1) if flag])
    threshold = adjust_threshold(scores[-1], labels, costs) if algorithm == "ABT" else 0.0
    return StrongClassifier(stumps, alphas, threshold), trace


def _staged_scores(stumps, alphas, features) -> np.ndarray:
    """The (T + 1, n) block whose row k is the vote of the first k stumps.
    Row 0 is zero and ``np.cumsum`` adds the rounds in order, so row k
    holds exactly what ``score += alpha * h`` holds after k rounds."""
    index = [s.feature_index for s in stumps]
    threshold = np.array([s.threshold for s in stumps], dtype=float)[:, None]
    # alpha * h is +-(alpha * polarity): a sign flip is exact
    vote = np.array([a * s.polarity for s, a in zip(stumps, alphas)], dtype=float)[:, None]
    scores = np.zeros((len(stumps) + 1, features.shape[0]))
    scores[1:] = np.where(features.T[index] > threshold, vote, -vote)
    return np.cumsum(scores, axis=0, out=scores)


def decision_scores(classifier: StrongClassifier, features, round_cutoff=None) -> np.ndarray:
    """Weighted-vote scores of the ensemble truncated at ``round_cutoff``
    (every trained round when None), summed in training's round order."""
    if round_cutoff is not None and not 0 <= round_cutoff <= classifier.trained_rounds:
        raise ValueError("cutoff out of range")
    return _staged_scores(classifier.stumps[:round_cutoff], classifier.alphas[:round_cutoff],
                          np.asarray(features, dtype=float))[-1]


def predict_ensemble(classifier: StrongClassifier, features_row, round_cutoff=None) -> int:
    """Sign of the weighted vote, truncated as in ``decision_scores``, minus
    the decision threshold; a zero margin counts as +1."""
    row = np.asarray(features_row, dtype=float).reshape(1, -1)
    score = decision_scores(classifier, row, round_cutoff)[0]
    return 1 if score - classifier.decision_threshold >= 0 else -1
