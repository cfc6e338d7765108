"""Cost-curve metrics and ranking statistics.

The central quantities are the probability cost function (PCF), which
maps a cost pair and class prior to a point on the cost axis, and the
normalized expected cost (NEC), the cost-weighted combination of the
false negative and false positive rates. Rankings across algorithms are
expressed as per-scenario deviations from the best NEC (or plain
classification error) and summarized by conditional means and
population variances.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionRates",
    "ResultRecord",
    "confusion_rates",
    "pcf",
    "nec",
    "delta_table",
    "conditional_moments",
    "classification_asymmetry",
]


@dataclass(frozen=True)
class ConfusionRates:
    fnr: float
    fpr: float
    ce: float


@dataclass(frozen=True)
class ResultRecord:
    """One benchmark cell: (algorithm, dataset, cost, fold) -> performance."""

    algorithm: str
    dataset: str
    cost: "CostPair"
    fold: str
    rates: ConfusionRates
    nec: float
    train_seconds: float = 0.0
    effective_rounds: int = 0
    trained_rounds: int = 0


def confusion_rates(predictions, labels) -> ConfusionRates:
    """FNR/FPR/CE of +/-1 predictions, a row or a (T, n) block, against +/-1 labels."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    pos = labels > 0
    n_pos = int(np.sum(pos))
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    fn = np.count_nonzero(pos & (predictions < 0), axis=-1)
    fp = np.count_nonzero(~pos & (predictions > 0), axis=-1)
    rates = (fn / n_pos, fp / n_neg, (fn + fp) / (n_pos + n_neg))
    return ConfusionRates(*(map(float, rates) if predictions.ndim == 1 else rates))


def pcf(costs, prior_pos: float) -> float:
    """Probability cost function: P(+)*C_P / (P(+)*C_P + P(-)*C_N).

    Costs whose larger one is below 1 are first scaled by one power of two,
    which is exact and leaves the ratio as it is, so that a subnormal cost
    pair does not underflow the products to 0.
    """
    if not 0.0 < prior_pos < 1.0:
        raise ValueError("prior_pos must lie strictly between 0 and 1")
    top = max(costs.c_pos, costs.c_neg)
    shift = -math.frexp(top)[1] if top < 1.0 else 0
    num = prior_pos * math.ldexp(costs.c_pos, shift)
    return num / (num + (1.0 - prior_pos) * math.ldexp(costs.c_neg, shift))


def nec(rates: ConfusionRates, costs, prior_pos: float = 0.5) -> float:
    """Normalized expected cost: FNR*PCF + FPR*(1-PCF)."""
    p = pcf(costs, prior_pos)
    return rates.fnr * p + rates.fpr * (1.0 - p)


def delta_table(values: dict) -> dict:
    """Per-key deviation from the minimum value of the map.

    Applied to NEC values this gives the per-scenario NEC deviations; the
    same operation on classification error gives the CE deviations.
    """
    if not values:
        raise ValueError("values must be nonempty")
    if not all(np.isfinite(v) for v in values.values()):
        raise ValueError("values must be finite")
    floor = min(values.values())
    return {key: value - floor for key, value in values.items()}


def conditional_moments(records):
    """Mean and population variance of deltas, conditioned two ways.

    ``records`` is an iterable of (algorithm, cost, dataset, delta)
    tuples; the timing report passes training seconds as the value. Returns ``(by_algorithm, by_algorithm_cost)`` where each value
    is a dict with ``mean`` and ``variance`` keys. Cells that received no
    records are simply absent; singleton cells have variance 0.
    """
    by_alg: dict = {}
    by_alg_cost: dict = {}
    for algorithm, cost, _dataset, delta in records:
        by_alg.setdefault(algorithm, []).append(delta)
        by_alg_cost.setdefault((algorithm, cost), []).append(delta)

    def summarize(cells):
        out = {}
        for key, deltas in cells.items():
            arr = np.asarray(deltas, dtype=float)
            out[key] = {"mean": float(arr.mean()), "variance": float(arr.var())}
        return out

    return summarize(by_alg), summarize(by_alg_cost)


def classification_asymmetry(rates: ConfusionRates):
    """Share of correct decisions made on positives: TPR / (TPR + TNR).

    0.5 means class-balanced correctness; values above 0.5 mean positives
    are classified better than negatives. Only meaningful for balanced
    test sets. NaN for the degenerate all-wrong classifier (TPR + TNR =
    0); rate arrays give an array.
    """
    tpr = 1.0 - np.asarray(rates.fnr)
    tnr = 1.0 - np.asarray(rates.fpr)
    with np.errstate(invalid="ignore"):
        ca = tpr / (tpr + tnr)  # 0 / 0 is NaN
    return ca if ca.ndim else float(ca)
