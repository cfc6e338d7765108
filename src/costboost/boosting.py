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

    variant          select  alpha  v     norm       factor  step       scale
    ADA ABT ASB CGA  1       err    1     1          1       alpha      1
    CB0 / CB1 / CB2  1       err    1     1          c|1     0/1/alpha  1
    AC2              cn      err    cn    sum(cn w)  cn      alpha      1
    ADC              1       r      beta  1          1       alpha      beta
    AC1              cn      r      cn    1          1       alpha      cn
    AC3              cn^2    r      cn^2  sum(cn w)  1       alpha      cn
    CSA              joint   loss   1     1          1       alpha      c

where c|1 is c on mistakes and 1 on hits. An err = sum(v w [h != y]) /
norm gives alpha = ln((1 - err) / err) / 2, an r = sum(v w y h) / norm
gives alpha = ln((1 + r) / (1 - r)) / 2. ``_RULES`` is this table, plus
``init`` and ``prescale`` for CGA's initial weights and ASB's pre-scaling.

Error terms are clamped away from 0 and 1 (floor 1e-10) so alpha stays
finite; a round whose error term hits the clamp is flagged degenerate
but training continues with the clamped value.
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .metrics import confusion_rates, classification_asymmetry, nec, pcf
from .stumps import (SortedColumns, Stump, _check_class_totals, _class_block, _cut_stump,
                     _forget_picks, _pick, candidate_thresholds, predict_matrix, sort_columns,
                     train_stump)

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
    "decision_scores",
]


class _Rule(NamedTuple):
    """A row of the module docstring's table, naming the terms ``_rule`` fills in."""

    init: object = "1"  # initial weights, proportional to this term
    prescale: object = None  # every round's weights times this, renormalized
    select: object = None  # selection multiplier m; None is 1
    alpha: str = "err"  # "err", "r", or "loss", CSA's joint stump/alpha pick
    v: object = "1"
    norm: object = None  # the statistic's divisor is sum(norm * w); None is 1
    factor: object = "1"
    step: object = None  # None is alpha
    scale: object = "1"


_RULES = {
    "ADA": _Rule(),
    "ABT": _Rule(),
    "ASB": _Rule(prescale="sqrt(k)^(y/T)"),
    "ADC": _Rule(alpha="r", v="beta", scale="beta"),
    "CB0": _Rule(factor="c|1", step=0.0),
    "CB1": _Rule(factor="c|1", step=1.0),
    "CB2": _Rule(factor="c|1"),
    "AC1": _Rule(select="cn", alpha="r", v="cn", scale="cn"),
    "AC2": _Rule(select="cn", v="cn", norm="cn", factor="cn"),
    "AC3": _Rule(select="cn^2", alpha="r", v="cn^2", norm="cn", scale="cn"),
    "CSA": _Rule(alpha="loss", scale="c"),
    "CGA": _Rule(init="c"),
}
ALGORITHM_IDS = tuple(_RULES)

_ERR_FLOOR = 1e-10
_MASS_FLOOR = 1e-10
_MAX_UPDATES = 200  # bisection updates of one CSA candidate, at most
_NEWTON_STEPS = 4  # refinements of the CSA descent's target, see _newton_hint
_BELOW_ONE = np.nextafter(1.0, 0.0)  # a descent target at hi: every bit of its position set
_BOUND_ULPS = 64  # rounding allowance of a CSA loss bound, see _can_still_win


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


def _rule(algorithm, labels, costs: CostPair, total_rounds) -> _Rule:
    """The ``_RULES`` row of ``algorithm`` with the values of every term for
    these labels, costs and round budget; built once per ensemble."""
    if algorithm not in _RULES:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("labels must be nonempty")
    c = costs.per_sample(labels)
    # the AdaC family defines its per-sample costs inside [0, 1]; rescaling
    # by the larger cost keeps the correlation statistics below 1 in
    # magnitude (and is exact at unit costs, where it divides by 1.0)
    cn = c / max(costs.c_pos, costs.c_neg)
    terms = {None: None, "1": 1.0, "c": c, "cn": cn, "cn^2": cn * cn,
             "c|1": (c, 1.0), "beta": (0.5 * (1.0 + cn), 0.5 * (1.0 - cn))}  # (mistake, hit)
    row = _RULES[algorithm]
    if row.prescale:  # ASB spreads ln(sqrt(k)), k = c_pos / c_neg, over T = total_rounds
        k = costs.c_pos / costs.c_neg
        if 0.0 < k < math.inf:
            terms["sqrt(k)^(y/T)"] = np.exp(labels * (np.log(np.sqrt(k)) / total_rounds))
        else:  # k over- or underflows: the same shift from the logs, its
            # largest term made 1, which the renormalization undoes
            shift = (math.log(costs.c_pos) - math.log(costs.c_neg)) / (2.0 * total_rounds)
            terms["sqrt(k)^(y/T)"] = np.exp(labels * shift - abs(shift))
    raw = np.broadcast_to(terms[row.init], (labels.size,))
    with np.errstate(over="ignore"):
        total = raw.sum()
    if not math.isfinite(total):  # huge costs: scale them to at most 1 first
        raw = raw / raw.max()
        total = raw.sum()
    fields = ("prescale", "select", "v", "norm", "factor", "scale")
    return row._replace(init=raw / total, **{f: terms[getattr(row, f)] for f in fields})


def _on(wrong, term):
    """A per-sample term's values in a round: a pair is split by ``wrong``."""
    return np.where(wrong, *term) if isinstance(term, tuple) else term


def init_weights(algorithm, labels, costs: CostPair) -> np.ndarray:
    """Initial sample weights: cost-proportional for CGA, uniform else."""
    return _rule(algorithm, labels, costs, 1).init  # the budget only scales ASB


def _clamped(value, low):
    """``value`` clamped into [low, 1 - 1e-10], and whether that moved it."""
    clamped = min(max(value, low), 1.0 - _ERR_FLOOR)
    return clamped, clamped != value


def _rates(costs: CostPair) -> np.ndarray:
    """Exponent rate of each mass row b_p, d_p, b_n, d_n in the loss."""
    return np.array((-costs.c_pos, costs.c_pos, -costs.c_neg, costs.c_neg))


def _terms(masses, rates, alpha):
    """Loss terms mass * exp(rate * alpha); an exact-zero mass gives 0, not 0 * inf."""
    return np.where(masses > 0.0, masses * np.exp(rates * alpha), 0.0)


def csa_loss(alpha, masses, costs: CostPair):
    """Class-separated exponential loss of a stump at vote weight alpha;
    ``masses`` is a block with rows b_p, d_p, b_n, d_n."""
    with np.errstate(over="ignore", invalid="ignore"):
        b_p, d_p, b_n, d_n = (_terms(m, r, alpha) for m, r in zip(masses, _rates(costs)))
    return b_p + d_p + b_n + d_n


def _floor_mass_groups(masses) -> np.ndarray:
    """Floor the correct-side and wrong-side masses of a block with rows
    b_p, d_p, b_n, d_n away from zero. Each side of the loss needs positive
    total mass or the minimizer diverges; flooring whole sides (instead of
    every mass) leaves nonzero configurations untouched, so the equal-cost
    closed form stays exact."""
    empty = masses[:2] + masses[2:] <= 0.0  # rows: the b side, the d side
    return np.where(np.concatenate((empty, empty)), _MASS_FLOOR, masses)


def _csa_alpha_arrays(masses, costs: CostPair):
    """Minimizers of the class-separated exponential loss, for the
    candidates whose loss can still be the smallest.

    ``masses`` is the candidates' b_p, d_p, b_n, d_n block, both sides
    floored above zero. Returns ``(kept, alphas)``: the indices of the
    candidates not pruned, in increasing order, and their minimizers.
    Equal costs take the closed form for every candidate. Otherwise
    strict convexity makes the derivative increasing, and each root is
    found by one elementwise bisection:
    - The bracket doubles from [-1, 1] until the derivative's signs at
      its ends enclose the root.
    - Every element halves it log2(16 max(c)) times, which is where the
      bounds start to part candidates, and ``_can_still_win`` drops, in
      one pass, the candidates whose loss provably ends above another's.
      Of the survivors, one per group of equal mass columns goes on
      (``_distinct``); its copies take its result.
    - ``_descend`` takes the survivors' next steps all at once. It
      evaluates the derivative at every midpoint of the bisection path
      toward a target, the root estimate of ``_newton_hint``, and keeps
      each element's longest prefix of steps that bisection itself
      takes.
    - ``_bisect`` goes on from the first step not kept.

    The result is the plain bisection's, bit for bit, whatever the
    batch, the pruning and the target:
    - An element's bracket is fixed from the first doubling step that
      moves neither end, as the next step tests the same two points.
    - Its result ``0.5 * (lo + hi)`` is fixed from the first stuck
      midpoint (one equal to ``lo`` or ``hi``): the update there can at
      most move the other end onto it, which leaves the result as it
      was. Otherwise its 200th update fixes it. Each element counts its
      updates: the descent takes no more levels than the largest count
      leaves, and ``_bisect`` stops each element at 200.
    - A step the descent keeps is bisection's own. Its midpoint equals
      ``0.5 * (lo + hi)`` of the bracket the kept steps before it left,
      and the derivative there has the sign that moves the end
      bisection moves. The descent evaluates a (4, k, levels) block
      where a bisection step evaluates (4, k); numpy's ``exp`` gives an
      element the same bits in any batch shape, which every batch size
      here already rests on. The target thus only sets how many steps
      are kept.
    So an element gives the same bits alone, in any batch, whatever is
    pruned beside it, and equal columns give equal bits. With one
    element nothing is pruned.
    """
    c_p, c_n = costs.c_pos, costs.c_neg
    kept = np.arange(masses.shape[1])
    if c_p == c_n:
        b_p, d_p, b_n, d_n = masses
        # a cost near the float minimum can send alpha to inf here;
        # train_ensemble rejects an ensemble whose votes leave the float range
        with np.errstate(over="ignore"):
            return kept, np.log((b_p + b_n) / (d_p + d_n)) / (2.0 * c_p)
    rates = _rates(costs)[:, None]
    lo = np.full(kept.size, -1.0)
    hi = np.full(kept.size, 1.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(64):
            down = _slope(masses, rates, lo) > 0  # minimizer below lo
            hi = np.where(down, lo, hi)
            lo = np.where(down, lo * 2.0, lo)
            up = _slope(masses, rates, hi) < 0  # minimizer above hi
            lo = np.where(up, hi, lo)
            hi = np.where(up, hi * 2.0, hi)
            if not (down.any() or up.any()):
                break
        # the bounds part candidates once max(c) (hi - lo) is about 1/8:
        # from the usual bracket [-1, 1] that takes log2(16 max(c)) halvings
        first = min(max(0, 4 + math.ceil(math.log2(max(c_p, c_n)))), _MAX_UPDATES)
        lo, hi, updates = _bisect(lo, hi, np.zeros(kept.size, dtype=int), first, masses, rates)
        live = _can_still_win(lo, hi, masses, rates)
        kept, lo, hi, updates, masses = (kept[live], lo[live], hi[live], updates[live],
                                         masses[:, live])
        lead, group = _distinct(masses)
        lo, hi, updates, masses = lo[lead], hi[lead], updates[lead], masses[:, lead]
        target = _newton_hint(lo, hi, masses, rates)
        lo, hi, updates = _descend(lo, hi, updates, target, masses, rates)
        lo, hi, _ = _bisect(lo, hi, updates, _MAX_UPDATES, masses, rates)
    return kept, (0.5 * (lo + hi))[group]


def _distinct(masses):
    """One column index per group of equal columns of ``masses``, and the
    group of every column."""
    order = np.lexsort(masses)
    ordered = masses[:, order]
    starts = np.concatenate(([True], (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)))
    group = np.empty(order.size, dtype=int)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


def _slope(masses, rates, alpha):
    """Derivative of the class-separated loss at ``alpha``, through ``_terms``."""
    b_p, d_p, b_n, d_n = _terms(masses, rates, alpha)
    return rates[1] * (d_p - b_p) + rates[3] * (d_n - b_n)


def _bisect(lo, hi, updates, cap, masses, rates):
    """Bisect each element until its midpoint is stuck or its update count,
    starting at ``updates``, reaches ``cap``; returns the brackets and the
    counts."""
    while True:
        mid = 0.5 * (lo + hi)
        step = (mid != lo) & (mid != hi) & (updates < cap)
        if not step.any():
            return lo, hi, updates
        g = _slope(masses, rates, mid)
        hi = np.where(step & (g >= 0), mid, hi)
        lo = np.where(step & (g <= 0), mid, lo)
        updates = updates + step


def _newton_hint(lo, hi, masses, rates):
    """Estimates of the loss derivatives' roots: ``_NEWTON_STEPS`` Newton
    steps from each bracket's middle, each clipped into the bracket."""
    alpha = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        terms = rates * _terms(masses, rates, alpha)
        alpha = np.clip(alpha - terms.sum(axis=0) / (rates * terms).sum(axis=0), lo, hi)
    return alpha


def _descend(lo, hi, updates, target, masses, rates):
    """Bisection steps toward ``target``, verified in one batched evaluation.

    Level l of the path toward an element's target (clipped into its
    bracket) has the midpoint lo + w (a_l + 2^-(l+1)), w = hi - lo and
    a_l the target's position in the bracket cut to l bits; the path
    goes right where bit l + 1 is set. A level's left end is the running
    max of the earlier midpoints passed on the right, its right end the
    running min of those passed on the left. One ``_slope`` call
    evaluates every midpoint, and each element keeps its longest prefix
    of levels where the midpoint equals ``0.5 * (left + right)`` and the
    derivative sends the bracket the path's way (g < 0 right, g > 0
    left; 0 or NaN stops the prefix). A NaN target keeps no level.
    Returns the brackets after the kept levels and the update counts.
    """
    width = hi - lo
    # levels until every bracket is about one float spacing wide, plus
    # two, within every element's update budget
    need = np.frexp(width)[1] - np.frexp(np.maximum(-lo, hi))[1] + 54
    levels = min(int(need.max()), _MAX_UPDATES - int(updates.max()))
    if levels <= 0:
        return lo, hi, updates
    scale = 2.0 ** np.arange(levels + 1)
    position = np.minimum((np.clip(target, lo, hi) - lo) / width, _BELOW_ONE)
    bits = np.floor(position[:, None] * scale)  # the target's first l bits, as integers
    right = bits[:, 1:] > 2.0 * bits[:, :-1]
    mids = lo[:, None] + width[:, None] * ((bits[:, :-1] + 0.5) / scale[:-1])
    lower = np.maximum.accumulate(np.column_stack((lo, np.where(right, mids, -np.inf))), axis=1)
    upper = np.minimum.accumulate(np.column_stack((hi, np.where(right, np.inf, mids))), axis=1)
    g = _slope(masses[..., None], rates[..., None], mids)
    ok = (mids == 0.5 * (lower[:, :-1] + upper[:, :-1])) & np.where(right, g < 0, g > 0)
    kept = np.where(ok.all(axis=1), levels, ok.argmin(axis=1))
    rows = np.arange(lo.size)
    return lower[rows, kept], upper[rows, kept], updates + kept


def _can_still_win(lo, hi, masses, rates) -> np.ndarray:
    """Mask of the candidates whose final loss can still be the smallest.

    Each candidate's final alpha lies in its bracket [lo, hi] and its
    loss f is convex, so the final loss is at most max(f(lo), f(hi)).
    The tangents at lo and hi lie below f, so on [lo, hi] f is at least
    min(f(lo), f(hi), V), V the value where the tangents meet, at
    lo + (f(lo) - f(hi) + f'(hi) w) / (f'(hi) - f'(lo)), w = hi - lo.
    (min(f(lo), f(hi)) is no upper bound: the final alpha need not sit
    at the better end.) A candidate is dropped when its lower bound
    exceeds the smallest upper bound by more than rounding can explain.
    Its final loss then ends strictly above that of the bounding
    candidate, which is kept now and, if dropped later, ends above
    another; so it can win neither on loss nor on a tie.

    The margin covers every rounding. Let u = 2**-53, c = max(c_pos,
    c_neg), R = c max(|lo|, |hi|) and E = u (1 + R) (1 + c w) (f(lo) +
    f(hi)). Allowing each exp call 4 ulp (8u; numpy validates its
    float64 exp to 1 ulp), a term m exp(x c') carries (|x| c' + 9) u of
    itself: the product x c', exp, the product with m. f and f' take
    their terms from ``_terms``, where a zero mass adds an exact 0, with
    no rounding, whatever its exp. Hence:
    - f at an end is within (R + 12) u f and f' within (R + 13) u c f,
      as |f'| <= c f; over [lo, hi] a tangent built from the computed
      values is then off by at most 13 E.
    - With f'(lo) <= 0 <= f'(hi) the denominator adds two nonnegative
      numbers and |f'(lo)| / (f'(hi) - f'(lo)) <= 1, so the roundings
      in V cost at most 10 u (f(lo) + f(hi) + w (f'(hi) - f'(lo))),
      under 10 E.
    - ``csa_loss`` at the final alpha is within (R + 12) u f <= 12 E of
      the exact loss, for the dropped candidate and the bounding one.
    A dropped candidate's computed final loss therefore exceeds its
    lower bound minus 35 E, and the bounding candidate's stays under its
    upper bound plus 24 E. Each side takes ``_BOUND_ULPS`` (64) E, which
    leaves room for second-order terms and the few roundings of the
    comparison, plus the smallest normal float for subnormal underflow.
    Where R u is large the margin exceeds f and nothing is dropped.
    Candidates with a non-finite bound or an endpoint derivative of the
    wrong sign are kept.
    """
    terms = _terms(masses[:, None], rates[:, None], np.array((lo, hi)))
    f_lo, f_hi = terms.sum(axis=0)
    g_lo, g_hi = (rates[:, None] * terms).sum(axis=0)
    c = rates.max()
    width = hi - lo
    meet = (f_lo - f_hi + g_hi * width) / (g_hi - g_lo)
    lower = np.minimum(np.minimum(f_lo, f_hi), f_lo + g_lo * meet)
    margin = (_BOUND_ULPS * 2.0**-53 * (1.0 + c * np.maximum(np.abs(lo), np.abs(hi)))
              * (1.0 + c * width) * (f_lo + f_hi) + np.finfo(float).tiny)
    upper = np.maximum(f_lo, f_hi) + margin
    dropped = (g_lo <= 0) & (g_hi >= 0) & (lower - margin > np.fmin.reduce(upper))
    return ~dropped


def solve_csa_alpha(masses, costs: CostPair) -> float:
    """Vote weight minimizing the class-separated exponential loss.

    ``masses`` is one column [b_p, d_p, b_n, d_n] of the scan's class-mass
    block, as ``class_masses`` returns it, or any four finite,
    nonnegative numbers. It is the sweep's solve on a batch of one: the
    sides are floored by ``_floor_mass_groups`` and ``_csa_alpha_arrays``
    solves the column, with the closed form at equal costs, and prunes
    nothing.
    """
    column = np.asarray(masses, dtype=float)
    if column.shape != (4,) or not np.all(np.isfinite(column) & (column >= 0)):
        raise ValueError("masses must be four finite, nonnegative numbers")
    return float(_csa_alpha_arrays(_floor_mass_groups(column[:, None]), costs)[1][0])


def _csa_select(columns: SortedColumns, weights, costs: CostPair):
    """Joint stump/alpha selection minimizing the per-round loss.

    The candidates are the cuts of ``train_stump``, with the class masses
    of polarity +1; the polarity -1 twin shares the optimal loss with the
    vote weight negated, so each pair is solved once, all in one flat
    batch. ``_csa_alpha_arrays`` solves only the candidates whose loss
    can still be the smallest: the rest are pruned by tangent bounds that
    prove their loss ends strictly higher, so the selected stump, its
    alpha and every candidate tied with it on loss come out bit for bit
    as a full solve of the batch gives them. Ties break on (loss, plain
    weighted error, feature, threshold, polarity +1) -- the candidates
    come in (feature, threshold) order, so the first index among tied
    candidates realizes that hierarchy. ``columns`` is the training set's
    handle; the pick goes through ``stumps._pick``, keyed by (c_pos,
    c_neg) and the bytes of the selection mass.
    """
    return _pick(columns, weights, None, (costs.c_pos, costs.c_neg), _csa_pick, costs)


def _csa_pick(columns: SortedColumns, costs: CostPair):
    """``_csa_select``'s (stump, alpha) for the selection mass in ``columns.mass``."""
    masses = _class_block(columns)
    _check_class_totals(masses)
    floored = _floor_mass_groups(masses)
    kept, alphas = _csa_alpha_arrays(floored, costs)
    losses = csa_loss(alphas, floored[:, kept], costs)
    err_minus, err_plus = masses[:2, kept] + masses[2:, kept]  # b side, d side

    candidates = np.flatnonzero(losses == losses.min())
    pair_err = np.minimum(err_plus[candidates], err_minus[candidates])
    j = candidates[np.flatnonzero(pair_err == pair_err.min())[0]]
    polarity = 1 if err_plus[j] <= err_minus[j] else -1
    alpha = float(alphas[j]) if polarity == 1 else -float(alphas[j])
    return _cut_stump(columns, columns.below[kept[j]], polarity), alpha


def boost_round(algorithm, weights, features, labels, costs: CostPair, total_rounds, *,
                columns: SortedColumns | None = None, rule: _Rule | None = None) -> RoundResult:
    """One boosting round of the requested algorithm.

    Takes the sample weights (nonnegative, one per sample, with a positive
    total) and ``total_rounds``, the round budget ASB spreads its
    asymmetry over. Returns the selected stump, its vote weight alpha, the
    renormalized weights and the pre-normalization sum z. The degenerate
    flag marks rounds whose error term hit the clamp. ``rule``, the
    variant's terms of the module docstring's table, is ``_rule(algorithm,
    labels, costs, total_rounds)`` and ``columns`` is
    ``sort_columns(features, labels)``, each built here when omitted.
    The stump pick (``train_stump``, or CSA's ``_csa_select``) goes
    through ``stumps._pick``, which returns a pick ``columns`` keeps for
    the same selection mass instead of scanning.
    """
    if total_rounds < 1:
        raise ValueError("total_rounds must be >= 1")
    if columns is None:
        columns = sort_columns(features, labels)
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if rule is None:
        rule = _rule(algorithm, labels, costs, total_rounds)
    # every entry and the length are checked by the stump scan
    w = np.asarray(weights, dtype=float)
    if not w.sum() > 0:
        raise ValueError("weights must have a positive total")
    if rule.prescale is not None:
        scaled = w * rule.prescale
        w = scaled / scaled.sum()

    if rule.alpha == "loss":
        stump, alpha = _csa_select(columns, w, costs)
    else:
        stump = train_stump(features, labels, w, rule.select, columns=columns)
    pred = predict_matrix(stump, features)
    wrong = pred != labels
    agreement = labels * pred  # +1 correct, -1 wrong

    # products are only reordered or multiplied by exact factors (1.0 or
    # agreement = +-1), so every bit matches the per-variant formulas
    norm = 1.0 if rule.norm is None else float(np.sum(rule.norm * w))
    vw = _on(wrong, rule.v) * w
    if rule.alpha == "err":
        err, degenerate = _clamped(float(np.sum(vw[wrong])) / norm, _ERR_FLOOR)
        alpha = 0.5 * np.log((1.0 - err) / err)
    elif rule.alpha == "r":
        r, degenerate = _clamped(float(np.sum(vw * agreement)) / norm, -(1.0 - _ERR_FLOOR))
        alpha = 0.5 * np.log((1.0 + r) / (1.0 - r))
    else:
        degenerate = min(float(np.sum(w[~wrong])), float(np.sum(w[wrong]))) <= _MASS_FLOOR
    step = alpha if rule.step is None else rule.step

    with np.errstate(over="ignore", invalid="ignore"):
        unnorm = _terms(_on(wrong, rule.factor) * w, -_on(wrong, rule.scale) * agreement, step)
        z = float(unnorm.sum())
    if not math.isfinite(z):
        raise ValueError(f"{algorithm} weight update overflows at {costs}")
    if z == 0.0:  # every term underflowed: no weights to renormalize
        raise ValueError(f"{algorithm} weight update underflows at {costs}")
    return RoundResult(stump, float(alpha), unnorm / z, z, degenerate)


def adjust_threshold(scores, labels, costs: CostPair) -> float:
    """Decision threshold minimizing the training NEC of sign(score - t),
    at equal priors like every NEC the sweep reports.

    Candidates are the stump's cuts of the scores, placed by the stump's
    rule (``stumps.candidate_thresholds``) mirrored for the side t takes:
    each lies in (lower, upper] of two distinct scores, or above the
    maximum, plus the stump's cut below the minimum. With each class's
    scores sorted once, the false negatives at t are the positives below
    t and the false positives the negatives at or above it, both one
    ``searchsorted``. Ties break on smallest |t|, then smallest t.
    """
    scores = np.asarray(scores, dtype=float)
    positive = np.asarray(labels) > 0
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    pos = np.sort(scores[positive])
    neg = np.sort(scores[~positive])
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both classes must be present")
    # 0 - t mirrors t exactly, and a cut at +0 stays +0
    candidates = np.append(candidate_thresholds(scores)[0], 0.0 - candidate_thresholds(-scores))
    # prediction is +1 iff score >= t, so scores strictly below t are negatives
    fn = np.searchsorted(pos, candidates, side="left")
    fp = neg.size - np.searchsorted(neg, candidates, side="left")

    p = pcf(costs, 0.5)
    necs = (fn / pos.size) * p + (fp / neg.size) * (1.0 - p)
    ties = np.flatnonzero(necs == necs.min())
    tied = candidates[ties]
    pick = ties[np.lexsort((tied, np.abs(tied)))[0]]
    return float(candidates[pick])


def train_ensemble(algorithm, features, labels, costs: CostPair, rounds: int, *,
                   columns: SortedColumns | None = None):
    """Train one boosted ensemble and return (classifier, trace).

    Deterministic given the inputs. ``columns`` is ``sort_columns(features,
    labels)``, built here when omitted, and every round scans it. The
    trace's training NEC and asymmetry come after the loop, from the
    ``_staged_scores`` of every round prefix.

    A variant whose ``_RULES`` row is ADA's but for ``init`` never reads
    the costs while training, so its rounds (stumps, alphas, ``z`` and
    degenerate flags) follow from the bytes of its initial weights and
    ``rounds`` alone: they are trained once per such key and kept in
    ``columns.ensembles``, and a later call on the same ``columns`` with an
    equal key reads them back instead. The trace and ABT's threshold are
    derived from them at this call's costs either way.

    Every round still runs, but its stump pick is kept in ``columns``
    (see ``stumps._pick``). Returned or raised, the ensemble leaves only
    its first round's pick there (``stumps._forget_picks``): the first
    selection mass is the initial weights (times the multiplier), which
    many cells of a sweep share.
    A training set of one class raises ``ValueError`` before the first
    round, and so does an ensemble, after its rounds, whose summed
    absolute vote weights leave the float range: its staged scores would
    overflow.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if columns is None:
        columns = sort_columns(features, labels)
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    # the trace's rates need both classes: fail before any round trains
    positive = labels > 0
    if positive.all() or not positive.any():
        raise ValueError("both classes must be present")

    rule = _rule(algorithm, labels, costs, rounds)
    cost_blind = _RULES[algorithm][1:] == _RULES["ADA"][1:]
    key = (rule.init.tobytes(), rounds) if cost_blind else None
    kept = columns.ensembles.get(key)  # None is never a key
    if kept is None:
        weights, trained, keep = rule.init, [], len(columns.picks)
        try:
            for _ in range(rounds):
                result = boost_round(algorithm, weights, features, labels, costs, rounds,
                                     columns=columns, rule=rule)
                weights = result.weights
                trained.append((result.stump, result.alpha, result.z, result.degenerate))
                if len(trained) == 1:  # the first round's pick, where it was new
                    keep = len(columns.picks)
        finally:
            _forget_picks(columns, keep)
        kept = tuple(zip(*trained))  # stumps, alphas, zs, degenerate flags
        if key is not None:
            columns.ensembles[key] = kept
    stumps, alphas, zs, degenerate = map(list, kept)
    # every staged score is a prefix sum of +-alpha; rounding is monotone,
    # so a finite sum of the magnitudes bounds them all
    with np.errstate(over="ignore"):
        if not np.isfinite(np.cumsum(np.abs(alphas))[-1]):
            raise ValueError(f"{algorithm} votes overflow at {costs}")

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

