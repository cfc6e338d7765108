"""Side-by-side look at the twelve boosting variants on one scenario.

Trains every algorithm on the same asymmetric problem (false positives
five times as expensive as false negatives), evaluates on a held-out
split and prints where each variant lands. Also demonstrates two
structural facts: most variants collapse onto plain AdaBoost when the
costs are equal, and the cost-adjustment variant can produce negative
vote weights.
"""

import numpy as np

from costboost import (
    ALGORITHM_IDS,
    CostPair,
    classification_asymmetry,
    confusion_rates,
    decision_scores,
    gen_bayes,
    nec,
    train_ensemble,
)

costs = CostPair(1, 5)  # false positives are five times as expensive
train = gen_bayes(150, 150, seed=10)
test = gen_bayes(400, 400, seed=11)
rounds = 60

print(f"training {len(ALGORITHM_IDS)} variants, costs "
      f"(c_pos={costs.c_pos}, c_neg={costs.c_neg}), {rounds} rounds each")
print()
print(f"{'alg':<4} {'test FNR':>9} {'test FPR':>9} {'test CE':>9} "
      f"{'test NEC':>9} {'train CA':>9}")
for algorithm in ALGORITHM_IDS:
    classifier, trace = train_ensemble(
        algorithm, train.features, train.labels, costs, rounds
    )
    scores = decision_scores(classifier, test.features)
    pred = np.where(scores - classifier.decision_threshold >= 0, 1, -1)
    rates = confusion_rates(pred, test.labels)
    print(f"{algorithm:<4} {rates.fnr:9.4f} {rates.fpr:9.4f} {rates.ce:9.4f} "
          f"{nec(rates, costs, 0.5):9.4f} {trace.train_ca[-1]:9.4f}")

print()
print("a CA below 0.5 means negatives (the costly class here) are classified")
print("better than positives; saturated variants drive FNR toward 1.")

print()
print("=== unit-cost sanity: most variants ARE plain AdaBoost at (1,1) ===")
unit = CostPair(1, 1)
ref, _ = train_ensemble("ADA", train.features, train.labels, unit, 15)
for algorithm in ("AC1", "AC2", "AC3", "CB2", "CSA", "CGA", "ASB"):
    got, _ = train_ensemble(algorithm, train.features, train.labels, unit, 15)
    drift = max(abs(a - b) for a, b in zip(ref.alphas, got.alphas))
    same = got.stumps == ref.stumps
    print(f"{algorithm}: identical stumps={same}, max vote-weight drift={drift:.2e}")

print()
print("=== the cost-adjustment pathology ===")
data = gen_bayes(30, 30, seed=0)
classifier, _ = train_ensemble("ADC", data.features, data.labels, CostPair(1, 10), 15)
negative = [round(a, 4) for a in classifier.alphas if a < 0]
print(f"ADC produced {len(negative)} negative vote weights out of 15: "
      f"{negative[:6]}{' ...' if len(negative) > 6 else ''}")
print("the stump is selected by the weight distribution but weighted by a")
print("different criterion, so its contribution can flip sign; the classifier")
print("keeps this instead of patching it.")
