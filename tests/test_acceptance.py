"""Acceptance suite: one test per release criterion, with pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion. Every expected value is either computed by an independent
oracle inside the test or cross-checked against frozen published
operating points.
"""

import json
import math
import time

import numpy as np
import pytest

from costboost.boosting import CostPair, csa_loss, solve_csa_alpha, train_ensemble
from costboost.datasets import DEFAULT_GAUSS, GaussParams, bayes_optimal_rates, gen_bayes
from costboost.harness import detect_convergence
from costboost.metrics import ConfusionRates, nec
from costboost.stumps import predict_matrix


def report(criterion: int, message: str) -> None:
    print(f"[PASS] criterion {criterion}: {message}")


# ----------------------------------------------------------------------
# criterion 1: published cost-curve operating points are consistent with
# the NEC identity. Columns: dataset, c_pos, c_neg, algorithm, FNR, FPR,
# published NEC (all rounded to three significant figures at the source).
REFERENCE_OPERATING_POINTS = [
    ("bayes", 1, 100, "BAY", 0.620, 0.000, 6.14e-3),
    ("bayes", 1, 100, "ABT", 1.29e-1, 5.22e-2, 5.30e-2),
    ("bayes", 1, 100, "CB1", 1.000, 0.000, 9.90e-3),
    ("bayes", 1, 50, "CGA", 1.45e-1, 4.82e-2, 5.01e-2),
    ("bayes", 1, 25, "CSA", 7.63e-2, 8.84e-2, 8.79e-2),
    ("bayes", 1, 10, "AC1", 1.57e-1, 3.21e-2, 4.34e-2),
    ("bayes", 1, 1, "ABT", 8.43e-2, 7.63e-2, 8.03e-2),
    ("bayes", 3, 2, "CB0", 4.02e-3, 3.29e-1, 1.34e-1),
    ("bayes", 100, 1, "CGA", 2.81e-2, 1.61e-1, 2.94e-2),
    ("bayes", 5, 1, "ADC", 1.61e-2, 2.77e-1, 5.96e-2),
    ("twoclouds", 1, 100, "ASB", 5.30e-1, 8.63e-2, 9.07e-2),
    ("twoclouds", 1, 100, "ADC", 3.33e-1, 0.000, 3.30e-3),
    ("twoclouds", 1, 25, "CGA", 6.04e-1, 4.42e-2, 6.57e-2),
    ("twoclouds", 1, 5, "CSA", 3.07e-1, 2.71e-1, 2.77e-1),
    ("twoclouds", 1, 3, "ADC", 8.43e-2, 9.68e-1, 7.47e-1),
    ("breast", 1, 100, "CGA", 2.36e-1, 2.53e-2, 2.74e-2),
    ("breast", 1, 50, "AC1", 2.19e-1, 1.27e-2, 1.67e-2),
    ("breast", 1, 25, "CSA", 9.70e-2, 4.22e-2, 4.43e-2),
    ("breast", 1, 7, "AC3", 1.000, 2.11e-2, 1.43e-1),
    ("breast", 1, 1, "ADC", 4.64e-2, 6.33e-2, 5.49e-2),
    ("credit", 1, 25, "ABT", 6.43e-1, 9.67e-2, 1.18e-1),
    ("credit", 1, 25, "CSA", 5.80e-1, 1.60e-1, 1.76e-1),
    ("credit", 1, 10, "ADC", 3.33e-2, 9.97e-1, 9.09e-1),
    ("credit", 1, 5, "ASB", 5.83e-1, 1.43e-1, 2.17e-1),
    ("diabetes", 1, 100, "CSA", 6.03e-1, 8.99e-2, 9.50e-2),
    ("diabetes", 1, 25, "CGA", 6.48e-1, 7.87e-2, 1.01e-1),
    ("diabetes", 1, 10, "ABT", 3.97e-1, 2.21e-1, 2.37e-1),
    ("ionosphere", 1, 100, "CGA", 3.41e-1, 7.94e-2, 8.20e-2),
    ("ionosphere", 1, 50, "CSA", 7.94e-2, 2.94e-1, 2.89e-1),
    ("ionosphere", 1, 25, "AC1", 4.29e-1, 3.17e-2, 4.70e-2),
    ("spam", 1, 100, "AC1", 6.21e-1, 1.10e-3, 7.24e-3),
    ("spam", 1, 50, "CSA", 8.66e-2, 7.34e-2, 7.37e-2),
    ("spam", 1, 25, "CB0", 8.23e-1, 5.52e-4, 3.22e-2),
    ("spam", 1, 10, "CGA", 9.11e-2, 4.86e-2, 5.24e-2),
]


def sig3(value: float) -> str:
    return f"{value:.3g}"


def ulp3(value: float) -> float:
    """One unit in the third significant figure of ``value``."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 2)


def test_criterion_1_metric_identity_on_published_rows():
    start = time.perf_counter()
    assert len(REFERENCE_OPERATING_POINTS) >= 20
    strict = 0
    for _, c_pos, c_neg, _, fnr, fpr, published in REFERENCE_OPERATING_POINTS:
        rates = ConfusionRates(fnr=fnr, fpr=fpr, ce=(fnr + fpr) / 2)
        computed = nec(rates, CostPair(c_pos, c_neg), 0.5)
        # the published FNR/FPR are themselves 3-digit roundings, so the
        # recomputed NEC may sit one unit off in the third figure
        assert abs(computed - published) <= ulp3(published)
        if sig3(computed) == sig3(published):
            strict += 1
    assert strict >= 20
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"{len(REFERENCE_OPERATING_POINTS)} rows agree at 3 significant "
              f"figures ({strict} exactly) in {elapsed:.2f}s")


# ----------------------------------------------------------------------
REDUCTION_ALGORITHMS = ("AC1", "AC2", "AC3", "CB2", "CSA", "CGA", "ASB")


def test_criterion_2_unit_cost_reduction_suite():
    start = time.perf_counter()
    data = gen_bayes(100, 100, seed=2025)
    unit = CostPair(1, 1)
    ref, _ = train_ensemble("ADA", data.features, data.labels, unit, rounds=20)
    for algorithm in REDUCTION_ALGORITHMS:
        got, _ = train_ensemble(algorithm, data.features, data.labels, unit, rounds=20)
        assert got.stumps == ref.stumps, algorithm
        for a, b in zip(ref.alphas, got.alphas):
            assert abs(b - a) <= 1e-12 * abs(a), algorithm
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"{len(REDUCTION_ALGORITHMS)} variants reproduce the plain rounds "
              f"exactly at unit costs in {elapsed:.1f}s")


# ----------------------------------------------------------------------
def test_criterion_3_exponential_bound():
    start = time.perf_counter()
    from costboost.boosting import init_weights

    checked = 0
    for seed in range(5):
        data = gen_bayes(30, 30, seed=seed)
        for costs in (CostPair(1, 1), CostPair(1, 5), CostPair(5, 1)):
            for algorithm in ("ADA", "CGA"):
                classifier, trace = train_ensemble(
                    algorithm, data.features, data.labels, costs, rounds=20
                )
                w0 = init_weights(algorithm, data.labels, costs)
                score = np.zeros(data.n_samples)
                bound = 1.0
                for t in range(20):
                    score += classifier.alphas[t] * predict_matrix(
                        classifier.stumps[t], data.features
                    )
                    bound *= trace.zs[t]
                    pred = np.where(score >= 0, 1, -1)
                    weighted_err = float(np.sum(w0[pred != data.labels]))
                    assert weighted_err <= bound + 1e-12
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"{checked} round prefixes respect the product bound in {elapsed:.1f}s")


# ----------------------------------------------------------------------
def grid_argmin(masses, costs: CostPair, lo=-10.0, hi=10.0,
                coarse=1e-3, fine=1e-6):
    """Argmin of the round loss on a uniform ``fine``-step grid.

    Two-stage refinement: the loss is strictly convex, so the fine-grid
    argmin lies within one coarse step of the coarse-grid argmin; the
    result equals a full fine scan of [lo, hi] at a fraction of the work.
    """
    coarse_grid = np.arange(lo, hi + coarse / 2, coarse)
    center = coarse_grid[int(np.argmin(csa_loss(coarse_grid, masses, costs)))]
    lo_f = max(lo, center - coarse)
    hi_f = min(hi, center + coarse)
    offsets = np.arange(0.0, hi_f - lo_f + fine / 2, fine)
    fine_grid = lo_f + offsets
    return float(fine_grid[int(np.argmin(csa_loss(fine_grid, masses, costs)))])


def test_grid_oracle_matches_full_scan():
    # self-check of the two-stage oracle against a literal full fine scan;
    # the two constructions may land on float-neighbouring grid points,
    # so agreement is asserted to one grid step
    rng = np.random.default_rng(5)
    for _ in range(2):
        masses = rng.uniform(0.05, 1.0, size=4)
        costs = CostPair(*rng.uniform(0.5, 4.0, size=2))
        full = np.arange(-2.0, 2.0 + 5e-7, 1e-6)
        expected = float(full[int(np.argmin(csa_loss(full, masses, costs)))])
        assert abs(grid_argmin(masses, costs, lo=-2.0, hi=2.0) - expected) <= 1e-6


def test_criterion_4_csa_alpha_solver():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(1000):
        masses = rng.uniform(0.01, 1.0, size=4)
        costs = CostPair(*rng.uniform(0.5, 10.0, size=2))
        alpha = solve_csa_alpha(masses, costs)
        assert abs(alpha - grid_argmin(masses, costs)) <= 1e-6
    for _ in range(200):
        b_p, d_p, b_n, d_n = masses = rng.uniform(0.01, 1.0, size=4)
        # np.log, the log of the sweep's solve: math.log can differ in the last bit
        closed = 0.5 * np.log((b_p + b_n) / (d_p + d_n))
        assert solve_csa_alpha(masses, CostPair(1, 1)) == closed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, f"1000 solver outputs beat the 1e-6 grid and 200 unit-cost calls "
              f"are closed-form exact in {elapsed:.1f}s")


# ----------------------------------------------------------------------
def monte_carlo_rates(params: GaussParams, costs: CostPair, n: int, seed: int):
    """Empirical rates of the cost-optimal rule on fresh normal samples.

    Independent sampling path (numpy's own normal generator) and an
    inline restatement of the linear rule.
    """
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(np.asarray(params.covariance, float))
    mu_p = np.asarray(params.mean_pos, float)
    mu_n = np.asarray(params.mean_neg, float)
    pos = mu_p + rng.standard_normal((n, 2)) @ chol.T
    neg = mu_n + rng.standard_normal((n, 2)) @ chol.T

    cov_inv = np.linalg.inv(np.asarray(params.covariance, float))
    w = cov_inv @ (mu_p - mu_n)
    b = -0.5 * float(w @ (mu_p + mu_n))
    tau = math.log(costs.c_neg / costs.c_pos)
    fnr = float(np.mean(pos @ w + b < tau))
    fpr = float(np.mean(neg @ w + b >= tau))
    return fnr, fpr


def test_criterion_5_bayes_optimal_sanity():
    start = time.perf_counter()
    n = 1_000_000
    cost_list = (CostPair(1, 1), CostPair(1, 5), CostPair(5, 1))
    for i, costs in enumerate(cost_list):
        analytic = bayes_optimal_rates(DEFAULT_GAUSS, costs)
        fnr_hat, fpr_hat = monte_carlo_rates(DEFAULT_GAUSS, costs, n, seed=500 + i)
        se_fnr = math.sqrt(analytic.fnr * (1 - analytic.fnr) / n)
        se_fpr = math.sqrt(analytic.fpr * (1 - analytic.fpr) / n)
        assert abs(fnr_hat - analytic.fnr) < 3 * se_fnr
        assert abs(fpr_hat - analytic.fpr) < 3 * se_fpr

    from costboost.harness import AVG_FOLD, DatasetSpec, ExperimentConfig, run_experiment

    config = ExperimentConfig(
        datasets=(DatasetSpec(kind="bayes", n_pos=250, n_neg=250),),
        algorithms=("CGA",),
        costs=tuple((c.c_pos, c.c_neg) for c in cost_list),
        folds=3,
        rounds=500,
        seed=123,
    )
    store = run_experiment(config)
    ratios = []
    for record in store.records:
        if record.fold != AVG_FOLD:
            continue
        optimum = nec(bayes_optimal_rates(DEFAULT_GAUSS, record.cost), record.cost, 0.5)
        ratios.append(record.nec / optimum)
        assert record.nec <= 2.0 * optimum
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(5, "analytic rates within 3 SE of 1e6-sample Monte-Carlo and trained "
              f"NEC/optimum ratios {['%.2f' % r for r in ratios]} all <= 2 "
              f"in {elapsed:.0f}s")


# ----------------------------------------------------------------------
def test_criterion_6_asymmetry_swap_report():
    # soft check: reported, not gated
    data = gen_bayes(100, 100, seed=42)
    costs = CostPair(1, 50)
    _, trace_csa = train_ensemble("CSA", data.features, data.labels, costs, rounds=200)
    _, trace_cga = train_ensemble("CGA", data.features, data.labels, costs, rounds=200)
    final_csa = trace_csa.train_ca[-1]
    final_cga = trace_cga.train_ca[-1]
    verdict = "below" if final_csa < final_cga else "NOT below"
    report(6, f"final training asymmetry at (1,50): joint-loss variant "
              f"{final_csa:.4f} vs cost-init variant {final_cga:.4f} "
              f"(joint-loss ends {verdict}; reported, not gated)")
    assert not math.isnan(final_csa) and not math.isnan(final_cga)


# ----------------------------------------------------------------------
def test_criterion_7_per_round_timing_ordering():
    start = time.perf_counter()
    angles = tuple(j * math.pi / 57 for j in range(57))
    params = GaussParams((1.0, 0.0), (-1.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), angles)
    data = gen_bayes(1813, 1813, params=params, seed=5)
    assert data.features.shape == (3626, 57)
    costs = CostPair(1, 10)

    per_round = {}
    for algorithm in ("CGA", "CSA"):
        t0 = time.perf_counter()
        train_ensemble(algorithm, data.features, data.labels, costs, rounds=3)
        per_round[algorithm] = (time.perf_counter() - t0) / 3
    ratio = per_round["CSA"] / per_round["CGA"]
    assert ratio >= 3.0
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(7, f"per-round wall time ratio CSA/CGA = {ratio:.1f} "
              f"({per_round['CSA']*1e3:.0f}ms vs {per_round['CGA']*1e3:.0f}ms) "
              f"in {elapsed:.0f}s")


# ----------------------------------------------------------------------
def brute_force_cutoff(trace, tol=1e-3, tail_fraction=0.1):
    k_total = len(trace)
    for k in range(1, k_total):
        tail = np.asarray(trace[k:], dtype=float)
        if (np.max(np.abs(tail - tail.mean())) < tol
                and (k_total - k) >= tail_fraction * k_total):
            return k
    return None


def test_criterion_8_convergence_detector():
    start = time.perf_counter()
    assert detect_convergence([0.25] * 100) == 1
    oscillating = [0.3 + (0.1 if t % 2 else -0.1) for t in range(100)]
    assert detect_convergence(oscillating) is None
    assert detect_convergence([0.5] * 80 + [0.2] * 20) == 80

    rng = np.random.default_rng(808)
    for _ in range(100):
        k_total = int(rng.integers(5, 150))
        step_at = int(rng.integers(1, k_total))
        levels = rng.random(2)
        noise = rng.normal(scale=rng.choice([0.0, 1e-5, 5e-4, 1e-2]), size=k_total)
        trace = np.where(np.arange(k_total) < step_at, levels[0], levels[1]) + noise
        assert detect_convergence(trace) == brute_force_cutoff(trace)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(8, f"three pinned examples plus 100 randomized traces match the "
              f"brute-force scan in {elapsed:.1f}s")


# ----------------------------------------------------------------------
def test_criterion_9_run_determinism(tmp_path):
    start = time.perf_counter()
    from costboost.cli import main

    config_path = "configs/default.json"
    with open(config_path, encoding="utf-8") as handle:
        datasets = json.load(handle)["datasets"]
    assert len(datasets) == 2  # the shipped default sweeps both synthetic sets

    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    assert main(["run", "--config", config_path, "--out", str(out_a), "--jobs", "1"]) == 0
    assert main(["run", "--config", config_path, "--out", str(out_b), "--jobs", "2"]) == 0

    records_a = (out_a / "records.csv").read_bytes()
    records_b = (out_b / "records.csv").read_bytes()
    assert records_a == records_b
    assert (out_a / "metadata.json").read_bytes() == (out_b / "metadata.json").read_bytes()
    traces_a = sorted((out_a / "traces").glob("*.csv"))
    traces_b = sorted((out_b / "traces").glob("*.csv"))
    assert [p.name for p in traces_a] == [p.name for p in traces_b]
    for a, b in zip(traces_a, traces_b):
        assert a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(9, f"two runs (1 and 2 workers) wrote byte-identical records and "
              f"{len(traces_a)} traces in {elapsed:.0f}s")
