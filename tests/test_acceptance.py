"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing one pass/fail line (run with ``pytest -s`` to see
them all)."""

import math

import numpy as np
from helpers import (
    brute_force_min_bayes_risk,
    grid_oracle_2x2,
    random_canonical_setup,
    random_experiment,
    random_randomized_setup,
)

from expcompare import (
    Distribution,
    LabeledSet,
    LossMatrix,
    Transition,
    UnnormalizedMeasure,
    bias_variance,
    binary_symmetric,
    complete_class_check,
    compose,
    directed_deficiency,
    divides,
    entropy,
    identity,
    metric_check,
    min_bayes_risk,
    minimax_risk,
    mutual_information,
    randomization_check,
    risk_profile,
    sufficiency_reduction,
    terminal,
    uniform,
    zero_one_loss,
)
from expcompare import dpi_check
from expcompare._samplers import labeled, random_distribution, random_loss, random_markov

THETA = LabeledSet(("-1", "1"))
L01 = zero_one_loss(THETA)
BSC01 = binary_symmetric(0.1)
BSC03 = binary_symmetric(0.3)
UNIF = uniform(THETA)


def _report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description} {detail}"


def test_criterion_01_deficiency_lp_matches_grid_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        e = random_markov(rng, THETA, labeled("z", 2))
        e2 = random_markov(rng, THETA, labeled("w", 2))
        lp_value = directed_deficiency(e, e2, UNIF).value
        oracle = grid_oracle_2x2(e, e2, UNIF, step=0.01)
        worst = max(worst, abs(lp_value - oracle))
    _report(
        1,
        "deficiency LP agrees with the 0.01-grid search on 20 random 2x2 pairs",
        worst <= 1e-2,
        f"max |lp - grid| = {worst:.3g}",
    )


def test_criterion_02_divisibility_fixture():
    ok_fwd, witness = divides(BSC01, BSC03)
    compose_err = (
        np.abs(compose(witness, BSC01).matrix - BSC03.matrix).max() if ok_fwd else np.inf
    )
    ok_bwd, _ = divides(BSC03, BSC01)
    backward_value = directed_deficiency(BSC03, BSC01, UNIF).value
    passed = ok_fwd and compose_err <= 1e-6 and not ok_bwd and backward_value >= 0.05
    _report(
        2,
        "0.1-flip channel divides the 0.3 one (witness composes back), not conversely",
        passed,
        f"compose error {compose_err:.2g}, reverse deficiency {backward_value:.3g}",
    )


def test_criterion_03_terminal_vs_identity():
    value = directed_deficiency(terminal(THETA), identity(THETA), UNIF).value
    # grid oracle over the single constant output column (q, 1-q)
    grid = np.arange(0.0, 1.0 + 1e-12, 0.01)
    oracle = min(
        0.5 * (abs(q - 1.0) + abs(1.0 - q)) * 0.5 + 0.5 * (abs(q) + abs(-q)) * 0.5
        for q in grid
    )
    passed = abs(value - 0.5) <= 1e-6 and abs(oracle - 0.5) <= 1e-6
    _report(
        3,
        "uninformative-to-identity deficiency on two unknowns is exactly one half",
        passed,
        f"lp {value:.9f}, grid {oracle:.9f}",
    )


def test_criterion_04_randomization_bound():
    rng = np.random.default_rng(104)
    violations = 0
    max_excess = -np.inf
    for _ in range(200):
        n_t = int(rng.integers(2, 5))
        unknowns = labeled("t", n_t)
        e = random_markov(rng, unknowns, labeled("z", int(rng.integers(2, 5))))
        e2 = random_markov(rng, unknowns, labeled("w", int(rng.integers(2, 5))))
        pi = random_distribution(rng, unknowns)
        rep = randomization_check(e, e2, pi, trials=50, seed=int(rng.integers(1 << 30)))
        violations += rep.violations
        max_excess = max(max_excess, rep.max_abs_gap - rep.deficiency)
    _report(
        4,
        "200 pairs x 50 losses: risk gaps within the deficiency bound, "
        "normalized gaps never exceed the symmetrized deficiency",
        violations == 0 and max_excess <= 1e-7,
        f"violations {violations}, max normalized excess {max_excess:.2g}",
    )


def test_criterion_05_minimax_equals_sup_bayes():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        n_t = int(rng.integers(2, 4))
        unknowns = labeled("t", n_t)
        L = random_loss(rng, unknowns, int(rng.integers(2, 4)))
        e = random_markov(rng, unknowns, labeled("z", int(rng.integers(2, 4))))
        res = minimax_risk(L, e)
        at_prior = min_bayes_risk(L, e, res.least_favorable_prior).value
        worst = max(worst, abs(res.value - at_prior))
    _report(
        5,
        "minimax value equals the best Bayes risk at the extracted prior (50 instances)",
        worst <= 1e-6,
        f"max |minimax - bayes| = {worst:.2g}",
    )


def test_criterion_06_bias_variance_decomposition():
    rng = np.random.default_rng(106)
    worst_sum = 0.0
    min_variance = np.inf
    for _ in range(50):
        L, e, d = random_canonical_setup(
            rng,
            n_unknowns=int(rng.integers(2, 4)),
            n_obs=int(rng.integers(2, 4)),
            n_actions=int(rng.integers(2, 5)),
        )
        theta = L.unknowns.labels[int(rng.integers(len(L.unknowns)))]
        res = bias_variance(L, e, d, theta)
        pointwise = risk_profile(L, e, d)[theta]
        worst_sum = max(worst_sum, abs(res.bias + res.variance - pointwise))
        min_variance = min(min_variance, res.variance)
    for _ in range(50):
        L, e, d = random_randomized_setup(
            rng,
            n_unknowns=int(rng.integers(2, 4)),
            n_obs=int(rng.integers(2, 4)),
            n_actions=int(rng.integers(2, 5)),
        )
        theta = L.unknowns.labels[int(rng.integers(len(L.unknowns)))]
        res = bias_variance(L, e, d, theta)
        pointwise = risk_profile(L, e, d)[theta]
        worst_sum = max(worst_sum, abs(res.bias + res.variance - pointwise))
        min_variance = min(min_variance, res.variance)
    _report(
        6,
        "bias + variance reproduces the pointwise risk, variance nonnegative "
        "(50 deterministic and 50 randomized rules)",
        worst_sum <= 1e-7 and min_variance >= -1e-9,
        f"max |sum - risk| = {worst_sum:.2g}, min variance = {min_variance:.2g}",
    )


def test_criterion_07_homogeneous_support_identity():
    rng = np.random.default_rng(107)
    worst_pair = 0.0
    worst_scale = 0.0
    for _ in range(200):
        n_t = int(rng.integers(2, 5))
        unknowns = labeled("t", n_t)
        L = random_loss(rng, unknowns, int(rng.integers(2, 5)))
        w = rng.uniform(0.0, 2.0, n_t)
        mu = UnnormalizedMeasure(unknowns, w)
        scores = w @ L.values
        best = scores.argmin()
        worst_pair = max(worst_pair, abs(float(scores[best]) - entropy(L, mu)))
        doubled = entropy(L, mu.scaled(2.0))
        base = entropy(L, mu)
        denom = max(abs(base), 1e-300)
        worst_scale = max(worst_scale, abs(doubled - 2.0 * base) / denom)
    _report(
        7,
        "Bayes column pairs to the entropy exactly; doubling the measure doubles it",
        worst_pair <= 1e-9 and worst_scale <= 1e-12,
        f"max pairing gap {worst_pair:.2g}, max relative scale gap {worst_scale:.2g}",
    )


def test_criterion_08_classical_values():
    brute = brute_force_min_bayes_risk(L01, BSC01, UNIF)
    toolkit = min_bayes_risk(L01, BSC01, UNIF).value
    mi = mutual_information(BSC01, UNIF)
    rng = np.random.default_rng(108)
    worst_terminal = 0.0
    for _ in range(25):
        n_t = int(rng.integers(2, 5))
        unknowns = labeled("t", n_t)
        L = random_loss(rng, unknowns, int(rng.integers(2, 5)))
        pi = random_distribution(rng, unknowns)
        no_info = min_bayes_risk(L, terminal(unknowns), pi).value
        worst_terminal = max(worst_terminal, abs(no_info - entropy(L, pi)))
    passed = (
        brute == 0.1
        and abs(toolkit - brute) <= 1e-12
        and abs(mi - 0.368064) <= 1e-4
        and worst_terminal <= 1e-12
    )
    _report(
        8,
        "0.1-flip channel risk is exactly 0.1; its information is 0.368064 nats; "
        "the uninformative experiment pays the prior entropy",
        passed,
        f"brute {brute!r}, mi {mi:.6f}, max terminal gap {worst_terminal:.2g}",
    )


def test_criterion_09_metric_property():
    rng = np.random.default_rng(109)
    worst_triangle = -np.inf
    worst_self = 0.0
    for _ in range(10):
        exps = [
            random_markov(rng, THETA, labeled(f"z{i}", int(rng.integers(2, 5))))
            for i in range(3)
        ]
        rep = metric_check(exps, UNIF)
        worst_triangle = max(worst_triangle, rep.max_triangle_violation)
        worst_self = max(worst_self, rep.max_self_deficiency)
    _report(
        9,
        "directed triangle inequality and zero self-deficiency on 10 random triples",
        worst_triangle <= 1e-7 and worst_self <= 1e-7,
        f"max triangle violation {worst_triangle:.2g}, max self value {worst_self:.2g}",
    )


def test_criterion_10_data_processing_suites():
    reports = [
        dpi_check(kind, trials=500, seed=110 + i)
        for i, kind in enumerate(
            ("variational", "phi", "mutual_information", "risk_gap")
        )
    ]
    total = sum(r.violations for r in reports)
    worst = max(r.max_excess for r in reports)
    _report(
        10,
        "500-trial monotonicity suites for variation, KL, information and risk gap",
        total == 0 and worst <= 1e-9,
        f"violations {total}, max excess {worst:.2g}",
    )


def test_criterion_11_complete_class_at_desk_scale():
    rng = np.random.default_rng(111)
    all_ok = True
    detail = ""
    for k in range(10):
        unknowns = labeled("t", 2)
        L = random_loss(rng, unknowns, 2)
        e = random_markov(rng, unknowns, labeled("z", 2))
        rep = complete_class_check(L, e)
        if not rep.every_admissible_has_prior:
            all_ok = False
            detail = f"instance {k} failed"
            break
    _report(
        11,
        "every admissible deterministic rule gets a supporting prior; "
        "priorless rules are confirmed dominated (10 random 2x2x2 instances)",
        all_ok,
        detail,
    )


def test_criterion_12_sufficiency_of_the_reversal_statistic():
    rng = np.random.default_rng(112)
    worst = 0.0
    for k in range(20):
        n_t = int(rng.integers(2, 4))
        unknowns = labeled("t", n_t)
        base = random_markov(rng, unknowns, labeled("z", int(rng.integers(2, 4))))
        if k % 2 == 0:
            # split one observation into two proportional copies so the
            # posterior map genuinely merges something
            split = rng.uniform(0.2, 0.8)
            m = np.vstack(
                [
                    base.matrix[0:1, :] * split,
                    base.matrix[0:1, :] * (1.0 - split),
                    base.matrix[1:, :],
                ]
            )
            e = Transition(unknowns, labeled("z", m.shape[0]), m)
        else:
            e = base
        pi = random_distribution(rng, unknowns)
        L = random_loss(rng, unknowns, int(rng.integers(2, 4)))
        reduced = compose(sufficiency_reduction(e), e)
        worst = max(
            worst,
            abs(min_bayes_risk(L, reduced, pi).value - min_bayes_risk(L, e, pi).value),
        )
    _report(
        12,
        "merging equal-posterior observations preserves every Bayes risk (20 instances)",
        worst <= 1e-7,
        f"max risk change {worst:.2g}",
    )
