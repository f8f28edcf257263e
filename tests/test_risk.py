from itertools import product as iter_product

import numpy as np
import pytest
from helpers import (
    brute_force_min_bayes_risk,
    deterministic_rules,
    random_canonical_setup,
    random_experiment,
    random_randomized_setup,
    rule_from_assignment,
)

from expcompare import (
    ArgumentError,
    Distribution,
    LabeledSet,
    LossMatrix,
    Transition,
    bayes_risk,
    bias_variance,
    binary_symmetric,
    complete_class_check,
    compose,
    entropy,
    from_function,
    identity,
    is_admissible,
    log_loss_grid,
    max_risk,
    min_bayes_risk,
    minimax_risk,
    point_mass,
    psi,
    reverse,
    risk_profile,
    sufficiency_reduction,
    terminal,
    uniform,
    zero_one_loss,
    zero_sum_part,
)
from expcompare import lp, risk
from expcompare._samplers import labeled, random_distribution, random_loss, random_markov
from expcompare.risk import ENUMERATION_CAP

THETA = LabeledSet(("-1", "1"))
L01 = zero_one_loss(THETA)
BSC01 = binary_symmetric(0.1)
ID = identity(THETA)
UNIF = uniform(THETA)

#: Seed and pivot bound of the complete-class case at the enumeration cap:
#: 3 unknowns, 4 actions and 6 observations give 4096 rules.  Without the
#: screens of complete_class_check they took 8192 LPs and 44 627 pivots;
#: with them, 156 LPs and 818 pivots.
CAP_SEED, CAP_PIVOT_BOUND = 7, 60_000
#: LPs that complete_class_check solves on the cap instance and on the
#: 243-rule instance of TestCompleteClass (2 * 4096 and 2 * 243 unscreened)
CAP_LPS, LPS_243 = 156, 78


def _instance_243():
    rng = np.random.default_rng(42)
    unknowns = labeled("t", 3)
    L = random_loss(rng, unknowns, 3, low=0.0)
    return L, random_markov(rng, unknowns, labeled("z", 5))


def _recording_solves(monkeypatch) -> list:
    """Record the result of every ``lp.solve`` call from here on."""
    results = []
    solve = lp.solve

    def recording(p):
        results.append(solve(p))
        return results[-1]

    monkeypatch.setattr(lp, "solve", recording)
    return results


def _assert_matches_unscreened(L, e):
    """The report equals one that solves both LPs of every rule."""
    rep = complete_class_check(L, e)
    K, sums = risk._rule_space(L, e)
    obs = np.arange(len(e.target))
    rules = list(iter_product(range(len(L.actions)), repeat=len(obs)))
    assert len(rep.rules) == len(rules)
    for g, r in zip(rules, rep.rules):
        g = np.asarray(g)
        profile = K[:, obs, g].sum(axis=1)
        assert r.actions == tuple(L.actions.labels[a] for a in g)
        np.testing.assert_array_equal(r.risk, profile)
        assert r.admissible == (risk._best_dominating(K, sums, profile) <= lp.FEAS_TOL)
        prior = risk._supporting_prior(L, K, g)
        assert (r.prior is None) == (prior is None)
        if prior is not None:
            np.testing.assert_array_equal(r.prior.weights, prior.weights)
    return rep


def _screen_instance(kind: str, seed: int):
    """A random complete-class instance with at most 64 rules."""
    rng = np.random.default_rng(seed)
    n_t, n_a = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    n_z = int(rng.integers(1, int(np.log(64.5) / np.log(n_a)) + 1))
    unknowns = labeled("t", n_t)
    if kind == "integer":
        vals = rng.integers(0, 4, (n_t, n_a)).astype(float)
    elif kind == "duplicate":
        vals = rng.uniform(-1.0, 1.0, (n_t, n_a))
        vals[:, -1] = vals[:, 0]
    elif kind == "constant":
        vals = np.full((n_t, n_a), 0.7)
    else:
        vals = rng.uniform(0.0, 1.0, (n_t, n_a))
    L = LossMatrix(unknowns, labeled("a", n_a), vals)
    return L, random_markov(rng, unknowns, labeled("z", n_z))


class TestRiskProfile:
    def test_perfect_information_zero_profile(self):
        best = from_function(THETA, THETA, {t: t for t in THETA.labels})
        np.testing.assert_allclose(risk_profile(L01, ID, best).values, [0.0, 0.0])

    def test_bsc_identity_rule(self):
        np.testing.assert_allclose(risk_profile(L01, BSC01, ID).values, [0.1, 0.1])

    def test_constant_rule_reads_loss_column(self):
        rng = np.random.default_rng(50)
        L = random_loss(rng, THETA, 3)
        e = random_markov(rng, THETA, labeled("z", 3))
        d = from_function(e.target, L.actions, lambda _: "a1")
        np.testing.assert_allclose(risk_profile(L, e, d).values, L.column("a1"), atol=1e-12)

    def test_matches_the_composed_strategy(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            L = random_loss(rng, labeled("t", int(rng.integers(2, 5))), int(rng.integers(2, 5)))
            e = random_experiment(rng, len(L.unknowns), int(rng.integers(2, 5)))
            d = random_markov(rng, e.target, L.actions)
            want = np.einsum("at,ta->t", compose(d, e).matrix, L.values)
            np.testing.assert_allclose(risk_profile(L, e, d).values, want, rtol=0, atol=1e-15)


class TestAggregates:
    def test_bayes_risk_bsc(self):
        assert bayes_risk(L01, BSC01, ID, UNIF) == pytest.approx(0.1, abs=1e-15)

    def test_point_mass_prior_reads_profile(self):
        rng = np.random.default_rng(51)
        L = random_loss(rng, THETA, 3)
        d = random_markov(rng, THETA, L.actions)
        profile = risk_profile(L, BSC01, d)
        for t in THETA.labels:
            assert bayes_risk(L, BSC01, d, point_mass(THETA, t)) == pytest.approx(
                profile[t], abs=1e-12
            )

    def test_constant_loss(self):
        L = LossMatrix(THETA, LabeledSet(("a", "b")), np.full((2, 2), 0.7))
        rng = np.random.default_rng(52)
        d = random_markov(rng, THETA, L.actions)
        pi = random_distribution(rng, THETA)
        assert bayes_risk(L, BSC01, d, pi) == pytest.approx(0.7, abs=1e-12)

    def test_max_risk(self):
        assert max_risk(L01, BSC01, ID) == pytest.approx(0.1)
        skew = Transition(THETA, THETA, [[0.9, 0.3], [0.1, 0.7]])
        prof = risk_profile(L01, skew, ID)
        assert max_risk(L01, skew, ID) == pytest.approx(prof.values.max())


class TestReverse:
    def test_identity_is_self_inverse(self):
        pi = Distribution(THETA, [0.3, 0.7])
        rev = reverse(ID, pi)
        np.testing.assert_allclose(rev.posterior.matrix, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(rev.marginal.weights, pi.weights)
        assert rev.support == THETA.labels

    def test_terminal_returns_prior(self):
        pi = Distribution(THETA, [0.3, 0.7])
        rev = reverse(terminal(THETA), pi)
        np.testing.assert_allclose(rev.posterior.matrix[:, 0], pi.weights)
        assert rev.marginal.weights[0] == pytest.approx(1.0)

    def test_bsc_posterior_value(self):
        rev = reverse(BSC01, UNIF)
        assert rev.posterior.matrix[0, 0] == pytest.approx(0.9)

    def test_joint_consistency_on_random_instances(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            e = random_experiment(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            pi = random_distribution(rng, e.source)
            rev = reverse(e, pi)
            for z, lbl in enumerate(e.target.labels):
                if lbl not in rev.support:
                    continue
                joint = e.matrix[z, :] * pi.weights
                np.testing.assert_allclose(
                    rev.posterior.matrix[:, z] * rev.marginal.weights[z],
                    joint,
                    atol=1e-9,
                )

    def test_zero_marginal_outcome_excluded(self):
        e = Transition(THETA, LabeledSet(("z0", "z1", "never")), [[0.9, 0.2], [0.1, 0.8], [0.0, 0.0]])
        rev = reverse(e, UNIF)
        assert "never" not in rev.support
        np.testing.assert_allclose(rev.posterior.matrix[:, 2], UNIF.weights)


class TestMinBayesRisk:
    def test_identity_experiment_has_zero_risk(self):
        res = min_bayes_risk(L01, ID, Distribution(THETA, [0.4, 0.6]))
        assert res.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(res.rule.matrix, np.eye(2))

    def test_terminal_experiment_pays_the_prior_entropy(self):
        assert min_bayes_risk(L01, terminal(THETA), UNIF).value == pytest.approx(0.5)

    def test_bsc_matches_brute_force(self):
        oracle = brute_force_min_bayes_risk(L01, BSC01, UNIF)
        assert oracle == 0.1
        assert min_bayes_risk(L01, BSC01, UNIF).value == pytest.approx(oracle, abs=1e-12)

    def test_never_beaten_by_random_rules(self):
        rng = np.random.default_rng(54)
        L = random_loss(rng, THETA, 3)
        e = random_markov(rng, THETA, labeled("z", 3))
        pi = random_distribution(rng, THETA)
        best = min_bayes_risk(L, e, pi).value
        for _ in range(100):
            d = random_markov(rng, e.target, L.actions)
            assert best <= bayes_risk(L, e, d, pi) + 1e-9

    def test_achieved_by_its_own_rule(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            L = random_loss(rng, labeled("t", 3), 3)
            e = random_experiment(rng, 3, 4)
            pi = random_distribution(rng, e.source)
            value, rule = min_bayes_risk(L, e, pi)
            assert bayes_risk(L, e, rule, pi) == pytest.approx(value, abs=1e-9)

    def test_unsupported_outcome_goes_to_first_action(self):
        e = Transition(THETA, LabeledSet(("z0", "z1", "never")), [[0.9, 0.2], [0.1, 0.8], [0.0, 0.0]])
        res = min_bayes_risk(L01, e, UNIF)
        assert res.rule.matrix[0, 2] == 1.0

    def test_exact_ties_take_the_lowest_index(self):
        # every column appears twice, so the first of each pair must win
        rng = np.random.default_rng(62)
        unknowns = labeled("t", 3)
        base = np.round(random_loss(rng, unknowns, 2, low=0.0).values * 4) / 4
        L = LossMatrix(unknowns, labeled("a", 4), base[:, [1, 1, 0, 0]])
        for _ in range(20):
            e = random_experiment(rng, 3, 4)
            pi = random_distribution(rng, unknowns)
            res = min_bayes_risk(L, e, pi)
            chosen = res.rule.matrix.argmax(axis=0)
            assert set(chosen) <= {0, 2}
            assert res.value == pytest.approx(brute_force_min_bayes_risk(L, e, pi), abs=1e-12)

    def test_zero_masses_take_action_zero(self):
        # the zero prior weight on t2 leaves z2 (seen only under t2) with
        # no mass; z3 has mass 3e-14, below the support cutoff, although
        # its Bayes action alone would be a1
        unknowns = labeled("t", 3)
        e = Transition(unknowns, labeled("z", 4), [
            [0.6 - 1e-13, 0.1, 0.0], [0.4, 0.9, 0.0], [0.0, 0.0, 1.0], [1e-13, 0.0, 0.0],
        ])
        pi = Distribution(unknowns, [0.3, 0.7, 0.0])
        L = LossMatrix(unknowns, labeled("a", 3), [[0.5, 0.2, 0.9], [0.1, 0.8, 0.0], [0.0, 0.6, 0.3]])
        res = min_bayes_risk(L, e, pi)
        np.testing.assert_array_equal(res.rule.matrix[:, 2:], [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        assert res.value == pytest.approx(brute_force_min_bayes_risk(L, e, pi), abs=1e-13)

    def test_rule_is_the_validated_one_hot_transition(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            L = random_loss(rng, labeled("t", 3), int(rng.integers(1, 5)))
            e = random_experiment(rng, 3, int(rng.integers(1, 6)))
            rule = min_bayes_risk(L, e, random_distribution(rng, e.source)).rule
            ref = Transition(e.target, L.actions, np.eye(len(L.actions))[:, rule.matrix.argmax(axis=0)])
            assert (rule.source, rule.target) == (ref.source, ref.target)
            np.testing.assert_array_equal(rule.matrix, ref.matrix)
            assert not rule.matrix.flags.writeable

    def test_stacked_values_match_one_loss_at_a_time(self):
        rng = np.random.default_rng(64)
        for _ in range(30):
            unknowns = labeled("t", int(rng.integers(1, 5)))
            e = random_markov(rng, unknowns, labeled("z", int(rng.integers(1, 10))))
            pi = random_distribution(rng, unknowns)
            losses = [random_loss(rng, unknowns, 3) for _ in range(int(rng.integers(1, 20)))]
            values = risk._bayes_values(e.matrix * pi.weights, np.stack([L.values for L in losses]))
            expected = [min_bayes_risk(L, e, pi).value for L in losses]
            np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-15)


class TestMinimax:
    def test_bsc_value_and_prior_property(self):
        res = minimax_risk(L01, BSC01)
        assert res.value == pytest.approx(0.1, abs=1e-9)
        # the extracted prior must be least favorable: its best Bayes risk
        # equals the minimax value (the prior itself may be any point on
        # the optimal face, not necessarily uniform)
        assert min_bayes_risk(L01, BSC01, res.least_favorable_prior).value == pytest.approx(
            res.value, abs=1e-6
        )

    def test_identity_experiment(self):
        assert minimax_risk(L01, ID).value == pytest.approx(0.0, abs=1e-9)

    def test_constant_loss(self):
        # every rule has the same constant risk, so every prior is least favorable
        L = LossMatrix(labeled("t", 3), labeled("a", 2), np.full((3, 2), 0.4))
        e = random_experiment(np.random.default_rng(63), 3, 3)
        res = minimax_risk(L, e)
        assert res.value == pytest.approx(0.4, abs=1e-12)
        assert res.least_favorable_prior.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert min_bayes_risk(L, e, res.least_favorable_prior).value == pytest.approx(
            res.value, abs=1e-12
        )

    def test_terminal_needs_randomization(self):
        res = minimax_risk(L01, terminal(THETA))
        assert res.value == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(res.rule.matrix[:, 0], [0.5, 0.5], atol=1e-9)

    def test_sup_bayes_equality_on_random_instances(self):
        rng = np.random.default_rng(56)
        for _ in range(15):
            L = random_loss(rng, labeled("t", int(rng.integers(2, 4))), int(rng.integers(2, 4)))
            e = random_experiment(rng, len(L.unknowns), int(rng.integers(2, 4)))
            res = minimax_risk(L, e)
            assert min_bayes_risk(L, e, res.least_favorable_prior).value == pytest.approx(
                res.value, abs=1e-6
            )
            assert max_risk(L, e, res.rule) == pytest.approx(res.value, abs=1e-7)


class TestBiasVariance:
    def test_constant_rule_has_zero_variance(self):
        d = from_function(THETA, THETA, lambda _: "-1")
        res = bias_variance(L01, BSC01, d, "-1")
        assert res.variance == pytest.approx(0.0, abs=1e-9)
        assert res.bias == pytest.approx(L01.values[0, 0], abs=1e-9)

    def test_bsc_identity_rule_sums_to_risk(self):
        res = bias_variance(L01, BSC01, ID, "-1")
        assert res.bias + res.variance == pytest.approx(0.1, abs=1e-9)

    def test_randomized_rules_split_their_risk(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            L, e, d = random_randomized_setup(
                rng,
                n_unknowns=int(rng.integers(2, 5)),
                n_obs=int(rng.integers(1, 5)),
                n_actions=int(rng.integers(2, 6)),
            )
            for ti, theta in enumerate(L.unknowns.labels):
                res = bias_variance(L, e, d, theta)
                pointwise = np.einsum("zt,ta,az->t", e.matrix, L.values, d.matrix)[ti]
                assert abs(res.bias + res.variance - pointwise) <= 1e-12
                assert res.variance >= -1e-12

    def test_weight_on_unachievable_action_raises(self):
        # "never" is beaten by both Bayes actions everywhere; the rule puts
        # weight on it only at "z1", which has probability 0 under "1"
        L = LossMatrix(THETA, LabeledSet(("-1", "1", "never")),
                       [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]])
        e = Transition(THETA, labeled("z", 3), [[0.9, 0.1], [0.1, 0.0], [0.0, 0.9]])
        d = Transition(e.target, L.actions,
                       [[1.0, 0.75, 0.0], [0.0, 0.0, 1.0], [0.0, 0.25, 0.0]])
        with pytest.raises(ArgumentError, match="'never' is never Bayes"):
            bias_variance(L, e, d, "1")

    def test_deterministic_rule_matches_observation_loop(self):
        rng = np.random.default_rng(60)
        for _ in range(25):
            L, e, d = random_canonical_setup(
                rng, n_unknowns=int(rng.integers(2, 5)), n_obs=int(rng.integers(1, 5)),
                n_actions=int(rng.integers(2, 6)),
            )
            ti = int(rng.integers(len(L.unknowns)))
            # the reference: one term per observation, in observation order
            parts = [zero_sum_part(L.values[:, a]) for a in d.matrix.argmax(axis=0)]
            avg = np.zeros(len(L.unknowns))
            expected_height = 0.0
            for z, part in enumerate(parts):
                avg += e.matrix[z, ti] * part
                expected_height += e.matrix[z, ti] * psi(L, part)
            height = psi(L, avg)
            res = bias_variance(L, e, d, L.unknowns.labels[ti])
            assert res == (float(avg[ti] + height), float(expected_height - height))

    def test_decomposition_on_random_canonical_instances(self):
        rng = np.random.default_rng(57)
        for _ in range(25):
            L, e, d = random_canonical_setup(
                rng, n_unknowns=int(rng.integers(2, 4)), n_obs=int(rng.integers(2, 4))
            )
            theta = L.unknowns.labels[int(rng.integers(len(L.unknowns)))]
            res = bias_variance(L, e, d, theta)
            pointwise = risk_profile(L, e, d)[theta]
            assert res.bias + res.variance == pytest.approx(pointwise, abs=1e-7)
            assert res.variance >= -1e-9

    def test_each_height_solved_once(self, monkeypatch):
        # four distinct selected actions: four heights plus the average's
        grid = log_loss_grid(labeled("t", 3), 8)
        e = random_markov(np.random.default_rng(58), grid.unknowns, labeled("z", 4))
        d = rule_from_assignment(e.target, grid.actions, [0, 5, 11, 20])
        calls = []
        solve = lp.solve

        def counting(p):
            calls.append(p)
            return solve(p)

        monkeypatch.setattr(lp, "solve", counting)
        res = bias_variance(grid, e, d, "t1")
        assert len(calls) == 5
        pointwise = risk_profile(grid, e, d)["t1"]
        assert res.bias + res.variance == pytest.approx(pointwise, abs=1e-12)

    def test_each_height_of_a_randomized_rule_solved_once(self, monkeypatch):
        # five actions used across the mixed columns: five heights plus the average's
        grid = log_loss_grid(labeled("t", 3), 8)
        e = random_markov(np.random.default_rng(58), grid.unknowns, labeled("z", 4))
        m = np.zeros((len(grid.actions), 4))
        m[[0, 5], 0] = 0.5
        m[11, 1] = 1.0
        m[[20, 3], 2] = [0.3, 0.7]
        m[[0, 11], 3] = [0.9, 0.1]
        d = Transition(e.target, grid.actions, m)
        calls = []
        solve = lp.solve

        def counting(p):
            calls.append(p)
            return solve(p)

        monkeypatch.setattr(lp, "solve", counting)
        res = bias_variance(grid, e, d, "t1")
        assert len(calls) == 6
        pointwise = risk_profile(grid, e, d)["t1"]
        assert res.bias + res.variance == pytest.approx(pointwise, abs=1e-12)


class TestAdmissibility:
    def test_bayes_rule_is_admissible(self):
        rule = min_bayes_risk(L01, BSC01, Distribution(THETA, [0.6, 0.4])).rule
        assert is_admissible(L01, BSC01, rule)

    def test_anti_bayes_rule_is_dominated(self):
        anti = Transition(THETA, THETA, [[0.0, 1.0], [1.0, 0.0]])
        assert not is_admissible(L01, BSC01, anti)

    def test_bayes_rules_of_large_instances(self):
        # |T|=8, |Z|=32, |A|=16: degenerate domination LPs that once
        # cycled on about one instance in seven
        rng = np.random.default_rng(31)
        unknowns = labeled("t", 8)
        for _ in range(4):
            L = random_loss(rng, unknowns, 16, low=0.0)
            e = random_markov(rng, unknowns, labeled("z", 32))
            rule = min_bayes_risk(L, e, random_distribution(rng, unknowns)).rule
            assert is_admissible(L, e, rule)

    def test_equal_profiles_are_admissible_under_no_information(self):
        # every rule on the terminal experiment with the same profile survives
        one = terminal(THETA)
        d = Transition(one.target, THETA, [[0.5], [0.5]])
        assert is_admissible(L01, one, d)


class TestCompleteClass:
    def test_bsc_zero_one(self):
        rep = complete_class_check(L01, BSC01)
        assert rep.ok
        by_actions = {r.actions: r for r in rep.rules}
        good = by_actions[("-1", "1")]
        assert good.admissible and good.prior is not None
        anti = by_actions[("1", "-1")]
        assert not anti.admissible and anti.prior is None

    def test_identity_experiment_best_rule(self):
        rep = complete_class_check(L01, ID)
        by_actions = {r.actions: r for r in rep.rules}
        assert by_actions[("-1", "1")].admissible
        assert rep.ok

    def test_constant_loss_everything_admissible(self):
        L = LossMatrix(THETA, LabeledSet(("a", "b")), np.full((2, 2), 1.3))
        rep = complete_class_check(L, BSC01)
        assert rep.ok
        assert all(r.admissible and r.prior is not None for r in rep.rules)

    def test_cap(self):
        with pytest.raises(ArgumentError):
            complete_class_check(L01, BSC01, cap=3)

    def test_degenerate_243_rule_instance(self, monkeypatch):
        # losses in [0, 1]; the domination LP of the 152nd rule once
        # cycled to the pivot limit
        L, e = _instance_243()
        results = _recording_solves(monkeypatch)
        rep = complete_class_check(L, e)
        assert len(rep.rules) == 243
        assert rep.ok
        assert len(results) == LPS_243
        # a supporting prior makes the rule Bayes among all 243 rules
        supported = [r for r in rep.rules if r.prior is not None]
        assert supported
        for r in supported:
            best = brute_force_min_bayes_risk(L, e, r.prior)
            assert r.prior.weights @ r.risk == pytest.approx(best, abs=1e-7)

    def test_prior_weights_sum_to_one(self):
        # the LP over all rule-profile differences once returned a prior
        # summing to 1.00004, which Distribution rejected
        rng = np.random.default_rng(227)
        unknowns = labeled("t", 5)
        L = random_loss(rng, unknowns, 4, low=0.0)
        e = random_markov(rng, unknowns, labeled("z", 3))
        assert complete_class_check(L, e).ok

    def test_enumeration_cap_within_pivot_bound(self, monkeypatch):
        rng = np.random.default_rng(CAP_SEED)
        unknowns = labeled("t", 3)
        L = random_loss(rng, unknowns, 4, low=0.0)
        e = random_markov(rng, unknowns, labeled("z", 6))
        results = _recording_solves(monkeypatch)
        rep = complete_class_check(L, e)
        assert len(rep.rules) == ENUMERATION_CAP
        assert rep.ok
        assert len(results) == CAP_LPS
        assert sum(sum(r.pivots) for r in results) <= CAP_PIVOT_BOUND

    def test_screens_match_unscreened_on_243_rule_instance(self):
        _assert_matches_unscreened(*_instance_243())

    @pytest.mark.parametrize("kind", ["uniform", "integer", "duplicate", "constant"])
    def test_screens_match_unscreened_on_random_instances(self, kind):
        for seed in range(50):
            _assert_matches_unscreened(*_screen_instance(kind, 3000 + seed))

    @pytest.mark.parametrize("gain", [0.5e-7, 1.5e-7])
    def test_gain_within_twice_the_tolerance_is_not_screened(self, monkeypatch, gain):
        # a1 beats a0 by `gain` at one unknown: the domination screen
        # leaves a0 to its LP, which calls it dominated above FEAS_TOL only
        L = LossMatrix(THETA, LabeledSet(("a0", "a1")), [[1.0, 1.0], [1.0, 1.0 - gain]])
        one = terminal(THETA)
        targets = []
        best_dominating = risk._best_dominating

        def recording(K, sums, target):
            targets.append(target.copy())
            return best_dominating(K, sums, target)

        monkeypatch.setattr(risk, "_best_dominating", recording)
        rep = complete_class_check(L, one)
        assert any(np.array_equal(t, [1.0, 1.0]) for t in targets)
        assert rep.rules[0].admissible == (gain <= lp.FEAS_TOL)
        _assert_matches_unscreened(L, one)

    def test_one_observation_solves_two_lps_per_rule(self, monkeypatch):
        # a pair's program would repeat its rule's own prior program
        labels = LabeledSet(("a", "b", "c"))
        results = _recording_solves(monkeypatch)
        rep = complete_class_check(zero_one_loss(labels), terminal(labels))
        assert all(r.admissible and r.prior is not None for r in rep.rules)
        assert len(results) == 2 * len(rep.rules)

    def test_rule_assignments_in_product_order(self):
        rules = risk._rule_assignments(3, 4, 64)
        np.testing.assert_array_equal(rules, list(iter_product(range(4), repeat=3)))
        np.testing.assert_array_equal(risk._rule_assignments(40, 1, 1), np.zeros((1, 40)))
        with pytest.raises(ArgumentError, match="65 deterministic rules exceed the cap 64"):
            risk._rule_assignments(1, 65, 64)


class TestSufficiencyReduction:
    def test_merges_proportional_columns(self):
        # two outcomes carry identical evidence and must collapse
        e = Transition(
            THETA,
            LabeledSet(("z0", "z1", "z2")),
            [[0.6, 0.1], [0.12, 0.02], [0.28, 0.88]],
        )
        red = sufficiency_reduction(e)
        assert len(red.target) == 2
        assert red.target.labels[0] == "z0|z1"

    def test_reduction_preserves_all_bayes_risks(self):
        rng = np.random.default_rng(58)
        for _ in range(20):
            e = random_experiment(rng, int(rng.integers(2, 4)), int(rng.integers(2, 5)))
            red = sufficiency_reduction(e)
            merged = compose(red, e)
            L = random_loss(rng, e.source, int(rng.integers(2, 4)))
            pi = random_distribution(rng, e.source)
            assert min_bayes_risk(L, merged, pi).value == pytest.approx(
                min_bayes_risk(L, e, pi).value, abs=1e-7
            )

    def test_posterior_sampling_does_lose_information(self):
        # Composing the stochastic posterior matrix itself behind the
        # experiment replaces the observation by a sample from the
        # posterior, which is strictly noisier: the optimal risk rises
        # from 0.1 to 0.18 on this channel.  Only the reduction (merging
        # equal-evidence observations) is risk-preserving.
        rev = reverse(BSC01, UNIF)
        sampled = compose(rev.posterior, BSC01)
        np.testing.assert_allclose(sampled.matrix, binary_symmetric(0.18).matrix, atol=1e-12)
        assert min_bayes_risk(L01, sampled, UNIF).value == pytest.approx(0.18, abs=1e-12)
        assert min_bayes_risk(L01, BSC01, UNIF).value == pytest.approx(0.1, abs=1e-12)


class TestSandwich:
    def test_random_experiments_sit_between_identity_and_terminal(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            n_t = int(rng.integers(2, 4))
            unknowns = labeled("t", n_t)
            L = random_loss(rng, unknowns, int(rng.integers(2, 4)))
            e = random_experiment(rng, n_t, int(rng.integers(2, 5)))
            pi = random_distribution(rng, unknowns)
            lo = min_bayes_risk(L, identity(unknowns), pi).value
            mid = min_bayes_risk(L, e, pi).value
            hi = min_bayes_risk(L, terminal(unknowns), pi).value
            assert lo - 1e-9 <= mid <= hi + 1e-9
            assert hi == pytest.approx(entropy(L, pi), abs=1e-12)

    def test_normalized_risk_in_unit_interval(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            unknowns = labeled("t", 3)
            raw = rng.uniform(0, 1, (3, 3))
            raw -= raw.min(axis=1, keepdims=True)  # min over actions is 0 per row
            L = LossMatrix(unknowns, labeled("a", 3), raw)
            e = random_experiment(rng, 3, 3)
            pi = random_distribution(rng, unknowns)
            denom = entropy(L, pi)
            if denom > 1e-9:
                ratio = min_bayes_risk(L, e, pi).value / denom
                assert -1e-9 <= ratio <= 1.0 + 1e-9
