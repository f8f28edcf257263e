import numpy as np
import pytest
from helpers import grid_oracle_2x2, highs_directed_deficiency, random_experiment

from expcompare import (
    ArgumentError,
    Distribution,
    LabeledSet,
    Transition,
    binary_symmetric,
    compose,
    deficiency,
    directed_deficiency,
    divides,
    from_function,
    generalized_dpi,
    identity,
    is_sufficient,
    metric_check,
    min_bayes_risk,
    randomization_check,
    sufficiency_reduction,
    terminal,
    uniform,
    zero_one_loss,
)
from expcompare import lp
from expcompare._samplers import labeled, random_distribution, random_loss, random_markov

THETA = LabeledSet(("-1", "1"))
BSC01 = binary_symmetric(0.1)
BSC03 = binary_symmetric(0.3)
UNIF = uniform(THETA)


class TestDivides:
    def test_reflexive(self):
        ok, witness = divides(BSC01, BSC01)
        assert ok
        np.testing.assert_allclose(
            compose(witness, BSC01).matrix, BSC01.matrix, atol=1e-7
        )

    def test_bsc_chain_with_witness(self):
        ok, witness = divides(BSC01, BSC03)
        assert ok
        # the unique factor is the 0.25-flip channel: 0.1 + 0.8 * 0.25 = 0.3
        np.testing.assert_allclose(witness.matrix, binary_symmetric(0.25).matrix, atol=1e-6)
        np.testing.assert_allclose(compose(witness, BSC01).matrix, BSC03.matrix, atol=1e-6)

    def test_noisier_does_not_divide_cleaner(self):
        ok, witness = divides(BSC03, BSC01)
        assert not ok and witness is None
        assert directed_deficiency(BSC03, BSC01, UNIF).value >= 0.05

    def test_shape_mismatch(self):
        from expcompare import ShapeError

        e_three = random_markov(np.random.default_rng(0), labeled("t", 3), labeled("z", 2))
        with pytest.raises(ShapeError):
            divides(BSC01, e_three)


class TestDirectedDeficiency:
    def test_zero_when_divisible(self):
        rng = np.random.default_rng(70)
        for _ in range(15):
            e = random_experiment(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            f = random_markov(rng, e.target, labeled("w", int(rng.integers(2, 4))))
            e2 = compose(f, e)
            pi = random_distribution(rng, e.source)
            assert directed_deficiency(e, e2, pi).value <= 1e-7

    def test_terminal_to_identity_is_half(self):
        # closed form: any constant output distribution misses each point
        # mass by the same total, so the objective is flat at 0.5
        res = directed_deficiency(terminal(THETA), identity(THETA), UNIF)
        assert res.value == pytest.approx(0.5, abs=1e-9)
        # confirmed by a 0.01-step search over the constant distribution
        grid = np.arange(0.0, 1.0 + 1e-12, 0.01)
        oracle = min(
            0.5 * (0.5 * (abs(q - 1.0) + abs(1.0 - q)) + 0.5 * (abs(q) + abs(1.0 - q - 1.0)))
            for q in grid
        )
        assert res.value == pytest.approx(oracle, abs=1e-2)

    def test_identity_divides_everything(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            e = random_markov(rng, THETA, labeled("z", int(rng.integers(2, 5))))
            assert directed_deficiency(identity(THETA), e, UNIF).value <= 1e-7

    def test_agrees_with_grid_oracle_on_2x2(self):
        rng = np.random.default_rng(72)
        for _ in range(8):
            e = random_markov(rng, THETA, THETA)
            e2 = random_markov(rng, THETA, THETA)
            pi = random_distribution(rng, THETA)
            lp_value = directed_deficiency(e, e2, pi).value
            assert lp_value == pytest.approx(grid_oracle_2x2(e, e2, pi), abs=1e-2)
            assert lp_value <= grid_oracle_2x2(e, e2, pi) + 1e-9  # LP is exact

    def test_witness_is_stochastic_and_value_in_unit_interval(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            e = random_experiment(rng, 3, int(rng.integers(2, 5)))
            e2 = random_markov(rng, e.source, labeled("w", int(rng.integers(2, 5))))
            pi = random_distribution(rng, e.source)
            res = directed_deficiency(e, e2, pi)
            assert -1e-7 <= res.value <= 1.0 + 1e-7
            np.testing.assert_allclose(res.witness.matrix.sum(axis=0), 1.0, atol=1e-7)


class TestDeficiency:
    def test_equivalent_experiments(self):
        swap = from_function(THETA, THETA, {"-1": "1", "1": "-1"})
        relabeled = compose(swap, BSC01)
        assert deficiency(BSC01, relabeled, UNIF) <= 1e-7

    def test_terminal_identity_pair(self):
        assert deficiency(terminal(THETA), identity(THETA), UNIF) == pytest.approx(
            0.5, abs=1e-9
        )
        # the informative-to-uninformative direction alone is free
        assert directed_deficiency(identity(THETA), terminal(THETA), UNIF).value <= 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(74)
        for _ in range(8):
            e = random_experiment(rng, 2, 3)
            e2 = random_markov(rng, e.source, labeled("w", 2))
            pi = random_distribution(rng, e.source)
            assert deficiency(e, e2, pi) == pytest.approx(deficiency(e2, e, pi), abs=1e-12)

    def test_triangle_instance_for_composed_noise(self):
        rng = np.random.default_rng(75)
        for _ in range(8):
            e = random_experiment(rng, 2, 3)
            e2 = random_markov(rng, e.source, labeled("w", 3))
            g = random_markov(rng, e2.target, labeled("v", 2))
            pi = random_distribution(rng, e.source)
            lhs = directed_deficiency(e, compose(g, e2), pi).value
            rhs = (
                directed_deficiency(e, e2, pi).value
                + directed_deficiency(e2, compose(g, e2), pi).value
            )
            assert lhs <= rhs + 1e-7


class TestRandomizationCheck:
    def test_no_violations_on_random_pairs(self):
        rng = np.random.default_rng(76)
        for _ in range(5):
            e = random_experiment(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            e2 = random_markov(rng, e.source, labeled("w", int(rng.integers(2, 4))))
            pi = random_distribution(rng, e.source)
            rep = randomization_check(e, e2, pi, trials=60, seed=int(rng.integers(1 << 30)))
            assert rep.ok
            assert rep.max_abs_gap <= rep.deficiency + 1e-7

    def test_divisible_pair_has_zero_epsilon_and_gaps(self):
        rng = np.random.default_rng(77)
        e = random_experiment(rng, 3, 3)
        f = random_markov(rng, e.target, labeled("w", 2))
        e2 = compose(f, e)
        rep = randomization_check(e, e2, random_distribution(rng, e.source), trials=80, seed=5)
        assert rep.epsilon <= 1e-7
        assert rep.max_directed_gap <= 1e-7
        assert rep.ok


class TestMetricCheck:
    def test_named_triple(self):
        rep = metric_check([identity(THETA), BSC01, BSC03], UNIF)
        assert rep.ok
        assert rep.triangles_checked == 6
        assert rep.max_self_deficiency <= 1e-9

    def test_self_pair(self):
        rep = metric_check([BSC01, BSC01], UNIF)
        assert rep.symmetrized[0, 1] <= 1e-9

    def test_four_random_experiments_all_triples(self):
        rng = np.random.default_rng(78)
        exps = [random_markov(rng, THETA, labeled(f"z{i}", int(rng.integers(2, 4)))) for i in range(4)]
        rep = metric_check(exps, UNIF)
        assert rep.triangles_checked == 24
        assert rep.ok

    def test_trials_caps_triples(self):
        rng = np.random.default_rng(79)
        exps = [random_markov(rng, THETA, labeled(f"z{i}", 2)) for i in range(4)]
        rep = metric_check(exps, UNIF, trials=10)
        assert rep.triangles_checked == 10


class TestGeneralizedDpi:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        e = random_experiment(rng, 2, 3)
        f = random_markov(rng, e.target, labeled("w", 2))
        e2 = compose(f, e)
        L = random_loss(rng, e.source, 2)
        pi = random_distribution(rng, e.source)
        return e, e2, f, L, pi

    @staticmethod
    def _profile(L, strategy):
        return np.einsum("at,ta->t", strategy.matrix, L.values)

    def test_bayes_risk_functional_recovers_data_processing(self):
        e, e2, f, L, pi = self._setup(80)
        rho = lambda s: float(pi.weights @ self._profile(L, s))
        res = generalized_dpi(rho, e, e2, L.actions, f)
        assert res.value_e <= res.value_e2 + 1e-7
        # for a linear functional the deterministic minimum is the exact optimum
        assert res.value_e == pytest.approx(min_bayes_risk(L, e, pi).value, abs=1e-9)
        assert res.value_e2 == pytest.approx(min_bayes_risk(L, e2, pi).value, abs=1e-9)

    def test_constant_functional_gives_equal_values(self):
        e, e2, f, L, _ = self._setup(81)
        res = generalized_dpi(lambda s: 3.25, e, e2, L.actions, f)
        assert res.value_e == res.value_e2 == 3.25

    def test_max_risk_functional(self):
        e, e2, f, L, _ = self._setup(82)
        rho = lambda s: float(self._profile(L, s).max())
        res = generalized_dpi(rho, e, e2, L.actions, f)
        assert res.value_e <= res.value_e2 + 1e-7

    def test_bad_witness_rejected(self):
        e, e2, f, L, _ = self._setup(83)
        # wrong target space
        with pytest.raises(ArgumentError):
            generalized_dpi(lambda s: 0.0, e, e2, L.actions, identity(e.target))
        # right shape but does not reproduce the second experiment
        mismatched = random_markov(np.random.default_rng(1), e.target, e2.target)
        with pytest.raises(ArgumentError):
            generalized_dpi(lambda s: 0.0, e, e2, L.actions, mismatched)

    def test_cap(self):
        e, e2, f, L, _ = self._setup(84)
        with pytest.raises(ArgumentError):
            generalized_dpi(lambda s: 0.0, e, e2, L.actions, f, cap=2)


class TestSufficient:
    def test_reduction_is_sufficient(self):
        rng = np.random.default_rng(85)
        for _ in range(10):
            e = random_experiment(rng, int(rng.integers(2, 4)), int(rng.integers(2, 5)))
            pi = random_distribution(rng, e.source)
            assert is_sufficient(e, sufficiency_reduction(e), pi)

    def test_permutation_is_sufficient(self):
        perm = from_function(THETA, THETA, {"-1": "1", "1": "-1"})
        assert is_sufficient(BSC01, perm, UNIF)

    def test_terminal_is_not_sufficient_for_informative_experiments(self):
        assert not is_sufficient(BSC01, terminal(THETA), UNIF)


#: Seed, size and pivot bound of the large deficiency regression case:
#: |T| = |Z| = |W| = 20 takes 96 + 510 pivots.
LARGE_SEED, LARGE_SIZE, LARGE_PIVOT_BOUND = 20, 20, 1000
#: Seed, size and pivot bound of the divisible regression pair F.e: every
#: basic gap variable sits at 0, and the pair takes 67 + 258 pivots.
DIVISIBLE_SEED, DIVISIBLE_SIZE, DIVISIBLE_PIVOT_BOUND = 232, 12, 1000


def _recorded_deficiency(e, e2, pi):
    """``directed_deficiency(e, e2, pi)`` and the results of the LPs it solved."""
    results = []
    solve = lp.solve

    def recording(p):
        results.append(solve(p))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve", recording)
        res = directed_deficiency(e, e2, pi)
    return res, results


@pytest.fixture(scope="module")
def large_deficiency():
    """One size-20 directed deficiency with the pivots of its LP."""
    rng = np.random.default_rng(LARGE_SEED)
    theta = labeled("t", LARGE_SIZE)
    e = random_markov(rng, theta, labeled("z", LARGE_SIZE))
    e2 = random_markov(rng, theta, labeled("w", LARGE_SIZE))
    pi = random_distribution(rng, theta)
    return e, e2, pi, *_recorded_deficiency(e, e2, pi)


class TestLargeDeficiency:
    def test_within_pivot_bound(self, large_deficiency):
        *_, res, results = large_deficiency
        assert len(results) == 1 and results[0].is_optimal
        assert sum(results[0].pivots) <= LARGE_PIVOT_BOUND
        assert 0.0 < res.value < 1.0

    def test_matches_highs(self, large_deficiency):
        pytest.importorskip("scipy")
        e, e2, pi, res, _ = large_deficiency
        oracle = highs_directed_deficiency(e.matrix, e2.matrix, pi.weights)
        assert res.value == pytest.approx(oracle, abs=1e-9)
        gap = np.abs(res.witness.matrix @ e.matrix - e2.matrix) @ pi.weights
        assert 0.5 * gap.sum() == pytest.approx(res.value, abs=1e-9)


class TestDivisiblePair:
    def test_zero_deficiency_within_pivot_bound(self):
        rng = np.random.default_rng(DIVISIBLE_SEED)
        theta = labeled("t", DIVISIBLE_SIZE)
        e = random_markov(rng, theta, labeled("z", DIVISIBLE_SIZE))
        f = random_markov(rng, e.target, labeled("w", DIVISIBLE_SIZE))
        e2 = compose(f, e)
        res, results = _recorded_deficiency(e, e2, uniform(theta))
        assert len(results) == 1 and results[0].is_optimal
        assert sum(results[0].pivots) <= DIVISIBLE_PIVOT_BOUND
        assert divides(e, e2)[0]
        pytest.importorskip("scipy")
        oracle = highs_directed_deficiency(e.matrix, e2.matrix, uniform(theta).weights)
        assert res.value == pytest.approx(oracle, abs=1e-9)
