import numpy as np
import pytest
from helpers import (
    assert_vertex_starts,
    grid_oracle_2x2,
    highs_directed_deficiency,
    labeled,
    random_distribution,
    random_experiment,
    random_loss,
    random_markov,
    record_solves,
    unsolvable,
)
from hypothesis import example, given, settings, strategies as st

from expcompare import (
    ArgumentError,
    Distribution,
    LabeledSet,
    LossMatrix,
    SolverError,
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
from expcompare import _samplers, compare, lp
from expcompare.risk import SUPPORT_CUTOFF
from expcompare._samplers import TRIAL_BLOCK

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

    def test_solver_error_names_the_program(self, monkeypatch):
        unsolvable(monkeypatch)
        with pytest.raises(SolverError) as info:
            directed_deficiency(terminal(THETA), identity(THETA), UNIF)
        assert str(info.value) == (
            "deficiency program did not solve: infeasible (5 rows x 5 variables, 3 + 0 pivots)"
        )

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


def _reference_randomization(e, e2, pi, trials, seed):
    """The audit one sampled loss at a time, through ``min_bayes_risk``.

    Trial ``i`` reads row ``i`` of one ``rng.random((trials, 1 + 4 |T|))``
    draw: the action count, then the losses row-major, unknowns by 4 actions.
    """
    eps = directed_deficiency(e, e2, pi).value
    n_t = len(e.source)
    violations, max_directed, max_abs = 0, -np.inf, 0.0
    for row in np.random.default_rng(seed).random((trials, 1 + 4 * n_t)):
        n_a = 2 + int(3.0 * row[0])
        values = 2.0 * row[1:].reshape(n_t, 4)[:, :n_a] - 1.0
        L = LossMatrix(e.source, labeled("a", n_a), values)
        r1 = min_bayes_risk(L, e, pi).value
        r2 = min_bayes_risk(L, e2, pi).value
        diam = 2.0 * L.sup_norm
        if r1 > r2 + eps * diam + 1e-7:
            violations += 1
        if diam > 0.0:
            max_directed = max(max_directed, (r1 - r2) / diam)
            max_abs = max(max_abs, abs(r1 - r2) / diam)
    return violations, max_directed, max_abs


def _randomization_instance(rng, case):
    n_t = 1 if case == "one_unknown" else int(rng.integers(2, 5))
    n_z = int(rng.integers(8, 12)) if case == "many_observations" else int(rng.integers(2, 6))
    theta = labeled("t", n_t)
    e = random_markov(rng, theta, labeled("z", n_z))
    e2 = random_markov(rng, theta, labeled("w", int(rng.integers(1, 6))))
    weights = rng.dirichlet(np.ones(n_t))
    if case == "zero_prior_weight":
        # the unweighted unknown goes to observation 0, which the others
        # reach with mass 1e-13 only: unsupported, but not of zero mass
        weights[0] = 0.0
        m = np.zeros((n_z, n_t))
        m[0] = 1e-13
        m[0, 0] = 1.0
        m[rng.integers(1, n_z, n_t - 1), np.arange(1, n_t)] = 1.0 - 1e-13
        e = Transition(theta, e.target, m)
    pi = Distribution(theta, weights / weights.sum())
    if case == "one_trial":
        trials = 1
    elif case == "across_blocks":
        trials = int(rng.integers(TRIAL_BLOCK + 1, 2 * TRIAL_BLOCK + 2))
    else:
        trials = int(rng.integers(1, 60))
    return e, e2, pi, trials


class TestRandomizationEquivalence:
    """The stacked audit against the per-trial reference on seeded instances."""

    CASES = {
        "one_unknown": 70,
        "many_observations": 60,
        "zero_prior_weight": 70,
        "one_trial": 70,
        "across_blocks": 3,
        "random": 60,
    }

    @staticmethod
    def _check(e, e2, pi, trials, seed):
        rep = randomization_check(e, e2, pi, trials=trials, seed=seed)
        violations, max_directed, max_abs = _reference_randomization(e, e2, pi, trials, seed)
        assert (rep.trials, rep.seed, rep.violations) == (trials, seed, violations)
        assert rep.epsilon == directed_deficiency(e, e2, pi).value
        assert rep.deficiency == deficiency(e, e2, pi)
        assert abs(rep.max_directed_gap - max_directed) <= 1e-15
        assert abs(rep.max_abs_gap - max_abs) <= 1e-15

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_per_trial_reference(self, case):
        rng = np.random.default_rng(9100 + list(self.CASES).index(case))
        for _ in range(self.CASES[case]):
            e, e2, pi, trials = _randomization_instance(rng, case)
            if case == "zero_prior_weight":
                assert (e.matrix * pi.weights).sum(axis=1)[0] <= SUPPORT_CUTOFF
            self._check(e, e2, pi, trials, int(rng.integers(1 << 30)))

    @pytest.mark.parametrize("block", [1, 7])
    def test_small_blocks_match_per_trial_reference(self, block, monkeypatch):
        monkeypatch.setattr(_samplers, "TRIAL_BLOCK", block)
        rng = np.random.default_rng(9200 + block)
        for _ in range(40):
            e, e2, pi, trials = _randomization_instance(rng, "random")
            self._check(e, e2, pi, trials, int(rng.integers(1 << 30)))

    def test_reports_do_not_depend_on_the_block_size(self, monkeypatch):
        rng = np.random.default_rng(9250)
        for case in ("one_unknown", "zero_prior_weight", "random"):
            e, e2, pi, _ = _randomization_instance(rng, case)
            reports = []
            for block in (1, 7, 1024):
                monkeypatch.setattr(_samplers, "TRIAL_BLOCK", block)
                reports.append(randomization_check(e, e2, pi, trials=1030, seed=31))
            assert reports[0] == reports[1] == reports[2]

    def test_a_longer_run_scores_the_same_first_trials(self, monkeypatch):
        monkeypatch.setattr(_samplers, "TRIAL_BLOCK", 7)
        bayes_values, scored = compare._bayes_values, []
        monkeypatch.setattr(
            compare, "_bayes_values", lambda *a: scored.append(bayes_values(*a)) or scored[-1]
        )

        def risks(trials):
            scored.clear()
            randomization_check(BSC01, BSC03, UNIF, trials=trials, seed=37)
            # the blocks score e, then e2
            return np.concatenate(scored[0::2]), np.concatenate(scored[1::2])

        short, long = risks(25), risks(50)
        for r, r_long in zip(short, long):
            assert np.array_equal(r, r_long[:25])

    @pytest.mark.parametrize("trials", [0, -3])
    def test_meaningless_trial_counts_rejected_before_any_lp(self, trials, monkeypatch):
        def no_solve(*_):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(lp, "solve", no_solve)
        with pytest.raises(ArgumentError):
            randomization_check(BSC01, BSC03, UNIF, trials=trials)


class TestMetricCheck:
    def test_negative_trials_rejected(self):
        with pytest.raises(ArgumentError):
            metric_check([BSC01, BSC03], UNIF, trials=-2)

    def test_zero_trials_checks_no_triangle(self):
        rep = metric_check([identity(THETA), BSC01, BSC03], UNIF, trials=0)
        assert rep.triangles_checked == 0

    @pytest.mark.parametrize("trials", [2.5, True, np.float64(3.0), "3"])
    def test_non_integer_trials_rejected(self, trials):
        with pytest.raises(ArgumentError, match="trials must be an integer"):
            metric_check([identity(THETA), BSC01, BSC03], UNIF, trials=trials)

    def test_numpy_integer_trials_accepted(self):
        rep = metric_check([identity(THETA), BSC01, BSC03], UNIF, trials=np.int64(4))
        assert rep.triangles_checked == 4

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

    @pytest.mark.parametrize("cap", [None, "64", True, 4.0])
    def test_cap_must_be_an_integer(self, cap):
        e, e2, f, L, _ = self._setup(84)
        with pytest.raises(ArgumentError, match="cap must be an integer"):
            generalized_dpi(lambda s: 0.0, e, e2, L.actions, f, cap=cap)


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

    def test_one_program_per_check(self, monkeypatch):
        # e always divides f.e, so only the reverse direction is solved
        calls = record_solves(monkeypatch)
        assert not is_sufficient(BSC01, terminal(THETA), UNIF)
        assert len(calls) == 1


#: Seed, size and pivot bound of the large deficiency regression case:
#: |T| = |Z| = |W| = 20 takes 0 + 469 pivots.
LARGE_SEED, LARGE_SIZE, LARGE_PIVOT_BOUND = 20, 20, 1000
#: Seed, size and pivot bound of the divisible regression pair F.e: every
#: basic gap variable sits at 0, and the pair takes 0 + 244 pivots.
DIVISIBLE_SEED, DIVISIBLE_SIZE, DIVISIBLE_PIVOT_BOUND = 232, 12, 1000


def _recorded_deficiency(e, e2, pi):
    """``directed_deficiency(e, e2, pi)``, the one LP it solved and that LP's result."""
    with pytest.MonkeyPatch.context() as mp:
        solved = record_solves(mp)
        res = directed_deficiency(e, e2, pi)
    assert len(solved) == 1
    return res, *solved[0]


@pytest.fixture(scope="module")
def large_deficiency():
    """One size-20 directed deficiency with its LP and that LP's result."""
    rng = np.random.default_rng(LARGE_SEED)
    theta = labeled("t", LARGE_SIZE)
    e = random_markov(rng, theta, labeled("z", LARGE_SIZE))
    e2 = random_markov(rng, theta, labeled("w", LARGE_SIZE))
    pi = random_distribution(rng, theta)
    return e, e2, pi, *_recorded_deficiency(e, e2, pi)


class TestLargeDeficiency:
    def test_within_pivot_bound(self, large_deficiency):
        *_, res, _, result = large_deficiency
        assert result.is_optimal
        assert sum(result.pivots) <= LARGE_PIVOT_BOUND
        assert 0.0 < res.value < 1.0

    def test_matches_highs(self, large_deficiency):
        pytest.importorskip("scipy")
        e, e2, pi, res, *_ = large_deficiency
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
        res, _, result = _recorded_deficiency(e, e2, uniform(theta))
        assert result.is_optimal
        assert sum(result.pivots) <= DIVISIBLE_PIVOT_BOUND
        assert divides(e, e2)[0]
        pytest.importorskip("scipy")
        oracle = highs_directed_deficiency(e.matrix, e2.matrix, uniform(theta).weights)
        assert res.value == pytest.approx(oracle, abs=1e-9)



def _feasible_start_pairs():
    rng = np.random.default_rng(80)
    theta = labeled("t", 4)
    e = random_markov(rng, theta, labeled("z", 5))
    f = random_markov(rng, e.target, labeled("w", 3))
    return {
        "random": (e, random_markov(rng, theta, labeled("w", 6))),
        "divisible": (e, compose(f, e)),
        "one outcome": (e, terminal(theta)),
        "one observation": (terminal(theta), random_markov(rng, theta, labeled("w", 3))),
    }


FEASIBLE_START_PAIRS = _feasible_start_pairs()


class TestFeasibleStart:
    """The deficiency LP starts at the vertex ``k -> r[k]``: phase one is empty."""

    @pytest.mark.parametrize("e, e2", FEASIBLE_START_PAIRS.values(), ids=FEASIBLE_START_PAIRS)
    def test_feasible_slack_basis_and_no_phase_one_pivot(self, e, e2):
        pi = random_distribution(np.random.default_rng(81), e.source)
        res, program, result = _recorded_deficiency(e, e2, pi)
        assert_vertex_starts([(program, result)])
        oracle = 0.5 * (np.abs(res.witness.matrix @ e.matrix - e2.matrix) @ pi.weights).sum()
        assert res.value == pytest.approx(oracle, abs=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 4))
# |y| - 1 reads 1.1e-12 and 6.0e-12 here; in exact arithmetic the second
# final basis's duals still exceed 1 by 2.2e-12, within PIVOT_TOL
@example(16225236, 6, 6, 4, 0)
@example(580139814, 4, 6, 6, 0)
def test_gap_duals_certify_the_deficiency(seed, n_t, n_z, n_w, case):
    """The duals ``y`` of the gap equalities give a loss ``L[t, w] = -y[w, t]``
    whose Bayes-risk gap is twice the deficiency: the program's optimum is
    attained by a loss with ``|L| <= 1``.  One case in five is divisible.

    Each equality is solved as the ``<=`` row ``s (gap . F - b) - D <= 0``
    of sign ``s``, and the costs are shifted by the sum of those rows,
    so ``y = s (dual_ub + 1)``."""
    rng = np.random.default_rng(seed)
    theta = labeled("t", n_t)
    e = random_markov(rng, theta, labeled("z", n_z))
    if case == 0:
        e2 = compose(random_markov(rng, e.target, labeled("w", n_w)), e)
    else:
        e2 = random_markov(rng, theta, labeled("w", n_w))
    pi = random_distribution(rng, theta)
    res, _, result = _recorded_deficiency(e, e2, pi)
    joint = (e.matrix * pi.weights).T
    vertex = np.equal.outer(np.arange(n_w), (e2.matrix @ joint).argmax(axis=0)).astype(float)
    s = np.where(e2.matrix * pi.weights - vertex @ joint.T < 0.0, -1.0, 1.0)
    y = s * (result.dual_ub[: n_w * n_t].reshape(n_w, n_t) + 1.0)
    # dual feasible within the solver's tolerance: phase two stops once
    # every reduced cost, here 1 - |y| on the deviation columns, is >= -PIVOT_TOL
    assert np.abs(y).max() <= 1.0 + lp.PIVOT_TOL
    L = LossMatrix(theta, e2.target, -y.T)
    gap = min_bayes_risk(L, e, pi).value - min_bayes_risk(L, e2, pi).value
    assert gap == pytest.approx(2.0 * res.value, abs=1e-12)
