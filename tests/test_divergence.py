import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expcompare import (
    ArgumentError,
    Distribution,
    LabeledSet,
    PhiSpec,
    Transition,
    binary_symmetric,
    dpi_check,
    identity,
    log_loss_grid,
    mutual_information,
    phi_divergence,
    point_mass,
    reverse,
    risk_gap,
    shannon_entropy,
    terminal,
    uniform,
    variational,
    zero_one_loss,
)
from expcompare._samplers import labeled, random_distribution

THETA = LabeledSet(("-1", "1"))
UNIF = uniform(THETA)
BSC01 = binary_symmetric(0.1)

H_09_01 = -0.9 * math.log(0.9) - 0.1 * math.log(0.1)  # 0.325082973391448...


def dist(weights, space=THETA):
    return Distribution(space, weights)


positive_weights = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=3
)


class TestVariational:
    def test_identity(self):
        P = dist([0.4, 0.6])
        assert variational(P, P) == 0.0

    def test_disjoint_point_masses(self):
        assert variational(point_mass(THETA, "-1"), point_mass(THETA, "1")) == 1.0

    def test_hand_value(self):
        assert variational(dist([0.9, 0.1]), dist([0.1, 0.9])) == pytest.approx(0.8)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(90)
        for _ in range(40):
            space = labeled("z", int(rng.integers(2, 6)))
            P, Q = (random_distribution(rng, space) for _ in range(2))
            v = variational(P, Q)
            assert v == variational(Q, P)
            assert 0.0 <= v <= 1.0

    @settings(max_examples=80, deadline=None)
    @given(a=positive_weights, b=positive_weights, c=positive_weights)
    def test_triangle_inequality(self, a, b, c):
        space = labeled("z", 3)
        P, Q, R = (
            Distribution(space, np.asarray(w) / np.sum(w)) for w in (a, b, c)
        )
        assert variational(P, R) <= variational(P, Q) + variational(Q, R) + 1e-12

    def test_indiscernibles(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            space = labeled("z", 4)
            P = random_distribution(rng, space)
            assert variational(P, Distribution(space, P.weights.copy())) <= 1e-12


class TestPhiDivergence:
    @pytest.mark.parametrize(
        "spec", [PhiSpec.total_variation(), PhiSpec.kl(), PhiSpec.chi2()]
    )
    def test_zero_at_equal_arguments(self, spec):
        rng = np.random.default_rng(92)
        P = random_distribution(rng, labeled("z", 4))
        assert phi_divergence(spec, P, P) == pytest.approx(0.0, abs=1e-12)

    def test_absolute_ratio_weight_doubles_the_variation(self):
        spec = PhiSpec("l1", lambda x: abs(x - 1.0), tail_slope=1.0)
        P, Q = dist([0.9, 0.1]), dist([0.1, 0.9])
        assert phi_divergence(spec, P, Q) == pytest.approx(1.6)
        assert phi_divergence(spec, P, Q) == pytest.approx(2 * variational(P, Q))

    def test_kl_support_violation_is_infinite(self):
        assert math.isinf(
            phi_divergence(PhiSpec.kl(), point_mass(THETA, "-1"), point_mass(THETA, "1"))
        )

    def test_kl_zero_mass_in_second_argument_is_finite(self):
        # Q vanishing where P does not contributes x log x -> 0
        P, Q = dist([0.5, 0.5]), point_mass(THETA, "-1")
        assert phi_divergence(PhiSpec.kl(), P, Q) == pytest.approx(math.log(2))

    def test_nonnegative_and_separating(self):
        rng = np.random.default_rng(93)
        kl = PhiSpec.kl()
        for _ in range(60):
            space = labeled("z", int(rng.integers(2, 5)))
            P, Q = (random_distribution(rng, space) for _ in range(2))
            d = phi_divergence(kl, P, Q)
            assert d >= -1e-12
            if np.abs(P.weights - Q.weights).sum() >= 0.01:
                assert d > 0.0

    def test_spec_validation(self):
        with pytest.raises(ArgumentError):
            PhiSpec("off", lambda x: x)  # phi(1) != 0
        with pytest.raises(ArgumentError):
            PhiSpec("concave", lambda x: -((x - 1.0) ** 2))


class TestShannonEntropy:
    def test_point_mass(self):
        assert shannon_entropy(point_mass(THETA, "-1")) == 0.0

    def test_uniform_binary(self):
        assert shannon_entropy(UNIF) == pytest.approx(math.log(2), abs=1e-15)

    def test_lopsided(self):
        assert shannon_entropy(dist([0.9, 0.1])) == pytest.approx(0.325083, abs=1e-6)

    def test_bounds(self):
        rng = np.random.default_rng(94)
        for _ in range(30):
            space = labeled("z", int(rng.integers(2, 6)))
            P = random_distribution(rng, space)
            h = shannon_entropy(P)
            assert -1e-12 <= h <= math.log(len(space)) + 1e-12


class TestMutualInformation:
    def test_no_information(self):
        assert mutual_information(terminal(THETA), UNIF) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_information(self):
        assert mutual_information(identity(THETA), UNIF) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_binary_symmetric_closed_form(self):
        want = math.log(2) - H_09_01  # 0.368064 nats
        got = mutual_information(BSC01, UNIF)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.368064, abs=1e-4)

    def test_bounds(self):
        rng = np.random.default_rng(95)
        from expcompare._samplers import random_markov

        for _ in range(30):
            unknowns = labeled("t", int(rng.integers(2, 5)))
            e = random_markov(rng, unknowns, labeled("z", int(rng.integers(2, 5))))
            pi = random_distribution(rng, unknowns)
            mi = mutual_information(e, pi)
            assert mi >= -1e-9
            assert mi <= min(shannon_entropy(pi), math.log(len(e.target))) + 1e-9

    def test_matches_expected_posterior_entropy(self):
        # reference: H(pi) - sum_z m_z H(post_z) from the reversal, with a
        # zero prior weight and an observation of zero mass in half the cases
        rng = np.random.default_rng(96)
        from expcompare._samplers import random_markov

        for i in range(40):
            unknowns = labeled("t", int(rng.integers(2, 5)))
            e = random_markov(rng, unknowns, labeled("z", int(rng.integers(2, 5))))
            pi = random_distribution(rng, unknowns)
            if i % 2:
                m = e.matrix.copy()
                m[0] += m[-1]
                m[-1] = 0.0
                e = Transition(unknowns, e.target, m)
                w = pi.weights.copy()
                w[-1] = 0.0
                pi = Distribution(unknowns, w / w.sum())
            rev = reverse(e, pi)
            cond = sum(
                rev.marginal[z] * shannon_entropy(Distribution(unknowns, rev.posterior.matrix[:, k]))
                for k, z in enumerate(e.target.labels)
                if z in rev.support
            )
            assert mutual_information(e, pi) == pytest.approx(
                shannon_entropy(pi) - cond, abs=1e-12
            )


class TestRiskGap:
    def test_binary_zero_one_gap_is_half_the_variation(self):
        L01 = zero_one_loss(THETA)
        gap = risk_gap(L01, BSC01, UNIF)
        assert gap == pytest.approx(0.4, abs=1e-12)
        cols = [BSC01.column(t) for t in THETA.labels]
        assert gap == pytest.approx(0.5 * variational(cols[0], cols[1]), abs=1e-12)

    def test_subset_form_of_the_gap(self):
        # gap == 0.5 * max over outcome subsets of the mass difference
        L01 = zero_one_loss(THETA)
        for flip in (0.1, 0.25, 0.4):
            e = binary_symmetric(flip)
            outcomes = range(len(e.target))
            best = max(
                sum(e.matrix[z, 0] - e.matrix[z, 1] for z in subset)
                for r in range(len(e.target) + 1)
                for subset in combinations(outcomes, r)
            )
            assert risk_gap(L01, e, UNIF) == pytest.approx(0.5 * best, abs=1e-12)

    def test_uninformative_gap_is_zero(self):
        L01 = zero_one_loss(THETA)
        assert risk_gap(L01, terminal(THETA), UNIF) == pytest.approx(0.0, abs=1e-12)

    def test_log_loss_gap_tracks_mutual_information(self):
        grid = log_loss_grid(THETA, 64)
        for flip in (0.1, 0.3):
            e = binary_symmetric(flip)
            assert risk_gap(grid, e, UNIF) == pytest.approx(
                mutual_information(e, UNIF), abs=1e-2
            )

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(96)
        from expcompare._samplers import random_loss, random_markov

        for _ in range(25):
            unknowns = labeled("t", int(rng.integers(2, 4)))
            L = random_loss(rng, unknowns, int(rng.integers(2, 4)))
            e = random_markov(rng, unknowns, labeled("z", int(rng.integers(2, 4))))
            pi = random_distribution(rng, unknowns)
            assert risk_gap(L, e, pi) >= -1e-9


class TestDpiCheck:
    @pytest.mark.parametrize("kind", ["variational", "phi", "mutual_information", "risk_gap"])
    def test_no_violations(self, kind):
        rep = dpi_check(kind, trials=120, seed=7)
        assert rep.ok
        assert rep.max_excess <= 1e-9

    def test_permutation_preserves_mutual_information(self):
        from expcompare import compose, from_function
        from expcompare._samplers import random_markov

        rng = np.random.default_rng(97)
        for _ in range(10):
            space = labeled("z", 3)
            e = random_markov(rng, THETA, space)
            pi = random_distribution(rng, THETA)
            perm = from_function(space, space, {"z0": "z2", "z1": "z0", "z2": "z1"})
            assert mutual_information(compose(perm, e), pi) == pytest.approx(
                mutual_information(e, pi), abs=1e-9
            )

    def test_terminal_processing_kills_the_risk_gap(self):
        from expcompare import compose, risk_gap, zero_one_loss

        L01 = zero_one_loss(THETA)
        original = risk_gap(L01, BSC01, UNIF)
        crushed = risk_gap(L01, compose(terminal(BSC01.target), BSC01), UNIF)
        assert crushed == pytest.approx(0.0, abs=1e-12)
        assert crushed <= original + 1e-12

    def test_deterministic_given_seed(self):
        a = dpi_check("variational", trials=40, seed=11)
        b = dpi_check("variational", trials=40, seed=11)
        assert a == b

    def test_argument_validation(self):
        with pytest.raises(ArgumentError):
            dpi_check("nope", trials=10)
        with pytest.raises(ArgumentError):
            dpi_check("variational", trials=0)
