import math
import time

import numpy as np
import pytest
from helpers import (
    assert_vertex_starts,
    highs_support_gap,
    labeled,
    primal_support_gap,
    random_distribution,
    random_loss,
    random_markov,
    record_solves,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from expcompare import (
    ArgumentError,
    Distribution,
    LabeledSet,
    LossMatrix,
    ShapeError,
    UnnormalizedMeasure,
    action_coordinate,
    bayes_actions,
    canonical_loss,
    canonical_point,
    entropy,
    euler_check,
    in_super_prediction_set,
    is_achievable,
    is_supergradient,
    log_loss_grid,
    loss_from_entropy,
    max_risk,
    min_bayes_risk,
    minimax_risk,
    psi,
    terminal,
    uniform,
    zero_one_loss,
    zero_sum_part,
)
from expcompare import lp
from expcompare.loss import GRID_CAP, support_gap

THETA = LabeledSet(("-1", "1"))
L01 = zero_one_loss(THETA)


def measure(weights):
    return UnnormalizedMeasure(THETA, weights)


def dist(weights):
    return Distribution(THETA, weights)


class TestEntropy:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.5, 0.8, 1.0])
    def test_zero_one_is_min(self, p):
        assert entropy(L01, dist([p, 1 - p])) == pytest.approx(min(p, 1 - p), abs=1e-15)

    def test_log_loss_grid_at_uniform_is_ln2(self):
        grid = log_loss_grid(THETA, 64)
        assert entropy(grid, uniform(THETA)) == pytest.approx(math.log(2), abs=1e-12)

    def test_log_loss_grid_tracks_shannon(self):
        grid = log_loss_grid(THETA, 64)
        for p in (0.9, 0.3, 0.55):
            shannon = -p * math.log(p) - (1 - p) * math.log(1 - p)
            assert entropy(grid, dist([p, 1 - p])) == pytest.approx(shannon, abs=1e-3)

    def test_homogeneity_factor_two_is_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            L = random_loss(rng, THETA, int(rng.integers(2, 5)))
            mu = measure(rng.uniform(0, 2, 2))
            a, b = entropy(L, mu.scaled(2.0)), 2.0 * entropy(L, mu)
            assert a == pytest.approx(b, rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(min_value=0.01, max_value=50.0),
        w=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=2, max_size=2),
    )
    def test_homogeneity_random_scale(self, lam, w):
        mu = measure(w)
        assert entropy(L01, mu.scaled(lam)) == pytest.approx(
            lam * entropy(L01, mu), rel=1e-12, abs=1e-12
        )

    def test_concavity_on_random_mixtures(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            L = random_loss(rng, THETA, int(rng.integers(2, 5)))
            m1 = rng.uniform(0, 2, 2)
            m2 = rng.uniform(0, 2, 2)
            lam = rng.uniform()
            mixed = entropy(L, measure(lam * m1 + (1 - lam) * m2))
            split = lam * entropy(L, measure(m1)) + (1 - lam) * entropy(L, measure(m2))
            assert mixed >= split - 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            entropy(L01, UnnormalizedMeasure(LabeledSet(("x", "y", "z")), [1, 1, 1]))


class TestBayesActions:
    def test_lopsided(self):
        assert bayes_actions(L01, dist([0.9, 0.1])) == ["-1"]

    def test_tie_returns_both(self):
        assert bayes_actions(L01, uniform(THETA)) == ["-1", "1"]

    def test_constant_loss_keeps_all(self):
        L = LossMatrix(THETA, LabeledSet(("a", "b", "c")), np.full((2, 3), 0.7))
        assert bayes_actions(L, dist([0.3, 0.7])) == ["a", "b", "c"]


class TestSupergradient:
    def test_bayes_column_is_supergradient(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            L = random_loss(rng, THETA, int(rng.integers(2, 5)))
            P = random_distribution(rng, THETA)
            col = loss_from_entropy(L, P)
            assert is_supergradient(L, col, P)

    def test_zero_vector_fails_on_zero_one_loss(self):
        assert not is_supergradient(L01, [0.0, 0.0], measure([0.3, 0.7]))

    def test_non_bayes_column_fails_touch_condition(self):
        # at (0.9, 0.1) the action "1" is strictly worse
        assert not is_supergradient(L01, L01.column("1"), dist([0.9, 0.1]))

    def test_membership_at_the_solver_tolerance(self):
        # below the entropy by 5e-8: inside lp.FEAS_TOL, so a member, and it
        # touches the entropy at the uniform weights within that tolerance
        v = np.array([0.5, 0.5]) - 5e-8
        assert in_super_prediction_set(L01, v)
        assert is_supergradient(L01, v, uniform(THETA))


class TestSuperPredictionSet:
    def test_columns_belong(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            L = random_loss(rng, THETA, int(rng.integers(2, 5)))
            for a in L.actions.labels:
                assert in_super_prediction_set(L, L.column(a))

    def test_shifted_column_belongs(self):
        assert in_super_prediction_set(L01, L01.column("-1") + 0.3)

    def test_below_the_boundary_fails(self):
        # at the uniform distribution 0.2 < 0.5
        assert not in_super_prediction_set(L01, [0.2, 0.2])


class TestPsi:
    def test_height_of_achievable_column_is_its_mean(self):
        rng = np.random.default_rng(35)
        seen = 0
        while seen < 30:
            L = random_loss(rng, labeled("t", int(rng.integers(2, 4))), int(rng.integers(2, 5)))
            for a in L.actions.labels:
                if is_achievable(L, a):
                    col = L.column(a)
                    assert psi(L, zero_sum_part(col)) == pytest.approx(
                        float(col.mean()), abs=1e-7
                    )
                    seen += 1

    def test_binary_zero_one_fixture(self):
        # (-0.5, 0.5) + 0.5 * ones reconstructs the column (0, 1)
        assert psi(L01, [-0.5, 0.5]) == pytest.approx(0.5, abs=1e-9)

    def test_convexity_on_random_coordinates(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            L = random_loss(rng, THETA, int(rng.integers(2, 5)))
            v1 = zero_sum_part(rng.uniform(-1, 1, 2))
            v2 = zero_sum_part(rng.uniform(-1, 1, 2))
            lam = rng.uniform()
            lhs = psi(L, lam * v1 + (1 - lam) * v2)
            rhs = lam * psi(L, v1) + (1 - lam) * psi(L, v2)
            assert lhs <= rhs + 1e-9

    def test_height_is_deterministic(self):
        v = zero_sum_part([0.3, -0.9])
        assert psi(L01, v) == psi(L01, v)

    def test_rejects_non_zero_sum(self):
        with pytest.raises(ArgumentError):
            psi(L01, [0.5, 0.0])
        # the tolerance grows with the largest entry, not the sum
        with pytest.raises(ArgumentError):
            psi(L01, [1e8, 1.0 - 1e8])

    def test_zero_sum_test_is_relative_to_large_losses(self):
        # zero_sum_part of the 1e8-scale column a0 sums to -4.47e-8 by
        # rounding, which an absolute ACTIVE_TOL rejected
        L = LossMatrix(labeled("t", 3), labeled("a", 2),
                       [[1e8 + 0.1, 3e8], [2e8, 1e8], [0.0, 7e7]])
        assert abs(zero_sum_part(L.column("a0")).sum()) > 1e-8
        assert is_achievable(L, "a0") and is_achievable(L, "a1")

    def test_canonical_point_lies_on_the_boundary(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            L = random_loss(rng, THETA, int(rng.integers(2, 5)))
            v = zero_sum_part(rng.uniform(-1, 1, 2))
            pt = canonical_point(L, v)
            lifted = pt.v + pt.psi * np.ones(2)
            assert in_super_prediction_set(L, lifted)
            # touching: the support query's minimizer pairs to the entropy
            _, supporting = support_gap(L, pt.v)
            P = dist(supporting)
            assert float(P.weights @ lifted) == pytest.approx(
                entropy(L, P), abs=1e-7
            )


#: Pivots allowed for one ``psi`` on the 39,711-action grid.  The test's two
#: coordinates take 0 + 15 and 0 + 12 pivots (phase one + phase two), and
#: 22 random coordinates at most 17 in all.
GRID_PSI_PIVOT_BOUND = 200


def _random_support_case(rng):
    n_t, n_a = int(rng.integers(2, 6)), int(rng.integers(1, 13))
    if rng.integers(2):  # small integers: ties and degenerate vertices
        vals = rng.integers(-2, 3, (n_t, n_a)).astype(float)
        v = rng.integers(-2, 3, n_t).astype(float)
    else:
        vals = rng.uniform(-1.0, 1.0, (n_t, n_a))
        v = rng.uniform(-1.0, 1.0, n_t)
    return LossMatrix(labeled("t", n_t), labeled("a", n_a), vals), v


class TestSupportGap:
    def test_gap_matches_the_primal_program(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            L, v = _random_support_case(rng)
            gap, _ = support_gap(L, v)
            assert gap == pytest.approx(primal_support_gap(L, v), abs=1e-12)

    def test_minimizer_attains_the_gap(self):
        # minimizers need not be unique, so P is checked, not compared
        rng = np.random.default_rng(44)
        for _ in range(300):
            L, v = _random_support_case(rng)
            gap, P = support_gap(L, v)
            assert P.min() >= -1e-12
            assert P.sum() == pytest.approx(1.0, abs=1e-12)
            assert float(P @ v - (P @ L.values).min()) == pytest.approx(gap, abs=1e-12)

    def test_gap_is_a_minimax_value(self):
        # without data, the minimax risk of L - v is minus the support gap
        # of v, and a least favorable prior attains that gap
        rng = np.random.default_rng(46)
        for _ in range(500):
            L, v = _random_support_case(rng)
            gap, _ = support_gap(L, v)
            game = LossMatrix(L.unknowns, L.actions, L.values - v[:, None])
            res = minimax_risk(game, terminal(L.unknowns))
            assert gap == pytest.approx(-res.value, abs=1e-12)
            prior = res.least_favorable_prior.weights
            assert float(prior @ v - (prior @ L.values).min()) == pytest.approx(gap, abs=1e-12)

    def test_psi_on_the_39711_action_grid_within_pivot_bound(self, monkeypatch):
        grid = log_loss_grid(labeled("t", 4), 64)
        assert len(grid.actions) == 39_711
        results = record_solves(monkeypatch)
        rng = np.random.default_rng(45)
        coords = [zero_sum_part(rng.uniform(-1.0, 1.0, 4)), zero_sum_part(grid.values[:, 777])]
        heights = [psi(grid, v) for v in coords]
        assert len(results) == 2
        assert_vertex_starts(results)
        assert all(sum(r.pivots) <= GRID_PSI_PIVOT_BOUND for _, r in results)
        assert heights[1] == pytest.approx(float(grid.values[:, 777].mean()), abs=1e-12)
        pytest.importorskip("scipy")
        for v, h in zip(coords, heights):
            assert -h == pytest.approx(highs_support_gap(grid, v), abs=1e-9)

    def test_grid_cap_fails_before_enumerating(self):
        assert math.comb(63, 3) <= GRID_CAP < math.comb(63, 5)
        start = time.perf_counter()
        with pytest.raises(ArgumentError, match="7028847 actions"):
            log_loss_grid(labeled("t", 6), 64)
        assert time.perf_counter() - start < 0.5


def _integer_loss(rng, n_t, n_a):
    # entries in {0, 1, 2}: ties between actions and degenerate vertices
    vals = rng.integers(0, 3, (n_t, n_a)).astype(float)
    return LossMatrix(labeled("t", n_t), labeled("a", n_a), vals)


class TestEpigraphVertexStart:
    """Every epigraph LP starts at the reference columns: phase one is empty."""

    def _assert_minimax(self, L, e):
        res = minimax_risk(L, e)
        prior = res.least_favorable_prior
        assert min_bayes_risk(L, e, prior).value == pytest.approx(res.value, abs=1e-12)
        assert max_risk(L, e, res.rule) == pytest.approx(res.value, abs=1e-12)
        return res

    def test_minimax_on_random_instances(self, monkeypatch):
        seen = record_solves(monkeypatch)
        rng = np.random.default_rng(91)
        for k in range(500):
            n_t, n_z, n_a = (int(rng.integers(lo, hi)) for lo, hi in ((2, 6), (1, 5), (1, 5)))
            if k % 3:
                L = random_loss(rng, labeled("t", n_t), n_a)
            else:
                L = _integer_loss(rng, n_t, n_a)
            self._assert_minimax(L, random_markov(rng, L.unknowns, labeled("z", n_z)))
        assert len(seen) == 500
        assert_vertex_starts(seen)

    def test_minimax_without_data(self, monkeypatch):
        seen = record_solves(monkeypatch)
        res = self._assert_minimax(L01, terminal(THETA))
        assert res.value == pytest.approx(0.5, abs=1e-12)
        rng = np.random.default_rng(92)
        for _ in range(20):
            L = random_loss(rng, labeled("t", int(rng.integers(2, 5))), int(rng.integers(1, 5)))
            self._assert_minimax(L, terminal(L.unknowns))
        assert_vertex_starts(seen)

    def test_minimax_with_one_action(self, monkeypatch):
        # the one rule's risk is the loss column itself; each sum row holds
        # only its reference, so the tableau keeps just the rows of the loss
        seen = record_solves(monkeypatch)
        L = LossMatrix(labeled("t", 3), labeled("a", 1), [[0.2], [0.7], [-0.1]])
        e = random_markov(np.random.default_rng(93), L.unknowns, labeled("z", 3))
        res = self._assert_minimax(L, e)
        assert res.value == 0.7
        assert res.least_favorable_prior.weights.tolist() == [0.0, 1.0, 0.0]
        assert_vertex_starts(seen)
        (p, _), = seen
        tab = lp._build(p, lp._dual_start(p))[0]
        assert tab.shape == (3 + 1, 1 + 3 + 1)  # rows: |T| and costs

    def test_minimax_with_tied_integer_losses(self, monkeypatch):
        seen = record_solves(monkeypatch)
        rng = np.random.default_rng(94)
        self._assert_minimax(zero_one_loss(labeled("t", 3)), terminal(labeled("t", 3)))
        for _ in range(40):
            L = _integer_loss(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            e = random_markov(rng, L.unknowns, labeled("z", int(rng.integers(1, 4))))
            self._assert_minimax(L, e)
        assert_vertex_starts(seen)

    def test_support_gap_with_one_action(self, monkeypatch):
        # the gap of v is min_t (v - L)[t], at the point mass on its argmin
        seen = record_solves(monkeypatch)
        L = LossMatrix(labeled("t", 3), labeled("a", 1), [[0.5], [-0.25], [1.0]])
        gap, P = support_gap(L, [0.0, 0.5, 0.2])
        assert gap == pytest.approx(-0.8, abs=1e-12)
        np.testing.assert_allclose(P, [0.0, 0.0, 1.0], atol=1e-12)
        assert_vertex_starts(seen)

    def test_support_gap_at_the_reference_column(self, monkeypatch):
        # the reference column is Bayes for uniform weights, so the
        # starting point already attains the height of its coordinate
        seen = record_solves(monkeypatch)
        rng = np.random.default_rng(95)
        for k in range(60):
            n_t, n_a = int(rng.integers(2, 6)), int(rng.integers(1, 8))
            L = _integer_loss(rng, n_t, n_a) if k % 2 else random_loss(rng, labeled("t", n_t), n_a)
            col = L.values[:, int(np.argmin(L.values.sum(axis=0)))]
            gap, P = support_gap(L, zero_sum_part(col))
            assert P.sum() == pytest.approx(1.0, abs=1e-12)
            assert -gap == pytest.approx(float(col.mean()), abs=1e-12)
        assert_vertex_starts(seen)

    def test_achievable_actions(self, monkeypatch):
        # bias_variance's heights are pinned in test_risk's TestBiasVariance
        seen = record_solves(monkeypatch)
        grid = log_loss_grid(labeled("t", 3), 8)
        assert all(is_achievable(grid, a) for a in grid.actions.labels)
        L = LossMatrix(THETA, labeled("a", 3), [[0.0, 1.0, 0.6], [1.0, 0.0, 0.6]])
        assert [is_achievable(L, a) for a in L.actions.labels] == [True, True, False]
        assert_vertex_starts(seen)


class TestCanonicalLoss:
    def test_binary_fixture_with_sign(self):
        # -(-0.5) + 0.5 = 1 reconstructs the column of the other action
        assert canonical_loss(L01, "-1", [-0.5, 0.5]) == pytest.approx(1.0, abs=1e-9)
        assert canonical_loss(L01, "1", [-0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)

    def test_zero_coordinate_gives_max_entropy(self):
        # max over the simplex of the zero-one entropy is 0.5, flat in theta
        for t in THETA.labels:
            assert canonical_loss(L01, t, [0.0, 0.0]) == pytest.approx(0.5, abs=1e-9)

    def test_reconstruction_for_achievable_actions(self):
        rng = np.random.default_rng(38)
        checked = 0
        while checked < 30:
            L = random_loss(rng, labeled("t", int(rng.integers(2, 4))), int(rng.integers(2, 5)))
            for a in L.actions.labels:
                if not is_achievable(L, a):
                    continue
                coord = action_coordinate(L, a)
                for t in L.unknowns.labels:
                    want = L.values[L.unknowns.index(t), L.actions.index(a)]
                    assert canonical_loss(L, t, coord) == pytest.approx(want, abs=1e-7)
                checked += 1

    def test_unknown_label(self):
        with pytest.raises(Exception):
            canonical_loss(L01, "zz", [0.0, 0.0])


class TestLossFromEntropy:
    def test_zero_one_prediction(self):
        np.testing.assert_allclose(loss_from_entropy(L01, dist([0.9, 0.1])), [0.0, 1.0])

    def test_unique_bayes_action_returns_its_column(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            L = random_loss(rng, THETA, 3)
            Q = random_distribution(rng, THETA)
            acts = bayes_actions(L, Q, tol=1e-12)
            if len(acts) == 1:
                np.testing.assert_array_equal(
                    loss_from_entropy(L, Q), L.column(acts[0])
                )

    def test_properness_on_random_pairs(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            L = random_loss(rng, labeled("t", int(rng.integers(2, 4))), int(rng.integers(2, 6)))
            P = random_distribution(rng, L.unknowns)
            Q = random_distribution(rng, L.unknowns)
            truthful = float(P.weights @ loss_from_entropy(L, P))
            misreported = float(P.weights @ loss_from_entropy(L, Q))
            assert truthful <= misreported + 1e-9


class TestEulerCheck:
    def test_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            L = random_loss(rng, labeled("t", int(rng.integers(2, 4))), int(rng.integers(2, 5)))
            mu = UnnormalizedMeasure(L.unknowns, rng.uniform(0, 2, len(L.unknowns)))
            assert euler_check(L, mu)

    def test_zero_measure(self):
        assert euler_check(L01, measure([0.0, 0.0]))

    def test_scaling_preserves_bayes_set(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            L = random_loss(rng, THETA, 4)
            w = rng.uniform(0.1, 2, 2)
            base = bayes_actions(L, dist(w / w.sum()))
            # scaling the distribution by any positive factor keeps the set
            assert bayes_actions(L, dist(2 * w / (2 * w).sum())) == base
