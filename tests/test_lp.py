import pickle

import numpy as np
import pytest
from helpers import (
    assert_dual_starts,
    highs,
    labeled,
    random_distribution,
    random_dual_program,
    random_loss,
    random_markov,
    random_program,
    record_solves,
    rule_from_assignment,
)

from expcompare import (
    ArgumentError,
    LinearProgram,
    ShapeError,
    SolverError,
    Transition,
    complete_class_check,
    directed_deficiency,
    is_admissible,
    log_loss_grid,
    lp,
    min_bayes_risk,
    minimax_risk,
    psi,
    uniform,
)


def solve(*args, **kwargs):
    return lp.solve(LinearProgram(*args, **kwargs))


class TestExamples:
    def test_one_variable(self):
        res = solve([-1.0], a_ub=[[1.0]], b_ub=[1.0])
        assert res.status == lp.OPTIMAL
        assert res.value == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_allclose(res.primal, [1.0])

    def test_contradictory_bounds(self):
        res = solve([0.0], a_ub=[[1.0]], b_ub=[-1.0])
        assert res.status == lp.INFEASIBLE
        assert res.value is None and res.primal is None

    def test_triangle_vertex(self):
        # oracle: the optimum of -x-y over the triangle is at a vertex
        vertices = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        oracle = min(-x - y for x, y in vertices)
        res = solve([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        assert res.status == lp.OPTIMAL
        assert res.value == pytest.approx(oracle, abs=1e-12)

    def test_unbounded(self):
        assert solve([-1.0]).status == lp.UNBOUNDED

    def test_equality_constraints(self):
        res = solve([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        assert res.status == lp.OPTIMAL
        np.testing.assert_allclose(res.primal, [1.0, 0.0], atol=1e-12)

    def test_negative_rhs_equality(self):
        res = solve([0.0, 1.0], a_eq=[[-1.0, 0.0]], b_eq=[-2.0])
        assert res.status == lp.OPTIMAL
        np.testing.assert_allclose(res.primal, [2.0, 0.0], atol=1e-12)

    def test_redundant_equality_rows(self):
        # duplicated rows: the duals are not unique
        p = LinearProgram(
            [1.0, 2.0],
            a_eq=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
            b_eq=[1.0, 1.0, 2.0],
        )
        res = lp.solve(p)
        assert res.status == lp.OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-12)
        # the dual simplex leaves on the most negative row, -2 x0 - 2 x1
        # <= -2 of the third equality, so only that row's pair has a dual
        _assert_kkt(p, res)
        np.testing.assert_allclose(res.dual_eq, [0.0, 0.0, 0.5], atol=1e-12)

    def test_inputs_are_not_frozen(self):
        c = np.array([1.0, -1.0])
        lp.solve(LinearProgram(c, a_ub=[[1.0, 1.0]], b_ub=[1.0]))
        c[0] = 7.0  # caller's array must stay writable


class TestFeasible:
    def test_box(self):
        assert solve([0.0], a_ub=[[1.0]], b_ub=[1.0]).status != lp.INFEASIBLE

    def test_empty(self):
        assert solve([0.0], a_ub=[[1.0]], b_ub=[-1.0]).status == lp.INFEASIBLE

    def test_simplex_nonempty(self):
        assert solve([0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]).status != lp.INFEASIBLE

    @staticmethod
    def highs_status(p):
        """The status of ``p`` by HiGHS.  Its "infeasible" can mean
        "infeasible or unbounded": with a point that a zero-cost solve
        finds, it is read as unbounded."""
        pytest.importorskip("scipy")
        status = highs(p).status
        if status == 2:
            zero_cost = LinearProgram(0.0 * p.c, p.a_ub, p.b_ub, p.a_eq, p.b_eq)
            status = 3 if highs(zero_cost).status == 0 else 2
        return {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}[status]

    def test_agrees_with_solve(self):
        # HiGHS's feasibility verdict agrees with solve's, which the dual
        # simplex from the slack basis decides; statuses and pivots per
        # phase are tallied over each generator's seeds
        for generate, n, pinned, pivots in [
            (random_program, 1000, (577, 258, 165), (1875, 1021)),
            (random_dual_program, 300, (223, 77, 0), (400, 0)),
        ]:
            seen = []
            for seed in range(n):
                p = generate(seed)
                seen.append((p, lp.solve(p)))
                assert seen[-1][1].status == self.highs_status(p), seed
            statuses = [res.status for _, res in seen]
            counts = tuple(statuses.count(s) for s in (lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED))
            assert counts == pinned and _phase_totals(seen) == pivots

    def test_highs_infeasible_or_unbounded(self):
        # the one such seed of 0..4999: x = 0 is feasible and the ray
        # (1, 1, 0) costs -3, so solve's "unbounded" is right
        p = random_program(4976)
        assert lp.solve(p).status == lp.UNBOUNDED == self.highs_status(p)
        ray = np.array([1.0, 1.0, 0.0])
        assert p.b_eq.size == 0 and (p.b_ub >= 0.0).all()
        assert (p.a_ub @ ray <= 0.0).all() and p.c @ ray == -3.0


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ArgumentError):
            LinearProgram([np.nan])

    def test_inf_rejected(self):
        with pytest.raises(ArgumentError):
            LinearProgram([1.0], a_ub=[[np.inf]], b_ub=[1.0])

    @pytest.mark.parametrize("block, match", [
        ({"a_ub": np.zeros((0, 2)), "b_ub": np.zeros(0)}, "2 columns, expected 3"),
        ({"a_ub": np.zeros((0, 2))}, "2 columns, expected 3"),
        ({"a_eq": np.zeros((2, 0)), "b_eq": [0.0, 0.0]}, "0 columns, expected 3"),
        ({"a_ub": [[1.0, 0.0, 0.0]]}, "1 rows but 0 right-hand sides"),
        ({"b_eq": [1.0]}, "0 rows but 1 right-hand sides"),
    ])
    def test_block_shapes_rejected(self, block, match):
        with pytest.raises(ShapeError, match=match):
            LinearProgram([1.0, 1.0, 1.0], **block)

    @pytest.mark.parametrize("kind", ["ub", "eq"])
    @pytest.mark.parametrize("a, b, match", [
        ([[1.0, 0.0], [0.0, 1.0]], [[1.0], [2.0]], "got 2-d and 2-d"),
        (np.zeros((2, 2, 1)), [1.0, 2.0], "got 3-d and 1-d"),
    ])
    def test_block_dimensions_rejected(self, kind, a, b, match):
        # a column right-hand side once built and failed inside solve
        with pytest.raises(ShapeError, match=match):
            LinearProgram([1.0, 1.0], **{f"a_{kind}": a, f"b_{kind}": b})


def _random_bounded_program(rng):
    """Random LP guaranteed feasible (x=0) and bounded (c >= 0 on a box)."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 5))
    c = rng.uniform(0.1, 1.0, n) * rng.choice([1.0, -1.0], n)
    a_ub = rng.uniform(-1.0, 1.0, (m, n))
    b_ub = rng.uniform(0.1, 2.0, m)
    # box keeps every direction bounded
    a_box = np.eye(n)
    b_box = np.full(n, 5.0)
    return LinearProgram(c, a_ub=np.vstack([a_ub, a_box]), b_ub=np.concatenate([b_ub, b_box]))


class TestDuality:
    def test_dual_sign_convention(self):
        res = solve([-1.0], a_ub=[[1.0]], b_ub=[1.0])
        assert res.dual_ub[0] == pytest.approx(-1.0, abs=1e-12)
        assert res.dual_ub[0] <= 0.0

    def test_strong_duality_on_random_programs(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            p = _random_bounded_program(rng)
            res = lp.solve(p)
            assert res.status == lp.OPTIMAL
            dual_value = float(p.b_ub @ res.dual_ub)
            assert dual_value == pytest.approx(res.value, abs=1e-7)
            assert np.all(res.dual_ub <= 1e-9)

    def test_complementary_slackness(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            p = _random_bounded_program(rng)
            res = lp.solve(p)
            slack = p.b_ub - p.a_ub @ res.primal
            assert np.all(slack >= -1e-7)
            assert np.abs(slack * res.dual_ub).max() <= 1e-7

    def test_strong_duality_with_equality_rows(self):
        rng = np.random.default_rng(26)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 4))
            c = rng.uniform(-1.0, 1.0, n)
            a_ub = rng.uniform(-1.0, 1.0, (m, n))
            x0 = np.full(n, 1.0 / n)  # interior point of the simplex
            b_ub = a_ub @ x0 + rng.uniform(0.05, 1.0, m)
            p = LinearProgram(
                c, a_ub=a_ub, b_ub=b_ub, a_eq=np.ones((1, n)), b_eq=[1.0]
            )
            res = lp.solve(p)
            assert res.status == lp.OPTIMAL
            dual_value = float(p.b_eq @ res.dual_eq + p.b_ub @ res.dual_ub)
            assert dual_value == pytest.approx(res.value, abs=1e-7)

    def test_primal_feasibility_and_support(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            p = _random_bounded_program(rng)
            res = lp.solve(p)
            assert np.all(res.primal >= -1e-9)
            n_rows = p.a_ub.shape[0] + (p.a_eq.shape[0] if p.a_eq is not None else 0)
            assert np.count_nonzero(np.abs(res.primal) > 1e-12) <= n_rows


def _assert_kkt(p, res, tol=1e-9):
    """Strong duality, dual feasibility and complementary slackness."""
    y_eq, y_ub = res.dual_eq, res.dual_ub
    assert y_eq.shape == p.b_eq.shape and y_ub.shape == p.b_ub.shape
    assert np.all(y_ub <= tol)
    assert float(p.b_eq @ y_eq + p.b_ub @ y_ub) == pytest.approx(res.value, abs=tol)
    reduced = p.c - p.a_eq.T @ y_eq - p.a_ub.T @ y_ub
    assert np.all(reduced >= -tol) and np.abs(reduced * res.primal).max() <= tol
    assert np.abs((p.b_ub - p.a_ub @ res.primal) * y_ub).max(initial=0.0) <= tol


class TestDualsFromTableau:
    def test_negated_rows_match_highs(self):
        # x0 + x1 >= 2 and x0 - x1 = 1, both written with b < 0; the
        # optimum (1.5, 0.5) is non-degenerate, so the dual is unique
        p = LinearProgram([1.0, 3.0], a_ub=[[-1.0, -1.0]], b_ub=[-2.0],
                          a_eq=[[-1.0, 1.0]], b_eq=[-1.0])
        res = lp.solve(p)
        _assert_kkt(p, res)
        np.testing.assert_allclose([*res.dual_eq, *res.dual_ub], [1.0, -2.0], atol=1e-12)
        linprog = pytest.importorskip("scipy.optimize").linprog
        ref = linprog(p.c, A_ub=p.a_ub, b_ub=p.b_ub, A_eq=p.a_eq, b_eq=p.b_eq, method="highs")
        np.testing.assert_allclose(res.dual_eq, ref.eqlin.marginals, atol=1e-9)
        np.testing.assert_allclose(res.dual_ub, ref.ineqlin.marginals, atol=1e-9)

    def test_program_without_rows(self):
        res = solve([1.0, 2.0])
        assert res.value == 0.0
        assert res.dual_eq.shape == res.dual_ub.shape == (0,)


class TestDeterminism:
    def test_bit_for_bit_resolve(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            p = _random_bounded_program(rng)
            r1, r2 = lp.solve(p), lp.solve(p)
            assert r1.value == r2.value
            assert np.array_equal(r1.primal, r2.primal)
            assert np.array_equal(r1.dual_ub, r2.dual_ub)


#: Beale (1955): Dantzig's rule with a lowest-label leaving row cycles
#: through six degenerate bases of this program without progress.
BEALE = LinearProgram(
    [-0.75, 20.0, -0.5, 6.0],
    a_ub=[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
    b_ub=[0.0, 0.0, 1.0],
)


def _assert_beale_optimum(res):
    assert res.status == lp.OPTIMAL
    assert res.value == pytest.approx(-1.25, abs=1e-12)
    np.testing.assert_allclose(res.primal, [1.0, 0.0, 1.0, 0.0], atol=1e-12)


class TestPivotRule:
    def test_beale_optimum(self):
        res = lp.solve(BEALE)
        _assert_beale_optimum(res)
        # steepest edge leaves the degenerate vertex without a streak
        assert res.pivots == (0, 3)

    def test_pure_bland_solves_beale(self, monkeypatch):
        # a streak of 0 hands every entering choice to Bland's rule, whose
        # longer path pins that the fallback branch is taken
        monkeypatch.setattr(lp, "DEGENERATE_STREAK", 0)
        res = lp.solve(BEALE)
        _assert_beale_optimum(res)
        assert res.pivots == (0, 6)

    def test_fallback_starts_after_the_streak(self, monkeypatch):
        # Beale's first pivots are degenerate: after two of them Bland's
        # rule takes over, a path neither rule takes alone
        monkeypatch.setattr(lp, "DEGENERATE_STREAK", 2)
        res = lp.solve(BEALE)
        _assert_beale_optimum(res)
        assert res.pivots == (0, 4)

    def test_iteration_limit_message(self, monkeypatch):
        monkeypatch.setattr(lp, "_max_iter", lambda m, n: 2)
        with pytest.raises(SolverError) as info:
            lp.solve(BEALE)
        assert str(info.value) == (
            "phase two exceeded the pivot iteration limit (2 pivots on a 4x8 tableau)"
        )

    def test_optimum_on_the_last_allowed_pivot(self, monkeypatch):
        # Beale is optimal after exactly three phase-two pivots
        monkeypatch.setattr(lp, "_max_iter", lambda m, n: 3)
        res = lp.solve(BEALE)
        _assert_beale_optimum(res)
        assert res.pivots == (0, 3)

    def test_pivots_per_phase(self):
        # slack basis is feasible: no phase-one work, one entering column
        assert solve([-1.0], a_ub=[[2.0]], b_ub=[1.0]).pivots == (0, 1)
        # x is a unit column, but the row starts at its slack: one pivot
        assert solve([-1.0], a_ub=[[1.0]], b_ub=[1.0]).pivots == (0, 1)
        # the row pair of 2 x0 + 3 x1 = 1: the dual simplex enters x0 in
        # the row -2 x0 - 3 x1 <= -1 (ratio 1/2 against 2/3), and that
        # basis is optimal
        res = solve([1.0, 2.0], a_eq=[[2.0, 3.0]], b_eq=[1.0])
        assert res.pivots == (1, 0)
        np.testing.assert_allclose(res.primal, [0.5, 0.0], atol=1e-12)
        infeasible = solve([0.0], a_ub=[[1.0]], b_ub=[-1.0])
        assert infeasible.status == lp.INFEASIBLE and infeasible.pivots == (0, 0)

    def test_steepest_edge_enters_the_steepest_column(self, monkeypatch):
        # from the slack basis the scores d_j^2 / (1 + a_j^2) are 1/17,
        # 9/101 and 4/5: x2 enters and is optimal at once, where Dantzig's
        # rule would enter x1 (most negative cost) and Bland's x0
        p = LinearProgram([-1.0, -3.0, -2.0], a_ub=[[4.0, 10.0, 2.0]], b_ub=[2.0])
        res = lp.solve(p)
        assert res.pivots == (0, 1)
        np.testing.assert_allclose(res.primal, [0.0, 0.0, 1.0])
        # Bland's rule alone walks x0, x1, x2
        monkeypatch.setattr(lp, "DEGENERATE_STREAK", 0)
        assert lp.solve(p).pivots == (0, 3)


class TestDualSimplex:
    """Programs with only ``<=`` rows, ``c >= 0`` and some ``b_ub < 0``,
    whose slack basis is dual feasible for their own costs."""

    #: x0 + x1 >= 1 and x1 >= 2: the most negative row (x1 >= 2) leaves
    #: first and one pivot solves it
    COVER = LinearProgram([1.0, 1.0], a_ub=[[-1.0, -1.0], [0.0, -1.0]], b_ub=[-1.0, -2.0])

    def test_starts_at_the_slack_basis_unsigned(self):
        tab, basis0 = lp._build(self.COVER)
        assert list(basis0) == [2, 3] and tab.shape == (3, 5)
        assert list(tab[:2, -1]) == [-1.0, -2.0]
        assert list(tab[-1, :-1]) == [1.0, 1.0, 0.0, 0.0]  # c: the slacks cost nothing

    def test_only_programs_with_a_dual_feasible_slack_basis(self):
        # start with their own costs; a negative cost is clipped to 0, and
        # an equality row is the pair of rows a x <= b, -a x <= -b before
        # the <= rows
        tab, basis0 = lp._build(LinearProgram([-1.0, 1.0], a_ub=self.COVER.a_ub,
                                              b_ub=self.COVER.b_ub))
        assert list(tab[-1, :-1]) == [0.0, 1.0, 0.0, 0.0]
        p = LinearProgram([1.0, 1.0], a_ub=self.COVER.a_ub, b_ub=self.COVER.b_ub,
                          a_eq=[[1.0, 1.0]], b_eq=[3.0])
        tab, basis0 = lp._build(p)
        assert list(basis0) == [2, 3, 4, 5]
        assert tab[:4, :2].tolist() == [[1.0, 1.0], [-1.0, -1.0], [-1.0, -1.0], [0.0, -1.0]]
        assert list(tab[:4, -1]) == [3.0, -3.0, -1.0, -2.0]
        res = lp.solve(p)
        assert res.pivots == (2, 0) and res.value == 3.0
        _assert_kkt(p, res)
        # no negative right-hand side: the slack basis is already optimal
        assert lp.solve(LinearProgram([1.0], a_ub=[[-1.0]], b_ub=[1.0])).pivots == (0, 0)

    def test_cover(self):
        res = lp.solve(self.COVER)
        assert res.pivots == (1, 0)
        np.testing.assert_allclose(res.primal, [0.0, 2.0])
        _assert_kkt(self.COVER, res)
        np.testing.assert_allclose(res.dual_ub, [0.0, -1.0])

    def test_entering_column_has_the_minimum_ratio(self):
        # x0 + x1 >= 1 with costs 1 and 2: ratios 1 and 2, x0 enters
        res = solve([1.0, 2.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
        assert res.pivots == (1, 0)
        np.testing.assert_allclose(res.primal, [1.0, 0.0])
        assert res.dual_ub[0] == -1.0

    def test_pure_bland_takes_the_lowest_basic_row(self, monkeypatch):
        # Bland's dual rule starts from row 0 (slack 2), a longer path
        monkeypatch.setattr(lp, "DEGENERATE_STREAK", 0)
        res = lp.solve(self.COVER)
        assert res.pivots == (3, 0)
        np.testing.assert_allclose(res.primal, [0.0, 2.0])

    @pytest.mark.parametrize("gap, status", [
        (0.5 * lp.PIVOT_TOL, lp.OPTIMAL),  # feasible at the start
        (0.5 * lp.FEAS_TOL, lp.OPTIMAL),  # a row with no eligible entry, within FEAS_TOL
        (2.0 * lp.FEAS_TOL, lp.INFEASIBLE),
    ])
    def test_feasibility_tolerance(self, gap, status):
        # x0 <= -gap: the row has no negative entry, so no pivot can fix
        # it, and it is infeasible only by more than FEAS_TOL
        res = solve([1.0, 1.0], a_ub=[[1.0, 0.0], [-1.0, -1.0]], b_ub=[-gap, 1.0])
        assert res.status == status and res.pivots == (0, 0)

    def test_iteration_limit_message(self, monkeypatch):
        monkeypatch.setattr(lp, "_max_iter", lambda m, n: 0)
        with pytest.raises(SolverError) as info:
            lp.solve(self.COVER)
        assert str(info.value) == (
            "phase one (dual simplex) exceeded the pivot iteration limit "
            "(0 pivots on a 3x5 tableau)"
        )

    def test_strong_duality(self):
        for seed in range(300):
            p = random_dual_program(seed)
            res = lp.solve(p)
            if res.is_optimal:
                _assert_kkt(p, res)


class TestSlackStart:
    @staticmethod
    def start(p):
        """Starting basis and tableau width of the built tableau."""
        tab, basis0 = lp._build(p)
        return list(basis0), tab.shape[1]

    def test_nonnegative_rows_start_at_their_slacks(self):
        p = LinearProgram([-1.0, -1.0], a_ub=[[1.0, 0.0], [1.0, 2.0]], b_ub=[1.0, 0.0])
        assert self.start(p) == ([2, 3], 5)  # the variables, the slacks, b
        assert lp.solve(p).pivots[0] == 0

    def test_equality_and_negated_rows_start_at_slacks(self):
        # the equality row's pair and the two <= rows start at the slacks
        # 3 to 6, in row order, though column 2 is a unit column of row 0;
        # the dual simplex fixes the rows -x2 <= -0.5 and -2 x0 - x1 <= -1
        p = LinearProgram([1.0, 1.0, 1.0], a_eq=[[0.0, 0.0, 1.0]], b_eq=[0.5],
                          a_ub=[[-2.0, -1.0, 0.0], [1.0, 1.0, 0.0]], b_ub=[-1.0, 3.0])
        assert self.start(p) == ([3, 4, 5, 6], 8)
        res = lp.solve(p)
        assert res.is_optimal and res.pivots == (2, 0)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        _assert_kkt(p, res)

    def test_library_programs_have_only_slack_starts(self, monkeypatch):
        # every program that compare, loss and risk build: deficiency on
        # random and divisible pairs, psi, minimax, admissibility and the
        # complete class
        rng = np.random.default_rng(30)
        theta, z, w = labeled("t", 4), labeled("z", 4), labeled("w", 3)
        seen = record_solves(monkeypatch)
        for _ in range(5):
            e = random_markov(rng, theta, z)
            directed_deficiency(e, random_markov(rng, theta, w), random_distribution(rng, theta))
            f = rng.dirichlet(np.ones(3), size=4).T
            directed_deficiency(e, Transition(theta, w, f @ e.matrix), uniform(theta))
            L = random_loss(rng, theta, 3, low=0.0)
            v = rng.uniform(-1.0, 1.0, 4)
            psi(L, v - v.mean())
            minimax_risk(L, e)
            is_admissible(L, e, rule_from_assignment(z, L.actions, rng.integers(3, size=4)))
            complete_class_check(L, e)
        # each has only <= rows and either c >= 0, so the clipped costs
        # are its costs, or b >= 0, so the dual simplex takes no pivot
        assert len(seen) > 30
        for p, res in seen:
            assert p.b_eq.size == 0 and res.is_optimal
            if (p.c < 0.0).any():
                assert (p.b_ub >= 0.0).all() and res.pivots[0] == 0


class TestUncheckedPrograms:
    """The library's own ``<=`` programs skip the copy; public construction keeps it."""

    @staticmethod
    def arrays(p):
        return [np.array(a) for a in (p.c, p.a_ub, p.b_ub, p.a_eq, p.b_eq)]

    def test_same_result_as_public(self):
        for seed in range(1000):
            c, a_ub, b_ub = self.arrays(random_program(seed))[:3]
            public = lp.solve(LinearProgram(c, a_ub=a_ub, b_ub=b_ub))
            unchecked = LinearProgram._unchecked(c, a_ub, b_ub)
            assert pickle.dumps(lp.solve(unchecked)) == pickle.dumps(public)

    def test_public_construction_copies(self):
        c, a_ub, b_ub, a_eq, b_eq = self.arrays(random_program(1))
        p = LinearProgram(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        before = pickle.dumps(lp.solve(p))
        for a in (c, a_ub, b_ub, a_eq, b_eq):
            a += 1.0
        assert np.array_equal(p.c, c - 1.0) and np.array_equal(p.b_ub, b_ub - 1.0)
        assert pickle.dumps(lp.solve(p)) == before

    @pytest.mark.parametrize("field", ["c", "a_ub", "b_ub", "a_eq", "b_eq"])
    def test_public_construction_rejects_nan(self, field):
        arrays = dict(zip(("c", "a_ub", "b_ub", "a_eq", "b_eq"), self.arrays(random_program(1))))
        arrays[field].flat[0] = np.nan
        with pytest.raises(ArgumentError, match="NaN"):
            LinearProgram(**arrays)


def _price_by_rows(tab, basis, cost):
    """Reference for ``lp._price``: one basic row at a time, in row order."""
    obj = tab[-1]
    obj[:] = cost
    for i, j in enumerate(basis):
        cb = obj[j]
        if cb != 0.0:
            obj -= cb * tab[i]


class TestPrice:
    def test_equals_the_row_loop(self):
        # on the starting basis and on the basis the dual simplex ends at,
        # with costs that are zero on some basic columns
        rng = np.random.default_rng(27)
        for seed in range(300):
            p = random_program(seed)
            tab, basis = lp._build(p)
            if seed % 2:
                lp._dual_simplex(tab, basis)
            cost = rng.uniform(-2.0, 2.0, tab.shape[1]) * rng.integers(0, 2, tab.shape[1])
            ref = tab.copy()
            _price_by_rows(ref, basis, cost)
            lp._price(tab, basis, cost)
            assert tab.tobytes() == ref.tobytes()


def _phase_totals(seen) -> tuple[int, int]:
    return tuple(sum(res.pivots[k] for _, res in seen) for k in (0, 1))


class TestPinnedPivotPaths:
    """Pivots per phase on seeded program sets, pinned as counted before
    the tableau build was split from phase one.  A change to the pivot
    loop that alters any pivot path changes these totals."""

    @pytest.mark.parametrize("size, kind, pinned", [
        (4, "random", (0, 269)),
        (4, "divisible", (0, 343)),
        (6, "random", (0, 657)),
        (6, "divisible", (0, 990)),
    ])
    def test_deficiency(self, monkeypatch, size, kind, pinned):
        rng = np.random.default_rng(size)
        theta, z, w = labeled("t", size), labeled("z", size), labeled("w", size)
        seen = record_solves(monkeypatch)
        for _ in range(20):
            e = random_markov(rng, theta, z)
            if kind == "random":
                directed_deficiency(e, random_markov(rng, theta, w), random_distribution(rng, theta))
            else:  # F∘e under the uniform prior, as divides solves it
                f = rng.dirichlet(np.ones(size), size=size).T
                directed_deficiency(e, Transition(theta, w, f @ e.matrix), uniform(theta))
        assert len(seen) == 20 and _phase_totals(seen) == pinned

    def test_psi_on_the_log_loss_grid(self, monkeypatch):
        grid = log_loss_grid(labeled("t", 3), 32)
        assert len(grid.actions) == 465
        rng = np.random.default_rng(32)
        seen = record_solves(monkeypatch)
        for k in range(12):
            if k % 2:
                v = rng.uniform(-1.0, 1.0, 3)
            else:  # an achievable column
                v = grid.values[:, rng.integers(465)]
            psi(grid, v - v.mean())
        assert len(seen) == 12 and _phase_totals(seen) == (0, 105)

    def test_complete_class_programs(self, monkeypatch):
        # the 243-rule instance of test_risk: one domination program per
        # rule the screen leaves, whose duals also give the priors; 30 of
        # them take the dual simplex
        rng = np.random.default_rng(42)
        L = random_loss(rng, labeled("t", 3), 3, low=0.0)
        e = random_markov(rng, L.unknowns, labeled("z", 5))
        seen = record_solves(monkeypatch)
        complete_class_check(L, e)
        assert len(seen) == 31 and _phase_totals(seen) == (57, 0)

    def test_admissibility_programs(self, monkeypatch):
        # the sizes of the benchmark's decision workload, |T|=6, |Z|=24,
        # |A|=12: random deterministic rules, which the uniform Bayes rule
        # mostly beats everywhere, and Bayes rules for random priors
        rng = np.random.default_rng(612)
        unknowns, obs = labeled("t", 6), labeled("z", 24)
        seen = record_solves(monkeypatch)
        for k in range(8):
            L = random_loss(rng, unknowns, 12, low=0.0)
            e = random_markov(rng, unknowns, obs)
            if k % 2:
                rule = rule_from_assignment(obs, L.actions, rng.integers(12, size=24))
            else:
                rule = min_bayes_risk(L, e, random_distribution(rng, unknowns)).rule
            assert is_admissible(L, e, rule) == (k % 2 == 0)
        assert len(seen) == 8 and _phase_totals(seen) == (69, 0)
