import numpy as np
import pytest

from expcompare import ArgumentError, LinearProgram, SolverError
from expcompare import lp


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

    def test_free_variable(self):
        # min x with x free and x >= -3 written as -x <= 3
        res = solve([1.0], a_ub=[[-1.0]], b_ub=[3.0], free=[True])
        assert res.status == lp.OPTIMAL
        assert res.value == pytest.approx(-3.0, abs=1e-12)

    def test_negative_rhs_equality(self):
        res = solve([0.0, 1.0], a_eq=[[-1.0, 0.0]], b_eq=[-2.0])
        assert res.status == lp.OPTIMAL
        np.testing.assert_allclose(res.primal, [2.0, 0.0], atol=1e-12)

    def test_redundant_equality_rows(self):
        # a duplicated row leaves a zero-level artificial in the basis
        p = LinearProgram(
            [1.0, 2.0],
            a_eq=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
            b_eq=[1.0, 1.0, 2.0],
        )
        res = lp.solve(p)
        assert res.status == lp.OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-12)
        # rows whose artificial stays basic get a zero dual
        _assert_kkt(p, res)
        np.testing.assert_allclose(res.dual_eq, [1.0, 0.0, 0.0], atol=1e-12)

    def test_inputs_are_not_frozen(self):
        c = np.array([1.0, -1.0])
        lp.solve(LinearProgram(c, a_ub=[[1.0, 1.0]], b_ub=[1.0]))
        c[0] = 7.0  # caller's array must stay writable


class TestFeasible:
    def test_box(self):
        assert lp.feasible(LinearProgram([0.0], a_ub=[[1.0]], b_ub=[1.0]))

    def test_empty(self):
        assert not lp.feasible(LinearProgram([0.0], a_ub=[[1.0]], b_ub=[-1.0]))

    def test_simplex_nonempty(self):
        assert lp.feasible(LinearProgram([0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ArgumentError):
            LinearProgram([np.nan])

    def test_inf_rejected(self):
        with pytest.raises(ArgumentError):
            LinearProgram([1.0], a_ub=[[np.inf]], b_ub=[1.0])


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
        monkeypatch.setattr(lp, "_max_iter", lambda m, n: 3)
        with pytest.raises(SolverError) as info:
            lp.solve(BEALE)
        assert str(info.value) == (
            "phase two exceeded the pivot iteration limit (3 pivots on a 4x8 tableau)"
        )

    def test_pivots_per_phase(self):
        # slack basis is feasible: no phase-one work, one entering column
        assert solve([-1.0], a_ub=[[2.0]], b_ub=[1.0]).pivots == (0, 1)
        # x itself is a unit column and starts basic at its optimum
        assert solve([-1.0], a_ub=[[1.0]], b_ub=[1.0]).pivots == (0, 0)
        # no unit column: phase one enters x1 (reduced cost -3), then
        # phase two trades it for the cheaper x0
        res = solve([1.0, 2.0], a_eq=[[2.0, 3.0]], b_eq=[1.0])
        assert res.pivots == (1, 1)
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


class TestCrashBasis:
    def test_unit_columns_replace_artificials(self):
        p = LinearProgram([1.0, 1.0, 1.0], a_eq=[[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]],
                          b_eq=[1.0, 2.0])
        sf = lp._StandardForm(p)
        assert sf.n_total == sf.n_struct  # no artificial column
        assert list(sf.basis0) == [0, 1]
        assert lp.solve(p).pivots[0] == 0

    def test_lowest_index_wins_and_signs_count(self):
        # row 0 has b < 0: after negation column 1 (entry -1) is its unit
        # column; columns 2 and 3 both fit row 1 and the lower index wins
        p = LinearProgram([0.0, 1.0, 1.0, 1.0],
                          a_eq=[[1.0, -1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 1.0]],
                          b_eq=[-1.0, 2.0])
        sf = lp._StandardForm(p)
        assert list(sf.basis0) == [1, 2]
        assert sf.n_total == sf.n_struct
        res = lp.solve(p)
        assert res.value == pytest.approx(3.0, abs=1e-12)

    def test_rows_without_unit_column_get_artificials(self):
        p = LinearProgram([1.0, 1.0, 1.0], a_eq=[[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                          b_eq=[1.0, 0.5], a_ub=[[2.0, 1.0, 0.0]], b_ub=[-1.0])
        sf = lp._StandardForm(p)
        assert sf.n_total - sf.n_struct == 2  # row 0 and the negated <= row
        assert sf.basis0[1] == 2
        assert lp.solve(p).status == lp.INFEASIBLE
