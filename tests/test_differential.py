"""Differential tests: ``lp.solve`` against scipy's HiGHS.

Hypothesis draws seeds and sizes, or a fixed range of seeds is looped
over; numpy builds each program from the seed.  Statuses must agree,
and optimal values must agree to 1e-7.
scipy and hypothesis are test-only dependencies, so the module skips
without them.
"""

import numpy as np
import pytest

pytest.importorskip("scipy")
pytest.importorskip("hypothesis")

from helpers import (
    coefficients,
    highs,
    highs_directed_deficiency,
    highs_support_gap,
    labeled,
    random_distribution,
    random_loss,
    random_dual_program,
    random_markov,
    random_program,
)
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from expcompare import (
    LinearProgram,
    Transition,
    directed_deficiency,
    log_loss_grid,
    lp,
    minimax_risk,
)
from expcompare.loss import support_gap
from expcompare.risk import _dominating

#: linprog status codes for the three outcomes of ``lp.solve``.
HIGHS_STATUS = {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}
VALUE_TOL = 1e-7
#: Seeds of the looped properties: explicit numpy seeds keep their
#: examples fixed when the test's source is edited, where a derandomized
#: Hypothesis test draws new ones.
LOOPED_SEEDS = range(150)

seeds = st.integers(0, 2**32 - 1)
differential = settings(max_examples=150, deadline=None, derandomize=True)


@differential
@given(seeds)
def test_random_programs(seed):
    p = random_program(seed)
    ours, ref = lp.solve(p), highs(p)
    assert ref.status in HIGHS_STATUS, ref.message
    assert ours.status == HIGHS_STATUS[ref.status]
    if ours.is_optimal:
        assert ours.value == pytest.approx(ref.fun, abs=VALUE_TOL)
        dual = float(p.b_eq @ ours.dual_eq + p.b_ub @ ours.dual_ub)
        assert dual == pytest.approx(ref.fun, abs=VALUE_TOL)


def test_dual_start_programs():
    """Only ``<=`` rows, ``c >= 0`` and some ``b_ub < 0``: the dual simplex
    from a slack basis that is dual feasible for the program's own costs.

    Feasible, infeasible and (from integer data) degenerate programs.
    """
    for seed in LOOPED_SEEDS:
        p = random_dual_program(seed)
        assert p.b_eq.size == 0 and (p.c >= 0.0).all() and (p.b_ub < 0.0).any()
        ours, ref = lp.solve(p), highs(p)
        assert ref.status in HIGHS_STATUS, ref.message
        assert ours.status == HIGHS_STATUS[ref.status], seed
        if ours.is_optimal:
            assert ours.value == pytest.approx(ref.fun, abs=VALUE_TOL), seed
            dual = float(p.b_ub @ ours.dual_ub)
            assert dual == pytest.approx(ours.value, abs=VALUE_TOL), seed


@pytest.mark.parametrize("gap", [0.5 * lp.PIVOT_TOL, 0.5 * lp.FEAS_TOL, 10.0 * lp.FEAS_TOL])
def test_dual_start_feasibility_tolerance(gap):
    # x0 + x1 <= 1 and x0 + 2 x1 <= -gap: infeasible by gap, which HiGHS's
    # primal feasibility tolerance (1e-7, as FEAS_TOL) forgives below it
    p = LinearProgram([1.0, 1.0], a_ub=[[1.0, 1.0], [1.0, 2.0]], b_ub=[1.0, -gap])
    assert lp.solve(p).status == HIGHS_STATUS[highs(p).status]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seeds, st.integers(2, 12), st.integers(2, 12), st.integers(2, 12), st.booleans())
@example(12, 12, 12, 12, False)
@example(12, 12, 12, 12, True)
def test_deficiency_programs(seed, n_t, n_z, n_w, divisible):
    rng = np.random.default_rng(seed)
    theta = labeled("t", n_t)
    e = random_markov(rng, theta, labeled("z", n_z))
    if divisible:  # zero deficiency: the most degenerate case
        f = random_markov(rng, e.target, labeled("w", n_w))
        e2 = Transition(theta, f.target, f.matrix @ e.matrix)
    else:
        e2 = random_markov(rng, theta, labeled("w", n_w))
    pi = random_distribution(rng, theta)
    res = directed_deficiency(e, e2, pi)
    oracle = highs_directed_deficiency(e.matrix, e2.matrix, pi.weights)
    assert res.value == pytest.approx(oracle, abs=VALUE_TOL)
    # the witness, with its row r[k] rebuilt from the column sums, is
    # column-stochastic and attains the value
    w = res.witness.matrix
    assert w.min() >= 0.0
    np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
    gap = 0.5 * pi.weights @ np.abs(w @ e.matrix - e2.matrix).sum(axis=0)
    assert gap == pytest.approx(res.value, abs=VALUE_TOL)


@differential
@given(seeds, st.integers(2, 8), st.integers(2, 30), st.integers(2, 6))
def test_minimax_programs(seed, n_t, n_z, n_a):
    rng = np.random.default_rng(seed)
    theta = labeled("t", n_t)
    L = random_loss(rng, theta, n_a, low=0.0)
    e = random_markov(rng, theta, labeled("z", n_z))
    res = minimax_risk(L, e)
    # epigraph LP over d(a|z) and the level t, written independently
    coef = np.einsum("zt,ta->tza", e.matrix, L.values).reshape(n_t, n_z * n_a)
    c = np.zeros(n_z * n_a + 1)
    c[-1] = 1.0
    ref = linprog(
        c,
        A_ub=np.hstack([coef, -np.ones((n_t, 1))]),
        b_ub=np.zeros(n_t),
        A_eq=np.hstack([np.kron(np.eye(n_z), np.ones(n_a)), np.zeros((n_z, 1))]),
        b_eq=np.ones(n_z),
        bounds=[(0, None)] * (n_z * n_a) + [(None, None)],
        method="highs",
    )
    assert ref.status == 0, ref.message
    assert res.value == pytest.approx(ref.fun, abs=VALUE_TOL)


@differential
@given(seeds, st.integers(2, 4), st.integers(4, 16), st.booleans())
def test_support_gaps_on_grids(seed, n_t, resolution, zero_sum):
    rng = np.random.default_rng(seed)
    grid = log_loss_grid(labeled("t", n_t), resolution)
    v = rng.uniform(-2.0, 2.0, n_t)
    if zero_sum:
        v -= v.mean()
    gap, P = support_gap(grid, v)
    assert gap == pytest.approx(highs_support_gap(grid, v), abs=VALUE_TOL)
    assert float(P @ v - (P @ grid.values).min()) == pytest.approx(gap, abs=1e-12)


def test_domination_programs():
    """The degenerate LPs of admissibility and the complete class.

    HiGHS solves the textbook form: over rule entries ``d(a|z)`` and
    slacks ``s_t``, maximize ``sum(s)`` subject to
    ``risk_t(d) + s_t <= profile_t`` of a deterministic rule and
    ``sum_a d(a|z) == 1``.  The rule itself meets every risk row with
    equality at ``s = 0``, so the programs are degenerate.  The library
    minimizes the total risk with the slacks left to the solver
    (``risk._dominating``), from the uniform Bayes rule as reference;
    its total slack must be the same optimum, and that of the
    unsubstituted program, whose equality rows ``lp.solve`` writes as
    pairs of ``<=`` rows and whose slack basis is infeasible, so its dual
    simplex pivots from the clipped costs.  When that slack is at most
    ``FEAS_TOL`` (the rule is admissible), the weights ``1 - dual_ub``
    are at least 1 and make the rule Bayes: its excess over the best
    action, summed over observations, is at most the slack (the complete
    class theorem, constructively).  Sizes are drawn from each seed.
    """
    for seed in LOOPED_SEEDS:
        _check_domination_program(seed)


def _check_domination_program(seed):
    rng = np.random.default_rng(seed)
    n_t, n_z, n_a = (int(k) for k in rng.integers([2, 2, 2], [6, 7, 5]))
    integer = bool(rng.integers(2))
    L = coefficients(rng, (n_t, n_a), integer)
    e = random_markov(rng, labeled("t", n_t), labeled("z", n_z)).matrix
    g = rng.integers(n_a, size=n_z)
    profile = np.einsum("zt,tz->t", e, L[:, g])
    K = np.einsum("zt,ta->tza", e, L)
    sums = np.kron(np.eye(n_z), np.ones(n_a))
    p = LinearProgram(
        np.concatenate([np.zeros(n_z * n_a), -np.ones(n_t)]),
        a_ub=np.hstack([K.reshape(n_t, n_z * n_a), np.eye(n_t)]),
        b_ub=profile,
        a_eq=np.hstack([sums, np.zeros((n_z, n_t))]),
        b_eq=np.ones(n_z),
    )
    ours, ref = lp.solve(p), highs(p)
    assert ref.status == 0, ref.message
    assert ours.is_optimal
    assert ours.value == pytest.approx(ref.fun, abs=VALUE_TOL)
    slack, weights = _dominating(K)(profile)
    assert slack == pytest.approx(-ref.fun, abs=VALUE_TOL)
    risks = K.reshape(n_t, n_z * n_a)
    unsub = lp.solve(LinearProgram(risks.sum(axis=0), a_ub=risks, b_ub=profile,
                                   a_eq=sums, b_eq=np.ones(n_z)))
    assert slack == pytest.approx(profile.sum() - unsub.value, abs=VALUE_TOL)
    if slack <= lp.FEAS_TOL:
        assert weights.min() >= 1.0 - lp.PIVOT_TOL
        scores = (e * weights) @ L  # scores[z, a]
        excess = scores[np.arange(n_z), g] - scores.min(axis=1)
        assert excess.sum() <= max(slack, 0.0) + 1e-9
    dual = float(p.b_eq @ ours.dual_eq + p.b_ub @ ours.dual_ub)
    assert dual == pytest.approx(ref.fun, abs=VALUE_TOL)
