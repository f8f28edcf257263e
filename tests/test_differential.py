"""Differential tests: ``lp.solve`` against scipy's HiGHS.

Hypothesis draws seeds and sizes; numpy builds each program from the
seed.  Statuses must agree, and optimal values must agree to 1e-7.
scipy and hypothesis are test-only dependencies, so the module skips
without them.
"""

import numpy as np
import pytest

pytest.importorskip("scipy")
pytest.importorskip("hypothesis")

from helpers import highs_directed_deficiency, highs_support_gap
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
from expcompare._samplers import labeled, random_distribution, random_loss, random_markov

#: linprog status codes for the three outcomes of ``lp.solve``.
HIGHS_STATUS = {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}
VALUE_TOL = 1e-7

seeds = st.integers(0, 2**32 - 1)
differential = settings(max_examples=150, deadline=None, derandomize=True)


def highs(p: LinearProgram):
    bounds = [(None, None) if f else (0, None) for f in p.free]
    kw = {}
    if p.a_ub.shape[0]:
        kw.update(A_ub=p.a_ub, b_ub=p.b_ub)
    if p.a_eq.shape[0]:
        kw.update(A_eq=p.a_eq, b_eq=p.b_eq)
    return linprog(p.c, bounds=bounds, method="highs", **kw)


def _coefficients(rng, shape, integer):
    # small integers make ties and degenerate vertices common
    if integer:
        return rng.integers(-2, 3, shape).astype(float)
    return rng.uniform(-1.0, 1.0, shape)


def random_program(seed: int) -> LinearProgram:
    """Equality and ``<=`` rows, some free variables, some boxed.

    Half of the right-hand sides are taken at a point ``x0`` (plus slack
    for ``<=`` rows), so feasible, unbounded and infeasible programs all
    occur.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    n_eq, n_ub = int(rng.integers(0, 4)), int(rng.integers(0, 5))
    integer = bool(rng.integers(2))
    free = rng.random(n) < 0.3
    c = _coefficients(rng, n, integer)
    a_eq = _coefficients(rng, (n_eq, n), integer)
    a_ub = _coefficients(rng, (n_ub, n), integer)
    x0 = rng.integers(0, 3, n).astype(float)
    x0[free] -= 1.0
    if rng.integers(2):
        b_eq = a_eq @ x0
        b_ub = a_ub @ x0 + rng.integers(0, 2, n_ub)
    else:
        b_eq = _coefficients(rng, n_eq, integer)
        b_ub = _coefficients(rng, n_ub, integer)
    if rng.integers(2):  # box every variable: the program cannot be unbounded
        box = np.vstack([np.eye(n), -np.eye(n)])
        a_ub = np.vstack([a_ub, box])
        b_ub = np.concatenate([b_ub, np.full(2 * n, 3.0)])
    return LinearProgram(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, free=free)


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


@differential
@given(seeds, st.integers(2, 5), st.integers(2, 6), st.integers(2, 4), st.booleans())
def test_domination_programs(seed, n_t, n_z, n_a, integer):
    """The degenerate LPs of admissibility and the complete class.

    Over rule entries ``d(a|z)`` and slacks ``s_t``, maximize ``sum(s)``
    subject to ``risk_t(d) + s_t <= profile_t`` of a deterministic rule
    and ``sum_a d(a|z) == 1``.  The rule itself meets every risk row with
    equality at ``s = 0``, so the programs are degenerate.
    """
    rng = np.random.default_rng(seed)
    L = _coefficients(rng, (n_t, n_a), integer)
    e = random_markov(rng, labeled("t", n_t), labeled("z", n_z)).matrix
    g = rng.integers(n_a, size=n_z)
    profile = np.einsum("zt,tz->t", e, L[:, g])
    coef = np.einsum("zt,ta->tza", e, L).reshape(n_t, n_z * n_a)
    p = LinearProgram(
        np.concatenate([np.zeros(n_z * n_a), -np.ones(n_t)]),
        a_ub=np.hstack([coef, np.eye(n_t)]),
        b_ub=profile,
        a_eq=np.hstack([np.kron(np.eye(n_z), np.ones(n_a)), np.zeros((n_z, n_t))]),
        b_eq=np.ones(n_z),
    )
    ours, ref = lp.solve(p), highs(p)
    assert ref.status == 0, ref.message
    assert ours.is_optimal
    assert ours.value == pytest.approx(ref.fun, abs=VALUE_TOL)
    dual = float(p.b_eq @ ours.dual_eq + p.b_ub @ ours.dual_ub)
    assert dual == pytest.approx(ref.fun, abs=VALUE_TOL)
