"""Shared generators and oracles for the test suite."""

from itertools import product as iter_product

import numpy as np

from expcompare import (
    LabeledSet,
    LinearProgram,
    LossMatrix,
    Transition,
    bayes_risk,
    is_achievable,
    lp,
)
from expcompare._samplers import labeled, random_distribution, random_loss, random_markov


def deterministic_rules(obs: LabeledSet, actions: LabeledSet):
    """All deterministic rules from observations to actions."""
    for g in iter_product(range(len(actions)), repeat=len(obs)):
        m = np.zeros((len(actions), len(obs)))
        for z, a in enumerate(g):
            m[a, z] = 1.0
        yield g, Transition(obs, actions, m)


def brute_force_min_bayes_risk(L, e, pi):
    """Oracle: enumerate every deterministic rule and take the best."""
    return min(
        bayes_risk(L, e, rule, pi) for _, rule in deterministic_rules(e.target, L.actions)
    )


def rule_from_assignment(obs: LabeledSet, actions: LabeledSet, assignment) -> Transition:
    m = np.zeros((len(actions), len(obs)))
    for z, a in enumerate(assignment):
        m[a, z] = 1.0
    return Transition(obs, actions, m)


def primal_support_program(L: LossMatrix, v) -> LinearProgram:
    """``min over the simplex of <P, v> - entropy(L, P)`` as the primal LP,
    one row ``t <= <P, column_a>`` per action.

    Variables are ``P`` and a free epigraph level ``t``.  The library
    solves the dual, whose tableau has one row per unknown instead.
    """
    n, n_a = L.values.shape
    free = np.zeros(n + 1, dtype=bool)
    free[n] = True
    return LinearProgram(
        np.concatenate([np.asarray(v, dtype=float), [-1.0]]),
        a_ub=np.hstack([-L.values.T, np.ones((n_a, 1))]),
        b_ub=np.zeros(n_a),
        a_eq=np.concatenate([np.ones(n), [0.0]])[None, :],
        b_eq=[1.0],
        free=free,
    )


def primal_support_gap(L: LossMatrix, v) -> float:
    """Oracle: the support gap from the primal program, by ``lp.solve``."""
    res = lp.solve(primal_support_program(L, v))
    assert res.is_optimal, res.status
    return res.value


def highs_support_gap(L: LossMatrix, v) -> float:
    """Oracle: the support gap from the primal program, by scipy's HiGHS."""
    from scipy.optimize import linprog

    p = primal_support_program(L, v)
    bounds = [(None, None) if f else (0, None) for f in p.free]
    res = linprog(p.c, A_ub=p.a_ub, b_ub=p.b_ub, A_eq=p.a_eq, b_eq=p.b_eq,
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.fun


def _loss_with_achievable_actions(rng, n_unknowns, n_actions):
    """Random loss with at least one Bayes-achievable action, and those actions."""
    while True:
        L = random_loss(rng, labeled("t", n_unknowns), n_actions)
        achievable = [
            i for i, a in enumerate(L.actions.labels) if is_achievable(L, a)
        ]
        if achievable:
            return L, achievable


def random_canonical_setup(rng, n_unknowns=2, n_obs=2, n_actions=3):
    """Random loss/experiment/deterministic-rule triple whose rule only
    selects Bayes-achievable actions (so canonical coordinates exist)."""
    L, achievable = _loss_with_achievable_actions(rng, n_unknowns, n_actions)
    e = random_markov(rng, L.unknowns, labeled("z", n_obs))
    assignment = [achievable[int(rng.integers(len(achievable)))] for _ in range(n_obs)]
    d = rule_from_assignment(e.target, L.actions, assignment)
    return L, e, d


def random_randomized_setup(rng, n_unknowns=2, n_obs=2, n_actions=3):
    """Random loss/experiment/randomized-rule triple: each observation
    mixes a random nonempty subset of the Bayes-achievable actions."""
    L, achievable = _loss_with_achievable_actions(rng, n_unknowns, n_actions)
    e = random_markov(rng, L.unknowns, labeled("z", n_obs))
    m = np.zeros((n_actions, n_obs))
    for z in range(n_obs):
        used = rng.choice(achievable, size=int(rng.integers(1, len(achievable) + 1)),
                          replace=False)
        m[used, z] = rng.dirichlet(np.ones(len(used)))
    return L, e, Transition(e.target, L.actions, m)


def random_experiment(rng, n_unknowns, n_obs):
    return random_markov(rng, labeled("t", n_unknowns), labeled("z", n_obs))


def grid_oracle_2x2(e, e2, pi, step=0.01):
    """Exhaustive search over 2x2 stochastic post-processings.

    Parameterizes F by its top row (f1, f2); since all columns are
    stochastic the prior-averaged variation reduces to a single absolute
    difference per unknown.
    """
    grid = np.arange(0.0, 1.0 + 1e-12, step)
    f1, f2 = np.meshgrid(grid, grid, indexing="ij")
    total = np.zeros_like(f1)
    for j in range(2):
        a_j = f1 * e.matrix[0, j] + f2 * e.matrix[1, j]
        total += pi.weights[j] * np.abs(a_j - e2.matrix[0, j])
    return float(total.min())


def highs_directed_deficiency(e, e2, pw):
    """Oracle: the directed deficiency by scipy's HiGHS on the textbook LP.

    Variables are per-entry bounds ``M`` and the post-processing ``F``
    (row-major over ``e2``'s observations); each entry contributes the
    two rows ``+-pi_j ([F E]_ij - E2_ij) <= M_ij``.  Needs scipy.
    """
    from scipy.optimize import linprog

    n_o2, n_t = e2.shape
    n_o = e.shape[0]
    n_m, n_f = n_o2 * n_t, n_o2 * n_o
    gap = np.hstack([np.zeros((n_m, n_m)), np.kron(np.eye(n_o2), (e * pw).T)])
    target = (e2 * pw).ravel()
    a_ub = np.vstack([gap, -gap])
    a_ub[:, :n_m] = -np.vstack([np.eye(n_m), np.eye(n_m)])
    a_eq = np.hstack([np.zeros((n_o, n_m)), np.tile(np.eye(n_o), n_o2)])
    c = np.concatenate([np.ones(n_m), np.zeros(n_f)])
    res = linprog(c, A_ub=a_ub, b_ub=np.concatenate([target, -target]),
                  A_eq=a_eq, b_eq=np.ones(n_o), bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return 0.5 * res.fun


def coefficients(rng, shape, integer):
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
    c = coefficients(rng, n, integer)
    a_eq = coefficients(rng, (n_eq, n), integer)
    a_ub = coefficients(rng, (n_ub, n), integer)
    x0 = rng.integers(0, 3, n).astype(float)
    x0[free] -= 1.0
    if rng.integers(2):
        b_eq = a_eq @ x0
        b_ub = a_ub @ x0 + rng.integers(0, 2, n_ub)
    else:
        b_eq = coefficients(rng, n_eq, integer)
        b_ub = coefficients(rng, n_ub, integer)
    if rng.integers(2):  # box every variable: the program cannot be unbounded
        box = np.vstack([np.eye(n), -np.eye(n)])
        a_ub = np.vstack([a_ub, box])
        b_ub = np.concatenate([b_ub, np.full(2 * n, 3.0)])
    return LinearProgram(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, free=free)
