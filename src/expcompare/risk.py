"""Risk functionals for experiment/rule pairs.

An experiment ``e`` maps unknowns to observations, a decision rule ``d``
maps observations to actions; the risk of the pair at unknown ``theta``
is the expected loss of the composed strategy ``d after e``.  On top of
the pointwise profile this module provides Bayesian and worst-case
aggregates, the posterior reversal of an experiment, exact optimal rules
(Bayes from the joint scores, one observation at a time, minimax via an
LP with the least favorable prior read off the duals), a bias/variance
split of the pointwise risk of any rule, deterministic or randomized, in
canonical coordinates, and admissibility checks with supporting-prior
extraction for the deterministic rules of a finite instance, from the
per-observation Bayes conditions (Bayes risk separates over
observations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp
from .core import EPS_TOL, Distribution, LabeledSet, Transition, deterministic
from .errors import ArgumentError, ShapeError, SolverError
from .loss import LossMatrix, _epigraph, psi, zero_sum_part

#: Observations with marginal mass at most this are outside the support of
#: the reversal and take action index 0 in Bayes rules.
SUPPORT_CUTOFF = 1e-12

#: Deterministic-rule enumeration cap for the complete-class report.
ENUMERATION_CAP = 4096


@dataclass(frozen=True)
class RiskProfile:
    """Pointwise risk, one value per unknown."""

    unknowns: LabeledSet
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.shape != (len(self.unknowns),):
            raise ShapeError("risk profile length does not match unknowns")
        if not np.all(np.isfinite(vals)):
            raise ArgumentError("risk profile contains non-finite entries")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __getitem__(self, theta: str) -> float:
        return float(self.values[self.unknowns.index(theta)])


@dataclass(frozen=True)
class BayesReversal:
    """Posterior transition and observation marginal of an experiment.

    ``posterior`` maps observations back to unknowns.  Columns for
    observations outside ``support`` (marginal mass below the cutoff)
    are filled with the prior itself; they never receive weight in any
    Bayes-risk sum.
    """

    marginal: Distribution
    posterior: Transition
    support: tuple[str, ...]


class MinBayesResult(NamedTuple):
    value: float
    rule: Transition


class MinimaxResult(NamedTuple):
    value: float
    rule: Transition
    least_favorable_prior: Distribution


class BiasVariance(NamedTuple):
    bias: float
    variance: float


def _check_pair(L: LossMatrix, e: Transition, d: Transition) -> None:
    if e.source != L.unknowns:
        raise ShapeError("experiment source does not match loss unknowns")
    if d.source != e.target:
        raise ShapeError("rule source does not match experiment target")
    if d.target != L.actions:
        raise ShapeError("rule target does not match loss actions")


def risk_profile(L: LossMatrix, e: Transition, d: Transition) -> RiskProfile:
    """Expected loss of the strategy ``d after e`` at every unknown."""
    _check_pair(L, e, d)
    K, _ = _rule_space(L, e)
    return RiskProfile(L.unknowns, np.einsum("tza,az->t", K, d.matrix))


def bayes_risk(L: LossMatrix, e: Transition, d: Transition, pi: Distribution) -> float:
    """Prior-weighted average of the risk profile."""
    if pi.space != L.unknowns:
        raise ShapeError("prior space does not match loss unknowns")
    return float(pi.weights @ risk_profile(L, e, d).values)


def max_risk(L: LossMatrix, e: Transition, d: Transition) -> float:
    """Worst-case entry of the risk profile."""
    return float(risk_profile(L, e, d).values.max())


def reverse(e: Transition, pi: Distribution) -> BayesReversal:
    """Posterior over unknowns given each observation, with the marginal.

    Observations with marginal mass at most :data:`SUPPORT_CUTOFF` are
    excluded from the support and never divided by, as in
    :func:`min_bayes_risk`.
    """
    if pi.space != e.source:
        raise ShapeError("prior space does not match experiment source")
    joint = e.matrix * pi.weights[None, :]  # joint[z, theta]
    marginal_w = joint.sum(axis=1)
    supported = marginal_w > SUPPORT_CUTOFF
    post = np.tile(pi.weights[:, None], (1, len(e.target)))
    np.divide(joint.T, marginal_w, out=post, where=supported)
    return BayesReversal(
        marginal=Distribution(e.target, marginal_w),
        posterior=Transition(e.target, e.source, post),
        support=tuple(z for z, s in zip(e.target.labels, supported) if s),
    )


def sufficiency_reduction(e: Transition) -> Transition:
    """Deterministic merge of observations that carry the same evidence.

    Observations whose likelihood columns are proportional within
    :data:`~expcompare.core.EPS_TOL` (equivalently:
    equal posteriors under every full-support prior) are mapped to one
    merged label; all-zero columns are merged together since they never
    occur.  Composing the reduction after ``e`` yields an experiment
    mutually divisible with ``e``, so no risk changes for any loss or
    prior.  This is the reversal viewed as a statistic rather than as a
    stochastic transition: sampling an unknown from the posterior does
    lose information, merging equal posteriors does not.
    """
    classes: list[list[int]] = []
    reps: list[np.ndarray] = []
    for z in range(len(e.target)):
        lik = e.matrix[z, :]  # likelihood of observation z across unknowns
        mass = lik.sum()
        key = lik / mass if mass > 0.0 else lik
        for k, rep in enumerate(reps):
            if np.abs(key - rep).max() <= EPS_TOL:
                classes[k].append(z)
                break
        else:
            classes.append([z])
            reps.append(key)
    merged = LabeledSet(
        tuple("|".join(e.target.labels[z] for z in members) for members in classes)
    )
    m = np.zeros((len(classes), len(e.target)))
    for k, members in enumerate(classes):
        for z in members:
            m[k, z] = 1.0
    return Transition(e.target, merged, m)


def min_bayes_risk(L: LossMatrix, e: Transition, pi: Distribution) -> MinBayesResult:
    """Smallest Bayes risk over all rules, with an optimal deterministic rule.

    Bayes risk separates over observations, and the posterior at ``z`` is
    the joint row ``pi * e[z, :]`` up to a positive factor, so each
    observation with marginal mass above :data:`SUPPORT_CUTOFF` takes the
    lowest-index action minimizing its joint score
    ``sum_t pi_t e[z, t] L[t, a]``; the other observations take action
    index 0.
    """
    if e.source != L.unknowns:
        raise ShapeError("experiment source does not match loss unknowns")
    if pi.space != L.unknowns:
        raise ShapeError("prior space does not match loss unknowns")
    joint = e.matrix * pi.weights  # joint[z, t]
    scores = joint @ L.values  # scores[z, a]
    supported = joint.sum(axis=1) > SUPPORT_CUTOFF
    g = np.where(supported, scores.argmin(axis=1), 0)
    value = scores[supported, g[supported]].sum()
    return MinBayesResult(float(value), deterministic(e.target, L.actions, g))


def _bayes_values(joint: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Smallest Bayes risks of ``k`` stacked losses, as :func:`min_bayes_risk`.

    ``joint[z, t]`` is the joint ``pi_t e[z, t]`` and ``stack`` holds the
    loss values as ``(k, |T|, |A|)``.  One product scores every loss;
    each observation with marginal mass above :data:`SUPPORT_CUTOFF`
    keeps its lowest score per loss, and the supported scores are summed
    along a contiguous axis, in observation order, as the single-loss
    path sums them.
    """
    k, n_t, n_a = stack.shape
    scores = joint @ stack.transpose(1, 0, 2).reshape(n_t, k * n_a)
    best = scores.reshape(len(joint), k, n_a).min(axis=2)
    supported = joint.sum(axis=1) > SUPPORT_CUTOFF
    return np.ascontiguousarray(best[supported].T).sum(axis=1)


def _rule_space(L: LossMatrix, e: Transition) -> tuple[np.ndarray, np.ndarray]:
    """Risk coefficients of the rule entries ``d(a|z)`` and their sum rows.

    ``K[t, z, a] = e[z, t] * L[t, a]`` is the risk at unknown ``t`` per
    unit of ``d(a|z)``; reshaped to ``(|T|, |Z||A|)`` it is an LP block in
    column ``z * |A| + a``, where ``sums[z]`` adds up the entries of
    observation ``z``.
    """
    n_z, n_a = len(e.target), len(L.actions)
    K = np.einsum("zt,ta->tza", e.matrix, L.values)
    return K, np.kron(np.eye(n_z), np.ones(n_a))


def _rule_assignments(n_obs: int, n_actions: int, cap: int) -> np.ndarray:
    """Every deterministic rule as one action index per observation.

    Row ``r`` of the ``(n_actions**n_obs, n_obs)`` array is the ``r``-th
    rule in product order (the last observation varies fastest); more
    than ``cap`` rules is an error, raised before anything is allocated.
    """
    n_rules = n_actions**n_obs
    if n_rules > cap:
        raise ArgumentError(f"{n_rules} deterministic rules exceed the cap {cap}")
    place = n_actions ** np.arange(n_obs - 1, -1, -1)
    return np.arange(n_rules)[:, None] // place % n_actions


def minimax_risk(L: LossMatrix, e: Transition) -> MinimaxResult:
    """Rule minimizing the worst-case risk, by linear programming.

    The epigraph program of :func:`~expcompare.loss._epigraph` over the
    rule entries of :func:`_rule_space`: one row per unknown and one sum
    row per observation.  The least favorable prior is its weighting of
    the unknowns, normalized; its Bayes risk equals the minimax value up
    to solver tolerance.
    """
    if e.source != L.unknowns:
        raise ShapeError("experiment source does not match loss unknowns")
    K, sums = _rule_space(L, e)
    n_t, n_z, n_a = K.shape
    res = _epigraph(K.reshape(n_t, n_z * n_a), sums, np.zeros(n_t))
    rule = Transition(e.target, L.actions, res.primal[:-1].reshape(n_z, n_a).T)
    # the free level's column makes these sum to 1 up to pivot rounding
    prior_w = np.maximum(-res.dual_ub, 0.0)
    prior = Distribution(L.unknowns, prior_w / prior_w.sum())
    return MinimaxResult(float(res.value), rule, prior)


def bias_variance(L: LossMatrix, e: Transition, d: Transition, theta: str) -> BiasVariance:
    """Split the pointwise risk of any rule, deterministic or randomized, at ``theta``.

    The risk is linear in the rule: entry ``d(a|z) > 0`` weighs action
    ``a`` by ``w = e[z, theta] * d(a|z)``.  In zero-sum coordinates the
    weighted columns average to a single coordinate ``avg``; the bias is
    the canonical loss of that average and the variance is the Jensen gap
    of the (convex) height function, so ``bias + variance`` equals the
    risk at ``theta`` and the variance is nonnegative.  Every action the
    rule uses must be Bayes-achievable (else it has no canonical
    coordinate and the split is undefined).  The entries are summed in
    observation order; for a deterministic rule each weight is exactly
    ``e[z, theta]``.
    """
    _check_pair(L, e, d)
    ti = L.unknowns.index(theta)
    obs, acts = np.nonzero(d.matrix.T)
    weights = e.matrix[obs, ti] * d.matrix[acts, obs]
    acts = acts.tolist()
    heights: dict[int, float] = {}
    parts: dict[int, np.ndarray] = {}
    for a in set(acts):
        col = L.values[:, a]
        parts[a] = zero_sum_part(col)
        heights[a] = psi(L, parts[a])
        # the is_achievable test, on the height solved once
        if heights[a] < float(col.mean()) - lp.FEAS_TOL:
            raise ArgumentError(
                f"action '{L.actions.labels[a]}' is never Bayes; "
                "it has no canonical coordinate"
            )
    avg = np.zeros(len(L.unknowns))
    expected_height = 0.0
    for w, a in zip(weights.tolist(), acts):
        avg += w * parts[a]
        expected_height += w * heights[a]
    # canonical_loss(L, theta, -avg) == avg[ti] + psi(L, avg), one LP fewer
    height = psi(L, avg)
    bias = avg[ti] + height
    variance = expected_height - height
    return BiasVariance(float(bias), float(variance))


def _best_dominating(K: np.ndarray, sums: np.ndarray, target: np.ndarray) -> float:
    """Maximize total pointwise improvement over ``target`` among all rules.

    ``K, sums`` come from :func:`_rule_space`.  Minimizes the total risk
    over the rules whose risk is at most ``target`` at every unknown, and
    returns the total slack ``target.sum() - value``: the largest
    aggregate gain of a rule that weakly beats the target profile
    everywhere.  The slack of each risk row is the solver's own.
    """
    risks = K.reshape(len(K), -1)
    res = lp.solve(
        lp.LinearProgram(
            risks.sum(axis=0), a_ub=risks, b_ub=target, a_eq=sums, b_eq=np.ones(len(sums))
        )
    )
    if not res.is_optimal:
        raise SolverError(f"domination program did not solve: {res.status}")
    return float(target.sum() - res.value)


def is_admissible(L: LossMatrix, e: Transition, d: Transition) -> bool:
    """Whether no rule weakly improves the profile of ``d`` with strict gain.

    Solved as an LP over all (randomized) rules maximizing the summed
    slack; admissible means the optimum is at most the solver tolerance.
    """
    _check_pair(L, e, d)
    slack = _best_dominating(*_rule_space(L, e), risk_profile(L, e, d).values)
    return slack <= lp.FEAS_TOL


@dataclass(frozen=True)
class RuleReport:
    """One deterministic rule in a complete-class report."""

    actions: tuple[str, ...]  # chosen action label per observation
    risk: np.ndarray
    admissible: bool
    prior: Distribution | None  # a prior for which the rule is Bayes, if any


@dataclass(frozen=True)
class CompleteClassReport:
    rules: tuple[RuleReport, ...]
    every_admissible_has_prior: bool

    @property
    def ok(self) -> bool:
        return self.every_admissible_has_prior


def complete_class_check(
    L: LossMatrix, e: Transition, cap: int = ENUMERATION_CAP
) -> CompleteClassReport:
    """Enumerate deterministic rules and pair each admissible one with a prior.

    For every deterministic rule the report records its risk profile,
    whether any rule dominates it (the LP of :func:`_best_dominating`),
    and a supporting prior (a prior under which it is Bayes, found by the
    LP of :func:`_supporting_prior`).  The check passes when every
    admissible rule has a prior; equivalently, every rule without one is
    dominated.

    Two exact screens settle most rules before any of their LPs; every
    rule they leave solves the same LP as without them, and a screened
    rule gets the verdict its LP would give.

    * Domination: a rule is inadmissible when a deterministic profile
      ``q`` on the Pareto front of all profiles is ``<=`` its profile
      ``p`` at every unknown with ``(p - q).sum() > 2 * FEAS_TOL``.  That
      rule is feasible in the domination LP, so the LP's slack is at
      least ``(p - q).sum()`` and its verdict is "inadmissible" too.
      Any profile that beats ``p`` is itself beaten or matched by a
      front profile, which gains at least as much.
    * Supporting prior: a rule's prior program holds, for each
      observation ``z``, the rows that make ``g[z]`` a Bayes action at
      ``z``.  So the ``|Z||A|`` per-observation programs, the simplex
      row plus the rows of one pair ``(z, a)`` with the same float
      coefficients, are solved once (when ``|Z| > 1``), and a rule using
      a pair without a solution has no prior.  Their inequality rows are homogeneous
      (right-hand side 0) and keep their slacks as crash columns, so at
      most the simplex row gets an artificial.  Phase one then minimizes
      ``1 - sum(pi)`` over a cone, whose optimum is exactly 0 (the cone
      holds a nonzero point) or 1 (it does not), far from ``FEAS_TOL``
      either way.  A pair's program is therefore infeasible exactly when
      it has no solution, and then so is every program containing its
      rows.
    """
    if e.source != L.unknowns:
        raise ShapeError("experiment source does not match loss unknowns")
    K, sums = _rule_space(L, e)
    n_z, n_a = K.shape[1:]
    rules = _rule_assignments(n_z, n_a, cap)
    obs = np.arange(n_z)
    # profiles[r, t]: rule r's risk at t, summed over the contiguous observation axis
    profiles = np.ascontiguousarray(K[:, obs, rules].sum(axis=2).T)
    dominated = _dominated_by_front(profiles)
    bayes_pairs = np.ones((n_z, n_a), dtype=bool)
    if n_z > 1:  # with one observation, a pair's program is its rule's own
        for z, a in np.ndindex(n_z, n_a):
            bayes_pairs[z, a] = _bayes_program(K[:, [z]], np.array([a])).is_optimal
    may_have_prior = bayes_pairs[obs, rules].all(axis=1)
    reports = []
    for g, profile, beaten, maybe in zip(rules, profiles, dominated, may_have_prior):
        reports.append(
            RuleReport(
                actions=tuple(L.actions.labels[a] for a in g),
                risk=profile,
                admissible=not beaten and _best_dominating(K, sums, profile) <= lp.FEAS_TOL,
                prior=_supporting_prior(L, K, g) if maybe else None,
            )
        )
    return CompleteClassReport(
        rules=tuple(reports),
        every_admissible_has_prior=all(
            (not r.admissible) or r.prior is not None for r in reports
        ),
    )


def _dominated_by_front(profiles: np.ndarray) -> np.ndarray:
    """Rows beaten by a front row: ``<=`` everywhere, total gain above ``2 * FEAS_TOL``.

    Each front row is the lowest-total row still left and removes every
    row it is ``<=`` everywhere, so every row ``q`` is ``>=`` some front
    row, which beats everything ``q`` beats, by at least as much.  Taking
    the lowest total first keeps the front to the Pareto-minimal rows (68
    of 4096 on the enumeration-cap instance of the tests).  Each front
    row is compared with all rows, one at a time, so memory stays
    ``O(rows * |T|)``.
    """
    dominated = np.zeros(len(profiles), dtype=bool)
    left = np.argsort(profiles.sum(axis=1), kind="stable")
    while left.size:
        q = profiles[left[0]]
        above = (q <= profiles).all(axis=1)
        dominated |= above & ((profiles - q).sum(axis=1) > 2 * lp.FEAS_TOL)
        left = left[~above[left]]
    return dominated


def _bayes_program(K: np.ndarray, g: np.ndarray) -> lp.LPResult:
    """The simplex row and, per observation ``z``, the rows making ``g[z]`` Bayes.

    ``g`` is Bayes for ``pi`` exactly when each ``g[z]`` is a Bayes action
    for the weights ``pi * e[z, :]``.  So we need a simplex point with
    ``sum_t pi_t e[z, t] (L[t, a] - L[t, g[z]]) >= 0`` for every
    observation ``z`` and action ``a != g[z]``: ``|Z| (|A| - 1)`` rows,
    whose coefficients come from ``K`` of :func:`_rule_space`.
    """
    n_t, _, n_a = K.shape
    # scores[z, a, t]: coefficient of pi_t in the Bayes score of a at z
    scores = K.transpose(1, 2, 0)
    gains = scores - scores[np.arange(len(g)), g][:, None, :]
    gains = gains[np.arange(n_a)[None, :] != g[:, None]]
    return lp.solve(
        lp.LinearProgram(
            np.zeros(n_t),
            a_ub=-gains,
            b_ub=np.zeros(gains.shape[0]),
            a_eq=np.ones((1, n_t)),
            b_eq=[1.0],
        )
    )


def _supporting_prior(L: LossMatrix, K: np.ndarray, g: np.ndarray) -> Distribution | None:
    """A prior under which the deterministic rule ``g`` is Bayes, if one exists.

    The solution of :func:`_bayes_program`.
    """
    res = _bayes_program(K, g)
    if not res.is_optimal:
        return None
    return Distribution(L.unknowns, res.primal)
