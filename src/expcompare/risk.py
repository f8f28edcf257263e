"""Risk functionals for experiment/rule pairs.

An experiment ``e`` maps unknowns to observations, a decision rule ``d``
maps observations to actions; the risk of the pair at unknown ``theta``
is the expected loss of the composed strategy ``d after e``.  On top of
the pointwise profile this module provides Bayesian and worst-case
aggregates, the posterior reversal of an experiment, exact optimal rules
(Bayes from the joint scores, one observation at a time, minimax via an
LP with the least favorable prior read off the duals), a bias/variance
split of the pointwise risk of any rule, deterministic or randomized, in
canonical coordinates, and admissibility checks for the deterministic
rules of a finite instance, where each admissible rule's domination LP
also yields a full-support prior under which it is Bayes (the complete
class theorem, read off the duals).  The domination LP is written
relative to the Bayes rule for uniform weights, so it starts dual
feasible and ``lp`` solves it by a dual simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import lp
from .core import EPS_TOL, Distribution, LabeledSet, Transition, _integer, deterministic
from .errors import ArgumentError, ShapeError
from .loss import LossMatrix, _epigraph, _substitute_references, psi, zero_sum_part

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


def _check_source(L: LossMatrix, e: Transition) -> None:
    if e.source != L.unknowns:
        raise ShapeError("experiment source does not match loss unknowns")


def _check_pair(L: LossMatrix, e: Transition, d: Transition) -> None:
    _check_source(L, e)
    if d.source != e.target:
        raise ShapeError("rule source does not match experiment target")
    if d.target != L.actions:
        raise ShapeError("rule target does not match loss actions")


def risk_profile(L: LossMatrix, e: Transition, d: Transition) -> RiskProfile:
    """Expected loss of the strategy ``d after e`` at every unknown."""
    _check_pair(L, e, d)
    return RiskProfile(L.unknowns, _rule_risk(_rule_space(L, e), d))


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
    _check_source(L, e)
    if pi.space != L.unknowns:
        raise ShapeError("prior space does not match loss unknowns")
    joint = e.matrix * pi.weights  # joint[z, t]
    scores = joint @ L.values  # scores[z, a]
    supported = joint.sum(axis=1) > SUPPORT_CUTOFF
    g = np.where(supported, scores.argmin(axis=1), 0)
    value = scores[supported, g[supported]].sum()
    return MinBayesResult(float(value), deterministic(e.target, L.actions, g))


def _bayes_values(joint: np.ndarray, loss: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Smallest Bayes risks of ``k`` stacked losses, as :func:`min_bayes_risk`.

    ``joint`` is the joint ``pi_t e[z, t]``, ``(|Z|, |T|)`` when shared or
    ``(k, |Z|, |T|)``; a prior as ``(k, 1, |T|)`` gives the entropy.  The
    losses are zero-padded to ``(k, |T|, 4)``, ``actions[k, 0, a]`` masks
    the unpadded actions, and observations with marginal mass at most
    :data:`SUPPORT_CUTOFF` add 0.
    """
    best = np.where(actions, joint @ loss, np.inf).min(axis=-1)
    supported = joint.sum(axis=-1) > SUPPORT_CUTOFF
    return np.where(supported, best, 0.0).sum(axis=-1)


def _rule_space(L: LossMatrix, e: Transition) -> np.ndarray:
    """Risk coefficients ``K[t, z, a] = e[z, t] * L[t, a]`` of the rule entries.

    ``K[t, z, a]`` is the risk at unknown ``t`` per unit of ``d(a|z)``;
    reshaped to ``(|T|, |Z||A|)`` it is an LP block in column
    ``z * |A| + a``.
    """
    return np.einsum("zt,ta->tza", e.matrix, L.values)


def _sum_rows(K: np.ndarray) -> np.ndarray:
    """One 0/1 row per observation ``z``, adding up its entries ``d(.|z)`` in ``K``'s block."""
    return np.repeat(np.eye(K.shape[1]), K.shape[2], axis=1)


def _rule_risk(K: np.ndarray, d: Transition) -> np.ndarray:
    return np.einsum("tza,az->t", K, d.matrix)


def _rule_assignments(n_obs: int, n_actions: int, cap: int) -> np.ndarray:
    """Every deterministic rule as one action index per observation.

    Row ``r`` of the ``(n_actions**n_obs, n_obs)`` array is the ``r``-th
    rule in product order (the last observation varies fastest); more
    than ``cap`` rules is an error, raised before anything is allocated.
    """
    cap = _integer(cap, "cap")
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
    _check_source(L, e)
    K = _rule_space(L, e)
    n_t, n_z, n_a = K.shape
    value, x, weights = _epigraph(K.reshape(n_t, n_z * n_a), _sum_rows(K), np.zeros(n_t))
    rule = Transition(e.target, L.actions, x.reshape(n_z, n_a).T)
    # the basic level's column makes these sum to 1 up to pivot rounding
    prior_w = np.maximum(weights, 0.0)
    prior = Distribution(L.unknowns, prior_w / prior_w.sum())
    return MinimaxResult(value, rule, prior)


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
    for a in sorted(set(acts)):
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


def _dominating(K: np.ndarray) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """The domination program of the rules ``K``, for any target profile.

    The returned ``best_dominating(target)`` (``K`` from :func:`_rule_space`)
    minimizes the total risk over the rules whose risk is at most
    ``target`` at every unknown, and returns the total slack (the largest
    aggregate gain of a rule that weakly beats the target profile
    everywhere) and the weights ``1 - dual_ub >= 1`` of the unknowns.  By
    LP duality, under these weights a rule with profile ``target`` scores
    at most the slack above the Bayes actions, summed over observations.

    Each observation's reference is the action with the lowest total risk
    (the Bayes rule for uniform weights), substituted as in
    :func:`~expcompare.loss._substitute_references`.  The cost of every
    other entry is its column total minus its reference's, a float
    difference of ``a >= b`` and so exactly ``>= 0``: the slack basis is
    dual feasible and only the risk rows where ``target`` is below the
    reference rule's profile are infeasible.  So ``lp``'s dual simplex
    pivots only when there is such a row, and the basis it ends at is
    optimal: phase two takes no pivot.  The slack of each risk row is
    the solver's own.  Only the right-hand side depends on the target.
    """
    n_t = len(K)
    sums = _sum_rows(K)
    ref, rest, tot, base, rows, sum_rows = _substitute_references(K.reshape(n_t, -1), sums)
    cost = (tot - tot[ref] @ sums)[rest]
    a_ub = np.vstack([rows, sum_rows])
    ones = np.ones(len(sum_rows))

    def best_dominating(target: np.ndarray) -> tuple[float, np.ndarray]:
        room = target - base
        program = lp.LinearProgram._unchecked(cost, a_ub, np.concatenate([room, ones]))
        res = lp.solve_optimal(program, "domination")
        return float(room.sum() - res.value), 1.0 - res.dual_ub[:n_t]

    return best_dominating


def is_admissible(L: LossMatrix, e: Transition, d: Transition) -> bool:
    """Whether no rule weakly improves the profile of ``d`` with strict gain.

    Solved as an LP over all (randomized) rules maximizing the summed
    slack; admissible means the optimum is at most the solver tolerance.
    """
    _check_pair(L, e, d)
    K = _rule_space(L, e)
    slack, _ = _dominating(K)(_rule_risk(K, d))
    return slack <= lp.FEAS_TOL


@dataclass(frozen=True)
class RuleReport:
    """One deterministic rule in a complete-class report."""

    actions: tuple[str, ...]  # chosen action label per observation
    risk: np.ndarray
    admissible: bool
    prior: Distribution | None  # full-support prior making it Bayes; admissible rules only


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
    whether any rule dominates it (the LP of :func:`_dominating`),
    and, for an admissible rule, a full-support prior under which it is
    Bayes.  The check passes when every admissible rule has a prior, as
    the complete class theorem says.

    The prior is the weights of the rule's domination LP, normalized,
    kept once the joint scores confirm at each observation that the
    rule's action is Bayes within ``FEAS_TOL``.  The normalized excess is at
    most slack / sum(weights), so this holds whenever the verdict is
    "admissible".  An inadmissible rule gets no prior.  Supporting
    priors are not unique; this one is the LP's own, so it depends on the
    LP's formulation and pivot path.

    An exact screen settles most rules before any LP; every rule it
    leaves solves the same LP as without it, and a screened rule gets
    the verdict its LP would give.  A rule is inadmissible when a
    deterministic profile ``q`` on the Pareto front of all profiles is
    ``<=`` its profile ``p`` at every unknown with ``(p - q).sum() > 2 *
    FEAS_TOL``.  That rule is feasible in the domination LP, so the LP's
    slack is at least ``(p - q).sum()`` and its verdict is "inadmissible"
    too.  Any profile that beats ``p`` is itself beaten or matched by a
    front profile, which gains at least as much.
    """
    _check_source(L, e)
    K = _rule_space(L, e)
    n_z, n_a = K.shape[1:]
    rules = _rule_assignments(n_z, n_a, cap)
    obs = np.arange(n_z)
    # profiles[r, t]: rule r's risk at t, summed over the contiguous observation axis
    profiles = np.ascontiguousarray(K[:, obs, rules].sum(axis=2).T)
    dominated = _dominated_by_front(profiles)
    best_dominating = _dominating(K)
    reports = []
    for g, profile, beaten in zip(rules, profiles, dominated):
        admissible, prior = False, None
        if not beaten:
            slack, weights = best_dominating(profile)
            admissible = slack <= lp.FEAS_TOL
        if admissible:
            pi = weights / weights.sum()
            scores = (e.matrix * pi) @ L.values  # scores[z, a], as in min_bayes_risk
            if (scores[obs, g] - scores.min(axis=1)).max() <= lp.FEAS_TOL:
                prior = Distribution(L.unknowns, pi)
        actions = tuple(L.actions.labels[a] for a in g)
        reports.append(RuleReport(actions, profile, admissible, prior))
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
