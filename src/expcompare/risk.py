"""Risk functionals for experiment/rule pairs.

An experiment ``e`` maps unknowns to observations, a decision rule ``d``
maps observations to actions; the risk of the pair at unknown ``theta``
is the expected loss of the composed strategy ``d after e``.  On top of
the pointwise profile this module provides Bayesian and worst-case
aggregates, the posterior reversal of an experiment, exact optimal rules
(Bayes from the joint scores, one observation at a time, minimax via an
LP with the least favorable prior read off the duals), a bias/variance
split of the pointwise risk in canonical coordinates, and admissibility
checks with supporting-prior extraction for the deterministic rules of a
finite instance, from the per-observation Bayes conditions (Bayes risk
separates over observations).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import NamedTuple

import numpy as np

from . import lp
from .core import Distribution, LabeledSet, Transition
from .errors import ArgumentError, ShapeError, SolverError
from .loss import LossMatrix, psi, zero_sum_part

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


def reverse(e: Transition, pi: Distribution, cutoff: float = SUPPORT_CUTOFF) -> BayesReversal:
    """Posterior over unknowns given each observation, with the marginal.

    Observations with marginal mass at most ``cutoff`` are excluded from
    the support and never divided by.
    """
    if pi.space != e.source:
        raise ShapeError("prior space does not match experiment source")
    joint = e.matrix * pi.weights[None, :]  # joint[z, theta]
    marginal_w = joint.sum(axis=1)
    post = np.tile(pi.weights[:, None], (1, len(e.target)))
    support = []
    for z, mass in enumerate(marginal_w):
        if mass > cutoff:
            support.append(e.target.labels[z])
            post[:, z] = joint[z, :] / mass
    return BayesReversal(
        marginal=Distribution(e.target, marginal_w),
        posterior=Transition(e.target, e.source, post),
        support=tuple(support),
    )


def sufficiency_reduction(e: Transition, tol: float = 1e-9) -> Transition:
    """Deterministic merge of observations that carry the same evidence.

    Observations whose likelihood columns are proportional (equivalently:
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
            if np.abs(key - rep).max() <= tol:
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
    rule = np.eye(len(L.actions))[:, g]
    return MinBayesResult(float(value), Transition(e.target, L.actions, rule))


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


def _rule_assignments(n_obs: int, n_actions: int, cap: int):
    """Every deterministic rule as one action index per observation.

    Rules come in product order (the last observation varies fastest);
    more than ``cap`` of them is an error, raised before any is made.
    """
    n_rules = n_actions**n_obs
    if n_rules > cap:
        raise ArgumentError(f"{n_rules} deterministic rules exceed the cap {cap}")
    return iter_product(range(n_actions), repeat=n_obs)


def minimax_risk(L: LossMatrix, e: Transition) -> MinimaxResult:
    """Rule minimizing the worst-case risk, by linear programming.

    Variables are the rule entries plus an epigraph level; the least
    favorable prior is the (negated, normalized) dual vector of the
    per-unknown level constraints.  Its Bayes risk equals the minimax
    value up to solver tolerance.
    """
    if e.source != L.unknowns:
        raise ShapeError("experiment source does not match loss unknowns")
    n_t, n_z, n_a = len(L.unknowns), len(e.target), len(L.actions)
    n_d = n_z * n_a
    K, sums = _rule_space(L, e)
    a_ub = np.hstack([K.reshape(n_t, n_d), -np.ones((n_t, 1))])
    a_eq = np.hstack([sums, np.zeros((n_z, 1))])
    c = np.zeros(n_d + 1)
    c[n_d] = 1.0
    free = np.zeros(n_d + 1, dtype=bool)
    free[n_d] = True
    res = lp.solve(
        lp.LinearProgram(
            c, a_ub=a_ub, b_ub=np.zeros(n_t), a_eq=a_eq, b_eq=np.ones(n_z), free=free
        )
    )
    if not res.is_optimal:
        raise SolverError(f"minimax program did not solve: {res.status}")
    rule = Transition(
        e.target, L.actions, res.primal[:n_d].reshape(n_z, n_a).T
    )
    # the free level's column makes these sum to 1 up to pivot rounding
    prior_w = np.maximum(-res.dual_ub, 0.0)
    prior = Distribution(L.unknowns, prior_w / prior_w.sum())
    return MinimaxResult(float(res.value), rule, prior)


def _selected_actions(d: Transition) -> list[int]:
    """Indices of the action chosen at each observation; rejects randomized rules."""
    sel = []
    for z, lbl in enumerate(d.source.labels):
        col = d.matrix[:, z]
        a = int(np.argmax(col))
        if col[a] < 1.0 - 1e-9:
            raise ArgumentError(
                f"rule is randomized at observation '{lbl}'; "
                "decompose it into deterministic rules first"
            )
        sel.append(a)
    return sel


def bias_variance(L: LossMatrix, e: Transition, d: Transition, theta: str) -> BiasVariance:
    """Split the pointwise risk of a deterministic rule at ``theta``.

    In zero-sum coordinates the selected columns average to a single
    coordinate; the bias is the canonical loss of that average and the
    variance is the Jensen gap of the height function, so
    ``bias + variance`` equals the risk at ``theta`` and the variance is
    nonnegative.  Every selected action must be Bayes-achievable (else it
    has no canonical coordinate and the split is undefined).
    """
    _check_pair(L, e, d)
    ti = L.unknowns.index(theta)
    sel = _selected_actions(d)
    weights = e.matrix[:, ti]
    heights: dict[int, float] = {}
    parts: dict[int, np.ndarray] = {}
    for a in set(sel):
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
    for z, a in enumerate(sel):
        avg += weights[z] * parts[a]
        expected_height += weights[z] * heights[a]
    # canonical_loss(L, theta, -avg) == avg[ti] + psi(L, avg), one LP fewer
    height = psi(L, avg)
    bias = avg[ti] + height
    variance = expected_height - height
    return BiasVariance(float(bias), float(variance))


def _best_dominating(K: np.ndarray, sums: np.ndarray, target: np.ndarray) -> float:
    """Maximize total pointwise improvement over ``target`` among all rules.

    ``K, sums`` come from :func:`_rule_space`.  Returns the total slack:
    the largest aggregate gain of a rule that weakly beats the target
    profile everywhere.
    """
    n_t, n_z, n_a = K.shape
    n_d = n_z * n_a
    a_ub = np.hstack([K.reshape(n_t, n_d), np.eye(n_t)])
    a_eq = np.hstack([sums, np.zeros((n_z, n_t))])
    c = np.concatenate([np.zeros(n_d), -np.ones(n_t)])
    res = lp.solve(
        lp.LinearProgram(c, a_ub=a_ub, b_ub=target, a_eq=a_eq, b_eq=np.ones(n_z))
    )
    if not res.is_optimal:
        raise SolverError(f"domination program did not solve: {res.status}")
    return -float(res.value)


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
    whether any rule dominates it, and a supporting prior (a prior under
    which it is Bayes, found by the per-observation LP of
    :func:`_supporting_prior`).  The check passes when every admissible
    rule has a prior; equivalently, every rule without one is dominated.
    """
    if e.source != L.unknowns:
        raise ShapeError("experiment source does not match loss unknowns")
    K, sums = _rule_space(L, e)
    obs = np.arange(len(e.target))
    reports = []
    for g in _rule_assignments(len(e.target), len(L.actions), cap):
        g = np.asarray(g)
        profile = K[:, obs, g].sum(axis=1)
        slack = _best_dominating(K, sums, profile)
        reports.append(
            RuleReport(
                actions=tuple(L.actions.labels[a] for a in g),
                risk=profile,
                admissible=slack <= lp.FEAS_TOL,
                prior=_supporting_prior(L, K, g),
            )
        )
    return CompleteClassReport(
        rules=tuple(reports),
        every_admissible_has_prior=all(
            (not r.admissible) or r.prior is not None for r in reports
        ),
    )


def _supporting_prior(L: LossMatrix, K: np.ndarray, g: np.ndarray) -> Distribution | None:
    """A prior under which the deterministic rule ``g`` is Bayes, if one exists.

    ``g`` is Bayes for ``pi`` exactly when each ``g[z]`` is a Bayes action
    for the weights ``pi * e[z, :]``.  So we need a simplex point with
    ``sum_t pi_t e[z, t] (L[t, a] - L[t, g[z]]) >= 0`` for every
    observation ``z`` and action ``a != g[z]``: ``|Z| (|A| - 1)`` rows,
    whose coefficients come from ``K`` of :func:`_rule_space`.
    """
    n_t, n_a = L.values.shape
    # scores[z, a, t]: coefficient of pi_t in the Bayes score of a at z
    scores = K.transpose(1, 2, 0)
    gains = scores - scores[np.arange(len(g)), g][:, None, :]
    gains = gains[np.arange(n_a)[None, :] != g[:, None]]
    res = lp.solve(
        lp.LinearProgram(
            np.zeros(n_t),
            a_ub=-gains,
            b_ub=np.zeros(gains.shape[0]),
            a_eq=np.ones((1, n_t)),
            b_eq=[1.0],
        )
    )
    if not res.is_optimal:
        return None
    return Distribution(L.unknowns, res.primal)
