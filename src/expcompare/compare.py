"""Ordering and distance between experiments over a common unknown set.

An experiment ``e`` *divides* ``e2`` when some Markov post-processing of
``e`` reproduces ``e2`` exactly; then ``e`` is at least as informative
for every loss and prior.  The *directed deficiency* relaxes this to a
degree: the smallest prior-averaged total-variation distance between a
post-processing of ``e`` and ``e2``, computed exactly by a linear
program over the post-processing matrix.  Its symmetrized maximum, the
*deficiency*, is a metric on experiments modulo mutual divisibility and
bounds every normalized Bayes-risk gap.

The module also provides empirical verifiers for those facts
(:func:`randomization_check`, :func:`metric_check`) and the generic
strategy-set data-processing comparison :func:`generalized_dpi`.

The total-variation convention is ``V = 0.5 * l1`` throughout; the LP
objective is the prior-weighted ``l1`` gap, so reported deficiencies are
half the raw optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, NamedTuple

import numpy as np

from . import lp
from ._samplers import blocks, size_masks, trial_count, uniform_loss
from .core import Distribution, LabeledSet, Transition, _integer, compose, deterministic, uniform
from .errors import ArgumentError, ShapeError, SolverError
from .risk import ENUMERATION_CAP, _bayes_values, _rule_assignments

#: Divisibility / sufficiency threshold on deficiency values.
DIVIDES_TOL = 1e-7


@dataclass(frozen=True)
class DeficiencyResult:
    """Directed deficiency value with the optimal post-processing witness."""

    value: float
    witness: Transition


def _check_same_source(e: Transition, e2: Transition) -> None:
    if e.source != e2.source:
        raise ShapeError("experiments must share their source set")


def directed_deficiency(e: Transition, e2: Transition, pi: Distribution) -> DeficiencyResult:
    """Smallest prior-averaged variational gap ``V(f.e(theta), e2(theta))``.

    Solved as an LP in the post-processing ``F`` and, per entry ``(i, j)``
    of ``e2``, deviations ``P_ij, Q_ij >= 0`` with
    ``pi_j ([F E]_ij - E2_ij) = P_ij - Q_ij``; the optimum of ``sum(P + Q)``
    is the prior-weighted ``l1`` gap, reported halved (``V = 0.5 * l1``).
    Zero (up to tolerance) exactly when ``e`` divides ``e2``.

    The program starts at a feasible vertex: the deterministic
    post-processing ``k -> r[k]``, where ``r[k]`` is the outcome ``i``
    with the largest joint overlap ``sum_j E2_ij pi_j E_kj`` (lowest index
    on ties).  Each ``F[r[k], k]`` is substituted by
    ``1 - sum_{i != r[k]} F[i, k]``, so the column sums become ``<=`` rows.
    Gap row ``r``, entry ``(i, j)``, has ``b_r = pi_j (E2 - R E)_ij`` (``R``
    the 0/1 matrix of ``k -> r[k]``) and sign ``s_r``, ``-1`` where
    ``b_r < 0`` and else ``+1``; it becomes ``s_r gap_r . F - D_r <= |b_r|``,
    where ``D_r`` is ``P_r`` if ``s_r = +1`` and ``Q_r`` otherwise, and the
    row's slack is the other deviation.  As ``P_r + Q_r = 2 D_r + |b_r| -
    s_r gap_r . F``, the costs are 2 on ``D`` and ``-sum_r s_r gap_r`` on
    ``F``.  Every right-hand side is nonnegative, so the program starts at
    its slack basis and phase one takes no pivot.  The value is half the
    sum of every ``D_r`` and its slack; the witness row ``r[k]`` is one
    minus the rest of its column.
    """
    _check_same_source(e, e2)
    if pi.space != e.source:
        raise ShapeError("prior space does not match experiment source")
    e_mat, e2_mat, pw = e.matrix, e2.matrix, pi.weights
    n_o, n_t = e_mat.shape
    n_o2 = e2_mat.shape[0]
    n_m = n_o2 * n_t
    joint = (e_mat * pw).T  # joint[j, k] = pi_j E_kj
    start = (e2_mat @ joint).argmax(axis=0)  # r[k]
    vertex = np.zeros((n_o2, n_o))
    vertex[start, np.arange(n_o)] = 1.0
    # the free entries F[i, k], i != r[k], row-major over e2's outcomes
    rows, obs = np.nonzero(vertex == 0.0)
    n_f = rows.size

    # columns [D, F free]; row i * |T| + j is the entry (i, j) of e2.
    # F[i, k] adds pi_j E_kj to the rows of outcome i and takes it from
    # the rows of r[k], whose entry absorbs the rest of column k.
    moved = joint[:, obs].T
    gap = np.zeros((n_o2, n_t, n_f))
    gap[rows, :, np.arange(n_f)] = moved
    gap[start[obs], :, np.arange(n_f)] = -moved
    b_gap = (e2_mat * pw - vertex @ joint.T).ravel()
    s_gap = np.where(b_gap < 0.0, -1.0, 1.0)[:, None] * gap.reshape(n_m, n_f)
    # one row per observation k of e: sum_{i != r[k]} F[i, k] <= 1
    a_sum = np.hstack([np.zeros((n_o, n_m)), np.equal.outer(np.arange(n_o), obs)])
    a_ub = np.vstack([np.hstack([-np.eye(n_m), s_gap]), a_sum])
    c = np.concatenate([np.full(n_m, 2.0), -s_gap.sum(axis=0)])
    b_abs = np.abs(b_gap)
    res = lp.solve(lp.LinearProgram._unchecked(c, a_ub, np.concatenate([b_abs, np.ones(n_o)])))
    if not res.is_optimal:
        raise SolverError(f"deficiency program did not solve: {res.status}")
    d, x = res.primal[:n_m], res.primal[n_m:]
    f = np.zeros((n_o2, n_o))
    f[rows, obs] = x
    f[start, np.arange(n_o)] = 1.0 - f.sum(axis=0)
    # half the sum of each D_r and its slack |b_r| - s_r gap_r . F + D_r
    value = 0.5 * float((d + (b_abs - s_gap @ x + d)).sum())
    return DeficiencyResult(value, Transition(e.target, e2.target, f))


def divides(
    e: Transition, e2: Transition, tol: float = DIVIDES_TOL
) -> tuple[bool, Transition | None]:
    """Whether some post-processing of ``e`` reproduces ``e2`` exactly.

    Decided by the directed deficiency under the uniform prior (full
    support, so zero deficiency is equivalent to exact factorization);
    on success the optimal post-processing is returned as witness.
    """
    _check_same_source(e, e2)
    res = directed_deficiency(e, e2, uniform(e.source))
    if res.value <= tol:
        return True, res.witness
    return False, None


def deficiency(e: Transition, e2: Transition, pi: Distribution) -> float:
    """Symmetrized deficiency: the larger of the two directed values."""
    return max(
        directed_deficiency(e, e2, pi).value,
        directed_deficiency(e2, e, pi).value,
    )


def is_sufficient(e: Transition, f: Transition, pi: Distribution) -> bool:
    """Whether post-processing by ``f`` loses none of the information in ``e``.

    ``e`` divides ``f.e`` by construction (``f`` is a witness), so only the
    directed deficiency from ``f.e`` back to ``e`` is solved.
    """
    if f.source != e.target:
        raise ShapeError("post-processing source does not match experiment target")
    return directed_deficiency(compose(f, e), e, pi).value <= DIVIDES_TOL


@dataclass(frozen=True)
class RandomizationReport:
    """Outcome of a randomized risk-gap audit of the deficiency bound."""

    trials: int
    seed: int
    epsilon: float  # directed deficiency from e to e2
    deficiency: float  # symmetrized value
    violations: int  # count of sampled losses breaking the directed bound
    max_directed_gap: float  # max (risk(e) - risk(e2)) / diam(L)
    max_abs_gap: float  # max |risk(e) - risk(e2)| / diam(L)

    @property
    def ok(self) -> bool:
        return self.violations == 0


def randomization_check(
    e: Transition,
    e2: Transition,
    pi: Distribution,
    trials: int = 200,
    seed: int = 0,
) -> RandomizationReport:
    """Audit the deficiency/risk correspondence on random bounded losses.

    Constants, explicitly: with the ``V = 0.5 * l1`` convention the
    pairing bound is ``|<p - q, l>| <= 2 V(p, q) * sup|l|`` (tight when
    the loss spans ``[-sup, sup]``), so the risk bound certified by the
    directed deficiency ``eps`` is

        risk(e) <= risk(e2) + eps * diam(L),   diam(L) = 2 * sup|L|.

    Every sampled loss is checked against that bound at slack 1e-7, and
    gaps are reported normalized by ``diam(L)``; the largest normalized
    absolute gap is then a lower bound for the symmetrized deficiency.
    Losses are drawn from ``seed``, one ``rng.random((n, 1 + 4 |T|))``
    call per block of ``n`` trials of :func:`~expcompare._samplers.blocks`:
    per trial an action count in 2..4, then the entries uniform in
    ``[-1, 1)``, unknowns by 4 actions, the padded ones zero; so trial
    ``i`` is the same for any ``trials`` or block size.  The stacked
    Bayes-risk kernel that :func:`~expcompare.dpi_check` shares scores
    them with the values of :func:`~expcompare.min_bayes_risk`.
    """
    trials = trial_count(trials)
    _check_same_source(e, e2)
    eps = directed_deficiency(e, e2, pi).value
    other = directed_deficiency(e2, e, pi).value
    xi_max = max(eps, other)
    joints = [x.matrix * pi.weights for x in (e, e2)]
    n_t = len(e.source)
    rng = np.random.default_rng(seed)
    violations = 0
    max_directed = -np.inf
    max_abs = 0.0
    for n in blocks(trials):
        u = rng.random((n, 1 + 4 * n_t))
        actions = size_masks(u[:, :1])
        loss = uniform_loss(u[:, 1:].reshape(n, n_t, 4), actions)
        r1, r2 = (_bayes_values(joint, loss, actions) for joint in joints)
        diam = 2.0 * np.abs(loss).max(axis=(1, 2))
        violations += int(np.count_nonzero(r1 > r2 + eps * diam + 1e-7))
        spread = diam > 0.0
        if spread.any():
            gap = (r1[spread] - r2[spread]) / diam[spread]
            max_directed = max(max_directed, float(gap.max()))
            max_abs = max(max_abs, float(np.abs(gap).max()))
    return RandomizationReport(
        trials=trials,
        seed=seed,
        epsilon=eps,
        deficiency=xi_max,
        violations=violations,
        max_directed_gap=float(max_directed),
        max_abs_gap=float(max_abs),
    )


@dataclass(frozen=True)
class MetricReport:
    """Self-distances, symmetry and triangle inequalities over a family."""

    directed: np.ndarray  # directed deficiency matrix, entry [i, j]
    symmetrized: np.ndarray
    triangles_checked: int
    max_triangle_violation: float
    max_self_deficiency: float

    @property
    def ok(self) -> bool:
        return (
            self.max_triangle_violation <= DIVIDES_TOL
            and self.max_self_deficiency <= DIVIDES_TOL
        )


def metric_check(
    experiments: list[Transition] | tuple[Transition, ...],
    pi: Distribution,
    trials: int | None = None,
) -> MetricReport:
    """Verify metric behaviour of deficiency over a family of experiments.

    Computes all directed deficiencies, then checks that self-distances
    vanish and that every ordered triple of distinct experiments obeys
    the directed triangle inequality (``trials``, an integer or ``None``,
    caps how many triples are examined, in deterministic order).
    """
    if len(experiments) < 1:
        raise ArgumentError("need at least one experiment")
    if trials is not None and _integer(trials, "trials") < 0:
        raise ArgumentError("trials must be nonnegative")
    for other in experiments[1:]:
        _check_same_source(experiments[0], other)
    n = len(experiments)
    directed = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            directed[i, j] = directed_deficiency(experiments[i], experiments[j], pi).value
    symmetrized = np.maximum(directed, directed.T)
    worst = 0.0
    checked = 0
    for i, j, k in permutations(range(n), 3):
        if trials is not None and checked >= trials:
            break
        worst = max(worst, directed[i, k] - directed[i, j] - directed[j, k])
        checked += 1
    return MetricReport(
        directed=directed,
        symmetrized=symmetrized,
        triangles_checked=checked,
        max_triangle_violation=float(worst),
        max_self_deficiency=float(np.diag(symmetrized).max()),
    )


class DpiValues(NamedTuple):
    value_e: float
    value_e2: float


def generalized_dpi(
    rho: Callable[[Transition], float],
    e: Transition,
    e2: Transition,
    actions: LabeledSet,
    witness: Transition,
    cap: int = ENUMERATION_CAP,
) -> DpiValues:
    """Compare an arbitrary strategy functional across a divisibility pair.

    ``rho`` scores strategies (transitions from the unknowns to
    ``actions``); each experiment is scored by the best strategy it can
    realize with a deterministic rule.  The caller supplies the
    post-processing ``witness`` with ``witness . e == e2`` (checked to
    1e-7); every rule available to ``e2`` is then also run through the
    witness on the ``e`` side, which makes the strategy sets nested and
    guarantees ``value_e <= value_e2`` up to the witness tolerance.
    """
    _check_same_source(e, e2)
    reproduced = compose(witness, e)
    if reproduced.target != e2.target or np.abs(
        reproduced.matrix - e2.matrix
    ).max() > 1e-7:
        raise ArgumentError("witness does not reproduce the second experiment")
    value_e2 = np.inf
    value_e = np.inf
    for g in _rule_assignments(len(e2.target), len(actions), cap):
        d2 = deterministic(e2.target, actions, g)
        value_e2 = min(value_e2, float(rho(compose(d2, e2))))
        value_e = min(value_e, float(rho(compose(compose(d2, witness), e))))
    for g in _rule_assignments(len(e.target), len(actions), cap):
        d = deterministic(e.target, actions, g)
        value_e = min(value_e, float(rho(compose(d, e))))
    return DpiValues(float(value_e), float(value_e2))
