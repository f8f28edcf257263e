"""Loss matrices and the calculus built on their uncertainty function.

A :class:`LossMatrix` tabulates the penalty ``L(theta, a)`` for acting
``a`` when the unknown is ``theta``; column ``a`` is the loss profile of
that action.  Its *entropy* is the uncertainty of the best action,

    entropy(L, mu) = min over actions of  <mu, column_a>,

a concave, positively 1-homogeneous function of the (unnormalized)
weight vector ``mu``.  The module exposes the standard structure around
that function:

* Bayes actions (the minimizers) and super-gradient tests,
* the super prediction set (vectors supporting the entropy from above),
* the height function :func:`psi` on zero-sum coordinates, with
  ``v + psi(L, v) * ones`` the unique supporting vector over ``v``,
* the canonical loss reconstructing achievable loss columns from their
  zero-sum coordinates, and a proper loss via :func:`loss_from_entropy`.

Membership and height queries are piecewise-linear and are answered
exactly by one small LP each (see ``lp`` and :func:`support_gap`).  By
LP duality the min over distributions ``P`` is the minimax value of a
game over mixed actions, the epigraph program that also gives minimax
rules (:func:`_epigraph`).  It has one row per unknown and one sum row,
so it grows with the actions only in its columns, and the minimizing
``P`` is read off its duals.  It starts at a feasible vertex, the best
reply to uniform weights, so its phase one takes no pivot.

Sign convention.  Decomposing an achievable column as
``col = u + mean(col) * ones`` with ``u`` zero-sum, the height satisfies
``psi(L, u) == mean(col)`` and the canonical loss pairs with the
*negated* coordinate: ``canonical_loss(L, theta, -u) == col[theta]``.
:func:`action_coordinate` returns that negated coordinate so the
round trip is one call deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
import math

import numpy as np

from . import lp
from .core import Distribution, LabeledSet, UnnormalizedMeasure
from .errors import ArgumentError, ShapeError, SolverError

#: Activity tolerance: actions within this of the minimum count as Bayes.
ACTIVE_TOL = 1e-9

#: Most actions :func:`log_loss_grid` builds.  The 4-unknown grid at
#: resolution 64 (C(63, 3) = 39,711 actions) fits, and its support
#: heights solve in tens of milliseconds.  Building the 595,665 actions
#: of 5 unknowns at resolution 64 takes about 2 s and 300 MB on a 2-core
#: VM, and 6 unknowns (C(63, 5), about 7.0M actions) about twelve times
#: that, before the first query.
GRID_CAP = 65_536

Weighted = Distribution | UnnormalizedMeasure


@dataclass(frozen=True)
class LossMatrix:
    """Real penalty matrix over unknowns x actions."""

    unknowns: LabeledSet
    actions: LabeledSet
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.shape != (len(self.unknowns), len(self.actions)):
            raise ShapeError(
                f"loss values shape {vals.shape} does not match "
                f"{len(self.unknowns)}x{len(self.actions)}"
            )
        if not np.all(np.isfinite(vals)):
            raise ArgumentError("loss matrix contains non-finite entries")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def sup_norm(self) -> float:
        """Largest absolute penalty in the matrix."""
        return float(np.abs(self.values).max())

    def column(self, action: str) -> np.ndarray:
        return self.values[:, self.actions.index(action)].copy()


@dataclass(frozen=True)
class CanonicalPoint:
    """A zero-sum coordinate plus its support height.

    ``v + psi * ones`` is a vector touching the entropy from above; see
    :func:`canonical_point`.
    """

    v: np.ndarray
    psi: float

    def __post_init__(self) -> None:
        v = _zero_sum(np.atleast_1d(np.asarray(self.v, dtype=float))).copy()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "psi", float(self.psi))


def _zero_sum(arr: np.ndarray) -> np.ndarray:
    """``arr``, once its entries are checked to sum to 0.

    The tolerance is :data:`ACTIVE_TOL` relative to the largest entry, at
    least 1: :func:`zero_sum_part` of a column of size ``1e8`` rounds to a
    sum near ``1e-8``.
    """
    if abs(arr.sum()) > ACTIVE_TOL * max(1.0, float(np.abs(arr).max(initial=0.0))):
        raise ArgumentError(f"coordinate sums to {arr.sum():.3g}, expected 0")
    return arr


def _weights_over(L: LossMatrix, mu: Weighted | np.ndarray, what: str) -> np.ndarray:
    if isinstance(mu, (Distribution, UnnormalizedMeasure)):
        if mu.space != L.unknowns:
            raise ShapeError(f"{what} lives on a different space than the loss")
        return mu.weights
    return _vector_over(L, mu, what)


def _vector_over(L: LossMatrix, v, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (len(L.unknowns),):
        raise ShapeError(f"{what} has shape {arr.shape}, expected ({len(L.unknowns)},)")
    return arr


def entropy(L: LossMatrix, mu: Weighted) -> float:
    """Uncertainty of the best action: ``min_a <mu, column_a>``.

    Concave and 1-homogeneous in ``mu``.
    """
    w = _weights_over(L, mu, "measure")
    return float((w @ L.values).min())


def bayes_actions(L: LossMatrix, P: Distribution, tol: float = ACTIVE_TOL) -> list[str]:
    """All actions whose expected loss is within ``tol`` of the minimum."""
    w = _weights_over(L, P, "distribution")
    scores = w @ L.values
    best = scores.min()
    return [a for a, s in zip(L.actions.labels, scores) if s <= best + tol]


def _bayes_index(L: LossMatrix, weights: np.ndarray) -> int:
    """Lowest-index minimizer; the deterministic tie-break used throughout."""
    return int(np.argmin(weights @ L.values))


def _substitute_references(
    A: np.ndarray, sums: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eliminate one reference column per sum row of ``A``.

    Each column of ``A`` lies in one 0/1 sum row of ``sums @ x == 1``.
    Each sum row keeps as reference ``ref`` its column with the lowest
    total ``tot`` in ``A`` (the best reply to uniform weights, lowest
    index on ties), and ``x_ref`` becomes one minus the rest of its row.
    Then ``A @ x == base + rows @ x[rest]``, and the sum rows become
    ``sum_rows @ x[rest] <= 1``, leaving out those where ``ref`` is alone.
    Returns ``(ref, rest, tot, base, rows, sum_rows)``; ``rest`` masks
    the columns that are not references.
    """
    tot = A.sum(axis=0)
    ref = np.where(sums > 0, tot, np.inf).argmin(axis=1)
    rest = np.ones(A.shape[1], dtype=bool)
    rest[ref] = False
    sum_rows = sums[:, rest]
    sum_rows = sum_rows[sum_rows.any(axis=1)]
    base = A[:, ref].sum(axis=1)
    return ref, rest, tot, base, (A - A[:, ref] @ sums)[:, rest], sum_rows


def _epigraph(
    A: np.ndarray, sums: np.ndarray, b: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Minimize the largest entry of ``A @ x - b`` over ``x >= 0`` with ``sums @ x == 1``.

    The epigraph program of a finite zero-sum game; each column of ``A``
    lies in one 0/1 sum row.  It starts at a feasible vertex: the
    reference columns of :func:`_substitute_references` are eliminated,
    and the level is ``top - s`` with ``s >= 0`` and ``top`` one above the
    largest entry at the references, so every right-hand side is
    nonnegative and phase one takes no pivot.  As ``s >= 1`` at the
    optimum, ``s`` is basic and the duals of the rows of ``A`` sum to
    ``-1`` up to rounding.  Returns ``(value, x, weights)``, where
    ``weights = -dual_ub`` is the least favorable weighting of the rows
    of ``A``.
    """
    (n_rows, n), k = A.shape, len(sums)
    ref, rest, _, base, rows, sum_rows = _substitute_references(A, sums)
    excess = base - b
    top = excess.max() + 1.0
    # columns: the non-reference x, then s; rows: those of A, then the sums
    a_ub = np.zeros((n_rows + len(sum_rows), n - k + 1))
    a_ub[:n_rows, :-1] = rows
    a_ub[:n_rows, -1] = 1.0
    a_ub[n_rows:, :-1] = sum_rows
    c = np.zeros(n - k + 1)
    c[-1] = -1.0  # maximize s
    b_ub = np.concatenate([top - excess, np.ones(len(sum_rows))])
    res = lp.solve(lp.LinearProgram._unchecked(c, a_ub, b_ub))
    if not res.is_optimal:  # a bounded level over a nonempty polytope
        raise SolverError(f"epigraph program did not solve: {res.status}")
    x = np.zeros(n)
    x[rest] = res.primal[:-1]
    x[ref] = 1.0 - sums @ x
    return float(top + res.value), x, -res.dual_ub[:n_rows]


def support_gap(L: LossMatrix, v) -> tuple[float, np.ndarray]:
    """``min over the simplex of <P, v> - entropy(L, P)`` and a minimizer.

    Nonnegative exactly when ``v`` lies in the super prediction set; zero
    at some ``P`` exactly when ``v`` touches the entropy there.

    By LP duality the gap is minus the minimax value of the game
    ``L.values - v`` over mixed actions, solved by :func:`_epigraph` with
    one row per unknown; the minimizing ``P`` is its least favorable
    weighting.  Entries of ``P`` may be negative at float rounding, which
    ``Distribution`` clamps.
    """
    arr = _vector_over(L, v, "vector")
    value, _, weights = _epigraph(L.values, np.ones((1, len(L.actions))), arr)
    return -value, weights


def in_super_prediction_set(L: LossMatrix, zeta) -> bool:
    """Whether ``<mu, zeta> >= entropy(L, mu)`` for every nonnegative ``mu``."""
    gap, _ = support_gap(L, zeta)
    return gap >= -lp.FEAS_TOL


def is_supergradient(L: LossMatrix, v, mu: Weighted) -> bool:
    """Whether ``v`` supports the entropy from above and touches it at ``mu``."""
    arr = _vector_over(L, v, "vector")
    w = _weights_over(L, mu, "measure")
    if not in_super_prediction_set(L, arr):
        return False
    return abs(float(w @ arr) - entropy(L, mu)) <= lp.FEAS_TOL


def psi(L: LossMatrix, v) -> float:
    """Support height of a zero-sum coordinate.

    The unique ``gamma`` with ``v + gamma * ones`` in the super prediction
    set and touching the entropy somewhere; computed as
    ``max over the simplex of entropy(L, P) - <P, v>``.  Convex in ``v``.
    """
    arr = _zero_sum(_vector_over(L, v, "coordinate"))
    gap, _ = support_gap(L, arr)
    return -gap


def canonical_point(L: LossMatrix, v) -> CanonicalPoint:
    """Bundle ``v`` with its height; ``v + psi * ones`` touches the entropy."""
    arr = _vector_over(L, v, "coordinate")
    return CanonicalPoint(arr, psi(L, arr))


def canonical_loss(L: LossMatrix, theta: str, v) -> float:
    """Loss of the boundary vector with coordinate ``v`` at unknown ``theta``.

    Equals ``-v[theta] + psi(L, -v)``: the reconstructed boundary vector is
    ``(-v) + psi(L, -v) * ones``, so for ``v = action_coordinate(L, a)`` of
    a Bayes-achievable action this returns ``L(theta, a)`` exactly.
    """
    i = L.unknowns.index(theta)
    arr = _zero_sum(_vector_over(L, v, "coordinate"))
    return float(-arr[i] + psi(L, -arr))


def zero_sum_part(vec) -> np.ndarray:
    """Orthogonal projection onto the zero-sum hyperplane."""
    arr = np.atleast_1d(np.asarray(vec, dtype=float))
    return arr - arr.mean()


def action_coordinate(L: LossMatrix, action: str) -> np.ndarray:
    """Zero-sum coordinate from which :func:`canonical_loss` rebuilds a column.

    This is the negated zero-sum part of the loss column; the sign makes
    ``canonical_loss(L, theta, action_coordinate(L, a)) == L(theta, a)``
    whenever action ``a`` is Bayes for some distribution.
    """
    return -zero_sum_part(L.column(action))


def is_achievable(L: LossMatrix, action: str) -> bool:
    """Whether the action is Bayes for some distribution.

    Exactly these actions have canonical coordinates: their column touches
    the entropy, i.e. ``psi`` of the column's zero-sum part equals the
    column mean within ``lp.FEAS_TOL``.
    """
    col = L.column(action)
    return psi(L, zero_sum_part(col)) >= float(col.mean()) - lp.FEAS_TOL


def loss_from_entropy(L: LossMatrix, Q: Distribution) -> np.ndarray:
    """The loss column of the lowest-index Bayes action at ``Q``.

    Viewed as a loss in ``(theta, Q)`` this is proper: reporting the true
    distribution never has larger expected loss than reporting any other.
    """
    w = _weights_over(L, Q, "distribution")
    return L.values[:, _bayes_index(L, w)].copy()


def euler_check(L: LossMatrix, mu: Weighted) -> bool:
    """Check the homogeneous-support identity at ``mu``.

    A Bayes column at ``mu`` pairs to exactly ``entropy(L, mu)``, and the
    same column certifies the entropy at ``0.5 * mu`` and ``2 * mu``, each
    within :data:`ACTIVE_TOL`.
    """
    w = _weights_over(L, mu, "measure")
    col = L.values[:, _bayes_index(L, w)]
    for lam in (1.0, 0.5, 2.0):
        scaled = UnnormalizedMeasure(L.unknowns, lam * w)
        if abs(float(scaled.weights @ col) - entropy(L, scaled)) > ACTIVE_TOL:
            return False
    return True


# ---------------------------------------------------------------------------
# standard losses


def zero_one_loss(unknowns: LabeledSet, actions: LabeledSet | None = None) -> LossMatrix:
    """Penalty 1 for naming the wrong label, 0 for the right one."""
    acts = unknowns if actions is None else actions
    vals = np.array(
        [[0.0 if t == a else 1.0 for a in acts.labels] for t in unknowns.labels]
    )
    return LossMatrix(unknowns, acts, vals)


def log_loss_grid(unknowns: LabeledSet, resolution: int = 64) -> LossMatrix:
    """Negative log likelihood with reports restricted to a simplex lattice.

    Actions are the interior lattice distributions with denominator
    ``resolution`` (every coordinate at least ``1/resolution``), which
    keeps all entries finite.  The induced entropy approximates the
    Shannon entropy from below to second order in the lattice spacing.
    There are ``C(resolution - 1, |T| - 1)`` of them; more than
    :data:`GRID_CAP` raises ``ArgumentError`` before any is built.
    """
    if resolution < len(unknowns):
        raise ArgumentError("resolution must be at least the number of unknowns")
    n = len(unknowns)
    count = math.comb(resolution - 1, n - 1)
    if count > GRID_CAP:
        raise ArgumentError(
            f"log-loss grid with {n} unknowns at resolution {resolution} has "
            f"{count} actions, above GRID_CAP = {GRID_CAP}"
        )
    labels = []
    cols = []
    for cuts in combinations(range(1, resolution), n - 1):
        bounds = (0,) + cuts + (resolution,)
        parts = tuple(bounds[k + 1] - bounds[k] for k in range(n))
        labels.append("q(" + ",".join(f"{k}/{resolution}" for k in parts) + ")")
        cols.append([-math.log(k / resolution) for k in parts])
    return LossMatrix(unknowns, LabeledSet(tuple(labels)), np.array(cols).T)
