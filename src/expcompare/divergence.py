"""Distribution divergences and their risk-gap counterparts.

Total variation here is half the l1 distance.  Convex-ratio divergences
follow the orientation ``sum over P's support of P * phi(Q / P)`` with
the usual limit conventions at zero masses, so the built-in ``kl`` spec
integrates ``Q log(Q / P)`` and is infinite when ``Q`` puts mass where
``P`` has none.

The information carried by an experiment about its unknowns appears as
a *risk gap*: the entropy of the prior minus the optimal Bayes risk.
For the identification loss on two unknowns this is half the variation
between the two outcome distributions; for the log-loss lattice it
approximates the mutual information.  All these quantities can only
shrink under post-processing; :func:`dpi_check` samples that
monotonicity with a seeded generator.  It draws each block of at most
:data:`~expcompare._samplers.TRIAL_BLOCK` trials in one ``rng.random``
call, a fixed number of doubles per trial, and evaluates it as
zero-padded stacks; its violation counts equal those of the per-trial
functions here and its largest excess agrees with theirs within 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._samplers import blocks, dirichlet, size_masks, trial_count, uniform_loss
from .core import EPS_TOL, Distribution, Transition, _clean_weights
from .errors import ArgumentError, ShapeError
from .loss import LossMatrix, entropy
from .risk import _bayes_values, min_bayes_risk

#: Slack for the post-processing monotonicity checks.
DPI_SLACK = 1e-9

_CONVEXITY_GRID = np.linspace(0.0, 4.0, 33)

#: The monotonicity laws :func:`dpi_check` samples.
DPI_KINDS = ("variational", "phi", "mutual_information", "risk_gap")

#: The doubles of one trial of each kind, in the order :func:`dpi_check` gives.
_FIELDS = {"variational": (2, 16, 8), "phi": (2, 16, 8),
           "mutual_information": (3, 16, 16, 4), "risk_gap": (4, 16, 16, 4, 16)}


@dataclass(frozen=True)
class PhiSpec:
    """A convex ratio weight ``phi`` with ``phi(1) = 0`` plus its tail.

    ``tail_slope`` is the per-unit cost of ``Q`` mass outside the support
    of ``P`` (the limit of ``phi(x)/x``, possibly infinite).  Outcomes
    where both masses vanish contribute 0.
    """

    name: str
    phi: Callable[[float], float]
    tail_slope: float = math.inf

    def __post_init__(self) -> None:
        if self.phi(1.0) != 0.0:
            raise ArgumentError(f"phi(1) must be exactly 0, got {self.phi(1.0)!r}")
        vals = [self.phi(float(x)) for x in _CONVEXITY_GRID]
        for i in range(len(vals)):
            for j in range(i, len(vals)):
                mid = self.phi(float((_CONVEXITY_GRID[i] + _CONVEXITY_GRID[j]) / 2.0))
                if mid > 0.5 * (vals[i] + vals[j]) + DPI_SLACK:
                    raise ArgumentError(
                        f"phi fails midpoint convexity near x={_CONVEXITY_GRID[i]:.3g},"
                        f" y={_CONVEXITY_GRID[j]:.3g}"
                    )

    @staticmethod
    def total_variation() -> "PhiSpec":
        return PhiSpec("total_variation", lambda x: abs(x - 1.0), tail_slope=1.0)

    @staticmethod
    def kl() -> "PhiSpec":
        return PhiSpec("kl", lambda x: x * math.log(x) if x > 0.0 else 0.0)

    @staticmethod
    def chi2() -> "PhiSpec":
        return PhiSpec("chi2", lambda x: (x - 1.0) ** 2)


def _check_pair(P: Distribution, Q: Distribution) -> None:
    if P.space != Q.space:
        raise ShapeError("distributions live on different spaces")


def variational(P: Distribution, Q: Distribution) -> float:
    """Total variation distance: half the l1 distance, in [0, 1]."""
    _check_pair(P, Q)
    return 0.5 * float(np.abs(P.weights - Q.weights).sum())


def phi_divergence(spec: PhiSpec, P: Distribution, Q: Distribution) -> float:
    """``sum over P's support of P * phi(Q / P)`` with zero conventions.

    Returns ``inf`` when ``Q`` has mass outside ``P``'s support and the
    spec's tail slope is infinite.  Zero at ``P == Q``; nonnegative.
    """
    _check_pair(P, Q)
    total = 0.0
    for p, q in zip(P.weights, Q.weights):
        if p > 0.0:
            total += p * spec.phi(q / p)
        elif q > 0.0:
            if math.isinf(spec.tail_slope):
                return math.inf
            total += q * spec.tail_slope
    return float(total)


def shannon_entropy(P: Distribution) -> float:
    """Entropy in nats, with ``0 log 0 = 0``."""
    w = P.weights
    positive = w[w > 0.0]
    return float(-(positive * np.log(positive)).sum())


def mutual_information(e: Transition, pi: Distribution) -> float:
    """Prior entropy minus expected posterior entropy, in nats.

    Computed from the joint ``j[z, t] = pi_t e[z, t]`` and its marginal
    ``m`` as ``sum j log(e[z, t] / m_z)`` over the entries with ``j > 0``,
    which needs no posterior.  The entropy difference
    ``H(pi) + H(m) - H(j)`` is the same quantity but loses digits to
    cancellation.
    """
    if pi.space != e.source:
        raise ShapeError("prior space does not match experiment source")
    joint = e.matrix * pi.weights  # joint[z, t]
    z, t = np.nonzero(joint)
    ratio = e.matrix[z, t] / joint.sum(axis=1)[z]
    return float((joint[z, t] * np.log(ratio)).sum())


def risk_gap(L: LossMatrix, e: Transition, pi: Distribution) -> float:
    """Entropy of the prior minus the optimal Bayes risk of the experiment.

    Nonnegative; zero when the experiment is uninformative.  For the
    identification loss on two unknowns under the uniform prior it equals
    half the variation between the two outcome columns; for the log-loss
    lattice it approximates :func:`mutual_information`.
    """
    return entropy(L, pi) - min_bayes_risk(L, e, pi).value


@dataclass(frozen=True)
class DpiReport:
    """Sampled post-processing monotonicity audit for one quantity."""

    kind: str
    trials: int
    seed: int
    violations: int
    max_excess: float  # largest (processed - original); <= slack when the law holds

    @property
    def ok(self) -> bool:
        return self.violations == 0


def dpi_check(kind: str, trials: int, seed: int = 0) -> DpiReport:
    """Sample random instances and post-processings for one monotonicity law.

    ``kind`` is one of ``variational``, ``phi`` (Kullback-Leibler),
    ``mutual_information`` or ``risk_gap``.  Each trial records by how
    much the processed quantity exceeds the original (a violation when
    above :data:`DPI_SLACK`; an undefined ``inf - inf`` excess is neither
    a violation nor a maximum).

    Each block of ``n`` trials of :func:`~expcompare._samplers.blocks` is
    one ``rng.random((n, W))`` call on the generator of ``seed``, ``W``
    doubles per trial: 26 for ``variational`` and ``phi``, 39 for
    ``mutual_information`` and 56 for ``risk_gap``.  A trial's row gives
    its sizes in 2..4 (source, target, unknowns, actions), the
    post-processing's flat-Dirichlet columns (4 x 4), then ``P`` and
    ``Q`` (flat Dirichlet, 4 x 2), or the experiment's columns (4 x 4),
    the prior (flat Dirichlet, 4) and the loss (uniform in ``[-1, 1)``,
    4 x 4); so the first ``t`` trials of any run are the same instances.
    Each block's stacks, pushed and composed stacks included, pass the
    ingestion checks of :class:`~expcompare.core.Transition` and
    :class:`~expcompare.core.Distribution`.  The violation counts equal
    those of the per-trial functions of this module; the largest excess
    agrees with theirs to summation order (within 1e-12).
    """
    trials = trial_count(trials)
    if kind not in DPI_KINDS:
        raise ArgumentError(f"unknown dpi kind {kind!r}")
    rng = np.random.default_rng(seed)
    violations = 0
    max_excess = -math.inf
    for n in blocks(trials):
        excess = _dpi_block(kind, rng, n)
        violations += int(np.count_nonzero(excess > DPI_SLACK))
        max_excess = float(np.fmax.reduce(excess, initial=max_excess))
    return DpiReport(
        kind=kind,
        trials=trials,
        seed=seed,
        violations=violations,
        max_excess=max_excess,
    )


def _dpi_block(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """The excesses of ``n`` trials of ``kind``, drawn in one ``rng.random`` call.

    Trial ``b`` reads row ``b`` in the slices of ``_FIELDS[kind]``, each
    row-major into a stack zero-padded to size 4: ``f[b, w, z]`` is the
    post-processing, ``pq[b, z, :]`` the pair ``P, Q`` as two columns,
    ``e[b, z, t]`` the experiment, ``pi[b, t, 0]`` the prior and
    ``loss[b, t, a]`` the loss.  Padded cells are exact zeros, so they
    add nothing to any sum; padded columns are exempt from the column-sum
    check, padded actions never reach a minimum and padded observations
    are unsupported.
    """
    fields = _FIELDS[kind]
    size, f, *rest = np.split(rng.random((n, sum(fields))), np.cumsum(fields)[:-1], axis=1)
    src, tgt, *more = size_masks(size.T)
    f = dirichlet(f.reshape(n, 4, 4), tgt[:, :, None] & src[:, None, :])
    f = _stochastic(f, src, "transition matrix")
    if kind in ("variational", "phi"):
        pq = _stochastic(dirichlet(rest[0].reshape(n, 4, 2), src[:, :, None]), True,
                         "distribution weights")
        fpq = _stochastic(f @ pq, True, "distribution weights")
        if kind == "variational":
            return _variational(fpq) - _variational(pq)
        return _kl(fpq) - _kl(pq)
    unk = more[0]
    e = _stochastic(dirichlet(rest[0].reshape(n, 4, 4), src[:, :, None] & unk[:, None, :]),
                    unk, "transition matrix")
    pi = _stochastic(dirichlet(rest[1].reshape(n, 4, 1), unk[:, :, None]), True,
                     "distribution weights")[:, None, :, 0]
    noisy = _stochastic(f @ e, unk, "transition matrix")
    if kind == "mutual_information":
        return _information(noisy, pi) - _information(e, pi)
    actions = more[1][:, None, :]
    loss = uniform_loss(rest[2].reshape(n, 4, 4), unk[:, :, None] & actions)
    if not np.isfinite(loss).all():
        raise ArgumentError("loss matrix contains non-finite entries")
    # entropy(L, pi): the Bayes risk with nothing observed; equal for both experiments
    ent = _bayes_values(pi, loss, actions)
    return (ent - _bayes_values(noisy * pi, loss, actions)) - (
        ent - _bayes_values(e * pi, loss, actions)
    )


def _stochastic(m: np.ndarray, columns, what: str) -> np.ndarray:
    """Ingestion of a stack of column-stochastic ``(k, rows, cols)`` matrices.

    The checks of :class:`~expcompare.core.Transition`, once per stack:
    finite entries, none below ``-EPS_TOL``, those below 0 clamped, and
    every column in the mask ``columns[k, cols]`` (``True`` for all)
    summing to 1 within ``EPS_TOL`` and divided by its sum.
    """
    m = _clean_weights(m, what)
    sums = m.sum(axis=1)
    off = (np.abs(sums - 1.0) > EPS_TOL) & columns
    if off.any():
        raise ArgumentError(f"{what} has a column summing to {sums[off][0]:.12g}, not 1")
    return m / np.where(columns, sums, 1.0)[:, None, :]


def _variational(pq: np.ndarray) -> np.ndarray:
    """:func:`variational` of the stacked column pairs ``pq[k, :, (P, Q)]``."""
    return 0.5 * np.abs(pq[:, :, 0] - pq[:, :, 1]).sum(axis=1)


def _kl(pq: np.ndarray) -> np.ndarray:
    """``phi_divergence(PhiSpec.kl(), P, Q)`` of the stacked pairs ``pq[k, :, (P, Q)]``."""
    p, q = pq[:, :, 0], pq[:, :, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = q / p
        terms = np.where(p > 0.0, p * np.where(r > 0.0, r * np.log(r), 0.0), 0.0)
    off_support = ((p == 0.0) & (q > 0.0)).any(axis=1)
    return np.where(off_support, np.inf, terms.sum(axis=1))


def _information(m: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """:func:`mutual_information` of stacked experiments ``m[k, z, t]`` under ``pi[k, 0, t]``."""
    joint = m * pi
    marginal = joint.sum(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(joint > 0.0, joint * np.log(m / marginal), 0.0)
    return terms.reshape(len(m), -1).sum(axis=1)
