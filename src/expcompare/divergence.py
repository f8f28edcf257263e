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
monotonicity with a seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._samplers import labeled, random_distribution, random_loss, random_markov
from .core import Distribution, Transition, compose, push
from .errors import ArgumentError, ShapeError
from .loss import LossMatrix, entropy
from .risk import min_bayes_risk

#: Slack for the post-processing monotonicity checks.
DPI_SLACK = 1e-9

_CONVEXITY_GRID = np.linspace(0.0, 4.0, 33)

#: The monotonicity laws :func:`dpi_check` samples.
DPI_KINDS = ("variational", "phi", "mutual_information", "risk_gap")


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
    ``mutual_information`` or ``risk_gap``.  Each trial draws sizes in
    2..4, fresh distributions/experiments and a random post-processing,
    then records by how much the processed quantity exceeds the original
    (a violation when above :data:`DPI_SLACK`).
    """
    if trials < 1:
        raise ArgumentError("trials must be at least 1")
    if kind not in DPI_KINDS:
        raise ArgumentError(f"unknown dpi kind {kind!r}")
    rng = np.random.default_rng(seed)
    kl = PhiSpec.kl() if kind == "phi" else None
    violations = 0
    max_excess = -math.inf
    for _ in range(trials):
        src = labeled("z", int(rng.integers(2, 5)))
        tgt = labeled("w", int(rng.integers(2, 5)))
        f = random_markov(rng, src, tgt)
        if kind in ("variational", "phi"):
            P = random_distribution(rng, src)
            Q = random_distribution(rng, src)
            if kind == "variational":
                excess = variational(push(f, P), push(f, Q)) - variational(P, Q)
            else:
                excess = phi_divergence(kl, push(f, P), push(f, Q)) - phi_divergence(
                    kl, P, Q
                )
        else:
            unknowns = labeled("t", int(rng.integers(2, 5)))
            e = random_markov(rng, unknowns, src)
            pi = random_distribution(rng, unknowns)
            noisy = compose(f, e)
            if kind == "mutual_information":
                excess = mutual_information(noisy, pi) - mutual_information(e, pi)
            else:
                L = random_loss(rng, unknowns, int(rng.integers(2, 5)))
                excess = risk_gap(L, noisy, pi) - risk_gap(L, e, pi)
        if excess > DPI_SLACK:
            violations += 1
        max_excess = max(max_excess, excess)
    return DpiReport(
        kind=kind,
        trials=trials,
        seed=seed,
        violations=violations,
        max_excess=float(max_excess),
    )
