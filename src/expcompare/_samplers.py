"""Seeded random generators for experiments, priors, rules and losses.

Used by the built-in stochastic checks and by the test suite; everything
draws from a caller-supplied ``numpy.random.Generator`` so results are
reproducible from a single seed.  Both sampled audits check, block and
zero-pad their trials with :func:`trial_count`, :func:`blocks` and :func:`_below`.
"""

from __future__ import annotations

import numpy as np

from .core import Distribution, LabeledSet, Transition, _integer
from .errors import ArgumentError
from .loss import LossMatrix

#: Most trials a sampled audit stacks at once; its memory is bounded by it.
TRIAL_BLOCK = 1024


def trial_count(trials) -> int:
    """A sampled check's ``trials`` as an ``int``: a positive integer, not a bool."""
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ArgumentError("trials must be at least 1")
    return trials


def blocks(trials: int):
    """The sizes of ``trials`` split into blocks of at most :data:`TRIAL_BLOCK`."""
    return (min(TRIAL_BLOCK, trials - s) for s in range(0, trials, TRIAL_BLOCK))


def _below(sizes: list[int]) -> np.ndarray:
    """``mask[b, i] = i < sizes[b]``: the unpadded cells of size-4 axes."""
    return np.arange(4) < np.array(sizes)[:, None]


def labeled(prefix: str, n: int) -> LabeledSet:
    return LabeledSet(tuple(f"{prefix}{i}" for i in range(n)))


def random_distribution(rng: np.random.Generator, space: LabeledSet) -> Distribution:
    return Distribution(space, rng.dirichlet(np.ones(len(space))))


def random_markov(
    rng: np.random.Generator, source: LabeledSet, target: LabeledSet
) -> Transition:
    cols = rng.dirichlet(np.ones(len(target)), size=len(source))
    return Transition(source, target, cols.T)


def random_loss(
    rng: np.random.Generator,
    unknowns: LabeledSet,
    n_actions: int,
    low: float = -1.0,
    high: float = 1.0,
) -> LossMatrix:
    vals = rng.uniform(low, high, size=(len(unknowns), n_actions))
    return LossMatrix(unknowns, labeled("a", n_actions), vals)
