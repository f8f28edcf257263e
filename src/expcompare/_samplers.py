"""Trial counts and blocks of the sampled audits.

Both sampled audits check, block and zero-pad their trials with
:func:`trial_count`, :func:`blocks` and :func:`_below`.
"""

from __future__ import annotations

import numpy as np

from .core import _integer
from .errors import ArgumentError

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
