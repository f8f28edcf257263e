"""Trial counts, blocks and draws of the sampled audits.

Both sampled audits check and block their trials with :func:`trial_count`
and :func:`blocks`.  Each block of ``n`` trials is one
``rng.random((n, W))`` call, ``W`` doubles per trial, so trial ``i`` is
the same instance whatever the number of trials or the block split; each
quantity is read from its own slice of the trial's row, zero-padded to 4.
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


def size_masks(u: np.ndarray) -> np.ndarray:
    """``mask[..., i] = i < 2 + floor(3u)``: size-4 axes of sizes uniform on {2, 3, 4}."""
    return np.arange(4) < 2 + (3.0 * u[..., None]).astype(np.intp)


def dirichlet(u: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Flat-Dirichlet columns of a stack ``u[k, rows, cols]`` of doubles in [0, 1).

    Unit exponentials ``-log1p(-u)`` on the unpadded ``cells``, zeros elsewhere,
    over their column sums; a padded column is divided by 1, not by its zero sum.
    """
    x = np.where(cells, -np.log1p(-u), 0.0)
    return x / np.where(cells.any(axis=1), x.sum(axis=1), 1.0)[:, None, :]


def uniform_loss(u: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Losses ``2u - 1``, uniform in ``[-1, 1)``, on the unpadded ``cells``; zeros elsewhere."""
    return np.where(cells, 2.0 * u - 1.0, 0.0)
