"""Pure-Python (numpy) simplex pivot kernel.

This is the fallback lane for the compiled kernel in ``_simplex_cy``.
Both implement exactly the same arithmetic in the same order, so a given
tableau is driven through the same pivot sequence and ends bit-for-bit
identical; keep any change mirrored in the ``.pyx`` twin.

The kernel mutates ``tab`` and ``basis`` in place and only performs the
pivot loop; building the tableau and interpreting the result is the
driver's job (see ``lp.py``).
"""

from __future__ import annotations

import numpy as np

KERNEL_NAME = "pure-python"

#: Return codes of :func:`run_simplex`.
OPTIMAL, UNBOUNDED, ITERATION_LIMIT = 0, 1, 2

#: Consecutive degenerate pivots (minimum ratio ``<= tol``) after which
#: the entering rule falls back from Dantzig's to Bland's until the next
#: non-degenerate pivot.
DEGENERATE_STREAK = 50


def run_simplex(
    tab: np.ndarray,
    basis: np.ndarray,
    n_eligible: int,
    tol: float,
    max_iter: int,
) -> tuple[int, int]:
    """Pivot ``tab`` to optimality; return ``(code, pivots)``.

    ``tab`` is an ``(m+1) x (n+1)`` dense tableau: ``m`` constraint rows,
    one reduced-cost row at the bottom, and the right-hand side in the
    last column.  ``basis`` holds the basic variable of each constraint
    row.  Only columns ``< n_eligible`` may enter the basis (this is how
    phase two excludes artificial columns).

    The entering column is the most negative reduced cost, lowest index
    on ties (Dantzig's rule).  After ``DEGENERATE_STREAK`` degenerate
    pivots in a row it is the lowest-index negative reduced cost
    (Bland's rule) until a pivot makes progress, so the loop cannot
    cycle.  The leaving row is always Bland's.
    """
    m = tab.shape[0] - 1
    n = tab.shape[1] - 1
    rhs = tab[:m, n]
    streak = 0
    for it in range(max_iter):
        costs = tab[m, :n_eligible]
        neg = np.flatnonzero(costs < -tol)
        if neg.size == 0:
            return OPTIMAL, it
        if streak < DEGENERATE_STREAK:
            c = int(neg[np.argmin(costs[neg])])
        else:
            c = int(neg[0])

        col = tab[:m, c]
        positive = col > tol
        if not positive.any():
            return UNBOUNDED, it
        ratios = np.full(m, np.inf)
        ratios[positive] = rhs[positive] / col[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios == best)
        # Bland leaving rule: among minimal ratios, the row whose basic
        # variable has the smallest index.
        r = int(ties[np.argmin(basis[ties])])
        streak = streak + 1 if best <= tol else 0

        tab[r, :] /= tab[r, c]
        factors = tab[:, c].copy()
        factors[r] = 0.0
        tab -= np.outer(factors, tab[r, :])
        basis[r] = c
    return ITERATION_LIMIT, max_iter
