# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled simplex pivot kernel.

Twin of ``_simplex_py.run_simplex``: same pivot selection, same arithmetic
in the same order, so both lanes produce bit-identical tableaus.  Compiled
with ``-ffp-contract=off`` to keep multiply/subtract unfused like numpy.
"""

from libc.stdint cimport int64_t

import numpy as np

from ._simplex_py import DEGENERATE_STREAK

KERNEL_NAME = "compiled"

OPTIMAL, UNBOUNDED, ITERATION_LIMIT = 0, 1, 2


def run_simplex(
    double[:, ::1] tab,
    int64_t[::1] basis,
    Py_ssize_t n_eligible,
    double tol,
    Py_ssize_t max_iter,
):
    """See ``_simplex_py.run_simplex``; this is the compiled lane."""
    cdef Py_ssize_t m = tab.shape[0] - 1
    cdef Py_ssize_t n = tab.shape[1] - 1
    cdef Py_ssize_t streak_limit = DEGENERATE_STREAK
    cdef Py_ssize_t it, i, j, c, r, streak = 0
    cdef int64_t best_label
    cdef double a, ratio, best, piv, f, t, cost

    for it in range(max_iter):
        # Dantzig entering rule (most negative reduced cost, lowest index
        # on ties); Bland's (lowest index) after a degenerate streak.
        c = -1
        cost = 0.0
        for j in range(n_eligible):
            if tab[m, j] < -tol and (c < 0 or tab[m, j] < cost):
                c = j
                cost = tab[m, j]
                if streak >= streak_limit:
                    break
        if c < 0:
            return OPTIMAL, it

        r = -1
        best = 0.0
        best_label = 0
        for i in range(m):
            a = tab[i, c]
            if a > tol:
                ratio = tab[i, n] / a
                if r < 0 or ratio < best or (ratio == best and basis[i] < best_label):
                    r = i
                    best = ratio
                    best_label = basis[i]
        if r < 0:
            return UNBOUNDED, it
        if best <= tol:
            streak += 1
        else:
            streak = 0

        piv = tab[r, c]
        for j in range(n + 1):
            tab[r, j] /= piv
        for i in range(m + 1):
            if i == r:
                continue
            f = tab[i, c]
            if f != 0.0:
                for j in range(n + 1):
                    t = f * tab[r, j]
                    tab[i, j] = tab[i, j] - t
        basis[r] = c
    return ITERATION_LIMIT, max_iter
