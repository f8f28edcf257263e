"""Dense linear programs and a self-contained simplex solver.

Programs are minimizations ``c @ x`` subject to ``a_eq @ x == b_eq``,
``a_ub @ x <= b_ub`` and ``x >= 0``; every variable is nonnegative, so
a caller writes a free quantity as a shifted or split nonnegative one.
The solver is a dense simplex on a numpy tableau (pivot tolerance
``PIVOT_TOL``, feasibility tolerance ``FEAS_TOL``), built once from the
program's arrays and pivoted in place.  Public ``LinearProgram``
construction copies, checks and freezes its arrays; the library's own
programs skip that (``LinearProgram._unchecked``).  Feasibility is
``solve``'s status.

Every program takes one path to a feasible basis, the cost-modification
dual phase one (Koberstein and Suhl, Comput. Optim. Appl. 37, 2007).
The tableau has only ``<=`` rows: each equality row ``a x = b`` is the
pair ``a x <= b`` and ``-a x <= -b``.  It starts at its slack basis,
with the clipped costs ``max(c, 0)`` in the bottom row, for which that
basis is dual feasible.  A dual simplex (Lemke 1954, rules in
:func:`_dual_simplex`) pivots it to primal feasibility or proves the
program infeasible; a program whose right-hand sides are nonnegative
is feasible at the start and takes no pivot.  The programs the library
builds have only ``<=`` rows, and either ``c >= 0``, so the clipped
costs are the costs, or ``b_ub >= 0``, so phase one takes no pivot.

Then phase two prices the true costs and runs a primal simplex from
the feasible basis.  Its entering column is chosen by exact steepest
edge: among the negative reduced costs ``d_j``, the largest
``d_j**2 / (1 + ||tab[:m, j]||**2)``, read off the dense tableau; the
leaving row is always Bland's.  After ``DEGENERATE_STREAK`` degenerate
pivots in a row either simplex falls back to Bland's rule until a pivot
makes progress, so it cannot cycle.  Every rule breaks ties by index,
so a given program always takes the same pivot path: re-solving an
identical program yields a bit-for-bit identical result.
``LPResult.pivots`` reports the pivots of each phase; the dual simplex
is phase one.

Duals are read off the final tableau.  Every row starts at its slack,
whose reduced cost at the end is minus the row's dual; an equality
row's dual is that of its ``a x <= b`` row minus that of its
``-a x <= -b`` row.  Sign convention for the minimization: duals of
``<=`` constraints are ``<= 0``, duals of equality constraints are
free, and the dual objective ``b_eq @ dual_eq + b_ub @ dual_ub``
equals the primal value at optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError, SolverError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7

#: Consecutive degenerate pivots (minimum ratio ``<= PIVOT_TOL``) after
#: which a simplex falls back to Bland's rule until the next
#: non-degenerate pivot: the primal one for its entering column, the dual
#: one for its leaving row.
DEGENERATE_STREAK = 50

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def active_kernel() -> str:
    """Name of the pivot loop; the numpy tableau is the only one."""
    return "pure-python"


def available_kernels() -> tuple[str, ...]:
    return (active_kernel(),)


def _block(a, b, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a constraint block ``a @ x <= b`` or ``== b``; a missing half has no rows."""
    a_arr = np.zeros((0, n)) if a is None else np.atleast_2d(np.array(a, dtype=float, copy=True))
    b_arr = np.zeros(0) if b is None else np.atleast_1d(np.array(b, dtype=float, copy=True))
    if a_arr.ndim != 2 or b_arr.ndim != 1:
        raise ShapeError(
            f"{what} needs a 2-d matrix and a 1-d right-hand side, "
            f"got {a_arr.ndim}-d and {b_arr.ndim}-d"
        )
    if a_arr.shape[1] != n:
        raise ShapeError(f"{what} matrix has {a_arr.shape[1]} columns, expected {n}")
    if a_arr.shape[0] != b_arr.shape[0]:
        raise ShapeError(
            f"{what} has {a_arr.shape[0]} rows but {b_arr.shape[0]} right-hand sides"
        )
    return a_arr, b_arr


@dataclass(frozen=True)
class LinearProgram:
    """``min c @ x`` s.t. ``a_eq x = b_eq``, ``a_ub x <= b_ub``, ``x >= 0``."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.array(self.c, dtype=float, copy=True))
        n = c.shape[0]
        a_ub, b_ub = _block(self.a_ub, self.b_ub, n, "upper-bound block")
        a_eq, b_eq = _block(self.a_eq, self.b_eq, n, "equality block")
        for name, arr in (
            ("objective", c),
            ("a_ub", a_ub),
            ("b_ub", b_ub),
            ("a_eq", a_eq),
            ("b_eq", b_eq),
        ):
            if not np.all(np.isfinite(arr)):
                raise ArgumentError(f"{name} contains NaN or infinite entries")
        for name, val in (
            ("c", c),
            ("a_ub", a_ub),
            ("b_ub", b_ub),
            ("a_eq", a_eq),
            ("b_eq", b_eq),
        ):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @classmethod
    def _unchecked(cls, c, a_ub, b_ub) -> LinearProgram:
        """A ``<=`` program on float arrays the library built itself: no copy, no checks."""
        p = object.__new__(cls)
        p.__dict__.update(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=np.zeros((0, c.size)), b_eq=np.zeros(0))
        return p

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class LPResult:
    """Outcome of :func:`solve`.

    ``value``, ``primal`` and the dual vectors are ``None`` unless the
    status is optimal.  ``dual_eq`` / ``dual_ub`` follow the constraint
    order of the program.  ``pivots`` counts the pivots of phase one
    (the dual simplex from the slack basis) and of phase two; they
    depend only on the program, not the machine.
    """

    status: str
    value: float | None = None
    primal: np.ndarray | None = None
    dual_eq: np.ndarray | None = None
    dual_ub: np.ndarray | None = None
    pivots: tuple[int, int] = (0, 0)

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def _pivot(tab: np.ndarray, r: int, c: int) -> None:
    tab[r] /= tab[r, c]
    factors = tab[:, c].copy()
    factors[r] = 0.0
    tab -= factors[:, None] * tab[r]


def _run_simplex(tab: np.ndarray, basis: np.ndarray) -> tuple[bool, int]:
    """Pivot ``tab`` to optimality in place; return ``(bounded, pivots)``.

    ``tab`` is an ``(m+1) x (n+1)`` dense tableau: ``m`` constraint rows,
    one reduced-cost row at the bottom, and the right-hand side in the
    last column.  ``basis`` holds the basic variable of each constraint
    row.  Phase two still not optimal after the iteration limit raises
    ``SolverError``.
    """
    m = tab.shape[0] - 1
    n = tab.shape[1] - 1
    rhs = tab[:m, n]
    streak = 0
    max_iter = _max_iter(m, n)
    for it in range(max_iter + 1):
        costs = tab[m, :n]
        neg = (costs < -PIVOT_TOL).nonzero()[0]
        if neg.size == 0:
            return True, it
        if it == max_iter:
            break
        if streak < DEGENERATE_STREAK:
            cols = tab[:m, neg]
            d = costs[neg]
            c = int(neg[(d * d / (1.0 + np.einsum("ij,ij->j", cols, cols))).argmax()])
        else:
            c = int(neg[0])

        col = tab[:m, c]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return False, it
        ratios = rhs[rows] / col[rows]
        k = ratios.argmin()
        best = ratios[k]
        ties = ratios == best
        if np.count_nonzero(ties) > 1:
            # Bland leaving rule: among minimal ratios, the row whose basic
            # variable has the smallest index.
            ties = rows[ties]
            r = int(ties[basis[ties].argmin()])
        else:
            r = int(rows[k])
        streak = streak + 1 if best <= PIVOT_TOL else 0
        _pivot(tab, r, c)
        basis[r] = c
    raise _iteration_limit("phase two", max_iter, tab)


def _iteration_limit(what: str, max_iter: int, tab: np.ndarray) -> SolverError:
    return SolverError(
        f"{what} exceeded the pivot iteration limit "
        f"({max_iter} pivots on a {tab.shape[0]}x{tab.shape[1]} tableau)"
    )


def _dual_simplex(tab: np.ndarray, basis: np.ndarray) -> tuple[bool, int]:
    """Pivot a dual feasible ``tab`` to primal feasibility; return ``(feasible, pivots)``.

    ``tab`` and ``basis`` are as in :func:`_run_simplex`, with reduced
    costs ``d >= 0`` in the bottom row.  A row is infeasible while its
    right-hand side is below ``-PIVOT_TOL``.  An infeasible row with no
    entry ``a_rj < -PIVOT_TOL`` cannot be pivoted: below ``-FEAS_TOL`` it
    proves the program infeasible, and above that it is taken as
    feasible within ``FEAS_TOL``.  Among the other infeasible rows the
    leaving row has the most negative right-hand side, and the entering
    column the minimum ratio ``d_j / -a_rj`` over ``a_rj < -PIVOT_TOL``,
    lowest index on ties, so every ``d`` stays nonnegative.  After
    ``DEGENERATE_STREAK`` pivots of ratio ``<= PIVOT_TOL`` in a row, the
    leaving row is the one whose basic variable has the lowest index
    (Bland's dual rule) until a pivot makes progress.
    """
    m = tab.shape[0] - 1
    n = tab.shape[1] - 1
    rhs = tab[:m, n]
    costs = tab[m, :n]
    streak = 0
    max_iter = _max_iter(m, n)
    for it in range(max_iter + 1):
        rows = (rhs < -PIVOT_TOL).nonzero()[0]
        if rows.size:
            stuck = (tab[rows, :n] >= -PIVOT_TOL).all(axis=1)
            if (rhs[rows[stuck]] < -FEAS_TOL).any():
                return False, it
            rows = rows[~stuck]
        if rows.size == 0:
            return True, it
        if it == max_iter:
            break
        if streak < DEGENERATE_STREAK:
            r = int(rows[rhs[rows].argmin()])
        else:
            r = int(rows[basis[rows].argmin()])
        row = tab[r, :n]
        cols = (row < -PIVOT_TOL).nonzero()[0]
        ratios = costs[cols] / -row[cols]
        k = ratios.argmin()
        streak = streak + 1 if ratios[k] <= PIVOT_TOL else 0
        c = int(cols[k])
        _pivot(tab, r, c)
        basis[r] = c
    raise _iteration_limit("phase one (dual simplex)", max_iter, tab)


def _price(tab: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    """Fill the bottom row of ``tab`` with the reduced costs of ``cost``.

    Each basic row is subtracted, scaled by its column's cost, in row
    order; rows whose basic column costs nothing are skipped.  Basic
    columns are unit columns, so one subtraction leaves the others' costs.
    """
    cb = cost[basis]
    rows = cb.nonzero()[0]
    tab[-1] = np.subtract.reduce(np.vstack([cost, cb[rows, None] * tab[rows]]), axis=0)


def _build(p: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """The simplex tableau of ``p`` at its slack basis, and that basis.

    Every row is a ``<=`` row: each equality row ``a x = b`` becomes the
    pair ``a x <= b`` and ``-a x <= -b``, placed before the ``<=`` rows.
    The columns are the variables, one slack per row and the right-hand
    side; the bottom row holds the clipped costs ``max(c, 0)``, for which
    the slack basis is dual feasible.
    """
    n, n_eq = p.n_vars, p.b_eq.size
    m = 2 * n_eq + p.b_ub.size
    tab = np.zeros((m + 1, n + m + 1))
    tab[:n_eq, :n] = p.a_eq
    tab[n_eq:2 * n_eq, :n] = -p.a_eq
    tab[2 * n_eq:m, :n] = p.a_ub
    tab[np.arange(m), np.arange(n, n + m)] = 1.0
    tab[:n_eq, -1] = p.b_eq
    tab[n_eq:2 * n_eq, -1] = -p.b_eq
    tab[2 * n_eq:m, -1] = p.b_ub
    tab[m, :n] = np.maximum(p.c, 0.0)
    return tab, np.arange(n, n + m)


def _max_iter(m: int, n: int) -> int:
    # No measured phase has taken more than 0.66 (m + n) pivots (divisible
    # size-20 deficiency pairs), so a phase that reaches this limit is not
    # converging; the constant covers programs with a handful of columns.
    return 100 + 10 * (m + n)


def solve(p: LinearProgram) -> LPResult:
    """Solve the program; status is optimal, infeasible or unbounded."""
    tab, basis0 = _build(p)
    m, n_total = tab.shape[0] - 1, tab.shape[1] - 1
    basis = basis0.copy()
    feasible, pivots1 = _dual_simplex(tab, basis)
    if not feasible:
        return LPResult(status=INFEASIBLE, pivots=(pivots1, 0))

    # Phase two: restore the true costs.
    cost = np.zeros(n_total + 1)
    cost[:p.n_vars] = p.c
    _price(tab, basis, cost)
    bounded, pivots2 = _run_simplex(tab, basis)
    pivots = (pivots1, pivots2)
    if not bounded:
        return LPResult(status=UNBOUNDED, pivots=pivots)

    x = np.zeros(n_total)
    x[basis] = tab[:m, n_total]
    primal = x[:p.n_vars]
    # Row i started at its slack basis0[i], which costs nothing; its
    # reduced cost is minus the dual of row i.
    y = cost[basis0] - tab[m, basis0]
    n_eq = p.b_eq.size
    return LPResult(
        status=OPTIMAL,
        value=float(p.c @ primal),
        primal=primal,
        dual_eq=y[:n_eq] - y[n_eq:2 * n_eq],
        dual_ub=y[2 * n_eq:],
        pivots=pivots,
    )


def solve_optimal(p: LinearProgram, what: str) -> LPResult:
    """Solve ``p``, which has an optimum by construction.

    A program that does not solve raises ``SolverError`` naming the
    ``what`` program, its status, its rows x variables and its pivots
    per phase.
    """
    res = solve(p)
    if not res.is_optimal:
        raise SolverError(
            f"{what} program did not solve: {res.status} "
            f"({p.b_eq.size + p.b_ub.size} rows x {p.n_vars} variables, "
            f"{res.pivots[0]} + {res.pivots[1]} pivots)"
        )
    return res
