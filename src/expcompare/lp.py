"""Dense linear programs and a self-contained two-phase simplex solver.

Programs are minimizations ``c @ x`` subject to ``a_eq @ x == b_eq``,
``a_ub @ x <= b_ub`` and ``x >= 0`` except where a variable is flagged
free.  The solver is a dense two-phase simplex on a numpy tableau (pivot
tolerance ``PIVOT_TOL``, feasibility tolerance ``FEAS_TOL``).  The
entering column is the most negative reduced cost (Dantzig's rule);
after ``DEGENERATE_STREAK`` degenerate pivots in a row it falls back to
Bland's rule until a pivot makes progress, so it cannot cycle.  The
leaving row is always Bland's.  Phase one starts from a crash basis:
every column that is a unit vector, once rows are signed to nonnegative
right-hand sides, starts basic in its row, and only the rows left over
get artificial columns.  Every rule breaks ties by index, so a given
program always takes the same pivot path: re-solving an identical
program yields a bit-for-bit identical result.  ``LPResult.pivots``
reports the pivots of each phase.

Duals are read off the final tableau.  Every row starts with a unit
column (a crash column or an artificial), whose reduced cost at the end
is its cost minus the row's dual.  Sign convention for the minimization:
duals of ``<=`` constraints are ``<= 0``, duals of equality constraints
are free, and the dual objective ``b_eq @ dual_eq + b_ub @ dual_ub``
equals the primal value at optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError, SolverError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7

#: Consecutive degenerate pivots (minimum ratio ``<= PIVOT_TOL``) after
#: which the entering rule falls back from Dantzig's to Bland's until the
#: next non-degenerate pivot.
DEGENERATE_STREAK = 50

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def active_kernel() -> str:
    """Name of the pivot loop; the numpy tableau is the only one."""
    return "pure-python"


def available_kernels() -> tuple[str, ...]:
    return (active_kernel(),)


def _block(a, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Coerce an (A, b) constraint block, allowing both to be None."""
    a_mat, b_vec = a
    if a_mat is None and b_vec is None:
        return np.zeros((0, n)), np.zeros(0)
    a_arr = np.atleast_2d(np.array(a_mat, dtype=float, copy=True))
    b_arr = np.atleast_1d(np.array(b_vec, dtype=float, copy=True))
    if a_arr.shape[1] != n and a_arr.size > 0:
        raise ShapeError(f"{what} matrix has {a_arr.shape[1]} columns, expected {n}")
    if a_arr.shape[0] != b_arr.shape[0]:
        raise ShapeError(
            f"{what} has {a_arr.shape[0]} rows but {b_arr.shape[0]} right-hand sides"
        )
    return a_arr, b_arr


@dataclass(frozen=True)
class LinearProgram:
    """``min c @ x`` s.t. ``a_eq x = b_eq``, ``a_ub x <= b_ub``, ``x >= 0``.

    Variables listed in ``free`` (boolean mask) are unrestricted in sign;
    they are split into positive and negative parts internally.
    """

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    free: np.ndarray | None = None

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.array(self.c, dtype=float, copy=True))
        n = c.shape[0]
        a_ub, b_ub = _block((self.a_ub, self.b_ub), n, "upper-bound block")
        a_eq, b_eq = _block((self.a_eq, self.b_eq), n, "equality block")
        if self.free is None:
            free = np.zeros(n, dtype=bool)
        else:
            free = np.atleast_1d(np.array(self.free, dtype=bool, copy=True))
            if free.shape != (n,):
                raise ShapeError("free mask length does not match objective")
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
            ("free", free),
        ):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class LPResult:
    """Outcome of :func:`solve`.

    ``value``, ``primal`` and the dual vectors are ``None`` unless the
    status is optimal.  ``dual_eq`` / ``dual_ub`` follow the constraint
    order of the program.  ``pivots`` counts the pivots of phase one
    (including those that drive leftover artificials out of the basis)
    and of phase two; they depend only on the program, not the machine.
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


class _StandardForm:
    """Equality standard form with slacks, split free variables and
    artificial columns arranged after all structural columns.

    Rows are signed so that every right-hand side is nonnegative.  Then
    any column that is a unit vector (a single ``+1``) starts basic in
    its row, the lowest index winning; only rows left without one get an
    artificial column.
    """

    def __init__(self, p: LinearProgram):
        n = p.n_vars
        free_idx = np.flatnonzero(p.free)
        # structural columns: originals, then one negated copy per free var
        a_all = np.vstack([p.a_eq, p.a_ub])
        ext = [a_all] if free_idx.size == 0 else [a_all, -a_all[:, free_idx]]
        a_ext = np.hstack(ext)
        self.c_ext = np.concatenate([p.c, -p.c[free_idx]])
        self.free_idx = free_idx
        self.n_orig = n
        self.n_ext = a_ext.shape[1]

        n_eq = p.a_eq.shape[0]
        n_ub = p.a_ub.shape[0]
        m = n_eq + n_ub
        b = np.concatenate([p.b_eq, p.b_ub])
        slack = np.vstack([np.zeros((n_eq, n_ub)), np.eye(n_ub)])
        rows = np.hstack([a_ext, slack])
        # normalize right-hand sides to be nonnegative, remembering signs
        sign = np.where(b < 0.0, -1.0, 1.0)
        rows *= sign[:, None]
        b = b * sign
        # crash basis: unit columns, lowest index first, one per row
        nonzero = rows != 0.0
        unit = (nonzero.sum(axis=0) == 1) & (rows.sum(axis=0) == 1.0)
        basis = np.full(m, -1, dtype=np.int64)
        for j in np.flatnonzero(unit):
            i = int(np.argmax(nonzero[:, j]))
            if basis[i] < 0:
                basis[i] = j
        # artificial columns for the remaining rows
        needs_art = basis < 0
        n_struct = self.n_ext + n_ub
        art_rows = np.flatnonzero(needs_art)
        k = art_rows.size
        basis[art_rows] = n_struct + np.arange(k)
        art = np.zeros((m, k))
        art[art_rows, np.arange(k)] = 1.0
        self.a_std = np.hstack([rows, art])
        self.b_std = b
        self.sign = sign
        self.n_eq = n_eq
        self.n_ub = n_ub
        self.m = m
        self.n_struct = n_struct
        self.n_total = n_struct + k
        self.basis0 = basis
        self.artificial_rows = needs_art


def _pivot(tab: np.ndarray, r: int, c: int) -> None:
    tab[r, :] /= tab[r, c]
    factors = tab[:, c].copy()
    factors[r] = 0.0
    tab -= np.outer(factors, tab[r, :])


def _run_simplex(
    phase: str, tab: np.ndarray, basis: np.ndarray, n_eligible: int
) -> tuple[bool, int]:
    """Pivot ``tab`` to optimality in place; return ``(bounded, pivots)``.

    ``tab`` is an ``(m+1) x (n+1)`` dense tableau: ``m`` constraint rows,
    one reduced-cost row at the bottom, and the right-hand side in the
    last column.  ``basis`` holds the basic variable of each constraint
    row.  Only columns ``< n_eligible`` may enter the basis (this is how
    phase two excludes artificial columns).  Exceeding the iteration
    limit raises ``SolverError``.
    """
    m = tab.shape[0] - 1
    n = tab.shape[1] - 1
    rhs = tab[:m, n]
    streak = 0
    max_iter = _max_iter(m, n)
    for it in range(max_iter):
        costs = tab[m, :n_eligible]
        neg = np.flatnonzero(costs < -PIVOT_TOL)
        if neg.size == 0:
            return True, it
        if streak < DEGENERATE_STREAK:
            c = int(neg[np.argmin(costs[neg])])
        else:
            c = int(neg[0])

        col = tab[:m, c]
        positive = col > PIVOT_TOL
        if not positive.any():
            return False, it
        ratios = np.full(m, np.inf)
        ratios[positive] = rhs[positive] / col[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios == best)
        # Bland leaving rule: among minimal ratios, the row whose basic
        # variable has the smallest index.
        r = int(ties[np.argmin(basis[ties])])
        streak = streak + 1 if best <= PIVOT_TOL else 0
        _pivot(tab, r, c)
        basis[r] = c
    raise SolverError(
        f"phase {phase} exceeded the pivot iteration limit "
        f"({max_iter} pivots on a {tab.shape[0]}x{tab.shape[1]} tableau)"
    )


def _run_phase1(sf: _StandardForm) -> tuple[np.ndarray, np.ndarray, float, int]:
    m, n_total = sf.m, sf.n_total
    tab = np.zeros((m + 1, n_total + 1))
    tab[:m, :n_total] = sf.a_std
    tab[:m, n_total] = sf.b_std
    basis = sf.basis0.copy()
    # price out the artificial basis (phase-1 cost 1 per artificial)
    obj = np.zeros(n_total + 1)
    obj[sf.n_struct:n_total] = 1.0
    for i in np.flatnonzero(sf.artificial_rows):
        obj -= tab[i, :]
    tab[m, :] = obj
    bounded, pivots = _run_simplex("one", tab, basis, n_total)
    if not bounded:
        raise SolverError(
            f"phase one reported an unbounded objective "
            f"({pivots} pivots on a {m + 1}x{n_total + 1} tableau)"
        )
    return tab, basis, float(-tab[m, n_total]), pivots


def _max_iter(m: int, n: int) -> int:
    return 10_000 + 50 * (m + n)


def feasible(p: LinearProgram) -> bool:
    """Whether the program has any feasible point (phase one only)."""
    sf = _StandardForm(p)
    _, _, infeas, _ = _run_phase1(sf)
    return infeas <= FEAS_TOL


def solve(p: LinearProgram) -> LPResult:
    """Solve the program; status is optimal, infeasible or unbounded."""
    sf = _StandardForm(p)
    m, n_total, n_struct = sf.m, sf.n_total, sf.n_struct
    tab, basis, infeas, pivots1 = _run_phase1(sf)
    if infeas > FEAS_TOL:
        return LPResult(status=INFEASIBLE, pivots=(pivots1, 0))

    # Drive leftover artificials out of the basis where possible; rows with
    # no eligible pivot are redundant and keep a zero-level artificial.
    for i in range(m):
        if basis[i] >= n_struct:
            row = np.abs(tab[i, :n_struct])
            cands = np.flatnonzero(row > PIVOT_TOL)
            if cands.size:
                _pivot(tab, i, int(cands[0]))
                basis[i] = int(cands[0])
                pivots1 += 1

    # Phase two: restore the real objective, keep artificials ineligible.
    obj = np.zeros(n_total + 1)
    obj[: sf.n_ext] = sf.c_ext
    for i in range(m):
        cb = obj[basis[i]]
        if cb != 0.0:
            obj = obj - cb * tab[i, :]
    tab[m, :] = obj
    bounded, pivots2 = _run_simplex("two", tab, basis, n_struct)
    pivots = (pivots1, pivots2)
    if not bounded:
        return LPResult(status=UNBOUNDED, pivots=pivots)

    x_std = np.zeros(n_total)
    x_std[basis] = tab[:m, n_total]
    primal = x_std[: sf.n_orig].copy()
    if sf.free_idx.size:
        primal[sf.free_idx] -= x_std[sf.n_orig : sf.n_ext]
    value = float(p.c @ primal)

    # Row i started with the unit column basis0[i]; its reduced cost is
    # its cost minus the (signed) dual of row i.
    cost_std = np.zeros(n_total)
    cost_std[: sf.n_ext] = sf.c_ext
    y = (cost_std[sf.basis0] - tab[m, sf.basis0]) * sf.sign
    return LPResult(
        status=OPTIMAL,
        value=value,
        primal=primal,
        dual_eq=y[: sf.n_eq],
        dual_ub=y[sf.n_eq :],
        pivots=pivots,
    )
