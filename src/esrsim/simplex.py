"""Dense two-phase simplex for LP feasibility on strategy simplices.

Problems are small (hundreds of variables, tens of rows) and deterministic
reproducibility matters most, so this is a dense tableau.  It prices by
Dantzig's rule first: the entering column is the most negative reduced cost,
the first index on ties.  If that attempt raises, or its point fails
:func:`feasibility_residuals`, or its "infeasible" basis gives a phase-one
dual that, recomputed from the rows as built, is no Farkas certificate, the
solver re-solves with Bland's anti-cycling rule: the entering column is the
lowest-index negative reduced cost.  Under both rules the leaving row breaks
ratio ties by lowest basic-variable index.

The two attempts start from different bases.  The Dantzig attempt starts
each ``<=`` row whose bound is >= 0 on its own slack, so only the equality
rows and the rows negated for a negative bound get an artificial.  The Bland
retry starts every row on an artificial, as the entry-by-entry loop did.
``build_feasibility_lp`` writes its detection floors as ``<=`` rows with
bounds >= 0, so on a sweeps-range GHZ search (tolerance > 0) only the
normalization row starts on an artificial, and the Dantzig attempt takes
about 10 pivots.  Dantzig's rule can still pivot on an entry just above the
pivot tolerance and end at a basis that is neither feasible nor optimal;
Bland's rule prevents cycling only in exact arithmetic, and round-off can
break it too.

The tableau is built only over the distinct variable columns (the first copy
of each byte-identical column): copies stay identical under every column-wise
update, keep equal reduced costs, and both rules enter the lowest index among
equals, so a later copy never enters and gets weight zero.  The presolve
first folds each column's bits into one fingerprint, a wrapping uint64
multiply-add with fixed odd weights.  Equal columns have equal fingerprints,
so when all fingerprints differ every column is distinct and no sort runs;
otherwise one stable lexsort over the columns' bits finds the copies.  The
GHZ search hands the solver one strategy per class of coinciding indicator
rows (105 of the 729, found once per tuple of contexts with the same
presolve); the presolve merges the classes whose LP columns coincide and
keeps the columns, in the order, it keeps over all 729.  The artificial
columns are left out too: a basic artificial's column stays an exact unit
vector with zero reduced cost, and one that leaves never re-enters, so no
artificial column is read.

Each pivot makes the entry-by-entry loop's choices and its floating-point
operations: the ratio test runs over the entering column as Python floats,
and one broadcast multiply and one subtraction eliminate the entering column.
The subtraction also runs over the rows whose entering entry is zero, which
the loop skips; subtracting a zero multiple of a finite row leaves every
value as it was and can only flip the sign of a zero.  A zero's sign reaches
the result only through the right-hand column (the point and the phase-one
objective), so those rows' right-hand zeros are put back.  Results of the
Bland path are therefore bit-identical to the entry-by-entry Bland loop over
the full-width tableau.

One tolerance, ``FEASIBILITY_TOL``, gates both the residual certificate and
the Farkas check of a Dantzig "infeasible" verdict.

Phase one minimizes the sum of its artificial variables; a strictly positive
optimum certifies infeasibility.  No phase-two objective is needed because the
callers only ask for feasibility plus a residual certificate, which is
recomputed independently of the solver's tableau by
:func:`feasibility_residuals`.
"""

from __future__ import annotations

import numpy as np

from .linalg import ARITHMETIC_TOL, Frozen, _checked_int

__all__ = [
    "FeasibilityProblem",
    "LPResult",
    "FeasibilityCertificate",
    "solve_lp_simplex",
    "feasibility_residuals",
    "FEASIBILITY_TOL",
    "MAX_VARIABLES",
    "MAX_CONSTRAINTS",
]

MAX_VARIABLES = 2000
MAX_CONSTRAINTS = 200
_PIVOTS_PER_LINE = 200

_PIVOT_TOL = 1e-10
# Certificate residuals, a Farkas dual's slack; a larger phase-one optimum is infeasible.
FEASIBILITY_TOL = 1e-9


class FeasibilityProblem(Frozen):
    """Linear feasibility over nonnegative variables.

    Seeks x >= 0 with ``a_eq @ x == b_eq`` and ``a_ub @ x <= b_ub``.  Row
    labels are carried along for residual reports.
    """

    __slots__ = ("n_vars", "a_eq", "b_eq", "a_ub", "b_ub", "eq_labels", "ub_labels")

    def __init__(self, n_vars, a_eq=None, b_eq=None, a_ub=None, b_ub=None,
                 eq_labels=None, ub_labels=None):
        n = _checked_int("n_vars", n_vars)
        if n <= 0:
            raise ValueError("n_vars must be positive")

        def _rows(a, b, what):
            if a is None:
                a, b = (), ()
            # Read-only copies: a later write to the caller's arrays cannot
            # get past the finiteness check.
            a = np.array(a, dtype=float).reshape(-1, n)
            b = np.array(b, dtype=float).reshape(-1)
            if a.shape[0] != b.shape[0]:
                raise ValueError(f"{what}: {a.shape[0]} rows but {b.shape[0]} bounds")
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise ValueError(f"{what}: non-finite coefficients")
            a.setflags(write=False)
            b.setflags(write=False)
            return a, b

        a_eq, b_eq = _rows(a_eq, b_eq, "equalities")
        a_ub, b_ub = _rows(a_ub, b_ub, "inequalities")
        object.__setattr__(self, "n_vars", n)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "a_ub", a_ub)
        object.__setattr__(self, "b_ub", b_ub)
        object.__setattr__(self, "eq_labels", tuple(eq_labels or ()))
        object.__setattr__(self, "ub_labels", tuple(ub_labels or ()))

    @property
    def n_constraints(self) -> int:
        return self.a_eq.shape[0] + self.a_ub.shape[0]


class LPResult(Frozen):
    __slots__ = ("status", "x", "phase1_objective", "pivots")

    def __init__(self, status: str, x: np.ndarray | None, phase1_objective: float, pivots: int):
        object.__setattr__(self, "status", status)  # "feasible" | "infeasible"
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "phase1_objective", phase1_objective)
        object.__setattr__(self, "pivots", pivots)

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


class FeasibilityCertificate(Frozen):
    """Constraint residuals recomputed from scratch for a candidate point."""

    __slots__ = ("max_equality_residual", "max_inequality_violation", "min_variable", "worst_row")

    def __init__(self, max_equality_residual: float, max_inequality_violation: float,
                 min_variable: float, worst_row: str):
        object.__setattr__(self, "max_equality_residual", max_equality_residual)
        object.__setattr__(self, "max_inequality_violation", max_inequality_violation)
        object.__setattr__(self, "min_variable", min_variable)
        object.__setattr__(self, "worst_row", worst_row)

    def satisfied(self) -> bool:
        return (
            self.max_equality_residual <= FEASIBILITY_TOL
            and self.max_inequality_violation <= FEASIBILITY_TOL
            and self.min_variable >= -ARITHMETIC_TOL
        )


def feasibility_residuals(problem: FeasibilityProblem, x) -> FeasibilityCertificate:
    """Evaluate every constraint directly; independent of any solver state."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != problem.n_vars:
        raise ValueError(f"point has {x.shape[0]} entries, expected {problem.n_vars}")

    worst_row = ""
    max_eq = 0.0
    if problem.a_eq.shape[0]:
        eq_res = np.abs(problem.a_eq @ x - problem.b_eq)
        i = int(np.argmax(eq_res))
        max_eq = float(eq_res[i])
        worst_row = problem.eq_labels[i] if i < len(problem.eq_labels) else f"eq[{i}]"

    max_ub = 0.0
    if problem.a_ub.shape[0]:
        ub_res = problem.a_ub @ x - problem.b_ub
        i = int(np.argmax(ub_res))
        if float(ub_res[i]) > max_eq:
            worst_row = problem.ub_labels[i] if i < len(problem.ub_labels) else f"ub[{i}]"
        max_ub = max(0.0, float(ub_res[i]))

    return FeasibilityCertificate(
        max_equality_residual=max_eq,
        max_inequality_violation=max_ub,
        min_variable=float(np.min(x)) if x.size else 0.0,
        worst_row=worst_row,
    )


def _fingerprint_weights(rows: int) -> np.ndarray:
    """Fixed odd uint64 weights, one per row: the powers of an odd constant."""
    return np.full(rows, 0x9E3779B97F4A7C15, dtype=np.uint64).cumprod()


def _first_distinct_columns(a: np.ndarray) -> np.ndarray:
    """Sorted index of the first copy of each byte-identical column of the
    float array ``a``.

    A fast exit first takes one fingerprint per column: each entry's bits,
    the high half xor-ed onto the low half so that the sign and exponent
    reach the low bits, summed with fixed odd weights in wrapping uint64
    arithmetic.  Equal columns have equal fingerprints, so when all
    fingerprints differ every column is distinct and the answer is every
    index.  Otherwise a stable lexsort over the columns' bits puts the
    copies side by side, each run in index order, so each run's first entry
    is its first copy.
    """
    words = a.view(np.uint64)
    fingerprints = _fingerprint_weights(a.shape[0]) @ (words ^ (words >> np.uint64(32)))
    fingerprints.sort()
    if (fingerprints[1:] != fingerprints[:-1]).all():
        return np.arange(a.shape[1])
    bits = a.view(np.int64)
    order = np.lexsort(bits)
    grouped = bits[:, order]
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    np.any(grouped[:, 1:] != grouped[:, :-1], axis=0, out=first[1:])
    return np.sort(order[first])


def _proves_infeasible(rows: np.ndarray, basis: list[int]) -> bool:
    """Whether the phase-one dual y of ``basis`` is a Farkas certificate.

    ``rows`` are the phase-one rows [A | b] as built, a row with a negative
    bound negated, where A holds the variable and slack columns; y solves
    B^T y = c_B over the basic columns of [A | I], where an artificial costs
    1.  By Farkas' lemma, y.A <= 0 and y.b > 0 leave no x >= 0 with A x = b;
    both are checked within ``FEASIBILITY_TOL``.  An artificial's own column
    is not checked: one that has left the basis is never priced again, and a
    row that started on its slack has none.
    """
    m, width = rows.shape
    a, b = rows[:, :-1], rows[:, -1]
    basic = np.array(basis)
    artificial = basic >= width - 1
    matrix = np.zeros((m, m))
    matrix[:, ~artificial] = a[:, basic[~artificial]]
    matrix[basic[artificial] - (width - 1), artificial.nonzero()[0]] = 1.0
    try:
        y = np.linalg.solve(matrix.T, artificial.astype(float))
    except np.linalg.LinAlgError:  # a singular basis proves nothing
        return False
    return bool(y @ b > FEASIBILITY_TOL and (y @ a).max() <= FEASIBILITY_TOL)


class _PivotFailure(RuntimeError):
    """A pivot loop that stopped without a verdict, with the pivots it made."""

    def __init__(self, message: str, pivots: int):
        super().__init__(message)
        self.pivots = pivots


def solve_lp_simplex(problem: FeasibilityProblem) -> LPResult:
    """Find a feasible point of ``problem`` or certify infeasibility.

    Deterministic for fixed input.  Prices by Dantzig's rule first; if that
    attempt raises, returns a point that fails :func:`feasibility_residuals`
    on ``problem``, or ends "infeasible" at a basis whose phase-one dual is
    no Farkas certificate, re-solves with Bland's rule, and ``pivots``
    counts both attempts.  Raises ``ValueError`` when the stated dimension
    bounds are exceeded and ``RuntimeError`` when the Bland attempt meets a
    phase-one unbounded direction, exhausts its pivot budget or ends at a
    point that fails its certificate.  Each attempt gets a budget of 200
    pivots per row and column of the presolved phase-one tableau, artificial
    columns counted: about 30,000 for the GHZ LP, over 10x the longest Bland
    path that finishes on the GHZ grid.  So round-off cycling fails within
    about half a second on a 2-CPU Linux machine instead of running on.
    """
    if problem.n_vars > MAX_VARIABLES:
        raise ValueError(f"problem has {problem.n_vars} variables, bound is {MAX_VARIABLES}")
    if problem.n_constraints > MAX_CONSTRAINTS:
        raise ValueError(
            f"problem has {problem.n_constraints} constraints, bound is {MAX_CONSTRAINTS}"
        )
    try:
        first = _phase_one(problem, None, dantzig=True)
    except _PivotFailure as failure:
        spent = failure.pivots
    else:
        if not first.feasible or feasibility_residuals(problem, first.x).satisfied():
            return first
        spent = first.pivots
    retry = _phase_one(problem, None, dantzig=False)
    if retry.feasible:
        certificate = feasibility_residuals(problem, retry.x)
        if not certificate.satisfied():
            raise RuntimeError(
                f"LP point fails its feasibility certificate at {certificate.worst_row!r}"
            )
    return LPResult(retry.status, retry.x, retry.phase1_objective, spent + retry.pivots)


def _phase_one(problem: FeasibilityProblem, max_pivots: int | None, dantzig: bool) -> LPResult:
    """One phase-one pivot loop.  The entering column is the most negative
    reduced cost, first index on ties (Dantzig), or the first negative one
    (Bland); the leaving row is the same ratio test under both rules.  The
    Dantzig loop starts each ``<=`` row with a bound >= 0 on its slack, the
    Bland loop every row on an artificial.  ``max_pivots`` of None is the
    default budget of :func:`solve_lp_simplex`.  Raises
    :class:`_PivotFailure` when the loop stops without a verdict."""
    m_eq = problem.a_eq.shape[0]
    m_ub = problem.a_ub.shape[0]
    m = m_eq + m_ub
    if m == 0:
        return LPResult("feasible", np.zeros(problem.n_vars), 0.0, 0)

    # Presolve: the first copy of each byte-identical column, in index order.
    stacked = np.vstack([problem.a_eq, problem.a_ub])
    keep = _first_distinct_columns(stacked)
    n = keep.size
    n_tot = n + m_ub

    # Phase-one tableau over the variable and slack columns: the artificial
    # basis (cost = sum of artificials) keeps no columns of its own.
    tableau = np.zeros((m + 1, n_tot + 1))
    tableau[:m, :n] = stacked[:, keep]
    tableau[m_eq:m, n:n_tot] = np.eye(m_ub)
    rhs = tableau[:m, -1]
    rhs[:m_eq] = problem.b_eq
    rhs[m_eq:] = problem.b_ub
    negated = rhs < 0.0
    tableau[:m][negated] *= -1.0
    # Row i's artificial is column n_tot + i.  The Dantzig attempt starts each
    # <= row with a bound >= 0 on its slack instead, and only the rows with an
    # artificial enter the phase-one cost.
    start = np.arange(n_tot, n_tot + m)
    if dantzig:
        on_slack = np.flatnonzero(~negated[m_eq:])
        start[m_eq + on_slack] = n + on_slack
    basis = start.tolist()
    cost_rows = tableau[:m][start >= n_tot] if dantzig else tableau[:m]
    # Summed over two or more columns, numpy adds row after row; a lone column
    # would be summed pairwise, in another order, and round differently.
    tableau[m, :n_tot] = -cost_rows.sum(axis=0)[:n_tot]
    tableau[m, -1] = -cost_rows[:, -1].sum()
    rows = tableau[:m].copy() if dantzig else None
    if max_pivots is None:
        # Rows plus columns of the phase-one tableau, artificials counted.
        max_pivots = _PIVOTS_PER_LINE * ((m + 1) + (n_tot + m + 1))

    cost = tableau[m, :n_tot]

    pivots = 0
    while True:
        if dantzig:
            entering = int(cost.argmin())
            if not cost[entering] < -_PIVOT_TOL:
                break
        else:
            below = cost < -_PIVOT_TOL
            entering = int(below.argmax())
            if not below[entering]:
                break

        column = tableau[:, entering].tolist()
        ratios = rhs.tolist()
        leaving = -1
        best_ratio = np.inf
        signed_zeros = []
        for i in range(m):
            c = column[i]
            if c > _PIVOT_TOL:
                ratio = ratios[i] / c
                if ratio < best_ratio - 1e-15 or (
                    abs(ratio - best_ratio) <= 1e-15
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
            elif c == 0.0 and ratios[i] == 0.0:
                signed_zeros.append(i)
        if leaving < 0:
            raise _PivotFailure("phase-one unbounded: no valid pivot row", pivots)
        if pivots >= max_pivots:
            raise _PivotFailure(f"pivot budget {max_pivots} exhausted", pivots)

        pivots += 1

        pivot_row = tableau[leaving]
        pivot_row /= column[leaving]
        update = tableau[:, entering, None] * pivot_row
        update[leaving] = 0.0
        tableau -= update
        for i in signed_zeros:  # rows the entry-by-entry loop leaves alone
            rhs[i] = ratios[i]
        basis[leaving] = entering

    objective = -float(tableau[m, -1])
    if objective > FEASIBILITY_TOL:
        if dantzig and not _proves_infeasible(rows, basis):
            raise _PivotFailure("phase-one optimum fails its infeasibility certificate", pivots)
        return LPResult("infeasible", None, objective, pivots)

    x_full = np.zeros(n_tot)
    for i, var in enumerate(basis):
        if var < n_tot:
            x_full[var] = tableau[i, -1]
    x = np.zeros(problem.n_vars)
    x[keep] = np.maximum(x_full[:n], 0.0)
    return LPResult("feasible", x, max(objective, 0.0), pivots)
