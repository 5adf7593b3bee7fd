"""Dense two-phase simplex for LP feasibility on strategy simplices.

Problems are small (hundreds of variables, tens of rows) and deterministic
reproducibility matters most, so this is a dense tableau.  One float pivot
loop prices by Dantzig's rule: the entering column is the most negative
reduced cost, the first index on ties, and the leaving row breaks ratio ties
by lowest basic-variable index.  It starts each ``<=`` row whose bound is
>= 0 on its own slack, so only the equality rows and the rows negated for a
negative bound get an artificial; on a sweeps-range GHZ search, whose
detection floors ``build_feasibility_lp`` writes as such rows, only the
normalization row does, and the loop takes about 10 pivots.  Dantzig's rule
can pivot on an entry just above the pivot tolerance and end at a basis that
is neither feasible nor optimal, so an exact fallback decides any LP on
which the float loop fails: Bland's rule over ``fractions.Fraction``, which
cannot cycle in exact arithmetic (Bland, Math. Oper. Res. 2, 103, 1977).

The tableau is built only over the distinct variable columns (the first copy
of each byte-identical column): copies stay identical under every column-wise
update, keep equal reduced costs, and both rules enter the lowest index among
equals, so a later copy never enters and gets weight zero.  The artificial
columns are left out too: a basic artificial's column stays a unit vector
with zero reduced cost, and one that leaves never re-enters, so no
artificial column is read.

Phase one minimizes the sum of its artificial variables; an optimum above
``FEASIBILITY_TOL`` certifies infeasibility.  No phase-two objective is
needed because the callers only ask for feasibility plus a residual
certificate, which :func:`feasibility_residuals` recomputes from the
problem's rows, independently of the solver's tableau, and which a feasible
:class:`LPResult` carries; the same tolerance gates it and the Farkas check
of a float "infeasible" verdict.
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
    """A verdict; ``certificate`` is the :func:`feasibility_residuals` of a
    feasible ``x`` on the problem solved, None on an infeasible verdict."""

    __slots__ = ("status", "x", "phase1_objective", "pivots", "certificate")

    def __init__(self, status: str, x: np.ndarray | None, phase1_objective: float, pivots: int,
                 certificate: FeasibilityCertificate | None = None):
        object.__setattr__(self, "status", status)  # "feasible" | "infeasible"
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "phase1_objective", phase1_objective)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "certificate", certificate)

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
    """Evaluate every constraint directly; independent of any solver state.

    Each row's value is numpy's own sum of the elementwise products
    ``(a * x).sum(axis=1)``, which adds in a fixed order, not a BLAS
    product, so the residuals do not depend on the BLAS kernel in use.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != problem.n_vars:
        raise ValueError(f"point has {x.shape[0]} entries, expected {problem.n_vars}")

    worst_row = ""
    max_eq = 0.0
    if problem.a_eq.shape[0]:
        eq_res = np.abs((problem.a_eq * x).sum(axis=1) - problem.b_eq)
        i = int(np.argmax(eq_res))
        max_eq = float(eq_res[i])
        worst_row = problem.eq_labels[i] if i < len(problem.eq_labels) else f"eq[{i}]"

    max_ub = 0.0
    if problem.a_ub.shape[0]:
        ub_res = (problem.a_ub * x).sum(axis=1) - problem.b_ub
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

    Deterministic for fixed input.  When the float Dantzig loop raises,
    returns a point that fails :func:`feasibility_residuals` on ``problem``,
    or ends "infeasible" at a basis whose phase-one dual is no Farkas
    certificate, the exact Bland loop decides the LP, and ``pivots`` counts
    both loops.  A feasible result carries the satisfied certificate of its
    point.  Raises ``ValueError`` when the stated dimension bounds are
    exceeded, and ``RuntimeError`` only when the exact loop's point, once
    rounded to floats, fails its certificate.
    """
    if problem.n_vars > MAX_VARIABLES:
        raise ValueError(f"problem has {problem.n_vars} variables, bound is {MAX_VARIABLES}")
    if problem.n_constraints > MAX_CONSTRAINTS:
        raise ValueError(
            f"problem has {problem.n_constraints} constraints, bound is {MAX_CONSTRAINTS}"
        )
    try:
        first = _phase_one(problem)
    except _PivotFailure as failure:
        spent = failure.pivots
    else:
        if not first.feasible:
            return first
        certificate = feasibility_residuals(problem, first.x)
        if certificate.satisfied():
            return LPResult("feasible", first.x, first.phase1_objective, first.pivots, certificate)
        spent = first.pivots
    exact = _exact_phase_one(problem)
    certificate = None
    if exact.feasible:
        certificate = feasibility_residuals(problem, exact.x)
        if not certificate.satisfied():
            raise RuntimeError(
                f"LP point fails its feasibility certificate at {certificate.worst_row!r}"
            )
    return LPResult(exact.status, exact.x, exact.phase1_objective, spent + exact.pivots,
                    certificate)


def _start(problem: FeasibilityProblem) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The phase-one tableau [A | S | b] over the kept variable columns A and
    the slack columns S, each row with a negative bound negated, with a zero
    cost row; the kept columns; and the start basis: each ``<=`` row with a
    bound >= 0 on its slack, every other row i on its artificial, column
    n_tot + i, past the stored columns."""
    m_eq, m_ub = problem.a_eq.shape[0], problem.a_ub.shape[0]
    m = m_eq + m_ub
    # Presolve: the first copy of each byte-identical column, in index order.
    stacked = np.concatenate([problem.a_eq, problem.a_ub])
    keep = _first_distinct_columns(stacked)
    n = keep.size
    n_tot = n + m_ub

    tableau = np.zeros((m + 1, n_tot + 1))
    tableau[:m, :n] = stacked[:, keep]
    tableau[m_eq:m, n:n_tot] = np.eye(m_ub)
    rhs = tableau[:m, -1]
    rhs[:m_eq] = problem.b_eq
    rhs[m_eq:] = problem.b_ub
    negated = rhs < 0.0
    tableau[:m][negated] *= -1.0
    basis = np.arange(n_tot, n_tot + m)
    on_slack = np.flatnonzero(~negated[m_eq:])
    basis[m_eq + on_slack] = n + on_slack
    return tableau, keep, basis.tolist()


def _point(n_vars: int, keep: np.ndarray, basis: list[int], values) -> np.ndarray:
    """The point whose basic variables take ``values``, row by row."""
    x = np.zeros(n_vars)
    for var, value in zip(basis, values):
        if var < keep.size:
            x[keep[var]] = max(value, 0.0)
    return x


def _phase_one(problem: FeasibilityProblem) -> LPResult:
    """The float pivot loop under Dantzig's rule.  Raises
    :class:`_PivotFailure` when it finds no valid pivot row, spends its
    budget of 200 pivots per row and column of the phase-one tableau,
    artificials counted (about 30,000 for the GHZ LP), or ends at an
    "infeasible" basis that :func:`_proves_infeasible` refuses."""
    if problem.n_constraints == 0:
        return LPResult("feasible", np.zeros(problem.n_vars), 0.0, 0)
    tableau, keep, basis = _start(problem)
    m, n_tot = tableau.shape[0] - 1, tableau.shape[1] - 1
    rows = tableau[:m].copy()
    # Only the rows on an artificial enter the phase-one cost.  Summed over
    # two or more columns, numpy adds row after row; a lone column would be
    # summed pairwise, in another order, and round differently.
    cost_rows = rows[np.array(basis) >= n_tot]
    tableau[m, :n_tot] = -cost_rows.sum(axis=0)[:n_tot]
    tableau[m, -1] = -cost_rows[:, -1].sum()
    max_pivots = _PIVOTS_PER_LINE * ((m + 1) + (n_tot + m + 1))
    cost = tableau[m, :n_tot]
    rhs = tableau[:m, -1]

    pivots = 0
    while True:
        entering = int(cost.argmin())
        if not cost[entering] < -_PIVOT_TOL:
            break

        column = tableau[:, entering].tolist()
        ratios = rhs.tolist()
        leaving = -1
        best_ratio = np.inf
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
        basis[leaving] = entering

    objective = -float(tableau[m, -1])
    if objective > FEASIBILITY_TOL:
        if not _proves_infeasible(rows, basis):
            raise _PivotFailure("phase-one optimum fails its infeasibility certificate", pivots)
        return LPResult("infeasible", None, objective, pivots)
    x = _point(problem.n_vars, keep, basis, rhs.tolist())
    return LPResult("feasible", x, max(objective, 0.0), pivots)


def _exact_phase_one(problem: FeasibilityProblem) -> LPResult:
    """Phase one under Bland's rule over the exact values of the float loop's
    rows, columns and start basis: each float converts to a ``Fraction``
    exactly.  The entering column is the lowest-index negative reduced cost,
    the leaving row the least ratio, ties to the lowest basic index.  This
    cannot cycle, and the objective is bounded below by zero, so some row
    always qualifies and the loop ends.  Needs at least one row."""
    from fractions import Fraction

    tableau, keep, basis = _start(problem)
    m, n_tot = tableau.shape[0] - 1, tableau.shape[1] - 1
    rows = [[Fraction(value) for value in row] for row in tableau[:m].tolist()]
    cost = [Fraction(0)] * (n_tot + 1)
    for row, var in zip(rows, basis):
        if var >= n_tot:
            cost = [c - value for c, value in zip(cost, row)]

    pivots = 0
    while (entering := next((j for j in range(n_tot) if cost[j] < 0), None)) is not None:
        leaving = min(
            (i for i in range(m) if rows[i][entering] > 0),
            key=lambda i: (rows[i][-1] / rows[i][entering], basis[i]),
        )
        pivots += 1
        pivot_row = rows[leaving]
        pivot = pivot_row[entering]
        pivot_row[:] = [value / pivot for value in pivot_row]
        nonzero = [(j, value) for j, value in enumerate(pivot_row) if value]
        for row in (*rows, cost):
            factor = row[entering]
            if factor and row is not pivot_row:
                for j, value in nonzero:
                    row[j] -= factor * value
        basis[leaving] = entering

    objective = -cost[-1]
    if objective > FEASIBILITY_TOL:
        return LPResult("infeasible", None, float(objective), pivots)
    x = _point(problem.n_vars, keep, basis, [float(row[-1]) for row in rows])
    return LPResult("feasible", x, float(objective), pivots)
