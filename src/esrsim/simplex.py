"""Dense two-phase simplex for LP feasibility on strategy simplices.

Problems are small (hundreds of variables, tens of rows) and deterministic
reproducibility matters most, so this is a dense tableau with Bland's
anti-cycling rule: entering column is the lowest-index negative reduced cost,
leaving row breaks ratio ties by lowest basic-variable index.  The tableau is
built only over the distinct variable columns (the first copy of each
byte-identical column; 105 of the 729 GHZ strategies): copies stay identical
under every column-wise update and Bland's rule enters the lowest index first,
so a later copy never enters and gets weight zero.  Each pivot is vectorized
over the tableau (candidate masks, one division for the ratios, one
broadcast elimination) yet makes the same choices and the same floating-point
operations as an entry-by-entry loop over all columns, so results are
bit-identical to both it and the full-width tableau.
Phase one minimizes the sum of artificial variables; a strictly positive
optimum certifies infeasibility.  No phase-two objective is needed because the
callers only ask for feasibility plus a residual certificate, which is
recomputed independently of the solver's tableau by
:func:`feasibility_residuals`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeasibilityProblem",
    "LPResult",
    "FeasibilityCertificate",
    "solve_lp_simplex",
    "feasibility_residuals",
    "MAX_VARIABLES",
    "MAX_CONSTRAINTS",
]

MAX_VARIABLES = 2000
MAX_CONSTRAINTS = 200
MAX_PIVOTS = 10**6  # a large explicit budget; the default scales with the tableau
_PIVOTS_PER_LINE = 200

_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FeasibilityProblem:
    """Linear feasibility over nonnegative variables.

    Seeks x >= 0 with ``a_eq @ x == b_eq`` and ``a_ub @ x <= b_ub``.  Row
    labels are carried along for residual reports.
    """

    n_vars: int
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    eq_labels: tuple[str, ...] = ()
    ub_labels: tuple[str, ...] = ()

    def __init__(self, n_vars, a_eq=None, b_eq=None, a_ub=None, b_ub=None,
                 eq_labels=None, ub_labels=None):
        n = int(n_vars)
        if n <= 0:
            raise ValueError("n_vars must be positive")

        def _rows(a, b, what):
            if a is None:
                return np.zeros((0, n)), np.zeros(0)
            a = np.asarray(a, dtype=float).reshape(-1, n)
            b = np.asarray(b, dtype=float).reshape(-1)
            if a.shape[0] != b.shape[0]:
                raise ValueError(f"{what}: {a.shape[0]} rows but {b.shape[0]} bounds")
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
                raise ValueError(f"{what}: non-finite coefficients")
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


@dataclass(frozen=True)
class LPResult:
    status: str  # "feasible" | "infeasible"
    x: np.ndarray | None
    phase1_objective: float
    pivots: int

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


@dataclass(frozen=True)
class FeasibilityCertificate:
    """Constraint residuals recomputed from scratch for a candidate point."""

    max_equality_residual: float
    max_inequality_violation: float
    min_variable: float
    worst_row: str

    def satisfied(self, tol: float = _FEAS_TOL, nonneg_tol: float = 1e-12) -> bool:
        return (
            self.max_equality_residual <= tol
            and self.max_inequality_violation <= tol
            and self.min_variable >= -nonneg_tol
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


def solve_lp_simplex(
    problem: FeasibilityProblem,
    max_pivots: int | None = None,
) -> LPResult:
    """Find a feasible point of ``problem`` or certify infeasibility.

    Deterministic for fixed input.  Raises ``ValueError`` when the stated
    dimension bounds are exceeded and ``RuntimeError`` on a phase-one
    unbounded direction or pivot-budget exhaustion (neither should occur on
    simplex-constrained inputs).  The default budget is 200 pivots per row
    and column of the presolved tableau, over 10x the longest path that
    finishes on the GHZ grid, so round-off cycling fails within about a
    second instead of running on.
    """
    if problem.n_vars > MAX_VARIABLES:
        raise ValueError(
            f"problem has {problem.n_vars} variables, bound is {MAX_VARIABLES}"
        )
    if problem.n_constraints > MAX_CONSTRAINTS:
        raise ValueError(
            f"problem has {problem.n_constraints} constraints, bound is {MAX_CONSTRAINTS}"
        )

    m_eq = problem.a_eq.shape[0]
    m_ub = problem.a_ub.shape[0]
    m = m_eq + m_ub
    if m == 0:
        return LPResult("feasible", np.zeros(problem.n_vars), 0.0, 0)

    # Presolve: the first copy of each byte-identical column, in index order.
    stacked = np.vstack([problem.a_eq, problem.a_ub])
    keys = np.ascontiguousarray(stacked.T).view(np.dtype((np.void, stacked.itemsize * m)))
    keep = np.sort(np.unique(keys.ravel(), return_index=True)[1])
    n = keep.size
    n_tot = n + m_ub

    a = np.zeros((m, n_tot))
    a[:, :n] = stacked[:, keep]
    a[m_eq:, n:] = np.eye(m_ub)
    b = np.concatenate([problem.b_eq, problem.b_ub])

    neg = b < 0.0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # Phase-one tableau: artificial basis, cost = sum of artificials.
    tableau = np.zeros((m + 1, n_tot + m + 1))
    tableau[:m, :n_tot] = a
    tableau[:m, n_tot : n_tot + m] = np.eye(m)
    tableau[:m, -1] = b
    # Summed over two or more columns, numpy adds row after row; a lone column
    # would be summed pairwise, in another order, and round differently.
    tableau[m, :n_tot] = -tableau[:m, :-1].sum(axis=0)[:n_tot]
    tableau[m, -1] = -b.sum()
    if max_pivots is None:
        max_pivots = _PIVOTS_PER_LINE * sum(tableau.shape)

    basis = list(range(n_tot, n_tot + m))
    eligible = np.ones(n_tot + m, dtype=bool)
    cost = tableau[m, :-1]

    pivots = 0
    while True:
        candidates = (eligible & (cost < -_PIVOT_TOL)).nonzero()[0]
        if candidates.size == 0:
            break
        entering = int(candidates[0])

        column = tableau[:m, entering]
        rows = (column > _PIVOT_TOL).nonzero()[0]
        ratios = (tableau[rows, -1] / column[rows]).tolist()
        leaving = -1
        best_ratio = np.inf
        for i, ratio in zip(rows.tolist(), ratios):
            if ratio < best_ratio - 1e-15 or (
                abs(ratio - best_ratio) <= 1e-15
                and (leaving < 0 or basis[i] < basis[leaving])
            ):
                best_ratio = ratio
                leaving = i
        if leaving < 0:
            raise RuntimeError("phase-one unbounded: no valid pivot row")

        pivots += 1
        if pivots > max_pivots:
            raise RuntimeError(f"pivot budget {max_pivots} exhausted")

        tableau[leaving, :] /= tableau[leaving, entering]
        factors = tableau[:, entering].copy()
        factors[leaving] = 0.0
        others = factors.nonzero()[0]
        tableau[others] -= factors[others, None] * tableau[leaving]

        left_var = basis[leaving]
        if left_var >= n_tot:
            eligible[left_var] = False  # artificials never re-enter
        basis[leaving] = entering

    objective = -float(tableau[m, -1])
    if objective > _FEAS_TOL:
        return LPResult("infeasible", None, objective, pivots)

    x_full = np.zeros(n_tot)
    for i, var in enumerate(basis):
        if var < n_tot:
            x_full[var] = tableau[i, -1]
    x = np.zeros(problem.n_vars)
    x[keep] = np.maximum(x_full[:n], 0.0)
    return LPResult("feasible", x, max(objective, 0.0), pivots)
