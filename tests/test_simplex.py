"""Two-phase simplex: trivial cases, certificates, determinism, scipy oracle,
bit equivalence of the Bland path with the scalar Bland loop, the column
presolve, the default pivot budget and Dantzig pricing with its Bland retry."""

import re

import numpy as np
import pytest
from scipy.optimize import linprog

from esrsim import simplex
from esrsim.correlations import (
    GHZ_CONTEXTS,
    GHZScenario,
    ghz_local_model_search,
    ghz_quantum_correlations,
)
from esrsim.hidden_variables import (
    CorrelationTarget,
    build_feasibility_lp,
    enumerate_local_strategies,
)
from esrsim.linalg import ARITHMETIC_TOL
from esrsim.simplex import (
    FEASIBILITY_TOL,
    MAX_CONSTRAINTS,
    MAX_VARIABLES,
    FeasibilityCertificate,
    FeasibilityProblem,
    LPResult,
    feasibility_residuals,
    solve_lp_simplex,
)

MAX_PIVOTS = 10**6  # a large explicit budget; the default scales with the tableau


def _solve_bland(problem, max_pivots=None):
    """The solver's Bland path alone, with no Dantzig attempt and no
    certificate check: the retry of ``solve_lp_simplex``."""
    return simplex._phase_one(problem, max_pivots, dantzig=False)


def _simplex_problem(n, extra_eq=None, extra_b=None, a_ub=None, b_ub=None):
    rows = [np.ones(n)]
    b = [1.0]
    if extra_eq is not None:
        rows.extend(np.atleast_2d(extra_eq))
        b.extend(np.atleast_1d(extra_b))
    return FeasibilityProblem(
        n_vars=n, a_eq=np.vstack(rows), b_eq=np.asarray(b), a_ub=a_ub, b_ub=b_ub
    )


class TestTrivialProblems:
    def test_single_variable(self):
        result = solve_lp_simplex(_simplex_problem(1))
        assert result.feasible
        assert result.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_equalities(self):
        # x1 + x2 = 1, x1 - x2 = 1, x >= 0 -> (1, 0)
        result = solve_lp_simplex(
            _simplex_problem(2, extra_eq=[[1.0, -1.0]], extra_b=[1.0])
        )
        assert result.feasible
        np.testing.assert_allclose(result.x, [1.0, 0.0], atol=1e-12)

    def test_infeasible_equalities(self):
        # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold.
        result = solve_lp_simplex(
            _simplex_problem(2, extra_eq=[[1.0, 1.0]], extra_b=[2.0])
        )
        assert not result.feasible
        assert result.phase1_objective > 1e-9

    def test_inequality_handling(self):
        # x1 + x2 = 1 with x1 <= 0.25 forces x2 >= 0.75.
        problem = _simplex_problem(2, a_ub=[[1.0, 0.0]], b_ub=[0.25])
        result = solve_lp_simplex(problem)
        assert result.feasible
        assert result.x[0] <= 0.25 + 1e-12
        cert = feasibility_residuals(problem, result.x)
        assert cert.satisfied()

    def test_geq_encoded_as_negated_leq(self):
        # x1 >= 0.75 on the simplex.
        problem = _simplex_problem(2, a_ub=[[-1.0, 0.0]], b_ub=[-0.75])
        result = solve_lp_simplex(problem)
        assert result.feasible
        assert result.x[0] >= 0.75 - 1e-12

    def test_no_constraints(self):
        result = solve_lp_simplex(FeasibilityProblem(n_vars=3))
        assert result.feasible
        np.testing.assert_array_equal(result.x, np.zeros(3))


class TestCertificates:
    def test_residuals_are_independent_recomputation(self):
        problem = _simplex_problem(4, extra_eq=[[1.0, -1.0, 0.0, 0.0]], extra_b=[0.2])
        result = solve_lp_simplex(problem)
        assert result.feasible
        cert = feasibility_residuals(problem, result.x)
        assert cert.max_equality_residual <= 1e-9
        assert cert.max_inequality_violation <= 1e-9
        assert cert.min_variable >= -1e-12
        assert cert.satisfied()

    def test_certificate_thresholds_are_the_named_tolerances(self):
        def cert(eq=0.0, ub=0.0, low=0.0):
            return FeasibilityCertificate(eq, ub, low, "")

        assert cert(eq=FEASIBILITY_TOL, ub=FEASIBILITY_TOL, low=-ARITHMETIC_TOL).satisfied()
        assert not cert(eq=np.nextafter(FEASIBILITY_TOL, 1.0)).satisfied()
        assert not cert(ub=np.nextafter(FEASIBILITY_TOL, 1.0)).satisfied()
        assert not cert(low=np.nextafter(-ARITHMETIC_TOL, -1.0)).satisfied()

    def test_certificate_flags_bad_point(self):
        problem = _simplex_problem(3)
        cert = feasibility_residuals(problem, np.array([0.5, 0.1, 0.1]))
        assert not cert.satisfied()
        assert cert.max_equality_residual == pytest.approx(0.3, abs=1e-12)


class TestDeterminismAndBounds:
    def test_same_input_same_output(self, rng):
        a_eq = rng.normal(size=(3, 10))
        b_eq = a_eq @ (np.ones(10) / 10)  # feasible by construction
        problem = FeasibilityProblem(
            n_vars=10,
            a_eq=np.vstack([np.ones(10), a_eq]),
            b_eq=np.concatenate([[1.0], b_eq]),
        )
        r1 = solve_lp_simplex(problem)
        r2 = solve_lp_simplex(problem)
        assert r1.feasible and r2.feasible
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.pivots == r2.pivots

    def test_variable_bound(self):
        with pytest.raises(ValueError, match="variables"):
            solve_lp_simplex(FeasibilityProblem(n_vars=MAX_VARIABLES + 1))

    def test_constraint_bound(self):
        n = 4
        rows = np.ones((MAX_CONSTRAINTS + 1, n))
        problem = FeasibilityProblem(
            n_vars=n, a_eq=rows, b_eq=np.ones(MAX_CONSTRAINTS + 1)
        )
        with pytest.raises(ValueError, match="constraints"):
            solve_lp_simplex(problem)

    def test_pivot_budget_guard(self, monkeypatch):
        # A zero budget per line leaves both attempts no pivot to make.
        problem = _simplex_problem(5, extra_eq=[[1.0, 0.0, 0.0, 0.0, -1.0]], extra_b=[0.5])
        monkeypatch.setattr(simplex, "_PIVOTS_PER_LINE", 0)
        with pytest.raises(RuntimeError, match="pivot budget 0 exhausted"):
            solve_lp_simplex(problem)


class TestAgainstScipy:
    def test_random_feasibility_verdicts_match(self, rng):
        # Random simplex-constrained problems; verdicts must agree with HiGHS.
        for trial in range(40):
            n = int(rng.integers(3, 25))
            k = int(rng.integers(1, 5))
            a = rng.normal(size=(k, n))
            if trial % 2 == 0:
                # Feasible by construction: b from a random simplex point.
                point = rng.random(n)
                point /= point.sum()
                b = a @ point
            else:
                b = rng.normal(size=k) * 10.0  # usually infeasible
            problem = FeasibilityProblem(
                n_vars=n,
                a_eq=np.vstack([np.ones(n), a]),
                b_eq=np.concatenate([[1.0], b]),
            )
            ours = solve_lp_simplex(problem)
            ref = linprog(
                c=np.zeros(n),
                A_eq=np.vstack([np.ones(n), a]),
                b_eq=np.concatenate([[1.0], b]),
                bounds=[(0, None)] * n,
                method="highs",
            )
            assert ours.feasible == ref.success
            if ours.feasible:
                assert feasibility_residuals(problem, ours.x).satisfied()

    def test_random_problems_with_inequalities_match(self, rng):
        for _ in range(40):
            n = int(rng.integers(3, 20))
            k_eq = int(rng.integers(0, 3))
            k_ub = int(rng.integers(1, 4))
            a_eq = rng.normal(size=(k_eq, n))
            a_ub = rng.normal(size=(k_ub, n))
            point = rng.random(n)
            point /= point.sum()
            # Half the trials are feasible at `point`; the rest get shifted
            # bounds that usually cut the point off.
            slack = rng.random(k_ub) * (1.0 if rng.random() < 0.5 else -1.0)
            b_eq = a_eq @ point
            b_ub = a_ub @ point + slack
            problem = FeasibilityProblem(
                n_vars=n,
                a_eq=np.vstack([np.ones(n), a_eq]) if k_eq else np.ones((1, n)),
                b_eq=np.concatenate([[1.0], b_eq]) if k_eq else np.ones(1),
                a_ub=a_ub,
                b_ub=b_ub,
            )
            ours = solve_lp_simplex(problem)
            ref = linprog(
                c=np.zeros(n),
                A_eq=problem.a_eq,
                b_eq=problem.b_eq,
                A_ub=a_ub,
                b_ub=b_ub,
                bounds=[(0, None)] * n,
                method="highs",
            )
            assert ours.feasible == ref.success
            if ours.feasible:
                assert feasibility_residuals(problem, ours.x).satisfied()


def _scalar_bland_oracle(problem, feas_tol=1e-9, max_pivots=10**6):
    """The element-by-element Bland loop the solver used before its pivots
    were vectorized; kept only as a bit-for-bit reference.

    Returns ``(LPResult, ties)``; ``ties`` counts ratio-test rows that fell
    within 1e-15 of the running best, i.e. reached the basic-index rule.
    """
    tol = 1e-10
    n = problem.n_vars
    m_eq = problem.a_eq.shape[0]
    m_ub = problem.a_ub.shape[0]
    m = m_eq + m_ub
    n_tot = n + m_ub
    if m == 0:
        return LPResult("feasible", np.zeros(n), 0.0, 0), 0

    a = np.zeros((m, n_tot))
    b = np.zeros(m)
    a[:m_eq, :n] = problem.a_eq
    b[:m_eq] = problem.b_eq
    a[m_eq:, :n] = problem.a_ub
    a[m_eq:, n:n_tot] = np.eye(m_ub)
    b[m_eq:] = problem.b_ub
    neg = b < 0.0
    a[neg] *= -1.0
    b[neg] *= -1.0

    tableau = np.zeros((m + 1, n_tot + m + 1))
    tableau[:m, :n_tot] = a
    tableau[:m, n_tot:n_tot + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n_tot] = -a.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = list(range(n_tot, n_tot + m))
    eligible = np.ones(n_tot + m, dtype=bool)

    pivots = 0
    ties = 0
    while True:
        reduced = tableau[m, :n_tot + m]
        entering = -1
        for j in range(n_tot + m):
            if eligible[j] and reduced[j] < -tol:
                entering = j
                break
        if entering < 0:
            break

        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            coeff = tableau[i, entering]
            if coeff > tol:
                ratio = tableau[i, -1] / coeff
                if leaving >= 0 and abs(ratio - best_ratio) <= 1e-15:
                    ties += 1
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

        pivot = tableau[leaving, entering]
        tableau[leaving, :] /= pivot
        for i in range(m + 1):
            if i != leaving and tableau[i, entering] != 0.0:
                tableau[i, :] -= tableau[i, entering] * tableau[leaving, :]

        left_var = basis[leaving]
        if left_var >= n_tot:
            eligible[left_var] = False
        basis[leaving] = entering

    objective = -float(tableau[m, -1])
    if objective > feas_tol:
        return LPResult("infeasible", None, objective, pivots), ties
    x_full = np.zeros(n_tot)
    for i, var in enumerate(basis):
        if var < n_tot:
            x_full[var] = tableau[i, -1]
    x = np.maximum(x_full[:n], 0.0)
    return LPResult("feasible", x, max(objective, 0.0), pivots), ties


def _fields(result):
    """Result fields with the point as exact bytes."""
    x = None if result.x is None else result.x.tobytes()
    return (result.status, result.pivots, result.phase1_objective, x)


def _outcome(solve, problem, max_pivots):
    try:
        return _fields(solve(problem, max_pivots=max_pivots))
    except RuntimeError as exc:
        return ("error", str(exc))


def _oracle(problem, max_pivots):
    return _scalar_bland_oracle(problem, max_pivots=max_pivots)[0]


def _ghz_targets(tolerance):
    return [
        CorrelationTarget(settings=ctx, value=value, tolerance=tolerance)
        for ctx, value in zip(GHZ_CONTEXTS, ghz_quantum_correlations(GHZScenario.standard()))
    ]


def _ghz_problem(min_efficiency, tolerance, min_joint_detection):
    """The standard GHZ LP with each detection floor negated by hand,
    -det_c.w <= -j and -marg.w <= -eta, as ``bench/oracle.py`` writes it.

    ``build_feasibility_lp`` writes the same floors as ceilings on the
    undetected mass; this form keeps every row on an artificial at the start
    and gives the long, cycling and round-off-failing Bland paths that the
    tests below pin."""
    outcomes = enumerate_local_strategies(parties=3, settings=2)
    base = build_feasibility_lp(outcomes, _ghz_targets(tolerance), min_joint_detection=0.0)
    rows, bounds, labels = list(base.a_ub), list(base.b_ub), list(base.ub_labels)
    if min_joint_detection > 0.0:
        for ctx in GHZ_CONTEXTS:
            rows.append(-np.all(outcomes[:, [0, 1, 2], list(ctx)] != 0, axis=1).astype(float))
            bounds.append(-min_joint_detection)
            labels.append(f"joint-detection{ctx}>={min_joint_detection}")
    if min_efficiency > 0.0:
        for party in range(3):
            for setting in range(2):
                rows.append(-(outcomes[:, party, setting] != 0).astype(float))
                bounds.append(-min_efficiency)
                labels.append(f"efficiency[party={party},setting={setting}]>={min_efficiency}")
    return FeasibilityProblem(
        n_vars=base.n_vars,
        a_eq=base.a_eq,
        b_eq=base.b_eq,
        a_ub=np.vstack(rows) if rows else None,
        b_ub=np.asarray(bounds) if rows else None,
        eq_labels=base.eq_labels,
        ub_labels=labels,
    )


class TestBitEquivalenceWithScalarOracle:
    """The Bland path's vectorized pivots make the same choices and the same
    floating-point operations as the scalar loop, so every output matches
    to the bit."""

    # 300 of the 369 grid LPs finish within this budget. The rest need up to
    # ~2,200 pivots, cycle under the 1e-15 tie rule or hit a numerically
    # unbounded phase one; both solvers must then fail alike.
    BUDGET = 250

    @pytest.mark.parametrize("min_joint_detection", [0.0, 1e-6, 0.3])
    @pytest.mark.parametrize("tolerance", [0.0, 1e-6, 1e-3])
    def test_ghz_grid(self, tolerance, min_joint_detection):
        for min_efficiency in np.linspace(0.0, 1.0, 41):
            problem = _ghz_problem(float(min_efficiency), tolerance, min_joint_detection)
            fast = _outcome(_solve_bland, problem, self.BUDGET)
            slow = _outcome(_oracle, problem, self.BUDGET)
            assert fast == slow, (min_efficiency, fast[:2], slow[:2])

    @pytest.mark.parametrize(
        "min_efficiency, tolerance, min_joint_detection",
        [(0.2, 1e-6, 0.0), (0.3, 1e-6, 0.0), (0.45, 1e-3, 0.0), (0.6, 1e-3, 1e-6)],
    )
    def test_ghz_long_pivot_paths(self, min_efficiency, tolerance, min_joint_detection):
        problem = _ghz_problem(min_efficiency, tolerance, min_joint_detection)
        fast = _outcome(_solve_bland, problem, MAX_PIVOTS)
        slow = _outcome(_oracle, problem, MAX_PIVOTS)
        assert fast[0] != "error"
        assert fast == slow

    def test_random_lps_with_tied_ratios(self):
        rng = np.random.default_rng(7)
        ties = 0
        for _ in range(150):
            n = int(rng.integers(2, 30))
            k_eq = int(rng.integers(0, 8))
            k_ub = int(rng.integers(0, 5))
            # Small integer data makes many ratios equal to the last bit;
            # repeated rows and zero right-hand sides add degenerate ties.
            a_eq = rng.integers(-2, 3, size=(k_eq, n)).astype(float)
            b_eq = rng.integers(-2, 3, size=k_eq).astype(float)
            if k_eq > 1:
                a_eq[-1] = a_eq[0]
                b_eq[-1] = b_eq[0]
            a_ub = rng.integers(-2, 3, size=(k_ub, n)).astype(float)
            b_ub = rng.integers(0, 3, size=k_ub).astype(float)
            problem = FeasibilityProblem(
                n_vars=n,
                a_eq=np.vstack([np.ones(n), a_eq]),
                b_eq=np.concatenate([[1.0], b_eq]),
                a_ub=a_ub,
                b_ub=b_ub,
            )
            try:
                result, result_ties = _scalar_bland_oracle(problem, max_pivots=2000)
                slow = _fields(result)
                ties += result_ties
            except RuntimeError as exc:
                slow = ("error", str(exc))
            assert _outcome(_solve_bland, problem, 2000) == slow
        assert ties > 0

    def test_homogeneous_lps_with_signed_zeros(self):
        # Every bound is a signed zero, so the phase-one objective stays a
        # zero whose sign reaches the result; that sign follows the signs of
        # the right-hand zeros the pivots divide and subtract.
        rng = np.random.default_rng(2)
        for _ in range(300):
            m_eq = int(rng.integers(0, 3))
            m_ub = int(rng.integers(0, 3))
            n = int(rng.integers(1, 6))
            a = rng.integers(-1, 2, size=(1 + m_eq + m_ub, n)).astype(float)
            a[(a == 0.0) & (rng.random(a.shape) < 0.5)] = -0.0
            b = np.where(rng.random(a.shape[0]) < 0.5, -0.0, 0.0)
            problem = FeasibilityProblem(
                n_vars=n,
                a_eq=a[: 1 + m_eq],
                b_eq=b[: 1 + m_eq],
                a_ub=a[1 + m_eq :] if m_ub else None,
                b_ub=b[1 + m_eq :] if m_ub else None,
            )
            assert _hex_outcome(_solve_bland, problem, 500) == _hex_outcome(
                _oracle, problem, 500
            )


def _hex_fields(result):
    """Result fields with the phase-one objective and the point as exact bits."""
    x = None if result.x is None else result.x.tobytes()
    return (result.status, result.pivots, result.phase1_objective.hex(), x)


def _random_presolve_lp(rng, kind):
    """A small LP whose columns repeat as ``kind`` says.

    ``scattered`` repeats random columns at random positions, ``shuffled``
    appends a shuffled copy of every column, ``signed-zero`` pairs columns
    that differ only in the signs of their zeros (and may put -0.0 into the
    bounds), and ``distinct`` has no two byte-identical columns.
    """
    m_eq = int(rng.integers(0, 4))
    m_ub = int(rng.integers(0, 4))
    base = rng.integers(-2, 3, size=(1 + m_eq + m_ub, int(rng.integers(1, 10)))).astype(float)
    base[0] = 1.0
    if kind == "scattered":
        picks = np.concatenate([np.arange(base.shape[1]), rng.integers(0, base.shape[1], 8)])
        columns = base[:, rng.permutation(picks)]
    elif kind == "shuffled":
        columns = np.hstack([base, base[:, rng.permutation(base.shape[1])]])
    elif kind == "signed-zero":
        if base.shape[0] > 1:
            base[-1, 0] = 0.0
        flipped = base[:, :1].copy()
        flipped[flipped == 0.0] = -0.0
        columns = np.hstack([base, flipped, base[:, :1], flipped])
        columns = columns[:, rng.permutation(columns.shape[1])]
    else:
        _, first = np.unique(base.T, axis=0, return_index=True)
        columns = base[:, np.sort(first)]
    n = columns.shape[1]
    # Feasible at a point with quarter weights about half the time; small
    # integer data makes exact ratio ties common.
    point = rng.multinomial(4, np.ones(n) / n) / 4.0
    bounds = columns @ point
    if rng.random() < 0.5:
        bounds[1:] += rng.integers(-1, 2, size=bounds.size - 1)
    bounds[0] = 1.0
    bounds[bounds == 0.0] = 0.0
    if kind == "signed-zero":
        zeros = (bounds == 0.0) & (rng.random(bounds.size) < 0.5)
        bounds[zeros] = -0.0
    return FeasibilityProblem(
        n_vars=n,
        a_eq=columns[: 1 + m_eq],
        b_eq=bounds[: 1 + m_eq],
        a_ub=columns[1 + m_eq :] if m_ub else None,
        b_ub=bounds[1 + m_eq :] if m_ub else None,
    )


def _hex_outcome(solve, problem, max_pivots):
    try:
        return _hex_fields(solve(problem, max_pivots=max_pivots))
    except RuntimeError as exc:
        return ("error", str(exc))


class TestColumnPresolve:
    """The tableau keeps only the first copy of each byte-identical column;
    nothing of that may show in the Bland path's results."""

    @pytest.mark.parametrize("min_efficiency", [0.0, 0.7, 0.9])
    def test_duplicating_every_column_changes_nothing(self, min_efficiency):
        problem = _ghz_problem(min_efficiency, 0.0, 1e-6)
        n = problem.n_vars
        doubled = FeasibilityProblem(
            n_vars=2 * n,
            a_eq=np.hstack([problem.a_eq, problem.a_eq]),
            b_eq=problem.b_eq,
            a_ub=np.hstack([problem.a_ub, problem.a_ub]),
            b_ub=problem.b_ub,
        )
        single = _solve_bland(problem)
        twice = _solve_bland(doubled)
        assert _hex_fields(twice)[:3] == _hex_fields(single)[:3]
        # The presolved solve matches the full-width scalar loop bit for bit.
        assert _hex_fields(twice) == _hex_fields(_oracle(doubled, MAX_PIVOTS))
        if single.feasible:
            assert twice.x[:n].tobytes() == single.x.tobytes()
            assert twice.x[n:].tobytes() == np.zeros(n).tobytes()

    def test_signed_zero_columns_stay_apart(self):
        # Columns 0 and 1 differ only in the sign of a zero: equal as floats,
        # different as bytes, so both stay in the tableau.
        a_eq = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, -0.0, 1.0, 2.0]])
        a_ub = np.array([[-1.0, -1.0, 0.0, 1.0], [-0.0, 0.0, -1.0, -1.0]])
        for b_eq, b_ub in [([1.0, 0.5], [0.5, -0.25]), ([1.0, 0.0], [-0.5, 0.0])]:
            problem = FeasibilityProblem(n_vars=4, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
            assert _hex_fields(_solve_bland(problem)) == _hex_fields(
                _oracle(problem, MAX_PIVOTS)
            )

    @pytest.mark.parametrize(
        "column, b_eq",
        [
            ([1.0, 0.3, 0.6, -0.9, 0.6, -0.1, 0.0, 0.2], None),
            (
                [1.0, -0.7, -0.9, -0.9, -0.9, -0.7, 0.9, -0.6],
                [1.0, -0.25, -0.25, -0.65, -0.65, -0.35, 0.25, 0.0],
            ),
        ],
    )
    def test_one_distinct_column(self, column, b_eq):
        # Eight rows and three copies of one column.  numpy sums a lone column
        # pairwise, in another order than row after row, so the cost row must
        # not be summed over the presolved columns alone.
        column = np.array(column)
        problem = FeasibilityProblem(
            n_vars=3,
            a_eq=np.tile(column[:, None], (1, 3)),
            b_eq=column if b_eq is None else b_eq,
        )
        assert _hex_fields(_solve_bland(problem)) == _hex_fields(
            _oracle(problem, MAX_PIVOTS)
        )

    def test_inequality_rows_only(self):
        # x0 + x1 >= 1 and x2 <= 0.5, with column 3 a copy of column 0.
        problem = FeasibilityProblem(
            n_vars=4,
            a_ub=[[-1.0, -1.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]],
            b_ub=[-1.0, 0.5],
        )
        result = _solve_bland(problem)
        assert result.feasible
        assert result.x[3] == 0.0
        assert feasibility_residuals(problem, result.x).satisfied()
        assert _hex_fields(result) == _hex_fields(_oracle(problem, MAX_PIVOTS))

    def test_random_lps_match_the_full_width_oracle(self):
        # Repeated, shuffled, signed-zero and distinct columns: every later
        # copy of a column gets weight +0.0.
        rng = np.random.default_rng(1515)
        kinds = ("scattered", "shuffled", "signed-zero", "distinct")
        feasible = dict.fromkeys(kinds, 0)
        for trial in range(240):
            kind = kinds[trial % len(kinds)]
            problem = _random_presolve_lp(rng, kind)
            fast = _hex_outcome(_solve_bland, problem, 2000)
            assert fast == _hex_outcome(_oracle, problem, 2000), (trial, kind)
            if fast[0] != "feasible":
                continue
            feasible[kind] += 1
            first = {}
            stacked = np.vstack([problem.a_eq, problem.a_ub])
            for j in range(problem.n_vars):
                first.setdefault(stacked[:, j].tobytes(), j)
            later = np.setdiff1d(np.arange(problem.n_vars), list(first.values()))
            if kind == "distinct":
                assert later.size == 0
            x = np.frombuffer(fast[3])
            assert x[later].tobytes() == np.zeros(later.size).tobytes()
        assert min(feasible.values()) >= 10, feasible


def _lexsort_first_columns(a):
    """The presolve's answer by the lexsort alone, with no fingerprint exit."""
    bits = a.view(np.int64)
    order = np.lexsort(bits)
    grouped = bits[:, order]
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    np.any(grouped[:, 1:] != grouped[:, :-1], axis=0, out=first[1:])
    return np.sort(order[first])


def _planted_matrices(rng):
    """Small-integer matrices, some with copies of columns planted at random
    places, some with zeros of either sign, and single columns."""
    for trial in range(300):
        m = int(rng.integers(1, 8))
        n = 1 if trial % 10 == 0 else int(rng.integers(2, 40))
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        if trial % 3 == 0:
            a[:, rng.integers(0, n, n // 2)] = a[:, rng.integers(0, n, n // 2)]
        if trial % 3 == 1:
            a[(a == 0.0) & (rng.random(a.shape) < 0.5)] = -0.0
        yield a


class TestFingerprintExit:
    """The presolve skips its lexsort when every column fingerprint differs;
    its answer stays the lexsort's."""

    def test_equals_the_lexsort(self):
        exits = 0
        for a in _planted_matrices(np.random.default_rng(3031)):
            expected = _lexsort_first_columns(a)
            assert np.array_equal(simplex._first_distinct_columns(a), expected), a
            exits += expected.size == a.shape[1]
        assert exits >= 50

    def test_colliding_fingerprints_fall_back_to_the_lexsort(self, monkeypatch):
        monkeypatch.setattr(simplex, "_fingerprint_weights", lambda rows: np.zeros(rows, np.uint64))
        for a in _planted_matrices(np.random.default_rng(3032)):
            assert np.array_equal(simplex._first_distinct_columns(a), _lexsort_first_columns(a))

    def test_sweeps_range_searches_never_lexsort(self, monkeypatch):
        # min_efficiency on either side of the 5/6 edge and a log-uniform
        # tolerance, as the sweeps searches draw them.  The strategy classes
        # are found once per tuple of contexts, before the spy is set.
        scenario = GHZScenario.standard()
        ghz_local_model_search(scenario, 0.7, tolerance=1e-4)
        lexsort, calls = np.lexsort, []

        def counted(keys, *args, **kwargs):
            calls.append(np.shape(keys))
            return lexsort(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", counted)
        rng = np.random.default_rng(3033)
        for trial in range(200):
            feasible_side = trial % 2 == 0
            min_efficiency = rng.uniform(*((0.55, 0.80) if feasible_side else (0.87, 1.0)))
            tolerance = 10.0 ** rng.uniform(-6.0, -3.0)
            found = ghz_local_model_search(scenario, min_efficiency, tolerance=tolerance)
            assert found.feasible == feasible_side
        assert calls == []


class TestDefaultPivotBudget:
    """The default budget scales with the presolved tableau: a cycling Bland
    path fails promptly, and the longest grid path that finishes still does."""

    # Longest path that finishes on the ROADMAP grid, at
    # (linspace(0, 1, 41)[14], 1e-6, 0).
    LONGEST_PATH = 2170

    @pytest.mark.parametrize(
        "min_efficiency, tolerance, min_joint_detection",
        [
            (0.025, 1e-6, 0.0),  # still cycling after 10^6 pivots
            # Under a budget of 10^6 this one ends after 148,942 pivots with a
            # "feasible" point whose own certificate fails (normalization
            # residual 1.46): round-off drift, not an answer.
            (0.2, 1e-3, 0.3),
        ],
    )
    def test_cycling_lp_fails_promptly(self, min_efficiency, tolerance, min_joint_detection):
        problem = _ghz_problem(min_efficiency, tolerance, min_joint_detection)
        with pytest.raises(RuntimeError, match="pivot budget") as info:
            _solve_bland(problem)
        budget = int(re.search(r"pivot budget (\d+) exhausted", str(info.value)).group(1))
        # At least 10x the longest finishing path, and about a second of pivots.
        assert 10 * self.LONGEST_PATH <= budget <= 50_000

    def test_longest_finishing_path_still_finishes(self):
        problem = _ghz_problem(float(np.linspace(0.0, 1.0, 41)[14]), 1e-6, 0.0)
        result = _solve_bland(problem)
        assert result.pivots == self.LONGEST_PATH
        assert _hex_fields(result) == _hex_fields(_solve_bland(problem, MAX_PIVOTS))


def _highs_feasible(problem):
    result = linprog(
        c=np.zeros(problem.n_vars),
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        bounds=[(0, None)] * problem.n_vars,
        method="highs",
    )
    assert result.status in (0, 2), result.message
    return result.status == 0


class TestDantzigFirst:
    """``solve_lp_simplex`` prices by Dantzig's rule and re-solves with the
    Bland path when that attempt raises or its point fails the certificate."""

    @pytest.mark.parametrize(
        "min_efficiency, tolerance, min_joint_detection",
        [(0.025, 1e-6, 0.0), (0.2, 1e-3, 0.3)],
    )
    def test_decides_the_lps_where_bland_cycles(
        self, min_efficiency, tolerance, min_joint_detection
    ):
        problem = _ghz_problem(min_efficiency, tolerance, min_joint_detection)
        result = solve_lp_simplex(problem)
        assert result.feasible == _highs_feasible(problem)
        if result.feasible:
            assert feasibility_residuals(problem, result.x).satisfied()

    def test_false_infeasible_optimum_goes_to_the_retry(self):
        # A sweeps-range GHZ LP with negated floors (min_joint_detection 1e-6)
        # where Dantzig stops "infeasible" after 39 pivots at a basis whose
        # recomputed phase-one dual gives y.b = -0.34.
        problem = _ghz_problem(0.7759008378054676, 2.092388906887236e-05, 1e-6)
        with pytest.raises(RuntimeError, match="fails its infeasibility certificate"):
            simplex._phase_one(problem, None, dantzig=True)
        result = solve_lp_simplex(problem)
        assert result.feasible and _highs_feasible(problem)
        assert feasibility_residuals(problem, result.x).satisfied()
        assert result.pivots == 39 + _solve_bland(problem).pivots

    def test_basis_with_a_negative_dual_bound_is_refused(self):
        # The basis an all-artificial Dantzig start reached on this LP after
        # a pivot on an entry of 1.2e-10: presolved columns 0-104, slacks
        # 105-122, and 140 the artificial of row 17.  Its phase-one dual
        # gives y.b = -0.62, so it proves nothing.
        problem = _ghz_problem(0.7918039473603151, 1.6339777202080222e-06, 1e-6)
        stacked = np.vstack([problem.a_eq, problem.a_ub])
        keep = simplex._first_distinct_columns(stacked)
        m, m_ub = stacked.shape[0], problem.a_ub.shape[0]
        rows = np.zeros((m, keep.size + m_ub + 1))
        rows[:, : keep.size] = stacked[:, keep]
        rows[m - m_ub :, keep.size : -1] = np.eye(m_ub)
        rows[:, -1] = np.concatenate([problem.b_eq, problem.b_ub])
        rows[rows[:, -1] < 0.0] *= -1.0
        basis = [73, 105, 116, 15, 113, 115, 110, 45, 112, 122, 3, 6, 114, 23, 25, 0, 64, 140, 26]
        matrix = np.zeros((m, m))
        for i, j in enumerate(basis):
            if j < rows.shape[1] - 1:
                matrix[:, i] = rows[:, j]
            else:
                matrix[j - (rows.shape[1] - 1), i] = 1.0
        y = np.linalg.solve(matrix.T, (np.array(basis) >= rows.shape[1] - 1).astype(float))
        assert y @ rows[:, -1] == pytest.approx(-0.6246, abs=1e-4)
        assert not simplex._proves_infeasible(rows, basis)

    def test_retry_that_ends_infeasible(self):
        # A sweeps-range GHZ LP with negated floors: Dantzig stops
        # "infeasible" after 34 pivots at a basis whose phase-one dual is no
        # Farkas certificate, and the Bland retry ends infeasible, as HiGHS.
        min_efficiency, tolerance = 0.8896015485743414, 1.4117892238356352e-06
        problem = _ghz_problem(min_efficiency, tolerance, 1e-6)
        with pytest.raises(RuntimeError, match="fails its infeasibility certificate") as info:
            simplex._phase_one(problem, None, dantzig=True)
        bland = _solve_bland(problem)
        assert not bland.feasible and not _highs_feasible(problem)
        result = solve_lp_simplex(problem)
        assert result.status == bland.status
        assert result.phase1_objective.hex() == bland.phase1_objective.hex()
        assert result.pivots == info.value.pivots + bland.pivots == 115

    def test_search_reports_the_retry(self, monkeypatch):
        # No GHZ search LP of the grid, the noisy-GHZ probe or the sweeps
        # range sends the Dantzig attempt to its retry, so make it fail: the
        # search reports the Bland retry's verdict and both attempts' pivots.
        min_efficiency, tolerance = 0.8896015485743414, 1.4117892238356352e-06
        phase_one, bland = simplex._phase_one, []

        def failing_dantzig(problem, max_pivots, dantzig):
            if dantzig:
                raise simplex._PivotFailure("phase-one optimum fails its infeasibility certificate", 34)
            bland.append(phase_one(problem, max_pivots, dantzig))
            return bland[-1]

        monkeypatch.setattr(simplex, "_phase_one", failing_dantzig)
        found = ghz_local_model_search(GHZScenario.standard(), min_efficiency, tolerance=tolerance)
        assert not found.feasible and len(bland) == 1
        assert found.phase1_objective == bland[0].phase1_objective
        assert found.pivots == 34 + bland[0].pivots

    @pytest.mark.parametrize("min_efficiency", [0.85, 0.9, 1.0])
    def test_infeasible_verdicts_carry_a_farkas_certificate(self, min_efficiency):
        problem = _ghz_problem(min_efficiency, 0.0, 1e-6)
        result = solve_lp_simplex(problem)
        assert not result.feasible and not _highs_feasible(problem)
        assert result.pivots == simplex._phase_one(problem, None, dantzig=True).pivots

    @pytest.mark.parametrize("min_efficiency", [0.0, 0.7, 0.9])
    def test_a_later_copy_never_enters(self, min_efficiency):
        # Copies share their reduced cost, and ties go to the first index.
        problem = _ghz_problem(min_efficiency, 0.0, 1e-6)
        n = problem.n_vars
        doubled = FeasibilityProblem(
            n_vars=2 * n,
            a_eq=np.hstack([problem.a_eq, problem.a_eq]),
            b_eq=problem.b_eq,
            a_ub=np.hstack([problem.a_ub, problem.a_ub]),
            b_ub=problem.b_ub,
        )
        single = simplex._phase_one(problem, None, dantzig=True)
        twice = simplex._phase_one(doubled, None, dantzig=True)
        assert _hex_fields(twice)[:3] == _hex_fields(single)[:3]
        if single.feasible:
            assert twice.x[:n].tobytes() == single.x.tobytes()
            assert twice.x[n:].tobytes() == np.zeros(n).tobytes()

    def test_fewer_pivots_than_bland_on_the_standard_lp(self):
        problem = _ghz_problem(0.7, 1e-6, 1e-6)
        dantzig, bland = solve_lp_simplex(problem), _solve_bland(problem)
        assert dantzig.feasible and bland.feasible
        assert dantzig.pivots < bland.pivots

    @pytest.mark.parametrize("failure", ["raises", "bad point"])
    def test_retry_is_the_bland_path(self, monkeypatch, failure):
        problem = _ghz_problem(0.7, 1e-6, 1e-6)
        phase_one = simplex._phase_one

        def failing_dantzig(problem, max_pivots, dantzig):
            if not dantzig:
                return phase_one(problem, max_pivots, dantzig)
            if failure == "raises":
                raise simplex._PivotFailure("phase-one unbounded: no valid pivot row", 7)
            return LPResult("feasible", np.full(problem.n_vars, 1.0), 0.0, 7)

        monkeypatch.setattr(simplex, "_phase_one", failing_dantzig)
        result = solve_lp_simplex(problem)
        bland = _solve_bland(problem)
        assert _hex_fields(result)[2:] == _hex_fields(bland)[2:]
        assert result.status == bland.status
        assert result.pivots == 7 + bland.pivots

    def test_bland_point_failing_its_certificate_raises(self, monkeypatch):
        bogus = LPResult("feasible", np.array([0.5, 0.1, 0.1]), 0.0, 1)
        monkeypatch.setattr(simplex, "_phase_one", lambda *args, **kwargs: bogus)
        with pytest.raises(RuntimeError, match="fails its feasibility certificate at 'eq\\[0\\]'"):
            solve_lp_simplex(_simplex_problem(3))


class TestDetectionFloorsAsCeilings:
    """``build_feasibility_lp`` writes each detection floor as a ceiling on
    the undetected mass, which the Dantzig attempt starts on its slack."""

    @pytest.mark.parametrize("min_joint_detection", [0.0, 1e-6, 0.3])
    @pytest.mark.parametrize("tolerance", [0.0, 1e-6, 1e-3])
    def test_both_forms_get_the_same_highs_verdict(self, tolerance, min_joint_detection):
        outcomes = enumerate_local_strategies(parties=3, settings=2)
        for min_efficiency in np.linspace(0.0, 1.0, 41):
            negated = _ghz_problem(float(min_efficiency), tolerance, min_joint_detection)
            ceilings = build_feasibility_lp(
                outcomes, _ghz_targets(tolerance), min_joint_detection, float(min_efficiency)
            )
            assert ceilings.ub_labels == negated.ub_labels
            assert np.all(ceilings.b_ub >= 0.0)
            assert _highs_feasible(ceilings) == _highs_feasible(negated), min_efficiency

    def test_sweeps_range_lps_take_one_short_attempt(self, monkeypatch):
        # min_efficiency on either side of the 5/6 edge and a log-uniform
        # tolerance, as the sweeps searches draw them.
        phase_one, calls = simplex._phase_one, []

        def counted(problem, max_pivots, dantzig):
            calls.append(dantzig)
            return phase_one(problem, max_pivots, dantzig)

        monkeypatch.setattr(simplex, "_phase_one", counted)
        outcomes = enumerate_local_strategies(parties=3, settings=2)
        rng = np.random.default_rng(2029)
        for trial in range(200):
            feasible_side = trial % 2 == 0
            min_efficiency = rng.uniform(*((0.55, 0.80) if feasible_side else (0.87, 1.0)))
            tolerance = 10.0 ** rng.uniform(-6.0, -3.0)
            problem = build_feasibility_lp(
                outcomes, _ghz_targets(tolerance), min_efficiency=min_efficiency
            )
            calls.clear()
            result = solve_lp_simplex(problem)
            assert calls == [True], (min_efficiency, tolerance)
            assert result.pivots <= 15, (min_efficiency, tolerance, result.pivots)
            assert result.feasible == feasible_side


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: FeasibilityProblem(2, a_eq=[[1.0, 1.0], [1.0, 0.0]], b_eq=[1.0]),
            "equalities: 2 rows but 1 bounds",
        ),
        (
            lambda: FeasibilityProblem(2, a_ub=[[1.0, np.inf]], b_ub=[1.0]),
            "inequalities: non-finite coefficients",
        ),
        (lambda: FeasibilityProblem(0), "n_vars must be positive"),
        (lambda: FeasibilityProblem(2.5), "n_vars must be an integer, got 2.5"),
        (lambda: FeasibilityProblem(True), "n_vars must be an integer, got True"),
        (lambda: FeasibilityProblem(np.inf), "n_vars must be an integer, got inf"),
        (
            lambda: feasibility_residuals(_simplex_problem(3), [0.5, 0.5]),
            "point has 2 entries, expected 3",
        ),
    ],
    ids=[
        "row-bound-mismatch",
        "non-finite-entry",
        "no-variables",
        "fractional-variables",
        "bool-variables",
        "infinite-variables",
        "point-length",
    ],
)
def test_malformed_input_rejected(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
