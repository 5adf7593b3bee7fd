"""Two-phase simplex: trivial cases, certificates, determinism, scipy oracle,
the column presolve, its fingerprint exit, and Dantzig pricing with its exact
Bland fallback."""

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

    @pytest.mark.parametrize("path", ["float", "exact"])
    def test_result_carries_the_certificate_of_its_point(self, monkeypatch, path):
        # A feasible result carries its point's certificate, whichever loop
        # found the point; an infeasible one carries none.
        if path == "exact":
            monkeypatch.setattr(simplex, "_phase_one", _fail_with(3))
        problem = build_feasibility_lp(
            enumerate_local_strategies(3, 2), _ghz_targets(1e-6), 1e-6, 0.7
        )
        result = solve_lp_simplex(problem)
        assert result.feasible and result.certificate.satisfied()
        assert repr(result.certificate) == repr(feasibility_residuals(problem, result.x))
        infeasible = solve_lp_simplex(build_feasibility_lp(
            enumerate_local_strategies(3, 2), _ghz_targets(0.0), 1e-6, 1.0
        ))
        assert not infeasible.feasible and infeasible.certificate is None

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
        # A zero budget per line leaves the float loop no pivot to make, so
        # the exact loop decides the LP.
        problem = _simplex_problem(5, extra_eq=[[1.0, 0.0, 0.0, 0.0, -1.0]], extra_b=[0.5])
        monkeypatch.setattr(simplex, "_PIVOTS_PER_LINE", 0)
        with pytest.raises(RuntimeError, match="pivot budget 0 exhausted"):
            simplex._phase_one(problem)
        result = solve_lp_simplex(problem)
        assert result.feasible and feasibility_residuals(problem, result.x).satisfied()
        assert result.pivots == simplex._exact_phase_one(problem).pivots > 0


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


def _ghz_targets(tolerance):
    return [
        CorrelationTarget(settings=ctx, value=value, tolerance=tolerance)
        for ctx, value in zip(GHZ_CONTEXTS, ghz_quantum_correlations(GHZScenario.standard()))
    ]


def _ghz_problem(min_efficiency, tolerance, min_joint_detection):
    """The standard GHZ LP with each detection floor negated by hand,
    -det_c.w <= -j and -marg.w <= -eta, as ``bench/oracle.py`` writes it.

    ``build_feasibility_lp`` writes the same floors as ceilings on the
    undetected mass; this form keeps every row on an artificial at the start.
    There a float Bland loop cycles or drifts on some grid LPs, the float
    Dantzig loop fails more often, and the exact loop takes its longest
    paths."""
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


def _hex_outcome(solve, problem):
    try:
        return _hex_fields(solve(problem))
    except RuntimeError as exc:
        return ("error", str(exc))


def _full_width(solve, problem):
    """The outcome of ``solve`` with a presolve that keeps every column."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "_first_distinct_columns", lambda a: np.arange(a.shape[1]))
        return _hex_outcome(solve, problem)


# The float Dantzig loop and the exact Bland loop: both read the presolved
# columns, and both must match their own run over every column bit for bit.
LOOPS = pytest.mark.parametrize(
    "solve", [simplex._phase_one, simplex._exact_phase_one], ids=["float", "exact"]
)


class TestColumnPresolve:
    """The tableau keeps only the first copy of each byte-identical column;
    nothing of that may show in either loop's results."""

    @pytest.mark.parametrize("min_efficiency", [0.0, 0.7, 0.9])
    def test_duplicating_every_column_changes_nothing(self, min_efficiency):
        # The exact loop; the float loop's case is test_a_later_copy_never_enters.
        problem = _ghz_problem(min_efficiency, 0.0, 1e-6)
        n = problem.n_vars
        doubled = FeasibilityProblem(
            n_vars=2 * n,
            a_eq=np.hstack([problem.a_eq, problem.a_eq]),
            b_eq=problem.b_eq,
            a_ub=np.hstack([problem.a_ub, problem.a_ub]),
            b_ub=problem.b_ub,
        )
        single = simplex._exact_phase_one(problem)
        twice = simplex._exact_phase_one(doubled)
        assert _hex_fields(twice)[:3] == _hex_fields(single)[:3]
        if single.feasible:
            assert twice.x[:n].tobytes() == single.x.tobytes()
            assert twice.x[n:].tobytes() == np.zeros(n).tobytes()

    @LOOPS
    def test_signed_zero_columns_stay_apart(self, solve):
        # Columns 0 and 1 differ only in the sign of a zero: equal as floats,
        # different as bytes, so both stay in the tableau.
        a_eq = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, -0.0, 1.0, 2.0]])
        a_ub = np.array([[-1.0, -1.0, 0.0, 1.0], [-0.0, 0.0, -1.0, -1.0]])
        for b_eq, b_ub in [([1.0, 0.5], [0.5, -0.25]), ([1.0, 0.0], [-0.5, 0.0])]:
            problem = FeasibilityProblem(n_vars=4, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
            assert _hex_outcome(solve, problem) == _full_width(solve, problem)

    @LOOPS
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
    def test_one_distinct_column(self, solve, column, b_eq):
        # Eight rows and three copies of one column.  numpy sums a lone column
        # pairwise, in another order than row after row, so the cost row must
        # not be summed over the presolved columns alone.
        column = np.array(column)
        problem = FeasibilityProblem(
            n_vars=3,
            a_eq=np.tile(column[:, None], (1, 3)),
            b_eq=column if b_eq is None else b_eq,
        )
        assert _hex_outcome(solve, problem) == _full_width(solve, problem)

    @LOOPS
    def test_inequality_rows_only(self, solve):
        # x0 + x1 >= 1 and x2 <= 0.5, with column 3 a copy of column 0.
        problem = FeasibilityProblem(
            n_vars=4,
            a_ub=[[-1.0, -1.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]],
            b_ub=[-1.0, 0.5],
        )
        result = solve(problem)
        assert result.feasible
        assert result.x[3] == 0.0
        assert feasibility_residuals(problem, result.x).satisfied()
        assert _hex_fields(result) == _full_width(solve, problem)

    @LOOPS
    def test_random_lps_match_the_full_width_tableau(self, solve):
        # Repeated, shuffled, signed-zero and distinct columns: every later
        # copy of a column gets weight +0.0.
        rng = np.random.default_rng(1515)
        kinds = ("scattered", "shuffled", "signed-zero", "distinct")
        feasible = dict.fromkeys(kinds, 0)
        for trial in range(240):
            kind = kinds[trial % len(kinds)]
            problem = _random_presolve_lp(rng, kind)
            fast = _hex_outcome(solve, problem)
            assert fast == _full_width(solve, problem), (trial, kind)
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


def _exact_results(monkeypatch):
    """Every result the exact loop returns from now on, in order."""
    exact, results = simplex._exact_phase_one, []

    def recorded(problem):
        results.append(exact(problem))
        return results[-1]

    monkeypatch.setattr(simplex, "_exact_phase_one", recorded)
    return results


def _fail_with(pivots):
    """A float loop that raises after ``pivots`` pivots."""

    def failing(problem):
        raise simplex._PivotFailure("phase-one unbounded: no valid pivot row", pivots)

    return failing


class TestDantzigFirst:
    """``solve_lp_simplex`` prices by Dantzig's rule and hands the LP to the
    exact Bland loop when that attempt raises or its point fails the
    certificate."""

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

    def test_false_infeasible_optimum_goes_to_the_retry(self, monkeypatch):
        # A sweeps-range GHZ LP with negated floors (min_joint_detection 1e-6)
        # where Dantzig stops "infeasible" after 39 pivots at a basis whose
        # recomputed phase-one dual gives y.b = -0.34.
        problem = _ghz_problem(0.7759008378054676, 2.092388906887236e-05, 1e-6)
        with pytest.raises(RuntimeError, match="fails its infeasibility certificate") as info:
            simplex._phase_one(problem)
        exact = _exact_results(monkeypatch)
        result = solve_lp_simplex(problem)
        assert result.feasible and _highs_feasible(problem)
        assert feasibility_residuals(problem, result.x).satisfied()
        assert _hex_fields(result)[2:] == _hex_fields(exact[0])[2:]
        assert result.pivots == info.value.pivots + exact[0].pivots == 39 + 78

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

    def test_retry_that_ends_infeasible(self, monkeypatch):
        # A sweeps-range GHZ LP with negated floors: Dantzig stops
        # "infeasible" after 34 pivots at a basis whose phase-one dual is no
        # Farkas certificate, and the exact loop ends infeasible, as HiGHS.
        min_efficiency, tolerance = 0.8896015485743414, 1.4117892238356352e-06
        problem = _ghz_problem(min_efficiency, tolerance, 1e-6)
        with pytest.raises(RuntimeError, match="fails its infeasibility certificate") as info:
            simplex._phase_one(problem)
        exact = _exact_results(monkeypatch)
        result = solve_lp_simplex(problem)
        assert not result.feasible and not _highs_feasible(problem)
        assert result.phase1_objective.hex() == exact[0].phase1_objective.hex()
        assert result.phase1_objective > FEASIBILITY_TOL
        assert result.pivots == info.value.pivots + exact[0].pivots == 34 + 70

    def test_search_reports_the_retry(self, monkeypatch):
        # No GHZ search LP of the grid, the noisy-GHZ probe or the sweeps
        # range sends the Dantzig attempt to its retry, so make it fail: the
        # search reports the exact loop's verdict and both loops' pivots.
        monkeypatch.setattr(simplex, "_phase_one", _fail_with(34))
        exact = _exact_results(monkeypatch)
        scenario = GHZScenario.standard()
        for min_efficiency, tolerance in [(0.7, 1e-4), (0.8896015485743414, 1.4117892238356352e-06)]:
            found = ghz_local_model_search(scenario, min_efficiency, tolerance=tolerance)
            assert found.feasible == (min_efficiency < 5 / 6)
            assert found.phase1_objective == exact[-1].phase1_objective
            assert found.pivots == 34 + exact[-1].pivots
            if found.feasible:
                assert found.max_residual <= FEASIBILITY_TOL
        assert len(exact) == 2

    @pytest.mark.parametrize("min_efficiency", [0.85, 0.9, 1.0])
    def test_infeasible_verdicts_carry_a_farkas_certificate(self, min_efficiency):
        problem = _ghz_problem(min_efficiency, 0.0, 1e-6)
        result = solve_lp_simplex(problem)
        assert not result.feasible and not _highs_feasible(problem)
        assert result.pivots == simplex._phase_one(problem).pivots

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
        single = simplex._phase_one(problem)
        twice = simplex._phase_one(doubled)
        assert _hex_fields(twice)[:3] == _hex_fields(single)[:3]
        assert _hex_fields(twice) == _full_width(simplex._phase_one, doubled)
        if single.feasible:
            assert twice.x[:n].tobytes() == single.x.tobytes()
            assert twice.x[n:].tobytes() == np.zeros(n).tobytes()

    @pytest.mark.parametrize("failure", ["raises", "bad point"])
    def test_retry_is_the_exact_loop(self, monkeypatch, failure):
        problem = build_feasibility_lp(
            enumerate_local_strategies(3, 2), _ghz_targets(1e-6), 1e-6, 0.7
        )

        def failing(problem):
            if failure == "raises":
                raise simplex._PivotFailure("phase-one unbounded: no valid pivot row", 7)
            return LPResult("feasible", np.full(problem.n_vars, 1.0), 0.0, 7)

        monkeypatch.setattr(simplex, "_phase_one", failing)
        result = solve_lp_simplex(problem)
        exact = simplex._exact_phase_one(problem)
        assert _hex_fields(result)[2:] == _hex_fields(exact)[2:]
        assert result.status == exact.status == "feasible"
        assert result.pivots == 7 + exact.pivots

    def test_exact_point_failing_its_certificate_raises(self, monkeypatch):
        bogus = LPResult("feasible", np.array([0.5, 0.1, 0.1]), 0.0, 1)
        monkeypatch.setattr(simplex, "_phase_one", _fail_with(0))
        monkeypatch.setattr(simplex, "_exact_phase_one", lambda problem: bogus)
        with pytest.raises(RuntimeError, match="fails its feasibility certificate at 'eq\\[0\\]'"):
            solve_lp_simplex(_simplex_problem(3))


# The standard GHZ LP's grid: nine (tolerance, min_joint_detection) blocks,
# each over 41 values of min_efficiency.
GRID_BLOCKS = [
    (tolerance, min_joint_detection)
    for tolerance in (0.0, 1e-6, 1e-3)
    for min_joint_detection in (0.0, 1e-6, 0.3)
]
GRID_EFFICIENCIES = np.linspace(0.0, 1.0, 41)


def _exact_verdict(problem):
    """The exact loop's verdict, checked against HiGHS's and, for a feasible
    point, against the point's own certificate."""
    result = simplex._exact_phase_one(problem)
    assert result.feasible == _highs_feasible(problem)
    if result.feasible:
        assert feasibility_residuals(problem, result.x).satisfied()
    else:
        assert result.phase1_objective > FEASIBILITY_TOL
    return result.feasible


class TestExactLoop:
    """The exact Bland loop, called directly, decides each LP as HiGHS does.
    Over the whole grid in both forms it agrees on all 738 LPs; the negated
    form takes up to ~1.7 s per LP, so the tests take a stride of each block."""

    @pytest.mark.parametrize("tolerance, min_joint_detection", GRID_BLOCKS)
    @pytest.mark.parametrize("form", ["ceilings", "negated"])
    def test_strided_grid(self, form, tolerance, min_joint_detection):
        # Ceilings: min_efficiency 0, 0.3, 0.6 and 0.9 in every block.
        # Negated: one min_efficiency per block, stepping 19 grid points from
        # block to block so that the nine picks spread over [0, 1].
        block = GRID_BLOCKS.index((tolerance, min_joint_detection))
        if form == "ceilings":
            outcomes = enumerate_local_strategies(parties=3, settings=2)
            targets = _ghz_targets(tolerance)
            for min_efficiency in GRID_EFFICIENCIES[::12]:
                problem = build_feasibility_lp(
                    outcomes, targets, min_joint_detection, float(min_efficiency)
                )
                assert _exact_verdict(problem) == (min_efficiency < 5 / 6)
        else:
            min_efficiency = float(GRID_EFFICIENCIES[19 * block % 41])
            problem = _ghz_problem(min_efficiency, tolerance, min_joint_detection)
            assert _exact_verdict(problem) == (min_efficiency < 5 / 6)

    @pytest.mark.parametrize(
        "min_efficiency, tolerance, min_joint_detection",
        [
            (0.025, 1e-6, 0.0),  # float Bland cycles
            (0.2, 1e-3, 0.3),  # float Bland drifts to a point that fails its certificate
            (0.7759008378054676, 2.092388906887236e-05, 1e-6),  # Dantzig's false "infeasible"
            (0.8896015485743414, 1.4117892238356352e-06, 1e-6),  # refused basis, infeasible
        ],
    )
    def test_lps_where_a_float_loop_fails(self, min_efficiency, tolerance, min_joint_detection):
        _exact_verdict(_ghz_problem(min_efficiency, tolerance, min_joint_detection))


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
        exact = _exact_results(monkeypatch)
        outcomes = enumerate_local_strategies(parties=3, settings=2)
        rng = np.random.default_rng(2029)
        for trial in range(200):
            feasible_side = trial % 2 == 0
            min_efficiency = rng.uniform(*((0.55, 0.80) if feasible_side else (0.87, 1.0)))
            tolerance = 10.0 ** rng.uniform(-6.0, -3.0)
            problem = build_feasibility_lp(
                outcomes, _ghz_targets(tolerance), min_efficiency=min_efficiency
            )
            result = solve_lp_simplex(problem)
            assert exact == [], (min_efficiency, tolerance)
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
