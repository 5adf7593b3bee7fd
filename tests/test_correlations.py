"""Trichotomic correlations, modified inequalities, GHZ predictions and models."""

import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import clear_operator_caches
from esrsim import correlations, hidden_variables, measurement, simplex
from esrsim.hidden_variables import (
    CorrelationTarget,
    build_feasibility_lp,
    enumerate_local_strategies,
)
from esrsim.linalg import ARITHMETIC_TOL, DensityOperator
from esrsim.measurement import DEFAULT_STATE_LABEL, DetectionModel
from esrsim.correlations import (
    GHZ_CONTEXTS,
    GHZScenario,
    TwoPartyScenario,
    brute_force_trichotomic_bound,
    conditional_expectation,
    efficiency_scan,
    ghz_local_model_search,
    ghz_quantum_correlations,
    modified_bell_report,
    modified_chsh_report,
    singlet_state,
    trichotomic_expectation,
)
from esrsim.simplex import LPResult, feasibility_residuals

TSIRELSON = {"a": 0.0, "d": math.pi / 2, "b": math.pi / 4, "c": 3 * math.pi / 4}
# The (state label, eigenvalue) keys of a wing's outcome-dependent detection table.
SPIN_KEYS = ((DEFAULT_STATE_LABEL, 1.0), (DEFAULT_STATE_LABEL, -1.0))


def singlet_scenario(angles, detection_a=None, detection_b=None) -> TwoPartyScenario:
    unit = DetectionModel.uniform(1.0)
    return TwoPartyScenario(
        joint_state=singlet_state(),
        settings=angles,
        detection_a=detection_a or unit,
        detection_b=detection_b or unit,
    )


class TestTrichotomicExpectation:
    def test_parallel_settings_perfect_anticorrelation(self):
        sc = singlet_scenario({"a": 0.3, "b": 0.3})
        assert trichotomic_expectation(sc, "a", "b").value == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_settings_vanish(self):
        sc = singlet_scenario({"a": 0.0, "b": math.pi / 2})
        assert trichotomic_expectation(sc, "a", "b").value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_efficiency_scales_quadratically(self):
        dm = DetectionModel.uniform(0.9)
        sc = singlet_scenario({"a": 0.7, "b": 0.7}, dm, dm)
        assert trichotomic_expectation(sc, "a", "b").value == pytest.approx(-0.81, abs=1e-12)

    def test_factorization_randomized(self, rng):
        for _ in range(20):
            theta_a, theta_b = rng.uniform(0, 2 * math.pi, size=2)
            d_a, d_b = rng.uniform(0.1, 1.0, size=2)
            sc = singlet_scenario(
                {"a": theta_a, "b": theta_b},
                DetectionModel.uniform(d_a),
                DetectionModel.uniform(d_b),
            )
            value = trichotomic_expectation(sc, "a", "b").value
            qm = -math.cos(theta_a - theta_b)
            assert value == pytest.approx(d_a * d_b * qm, abs=1e-12)

    def test_unknown_setting(self):
        sc = singlet_scenario({"a": 0.0, "b": 0.0})
        with pytest.raises(ValueError, match="unknown setting"):
            trichotomic_expectation(sc, "a", "x")


def _reference_wing(angle, dm):
    """Wing operators written out from the spin projectors (I +- n.sigma)/2,
    n.sigma = cos(angle) Z + sin(angle) X."""
    z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    direction = math.cos(angle) * z + math.sin(angle) * x
    identity = np.eye(2, dtype=complex)
    projectors = ((identity + direction) / 2.0, (identity - direction) / 2.0)
    weighted = np.zeros((2, 2), dtype=complex)
    detect = np.zeros((2, 2), dtype=complex)
    for ev, proj in zip((1.0, -1.0), projectors):
        d = dm.value(DEFAULT_STATE_LABEL, ev)
        weighted = weighted + ev * d * proj
        detect = detect + d * proj
    return weighted, detect


def _random_mixed_state(rng) -> DensityOperator:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


# Four ulp at 1: the Pauli-tensor form and the reference formula sum the same
# terms in different orders, so they agree to round-off, not to the bit.
ULP_BOUND = 8.9e-16


class TestBitEquivalenceWithPublicOperators:
    """The correlation kernels agree, to a few ulp, with the formula written
    with the explicit spin projectors, ``np.kron`` and the complex trace."""

    @pytest.mark.parametrize("efficiency", ["zero", "random", "one", "outcome-dependent"])
    def test_matches_reference_formula(self, rng, efficiency):
        for _ in range(40):
            rho = _random_mixed_state(rng)
            angles = dict(zip("ab", rng.uniform(-2 * math.pi, 2 * math.pi, size=2)))
            if efficiency == "outcome-dependent":
                dm_a, dm_b = (
                    DetectionModel(assignment=dict(zip(SPIN_KEYS, rng.uniform(size=2))))
                    for _ in range(2)
                )
            else:
                d_a, d_b = {"zero": (0.0, 0.0), "one": (1.0, 1.0)}.get(
                    efficiency, tuple(rng.uniform(size=2))
                )
                dm_a, dm_b = DetectionModel.uniform(d_a), DetectionModel.uniform(d_b)
            sc = TwoPartyScenario(rho, angles, dm_a, dm_b)
            m_a, n_a = _reference_wing(angles["a"], dm_a)
            m_b, n_b = _reference_wing(angles["b"], dm_b)
            numerator = float(np.trace(rho.matrix @ np.kron(m_a, m_b)).real)
            mass = float(np.trace(rho.matrix @ np.kron(n_a, n_b)).real)

            overall = trichotomic_expectation(sc, "a", "b").value
            assert abs(overall - min(max(numerator, -1.0), 1.0)) <= ULP_BOUND
            if efficiency == "zero":
                with pytest.raises(ValueError, match="joint-detection"):
                    conditional_expectation(sc, "a", "b")
            else:
                # A ratio's round-off grows as its denominator shrinks.
                conditional = conditional_expectation(sc, "a", "b").value
                want = min(max(numerator / mass, -1.0), 1.0)
                assert abs(conditional - want) * mass <= ULP_BOUND


def _search_verdict(scenario, min_efficiency, min_joint_detection, tolerance):
    """((feasible or error message, pivots, weight bytes, phase-one objective
    as hex), max residual or None) of one GHZ local-model search."""
    try:
        r = ghz_local_model_search(scenario, min_efficiency, min_joint_detection, tolerance)
    except RuntimeError as err:
        return (str(err), None, None, None), None
    if not r.feasible:
        return (False, r.pivots, None, r.phase1_objective.hex()), None
    return (True, r.pivots, r.weights.tobytes(), r.phase1_objective.hex()), r.max_residual


def _reference_verdict(scenario, min_efficiency, min_joint_detection, tolerance):
    """The same, from the 729-column LP handed to the solver as it is built,
    with the residual of that LP's own certificate."""
    targets = [
        CorrelationTarget(settings=ctx, value=value, tolerance=tolerance)
        for ctx, value in zip(GHZ_CONTEXTS, ghz_quantum_correlations(scenario))
    ]
    problem = build_feasibility_lp(
        enumerate_local_strategies(3, 2), targets, min_joint_detection, min_efficiency
    )
    try:
        r = simplex.solve_lp_simplex(problem)
    except RuntimeError as err:
        return (str(err), None, None, None), None
    if not r.feasible:
        return (False, r.pivots, None, r.phase1_objective.hex()), None
    c = feasibility_residuals(problem, r.x)
    if not c.satisfied():
        return (f"LP point fails its feasibility certificate at {c.worst_row!r}",
                None, None, None), None
    residual = max(c.max_equality_residual, c.max_inequality_violation)
    return (True, r.pivots, r.x.tobytes(), r.phase1_objective.hex()), residual


def _search_bits(result):
    """Every field of a GHZ search result, floats and arrays as exact bytes."""

    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, np.ndarray):
            return value.tobytes()
        if isinstance(value, dict):
            return [(key, exact(v)) for key, v in value.items()]
        if isinstance(value, tuple):
            return [exact(v) for v in value]
        return value

    return [(name, exact(getattr(result, name))) for name in type(result).__slots__]


class TestMemoizedOperators:
    """The Pauli tensor is built once per state; a correlation read from the
    cached tensor has the bits of one read from a fresh build."""

    def test_ghz_pauli_strings_match_np_kron(self, rng):
        sigma = {
            0: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
            1: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        }
        for _ in range(50):
            g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            m = g @ g.conj().T
            rho = DensityOperator(m / np.trace(m).real)
            got = ghz_quantum_correlations(GHZScenario(rho))
            for ctx, value in zip(GHZ_CONTEXTS, got):
                string = np.kron(np.kron(sigma[ctx[0]], sigma[ctx[1]]), sigma[ctx[2]])
                assert abs(value - float(np.trace(rho.matrix @ string).real)) <= ULP_BOUND

    def test_expectations_bit_identical_cold_and_warm(self, rng):
        for _ in range(30):
            rho = _random_mixed_state(rng)
            angles = dict(zip("ab", (float(a) for a in rng.uniform(-math.pi, math.pi, 2))))
            dm_a, dm_b = (
                DetectionModel(assignment=dict(zip(SPIN_KEYS, rng.uniform(0.1, 1.0, 2))))
                for _ in range(2)
            )
            sc = TwoPartyScenario(rho, angles, dm_a, dm_b)
            cold = []
            for f in (trichotomic_expectation, conditional_expectation):
                clear_operator_caches()
                cold.append(_bits(f(sc, "a", "b").value))
            warm = [
                _bits(f(sc, "a", "b").value)
                for f in (trichotomic_expectation, conditional_expectation)
            ]
            assert warm == cold
        g = GHZScenario.standard()
        clear_operator_caches()
        cold = ghz_quantum_correlations(g)
        assert [_bits(v) for v in ghz_quantum_correlations(g)] == [_bits(v) for v in cold]

    def test_ghz_search_bit_identical_cold_and_warm(self, rng):
        # Sweeps-range inputs on both sides of the feasibility edge at 5/6.
        g = GHZScenario.standard()
        for trial in range(16):
            feasible_side = trial % 2 == 0
            low, high = (0.55, 0.80) if feasible_side else (0.87, 1.0)
            kwargs = {
                "min_efficiency": float(rng.uniform(low, high)),
                "tolerance": float(10 ** rng.uniform(-6, -3)),
            }
            clear_operator_caches()
            cold = ghz_local_model_search(g, **kwargs)
            warm = ghz_local_model_search(g, **kwargs)
            assert cold.feasible == feasible_side
            assert _search_bits(warm) == _search_bits(cold)
        # The shared strategy array and the rows built from it cannot be
        # written through, so no caller can change a later search.
        outcomes = enumerate_local_strategies(3, 2)
        assert outcomes is hidden_variables._enumerated(3, 2)
        # The one class index and indicator block, built once, for the
        # search's key: this lookup hits it.
        index, block = hidden_variables._strategy_classes(3, 2, GHZ_CONTEXTS)
        info = hidden_variables._strategy_classes.cache_info()
        assert (info.currsize, info.misses) == (1, 1)
        for a in (outcomes, index, block):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1

    def test_returned_arrays_are_read_only(self):
        # The tensor is nested tuples; the Pauli-string rows behind it are a
        # read-only array, so no caller can change a later correlation.
        tensor = correlations._pauli_tensor(singlet_state())
        with pytest.raises(TypeError):
            tensor[1][1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            correlations._pauli_strings(2)[0, 0] = 1.0


class TestPerCallCost:
    """What one correlation call builds: the overall expectation reads only
    the weighted wing operators, the Pauli tensor is built once per state,
    each setting's axis once per scenario, no table for uniform detection,
    and the named states once."""

    @staticmethod
    def _record_wings(monkeypatch) -> list:
        """Log the (setting, sign) of every wing operator built."""
        built, wing = [], correlations._wing

        def spy(sc, label, dm, sign):
            built.append((label, sign))
            return wing(sc, label, dm, sign)

        monkeypatch.setattr(correlations, "_wing", spy)
        return built

    def test_overall_expectation_builds_no_detection_operator(self, rng, monkeypatch):
        # The detection operator d(+1) P+ + d(-1) P- is the sign +1 wing; only
        # the conditional correlation's mass needs it.
        built = self._record_wings(monkeypatch)
        clear_operator_caches()
        for _ in range(5):
            d_a, d_b = (DetectionModel.uniform(float(d)) for d in rng.uniform(size=2))
            sc = singlet_scenario(dict(zip("ab", rng.uniform(0, math.pi, 2))), d_a, d_b)
            trichotomic_expectation(sc, "a", "b")
        assert built == [("a", -1.0), ("b", -1.0)] * 5
        assert correlations._pauli_tensor.cache_info().misses == 1

    @staticmethod
    def _record_axes(monkeypatch) -> Counter:
        """Count the ``math.sin`` and ``math.cos`` calls, by function and argument."""
        calls = Counter()
        for name in ("sin", "cos"):
            def spy(x, name=name, real=getattr(math, name)):
                calls[name, x] += 1
                return real(x)

            monkeypatch.setattr(math, name, spy)
        return calls

    def test_bell_grid_point_builds_three_weighted_operators(self, monkeypatch):
        built = self._record_wings(monkeypatch)
        axes = self._record_axes(monkeypatch)
        clear_operator_caches()
        settings = {"a": 0.1, "b": 0.9, "c": 2.3}
        tensors = correlations._pauli_tensor.cache_info

        def grid_point(d):
            built.clear()
            axes.clear()
            dm = DetectionModel.uniform(d)
            sc = singlet_scenario(settings, dm, dm)
            values = [trichotomic_expectation(sc, x, y).value for x, y in ("ab", "ac", "bc")]
            modified_bell_report(*values)
            # One sin and one cos per setting, all made by the scenario.
            assert axes == {(f, t): 1 for f in ("sin", "cos") for t in settings.values()}
            # Two weighted wings per pair; never the sign +1 detection wing.
            assert built == [("a", -1.0), ("b", -1.0), ("a", -1.0), ("c", -1.0),
                             ("b", -1.0), ("c", -1.0)]
            return set(built)

        for d in (0.7, 0.8, 0.9):
            assert grid_point(d) == {("a", -1.0), ("b", -1.0), ("c", -1.0)}
            assert grid_point(d) == {("a", -1.0), ("b", -1.0), ("c", -1.0)}
            assert tensors().misses == 1  # no grid point rebuilds the tensor

    def test_each_setting_axis_is_computed_once_per_scenario(self, monkeypatch):
        axes = self._record_axes(monkeypatch)
        settings = {"a": -0.0, "b": 0.9, "c": 2.3, "d": 4.0e5}
        tabled = DetectionModel(assignment=dict(zip(SPIN_KEYS, (0.9, 0.6))))
        for dm in (DetectionModel.uniform(0.8), tabled):
            axes.clear()
            sc = singlet_scenario(settings, dm, dm)
            assert axes == {(f, t): 1 for f in ("sin", "cos") for t in settings.values()}
            for x, y in itertools.product(settings, repeat=2):
                trichotomic_expectation(sc, x, y)
                conditional_expectation(sc, x, y)
            efficiency_scan(singlet_state(), settings, [0.5, 1.0])
            # The scan's own scenario adds one axis per setting, nothing more.
            assert axes == {(f, t): 2 for f in ("sin", "cos") for t in settings.values()}

    def test_uniform_detection_walks_no_table(self, monkeypatch):
        tables, read_only = [], measurement._ReadOnlyDict

        def spy(table):
            tables.append(dict(table))
            return read_only(table)

        monkeypatch.setattr(measurement, "_ReadOnlyDict", spy)
        models = [DetectionModel.uniform(d) for d in (0.0, 0.5, 1.0)]
        models += [DetectionModel(None, 0.3), DetectionModel({}, 0.2), DetectionModel()]
        assert tables == []
        assert all(m.assignment is models[0].assignment and not m.assignment for m in models)
        DetectionModel(assignment={SPIN_KEYS[0]: 0.5})
        assert tables == [{SPIN_KEYS[0]: 0.5}]

    def test_bell_grid_builds_pauli_tensor_once(self):
        clear_operator_caches()
        settings = {"a": 0.1, "b": 0.9, "c": 2.3}
        state = singlet_state()
        for d in (0.7, 0.8, 0.9, 0.8):
            dm = DetectionModel.uniform(d)
            sc = TwoPartyScenario(state, settings, dm, dm)
            values = [trichotomic_expectation(sc, x, y).value for x, y in ("ab", "ac", "bc")]
            modified_bell_report(*values)
            conditional_expectation(sc, "a", "b")
        assert correlations._pauli_tensor.cache_info().misses == 1

    def test_ghz_search_solves_one_column_per_strategy_class(self, monkeypatch):
        # The classes are keyed on the contexts alone, so they are found once,
        # on the first search, and the solver sees only them, with or without
        # efficiency rows.
        clear_operator_caches()
        assert hidden_variables._strategy_classes.cache_info().currsize == 0
        lookups, solved = [], []
        first_distinct, solve = hidden_variables._first_distinct_columns, simplex.solve_lp_simplex

        def lookup(a):
            lookups.append(a.shape)
            return first_distinct(a)

        def solver(problem):
            solved.append(problem.n_vars)
            return solve(problem)

        monkeypatch.setattr(hidden_variables, "_first_distinct_columns", lookup)
        monkeypatch.setattr(simplex, "solve_lp_simplex", solver)
        g = GHZScenario.standard()
        for min_efficiency in (0.7, 0.0, 0.9, 0.0, 0.5):
            ghz_local_model_search(g, min_efficiency=min_efficiency)
        # 8 context rows and the 6 detection marginals.
        assert lookups == [(14, 729)]
        assert solved == [105] * 5

    def test_import_builds_no_strategy_classes(self):
        script = (
            "import sys; from esrsim import correlations, hidden_variables; "
            "print(hidden_variables._enumerated.cache_info().currsize, "
            "hidden_variables._strategy_classes.cache_info().currsize, "
            "'esrsim.simplex' in sys.modules)"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.stdout.split() == ["0", "0", "False"], result.stderr

    def test_named_states_are_built_once_and_read_only(self):
        for make in (correlations.singlet_state, correlations.ghz_state):
            state = make()
            assert make() is state
            with pytest.raises(ValueError, match="read-only"):
                state.matrix[0, 0] = 1.0
            clear_operator_caches()  # finds the named states' caches too
            assert make() is not state


class TestConditionalExpectation:
    def test_recovers_quantum_correlation(self):
        for theta in (0.0, math.pi / 4, math.pi / 2):
            sc = singlet_scenario(
                {"a": 0.0, "b": theta},
                DetectionModel.uniform(0.6),
                DetectionModel.uniform(0.6),
            )
            value = conditional_expectation(sc, "a", "b").value
            assert value == pytest.approx(-math.cos(theta), abs=1e-10)

    def test_equals_overall_at_unit_detection(self, rng):
        theta = float(rng.uniform(0, math.pi))
        sc = singlet_scenario({"a": 0.0, "b": theta})
        overall = trichotomic_expectation(sc, "a", "b").value
        conditional = conditional_expectation(sc, "a", "b").value
        assert conditional == pytest.approx(overall, abs=1e-12)

    def test_independent_of_uniform_efficiency(self, rng):
        for d in (0.3, 0.6, 0.9):
            for _ in range(20):
                theta_a, theta_b = rng.uniform(0, 2 * math.pi, size=2)
                sc = singlet_scenario(
                    {"a": theta_a, "b": theta_b},
                    DetectionModel.uniform(d),
                    DetectionModel.uniform(d),
                )
                value = conditional_expectation(sc, "a", "b").value
                assert value == pytest.approx(-math.cos(theta_a - theta_b), abs=1e-10)

    def test_outcome_dependent_detection_biases(self):
        # Both wings detect +1 with 0.9 and -1 with 0.5.  For the singlet at
        # separation theta with c = cos(theta), the post-selected correlation
        # is (0.04 - 0.49 c) / (0.49 - 0.04 c), biased above -cos(theta).
        skew = DetectionModel(assignment={("S", 1.0): 0.9, ("S", -1.0): 0.5})
        theta = math.pi / 4
        c = math.cos(theta)
        sc = singlet_scenario({"a": 0.0, "b": theta}, skew, skew)
        value = conditional_expectation(sc, "a", "b").value
        expected = (0.04 - 0.49 * c) / (0.49 - 0.04 * c)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value > -c  # bias pushed toward the over-detected +1 outcomes

    def test_zero_joint_detection_mass(self):
        dead = DetectionModel.uniform(0.0)
        sc = singlet_scenario({"a": 0.0, "b": 0.0}, dead, dead)
        with pytest.raises(ValueError, match="joint-detection"):
            conditional_expectation(sc, "a", "b")


class TestInequalityReports:
    def test_bell_trivial(self):
        report = modified_bell_report(0.0, 0.0, 0.0)
        assert report.satisfied
        assert report.margin == pytest.approx(1.0)

    def test_bell_violated_at_unit_detection(self):
        # Singlet at 0/60/120 degrees: correlations (-0.5, 0.5, -0.5).
        sc = singlet_scenario(
            {"a": 0.0, "b": math.radians(60.0), "c": math.radians(120.0)}
        )
        e_ab = trichotomic_expectation(sc, "a", "b").value
        e_ac = trichotomic_expectation(sc, "a", "c").value
        e_bc = trichotomic_expectation(sc, "b", "c").value
        assert (e_ab, e_ac, e_bc) == pytest.approx((-0.5, 0.5, -0.5), abs=1e-12)
        report = modified_bell_report(e_ab, e_ac, e_bc)
        assert report.lhs == pytest.approx(1.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.5, abs=1e-12)
        assert not report.satisfied

    def test_bell_restored_at_low_efficiency(self):
        dm = DetectionModel.uniform(0.7)
        sc = singlet_scenario(
            {"a": 0.0, "b": math.radians(60.0), "c": math.radians(120.0)}, dm, dm
        )
        report = modified_bell_report(
            trichotomic_expectation(sc, "a", "b").value,
            trichotomic_expectation(sc, "a", "c").value,
            trichotomic_expectation(sc, "b", "c").value,
        )
        assert report.lhs == pytest.approx(0.49, abs=1e-12)
        assert report.satisfied

    def test_chsh_trivial(self):
        report = modified_chsh_report(0.0, 0.0, 0.0, 0.0)
        assert report.satisfied
        assert report.margin == pytest.approx(2.0)

    def test_chsh_tsirelson_violation(self):
        sc = singlet_scenario(TSIRELSON)
        report = modified_chsh_report(
            trichotomic_expectation(sc, "a", "b").value,
            trichotomic_expectation(sc, "a", "c").value,
            trichotomic_expectation(sc, "d", "b").value,
            trichotomic_expectation(sc, "d", "c").value,
        )
        assert report.lhs == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert not report.satisfied

    def test_chsh_boundary_efficiency(self):
        d = 2.0 ** (-0.25)
        dm = DetectionModel.uniform(d)
        sc = singlet_scenario(TSIRELSON, dm, dm)
        report = modified_chsh_report(
            trichotomic_expectation(sc, "a", "b").value,
            trichotomic_expectation(sc, "a", "c").value,
            trichotomic_expectation(sc, "d", "b").value,
            trichotomic_expectation(sc, "d", "c").value,
        )
        assert report.lhs == pytest.approx(2.0, abs=1e-9)

    def test_out_of_range_inputs_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            modified_bell_report(1.2, 0.0, 0.0)
        with pytest.raises(ValueError, match="outside"):
            modified_chsh_report(0.0, 0.0, -1.5, 0.0)


class TestEfficiencyScan:
    def test_threshold_location(self):
        scan = efficiency_scan(singlet_state(), TSIRELSON, [0.5, 1.0])
        assert scan.threshold == pytest.approx(2.0 ** (-0.25), abs=1e-12)

    def test_grid_rows(self):
        scan = efficiency_scan(singlet_state(), TSIRELSON, [0.25, 0.5, 0.75, 1.0])
        for row in scan.rows:
            expected = row.efficiency**2 * 2.0 * math.sqrt(2.0)
            assert row.lhs == pytest.approx(expected, abs=1e-12)
        assert [r.satisfied for r in scan.rows] == [True, True, True, False]

    def test_lhs_monotone_in_efficiency(self):
        grid = [i / 10 for i in range(11)]
        scan = efficiency_scan(singlet_state(), TSIRELSON, grid)
        lhs = [r.lhs for r in scan.rows]
        assert all(a <= b + 1e-12 for a, b in zip(lhs, lhs[1:]))

    def test_no_threshold_when_never_violated(self):
        angles = {"a": 0.0, "d": 0.0, "b": 0.0, "c": 0.0}
        scan = efficiency_scan(singlet_state(), angles, [0.5, 1.0])
        assert scan.threshold is None

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            efficiency_scan(singlet_state(), TSIRELSON, [])


class TestGHZQuantum:
    def test_standard_state_signs(self):
        values = ghz_quantum_correlations(GHZScenario.standard())
        assert values == pytest.approx((1.0, -1.0, -1.0, -1.0), abs=1e-12)

    def test_minus_state_flips(self):
        vec = np.zeros(8, dtype=complex)
        vec[0], vec[7] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
        values = ghz_quantum_correlations(GHZScenario(DensityOperator.from_state_vector(vec)))
        assert values == pytest.approx((-1.0, 1.0, 1.0, 1.0), abs=1e-12)

    def test_product_state_vanishes(self):
        vec = np.zeros(8, dtype=complex)
        vec[0] = 1.0
        values = ghz_quantum_correlations(
            GHZScenario(DensityOperator.from_state_vector(vec))
        )
        assert values == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-12)


class TestGHZLocalModelSearch:
    def test_unconstrained_search_feasible(self):
        result = ghz_local_model_search(GHZScenario.standard())
        assert result.feasible
        assert result.max_residual <= 1e-9
        assert result.correlations == pytest.approx((1.0, -1.0, -1.0, -1.0), abs=1e-9)
        for mass in result.joint_detection.values():
            assert mass >= 1e-6 - 1e-12

    def test_unit_efficiency_infeasible(self):
        result = ghz_local_model_search(GHZScenario.standard(), min_efficiency=1.0)
        assert not result.feasible
        assert result.phase1_objective > 1e-9

    def test_relaxed_targets_feasible(self):
        # All-zero targets admit the uniform distribution.
        vec = np.zeros(8, dtype=complex)
        vec[0] = 1.0
        result = ghz_local_model_search(
            GHZScenario(DensityOperator.from_state_vector(vec)), min_efficiency=1.0
        )
        assert result.feasible
        assert result.correlations == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-9)

    @pytest.mark.parametrize("min_efficiency", [0.0, 1.0], ids=["feasible", "infeasible"])
    def test_targets_are_the_quantum_correlations(self, min_efficiency):
        scenario = GHZScenario.standard()
        result = ghz_local_model_search(scenario, min_efficiency=min_efficiency)
        assert result.feasible == (min_efficiency == 0.0)
        want = ghz_quantum_correlations(scenario)
        assert [x.hex() for x in result.targets] == [x.hex() for x in want]
        if not result.feasible:
            feasible_only = ("weights", "correlations", "efficiencies",
                             "joint_detection", "max_residual", "support_size")
            assert [getattr(result, name) for name in feasible_only] == [None] * 6

    def test_point_failing_its_certificate_raises(self, monkeypatch):
        # A solver round-off path that ends "feasible" must not be reported
        # as a local model: all-zero weights break the normalization row, and
        # the search reads the certificate the result carries.
        def bogus(problem):
            x = np.zeros(problem.n_vars)
            return LPResult("feasible", x, 0.0, 1, feasibility_residuals(problem, x))

        # The search imports the solver from ``simplex`` when it runs.
        monkeypatch.setattr(simplex, "solve_lp_simplex", bogus)
        with pytest.raises(RuntimeError, match="fails its feasibility certificate"):
            ghz_local_model_search(GHZScenario.standard())

    def test_results_live_on_the_original_strategy_indices(self):
        # The solver drops repeated strategy columns internally; the reported
        # weights must still cover all 729 strategies and reproduce every
        # reported number on the unreduced LP.
        scenario = GHZScenario.standard()
        result = ghz_local_model_search(scenario, min_efficiency=0.7, tolerance=1e-4)
        assert result.feasible
        weights = result.weights
        assert weights.shape == (729,)
        assert result.support_size == int(np.count_nonzero(weights > ARITHMETIC_TOL))

        outcomes = enumerate_local_strategies(3, 2)
        targets = [
            CorrelationTarget(settings=ctx, value=value, tolerance=1e-4)
            for ctx, value in zip(GHZ_CONTEXTS, ghz_quantum_correlations(scenario))
        ]
        problem = build_feasibility_lp(outcomes, targets, min_efficiency=0.7)
        assert problem.n_vars == 729
        certificate = feasibility_residuals(problem, weights)
        assert certificate.satisfied()
        assert result.max_residual == max(
            certificate.max_equality_residual, certificate.max_inequality_violation
        )

        # Later copies of a repeated column carry exactly zero weight.
        columns = np.vstack([problem.a_eq, problem.a_ub]).T
        first = {}
        for j, column in enumerate(columns):
            first.setdefault(column.tobytes(), j)
        copies = np.setdiff1d(np.arange(729), list(first.values()))
        assert copies.size == 729 - 105
        assert not np.any(weights[copies])

        for ctx in GHZ_CONTEXTS:
            sel = outcomes[:, [0, 1, 2], list(ctx)]
            mass = weights @ np.all(sel != 0, axis=1)
            assert result.joint_detection[ctx] == pytest.approx(mass, abs=1e-12)
            product = weights @ np.prod(sel, axis=1)
            assert result.correlations[GHZ_CONTEXTS.index(ctx)] == pytest.approx(
                product / mass, abs=1e-12
            )
        for (party, setting), efficiency in result.efficiencies.items():
            marginal = weights @ (outcomes[:, party, setting] != 0)
            assert efficiency == pytest.approx(marginal, abs=1e-12)
            assert efficiency >= 0.7 - 1e-9

    def test_bit_identical_to_solving_all_729_columns(self, monkeypatch):
        # The search builds and solves the LP over one strategy per class;
        # solving the unreduced LP as it is built must give the same verdict,
        # pivots and bits.  No grid or noisy-GHZ search sends the Dantzig
        # attempt to the exact loop, so one added grid point makes that
        # attempt fail.  The two certificates sum the same products over
        # different columns and in another order, so their residuals agree
        # to round-off, not bit for bit.
        phase_one, retries, forced = simplex._phase_one, [], [False]

        def counted(problem):
            retries.append(forced[0])
            if forced[0]:
                raise simplex._PivotFailure("phase-one unbounded: no valid pivot row", 5)
            return phase_one(problem)

        monkeypatch.setattr(simplex, "_phase_one", counted)
        # Grid points from both ends and both sides of the 5/6 edge.
        grid = np.linspace(0.0, 1.0, 41)[[0, 21, 23, 27, 32, 33, 34, 40]]
        standard = GHZScenario.standard()
        cases = [
            (standard, float(eta), mjd, tol, False)
            for tol in (0.0, 1e-6, 1e-3)
            for mjd in (0.0, 1e-6, 0.3)
            for eta in grid
        ]
        # A low-efficiency point, and one whose Dantzig attempt is made to fail.
        cases.append((standard, float(np.linspace(0.0, 1.0, 41)[4]), 0.0, 1e-6, False))
        cases.append((standard, float(np.linspace(0.0, 1.0, 41)[22]), 1e-6, 1e-3, True))
        ghz = correlations.ghz_state().matrix
        for p in np.linspace(0.3, 1.0, 36)[[25, 32, 33]]:
            noisy = GHZScenario(DensityOperator(p * ghz + (1 - p) * np.eye(8) / 8))
            cases += [
                (noisy, float(eta), mjd, 0.0, False)
                for mjd in (0.0, 1e-6, 0.3)
                for eta in np.linspace(0.0, 1.0, 21)[[0, 1, 2, 12, 17, 18]]
            ]

        outcomes = []
        for scenario, min_efficiency, min_joint_detection, tolerance, force in cases:
            forced[0] = force
            got, got_residual = _search_verdict(
                scenario, min_efficiency, min_joint_detection, tolerance
            )
            want, want_residual = _reference_verdict(
                scenario, min_efficiency, min_joint_detection, tolerance
            )
            assert got == want, (min_efficiency, min_joint_detection, tolerance)
            if got[0] is True:
                assert got_residual <= simplex.FEASIBILITY_TOL
                assert want_residual <= simplex.FEASIBILITY_TOL
                assert abs(got_residual - want_residual) <= 1e-15
            outcomes.append(got[0])
        # Not vacuous: feasible and infeasible occur, nothing raises, and the
        # Dantzig attempt goes to the exact loop.
        assert True in outcomes and False in outcomes
        assert all(isinstance(o, bool) for o in outcomes)
        assert any(retries)

    def test_values_match_dot_products_over_all_729_strategies(self):
        # The search sums over its 105 class representatives; the values it
        # reports are those of the 729 weights it returns, on the 369-LP
        # grid and the 2,268-search noisy-GHZ probe.
        outcomes = enumerate_local_strategies(3, 2)
        rows = []
        for ctx in GHZ_CONTEXTS:
            sel = outcomes[:, [0, 1, 2], list(ctx)]
            rows += [np.prod(sel, axis=1), np.all(sel != 0, axis=1)]
        rows += [outcomes[:, party, setting] != 0 for party in range(3) for setting in range(2)]
        indicators = np.array(rows, dtype=float)

        standard = GHZScenario.standard()
        searches = [
            (standard, float(eta), joint, tolerance)
            for tolerance in (0.0, 1e-6, 1e-3)
            for joint in (0.0, 1e-6, 0.3)
            for eta in np.linspace(0.0, 1.0, 41)
        ]
        ghz = correlations.ghz_state().matrix
        for p in np.linspace(0.3, 1.0, 36):
            noisy = GHZScenario(DensityOperator(p * ghz + (1 - p) * np.eye(8) / 8))
            searches += [
                (noisy, float(eta), joint, 0.0)
                for joint in (0.0, 1e-6, 0.3)
                for eta in np.linspace(0.0, 1.0, 21)
            ]
        assert len(searches) == 369 + 2268
        feasible = 0
        for args in searches:
            found = ghz_local_model_search(*args)
            if not found.feasible:
                continue
            feasible += 1
            values = np.dot(indicators, found.weights)
            products, masses, marginals = values[0:8:2], values[1:8:2], values[8:]
            assert list(found.joint_detection) == list(GHZ_CONTEXTS)
            assert np.allclose(list(found.joint_detection.values()), masses, rtol=0, atol=1e-12)
            for got, product, mass in zip(found.correlations, products, masses):
                if mass == 0.0:
                    assert math.isnan(got), args[1:]
                else:
                    assert abs(got - product / mass) <= 1e-12, args[1:]
            assert list(found.efficiencies) == [(q, s) for q in range(3) for s in range(2)]
            assert np.allclose(list(found.efficiencies.values()), marginals, rtol=0, atol=1e-12)
        assert 0 < feasible < len(searches)

    def test_no_perfect_strategy_exists_at_unit_detection(self):
        # Exhaustive cross-check of the infeasibility verdict: no always-
        # detecting strategy satisfies all four sign constraints.
        outcomes = enumerate_local_strategies(3, 2)
        contexts = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
        wanted = (1, -1, -1, -1)
        for s in outcomes:
            if np.any(s == 0):
                continue
            products = [
                s[0, c[0]] * s[1, c[1]] * s[2, c[2]] for c in contexts
            ]
            assert tuple(products) != wanted


def _kernel_probe_reprs() -> str:
    """``repr`` of every field of a few GHZ searches, one line per field:
    standard-state grid points on both sides of 5/6 and two noisy-state
    searches whose values once moved with the BLAS kernel."""
    standard = GHZScenario.standard()
    ghz = correlations.ghz_state().matrix
    grid = np.linspace(0.0, 1.0, 41)[[23, 30, 33, 34, 38]]
    searches = [(standard, float(eta), 1e-6, 1e-6) for eta in grid]
    searches.append((standard, 0.7, 0.3, 1e-3))
    for p, eta, joint in ((0.8, 0.6, 1e-6), (0.94, 0.05, 0.0)):
        noisy = GHZScenario(DensityOperator(p * ghz + (1 - p) * np.eye(8) / 8))
        searches.append((noisy, eta, joint, 0.0))
    lines = []
    for args in searches:
        found = ghz_local_model_search(*args)
        for name in type(found).__slots__:
            value = getattr(found, name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            lines.append(f"{args[1:]} {name} {value!r}")
    return "\n".join(lines)


def _openblas_core(**env) -> str | None:
    """The core OpenBLAS reports loading under ``env``, or None when it says nothing."""
    result = subprocess.run(
        [sys.executable, "-c", "import numpy"],
        capture_output=True, text=True, env={**os.environ, "OPENBLAS_VERBOSE": "2", **env},
    )
    cores = [line.split(":", 1)[1].strip() for line in result.stderr.splitlines()
             if line.startswith("Core:")]
    return cores[0] if cores else None


class TestBlasKernelIndependence:
    """GHZ search values are numpy's own sums, so another OpenBLAS kernel in
    a child process gives the same ``repr`` of every result field."""

    @pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
    def test_search_fields_match_under_another_kernel(self, kernel):
        default, forced = _openblas_core(), _openblas_core(OPENBLAS_CORETYPE=kernel)
        if forced is None:
            pytest.skip("OPENBLAS_VERBOSE=2 reports no core: this numpy build does not "
                        "honor OPENBLAS_CORETYPE")
        if forced == default:
            pytest.skip(f"OPENBLAS_CORETYPE={kernel} loads core {forced}, the one this "
                        "process uses already: nothing to compare")
        tests = Path(__file__).resolve().parent
        script = "from test_correlations import _kernel_probe_reprs; print(_kernel_probe_reprs())"
        path = os.pathsep.join(
            filter(None, [str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True,
            env={**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        want = _kernel_probe_reprs().splitlines()
        got = result.stdout.splitlines()
        assert len(got) == len(want) == 8 * 10
        assert [line for line, other in zip(got, want) if line != other] == []


def _highs_verdict(scenario, min_efficiency, min_joint_detection, tolerance):
    """Feasibility of the search's LP, decided by scipy's HiGHS."""
    from scipy.optimize import linprog

    targets = [
        CorrelationTarget(settings=ctx, value=value, tolerance=tolerance)
        for ctx, value in zip(GHZ_CONTEXTS, ghz_quantum_correlations(scenario))
    ]
    problem = build_feasibility_lp(
        enumerate_local_strategies(3, 2), targets, min_joint_detection, min_efficiency
    )
    result = linprog(
        np.zeros(problem.n_vars),
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        A_ub=problem.a_ub if problem.a_ub.size else None,
        b_ub=problem.b_ub if problem.a_ub.size else None,
        bounds=(0, None),
        method="highs",
    )
    assert result.status in (0, 2), result.message
    return result.status == 0


class TestVerdictsAgreeWithHighs:
    """Every verdict of the search equals HiGHS's, and none raises."""

    @pytest.mark.parametrize("min_joint_detection", [0.0, 1e-6, 0.3])
    @pytest.mark.parametrize("tolerance", [0.0, 1e-6, 1e-3])
    def test_standard_state_grid(self, tolerance, min_joint_detection):
        # Bland's rule alone raises on 71 of these 369 points and calls
        # (0.2, 1e-6, 0.3), where a local model exists, infeasible.
        scenario = GHZScenario.standard()
        for min_efficiency in np.linspace(0.0, 1.0, 41):
            args = (scenario, float(min_efficiency), min_joint_detection, tolerance)
            found = ghz_local_model_search(*args)
            assert found.feasible == _highs_verdict(*args), args[1:]

    def test_noisy_states_where_bland_fails(self):
        # p|GHZ><GHZ| + (1 - p)I/8 at tolerance 0: each (p, min_joint_detection)
        # with the linspace(0, 1, 21) indices of its min_efficiency values.
        points = {
            (0.94, 0.0): (1, 2, 3, 4, 5, 7, 8),
            (0.96, 0.0): (6,),
            (0.96, 0.3): (1, 2),
            (0.98, 0.0): (1, 2, 3, 4, 5, 6, 7, 8, 9),
        }
        ps = np.linspace(0.3, 1.0, 36)
        ghz = correlations.ghz_state().matrix
        for (p, min_joint_detection), indices in points.items():
            p = ps[np.argmin(abs(ps - p))]
            scenario = GHZScenario(DensityOperator(p * ghz + (1 - p) * np.eye(8) / 8))
            for eta in np.linspace(0.0, 1.0, 21)[list(indices)]:
                args = (scenario, float(eta), min_joint_detection, 0.0)
                found = ghz_local_model_search(*args)
                assert found.feasible == _highs_verdict(*args), (p, *args[1:])
        assert sum(map(len, points.values())) == 19


class TestBruteForceBounds:
    def test_chsh_bound_is_two(self):
        bound = brute_force_trichotomic_bound("chsh")
        assert bound.value == 2.0

    def test_bell_anticorrelation_never_violated(self):
        bound = brute_force_trichotomic_bound("bell")
        assert bound.value == 0.0  # tight, never strictly violated
        assert all(len(t) == 3 for t in bound.tight)

    def test_unknown_expression(self):
        with pytest.raises(ValueError, match="unknown expression"):
            brute_force_trichotomic_bound("ghz")

    @pytest.mark.parametrize("expression", ["chsh", "bell"])
    def test_exact_bound_matches_windowed_scan(self, expression):
        # Reference: a running best/ties scan with 1e-15 tie windows.  Integer
        # outcomes make every value exact, so the windows never matter.
        if expression == "chsh":
            def lhs(a_a, a_d, b_b, b_c):
                return abs(a_a * b_b - a_a * b_c) + abs(a_d * b_b + a_d * b_c)
            slots = 4
        else:
            def lhs(a_a, a_b, a_c):
                return abs(a_a * a_c - a_a * a_b) - (1.0 - a_b * a_c)
            slots = 3
        best, tight = -math.inf, []
        for assignment in itertools.product((-1, 0, 1), repeat=slots):
            value = lhs(*assignment)
            if value > best + 1e-15:
                best, tight = value, [assignment]
            elif abs(value - best) <= 1e-15:
                tight.append(assignment)
        bound = brute_force_trichotomic_bound(expression)
        assert repr(bound.value) == repr(float(best))
        assert bound.tight == tuple(tight)
        assert {type(x) for t in bound.tight for x in t} == {int}

    def test_random_mixtures_respect_chsh(self, rng):
        outcomes = enumerate_local_strategies(2, 2)
        e_ab = (outcomes[:, 0, 0] * outcomes[:, 1, 0]).astype(float)
        e_ac = (outcomes[:, 0, 0] * outcomes[:, 1, 1]).astype(float)
        e_db = (outcomes[:, 0, 1] * outcomes[:, 1, 0]).astype(float)
        e_dc = (outcomes[:, 0, 1] * outcomes[:, 1, 1]).astype(float)
        for _ in range(1000):
            w = rng.random(81)
            w /= w.sum()
            lhs = abs(w @ e_ab - w @ e_ac) + abs(w @ e_db + w @ e_dc)
            assert lhs <= 2.0 + 1e-12

    def test_random_mixtures_respect_bell_under_anticorrelation(self, rng):
        assignments = [
            (a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)
        ]
        e_ab = np.array([-a * b for a, b, c in assignments], dtype=float)
        e_ac = np.array([-a * c for a, b, c in assignments], dtype=float)
        e_bc = np.array([-b * c for a, b, c in assignments], dtype=float)
        for _ in range(1000):
            w = rng.random(27)
            w /= w.sum()
            lhs = abs(w @ e_ab - w @ e_ac)
            rhs = 1.0 + w @ e_bc
            assert lhs <= rhs + 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: TwoPartyScenario(
                GHZScenario.standard().joint_state,
                {},
                DetectionModel.uniform(1.0),
                DetectionModel.uniform(1.0),
            ),
            "two-party state must be 4-dimensional, got 8",
        ),
        (lambda: singlet_scenario({"a": math.inf}), "angle for setting 'a' is not finite"),
        (lambda: GHZScenario(singlet_state()), "GHZ state must be 8-dimensional, got 4"),
        (
            lambda: efficiency_scan(singlet_state(), TSIRELSON, [0.5, 1.5]),
            "efficiency 1.5 outside [0, 1]",
        ),
        (
            lambda: efficiency_scan(singlet_state(), {"a": 0.0, "b": 0.0}, [0.5]),
            "angle set missing settings ['c', 'd']",
        ),
    ],
    ids=[
        "two-party-dimension",
        "non-finite-angle",
        "ghz-dimension",
        "efficiency-above-one",
        "missing-setting",
    ],
)
def test_malformed_input_rejected(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
