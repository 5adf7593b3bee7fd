"""Immutable records stay immutable: assigning or deleting an attribute raises
``AttributeError``, and a copy carries the same field values.  The cached
named states rely on this, since ``singlet_state()`` and ``ghz_state()`` hand
one ``DensityOperator`` to every caller."""

import copy
import math
import operator
import pickle

import numpy as np
import pytest

from conftest import ket_density, z_generalized, z_observable, z_property
from esrsim import cli, correlations, hidden_variables, linalg, measurement, mixtures, selftest
from esrsim import simplex


def _component():
    return mixtures.ProperComponent(1.0, ket_density(0, 2), "a")


def _two_party():
    unit = measurement.DetectionModel.uniform(1.0)
    return correlations.TwoPartyScenario(correlations.singlet_state(), {"a": 0.0}, unit, unit)


def _tabled(default=1.0):
    return measurement.DetectionModel({("S", 1.0): 0.5, ("S", -1.0): 0.25}, default)


def _scan():
    angles = {"a": 0.0, "d": 1.5, "b": 0.7, "c": 2.3}
    return correlations.efficiency_scan(correlations.singlet_state(), angles, [0.5])


def _problem():
    return simplex.FeasibilityProblem(1, [[1.0]], [1.0])


def _microstates():
    return hidden_variables.MicrostateModel(("f",), (frozenset({"f"}),), (1.0,))


# class name -> (factory, a field to assign)
RECORDS = {
    "InvariantViolation": (lambda: linalg.InvariantViolation("trace", 0.0, "m"), "deviation"),
    "ValidityReport": (lambda: linalg.ValidityReport(True), "valid"),
    "DensityOperator": (correlations.singlet_state, "matrix"),
    "SpectralObservable": (z_observable, "eigenvalues"),
    "GeneralizedObservable": (z_generalized, "base"),
    "Property": (lambda: z_property(1.0), "projector"),
    "DetectionModel": (lambda: measurement.DetectionModel.uniform(0.5), "default_value"),
    "ProbabilityTriple": (lambda: measurement.ProbabilityTriple(0.25, 0.5, 0.5), "overall"),
    "ProperComponent": (_component, "weight"),
    "ProperMixture": (lambda: mixtures.ProperMixture((_component(),)), "components"),
    "Record": (lambda: cli.Record("x", 1.0), "value"),
    "TwoPartyScenario": (_two_party, "settings"),
    "CorrelationResult": (lambda: correlations.CorrelationResult(0.5), "value"),
    "InequalityReport": (lambda: correlations.modified_bell_report(0.1, 0.2, 0.3), "lhs"),
    "ScanRow": (lambda: _scan().rows[0], "lhs"),
    "EfficiencyScan": (_scan, "threshold"),
    "GHZScenario": (correlations.GHZScenario.standard, "joint_state"),
    "GHZLocalModelResult": (
        lambda: correlations.ghz_local_model_search(correlations.GHZScenario.standard()),
        "feasible",
    ),
    "BruteForceBound": (lambda: correlations.brute_force_trichotomic_bound("bell"), "value"),
    "MicrostateModel": (_microstates, "weights"),
    "CorrelationTarget": (lambda: hidden_variables.CorrelationTarget((0, 0), 0.5), "tolerance"),
    "FeasibilityProblem": (_problem, "n_vars"),
    "LPResult": (lambda: simplex.solve_lp_simplex(_problem()), "status"),
    "FeasibilityCertificate": (
        lambda: simplex.feasibility_residuals(_problem(), [1.0]), "worst_row"
    ),
    "SuiteResult": (lambda: selftest.SuiteResult("s", True, 1, 0.0), "passed"),
    "SelfTestReport": (lambda: selftest.SelfTestReport(()), "suites"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_rejects_assignment(name):
    make, field = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unlisted = None
    assert getattr(record, field) is before
    assert getattr(copy.copy(record), field) is before


def test_cached_states_are_shared_and_frozen():
    for named in (correlations.singlet_state, correlations.ghz_state):
        state = named()
        assert named() is state
        with pytest.raises(AttributeError):
            state.matrix = state.matrix.copy()
        assert not state.matrix.flags.writeable


# The mapping fields that later fields or fast paths are derived from:
# name -> (factory, field, a key present in the mapping)
MAPPINGS = {
    "TwoPartyScenario.settings": (_two_party, "settings", "a"),
    "DetectionModel.assignment": (_tabled, "assignment", ("S", 1.0)),
    "DetectionModel.uniform.assignment": (
        lambda: measurement.DetectionModel.uniform(0.5), "assignment", ("S", 1.0)
    ),
}

MUTATIONS = {
    "nan": lambda m, key: operator.setitem(m, key, math.nan),
    "string": lambda m, key: operator.setitem(m, key, "0.5"),
    "out of range": lambda m, key: operator.setitem(m, key, 7.0),
    "delete": lambda m, key: operator.delitem(m, key),
    "update": lambda m, key: m.update({key: 7.0}),
    "in-place or": lambda m, key: operator.ior(m, {key: 7.0}),
    "setdefault": lambda m, key: m.setdefault(key, 7.0),
    "pop": lambda m, key: m.pop(key),
    "popitem": lambda m, key: m.popitem(),
    "clear": lambda m, key: m.clear(),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("name", MAPPINGS)
def test_mapping_field_rejects_item_changes(name, mutation):
    make, field, key = MAPPINGS[name]
    mapping = getattr(make(), field)
    plain = dict(mapping)
    with pytest.raises(TypeError, match="read-only"):
        MUTATIONS[mutation](mapping, key)
    assert mapping == plain and plain == mapping
    assert repr(mapping) == repr(plain)


@pytest.mark.parametrize("name", MAPPINGS)
def test_mapping_field_survives_copy_and_pickle(name):
    make, field, key = MAPPINGS[name]
    record = make()
    plain = dict(getattr(record, field))
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        mapping = getattr(clone, field)
        assert mapping == plain
        with pytest.raises(TypeError, match="read-only"):
            mapping[key] = 7.0


def test_rejected_changes_leave_results_unchanged():
    # Each write used to get past the constructors' checks and fail later as
    # "correlation = ... is outside [-1, 1]", or be used silently.
    settings = {"a": 0.3, "b": 1.1}
    for dm in (measurement.DetectionModel.uniform(0.9), _tabled(0.7)):
        sc = correlations.TwoPartyScenario(correlations.singlet_state(), settings, dm, dm)
        before = correlations.trichotomic_expectation(sc, "a", "b").value
        for key, value in (("a", math.nan), ("a", "0.5")):
            with pytest.raises(TypeError):
                sc.settings[key] = value
        with pytest.raises(TypeError):
            dm.assignment[("S", 1.0)] = 7.0
        assert correlations.trichotomic_expectation(sc, "a", "b").value == before
        assert sc.settings == settings


def test_feasibility_problem_keeps_read_only_copies():
    # A write to the caller's arrays after construction used to get past the
    # finiteness check and end as "fails its feasibility certificate".
    a_eq, b_eq = np.array([[1.0, 1.0]]), np.array([1.0])
    a_ub, b_ub = np.array([[1.0, 0.0]]), np.array([0.5])
    problem = simplex.FeasibilityProblem(2, a_eq, b_eq, a_ub, b_ub)
    no_rows = simplex.FeasibilityProblem(2, a_eq, b_eq)
    for array in (a_eq, b_eq, a_ub, b_ub):
        array.flat[0] = math.nan
    for record in (problem, no_rows):
        for name in ("a_eq", "b_eq", "a_ub", "b_ub"):
            array = getattr(record, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = math.inf
    assert problem.a_eq.tolist() == [[1.0, 1.0]] and problem.b_ub.tolist() == [0.5]
    result = simplex.solve_lp_simplex(problem)
    assert result.feasible
    assert simplex.feasibility_residuals(problem, result.x).satisfied()
