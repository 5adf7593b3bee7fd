"""Immutable records stay immutable: assigning or deleting an attribute raises
``AttributeError``, and a copy carries the same field values.  The cached
named states rely on this, since ``singlet_state()`` and ``ghz_state()`` hand
one ``DensityOperator`` to every caller."""

import copy

import pytest

from conftest import ket_density, z_generalized, z_observable, z_property
from esrsim import cli, correlations, hidden_variables, linalg, measurement, mixtures, selftest
from esrsim import simplex


def _component():
    return mixtures.ProperComponent(1.0, ket_density(0, 2), "a")


def _two_party():
    unit = measurement.DetectionModel.uniform(1.0)
    return correlations.TwoPartyScenario(correlations.singlet_state(), {"a": 0.0}, unit, unit)


def _scan():
    angles = {"a": 0.0, "d": 1.5, "b": 0.7, "c": 2.3}
    return correlations.efficiency_scan(correlations.singlet_state(), angles, [0.5])


def _problem():
    return simplex.FeasibilityProblem(1, [[1.0]], [1.0])


def _microstates():
    return hidden_variables.MicrostateModel(
        hidden_variables.MicroPropertySet(("f",)), (frozenset({"f"}),), (1.0,)
    )


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
    "MicroPropertySet": (lambda: hidden_variables.MicroPropertySet(("f",)), "labels"),
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
