"""Matrix layer: density operators and validators."""

from collections import namedtuple

import numpy as np
import pytest

from conftest import P_DOWN, P_UP, ket_density, z_observable
from esrsim.linalg import (
    DensityOperator,
    SpectralObservable,
    as_complex_matrix,
    validate_density_operator,
    validate_spectral_observable,
)
from esrsim.measurement import (
    DetectionModel,
    GeneralizedObservable,
    Property,
    luders_update,
    unitary_evolve,
)
from esrsim.selftest import random_density, random_observable


# A spectrum as a plain two-field record: the validator reads only these two
# fields, so it can inspect spectra that the SpectralObservable constructor
# rejects.
Spectrum = namedtuple("Spectrum", ["eigenvalues", "projectors"])


def _report_order_spectrum() -> Spectrum:
    # One non-idempotent projector (for 0.0), one non-orthogonal pair
    # (1.0, -1.0) and a sum that misses the identity.
    first = np.diag([1.0, 0.0, 0.0]).astype(complex)
    half = np.diag([0.0, 0.0, 0.5]).astype(complex)
    plus = np.zeros((3, 3), dtype=complex)
    plus[:2, :2] = 0.5
    return Spectrum(eigenvalues=(1.0, 0.0, -1.0), projectors=(first, half, plus))


_PLUS = np.full((2, 2), 0.5, dtype=complex)
_HALF = np.diag([0.5, 0.5]).astype(complex)
_EMPTY = np.zeros((0, 0), dtype=complex)
DEFECTIVE = {
    "incomplete": Spectrum(eigenvalues=(1.0,), projectors=(P_UP,)),
    "non-orthogonal": Spectrum(eigenvalues=(1.0, -1.0), projectors=(P_UP, _PLUS)),
    "duplicate-eigenvalues": Spectrum(eigenvalues=(1.0, 1.0), projectors=(P_UP, P_DOWN)),
    "non-idempotent": Spectrum(eigenvalues=(1.0, -1.0), projectors=(_HALF, P_DOWN)),
    "report-order": _report_order_spectrum(),
    "empty-projectors": Spectrum(eigenvalues=(1.0, -1.0), projectors=(_EMPTY, _EMPTY)),
}


class TestValidateDensityOperator:
    def test_valid_mixed_state(self):
        assert validate_density_operator(np.diag([0.5, 0.5])).valid
        # Negative eigenvalues within the structural tolerance are roundoff.
        assert validate_density_operator(np.diag([1.0 + 5e-11, -5e-11])).valid

    def test_negative_eigenvalue(self):
        for diagonal in ([1.5, -0.5], [1.0 + 2e-10, -2e-10]):
            report = validate_density_operator(np.diag(diagonal))
            assert not report.valid
            assert any(v.invariant == "positivity" for v in report.violations)

    def test_not_hermitian(self):
        report = validate_density_operator(np.array([[0.5, 0.5], [0.2, 0.5]]))
        assert not report.valid
        assert any(v.invariant == "hermiticity" for v in report.violations)

    def test_bad_trace(self):
        report = validate_density_operator(np.diag([0.7, 0.7]))
        assert not report.valid
        assert any(v.invariant == "trace" for v in report.violations)

    def test_never_raises(self):
        report = validate_density_operator(np.ones((2, 3)))
        assert not report.valid

    def test_empty_matrix_is_reported(self):
        report = validate_density_operator(np.zeros((0, 0)))
        assert not report.valid
        assert [(v.invariant, v.message) for v in report.violations] == [
            ("shape", "empty matrix")
        ]


class TestValidateSpectralObservable:
    def test_valid_z(self):
        assert validate_spectral_observable(z_observable()).valid

    def test_incomplete(self):
        report = validate_spectral_observable(DEFECTIVE["incomplete"])
        assert not report.valid
        assert any(v.invariant == "completeness" for v in report.violations)

    def test_non_orthogonal(self):
        report = validate_spectral_observable(DEFECTIVE["non-orthogonal"])
        assert not report.valid
        assert any(v.invariant == "orthogonality" for v in report.violations)

    def test_duplicate_eigenvalues(self):
        report = validate_spectral_observable(DEFECTIVE["duplicate-eigenvalues"])
        assert not report.valid
        assert any(v.invariant == "distinctness" for v in report.violations)

    def test_non_idempotent(self):
        report = validate_spectral_observable(DEFECTIVE["non-idempotent"])
        assert not report.valid
        assert any(v.invariant == "idempotence" for v in report.violations)

    def test_report_order_and_messages(self):
        report = validate_spectral_observable(DEFECTIVE["report-order"])
        assert not report.valid
        assert [(v.invariant, v.message) for v in report.violations] == [
            ("idempotence", "projector for 0.0 fails P^2 = P = P^dagger by 2.500e-01"),
            ("orthogonality", "projectors for 1.0 and -1.0 are non-orthogonal by 5.000e-01"),
            ("completeness", "projectors sum deviates from identity by 5.000e-01"),
        ]

    def test_empty_projectors_are_reported(self):
        report = validate_spectral_observable(DEFECTIVE["empty-projectors"])
        assert not report.valid
        assert [(v.invariant, v.message) for v in report.violations] == [
            ("shape", "empty matrix")
        ]


class TestAlgebraProperties:
    def test_trace_cyclicity(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            assert abs(np.trace(a @ b) - np.trace(b @ a)) <= 1e-12

    def test_validator_accepts_update_and_evolution_outputs(self, rng):
        # Closure: every state the dynamics produce passes validation.
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            rho = random_density(rng, dim)
            obs = random_observable(rng, dim)
            gen = GeneralizedObservable(obs)
            sigma = (gen.base.eigenvalues[0],)
            dm = DetectionModel.uniform(float(rng.uniform(0.3, 1.0)))
            prop = Property(gen, sigma)
            updated = luders_update(rho, prop, dm)
            assert validate_density_operator(updated.matrix).valid
            evolved = unitary_evolve(rho, obs, float(rng.uniform(-3, 3)))
            assert validate_density_operator(evolved.matrix).valid

    def test_density_constructor_rejects_bad_input(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 0.5], [0.2, 0.5]]))

    @pytest.mark.parametrize(
        "matrix",
        [
            np.diag([1.5, -0.5]),
            np.array([[0.5, 0.5], [0.2, 0.5]]),
            np.diag([0.7, 0.7]),
            np.ones((2, 3)) / 2,
        ],
    )
    def test_density_constructor_raises_the_validator_report(self, matrix):
        description = validate_density_operator(matrix).describe()
        with pytest.raises(ValueError) as excinfo:
            DensityOperator(matrix)
        assert str(excinfo.value) == description

    @pytest.mark.parametrize("name", list(DEFECTIVE))
    def test_spectral_constructor_raises_the_validator_report(self, name):
        spectrum = DEFECTIVE[name]
        description = validate_spectral_observable(spectrum).describe()
        with pytest.raises(ValueError) as excinfo:
            SpectralObservable(spectrum.eigenvalues, spectrum.projectors)
        assert str(excinfo.value) == description

    def test_density_constructor_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            DensityOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_ket_density_is_valid(self):
        rho = ket_density(0, 2)
        assert validate_density_operator(rho.matrix).valid
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: as_complex_matrix([1.0, 0.0]), "expected a 2-D matrix, got ndim=1"),
        (lambda: DensityOperator.from_state_vector([0.0, 0.0]), "zero state vector"),
        (lambda: SpectralObservable((), ()), "observable needs at least one eigenvalue"),
        (
            lambda: SpectralObservable((1.0, np.nan), (P_UP, P_DOWN)),
            "eigenvalues must be finite",
        ),
        (
            lambda: SpectralObservable((1.0, -1.0, 0.0), (P_UP, P_DOWN)),
            "3 eigenvalues but 2 projectors",
        ),
        (
            lambda: SpectralObservable((1.0, -1.0), (P_UP, np.eye(3))),
            "projectors must be square and equal-dimensional",
        ),
        (
            lambda: z_observable().projector_for(0.5),
            "eigenvalue 0.5 not in spectrum (1.0, -1.0)",
        ),
    ],
    ids=[
        "one-dimensional-matrix",
        "zero-state-vector",
        "no-eigenvalues",
        "non-finite-eigenvalue",
        "count-mismatch",
        "unequal-projector-shapes",
        "eigenvalue-not-in-spectrum",
    ],
)
def test_malformed_input_rejected(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
