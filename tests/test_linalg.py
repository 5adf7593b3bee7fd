"""Matrix layer: tensor products and validators."""

import numpy as np
import pytest

from conftest import P_DOWN, P_UP, ket_density, z_observable
from esrsim.linalg import (
    DensityOperator,
    SpectralObservable,
    tensor_product,
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


class TestTensorProduct:
    def test_identity_case(self):
        result = tensor_product(np.eye(2), np.eye(2))
        np.testing.assert_array_equal(result, np.eye(4))

    def test_diagonal_product_rule(self):
        result = tensor_product(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(result, np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_index_convention(self):
        # (|0><0|, |1><1|) lands at composite index 0*2+1 = 1.
        result = tensor_product(P_UP, P_DOWN)
        np.testing.assert_array_equal(result, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_dimensions_multiply(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(4, 5))
        assert tensor_product(a, b).shape == (8, 15)

    def test_associative_on_dyadic_entries(self, rng):
        # Entries k/16 keep all triple products exactly representable, so
        # associativity holds bit for bit under the fixed index convention.
        def dyadic(shape):
            return (
                rng.integers(-8, 9, size=shape) + 1j * rng.integers(-8, 9, size=shape)
            ).astype(complex) / 16.0

        a, b, c = dyadic((2, 2)), dyadic((3, 3)), dyadic((2, 2))
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        np.testing.assert_array_equal(left, right)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            tensor_product(np.array([[np.nan, 0], [0, 1]]), np.eye(2))


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


class TestValidateSpectralObservable:
    def test_valid_z(self):
        assert validate_spectral_observable(z_observable()).valid

    def test_incomplete(self):
        obs = SpectralObservable(eigenvalues=(1.0,), projectors=(P_UP,))
        report = validate_spectral_observable(obs)
        assert not report.valid
        assert any(v.invariant == "completeness" for v in report.violations)

    def test_non_orthogonal(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        obs = SpectralObservable(eigenvalues=(1.0, -1.0), projectors=(P_UP, plus))
        report = validate_spectral_observable(obs)
        assert not report.valid
        assert any(v.invariant == "orthogonality" for v in report.violations)

    def test_duplicate_eigenvalues(self):
        obs = SpectralObservable(eigenvalues=(1.0, 1.0), projectors=(P_UP, P_DOWN))
        report = validate_spectral_observable(obs)
        assert not report.valid
        assert any(v.invariant == "distinctness" for v in report.violations)

    def test_non_idempotent(self):
        half = np.diag([0.5, 0.5]).astype(complex)
        obs = SpectralObservable(eigenvalues=(1.0, -1.0), projectors=(half, P_DOWN))
        report = validate_spectral_observable(obs)
        assert not report.valid
        assert any(v.invariant == "idempotence" for v in report.violations)


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

    def test_ket_density_is_valid(self):
        rho = ket_density(0, 2)
        assert validate_density_operator(rho.matrix).valid
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
