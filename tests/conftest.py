import numpy as np
import pytest

from esrsim import correlations, hidden_variables
from esrsim.linalg import DensityOperator, SpectralObservable
from esrsim.measurement import GeneralizedObservable, Property

P_UP = np.diag([1.0, 0.0]).astype(complex)
P_DOWN = np.diag([0.0, 1.0]).astype(complex)


def z_observable() -> SpectralObservable:
    return SpectralObservable(eigenvalues=(1.0, -1.0), projectors=(P_UP, P_DOWN))


def z_generalized() -> GeneralizedObservable:
    return GeneralizedObservable(z_observable())


def z_property(*sigma: float) -> Property:
    return Property(z_generalized(), sigma)


def ket(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def ket_density(index: int, dim: int) -> DensityOperator:
    return DensityOperator.from_state_vector(ket(index, dim))


def plus_density() -> DensityOperator:
    return DensityOperator.from_state_vector([1.0, 1.0])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240515)


def clear_operator_caches() -> None:
    """Empty every ``functools`` cache of the correlation kernels and the
    strategy enumeration, so the next call builds cold.  The caches are found
    by their ``cache_clear`` attribute, so a new one cannot be missed."""
    for module in (correlations, hidden_variables):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
