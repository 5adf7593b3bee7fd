"""Dense complex Hermitian linear algebra for small quantum models.

Matrices are plain ``numpy.ndarray`` objects with dtype ``complex128`` in
row-major layout; a complex entry is a pair of IEEE doubles.  Everything here
is sized for desk-scale problems (dimension <= 64): dense storage, LAPACK
eigenvalues through ``numpy.linalg.eigvalsh``, and report-style validators for
density operators and projector-valued spectral decompositions.

Two tolerances serve the whole package: ``ARITHMETIC_TOL`` guards exact
identities (traces, probability sums, the product law) and ``STRUCTURAL_TOL``
guards structural invariants (idempotence, orthogonality, positivity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ARITHMETIC_TOL",
    "STRUCTURAL_TOL",
    "DensityOperator",
    "SpectralObservable",
    "InvariantViolation",
    "ValidityReport",
    "validate_density_operator",
    "validate_spectral_observable",
    "asymmetry",
    "as_complex_matrix",
    "clamp",
]


ARITHMETIC_TOL = 1e-12
STRUCTURAL_TOL = 1e-10


def clamp(x: float, lo: float, hi: float, what: str) -> float:
    """Clip roundoff excursions of ``x`` outside [lo, hi]; reject larger ones.

    Values within ``ARITHMETIC_TOL`` of the interval are clipped into it;
    anything farther out (or NaN) raises ``ValueError``.
    """
    if not lo - ARITHMETIC_TOL <= x <= hi + ARITHMETIC_TOL:
        raise ValueError(f"{what} = {x} is outside [{lo:g}, {hi:g}]")
    return float(min(max(x, lo), hi))


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array (copy)."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    return a


def asymmetry(m: np.ndarray) -> float:
    """Max entrywise deviation |M - M^dagger|."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


@dataclass(frozen=True)
class InvariantViolation:
    invariant: str
    deviation: float
    message: str


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of a structural validation pass; never raised, only reported."""

    valid: bool
    violations: tuple[InvariantViolation, ...] = field(default=())

    def describe(self) -> str:
        if self.valid:
            return "valid"
        return "; ".join(v.message for v in self.violations)


def validate_density_operator(m) -> ValidityReport:
    """Check hermiticity, unit trace, and positivity of a candidate density matrix.

    Positivity is measured on the Hermitian part so the report stays
    meaningful even when hermiticity itself fails.
    """
    a = as_complex_matrix(m)
    violations: list[InvariantViolation] = []
    n, n2 = a.shape
    if n != n2:
        violations.append(
            InvariantViolation("shape", float(abs(n - n2)), f"not square: {n}x{n2}")
        )
        return ValidityReport(False, tuple(violations))

    asym = asymmetry(a)
    if asym > ARITHMETIC_TOL:
        violations.append(
            InvariantViolation(
                "hermiticity", asym, f"not Hermitian: max |M - M^dagger| = {asym:.3e}"
            )
        )
    trace_dev = abs(float(np.trace(a).real) - 1.0) + abs(float(np.trace(a).imag))
    if trace_dev > ARITHMETIC_TOL:
        violations.append(
            InvariantViolation("trace", trace_dev, f"trace deviates from 1 by {trace_dev:.3e}")
        )
    min_eig = float(np.min(np.linalg.eigvalsh((a + a.conj().T) / 2.0)))
    if min_eig < -STRUCTURAL_TOL:
        violations.append(
            InvariantViolation(
                "positivity", -min_eig, f"negative eigenvalue {min_eig:.3e}"
            )
        )
    return ValidityReport(not violations, tuple(violations))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive unit-trace Hermitian matrix: a pure state or improper mixture.

    Construction raises ``ValueError`` with the description of any
    violation that ``validate_density_operator`` reports.
    """

    matrix: np.ndarray

    def __init__(self, matrix):
        a = as_complex_matrix(matrix)
        report = validate_density_operator(a)
        if not report.valid:
            raise ValueError(report.describe())
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    @classmethod
    def from_state_vector(cls, vec) -> "DensityOperator":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero state vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class SpectralObservable:
    """Discrete spectral decomposition: distinct real eigenvalues with projectors.

    Construction checks only shapes and finiteness so that defective inputs can
    still be inspected; ``validate_spectral_observable`` reports on the
    projector-valued-measure invariants (idempotence, orthogonality,
    completeness, distinctness).
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]

    def __init__(self, eigenvalues, projectors):
        evs = tuple(float(x) for x in eigenvalues)
        if not evs:
            raise ValueError("observable needs at least one eigenvalue")
        if any(not math.isfinite(x) for x in evs):
            raise ValueError("eigenvalues must be finite")
        projs = tuple(as_complex_matrix(p) for p in projectors)
        if len(projs) != len(evs):
            raise ValueError(
                f"{len(evs)} eigenvalues but {len(projs)} projectors"
            )
        dim = projs[0].shape[0]
        for p in projs:
            if p.shape != (dim, dim):
                raise ValueError("projectors must be square and equal-dimensional")
            p.setflags(write=False)
        object.__setattr__(self, "eigenvalues", evs)
        object.__setattr__(self, "projectors", projs)

    @property
    def dimension(self) -> int:
        return self.projectors[0].shape[0]

    def projector_for(self, eigenvalue: float) -> np.ndarray:
        for ev, p in zip(self.eigenvalues, self.projectors):
            if ev == float(eigenvalue):
                return p
        raise ValueError(f"eigenvalue {eigenvalue} not in spectrum {self.eigenvalues}")

    def restriction(self, sigma) -> np.ndarray:
        """Sum of the projectors for the eigenvalues in ``sigma``."""
        out = np.zeros((self.dimension, self.dimension), dtype=complex)
        for ev in sigma:
            out = out + self.projector_for(ev)
        return out


def validate_spectral_observable(o: SpectralObservable) -> ValidityReport:
    """Report on idempotence, orthogonality, completeness and eigenvalue distinctness."""
    violations: list[InvariantViolation] = []

    seen: set[float] = set()
    for ev in o.eigenvalues:
        if ev in seen:
            violations.append(
                InvariantViolation("distinctness", 0.0, f"duplicate eigenvalue {ev}")
            )
        seen.add(ev)

    for ev, p in zip(o.eigenvalues, o.projectors):
        herm_dev = asymmetry(p)
        idem_dev = float(np.max(np.abs(p @ p - p)))
        dev = max(herm_dev, idem_dev)
        if dev > STRUCTURAL_TOL:
            violations.append(
                InvariantViolation(
                    "idempotence",
                    dev,
                    f"projector for {ev} fails P^2 = P = P^dagger by {dev:.3e}",
                )
            )

    k = len(o.projectors)
    for i in range(k):
        for j in range(i + 1, k):
            dev = float(np.max(np.abs(o.projectors[i] @ o.projectors[j])))
            if dev > STRUCTURAL_TOL:
                violations.append(
                    InvariantViolation(
                        "orthogonality",
                        dev,
                        f"projectors for {o.eigenvalues[i]} and {o.eigenvalues[j]} "
                        f"are non-orthogonal by {dev:.3e}",
                    )
                )

    total = sum(o.projectors)
    dev = float(np.max(np.abs(total - np.eye(o.dimension))))
    if dev > STRUCTURAL_TOL:
        violations.append(
            InvariantViolation(
                "completeness", dev, f"projectors sum deviates from identity by {dev:.3e}"
            )
        )

    return ValidityReport(not violations, tuple(violations))
