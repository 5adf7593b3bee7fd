"""Dense complex Hermitian linear algebra for small quantum models.

Matrices are plain ``numpy.ndarray`` objects with dtype ``complex128`` in
row-major layout; a complex entry is a pair of IEEE doubles.  Everything here
is sized for desk-scale problems (dimension <= 64): dense storage, LAPACK
eigenvalues through ``numpy.linalg.eigvalsh``, and report-style validators for
density operators and projector-valued spectral decompositions.

Two tolerances serve the whole package: ``ARITHMETIC_TOL`` guards exact
identities (traces, probability sums, the product law) and ``STRUCTURAL_TOL``
guards structural invariants (idempotence, orthogonality, positivity).  Two
input floors sit beside them, so the CLI's field tables read them without
loading the modules that enforce them: ``MIN_COMPONENT_WEIGHT`` (mixtures)
and ``DEFAULT_MIN_JOINT_DETECTION`` (the GHZ local-model LP).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ARITHMETIC_TOL",
    "STRUCTURAL_TOL",
    "MIN_COMPONENT_WEIGHT",
    "DEFAULT_MIN_JOINT_DETECTION",
    "Frozen",
    "DensityOperator",
    "SpectralObservable",
    "InvariantViolation",
    "ValidityReport",
    "validate_density_operator",
    "validate_spectral_observable",
    "as_complex_matrix",
    "clamp",
    "left_to_right_sum",
]


ARITHMETIC_TOL = 1e-12
STRUCTURAL_TOL = 1e-10
MIN_COMPONENT_WEIGHT = 1e-9
DEFAULT_MIN_JOINT_DETECTION = 1e-6


class Frozen:
    """Base of an immutable record: ``__init__`` sets each of the subclass's
    ``__slots__`` once with ``object.__setattr__``; a later assignment or
    deletion raises ``AttributeError``.  The repr lists the slots whose
    names do not start with an underscore."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle restore slots through here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_"
        )
        return f"{type(self).__name__}({fields})"


class _ReadOnlyDict(dict):
    """A dict whose items cannot change after construction: every mutator
    raises ``TypeError``.  It equals the plain dict of its items and prints
    like one; copy, deepcopy and pickle rebuild it from one.  A ``Frozen``
    record stores a mapping field as one when it derives other fields from
    the items, so the two cannot drift apart."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("read-only mapping: its items cannot be changed")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)


def clamp(x: float, lo: float, hi: float, what: str) -> float:
    """Clip roundoff excursions of ``x`` outside [lo, hi]; reject larger ones.

    Values within ``ARITHMETIC_TOL`` of the interval are clipped into it;
    anything farther out (or NaN) raises ``ValueError``.  A value already
    in [lo, hi] is returned as ``float(x)`` at once: ``max`` and ``min``
    return their first argument on ties, so the clip would return ``x``
    itself, -0.0 included.
    """
    if lo <= x <= hi:
        return float(x)
    if not lo - ARITHMETIC_TOL <= x <= hi + ARITHMETIC_TOL:
        raise ValueError(f"{what} = {x} is outside [{lo:g}, {hi:g}]")
    return float(min(max(x, lo), hi))


def _checked_int(name: str, value) -> int:
    """``value`` as an ``int``; a bool, float, NaN or any other non-integer
    raises a ``ValueError`` naming ``name`` instead of being truncated."""
    if not isinstance(value, (int, np.integer)) or type(value) is bool:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def left_to_right_sum(values) -> float:
    """0.0 + v1 + v2 + ..., rounded after each addition as builtin ``sum()``
    rounds before Python 3.12; from 3.12 it compensates, and rounds otherwise."""
    total = 0.0
    for v in values:
        total += v
    return total


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array (copy)."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


class InvariantViolation(Frozen):
    __slots__ = ("invariant", "deviation", "message")

    def __init__(self, invariant: str, deviation: float, message: str):
        object.__setattr__(self, "invariant", invariant)
        object.__setattr__(self, "deviation", deviation)
        object.__setattr__(self, "message", message)


class ValidityReport(Frozen):
    """Outcome of a structural validation pass; never raised, only reported."""

    __slots__ = ("valid", "violations")

    def __init__(self, valid: bool, violations: tuple[InvariantViolation, ...] = ()):
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "violations", violations)

    def describe(self) -> str:
        if self.valid:
            return "valid"
        return "; ".join(v.message for v in self.violations)


def validate_density_operator(m) -> ValidityReport:
    """Check hermiticity, unit trace, and positivity of a candidate density matrix.

    Positivity is measured on the Hermitian part so the report stays
    meaningful even when hermiticity itself fails.
    """
    return _density_report(as_complex_matrix(m))


# A finite entry near the float limit overflows in the checks below.  Each
# such input still fails a check, with an inf deviation or on another
# invariant, so numpy's overflow warning would only come before that report.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


@_QUIET_OVERFLOW
def _density_report(a: np.ndarray) -> ValidityReport:
    """``validate_density_operator`` on an array ``as_complex_matrix`` returned."""
    violations: list[InvariantViolation] = []
    n, n2 = a.shape
    if n != n2 or n == 0:
        message = f"not square: {n}x{n2}" if n != n2 else "empty matrix"
        violations.append(InvariantViolation("shape", float(abs(n - n2)), message))
        return ValidityReport(False, tuple(violations))

    adjoint = a.conj().T
    asym = float(np.abs(a - adjoint).max())
    if asym > ARITHMETIC_TOL:
        violations.append(
            InvariantViolation(
                "hermiticity", asym, f"not Hermitian: max |M - M^dagger| = {asym:.3e}"
            )
        )
    trace = complex(a.trace())
    trace_dev = abs(trace.real - 1.0) + abs(trace.imag)
    if trace_dev > ARITHMETIC_TOL:
        violations.append(
            InvariantViolation("trace", trace_dev, f"trace deviates from 1 by {trace_dev:.3e}")
        )
    # eigvalsh returns the eigenvalues in ascending order.  The halves are
    # summed, not the entries: the same bits, but finite for every finite
    # input, so an entry near the float limit gives a negative eigenvalue,
    # not a NaN that no check flags.
    min_eig = float(np.linalg.eigvalsh(a * 0.5 + adjoint * 0.5)[0])
    if min_eig < -STRUCTURAL_TOL:
        violations.append(
            InvariantViolation(
                "positivity", -min_eig, f"negative eigenvalue {min_eig:.3e}"
            )
        )
    return ValidityReport(not violations, tuple(violations))


class DensityOperator(Frozen):
    """Positive unit-trace Hermitian matrix: a pure state or improper mixture.

    Construction raises ``ValueError`` with the description of any
    violation that ``validate_density_operator`` reports; the input is
    coerced and checked once, so every instance is valid.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        a = as_complex_matrix(matrix)
        report = _density_report(a)
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


class SpectralObservable(Frozen):
    """Discrete spectral decomposition: distinct real eigenvalues with projectors.

    Construction checks shapes and finiteness, then raises ``ValueError``
    with the description of any violation that
    ``validate_spectral_observable`` reports (distinctness, idempotence,
    orthogonality, completeness); the projectors are checked once, so every
    instance is a projection-valued measure.
    """

    __slots__ = ("eigenvalues", "projectors")

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
        report = validate_spectral_observable(self)
        if not report.valid:
            raise ValueError(report.describe())

    @property
    def dimension(self) -> int:
        return self.projectors[0].shape[0]

    def projector_for(self, eigenvalue: float) -> np.ndarray:
        for ev, p in zip(self.eigenvalues, self.projectors):
            if ev == float(eigenvalue):
                return p
        raise ValueError(f"eigenvalue {eigenvalue} not in spectrum {self.eigenvalues}")


@_QUIET_OVERFLOW
def validate_spectral_observable(o) -> ValidityReport:
    """Report on idempotence, orthogonality, completeness and eigenvalue distinctness.

    Only ``o.eigenvalues`` and ``o.projectors`` are read, so any record with
    those two fields can be checked, a defective one included.  The
    projectors are checked together as one ``(k, d, d)`` stack: one
    batched product for idempotence and one per projector for its
    orthogonality to the later ones.
    Violations are listed by kind (distinctness, idempotence, orthogonality,
    completeness), and within a kind in spectrum order.  An empty (0 x 0)
    stack is a ``shape`` violation.
    """
    evs = o.eigenvalues
    p = np.array(o.projectors)
    dim = p.shape[1]
    violations: list[InvariantViolation] = []

    seen: set[float] = set()
    for ev in evs:
        if ev in seen:
            violations.append(
                InvariantViolation("distinctness", 0.0, f"duplicate eigenvalue {ev}")
            )
        seen.add(ev)

    if dim == 0:
        violations.append(InvariantViolation("shape", 0.0, "empty matrix"))
        return ValidityReport(False, tuple(violations))

    herm_dev = np.abs(p - p.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    idem_dev = np.abs(p @ p - p).max(axis=(1, 2))
    # fmax keeps the hermiticity deviation if P @ P overflowed to NaN.
    for ev, dev in zip(evs, np.fmax(herm_dev, idem_dev).tolist()):
        if dev > STRUCTURAL_TOL:
            violations.append(
                InvariantViolation(
                    "idempotence",
                    dev,
                    f"projector for {ev} fails P^2 = P = P^dagger by {dev:.3e}",
                )
            )

    # One broadcast product per row pairs P_i with every later projector, so
    # no stack of all k(k-1)/2 products (or copies of its operands) is built.
    for i in range(len(evs) - 1):
        row = np.abs(p[i] @ p[i + 1 :]).max(axis=(1, 2)).tolist()
        for j, dev in enumerate(row, start=i + 1):
            if dev > STRUCTURAL_TOL:
                violations.append(
                    InvariantViolation(
                        "orthogonality",
                        dev,
                        f"projectors for {evs[i]} and {evs[j]} "
                        f"are non-orthogonal by {dev:.3e}",
                    )
                )

    dev = float(np.abs(p.sum(axis=0) - np.eye(dim)).max())
    if dev > STRUCTURAL_TOL:
        violations.append(
            InvariantViolation(
                "completeness", dev, f"projectors sum deviates from identity by {dev:.3e}"
            )
        )

    return ValidityReport(not violations, tuple(violations))
