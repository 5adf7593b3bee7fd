"""Detection-conditioned measurement calculus.

A quantum observable is extended with a no-registration outcome ``a0``; every
measurement then carries three probabilities bound by the product law

    overall = detection * conditional

where ``conditional`` is the Born value among detected objects and
``detection`` is derived as overall/conditional (it reduces to the
per-eigenvalue detection probability whenever that is constant on the outcome
subset).  A :class:`Property` carries P(sigma), which gives the Born value
Tr[rho P(sigma)].  Detection probabilities per eigenvalue are free empirical
parameters supplied by a :class:`DetectionModel`; the property-level effect is
assembled as T = sum_{ev in sigma} p_detect(state, ev) * P_ev, which drives
both the overall probability Tr[rho T] and the generalized Lueders update
T rho T^dagger / Tr[T rho T^dagger].  A measurement returning the
no-registration outcome ends the trajectory: no post-a0 state update is
defined.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping

import numpy as np

from .linalg import (
    ARITHMETIC_TOL,
    DensityOperator,
    Frozen,
    SpectralObservable,
    _ReadOnlyDict,
    _checked_int,
    clamp,
    left_to_right_sum,
)

__all__ = [
    "GeneralizedObservable",
    "Property",
    "DetectionModel",
    "ProbabilityTriple",
    "build_effect",
    "probability_triple",
    "detection_mass",
    "outcome_distribution",
    "luders_update",
    "unitary_evolve",
    "sample_indices",
    "sample_outcomes",
    "DEFAULT_STATE_LABEL",
    "NO_REGISTRATION",
]

DEFAULT_STATE_LABEL = "S"
NO_REGISTRATION = "a0"
_NO_TABLE = _ReadOnlyDict()  # every model without a detection table shares it


class GeneralizedObservable(Frozen):
    """A spectral observable plus the no-registration outcome ``a0``.

    The value set is the base spectrum followed by ``NO_REGISTRATION``.  The
    base validated itself when it was constructed, so nothing is checked here.
    """

    __slots__ = ("base",)

    def __init__(self, base: SpectralObservable):
        object.__setattr__(self, "base", base)

    @property
    def outcome_set(self) -> tuple:
        return self.base.eigenvalues + (NO_REGISTRATION,)


class Property(Frozen):
    """A generalized observable with an outcome subset sigma (a0 excluded) and
    its read-only projector P(sigma), summed once in sigma's order."""

    __slots__ = ("observable", "sigma", "projector")

    def __init__(self, observable: GeneralizedObservable, sigma):
        values = tuple(float(x) for x in sigma)
        base = observable.base
        p_sigma = np.zeros((base.dimension, base.dimension), dtype=complex)
        for ev in values:  # projector_for rejects a value outside the spectrum
            p_sigma = p_sigma + base.projector_for(ev)
        if len(set(values)) != len(values):
            raise ValueError("sigma contains duplicates")
        p_sigma.setflags(write=False)
        object.__setattr__(self, "observable", observable)
        object.__setattr__(self, "sigma", values)
        object.__setattr__(self, "projector", p_sigma)


class DetectionModel(Frozen):
    """Per-eigenvalue detection probabilities keyed by (state label, eigenvalue).

    Unlisted pairs fall back to ``default_value``; no ``assignment`` means an
    empty table.  Detection is an empirical parameter of the model, so the
    table is plain data; the only requirements are that every eigenvalue key
    is finite, since no spectrum could look up another, and that every value
    lies in [0, 1].  The table is read-only, so no value escapes that check.
    """

    __slots__ = ("assignment", "default_value")

    def __init__(self, assignment: Mapping[tuple[Hashable, float], float] | None = None,
                 default_value: float = 1.0):
        table = _NO_TABLE
        if assignment:
            normalized = {}
            for (label, ev), value in dict(assignment).items():
                ev = float(ev)
                if not math.isfinite(ev):
                    raise ValueError(f"detection eigenvalue {ev} for {label!r} is not finite")
                v = float(value)
                if not 0.0 <= v <= 1.0:
                    raise ValueError(
                        f"detection probability {v} for ({label!r}, {ev}) outside [0, 1]"
                    )
                normalized[(label, ev)] = v
            table = _ReadOnlyDict(normalized)
        if not 0.0 <= float(default_value) <= 1.0:
            raise ValueError(f"default detection {default_value} outside [0, 1]")
        object.__setattr__(self, "assignment", table)
        object.__setattr__(self, "default_value", float(default_value))

    def value(self, state_label: Hashable, eigenvalue: float) -> float:
        return self.assignment.get((state_label, float(eigenvalue)), self.default_value)

    @classmethod
    def uniform(cls, value: float) -> "DetectionModel":
        return cls(assignment={}, default_value=value)


class ProbabilityTriple(Frozen):
    """(overall, detection, conditional) bound by overall = detection * conditional.

    ``detection`` and ``conditional`` are ``None`` when the respective ratio is
    undefined (denominator at or below the arithmetic tolerance).
    """

    __slots__ = ("overall", "detection", "conditional")

    def __init__(self, overall: float, detection: float | None, conditional: float | None):
        object.__setattr__(self, "overall", clamp(overall, 0.0, 1.0, "overall"))
        for name, v in (("detection", detection), ("conditional", conditional)):
            object.__setattr__(self, name, None if v is None else clamp(v, 0.0, 1.0, name))
        residual = self.product_law_residual()
        if residual is not None and residual > ARITHMETIC_TOL:
            raise ValueError(
                f"product law violated: |overall - detection*conditional| = {residual:.3e}"
            )

    def product_law_residual(self) -> float | None:
        if self.detection is None or self.conditional is None:
            return None
        return abs(self.overall - self.detection * self.conditional)


def _check_dimensions(
    rho: DensityOperator, obs: SpectralObservable, what: str = "observable"
) -> None:
    if rho.dimension != obs.dimension:
        raise ValueError(
            f"dimension mismatch: state is {rho.dimension}-dim, {what} is {obs.dimension}-dim"
        )


def build_effect(
    state_label: Hashable,
    prop: Property,
    dm: DetectionModel,
) -> np.ndarray:
    """Assemble the effect T = sum_{ev in sigma} p_detect(state, ev) P_ev.

    The projectors come from a validated PVM and every detection value lies
    in [0, 1], so 0 <= T <= I holds by construction and is not re-checked.
    """
    base = prop.observable.base
    t = np.zeros((base.dimension, base.dimension), dtype=complex)
    for ev in prop.sigma:
        t = t + dm.value(state_label, ev) * base.projector_for(ev)
    return t


def probability_triple(
    rho: DensityOperator,
    prop: Property,
    dm: DetectionModel,
    state_label: Hashable = DEFAULT_STATE_LABEL,
) -> ProbabilityTriple:
    """Compute (overall, detection, conditional) for a state/property pair.

    conditional = Tr[rho P(sigma)] (the Born value), overall = Tr[rho T(sigma)],
    and detection = overall / conditional whenever conditional exceeds the
    arithmetic tolerance, else it is reported undefined.
    """
    _check_dimensions(rho, prop.observable.base)
    effect = build_effect(state_label, prop, dm)
    conditional = clamp(
        float(np.trace(rho.matrix @ prop.projector).real), 0.0, 1.0, "conditional"
    )
    overall = clamp(float(np.trace(rho.matrix @ effect).real), 0.0, 1.0, "overall")
    detection = overall / conditional if conditional > ARITHMETIC_TOL else None
    return ProbabilityTriple(overall=overall, detection=detection, conditional=conditional)


def _detected_weights(
    rho: DensityOperator, obs: GeneralizedObservable, dm: DetectionModel, state_label: Hashable
) -> list[float]:
    """p_detect(state, ev) * Tr[rho P_ev] for each eigenvalue, in spectrum order."""
    _check_dimensions(rho, obs.base)
    return [
        dm.value(state_label, ev) * float(np.trace(rho.matrix @ p).real)
        for ev, p in zip(obs.base.eigenvalues, obs.base.projectors)
    ]


def detection_mass(
    rho: DensityOperator,
    obs: GeneralizedObservable,
    dm: DetectionModel,
    state_label: Hashable = DEFAULT_STATE_LABEL,
) -> float:
    """Probability that the object is detected at all in a measurement of ``obs``."""
    weights = _detected_weights(rho, obs, dm, state_label)
    return clamp(left_to_right_sum(weights), 0.0, 1.0, "detection mass")


def outcome_distribution(
    rho: DensityOperator,
    obs: GeneralizedObservable,
    dm: DetectionModel,
    state_label: Hashable = DEFAULT_STATE_LABEL,
) -> tuple[tuple, np.ndarray]:
    """Outcome values (eigenvalues then a0) with their probabilities.

    The distribution must sum to 1 within the arithmetic tolerance, which
    holds by construction for any valid state and detection model.
    """
    weights = _detected_weights(rho, obs, dm, state_label)
    probs = [clamp(w, 0.0, 1.0, f"p({ev})") for ev, w in zip(obs.base.eigenvalues, weights)]
    a0_prob = 1.0 - left_to_right_sum(probs)
    probs.append(clamp(a0_prob, 0.0, 1.0, "p(a0)"))
    arr = np.asarray(probs, dtype=float)
    if abs(float(arr.sum()) - 1.0) > ARITHMETIC_TOL:
        raise ValueError(f"outcome distribution sums to {arr.sum()}, not 1")
    return obs.outcome_set, arr


def luders_update(
    rho: DensityOperator,
    prop: Property,
    dm: DetectionModel,
    state_label: Hashable = DEFAULT_STATE_LABEL,
) -> DensityOperator:
    """Post-measurement state on the yes branch: T rho T^dagger / Tr[...].

    With unit detection this reduces to the standard projective update
    P rho P / Tr[P rho P].  Raises when the yes outcome has no weight.
    """
    _check_dimensions(rho, prop.observable.base)
    t = build_effect(state_label, prop, dm)
    updated = t @ rho.matrix @ t.conj().T
    norm = float(np.trace(updated).real)
    if norm <= ARITHMETIC_TOL:
        raise ValueError(
            f"yes-outcome impossible: Tr[T rho T^dagger] = {norm:.3e}"
        )
    updated = (updated + updated.conj().T) / 2.0
    return DensityOperator(updated / norm)


def unitary_evolve(
    rho: DensityOperator,
    hamiltonian: SpectralObservable,
    t: float,
) -> DensityOperator:
    """Evolve rho by U = sum_k exp(-i E_k t) P_k (hbar = 1).

    The Hamiltonian arrives spectrally (a ``SpectralObservable`` is valid by
    construction), so no matrix exponential is needed; trace and eigenvalue
    multiset are preserved.  A non-finite ``t``, phase E t or phase spread
    raises ``ValueError`` before any exponential is taken.
    """
    _check_dimensions(rho, hamiltonian, "hamiltonian")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    # Python floats overflow to inf without numpy's overflow warning.
    phases = [float(energy) * t for energy in hamiltonian.eigenvalues]
    if not all(map(math.isfinite, phases)) or not math.isfinite(max(phases) - min(phases)):
        raise ValueError(f"t = {t} gives a non-finite phase E*t or phase spread")
    u = np.zeros((rho.dimension, rho.dimension), dtype=complex)
    for energy, proj in zip(hamiltonian.eigenvalues, hamiltonian.projectors):
        u = u + np.exp(-1j * energy * t) * proj
    evolved = u @ rho.matrix @ u.conj().T
    evolved = (evolved + evolved.conj().T) / 2.0
    return DensityOperator(evolved)


def sample_indices(probs: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """Indices into ``probs`` of ``n`` draws by inverting the cumulative sum.

    Consumes exactly ``n`` uniforms from ``rng``, one per draw.  An ``n``
    that is not a nonnegative integer, or a ``probs`` that is not a
    distribution (a non-finite or negative entry, or a sum off 1 by more than
    ``ARITHMETIC_TOL``), raises ``ValueError`` before any draw.
    """
    n = _checked_int("n", n)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    probs = np.asarray(probs, dtype=float)
    if not (np.isfinite(probs).all() and (probs >= 0.0).all()):
        raise ValueError(f"probs must be finite and nonnegative, got {probs}")
    total = float(probs.sum())
    if not abs(total - 1.0) <= ARITHMETIC_TOL:
        raise ValueError(f"probs sums to {total}, not 1")
    indices = np.searchsorted(np.cumsum(probs), rng.random(n), side="right")
    return np.minimum(indices, len(probs) - 1)


def sample_outcomes(
    rho: DensityOperator,
    obs: GeneralizedObservable,
    dm: DetectionModel,
    rng: np.random.Generator,
    n: int,
    state_label: Hashable = DEFAULT_STATE_LABEL,
) -> list:
    """Draw ``n`` outcomes (eigenvalues or a0); same stream as ``n`` one-draw calls."""
    outcomes, probs = outcome_distribution(rho, obs, dm, state_label)
    return [outcomes[i] for i in sample_indices(probs, rng, n)]
