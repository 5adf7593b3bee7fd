"""Correlation experiments with trichotomic observables.

Outcomes per wing are {+1, -1, a0}; the no-registration outcome contributes 0
to product expectations, so an overall correlation factorizes as
(wing detection) x (wing detection) x (Born correlation) whenever detection is
outcome-independent.  The conditional-on-detection correlation divides out the
joint-detection mass and recovers the Born correlation exactly, which is why
post-selected experiments cannot distinguish the detection-conditioned model
from unmodified quantum predictions.

The classical side is covered by exhaustive enumeration of deterministic
trichotomic strategies (the inequality bounds) and by the LP search for local
models of the GHZ correlations under detection-efficiency constraints; a
feasible point that fails its own certificate raises ``RuntimeError``.  Spin
projectors, the weighted wing operators and GHZ Pauli strings are each built
once per key, into bounded ``functools.lru_cache``s of read-only arrays; the
detection wing operators, which only the conditional correlation reads, are
built per call.  The named singlet and GHZ states are built once.  The float
keys let -0.0 share the entry of 0.0: the builders only add a signed zero to a
+0.0 entry, and +0.0 + (-0.0) = +0.0, so no build's bytes depend on a zero's
sign.  Expectations take the real part of the complex trace, which keeps the
bits of ``np.trace`` over ``np.kron``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .hidden_variables import (
    DEFAULT_MIN_JOINT_DETECTION,
    CorrelationTarget,
    _strategy_rows,
    build_feasibility_lp,
    enumerate_local_strategies,
)
from .linalg import ARITHMETIC_TOL, DensityOperator, clamp
from .measurement import DEFAULT_STATE_LABEL, DetectionModel
from .simplex import feasibility_residuals, solve_lp_simplex

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "singlet_state",
    "ghz_state",
    "TwoPartyScenario",
    "CorrelationResult",
    "InequalityReport",
    "trichotomic_expectation",
    "conditional_expectation",
    "modified_bell_report",
    "modified_chsh_report",
    "EfficiencyScan",
    "efficiency_scan",
    "GHZScenario",
    "ghz_quantum_correlations",
    "GHZLocalModelResult",
    "ghz_local_model_search",
    "BruteForceBound",
    "brute_force_trichotomic_bound",
    "GHZ_CONTEXTS",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)
_OPERATOR_CACHE_SIZE = 256  # entries per float-keyed operator cache

# Setting index 0 is X, 1 is Y; the four standard GHZ contexts.
GHZ_CONTEXTS = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
GHZ_CONTEXT_NAMES = ("XXX", "XYY", "YXY", "YYX")


@functools.cache
def singlet_state() -> DensityOperator:
    """(|01> - |10>)/sqrt(2) as a 4x4 density operator, built once."""
    vec = np.zeros(4, dtype=complex)
    vec[1] = 1.0 / math.sqrt(2.0)
    vec[2] = -1.0 / math.sqrt(2.0)
    return DensityOperator.from_state_vector(vec)


@functools.cache
def ghz_state() -> DensityOperator:
    """(|000> + |111>)/sqrt(2) as an 8x8 density operator, built once."""
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1.0 / math.sqrt(2.0)
    return DensityOperator.from_state_vector(vec)


@functools.lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def _spin_projectors(angle: float) -> tuple[np.ndarray, np.ndarray]:
    """((I + n.sigma)/2, (I - n.sigma)/2) for n = (sin(angle), 0, cos(angle))."""
    direction = math.cos(angle) * PAULI_Z + math.sin(angle) * PAULI_X
    plus, minus = (_ID2 + direction) / 2.0, (_ID2 - direction) / 2.0
    plus.setflags(write=False)
    minus.setflags(write=False)
    return plus, minus


@dataclass(frozen=True, eq=False)
class TwoPartyScenario:
    """Bipartite state with labelled measurement angles and per-wing detection.

    Each setting label maps to a polar angle; the wing observable is
    cos(angle) Z + sin(angle) X.  Detection values are looked up under
    ``DEFAULT_STATE_LABEL``.
    """

    joint_state: DensityOperator
    settings: Mapping[str, float]
    detection_a: DetectionModel
    detection_b: DetectionModel

    def __post_init__(self):
        if self.joint_state.dimension != 4:
            raise ValueError(
                f"two-party state must be 4-dimensional, got {self.joint_state.dimension}"
            )
        angles = dict(self.settings)
        for label, angle in angles.items():
            if not math.isfinite(float(angle)):
                raise ValueError(f"angle for setting {label!r} is not finite")
        object.__setattr__(self, "settings", angles)

    def angle(self, label: str) -> float:
        if label not in self.settings:
            raise ValueError(f"unknown setting {label!r}; have {sorted(self.settings)}")
        return float(self.settings[label])


@dataclass(frozen=True)
class CorrelationResult:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", clamp(self.value, -1.0, 1.0, "correlation"))


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def satisfied(self) -> bool:
        return self.margin >= -ARITHMETIC_TOL


@functools.lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def _weighted_operator(angle: float, d_plus: float, d_minus: float) -> np.ndarray:
    """d_plus P+ - d_minus P-: each outcome times its detection probability."""
    plus, minus = _spin_projectors(angle)
    # The sum over outcomes (+1, -1) from a +0.0 matrix, term by term: the
    # operations of the reference formula, so the bits of its result.
    zeros = np.zeros((2, 2), dtype=complex)
    weighted = (zeros + (1.0 * d_plus) * plus) + (-1.0 * d_minus) * minus
    weighted.setflags(write=False)
    return weighted


def _detection_operator(angle: float, d_plus: float, d_minus: float) -> np.ndarray:
    """d_plus P+ + d_minus P-: the probability that the wing registers at all."""
    plus, minus = _spin_projectors(angle)
    zeros = np.zeros((2, 2), dtype=complex)
    return (zeros + d_plus * plus) + d_minus * minus


def _wing_key(sc: TwoPartyScenario, label: str, dm: DetectionModel) -> tuple[float, float, float]:
    """(angle, d(+1), d(-1)): the arguments of a wing's operators."""
    d_plus, d_minus = dm.value(DEFAULT_STATE_LABEL, 1.0), dm.value(DEFAULT_STATE_LABEL, -1.0)
    return sc.angle(label), d_plus, d_minus


# Flat indices of x and y in entry (2i + k, 2j + l) of kron(x, y) = x[i, j] y[k, l].
_KRON_LEFT = np.array([0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3])
_KRON_RIGHT = np.array([0, 1, 0, 1, 2, 3, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3])


def _kron2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """4x4 Kronecker product of two 2x2 arrays: the products ``np.kron`` forms,
    gathered by index, without re-validating arrays built in this module."""
    return (x.ravel()[_KRON_LEFT] * y.ravel()[_KRON_RIGHT]).reshape(4, 4)


def _expectation(rho: np.ndarray, op: np.ndarray) -> float:
    # The complex trace's real part: summing the real diagonal alone rounds differently.
    return float((rho @ op).trace().real)


def trichotomic_expectation(sc: TwoPartyScenario, a: str, b: str) -> CorrelationResult:
    """Overall expectation of the product, with a0 counted as 0."""
    m_a = _weighted_operator(*_wing_key(sc, a, sc.detection_a))
    m_b = _weighted_operator(*_wing_key(sc, b, sc.detection_b))
    return CorrelationResult(value=_expectation(sc.joint_state.matrix, _kron2(m_a, m_b)))


def conditional_expectation(sc: TwoPartyScenario, a: str, b: str) -> CorrelationResult:
    """Expectation restricted to both-detected events."""
    key_a = _wing_key(sc, a, sc.detection_a)
    key_b = _wing_key(sc, b, sc.detection_b)
    rho = sc.joint_state.matrix
    numerator = _expectation(rho, _kron2(_weighted_operator(*key_a), _weighted_operator(*key_b)))
    mass = _expectation(rho, _kron2(_detection_operator(*key_a), _detection_operator(*key_b)))
    if mass <= ARITHMETIC_TOL:
        raise ValueError(f"zero joint-detection mass ({mass:.3e})")
    return CorrelationResult(value=numerator / mass)


def _check_correlation_inputs(**values: float) -> None:
    for name, v in values.items():
        clamp(v, -1.0, 1.0, name)


def modified_bell_report(e_ab: float, e_ac: float, e_bc: float) -> InequalityReport:
    """|E(a,b) - E(a,c)| <= 1 + E(b,c)."""
    _check_correlation_inputs(e_ab=e_ab, e_ac=e_ac, e_bc=e_bc)
    return InequalityReport(lhs=abs(e_ab - e_ac), rhs=1.0 + e_bc)


def modified_chsh_report(
    e_ab: float, e_ac: float, e_db: float, e_dc: float
) -> InequalityReport:
    """|E(a,b) - E(a,c)| + |E(d,b) + E(d,c)| <= 2."""
    _check_correlation_inputs(e_ab=e_ab, e_ac=e_ac, e_db=e_db, e_dc=e_dc)
    return InequalityReport(lhs=abs(e_ab - e_ac) + abs(e_db + e_dc), rhs=2.0)


@dataclass(frozen=True)
class ScanRow:
    efficiency: float
    lhs: float
    satisfied: bool


@dataclass(frozen=True)
class EfficiencyScan:
    rows: tuple[ScanRow, ...]
    threshold: float | None
    threshold_tolerance: float


def efficiency_scan(
    joint_state: DensityOperator,
    angles: Mapping[str, float],
    d_grid: Sequence[float],
) -> EfficiencyScan:
    """Sweep a uniform wing efficiency over the modified CHSH expression.

    ``angles`` must provide the four settings a, d (first wing) and b, c
    (second wing).  Under uniform detection d every overall correlation is
    d^2 times its unit-efficiency value, so the four correlations are
    evaluated once, at d = 1, and each row is lhs(d) = d^2 lhs(1).  When
    lhs(1) violates the bound of 2, the threshold is sqrt(2 / lhs(1)) in
    closed form, exact to ``ARITHMETIC_TOL``.
    """
    grid = [float(d) for d in d_grid]
    if not grid:
        raise ValueError("empty efficiency grid")
    for d in grid:
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"efficiency {d} outside [0, 1]")
    missing = {"a", "d", "b", "c"} - set(angles)
    if missing:
        raise ValueError(f"angle set missing settings {sorted(missing)}")

    unit = DetectionModel.uniform(1.0)
    sc = TwoPartyScenario(
        joint_state=joint_state, settings=angles, detection_a=unit, detection_b=unit
    )
    top = modified_chsh_report(
        *(trichotomic_expectation(sc, x, y).value for x, y in ("ab", "ac", "db", "dc"))
    )
    rows = []
    for d in grid:
        report = InequalityReport(lhs=d * d * top.lhs, rhs=top.rhs)
        rows.append(ScanRow(efficiency=d, lhs=report.lhs, satisfied=report.satisfied))

    threshold = None if top.satisfied else math.sqrt(top.rhs / top.lhs)
    return EfficiencyScan(
        rows=tuple(rows), threshold=threshold, threshold_tolerance=ARITHMETIC_TOL
    )


@dataclass(frozen=True, eq=False)
class GHZScenario:
    """Three qubits, each measured along X or Y."""

    joint_state: DensityOperator

    def __post_init__(self):
        if self.joint_state.dimension != 8:
            raise ValueError(
                f"GHZ state must be 8-dimensional, got {self.joint_state.dimension}"
            )

    @classmethod
    def standard(cls) -> "GHZScenario":
        return cls(joint_state=ghz_state())


@functools.lru_cache(maxsize=len(GHZ_CONTEXTS))
def _ghz_product_operator(context: tuple[int, int, int]) -> np.ndarray:
    first, second, third = ((PAULI_X, PAULI_Y)[setting] for setting in context)
    op = np.kron(np.kron(first, second), third)
    op.setflags(write=False)
    return op


def ghz_quantum_correlations(g: GHZScenario) -> tuple[float, float, float, float]:
    """Conditional correlations for the XXX, XYY, YXY, YYX contexts.

    With outcome-independent per-party efficiencies the detection factors
    cancel between numerator and joint-detection mass, so these are the plain
    operator expectations.
    """
    rho = g.joint_state.matrix
    return tuple(
        clamp(_expectation(rho, _ghz_product_operator(ctx)), -1.0, 1.0, "correlation")
        for ctx in GHZ_CONTEXTS
    )


@dataclass(frozen=True, eq=False)
class GHZLocalModelResult:
    feasible: bool
    targets: tuple[float, ...]  # the ghz_quantum_correlations searched for
    phase1_objective: float
    pivots: int
    # The feasible point; None on an infeasible verdict.
    weights: np.ndarray | None = None
    correlations: tuple[float, ...] | None = None
    efficiencies: dict | None = None  # (party, setting) -> marginal detection
    joint_detection: dict | None = None  # context -> mass
    max_residual: float | None = None
    support_size: int | None = None


def ghz_local_model_search(
    g: GHZScenario,
    min_efficiency: float = 0.0,
    min_joint_detection: float = DEFAULT_MIN_JOINT_DETECTION,
    tolerance: float = 0.0,
) -> GHZLocalModelResult:
    """Search for a strategy distribution reproducing the GHZ conditional correlations.

    Enumerates the 729 deterministic trichotomic strategies and solves the
    cross-multiplied feasibility LP.  ``min_efficiency`` lower-bounds every
    (party, setting) marginal detection probability; at 1.0 every supported
    strategy must always detect, which contradicts the four perfect GHZ
    correlations, so the verdict flips to infeasible.  Feasible outputs are
    re-verified by direct constraint evaluation, independent of the solver.
    """
    outcomes = enumerate_local_strategies(parties=3, settings=2)
    rows = _strategy_rows(outcomes)
    target_values = ghz_quantum_correlations(g)
    targets = [
        CorrelationTarget(settings=ctx, value=val, tolerance=tolerance)
        for ctx, val in zip(GHZ_CONTEXTS, target_values)
    ]
    problem = build_feasibility_lp(
        outcomes,
        targets,
        min_joint_detection=min_joint_detection,
        min_efficiency=min_efficiency if min_efficiency > 0.0 else None,
    )
    result = solve_lp_simplex(problem)
    if not result.feasible:
        return GHZLocalModelResult(False, target_values, result.phase1_objective, result.pivots)

    weights = result.x
    certificate = feasibility_residuals(problem, weights)
    if not certificate.satisfied():
        raise RuntimeError(f"LP point fails its feasibility certificate at {certificate.worst_row!r}")
    correlations = []
    joint = {}
    for ctx in GHZ_CONTEXTS:
        prod, det = rows.context(ctx)
        mass = float(weights @ det)
        joint[ctx] = mass
        correlations.append(float(weights @ prod) / mass if mass > 0 else math.nan)

    marginals = rows.marginals()
    efficiencies = {}
    for party in range(3):
        for setting in range(2):
            efficiencies[(party, setting)] = float(weights @ marginals[party, setting])

    max_residual = max(
        certificate.max_equality_residual, certificate.max_inequality_violation
    )
    return GHZLocalModelResult(
        feasible=True,
        targets=target_values,
        phase1_objective=result.phase1_objective,
        pivots=result.pivots,
        weights=weights,
        correlations=tuple(correlations),
        efficiencies=efficiencies,
        joint_detection=joint,
        max_residual=max_residual,
        support_size=int(np.sum(weights > ARITHMETIC_TOL)),
    )


@dataclass(frozen=True)
class BruteForceBound:
    value: float
    tight: tuple[tuple[int, ...], ...]


def brute_force_trichotomic_bound(
    expression: str, outcomes: Sequence[int] = (-1, 0, 1)
) -> BruteForceBound:
    """Exact extremum of an inequality expression over deterministic strategies.

    ``"chsh"`` maximizes |A(a)B(b) - A(a)B(c)| + |A(d)B(b) + A(d)B(c)| over all
    assignments of (A(a), A(d), B(b), B(c)); ``"bell"`` maximizes
    lhs - rhs = |E(a,b) - E(a,c)| - 1 - E(b,c) over the anticorrelation-
    constrained assignments B(x) = -A(x).  Ties are all reported, in
    enumeration order.  The outcomes are integers, so every value is exact
    and ties are plain equalities.
    """
    if expression == "chsh":
        assignments = list(itertools.product(outcomes, repeat=4))
        values = [
            abs(a_a * b_b - a_a * b_c) + abs(a_d * b_b + a_d * b_c)
            for a_a, a_d, b_b, b_c in assignments
        ]
    elif expression == "bell":
        assignments = list(itertools.product(outcomes, repeat=3))
        values = []
        for a_a, a_b, a_c in assignments:
            e_ab, e_ac, e_bc = -a_a * a_b, -a_a * a_c, -a_b * a_c
            values.append(abs(e_ab - e_ac) - (1.0 + e_bc))
    else:
        raise ValueError(f"unknown expression {expression!r}; use 'chsh' or 'bell'")
    best = max(values)
    tight = [a for a, v in zip(assignments, values) if v == best]
    return BruteForceBound(value=float(best), tight=tuple(tight))
