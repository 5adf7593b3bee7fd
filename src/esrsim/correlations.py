"""Correlation experiments with trichotomic observables.

Outcomes per wing are {+1, -1, a0}; the no-registration outcome contributes 0
to product expectations, so an overall correlation factorizes as
(wing detection) x (wing detection) x (Born correlation) whenever detection is
outcome-independent.  The conditional-on-detection correlation divides out the
joint-detection mass and recovers the Born correlation exactly, which is why
post-selected experiments cannot distinguish the detection-conditioned model
from unmodified quantum predictions.

Every quantum correlation here is read from the state's real Pauli tensor
R[m1...mn] = Tr[rho s_m1 x ... x s_mn], with s = (I, X, Y, Z), the
correlation matrix of Horodecki, Horodecki & Horodecki (Phys. Lett. A 200,
340, 1995).  R is built once per state into a small ``lru_cache`` keyed on
the (identity-hashed) ``DensityOperator`` and returned as nested tuples, so
no caller can write through it.  A wing measured at polar angle t with
detection probabilities d(+1), d(-1) has the operator
d(+1) P+ +- d(-1) P- = c0 I + c (sin t X + cos t Z), with
c0 = (d(+1) +- d(-1))/2 and c = (d(+1) -+ d(-1))/2, so a two-qubit
expectation Tr[rho (A x B)] is the bilinear form a^T R b over the (I, X, Z)
rows and columns; a GHZ correlation is one entry of the three-qubit tensor.

The classical side reads ``hidden_variables``' one enumeration of the
deterministic trichotomic strategies: the inequality bounds over its rows,
and the LP search for local GHZ models under detection-efficiency
constraints over one strategy per class, keyed on the contexts alone; a
feasible point that fails its own certificate raises ``RuntimeError``.  The
LP modules are imported inside those functions, so the scans and GHZ
predictions never load them.  The named singlet and GHZ states are built once.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from .linalg import (
    ARITHMETIC_TOL,
    DEFAULT_MIN_JOINT_DETECTION,
    DensityOperator,
    Frozen,
    _ReadOnlyDict,
    clamp,
)
from .measurement import DEFAULT_STATE_LABEL, DetectionModel

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
    "ScanRow",
    "EfficiencyScan",
    "efficiency_scan",
    "GHZScenario",
    "ghz_quantum_correlations",
    "GHZLocalModelResult",
    "ghz_local_model_search",
    "BruteForceBound",
    "brute_force_trichotomic_bound",
    "GHZ_CONTEXTS",
    "GHZ_CONTEXT_NAMES",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

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


class TwoPartyScenario(Frozen):
    """Bipartite state with labelled measurement angles and per-wing detection.

    Each setting label maps to a polar angle; the wing observable is
    cos(angle) Z + sin(angle) X.  ``settings`` is read-only, and each
    setting's (sin, cos) axis is computed once, beside its finiteness check.
    Detection values are looked up under ``DEFAULT_STATE_LABEL``.
    """

    __slots__ = ("joint_state", "settings", "detection_a", "detection_b", "_axes")

    def __init__(self, joint_state: DensityOperator, settings: Mapping[str, float],
                 detection_a: DetectionModel, detection_b: DetectionModel):
        if joint_state.dimension != 4:
            raise ValueError(
                f"two-party state must be 4-dimensional, got {joint_state.dimension}"
            )
        angles = _ReadOnlyDict(settings)
        axes = {}
        for label, angle in angles.items():
            t = float(angle)
            if not math.isfinite(t):
                raise ValueError(f"angle for setting {label!r} is not finite")
            axes[label] = (math.sin(t), math.cos(t))
        object.__setattr__(self, "joint_state", joint_state)
        object.__setattr__(self, "settings", angles)
        object.__setattr__(self, "detection_a", detection_a)
        object.__setattr__(self, "detection_b", detection_b)
        object.__setattr__(self, "_axes", axes)


class CorrelationResult(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", clamp(value, -1.0, 1.0, "correlation"))


class InequalityReport(Frozen):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: float, rhs: float):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def satisfied(self) -> bool:
        return self.margin >= -ARITHMETIC_TOL


@functools.cache
def _pauli_strings(qubits: int) -> np.ndarray:
    """Row m is the transpose of s_m1 x ... x s_mn, flattened, with (m1...mn)
    in C order, so the rows times a flattened rho are the traces Tr[rho s_m]."""
    paulis = (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z)
    rows = np.array([
        functools.reduce(np.kron, string).T.ravel()
        for string in itertools.product(paulis, repeat=qubits)
    ])
    rows.setflags(write=False)
    return rows


def _nested(x):
    return tuple(map(_nested, x)) if isinstance(x, list) else x


@functools.lru_cache(maxsize=16)  # states; each entry keeps its state alive
def _pauli_tensor(state: DensityOperator) -> tuple:
    """R[m1]...[mn] = Tr[rho s_m1 x ... x s_mn] as nested tuples of floats.

    R is real because rho is Hermitian; the imaginary parts are round-off.
    """
    qubits = state.dimension.bit_length() - 1
    traces = (_pauli_strings(qubits) @ state.matrix.ravel()).real
    return _nested(traces.reshape((4,) * qubits).tolist())


def _wing(sc: TwoPartyScenario, label: str, dm: DetectionModel, sign: float) -> tuple:
    """(I, X, Z) coefficients of d(+1) P+ + sign d(-1) P-, P+- = (I +- n.sigma)/2.

    Without a detection table both values are ``dm.default_value``, read
    directly; the axis is the scenario's stored (sin, cos) of the angle.
    """
    axis = sc._axes.get(label)
    if axis is None:
        raise ValueError(f"unknown setting {label!r}; have {sorted(sc.settings)}")
    if dm.assignment:
        d_plus, d_minus = dm.value(DEFAULT_STATE_LABEL, 1.0), dm.value(DEFAULT_STATE_LABEL, -1.0)
    else:
        d_plus = d_minus = dm.default_value
    spin = 0.5 * (d_plus - sign * d_minus)
    return 0.5 * (d_plus + sign * d_minus), spin * axis[0], spin * axis[1]


def _bilinear(r: tuple, a: tuple, b: tuple) -> float:
    """Tr[rho (A x B)] = sum of a_m R[m][n] b_n over m, n in (I, X, Z)."""
    (a_i, a_x, a_z), (b_i, b_x, b_z) = a, b
    r_i, r_x, _, r_z = r
    return (a_i * (b_i * r_i[0] + b_x * r_i[1] + b_z * r_i[3])
            + a_x * (b_i * r_x[0] + b_x * r_x[1] + b_z * r_x[3])
            + a_z * (b_i * r_z[0] + b_x * r_z[1] + b_z * r_z[3]))


def trichotomic_expectation(sc: TwoPartyScenario, a: str, b: str) -> CorrelationResult:
    """Overall expectation of the product, with a0 counted as 0."""
    value = _bilinear(
        _pauli_tensor(sc.joint_state),
        _wing(sc, a, sc.detection_a, -1.0),
        _wing(sc, b, sc.detection_b, -1.0),
    )
    return CorrelationResult(value)


def conditional_expectation(sc: TwoPartyScenario, a: str, b: str) -> CorrelationResult:
    """Expectation restricted to both-detected events."""
    r = _pauli_tensor(sc.joint_state)
    numerator = _bilinear(
        r, _wing(sc, a, sc.detection_a, -1.0), _wing(sc, b, sc.detection_b, -1.0)
    )
    mass = _bilinear(r, _wing(sc, a, sc.detection_a, 1.0), _wing(sc, b, sc.detection_b, 1.0))
    if mass <= ARITHMETIC_TOL:
        raise ValueError(f"zero joint-detection mass ({mass:.3e})")
    return CorrelationResult(numerator / mass)


def modified_bell_report(e_ab: float, e_ac: float, e_bc: float) -> InequalityReport:
    """|E(a,b) - E(a,c)| <= 1 + E(b,c)."""
    clamp(e_ab, -1.0, 1.0, "e_ab")
    clamp(e_ac, -1.0, 1.0, "e_ac")
    clamp(e_bc, -1.0, 1.0, "e_bc")
    return InequalityReport(abs(e_ab - e_ac), 1.0 + e_bc)


def modified_chsh_report(
    e_ab: float, e_ac: float, e_db: float, e_dc: float
) -> InequalityReport:
    """|E(a,b) - E(a,c)| + |E(d,b) + E(d,c)| <= 2."""
    clamp(e_ab, -1.0, 1.0, "e_ab")
    clamp(e_ac, -1.0, 1.0, "e_ac")
    clamp(e_db, -1.0, 1.0, "e_db")
    clamp(e_dc, -1.0, 1.0, "e_dc")
    return InequalityReport(abs(e_ab - e_ac) + abs(e_db + e_dc), 2.0)


class ScanRow(Frozen):
    __slots__ = ("efficiency", "lhs", "satisfied")

    def __init__(self, efficiency: float, lhs: float, satisfied: bool):
        object.__setattr__(self, "efficiency", efficiency)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "satisfied", satisfied)


class EfficiencyScan(Frozen):
    __slots__ = ("rows", "threshold", "threshold_tolerance")

    def __init__(self, rows: tuple[ScanRow, ...], threshold: float | None,
                 threshold_tolerance: float):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "threshold_tolerance", threshold_tolerance)


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
        lhs = d * d * top.lhs
        rows.append(ScanRow(d, lhs, top.rhs - lhs >= -ARITHMETIC_TOL))

    threshold = None if top.satisfied else math.sqrt(top.rhs / top.lhs)
    return EfficiencyScan(
        rows=tuple(rows), threshold=threshold, threshold_tolerance=ARITHMETIC_TOL
    )


class GHZScenario(Frozen):
    """Three qubits, each measured along X or Y."""

    __slots__ = ("joint_state",)

    def __init__(self, joint_state: DensityOperator):
        if joint_state.dimension != 8:
            raise ValueError(f"GHZ state must be 8-dimensional, got {joint_state.dimension}")
        object.__setattr__(self, "joint_state", joint_state)

    @classmethod
    def standard(cls) -> "GHZScenario":
        return cls(joint_state=ghz_state())


def ghz_quantum_correlations(g: GHZScenario) -> tuple[float, float, float, float]:
    """Conditional correlations for the XXX, XYY, YXY, YYX contexts.

    With outcome-independent per-party efficiencies the detection factors
    cancel between numerator and joint-detection mass, so these are the plain
    operator expectations.
    """
    r = _pauli_tensor(g.joint_state)
    return tuple(
        clamp(r[1 + i][1 + j][1 + k], -1.0, 1.0, "correlation") for i, j, k in GHZ_CONTEXTS
    )


class GHZLocalModelResult(Frozen):
    """A search verdict.  ``targets`` are the ghz_quantum_correlations searched
    for; the fields from ``weights`` on describe the feasible point and are
    None on an infeasible verdict.  ``efficiencies`` maps (party, setting) to
    a marginal detection and ``joint_detection`` a context to its mass."""

    __slots__ = ("feasible", "targets", "phase1_objective", "pivots", "weights", "correlations",
                 "efficiencies", "joint_detection", "max_residual", "support_size")

    def __init__(self, feasible: bool, targets: tuple[float, ...], phase1_objective: float,
                 pivots: int, weights: np.ndarray | None = None,
                 correlations: tuple[float, ...] | None = None, efficiencies: dict | None = None,
                 joint_detection: dict | None = None, max_residual: float | None = None,
                 support_size: int | None = None):
        object.__setattr__(self, "feasible", feasible)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "phase1_objective", phase1_objective)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "correlations", correlations)
        object.__setattr__(self, "efficiencies", efficiencies)
        object.__setattr__(self, "joint_detection", joint_detection)
        object.__setattr__(self, "max_residual", max_residual)
        object.__setattr__(self, "support_size", support_size)


def ghz_local_model_search(
    g: GHZScenario,
    min_efficiency: float = 0.0,
    min_joint_detection: float = DEFAULT_MIN_JOINT_DETECTION,
    tolerance: float = 0.0,
) -> GHZLocalModelResult:
    """Search for a strategy distribution reproducing the GHZ conditional correlations.

    Of the 729 deterministic trichotomic strategies, the LP is built and
    solved over one per class of strategies whose context products, joint
    detections and detection marginals coincide: 105 classes.  Every LP row
    is built entry by entry from those indicators, so the other strategies'
    columns are byte-identical copies of their class's first, which would
    never enter a basis and would get weight zero.  ``hidden_variables``
    finds the classes and the representatives' indicator block over
    ``GHZ_CONTEXTS`` once per process, cached by value; the LP rows and the
    reported sums both come from that block, and the solver compares no
    columns.  The four targets reach the row writer as plain (context,
    value, tolerance) triples, and ``tolerance`` is checked once, with
    ``CorrelationTarget``'s messages.  ``min_efficiency`` lower-bounds every
    (party, setting) marginal detection probability; at 1.0 every supported
    strategy must always detect, which contradicts the four perfect GHZ
    correlations, so the verdict flips to infeasible.  A feasible point is
    accepted only with the certificate the solver computed on that LP, each
    constraint evaluated directly from the rows, independent of the
    tableau.  ``weights`` spans all 729 strategies and is exactly zero off
    the class representatives, whose columns every other strategy repeats,
    so the certificate and the reported values are the 729-column LP's sums
    up to the order of addition.  They are numpy's elementwise products and
    row sums, not BLAS products, so they do not depend on the BLAS kernel.
    """
    # The LP modules load here, so the scans and ghz-quantum never import them.
    from .hidden_variables import _checked_tolerance, _feasibility_lp, _strategy_classes
    from .simplex import solve_lp_simplex

    target_values = ghz_quantum_correlations(g)
    _checked_tolerance(tolerance)
    index, block = _strategy_classes(3, 2, GHZ_CONTEXTS)
    targets = [(ctx, value, tolerance) for ctx, value in zip(GHZ_CONTEXTS, target_values)]
    result = solve_lp_simplex(_feasibility_lp(
        block, GHZ_CONTEXTS, targets, 3, 2, min_joint_detection, min_efficiency
    ))
    if not result.feasible:
        return GHZLocalModelResult(False, target_values, result.phase1_objective, result.pivots)

    certificate = result.certificate
    if not certificate.satisfied():
        raise RuntimeError(f"LP point fails its feasibility certificate at {certificate.worst_row!r}")
    # The block's rows: each context's product and joint detection, then the
    # six marginals, each summed by numpy in a fixed order.
    sums = (block * result.x).sum(axis=1).tolist()
    joint = dict(zip(GHZ_CONTEXTS, sums[1:8:2]))
    correlations = tuple(
        product / mass if mass > 0 else math.nan
        for product, mass in zip(sums[0:8:2], sums[1:8:2])
    )
    slots = [(party, setting) for party in range(3) for setting in range(2)]
    weights = np.zeros(3 ** 6)  # one per enumerated strategy
    weights[index] = result.x
    return GHZLocalModelResult(
        feasible=True,
        targets=target_values,
        phase1_objective=result.phase1_objective,
        pivots=result.pivots,
        weights=weights,
        correlations=correlations,
        efficiencies=dict(zip(slots, sums[8:])),
        joint_detection=joint,
        max_residual=max(certificate.max_equality_residual, certificate.max_inequality_violation),
        support_size=int(np.sum(weights > ARITHMETIC_TOL)),
    )


class BruteForceBound(Frozen):
    __slots__ = ("value", "tight")

    def __init__(self, value: float, tight: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "tight", tight)


def brute_force_trichotomic_bound(expression: str) -> BruteForceBound:
    """Exact extremum of an inequality expression over deterministic strategies.

    The strategies are ``enumerate_local_strategies``' rows.  ``"chsh"``
    maximizes |A(a)B(b) - A(a)B(c)| + |A(d)B(b) + A(d)B(c)| over the (2, 2)
    rows (A(a), A(d), B(b), B(c)); ``"bell"`` maximizes lhs - rhs =
    |E(a,b) - E(a,c)| - 1 - E(b,c) over the (1, 3) rows (A(a), A(b), A(c))
    with B(x) = -A(x).  Ties are all reported, in row order.  The outcomes
    are integers, so every value is exact and ties are plain equalities.
    """
    from .hidden_variables import enumerate_local_strategies

    if expression == "chsh":
        slots = enumerate_local_strategies(parties=2, settings=2).reshape(-1, 4)
        a_a, a_d, b_b, b_c = slots.T
        values = np.abs(a_a * b_b - a_a * b_c) + np.abs(a_d * b_b + a_d * b_c)
    elif expression == "bell":
        slots = enumerate_local_strategies(parties=1, settings=3).reshape(-1, 3)
        a_a, a_b, a_c = slots.T
        e_ab, e_ac, e_bc = -a_a * a_b, -a_a * a_c, -a_b * a_c
        values = np.abs(e_ab - e_ac) - (1.0 + e_bc)
    else:
        raise ValueError(f"unknown expression {expression!r}; use 'chsh' or 'bell'")
    best = values.max()
    tight = map(tuple, slots[values == best].tolist())
    return BruteForceBound(value=float(best), tight=tuple(tight))
