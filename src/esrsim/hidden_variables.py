"""Noncontextual hidden-variable machinery.

A microscopic state is the subset of microscopic properties an individual
object possesses; detection probabilities attach to the microscopic state, and
the macroscopic probability triple is recovered by averaging, which reproduces
the overall = detection * conditional product law by construction.

For correlation scenarios the microstates specialize to deterministic local
strategies assigning each (party, setting) an outcome in {-1, 0, +1}, with 0
encoding no detection.  Reproducing target conditional correlations with a
distribution over strategies is a linear feasibility problem: the conditional
constraints (ratios of linear forms) are cross-multiplied by the
joint-detection mass, which is kept away from zero by an explicit lower bound.
``simplex`` is imported only where that LP is built, so a microstate model
(hv-verify) never loads the solver.
"""

from __future__ import annotations

import functools
from typing import Hashable, Mapping, Sequence

import numpy as np

from .linalg import ARITHMETIC_TOL, DEFAULT_MIN_JOINT_DETECTION, Frozen
from .measurement import ProbabilityTriple

__all__ = [
    "MicroPropertySet",
    "MicrostateModel",
    "macro_from_micro",
    "enumerate_local_strategies",
    "CorrelationTarget",
    "build_feasibility_lp",
    "MAX_ENUMERATION_SLOTS",
    "DEFAULT_MIN_JOINT_DETECTION",
]

MAX_ENUMERATION_SLOTS = 12
_ENUMERATION_CACHE_SIZE = 4  # (parties, settings) shapes kept with their rows


class MicroPropertySet(Frozen):
    """Labels of the microscopic properties, one per macroscopic property."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple[Hashable, ...]):
        if len(set(labels)) != len(labels):
            raise ValueError("microscopic property labels must be distinct")
        object.__setattr__(self, "labels", labels)


class MicrostateModel(Frozen):
    """Finite microstate family with weights and micro-level detection.

    ``microstates`` are subsets of the property labels, ``weights`` the
    distribution p(state | macrostate), and ``micro_detection`` maps a
    (microstate index, property label) pair to a detection probability;
    unlisted pairs use ``default_detection``; no ``micro_detection`` means an
    empty table.
    """

    __slots__ = ("property_set", "microstates", "weights", "micro_detection", "default_detection")

    def __init__(self, property_set: MicroPropertySet, microstates: tuple[frozenset, ...],
                 weights: tuple[float, ...],
                 micro_detection: Mapping[tuple[int, Hashable], float] | None = None,
                 default_detection: float = 1.0):
        states = tuple(frozenset(s) for s in microstates)
        labels = set(property_set.labels)
        for s in states:
            unknown = s - labels
            if unknown:
                raise ValueError(f"microstate uses unknown properties {sorted(unknown)}")
        weights = tuple(float(w) for w in weights)
        if len(weights) != len(states):
            raise ValueError(f"{len(states)} microstates but {len(weights)} weights")
        if not all(w >= 0.0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if not abs(sum(weights) - 1.0) <= ARITHMETIC_TOL:
            raise ValueError(f"weights sum to {sum(weights)}, not 1")
        detection = {}
        for (idx, label), value in dict(micro_detection or {}).items():
            if not 0 <= int(idx) < len(states):
                raise ValueError(f"micro_detection references microstate {idx}")
            if label not in labels:
                raise ValueError(f"micro_detection references unknown property {label!r}")
            v = float(value)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"micro detection {v} outside [0, 1]")
            detection[(int(idx), label)] = v
        if not 0.0 <= float(default_detection) <= 1.0:
            raise ValueError("default_detection outside [0, 1]")
        object.__setattr__(self, "property_set", property_set)
        object.__setattr__(self, "microstates", states)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "micro_detection", detection)
        object.__setattr__(self, "default_detection", float(default_detection))

    def detection(self, index: int, label: Hashable) -> float:
        return self.micro_detection.get((index, label), self.default_detection)


def macro_from_micro(
    model: MicrostateModel,
    property_label: Hashable,
) -> ProbabilityTriple:
    """Deduce the macroscopic probability triple for one property.

    An object in microstate s answers yes iff the property's micro counterpart
    belongs to s; all stochasticity sits in the weights and in the micro-level
    detection.  The product law holds by construction.
    """
    if property_label not in model.property_set.labels:
        raise ValueError(f"unknown property {property_label!r}")
    overall = 0.0
    detection = 0.0
    for i, (state, weight) in enumerate(zip(model.microstates, model.weights)):
        d = model.detection(i, property_label)
        detection += weight * d
        if property_label in state:
            overall += weight * d
    conditional = overall / detection if detection > ARITHMETIC_TOL else None
    return ProbabilityTriple(overall=overall, detection=detection, conditional=conditional)


def enumerate_local_strategies(parties: int, settings: int) -> np.ndarray:
    """All 3^(parties*settings) deterministic strategies as an int array.

    Row k of the ``(3^slots, parties, settings)`` result holds the outcome in
    {-1, 0, +1} (0 means undetected) of every (party, setting) slot.  Rows are
    lexicographic in (-1, 0, +1) over the slots, which are ordered
    party-major, setting-minor.  The array is built once per shape and is
    read-only, since every call shares it.
    """
    slots = parties * settings
    if parties < 1 or settings < 1:
        raise ValueError("parties and settings must be positive")
    if slots > MAX_ENUMERATION_SLOTS:
        raise ValueError(
            f"{parties} parties x {settings} settings = {slots} slots "
            f"exceeds the enumeration bound {MAX_ENUMERATION_SLOTS}"
        )
    return _enumerated(int(parties), int(settings)).outcomes


class _StrategyRows:
    """The indicator rows of a strategy array, each built on first use and
    then kept read-only: per context the outcome product and the joint
    detection, per (party, setting) slot the detection marginal."""

    def __init__(self, outcomes: np.ndarray):
        self.outcomes = outcomes
        self._contexts: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._marginals: np.ndarray | None = None

    def context(self, settings_tuple: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(product, joint detection) of the outcomes at one setting per party."""
        rows = self._contexts.get(settings_tuple)
        if rows is None:
            _, parties, settings = self.outcomes.shape
            if len(settings_tuple) != parties:
                raise ValueError(
                    f"context {settings_tuple} does not match {parties} parties"
                )
            if not all(0 <= s < settings for s in settings_tuple):
                raise ValueError(
                    f"context {settings_tuple} has a setting outside [0, {settings})"
                )
            sel = self.outcomes[:, np.arange(parties), list(settings_tuple)]
            rows = (np.prod(sel, axis=1).astype(float), np.all(sel != 0, axis=1).astype(float))
            for row in rows:
                row.setflags(write=False)
            self._contexts[settings_tuple] = rows
        return rows

    def marginals(self) -> np.ndarray:
        """Detection indicators as a ``(parties, settings, strategies)`` array."""
        if self._marginals is None:
            detected = (self.outcomes != 0).transpose(1, 2, 0)
            self._marginals = np.ascontiguousarray(detected, dtype=float)
            self._marginals.setflags(write=False)
        return self._marginals


@functools.lru_cache(maxsize=_ENUMERATION_CACHE_SIZE)
def _enumerated(parties: int, settings: int) -> _StrategyRows:
    slots = parties * settings
    digits = np.indices((3,) * slots).reshape(slots, -1).T - 1
    outcomes = digits.reshape(-1, parties, settings)
    outcomes.setflags(write=False)
    return _StrategyRows(outcomes)


def _strategy_rows(outcomes: np.ndarray) -> _StrategyRows:
    """The shared rows when ``outcomes`` is an enumeration's own array, else fresh ones."""
    n, parties, settings = outcomes.shape
    slots = parties * settings
    if 1 <= slots <= MAX_ENUMERATION_SLOTS and n == 3**slots:
        rows = _enumerated(parties, settings)
        if rows.outcomes is outcomes:
            return rows
    return _StrategyRows(outcomes)


class CorrelationTarget(Frozen):
    """Target conditional-on-detection correlation for one setting context."""

    __slots__ = ("settings", "value", "tolerance")

    def __init__(self, settings: tuple[int, ...], value: float, tolerance: float = 0.0):
        settings = tuple(int(s) for s in settings)
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"target correlation {value} outside [-1, 1]")
        if not tolerance >= 0.0:  # NaN fails this too
            raise ValueError(f"inconsistent tolerance sign: {tolerance}")
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "tolerance", tolerance)


def build_feasibility_lp(
    strategies: np.ndarray,
    targets: Sequence[CorrelationTarget] = (),
    min_joint_detection: float = DEFAULT_MIN_JOINT_DETECTION,
    min_efficiency: float | None = None,
) -> FeasibilityProblem:
    """LP whose feasible points are strategy distributions hitting the targets.

    For a context c with target t and joint-detection indicator det_c(s), the
    conditional correlation sum_s w_s prod_c(s) / sum_s w_s det_c(s) = t is
    cross-multiplied into sum_s w_s (prod_c(s) - t det_c(s)) = 0 (a tolerance
    splits it into two inequalities).  Every referenced context keeps
    joint-detection mass >= ``min_joint_detection`` (a probability, in [0, 1])
    so the all-undetected distribution cannot satisfy the constraints
    vacuously.  ``min_efficiency`` lower-bounds every (party, setting) marginal
    detection probability.
    """
    if len(strategies) == 0:
        raise ValueError("no strategies supplied")
    if not min_joint_detection >= 0.0:  # NaN fails this too
        raise ValueError("min_joint_detection must be nonnegative")
    if not min_joint_detection <= 1.0:
        raise ValueError("min_joint_detection must be at most 1")
    outcomes = np.asarray(strategies, dtype=int)
    n, parties, settings = outcomes.shape
    rows = _strategy_rows(outcomes)

    a_eq_rows = [np.ones(n)]
    b_eq = [1.0]
    eq_labels = ["normalization"]
    a_ub_rows: list[np.ndarray] = []
    b_ub: list[float] = []
    ub_labels: list[str] = []

    contexts: dict[tuple[int, ...], np.ndarray] = {}
    for target in targets:
        prod, det = rows.context(target.settings)
        contexts.setdefault(target.settings, det)
        name = f"corr{target.settings}"
        if target.tolerance == 0.0:
            a_eq_rows.append(prod - target.value * det)
            b_eq.append(0.0)
            eq_labels.append(f"{name}={target.value}")
        else:
            a_ub_rows.append(prod - (target.value + target.tolerance) * det)
            b_ub.append(0.0)
            ub_labels.append(f"{name}<={target.value}+{target.tolerance}")
            a_ub_rows.append(-(prod - (target.value - target.tolerance) * det))
            b_ub.append(0.0)
            ub_labels.append(f"{name}>={target.value}-{target.tolerance}")

    if min_joint_detection > 0.0:
        for settings_tuple, det in contexts.items():
            a_ub_rows.append(-det)
            b_ub.append(-min_joint_detection)
            ub_labels.append(f"joint-detection{settings_tuple}>={min_joint_detection}")

    bound = 0.0 if min_efficiency is None else float(min_efficiency)
    if not 0.0 <= bound <= 1.0:
        raise ValueError(f"efficiency bound {bound} outside [0, 1]")
    if bound > 0.0:
        marginals = rows.marginals()
        for party in range(parties):
            for setting in range(settings):
                a_ub_rows.append(-marginals[party, setting])
                b_ub.append(-bound)
                ub_labels.append(f"efficiency[party={party},setting={setting}]>={bound}")

    from .simplex import FeasibilityProblem  # loaded only where an LP is made

    return FeasibilityProblem(
        n_vars=n,
        a_eq=np.vstack(a_eq_rows),
        b_eq=np.asarray(b_eq),
        a_ub=np.vstack(a_ub_rows) if a_ub_rows else None,
        b_ub=np.asarray(b_ub) if a_ub_rows else None,
        eq_labels=eq_labels,
        ub_labels=ub_labels,
    )
