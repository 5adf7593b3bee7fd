"""Noncontextual hidden-variable machinery.

A microscopic state is the subset of microscopic properties an individual
object possesses, the properties named by a plain tuple of distinct labels;
detection probabilities attach to the microscopic state, and the macroscopic
probability triple is recovered by averaging, which reproduces the
overall = detection * conditional product law by construction.

For correlation scenarios the microstates specialize to deterministic local
strategies assigning each (party, setting) an outcome in {-1, 0, +1}, with 0
encoding no detection.  Reproducing target conditional correlations with a
distribution over strategies is a linear feasibility problem: the conditional
constraints (ratios of linear forms) are cross-multiplied by the
joint-detection mass, which is kept away from zero by an explicit lower bound.
The inequality bounds read the same enumeration.  ``simplex`` is imported
only where that LP is built, so a microstate model (hv-verify) never loads
the solver.
"""

from __future__ import annotations

import functools
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .linalg import (
    ARITHMETIC_TOL,
    DEFAULT_MIN_JOINT_DETECTION,
    Frozen,
    _checked_int,
    left_to_right_sum,
)
from .measurement import ProbabilityTriple

__all__ = [
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


class MicrostateModel(Frozen):
    """Finite microstate family with weights and micro-level detection.

    ``labels`` are the distinct names of the microscopic properties, one per
    macroscopic property, ``microstates`` are subsets of them, ``weights``
    the distribution p(state | macrostate), and ``micro_detection`` maps a
    (microstate index, property label) pair to a detection probability;
    unlisted pairs use ``default_detection``; no ``micro_detection`` means an
    empty table.
    """

    __slots__ = ("labels", "microstates", "weights", "micro_detection", "default_detection")

    def __init__(self, labels: Sequence[Hashable], microstates: Sequence[Iterable[Hashable]],
                 weights: Sequence[float],
                 micro_detection: Mapping[tuple[int, Hashable], float] | None = None,
                 default_detection: float = 1.0):
        labels = tuple(labels)
        known = set(labels)
        if len(known) != len(labels):
            raise ValueError("microscopic property labels must be distinct")
        states = tuple(frozenset(s) for s in microstates)
        for s in states:
            unknown = s - known
            if unknown:
                raise ValueError(f"microstate uses unknown properties {sorted(unknown)}")
        weights = tuple(float(w) for w in weights)
        if len(weights) != len(states):
            raise ValueError(f"{len(states)} microstates but {len(weights)} weights")
        if not all(w >= 0.0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if not abs(left_to_right_sum(weights) - 1.0) <= ARITHMETIC_TOL:
            raise ValueError(f"weights sum to {left_to_right_sum(weights)}, not 1")
        detection = {}
        for (idx, label), value in dict(micro_detection or {}).items():
            if not 0 <= int(idx) < len(states):
                raise ValueError(f"micro_detection references microstate {idx}")
            if label not in known:
                raise ValueError(f"micro_detection references unknown property {label!r}")
            v = float(value)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"micro detection {v} outside [0, 1]")
            detection[(int(idx), label)] = v
        if not 0.0 <= float(default_detection) <= 1.0:
            raise ValueError("default_detection outside [0, 1]")
        object.__setattr__(self, "labels", labels)
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
    if property_label not in model.labels:
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
    read-only, since every call shares it.  ``parties`` and ``settings``
    must be ints (a bool, float or NaN raises a ``ValueError`` naming it).
    """
    parties = _checked_int("parties", parties)
    settings = _checked_int("settings", settings)
    slots = parties * settings
    if parties < 1 or settings < 1:
        raise ValueError("parties and settings must be positive")
    if slots > MAX_ENUMERATION_SLOTS:
        raise ValueError(
            f"{parties} parties x {settings} settings = {slots} slots "
            f"exceeds the enumeration bound {MAX_ENUMERATION_SLOTS}"
        )
    return _enumerated(parties, settings).outcomes


class _StrategyRows:
    """The indicator rows of a strategy array, each built on first use and
    then kept read-only: per context the outcome product and the joint
    detection, per (party, setting) slot the detection marginal, and the
    undetected rows 1 - joint detection and 1 - marginal of the detection
    floors; per tuple of contexts those rows stacked into one block, and the
    first strategy of each class of coinciding columns of that block, with
    the rows of those strategies."""

    def __init__(self, outcomes: np.ndarray):
        self.outcomes = outcomes
        self._contexts: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._undetected: dict[tuple[int, ...], np.ndarray] = {}
        self._marginals: np.ndarray | None = None
        self._undetected_marginals: np.ndarray | None = None
        self._indicators: dict[tuple[tuple[int, ...], ...], np.ndarray] = {}
        self._distinct: dict[tuple[tuple[int, ...], ...], tuple[np.ndarray, _StrategyRows]] = {}

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

    def undetected(self, settings_tuple: tuple[int, ...]) -> np.ndarray:
        """1 - joint detection at one context."""
        row = self._undetected.get(settings_tuple)
        if row is None:
            row = 1.0 - self.context(settings_tuple)[1]
            row.setflags(write=False)
            self._undetected[settings_tuple] = row
        return row

    def marginals(self) -> np.ndarray:
        """Detection indicators as a ``(parties, settings, strategies)`` array."""
        if self._marginals is None:
            detected = (self.outcomes != 0).transpose(1, 2, 0)
            self._marginals = np.ascontiguousarray(detected, dtype=float)
            self._marginals.setflags(write=False)
        return self._marginals

    def undetected_marginals(self) -> np.ndarray:
        """1 - marginal as a ``(slots, strategies)`` array, slots party-major."""
        if self._undetected_marginals is None:
            self._undetected_marginals = 1.0 - self.marginals().reshape(-1, len(self.outcomes))
            self._undetected_marginals.setflags(write=False)
        return self._undetected_marginals

    def indicators(self, contexts: tuple[tuple[int, ...], ...]) -> np.ndarray:
        """Each context's product and joint-detection rows, in context order,
        then every slot's detection marginal, slots party-major, as one
        ``(2 * len(contexts) + slots, strategies)`` array."""
        block = self._indicators.get(contexts)
        if block is None:
            rows = [row for ctx in contexts for row in self.context(ctx)]
            rows.extend(self.marginals().reshape(-1, len(self.outcomes)))
            block = np.vstack(rows)
            block.setflags(write=False)
            self._indicators[contexts] = block
        return block

    def distinct_strategies(self, contexts: tuple[tuple[int, ...], ...]) -> np.ndarray:
        """Sorted index of the first strategy of each class whose
        :meth:`indicators` columns coincide.

        Every row ``build_feasibility_lp`` makes over these contexts is built
        entry by entry from those rows, so one class has byte-identical LP
        columns, and the first copy of each LP column is among the indices
        returned; the solver's presolve merges the classes an LP's rows do
        not tell apart.
        """
        return self._classes(contexts)[0]

    def class_representatives(self, contexts: tuple[tuple[int, ...], ...]) -> _StrategyRows:
        """The rows of the strategies :meth:`distinct_strategies` indexes,
        over a read-only array of those strategies in index order, which
        ``build_feasibility_lp`` recognizes as shared."""
        return self._classes(contexts)[1]

    def _classes(self, contexts: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, _StrategyRows]:
        found = self._distinct.get(contexts)
        if found is None:
            from .simplex import _first_distinct_columns  # the solver's presolve

            index = _first_distinct_columns(self.indicators(contexts))
            index.setflags(write=False)
            representatives = self.outcomes[index]
            representatives.setflags(write=False)
            found = self._distinct[contexts] = (index, _StrategyRows(representatives))
        return found


@functools.lru_cache(maxsize=_ENUMERATION_CACHE_SIZE)
def _enumerated(parties: int, settings: int) -> _StrategyRows:
    slots = parties * settings
    digits = np.indices((3,) * slots).reshape(slots, -1).T - 1
    outcomes = digits.reshape(-1, parties, settings)
    outcomes.setflags(write=False)
    return _StrategyRows(outcomes)


def _strategy_rows(outcomes: np.ndarray) -> _StrategyRows:
    """The shared rows when ``outcomes`` is an enumeration's own array or the
    class representatives found over it, else fresh ones.  Both shared
    arrays are read-only, so a writeable array is never looked up."""
    n, parties, settings = outcomes.shape
    slots = parties * settings
    if 1 <= slots <= MAX_ENUMERATION_SLOTS and n <= 3**slots and not outcomes.flags.writeable:
        rows = _enumerated(parties, settings)
        if rows.outcomes is outcomes:
            return rows
        for _, classes in rows._distinct.values():
            if classes.outcomes is outcomes:
                return classes
    return _StrategyRows(outcomes)


class CorrelationTarget(Frozen):
    """Target conditional-on-detection correlation for one setting context.

    ``settings`` holds one integer setting per party; ``tolerance`` is a
    finite nonnegative half-width around ``value``.
    """

    __slots__ = ("settings", "value", "tolerance")

    def __init__(self, settings: tuple[int, ...], value: float, tolerance: float = 0.0):
        settings = tuple(_checked_int("settings", s) for s in settings)
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"target correlation {value} outside [-1, 1]")
        if not tolerance >= 0.0:  # NaN fails this too
            raise ValueError(f"inconsistent tolerance sign: {tolerance}")
        if tolerance == np.inf:
            raise ValueError("tolerance must be finite, got inf")
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

    Row 0 is always sum_s w_s = 1, so each detection floor is written as the
    matching ceiling on the undetected mass, a ``<=`` row with a bound >= 0
    that the solver can start on its slack: det_c.w >= j becomes
    (1 - det_c).w <= 1 - j, and marg.w >= eta becomes (1 - marg).w <= 1 - eta.
    The labels keep their ``>=`` names.  The rows are exact (the indicators
    are 0 or 1); 1 - j and 1 - eta are rounded once, by at most 1.1e-16, and
    at eta = 1 the bound is exactly 0.

    The rows are written in a few whole-array blocks into preallocated
    arrays: the targets' product rows P and detection rows D are stacked,
    the equality rows are P - v*D, and the band rows P - (v + tol)*D and
    -(P - (v - tol)*D), interleaved per target; the floor rows are copied
    from read-only rows kept with the strategies' indicator rows.  Every
    entry goes through the IEEE operations it would get in a row built on
    its own, so the bits, row order, labels and errors are those of a
    row-by-row build.
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

    exact = []  # (prod, det, v) of each target without a tolerance
    banded = []  # (prod, det, (v + tol, v - tol)) of each target with one
    eq_labels = ["normalization"]
    ub_labels = []
    for target in targets:
        prod, det = rows.context(target.settings)
        name, value = f"corr{target.settings}", f"{target.value}"
        if target.tolerance == 0.0:
            exact.append((prod, det, target.value))
            eq_labels.append(f"{name}={value}")
        else:
            edges = (target.value + target.tolerance, target.value - target.tolerance)
            banded.append((prod, det, edges))
            tolerance = f"{target.tolerance}"
            ub_labels += (f"{name}<={value}+{tolerance}", f"{name}>={value}-{tolerance}")
    floored = list(dict.fromkeys(t.settings for t in targets)) if min_joint_detection > 0.0 else []
    if floored:
        joint = f"{min_joint_detection}"
        ub_labels.extend(f"joint-detection{ctx}>={joint}" for ctx in floored)

    bound = 0.0 if min_efficiency is None else float(min_efficiency)
    if not 0.0 <= bound <= 1.0:
        raise ValueError(f"efficiency bound {bound} outside [0, 1]")
    slots = parties * settings if bound > 0.0 else 0
    if slots:
        eta = f"{bound}"
        ub_labels.extend(
            f"efficiency[party={party},setting={setting}]>={eta}"
            for party in range(parties)
            for setting in range(settings)
        )

    k = 2 * len(banded)
    a_eq = np.empty((1 + len(exact), n))
    b_eq = np.zeros(1 + len(exact))
    a_ub = np.empty((len(ub_labels), n))
    b_ub = np.zeros(len(ub_labels))
    a_eq[0] = 1.0
    b_eq[0] = 1.0
    if exact:
        prod, det, value = zip(*exact)
        np.multiply(np.array(value, dtype=float)[:, None], np.array(det), out=a_eq[1:])
        np.subtract(np.array(prod), a_eq[1:], out=a_eq[1:])
    if banded:
        # Rows 2i and 2i + 1: prod - (v + tol) * det and -(prod - (v - tol) * det).
        prod, det, edges = zip(*banded)
        band = a_ub[:k].reshape(-1, 2, n)
        np.multiply(np.array(edges, dtype=float)[:, :, None], np.array(det)[:, None], out=band)
        np.subtract(np.array(prod)[:, None], band, out=band)
        np.negative(a_ub[1:k:2], out=a_ub[1:k:2])
    if floored:
        a_ub[k:k + len(floored)] = [rows.undetected(ctx) for ctx in floored]
        b_ub[k:k + len(floored)] = 1.0 - min_joint_detection
    if slots:
        a_ub[k + len(floored):] = rows.undetected_marginals()
        b_ub[k + len(floored):] = 1.0 - bound

    from .simplex import FeasibilityProblem  # loaded only where an LP is made

    return FeasibilityProblem(n, a_eq, b_eq, a_ub, b_ub, eq_labels, ub_labels)
