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
Every LP row is read from one indicator block over the strategies and the
targets' contexts; this module alone builds and reads it.  Its local-model
search, which ``correlations``' GHZ search only calls, solves the LP over
the strategy classes of :func:`_strategy_classes` and returns the verdict,
weights and row sums.  What depends only on the shape, that is on
(parties, settings, contexts), is built once and kept in small ``functools``
caches keyed by value: the class block, its ceiling rows ``1 - D`` and
``1 - marginal``, the row-label prefixes and the slot keys.  Per call only
the target rows, the bounds and the labels' number strings are written, into
fresh arrays that the solver's problem record takes over without a copy.
The inequality bounds read the same enumeration.
``simplex`` is imported only where that LP is built or solved, so a
microstate model (hv-verify) never loads the solver.
"""

from __future__ import annotations

import functools
import math
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
_ENUMERATION_CACHE_SIZE = 4  # shapes kept, and (shape, contexts) keys of strategy classes


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
        for key, value in dict(micro_detection or {}).items():
            idx, label = key
            idx = _checked_int(f"microstate index of micro_detection key {key!r}", idx)
            if not 0 <= idx < len(states):
                raise ValueError(f"micro_detection references microstate {idx}")
            if label not in known:
                raise ValueError(f"micro_detection references unknown property {label!r}")
            v = float(value)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"micro detection {v} outside [0, 1]")
            detection[(idx, label)] = v
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
    return _enumerated(parties, settings)


@functools.lru_cache(maxsize=_ENUMERATION_CACHE_SIZE)
def _enumerated(parties: int, settings: int) -> np.ndarray:
    slots = parties * settings
    digits = np.indices((3,) * slots).reshape(slots, -1).T - 1
    outcomes = digits.reshape(-1, parties, settings)
    outcomes.setflags(write=False)
    return outcomes


def _indicators(outcomes: np.ndarray, contexts: tuple[tuple[int, ...], ...],
                marginals: bool = True) -> np.ndarray:
    """Each context's product and joint-detection rows, in context order,
    then, with ``marginals``, every slot's detection marginal, slots
    party-major, as one ``(2 * len(contexts) + slots, strategies)`` array
    over the int ``outcomes``.  Each context must hold one setting per
    party, each in ``[0, settings)``; that is checked before any indexing."""
    n, parties, settings = outcomes.shape
    block = np.empty((2 * len(contexts) + (parties * settings if marginals else 0), n))
    for i, ctx in enumerate(contexts):
        if len(ctx) != parties:
            raise ValueError(f"context {ctx} does not match {parties} parties")
        if not all(0 <= s < settings for s in ctx):
            raise ValueError(f"context {ctx} has a setting outside [0, {settings})")
        sel = outcomes[:, np.arange(parties), list(ctx)]
        block[2 * i] = np.prod(sel, axis=1)
        block[2 * i + 1] = np.all(sel != 0, axis=1)
    if marginals:
        block[2 * len(contexts):] = (outcomes != 0).reshape(n, -1).T
    return block


def _first_distinct_columns(a: np.ndarray) -> np.ndarray:
    """Sorted index of the first copy of each byte-identical column of the
    float array ``a``: each column of the C-contiguous transpose is one
    void key, and ``np.unique`` sorts the keys stably, so its index is each
    key's first copy."""
    columns = np.ascontiguousarray(a.T)
    keys = columns.view(np.dtype((np.void, columns.itemsize * columns.shape[1]))).ravel()
    return np.sort(np.unique(keys, return_index=True)[1])


@functools.lru_cache(maxsize=_ENUMERATION_CACHE_SIZE)
def _strategy_classes(parties: int, settings: int, contexts) -> tuple[np.ndarray, np.ndarray]:
    """The sorted index of the first enumerated strategy of each class whose
    :func:`_indicators` columns over ``contexts`` coincide, and the indicator
    block of the strategies it indexes, both read-only.

    Every row :func:`_feasibility_lp` writes is built entry by entry from
    that block, so one class has byte-identical LP columns, and an LP over
    the indexed strategies is the LP over all of them with each later copy
    of a column left out.  This is the only place that compares columns;
    the solver compares none.  The block is built over the representatives'
    own outcomes, not gathered from the enumeration's block, so it is
    C-ordered and its row sums add in a fixed order.
    """
    outcomes = _enumerated(parties, settings)
    index = _first_distinct_columns(_indicators(outcomes, contexts))
    block = _indicators(outcomes[index], contexts)
    index.setflags(write=False)
    block.setflags(write=False)
    return index, block


def _ceilings(block: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ceiling rows ``1 - D`` of the ``count`` contexts' joint-detection
    rows and ``1 - marginal`` of the slot marginals of an :func:`_indicators`
    ``block``."""
    return 1.0 - block[1:2 * count:2], 1.0 - block[2 * count:]


@functools.lru_cache(maxsize=_ENUMERATION_CACHE_SIZE)
def _class_ceilings(parties: int, settings: int, contexts) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_ceilings` of the :func:`_strategy_classes` block, read-only:
    they do not depend on the targets or the floors."""
    rows = _ceilings(_strategy_classes(parties, settings, contexts)[1], len(contexts))
    for row in rows:
        row.setflags(write=False)
    return rows


@functools.lru_cache(maxsize=_ENUMERATION_CACHE_SIZE)
def _label_prefixes(parties: int, settings: int, contexts) -> tuple[tuple[str, ...], ...]:
    """The per-shape parts of the LP's row labels: each context's
    ``corr(...)`` name and ``joint-detection(...)>=`` prefix, in context
    order, and each slot's ``efficiency[party=...,setting=...]>=`` prefix,
    party-major."""
    return (
        tuple(f"corr{ctx}" for ctx in contexts),
        tuple(f"joint-detection{ctx}>=" for ctx in contexts),
        tuple(f"efficiency[party={party},setting={setting}]>="
              for party in range(parties) for setting in range(settings)),
    )


@functools.lru_cache(maxsize=_ENUMERATION_CACHE_SIZE)
def _slot_keys(parties: int, settings: int) -> tuple[tuple[int, int], ...]:
    """Every ``(party, setting)`` slot, party-major."""
    return tuple(np.ndindex(parties, settings))


def _checked_tolerance(tolerance: float) -> None:
    """A target tolerance must be finite and nonnegative."""
    if not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance}")
    if tolerance < 0.0:
        raise ValueError(f"inconsistent tolerance sign: {tolerance}")


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
        _checked_tolerance(tolerance)
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
    arrays from the strategies' indicator block over the targets' distinct
    contexts, built fresh on every call, with the slot marginals only
    under an efficiency bound: the targets' product rows P and detection
    rows D are read from it, as slices when each target has its own context
    in order, the equality rows are P - v*D, and the band rows
    P - (v + tol)*D and -(P - (v - tol)*D), interleaved per target; the
    floor rows are 1 minus the block's joint-detection and marginal rows.
    Only the labels' prefixes are per shape and cached.  Every entry goes
    through the IEEE operations it would get in a row built on its own, so
    the bits, row order, labels and errors are those of a row-by-row build.
    """
    outcomes = np.asarray(strategies)
    if outcomes.ndim != 3:
        raise ValueError(
            f"strategies must be a 3-D (strategy, party, setting) array, got {outcomes.ndim}-D"
        )
    if not np.isin(outcomes, (-1, 0, 1)).all():
        raise ValueError("strategies must hold integer outcomes in {-1, 0, +1}")
    n, parties, settings = outcomes.shape
    if n == 0:
        raise ValueError("no strategies supplied")
    targets = [(t.settings, t.value, t.tolerance) for t in targets]
    contexts = tuple(dict.fromkeys(ctx for ctx, _, _ in targets))
    block = _indicators(outcomes.astype(int), contexts, marginals=bool(min_efficiency))
    return _feasibility_lp(block, contexts, targets, parties, settings,
                           min_joint_detection, min_efficiency)


def _feasibility_lp(block: np.ndarray, contexts, targets, parties: int, settings: int,
                    min_joint_detection: float, min_efficiency: float | None,
                    ceilings: tuple[np.ndarray, np.ndarray] | None = None) -> FeasibilityProblem:
    """The rows of :func:`build_feasibility_lp` from the :func:`_indicators`
    ``block`` of ``parties`` x ``settings`` strategies over ``contexts``, the
    targets' distinct contexts in order.  Each target is a checked
    ``(settings, value, tolerance)`` triple; the floors are checked here,
    before any row is written.

    The label prefixes come from the per-shape :func:`_label_prefixes`;
    ``ceilings`` are the block's ``1 - D`` and ``1 - marginal`` rows,
    :func:`_class_ceilings` for a class block, or built here from a fresh
    one.  Per call only the target rows, the bounds and the number strings
    in the labels are written, into arrays allocated here that the returned
    problem adopts: they are checked for finiteness and made read-only, not
    copied."""
    n = block.shape[1]
    if not math.isfinite(min_joint_detection):
        raise ValueError(f"min_joint_detection must be finite, got {min_joint_detection}")
    if min_joint_detection < 0.0:
        raise ValueError("min_joint_detection must be nonnegative")
    if not min_joint_detection <= 1.0:
        raise ValueError("min_joint_detection must be at most 1")
    bound = 0.0 if min_efficiency is None else float(min_efficiency)
    if not 0.0 <= bound <= 1.0:
        raise ValueError(f"efficiency bound {bound} outside [0, 1]")

    names, joint_prefixes, slot_prefixes = _label_prefixes(parties, settings, contexts)
    exact = []  # (P row, v) of each target without a tolerance; D is the next row
    banded = []  # (P row, (v + tol, v - tol)) of each target with one
    eq_labels = ["normalization"]
    ub_labels = []
    for ctx, value, tolerance in targets:
        i = contexts.index(ctx)
        name, shown = names[i], f"{value}"
        if tolerance == 0.0:
            exact.append((2 * i, value))
            eq_labels.append(f"{name}={shown}")
        else:
            banded.append((2 * i, (value + tolerance, value - tolerance)))
            ub_labels += (f"{name}<={shown}+{tolerance}", f"{name}>={shown}-{tolerance}")
    floored = len(contexts) if min_joint_detection > 0.0 else 0
    if floored:
        joint = f"{min_joint_detection}"
        ub_labels += [prefix + joint for prefix in joint_prefixes]
    slots = parties * settings if bound > 0.0 else 0
    if slots:
        eta = f"{bound}"
        ub_labels += [prefix + eta for prefix in slot_prefixes]

    k = 2 * len(banded)
    a_eq = np.empty((1 + len(exact), n))
    b_eq = np.zeros(1 + len(exact))
    a_ub = np.empty((len(ub_labels), n))
    b_ub = np.zeros(len(ub_labels))
    a_eq[0] = 1.0
    b_eq[0] = 1.0
    if exact:
        at, value = zip(*exact)
        products, detections = _target_rows(block, at)
        np.multiply(np.array(value, dtype=float)[:, None], detections, out=a_eq[1:])
        np.subtract(products, a_eq[1:], out=a_eq[1:])
    if banded:
        # Rows 2i and 2i + 1: P - (v + tol) * D and -(P - (v - tol) * D).
        at, edges = zip(*banded)
        products, detections = _target_rows(block, at)
        band = a_ub[:k].reshape(-1, 2, n)
        np.multiply(np.array(edges, dtype=float)[:, :, None], detections[:, None], out=band)
        np.subtract(products[:, None], band, out=band)
        np.negative(a_ub[1:k:2], out=a_ub[1:k:2])
    if floored or slots:
        joint_rows, slot_rows = _ceilings(block, len(contexts)) if ceilings is None else ceilings
    if floored:
        a_ub[k:k + floored] = joint_rows
        b_ub[k:k + floored] = 1.0 - min_joint_detection
    if slots:
        a_ub[k + floored:] = slot_rows
        b_ub[k + floored:] = 1.0 - bound

    from .simplex import FeasibilityProblem  # loaded only where an LP is made

    return FeasibilityProblem._adopt(n, a_eq, b_eq, a_ub, b_ub, eq_labels, ub_labels)


def _target_rows(block: np.ndarray, at: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The product rows ``block[at]`` and the detection rows after them:
    basic slices when ``at`` is 0, 2, 4, ..., each target on its own
    context in order, as in every GHZ search; gathered otherwise."""
    k = 2 * len(at)
    if at == tuple(range(0, k, 2)):
        return block[0:k:2], block[1:k:2]
    at = np.array(at)
    return block[at], block[at + 1]


def _local_model_search(parties: int, settings: int, contexts, values, tolerance: float,
                        min_joint_detection: float, min_efficiency: float | None):
    """Solve :func:`build_feasibility_lp`'s LP for ``values``, one per
    context, each within ``tolerance``, over the classes of
    :func:`_strategy_classes`.  Returns the solver's result and, for a
    feasible point, ``(weights, products, joint, efficiencies)``, else None:
    the weight of every enumerated strategy (zero off the representatives),
    each context's product sum, {context: joint-detection sum} and
    {(party, setting): detection marginal}, the block's row sums in numpy's
    fixed order, not BLAS's.  A point that fails the certificate the solver
    computed raises ``RuntimeError``."""
    _checked_tolerance(tolerance)
    index, block = _strategy_classes(parties, settings, contexts)
    targets = [(ctx, value, tolerance) for ctx, value in zip(contexts, values)]
    from .simplex import solve_lp_simplex  # loaded only where an LP is solved

    result = solve_lp_simplex(_feasibility_lp(
        block, contexts, targets, parties, settings, min_joint_detection, min_efficiency,
        _class_ceilings(parties, settings, contexts),
    ))
    if not result.feasible:
        return result, None
    if not result.certificate.satisfied():
        raise RuntimeError(
            f"LP point fails its feasibility certificate at {result.certificate.worst_row!r}"
        )
    sums = (block * result.x).sum(axis=1).tolist()
    k = 2 * len(contexts)
    weights = np.zeros(3 ** (parties * settings))
    weights[index] = result.x
    return result, (weights, sums[0:k:2], dict(zip(contexts, sums[1:k:2])),
                    dict(zip(_slot_keys(parties, settings), sums[k:])))
