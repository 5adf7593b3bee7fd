"""Microstate models, strategy enumeration, and LP construction."""

import itertools
import math
import re

import numpy as np
import pytest

from esrsim import hidden_variables
from esrsim.correlations import GHZScenario, ghz_local_model_search
from esrsim.hidden_variables import (
    CorrelationTarget,
    MicrostateModel,
    build_feasibility_lp,
    enumerate_local_strategies,
    macro_from_micro,
)
from esrsim.simplex import FeasibilityProblem, solve_lp_simplex


def simple_model(weights, detection=None, default=1.0) -> MicrostateModel:
    return MicrostateModel(
        labels=("f",),
        microstates=(frozenset({"f"}), frozenset()),
        weights=weights,
        micro_detection=detection or {},
        default_detection=default,
    )


class TestMacroFromMicro:
    def test_perfect_detection(self):
        triple = macro_from_micro(simple_model((0.5, 0.5)), "f")
        assert triple.overall == pytest.approx(0.5, abs=1e-15)
        assert triple.detection == pytest.approx(1.0, abs=1e-15)
        assert triple.conditional == pytest.approx(0.5, abs=1e-15)

    def test_zero_detection_undefined_conditional(self):
        triple = macro_from_micro(simple_model((0.5, 0.5), default=0.0), "f")
        assert triple.overall == 0.0
        assert triple.detection == 0.0
        assert triple.conditional is None

    def test_hand_arithmetic(self):
        # weights (0.6 on {f}, 0.4 on {}), detection (0.5 on {f}, 1.0 on {}).
        model = simple_model((0.6, 0.4), detection={(0, "f"): 0.5, (1, "f"): 1.0})
        triple = macro_from_micro(model, "f")
        assert triple.overall == pytest.approx(0.3, abs=1e-15)
        assert triple.detection == pytest.approx(0.7, abs=1e-15)
        assert triple.conditional == pytest.approx(3.0 / 7.0, abs=1e-15)

    def test_unknown_property(self):
        with pytest.raises(ValueError, match="unknown property"):
            macro_from_micro(simple_model((0.5, 0.5)), "g")

    def test_product_law_holds_randomized(self, rng):
        for _ in range(200):
            n_props = int(rng.integers(1, 5))
            labels = tuple(f"p{i}" for i in range(n_props))
            n_states = int(rng.integers(1, 11))
            microstates = tuple(
                frozenset(l for l in labels if rng.random() < 0.5)
                for _ in range(n_states)
            )
            weights = rng.random(n_states) + 1e-9
            weights = tuple(float(w) for w in weights / weights.sum())
            detection = {
                (i, l): float(rng.random())
                for i in range(n_states)
                for l in labels
                if rng.random() < 0.7
            }
            model = MicrostateModel(
                labels=labels,
                microstates=microstates,
                weights=weights,
                micro_detection=detection,
            )
            target = labels[int(rng.integers(0, n_props))]
            triple = macro_from_micro(model, target)
            if triple.conditional is not None:
                assert triple.product_law_residual() <= 1e-12

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="sum"):
            simple_model((0.5, 0.4))
        with pytest.raises(ValueError, match="nonnegative"):
            simple_model((1.5, -0.5))


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_local_strategies(1, 1)) == 3
        assert len(enumerate_local_strategies(2, 2)) == 81
        assert len(enumerate_local_strategies(3, 2)) == 729

    def test_distinct_and_lexicographic(self):
        # Party-major, setting-minor slots in itertools.product order.
        strategies = enumerate_local_strategies(2, 2)
        assert strategies.shape == (81, 2, 2)
        flattened = [tuple(s.reshape(-1).tolist()) for s in strategies]
        assert flattened == list(itertools.product((-1, 0, 1), repeat=4))

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="enumeration bound"):
            enumerate_local_strategies(5, 3)

    @pytest.mark.parametrize("name", ["parties", "settings"])
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, True, False, 2.5, 2.0, np.float64(2.0), "2"]
    )
    def test_non_integer_counts_rejected_by_name(self, name, value):
        counts = {"parties": 2, "settings": 2, name: value}
        with pytest.raises(ValueError) as excinfo:
            enumerate_local_strategies(**counts)
        assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"

    def test_numpy_integer_counts_accepted(self):
        assert len(enumerate_local_strategies(np.int64(2), np.int32(2))) == 81

    def test_shared_array_is_read_only(self):
        strategies = enumerate_local_strategies(3, 2)
        assert enumerate_local_strategies(3, 2) is strategies
        with pytest.raises(ValueError, match="read-only"):
            strategies[0, 0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            strategies[0] *= 0
        assert strategies[0].tolist() == [[-1, -1], [-1, -1], [-1, -1]]


class TestBuildFeasibilityLP:
    def test_normalization_only_full_simplex(self):
        strategies = enumerate_local_strategies(1, 1)
        problem = build_feasibility_lp(strategies, targets=(), min_joint_detection=0.0)
        assert problem.n_vars == 3
        result = solve_lp_simplex(problem)
        assert result.feasible
        assert result.x.sum() == pytest.approx(1.0, abs=1e-12)

    def test_forced_weight_beyond_simplex_infeasible(self):
        # Direct constraint "weight of strategy #1 = 2" cannot hold on the simplex.
        strategies = enumerate_local_strategies(1, 1)
        base = build_feasibility_lp(strategies, targets=(), min_joint_detection=0.0)
        pin = np.zeros(3)
        pin[1] = 1.0
        problem = FeasibilityProblem(
            n_vars=3,
            a_eq=np.vstack([base.a_eq, pin]),
            b_eq=np.concatenate([base.b_eq, [2.0]]),
            eq_labels=(*base.eq_labels, "w1=2"),
        )
        assert not solve_lp_simplex(problem).feasible

    def test_tsirelson_targets_at_unit_efficiency_infeasible(self):
        # Conditional correlations at the quantum optimum sum past the
        # strategy bound of 2, so unit detection admits no local model.
        strategies = enumerate_local_strategies(2, 2)
        r = math.sqrt(2.0) / 2.0
        targets = (
            CorrelationTarget(settings=(0, 0), value=-r),
            CorrelationTarget(settings=(0, 1), value=r),
            CorrelationTarget(settings=(1, 0), value=-r),
            CorrelationTarget(settings=(1, 1), value=-r),
        )
        problem = build_feasibility_lp(strategies, targets, min_efficiency=1.0)
        assert not solve_lp_simplex(problem).feasible

    def test_tsirelson_targets_feasible_without_efficiency_floor(self):
        strategies = enumerate_local_strategies(2, 2)
        r = math.sqrt(2.0) / 2.0
        targets = (
            CorrelationTarget(settings=(0, 0), value=-r),
            CorrelationTarget(settings=(0, 1), value=r),
            CorrelationTarget(settings=(1, 0), value=-r),
            CorrelationTarget(settings=(1, 1), value=-r),
        )
        problem = build_feasibility_lp(strategies, targets)
        result = solve_lp_simplex(problem)
        assert result.feasible

    def test_target_validation(self):
        strategies = enumerate_local_strategies(1, 1)
        with pytest.raises(ValueError, match="outside"):
            CorrelationTarget(settings=(0,), value=1.5)
        with pytest.raises(ValueError, match="tolerance"):
            CorrelationTarget(settings=(0,), value=0.5, tolerance=-0.1)
        with pytest.raises(ValueError, match="efficiency bound"):
            build_feasibility_lp(strategies, (), min_efficiency=1.2)
        with pytest.raises(ValueError, match="no strategies"):
            build_feasibility_lp(strategies[:0])

    @pytest.mark.parametrize(
        "context, message",
        [
            ((0, 1), "does not match 3 parties"),
            ((0, 1, 1, 0), "does not match 3 parties"),
            ((0, 2, 1), r"has a setting outside \[0, 2\)"),
            ((0, -1, 1), r"has a setting outside \[0, 2\)"),
        ],
        ids=["short", "long", "too-large", "negative"],
    )
    @pytest.mark.parametrize("shared", [True, False])
    def test_bad_context_raises_before_indexing(self, context, message, shared):
        # Checked before the strategies are indexed: numpy would raise an
        # IndexError for the first three and read -1 as setting 1.
        strategies = enumerate_local_strategies(3, 2)
        if not shared:
            strategies = strategies.copy()
        targets = (CorrelationTarget(settings=context, value=0.5),)
        with pytest.raises(ValueError, match=re.escape(f"context {context}") + " " + message):
            build_feasibility_lp(strategies, targets)

    def test_tolerance_band_becomes_inequalities(self):
        strategies = enumerate_local_strategies(2, 2)
        targets = (CorrelationTarget(settings=(0, 0), value=0.5, tolerance=0.05),)
        problem = build_feasibility_lp(strategies, targets)
        # one equality (normalization), two band rows plus detection floor
        assert problem.a_eq.shape[0] == 1
        assert problem.a_ub.shape[0] == 3
        result = solve_lp_simplex(problem)
        assert result.feasible
        outcomes = strategies.astype(float)
        prod = outcomes[:, 0, 0] * outcomes[:, 1, 0]
        det = (outcomes[:, 0, 0] != 0) & (outcomes[:, 1, 0] != 0)
        achieved = float(result.x @ prod) / float(result.x @ det.astype(float))
        assert 0.45 - 1e-9 <= achieved <= 0.55 + 1e-9


def _per_row_lp(outcomes, targets, min_joint_detection, min_efficiency):
    """The LP built one numpy row at a time and stacked with ``np.vstack``:
    the reference the block builder must match bit for bit."""
    n, parties, settings = outcomes.shape

    def context(ctx):
        sel = outcomes[:, np.arange(parties), list(ctx)]
        return np.prod(sel, axis=1).astype(float), np.all(sel != 0, axis=1).astype(float)

    a_eq_rows, b_eq, eq_labels = [np.ones(n)], [1.0], ["normalization"]
    a_ub_rows, b_ub, ub_labels = [], [], []
    contexts = {}
    for target in targets:
        prod, det = context(target.settings)
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
        for ctx, det in contexts.items():
            a_ub_rows.append(1.0 - det)
            b_ub.append(1.0 - min_joint_detection)
            ub_labels.append(f"joint-detection{ctx}>={min_joint_detection}")
    bound = 0.0 if min_efficiency is None else float(min_efficiency)
    if bound > 0.0:
        marginals = (outcomes != 0).astype(float)
        for party in range(parties):
            for setting in range(settings):
                a_ub_rows.append(1.0 - marginals[:, party, setting])
                b_ub.append(1.0 - bound)
                ub_labels.append(f"efficiency[party={party},setting={setting}]>={bound}")
    a_ub = np.vstack(a_ub_rows) if a_ub_rows else np.zeros((0, n))
    return (np.vstack(a_eq_rows), np.asarray(b_eq), a_ub, np.asarray(b_ub),
            tuple(eq_labels), tuple(ub_labels))


def _lp_bytes(a_eq, b_eq, a_ub, b_ub, eq_labels, ub_labels):
    arrays = (a_eq, b_eq, a_ub, b_ub)
    return [(a.shape, a.tobytes()) for a in arrays] + [eq_labels, ub_labels]


# Each shape's contexts name one of them twice.
_BLOCK_CONTEXTS = {
    (1, 3): [(0,), (2,), (1,), (2,)],
    (2, 2): [(0, 0), (0, 1), (1, 0), (1, 1), (0, 1)],
    (3, 2): [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0)],
}


class TestBlockBuilder:
    """``build_feasibility_lp`` writes its rows in whole-array blocks; every
    byte and label equals the LP built one row at a time."""

    @pytest.mark.parametrize("min_efficiency", [None, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("min_joint_detection", [0.0, 1e-6, 0.3])
    @pytest.mark.parametrize("tolerances", ["zero", "positive", "mixed", "no-targets"])
    @pytest.mark.parametrize("shape", list(_BLOCK_CONTEXTS), ids=str)
    def test_equals_the_per_row_builder(
        self, shape, tolerances, min_joint_detection, min_efficiency
    ):
        rng = np.random.default_rng(3030)
        contexts = _BLOCK_CONTEXTS[shape]
        # Exact +-1, a signed zero and random values; random tolerances.
        values = [1.0, -1.0, -0.0] + list(rng.uniform(-1.0, 1.0, len(contexts)))
        spread = {
            "zero": [0.0] * len(contexts),
            "positive": list(10.0 ** rng.uniform(-6.0, -0.5, len(contexts))),
            "mixed": [0.0, 1e-6, 0.0, 0.25, 1e-3][: len(contexts)],
            "no-targets": [],
        }[tolerances]
        targets = [
            CorrelationTarget(settings=ctx, value=float(v), tolerance=float(t))
            for ctx, v, t in zip(contexts, values, spread)
        ]
        shared = enumerate_local_strategies(*shape)
        # A fresh strategy array, not the shared enumeration: its rows are
        # built for this call alone.
        fresh = shared[rng.permutation(len(shared))[: len(shared) // 2 + 1]]
        for strategies in (shared, fresh):
            problem = build_feasibility_lp(
                strategies, targets, min_joint_detection, min_efficiency
            )
            built = _lp_bytes(problem.a_eq, problem.b_eq, problem.a_ub, problem.b_ub,
                              problem.eq_labels, problem.ub_labels)
            reference = _per_row_lp(strategies, targets, min_joint_detection, min_efficiency)
            assert built == _lp_bytes(*reference)

    @pytest.mark.parametrize("min_efficiency", [None, 0.7])
    @pytest.mark.parametrize("min_joint_detection", [0.0, 1e-6, 0.3])
    @pytest.mark.parametrize("tolerance", [0.0, 1e-4])
    def test_class_representatives_give_the_gathered_columns(
        self, tolerance, min_joint_detection, min_efficiency
    ):
        # The GHZ search builds its LP over one strategy per class; that LP
        # is the 729-column LP's columns at the class index, byte for byte,
        # and the representatives' rows are the shared, read-only ones.
        from esrsim.correlations import GHZ_CONTEXTS

        everything = hidden_variables._enumerated(3, 2)
        index = everything.distinct_strategies(GHZ_CONTEXTS)
        classes = everything.class_representatives(GHZ_CONTEXTS)
        assert classes.outcomes.shape == (105, 3, 2) and index.size == 105
        assert np.array_equal(classes.outcomes, everything.outcomes[index])
        assert hidden_variables._strategy_rows(classes.outcomes) is classes
        copy = classes.outcomes.copy()
        assert hidden_variables._strategy_rows(copy) is not classes
        for a in (classes.outcomes, classes.indicators(GHZ_CONTEXTS)):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1

        targets = [
            CorrelationTarget(settings=ctx, value=value, tolerance=tolerance)
            for ctx, value in zip(GHZ_CONTEXTS, (0.8, -0.8, -0.8, -0.8))
        ]
        full = build_feasibility_lp(
            everything.outcomes, targets, min_joint_detection, min_efficiency
        )
        gathered = _lp_bytes(full.a_eq[:, index], full.b_eq, full.a_ub[:, index], full.b_ub,
                             full.eq_labels, full.ub_labels)
        for strategies in (classes.outcomes, copy):
            problem = build_feasibility_lp(strategies, targets, min_joint_detection, min_efficiency)
            assert _lp_bytes(problem.a_eq, problem.b_eq, problem.a_ub, problem.b_ub,
                             problem.eq_labels, problem.ub_labels) == gathered

    def test_a_bad_context_is_reported_before_a_bad_efficiency_bound(self):
        targets = (
            CorrelationTarget(settings=(0, 0, 0), value=1.0),
            CorrelationTarget(settings=(0, 2, 0), value=1.0),
        )
        with pytest.raises(ValueError, match=re.escape("context (0, 2, 0)")):
            build_feasibility_lp(enumerate_local_strategies(3, 2), targets, 1e-6, 1.5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: simple_model((0.5, 0.5), default=1.5), "default_detection outside [0, 1]"),
        (lambda: simple_model((math.nan, 1.0)), "weights must be nonnegative"),
        (lambda: enumerate_local_strategies(0, 2), "parties and settings must be positive"),
        (
            lambda: build_feasibility_lp(
                enumerate_local_strategies(1, 1), (), min_joint_detection=-0.1
            ),
            "min_joint_detection must be nonnegative",
        ),
        (
            lambda: build_feasibility_lp(
                enumerate_local_strategies(1, 1), (), min_joint_detection=1.5
            ),
            "min_joint_detection must be at most 1",
        ),
        (
            lambda: ghz_local_model_search(GHZScenario.standard(), 0.0, math.nan),
            "min_joint_detection must be nonnegative",
        ),
        (
            lambda: ghz_local_model_search(GHZScenario.standard(), math.nan),
            "efficiency bound nan outside [0, 1]",
        ),
        (
            lambda: ghz_local_model_search(GHZScenario.standard(), -0.5),
            "efficiency bound -0.5 outside [0, 1]",
        ),
        (
            lambda: CorrelationTarget(settings=(0, 0), value=0.5, tolerance=math.nan),
            "inconsistent tolerance sign: nan",
        ),
        (
            lambda: CorrelationTarget(settings=(0, 0), value=0.5, tolerance=math.inf),
            "tolerance must be finite, got inf",
        ),
        (
            lambda: CorrelationTarget(settings=(math.inf, 0, 0), value=1.0),
            "settings must be an integer, got inf",
        ),
        (
            lambda: CorrelationTarget(settings=(0, math.nan, 0), value=1.0),
            "settings must be an integer, got nan",
        ),
        (
            lambda: CorrelationTarget(settings=(0.5, 1, 0), value=1.0),
            "settings must be an integer, got 0.5",
        ),
        (
            lambda: CorrelationTarget(settings=(True, 1, 0), value=1.0),
            "settings must be an integer, got True",
        ),
        (
            lambda: MicrostateModel(("f", "f"), (frozenset({"f"}),), (1.0,)),
            "microscopic property labels must be distinct",
        ),
    ],
    ids=[
        "default-detection-above-one",
        "nan-weight",
        "zero-parties",
        "negative-min-joint-detection",
        "min-joint-detection-above-one",
        "nan-min-joint-detection",
        "nan-min-efficiency",
        "negative-min-efficiency",
        "nan-tolerance",
        "infinite-tolerance",
        "infinite-setting",
        "nan-setting",
        "fractional-setting",
        "bool-setting",
        "repeated-label",
    ],
)
def test_malformed_input_rejected(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
