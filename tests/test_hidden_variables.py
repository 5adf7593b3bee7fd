"""Microstate models, strategy enumeration, and LP construction."""

import itertools
import math
import re

import numpy as np
import pytest

from esrsim.correlations import GHZScenario, ghz_local_model_search
from esrsim.hidden_variables import (
    CorrelationTarget,
    MicroPropertySet,
    MicrostateModel,
    build_feasibility_lp,
    enumerate_local_strategies,
    macro_from_micro,
)
from esrsim.simplex import FeasibilityProblem, solve_lp_simplex


def simple_model(weights, detection=None, default=1.0) -> MicrostateModel:
    return MicrostateModel(
        property_set=MicroPropertySet(("f",)),
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
                property_set=MicroPropertySet(labels),
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
    ],
)
def test_malformed_input_rejected(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
