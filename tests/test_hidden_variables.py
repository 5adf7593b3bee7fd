"""Microstate models, strategy enumeration, and LP construction."""

import itertools
import math
import re
import warnings
import weakref

import numpy as np
import pytest

from conftest import clear_operator_caches
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

    @pytest.mark.parametrize("read_only", [False, True])
    @pytest.mark.parametrize(
        "strategies, message",
        [
            ([[[0.5]], [[1.0]]], "integer outcomes"),
            ([[[2]], [[-1]]], "integer outcomes"),
            ([[[math.nan]], [[1.0]]], "integer outcomes"),
            ([[1, 0], [0, 1]], "3-D (strategy, party, setting) array, got 2-D"),
            (5, "3-D (strategy, party, setting) array, got 0-D"),
        ],
        ids=["fractional", "out-of-range", "nan", "two-dimensional", "zero-dimensional"],
    )
    def test_malformed_strategies_rejected(self, strategies, message, read_only):
        array = np.array(strategies)
        array.setflags(write=not read_only)
        target = (CorrelationTarget(settings=(0,), value=1.0),)
        with pytest.raises(ValueError, match=re.escape(message)) as excinfo:
            build_feasibility_lp(array, target)
        assert str(excinfo.value).startswith("strategies must ")

    def test_integer_valued_float_strategies_build_the_int_lp(self):
        strategies = enumerate_local_strategies(2, 2)
        targets = (CorrelationTarget(settings=(0, 1), value=0.5, tolerance=0.1),)
        want = build_feasibility_lp(strategies, targets, 1e-6, 0.5)
        got = build_feasibility_lp(strategies.astype(float), targets, 1e-6, 0.5)
        assert _lp_bytes(got.a_eq, got.b_eq, got.a_ub, got.b_ub, got.eq_labels,
                         got.ub_labels) == _lp_bytes(want.a_eq, want.b_eq, want.a_ub,
                                                     want.b_ub, want.eq_labels, want.ub_labels)

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
# The same, and the GHZ search's four distinct contexts in order, on which
# the row writer reads the targets' rows as slices, not gathered.
_LP_CASES = [*_BLOCK_CONTEXTS.items(), ((3, 2), [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])]
_LP_CASE_IDS = [*map(str, _BLOCK_CONTEXTS), "(3, 2)-distinct"]


# The per-shape caches beside _strategy_classes.
_SHAPE_CACHES = ("_class_ceilings", "_label_prefixes", "_slot_keys")


class TestBlockBuilder:
    """``build_feasibility_lp`` writes its rows in whole-array blocks; every
    byte and label equals the LP built one row at a time."""

    @pytest.mark.parametrize("min_efficiency", [None, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("min_joint_detection", [0.0, 1e-6, 0.3])
    @pytest.mark.parametrize("tolerances", ["zero", "positive", "mixed", "no-targets"])
    @pytest.mark.parametrize("shape, contexts", _LP_CASES, ids=_LP_CASE_IDS)
    def test_equals_the_per_row_builder(
        self, shape, contexts, tolerances, min_joint_detection, min_efficiency
    ):
        rng = np.random.default_rng(3030)
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
        # and the class index and the representatives' block are cached,
        # read-only and C-ordered, so their row sums add in a fixed order.
        from esrsim.correlations import GHZ_CONTEXTS

        everything = enumerate_local_strategies(3, 2)
        index, block = hidden_variables._strategy_classes(3, 2, GHZ_CONTEXTS)
        assert hidden_variables._strategy_classes(3, 2, GHZ_CONTEXTS)[1] is block
        representatives = everything[index]
        assert representatives.shape == (105, 3, 2) and index.size == 105
        assert np.array_equal(
            block, hidden_variables._indicators(everything, GHZ_CONTEXTS)[:, index]
        )
        assert block.flags.c_contiguous
        for a in (index, block):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1

        targets = [
            CorrelationTarget(settings=ctx, value=value, tolerance=tolerance)
            for ctx, value in zip(GHZ_CONTEXTS, (0.8, -0.8, -0.8, -0.8))
        ]
        full = build_feasibility_lp(everything, targets, min_joint_detection, min_efficiency)
        gathered = _lp_bytes(full.a_eq[:, index], full.b_eq, full.a_ub[:, index], full.b_ub,
                             full.eq_labels, full.ub_labels)
        searched = hidden_variables._feasibility_lp(
            block, GHZ_CONTEXTS, [(t.settings, t.value, t.tolerance) for t in targets],
            3, 2, min_joint_detection, min_efficiency,
        )
        for problem in (
            build_feasibility_lp(representatives, targets, min_joint_detection, min_efficiency),
            searched,
        ):
            assert _lp_bytes(problem.a_eq, problem.b_eq, problem.a_ub, problem.b_ub,
                             problem.eq_labels, problem.ub_labels) == gathered

    @pytest.mark.parametrize("min_efficiency", [None, 0.0, 0.5])
    @pytest.mark.parametrize("shape", list(_BLOCK_CONTEXTS), ids=str)
    def test_slot_marginals_are_built_only_under_an_efficiency_bound(
        self, shape, min_efficiency, monkeypatch
    ):
        # Only efficiency rows read a fresh block's slot marginals; the LP
        # bytes equal those written from the block with every row.
        contexts = tuple(dict.fromkeys(_BLOCK_CONTEXTS[shape]))
        targets = [CorrelationTarget(settings=ctx, value=0.5, tolerance=1e-3) for ctx in contexts]
        strategies = enumerate_local_strategies(*shape).copy()
        rows, write = [], hidden_variables._feasibility_lp

        def writer(block, *args):
            rows.append(block.shape[0])
            return write(block, *args)

        monkeypatch.setattr(hidden_variables, "_feasibility_lp", writer)
        problem = build_feasibility_lp(strategies, targets, 1e-6, min_efficiency)
        slots = shape[0] * shape[1] if min_efficiency else 0
        assert rows == [2 * len(contexts) + slots]
        full = write(hidden_variables._indicators(strategies, contexts), contexts,
                     [(t.settings, t.value, t.tolerance) for t in targets],
                     *shape, 1e-6, min_efficiency)
        assert _lp_bytes(problem.a_eq, problem.b_eq, problem.a_ub, problem.b_ub,
                         problem.eq_labels, problem.ub_labels) == _lp_bytes(
            full.a_eq, full.b_eq, full.a_ub, full.b_ub, full.eq_labels, full.ub_labels)

    def test_a_callers_read_only_array_builds_no_enumeration(self):
        # Only the enumeration's own array and the class representatives
        # found over it are shared.  A caller's read-only array whose shape
        # the enumeration covers gets fresh rows, and the 3^12-strategy
        # enumeration of its shape is not built.
        clear_operator_caches()
        strategies = np.random.default_rng(3032).integers(-1, 2, (2, 3, 4))
        strategies.setflags(write=False)
        targets = [
            CorrelationTarget(settings=(0, 3, 1), value=0.5, tolerance=1e-3),
            CorrelationTarget(settings=(2, 2, 2), value=-0.25),
        ]
        before = hidden_variables._enumerated.cache_info().currsize
        problem = build_feasibility_lp(strategies, targets, 1e-6, 0.5)
        assert hidden_variables._enumerated.cache_info().currsize == before
        assert _lp_bytes(problem.a_eq, problem.b_eq, problem.a_ub, problem.b_ub,
                         problem.eq_labels, problem.ub_labels) == _lp_bytes(
            *_per_row_lp(strategies, targets, 1e-6, 0.5))

    def test_cleared_caches_hold_no_strategy_classes(self):
        # Clearing the caches empties both the enumeration's and the
        # strategy classes' and frees their arrays, so the cache bounds also
        # bound the memory they hold.
        from esrsim.correlations import GHZ_CONTEXTS

        clear_operator_caches()
        ghz_local_model_search(GHZScenario.standard(), 0.5)
        caches = (hidden_variables._enumerated, hidden_variables._strategy_classes,
                  *(getattr(hidden_variables, name) for name in _SHAPE_CACHES))
        assert [cache.cache_info().currsize for cache in caches] == [1] * 5
        held = [weakref.ref(enumerate_local_strategies(3, 2))]
        held += map(weakref.ref, hidden_variables._strategy_classes(3, 2, GHZ_CONTEXTS))
        held += map(weakref.ref, hidden_variables._class_ceilings(3, 2, GHZ_CONTEXTS))
        clear_operator_caches()
        assert [cache.cache_info().currsize for cache in caches] == [0] * 5
        assert [ref() for ref in held] == [None] * 5

    @pytest.mark.parametrize("name", _SHAPE_CACHES)
    def test_per_shape_caches_are_bounded_and_read_only(self, name):
        # Each is a functools cache, which clear_operator_caches finds by its
        # cache_clear, holds at most _ENUMERATION_CACHE_SIZE keys and hands
        # out values that no caller can write to.
        clear_operator_caches()
        cache = getattr(hidden_variables, name)
        assert cache.cache_parameters()["maxsize"] == hidden_variables._ENUMERATION_CACHE_SIZE
        keys = [(1, 1, ((0,),)), (1, 2, ((1,),)), (2, 1, ((0, 0),)), (2, 2, ((0, 1), (1, 1))),
                (1, 3, ((2,), (0,))), (3, 2, ((0, 0, 0), (1, 1, 0)))]
        assert len(keys) > hidden_variables._ENUMERATION_CACHE_SIZE
        for key in keys:
            args = key[:2] if name == "_slot_keys" else key
            value = cache(*args)
            assert cache(*args) is value
            assert isinstance(value, tuple)
            for part in value:
                if isinstance(part, np.ndarray):
                    with pytest.raises(ValueError, match="read-only"):
                        part[...] = 0.0
                else:
                    assert isinstance(part, tuple)
            assert cache.cache_info().currsize <= hidden_variables._ENUMERATION_CACHE_SIZE

    @pytest.mark.parametrize("shape, contexts", _LP_CASES, ids=_LP_CASE_IDS)
    def test_per_shape_caches_match_a_row_by_row_build(self, shape, contexts):
        # The class LP written from the cached ceilings and label prefixes
        # has the bytes and labels of the LP built one row at a time over
        # the class representatives' outcomes.  The writer hands its arrays
        # to the problem without a copy, and they end read-only.
        targets = [CorrelationTarget(settings=ctx, value=0.5, tolerance=1e-3)
                   for ctx in contexts]
        contexts = tuple(dict.fromkeys(t.settings for t in targets))
        index, block = hidden_variables._strategy_classes(*shape, contexts)
        problem = hidden_variables._feasibility_lp(
            block, contexts, [(t.settings, t.value, t.tolerance) for t in targets],
            *shape, 1e-6, 0.5, hidden_variables._class_ceilings(*shape, contexts))
        assert _lp_bytes(problem.a_eq, problem.b_eq, problem.a_ub, problem.b_ub,
                         problem.eq_labels, problem.ub_labels) == _lp_bytes(
            *_per_row_lp(enumerate_local_strategies(*shape)[index], targets, 1e-6, 0.5))
        assert hidden_variables._slot_keys(*shape) == tuple(np.ndindex(*shape))
        for name in ("a_eq", "b_eq", "a_ub", "b_ub"):
            array = getattr(problem, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

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
            "min_joint_detection must be finite, got nan",
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
            "tolerance must be finite, got nan",
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
        (
            lambda: ghz_local_model_search(GHZScenario.standard(), tolerance=math.nan),
            "tolerance must be finite, got nan",
        ),
        (
            lambda: ghz_local_model_search(GHZScenario.standard(), tolerance=-0.1),
            "inconsistent tolerance sign: -0.1",
        ),
        (
            lambda: ghz_local_model_search(GHZScenario.standard(), tolerance=math.inf),
            "tolerance must be finite, got inf",
        ),
        # Read with int() these would be microstates 0 and 1.
        (
            lambda: simple_model((0.5, 0.5), {(0.7, "f"): 0.5}),
            "microstate index of micro_detection key (0.7, 'f') must be an integer, got 0.7",
        ),
        (
            lambda: simple_model((0.5, 0.5), {(True, "f"): 0.5}),
            "microstate index of micro_detection key (True, 'f') must be an integer, got True",
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
        "nan-search-tolerance",
        "negative-search-tolerance",
        "infinite-search-tolerance",
        "fractional-microstate-key",
        "bool-microstate-key",
    ],
)
def test_malformed_input_rejected(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


_GHZ_TARGETS = [CorrelationTarget(settings=ctx, value=0.5, tolerance=1e-3)
                for ctx in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))]


def _with_entry(value):
    strategies = enumerate_local_strategies(3, 2).astype(float)
    strategies[5, 1, 0] = value
    return strategies


@pytest.mark.parametrize("wrap", [float, np.float64], ids=["float", "float64"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda v: CorrelationTarget(settings=(0, 0, 0), value=v), "^target correlation "),
        (lambda v: CorrelationTarget(settings=(0, 0, 0), value=0.5, tolerance=v),
         "^tolerance must be finite"),
        (lambda v: build_feasibility_lp(_with_entry(v), _GHZ_TARGETS, 1e-6, 0.5),
         "^strategies must hold integer outcomes"),
        (lambda v: build_feasibility_lp(enumerate_local_strategies(3, 2), _GHZ_TARGETS, v, 0.5),
         "^min_joint_detection must be finite"),
        (lambda v: build_feasibility_lp(enumerate_local_strategies(3, 2), _GHZ_TARGETS, 1e-6, v),
         "^efficiency bound "),
        (lambda v: ghz_local_model_search(GHZScenario.standard(), v), "^efficiency bound "),
        (lambda v: ghz_local_model_search(GHZScenario.standard(), 0.5, v),
         "^min_joint_detection must be finite"),
        (lambda v: ghz_local_model_search(GHZScenario.standard(), 0.5, 1e-6, v),
         "^tolerance must be finite"),
        (lambda v: FeasibilityProblem(2, [[1.0, 1.0]], [v]), "^equalities: non-finite"),
        (lambda v: FeasibilityProblem(2, a_ub=[[1.0, 1.0]], b_ub=[v]),
         "^inequalities: non-finite"),
        (lambda v: FeasibilityProblem(2, [[1.0, v]], [1.0]), "^equalities: non-finite"),
        (lambda v: FeasibilityProblem(2, a_ub=[[v, 1.0]], b_ub=[1.0]),
         "^inequalities: non-finite"),
    ],
    ids=[
        "target-value", "target-tolerance", "strategies-entry", "lp-min-joint-detection",
        "lp-min-efficiency", "search-min-efficiency", "search-min-joint-detection",
        "search-tolerance", "b-eq", "b-ub", "a-eq", "a-ub",
    ],
)
def test_nonfinite_lp_parameters_raise_before_any_numpy_warning(call, message, value, wrap):
    # The per-shape caches hand over rows built before the call; a check that
    # came after a numpy op on the value would show as a RuntimeWarning here.
    # Each message names the parameter or the block of rows at fault.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call(wrap(value))


@pytest.mark.parametrize("wrap", [float, np.float64], ids=["float", "float64"])
@pytest.mark.parametrize("tolerance, message", [(0.0, "^equalities: non-finite coefficients"),
                                                (1e-3, "^inequalities: non-finite coefficients")],
                         ids=["exact", "banded"])
def test_adopted_lp_rows_are_checked_before_any_numpy_warning(tolerance, message, wrap):
    # The row writer hands its arrays to the solver's record without a copy;
    # that path keeps the finiteness check.  The writer itself takes checked
    # targets, so a NaN value gets as far as the rows; NaN arithmetic warns
    # of nothing, and the check names the block it ends up in.
    from esrsim.correlations import GHZ_CONTEXTS

    index, block = hidden_variables._strategy_classes(3, 2, GHZ_CONTEXTS)
    targets = [(ctx, wrap(math.nan) if i == 2 else 0.5, tolerance)
               for i, ctx in enumerate(GHZ_CONTEXTS)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            hidden_variables._feasibility_lp(block, GHZ_CONTEXTS, targets, 3, 2, 1e-6, 0.5)


def _planted_matrices(rng):
    """Small-integer matrices, some with copies of columns planted at random
    places, some with zeros of either sign, and single columns."""
    for trial in range(300):
        m = int(rng.integers(1, 8))
        n = 1 if trial % 10 == 0 else int(rng.integers(2, 40))
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        if trial % 3 == 0:
            a[:, rng.integers(0, n, n // 2)] = a[:, rng.integers(0, n, n // 2)]
        if trial % 3 == 1:
            a[(a == 0.0) & (rng.random(a.shape) < 0.5)] = -0.0
        yield a


def _first_copies(a):
    """The oracle: np.unique's first index of each distinct column of bits."""
    _, first = np.unique(a.view(np.int64), axis=1, return_index=True)
    return np.sort(first)


class TestClassFinder:
    """``_first_distinct_columns``, the one place that compares LP columns,
    against ``np.unique`` over the columns' bits."""

    def test_planted_matrices(self):
        with_copies = signed_zeros = 0
        for a in _planted_matrices(np.random.default_rng(3031)):
            expected = _first_copies(a)
            assert np.array_equal(hidden_variables._first_distinct_columns(a), expected), a
            with_copies += expected.size < a.shape[1]
            signed_zeros += bool(np.signbit(a[a == 0.0]).any())
        assert with_copies >= 50 and signed_zeros >= 50

    @pytest.mark.parametrize("shape", list(_BLOCK_CONTEXTS), ids=str)
    def test_strategy_classes_of_other_contexts(self, shape):
        outcomes = enumerate_local_strategies(*shape)
        contexts = tuple(_BLOCK_CONTEXTS[shape])
        index, block = hidden_variables._strategy_classes(*shape, contexts)
        assert np.array_equal(index, _first_copies(hidden_variables._indicators(outcomes, contexts)))
        # (1, 3) reads every slot, so every strategy is its own class.
        assert (index.size == len(outcomes)) == (shape == (1, 3))
        assert np.array_equal(block, hidden_variables._indicators(outcomes[index], contexts))
        assert hidden_variables._strategy_classes(*shape, contexts)[1] is block
